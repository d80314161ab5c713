#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
  python3 perfbench/run.py compare OLD NEW
  python3 perfbench/run.py selftest

Workloads: run-stream, run-full, sweep-batch, serve-small (see
perfbench/README.md for why each exists and what it measures).

With --trace 0 the end-to-end metrics are measured on the doda binary
itself, as a user runs it. With --trace 1 the probe (perfbench/probe)
calls each layer's public functions under spans and reports the
per-layer metrics, plus the gap to an untraced run of the same
workload. Either way every output is checked against an oracle, the
last stdout line is one JSON object, and a result file is written under
perfbench/results/ (timestamped, plus a -latest copy).
"""

import argparse
import datetime
import json
import os
import platform
import re
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DODA = os.path.join("_build", "default", "bin", "doda_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe", "probe.exe")
OUT = os.path.join("perfbench", "out")
RESULTS = os.path.join("perfbench", "results")
WORKLOADS = ["run-stream", "run-full", "sweep-batch", "serve-small"]

# Input sizes. "full" is the benchmark; "tiny" exists for the self-test,
# which must run every workload in seconds.
SIZES = {
    "full": dict(run_n=3000, full_max_steps=1 << 22, sweep_n=100000,
                 sweep_bound=199998, sweep_horizon=1 << 23, sweep_reps=64,
                 batch_prefix=1 << 22, serve_n=32, serve_loop_jobs=10000),
    "tiny": dict(run_n=60, full_max_steps=2048, sweep_n=1000,
                 sweep_bound=1998, sweep_horizon=1 << 14, sweep_reps=64,
                 batch_prefix=1 << 12, serve_n=8, serve_loop_jobs=600),
}
# Load generators: at most nproc (2 on the reference machine). The timed
# sweeps run at 1 job and the -j 2 oracle sweep runs the prefetch
# pipeline: on a shared VM a busy host delays every hand-off between the
# two domains, and -j 2 then took up to twice as long as -j 1, which
# measured the host. For the same reason serve-small pins the server and
# its client to one CPU (see perfbench/README.md).
SWEEP_JOBS = 1
ORACLE_JOBS = 2
SERVE_CLIENTS = 2
# Jobs per --seconds of the traced serve loops.
SERVE_JOBS_PER_S = 2000
SWEEP_ALGOS = ["gathering", "waiting"]
SETUP_REPEATS = {"run-stream": 15, "run-full": 15, "serve-small": 5}
TIME_LIMIT_S = 170  # the benchmark must exit within 180 s after its build


class Failure(Exception):
    """A divergence from an oracle: counted, named, and fatal at exit."""


class Bench:
    def __init__(self, args, size):
        self.args = args
        self.sz = size
        self.children = []
        self.cpus = None  # CPUs the children are pinned to, if any
        self.attempted = 0
        self.errors = []
        self.counts = {}
        self.report = {}

    # -- processes --------------------------------------------------------

    def spawn(self, cmd):
        err = open(os.path.join(OUT, "stderr-%d.txt" % os.getpid()), "ab")
        cpus = self.cpus
        p = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err,
            preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)))
        err.close()
        self.children.append(p)
        return p

    def reap(self, p):
        """Wait for [p]; its exit code and peak RSS in MB."""
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(p)
        return p.returncode, ru.ru_maxrss / 1024.0

    def run(self, cmd):
        """Run [cmd] to completion: (wall seconds, stdout, peak RSS MB)."""
        t0 = time.perf_counter()
        p = self.spawn(cmd)
        out = p.stdout.read().decode()
        p.stdout.close()
        code, rss = self.reap(p)
        wall = time.perf_counter() - t0
        if code != 0:
            raise Failure("%s exited with code %d" % (" ".join(cmd), code))
        return wall, out, rss

    def kill_all(self):
        for p in list(self.children):
            try:
                p.kill()
            except OSError:
                pass
            try:
                os.waitpid(p.pid, 0)
            except OSError:
                pass
        self.children = []

    # -- checks -----------------------------------------------------------

    def check(self, what, ok, detail):
        """One checked operation: counted as attempted, and as failed
        when [ok] is false."""
        self.attempted += 1
        if not ok:
            self.errors.append("%s: %s" % (what, detail))

    def probe(self, *kv):
        _, out, _ = self.run([PROBE] + list(kv))
        return json.loads(out.strip().splitlines()[-1])

    # -- doda run ---------------------------------------------------------

    def run_budget(self, stream):
        """--max-steps of the timed command: doda run's default on the
        streamed path, a fixed horizon on the materialised one."""
        n = self.sz["run_n"]
        return 200 * n * n + 10000 if stream else self.sz["full_max_steps"]

    def run_cmd(self, stream, max_steps=None):
        cmd = [DODA, "run"] + (["--stream"] if stream else []) + [
            "-a", "gathering", "-s", "uniform", "-n", str(self.sz["run_n"]),
            "--seed", str(self.args.seed)]
        if max_steps is not None:
            cmd += ["--max-steps", str(max_steps)]
        return cmd

    def timed_trials(self, trial, seconds):
        """Repeat [trial] while one more, at the mean pace so far, still
        ends within [seconds] (at least once)."""
        samples = []
        t0 = time.perf_counter()
        while not samples or (time.perf_counter() - t0) * (
                len(samples) + 1) / len(samples) <= seconds:
            samples.append(trial(len(samples)))
        return samples

    def cli_run_workload(self, stream, seconds):
        """Set-up time is the median over minimal invocations
        (--max-steps 1): SETUP_REPEATS of them first, which also warm up
        the binary, and then one before every timed trial, so that they
        span the same stretch of machine time as the trials."""
        setups = []

        def setup_trial():
            wall, out, _ = self.run(self.run_cmd(stream, max_steps=1))
            r = parse_run(out)
            self.check("setup run %d" % len(setups),
                       r.get("stop") == "step limit" and r.get("steps") == 1,
                       "--max-steps 1 did not stop after one step")
            setups.append(wall)

        def trial(i):
            setup_trial()
            return self.run(self.run_cmd(stream, max_steps=budget))

        for _ in range(SETUP_REPEATS[self.args.workload]):
            setup_trial()
        budget = None if stream else self.run_budget(False)
        trials = self.timed_trials(trial, seconds)
        return (statistics.median(setups),
                [(w, parse_run(o), rss) for w, o, rss in trials])

    def check_runs(self, name, trials, oracle, cost=None):
        frozen = oracle["frozen"]
        for i, (_, r, _) in enumerate(trials):
            got = {k: r.get(k) for k in
                   ("stop", "steps", "transmissions", "duration")}
            self.check("%s trial %d" % (name, i), got == frozen,
                       "doda run printed %s, Engine.run on the frozen schedule "
                       "gives %s" % (got, frozen))
            if cost is not None:
                opt = cost["opt"]
                self.check("%s trial %d cost" % (name, i),
                           r.get("cost") == cost["cost"],
                           "cost %s, Cost.of_result gives %s"
                           % (r.get("cost"), cost["cost"]))
                # doda run prints opt + 1; a finished run can be no
                # faster than the offline optimum (paper, section 2.3).
                dur = r.get("duration")
                self.check(
                    "%s trial %d optimum" % (name, i),
                    r.get("opt") == (None if opt is None else opt + 1)
                    and (dur is None or (opt is not None and dur >= opt)),
                    "offline optimum %s, duration %s; Convergecast.opt gives "
                    "%s" % (r.get("opt"), dur, opt))

    def run_stream(self, seconds):
        setup, trials = self.cli_run_workload(True, seconds)
        steps = trials[0][1].get("steps")
        oracle = self.probe("run-oracle", "n=%d" % self.sz["run_n"],
                            "seed=%d" % self.args.seed, "algo=gathering",
                            "max_steps=%d" % self.run_budget(True),
                            "steps=%d" % max(1, steps or 1), "stream=1")
        if self.args.inject_fault:
            oracle["frozen"]["steps"] += 1
        self.check("run-stream in-process stream",
                   oracle["stream"]["result"] == oracle["frozen"],
                   "Engine.run streamed and frozen differ")
        self.check_runs("run-stream", trials, oracle)
        self.counts.update(
            steps=steps, transmissions=trials[0][1].get("transmissions"),
            **{"schedule.chunk.refills": oracle["stream"]["refills"],
               "gc.minor_words_per_step": oracle["stream"]["minor_words_per_step"]})
        return self.run_metrics(setup, trials)

    def run_full(self, seconds):
        setup, trials = self.cli_run_workload(False, seconds)
        steps = trials[0][1].get("steps")
        oracle = self.probe("run-oracle", "n=%d" % self.sz["run_n"],
                            "seed=%d" % self.args.seed, "algo=gathering",
                            "max_steps=%d" % self.run_budget(False),
                            "steps=%d" % max(1, steps or 1), "cost=1")
        if self.args.inject_fault:
            oracle["cost"] = oracle["cost"] + "0"
        self.check_runs("run-full", trials, oracle, cost=oracle)
        self.counts.update(steps=steps,
                           transmissions=trials[0][1].get("transmissions"))
        return self.run_metrics(setup, trials)

    def run_metrics(self, setup, trials):
        walls = [w for w, _, _ in trials]
        steps = trials[0][1].get("steps") or 0
        rates = [steps / max(w - setup, 1e-9) for w in walls]
        self.report.update(trials=len(trials), wall_s=sample_stats(walls))
        return {
            "setup_s": (setup, "s"),
            "steps_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (max(rss for _, _, rss in trials), "MB"),
        }

    # -- doda sweep --batch --stream --------------------------------------

    def sweep_cmd(self, algo, jobs, csv=None, metrics=False, max_steps=None):
        sz = self.sz
        cmd = [DODA, "sweep", "--batch", "--stream", "-a", algo,
               "-s", "bounded-recurrent:%d" % sz["sweep_bound"],
               "--ns", str(sz["sweep_n"]), "--reps", str(sz["sweep_reps"]),
               "--max-steps", str(max_steps or sz["sweep_horizon"]),
               "-j", str(jobs), "--seed", str(self.args.seed)]
        if csv:
            cmd += ["--csv", csv]
        if metrics:
            cmd.append("--metrics")
        return cmd

    def sweep_workload(self, seconds):
        """Cycles of, for each algorithm, the timed sweep, preceded in
        every other cycle by a set-up sweep (--max-steps 1), until one
        more cycle would pass [seconds] (at least one cycle).
        Interleaving keeps the set-up samples in the same stretch of
        machine time as the trials they are subtracted from. Returns
        {algo: [(set-up wall or None, wall, (table, CSV), peak RSS MB)]}."""
        def one(algo, k):
            setup = None
            if k % 2 == 0:
                setup, out, _ = self.run(self.sweep_cmd(algo, SWEEP_JOBS,
                                                        max_steps=1))
                self.check("setup sweep %s %d" % (algo, k),
                           sweep_table(out) != "", "no table printed")
            csv = os.path.join(OUT, "sweep-%s-j%d.csv" % (algo, SWEEP_JOBS))
            wall, out, rss = self.run(self.sweep_cmd(algo, SWEEP_JOBS, csv=csv))
            return setup, wall, (sweep_table(out), read(csv)), rss

        runs = {algo: [] for algo in SWEEP_ALGOS}
        t0 = time.perf_counter()
        cycles = 0
        while True:
            for algo in SWEEP_ALGOS:
                runs[algo].append(one(algo, cycles))
            cycles += 1
            if (time.perf_counter() - t0) * (cycles + 1) / cycles > seconds:
                return runs

    def sweep_oracle(self, runs):
        """The same sweeps at -j 2, through the prefetch pipeline, must
        print the same table and write a byte-identical CSV; their
        counters (jobs-invariant) are the deterministic counts."""
        lane_steps = 0
        for algo in SWEEP_ALGOS:
            csv = os.path.join(OUT, "sweep-%s-j%d.csv" % (algo, ORACLE_JOBS))
            _, out, _ = self.run(self.sweep_cmd(algo, ORACLE_JOBS, csv=csv,
                                                metrics=True))
            want = (sweep_table(out), read(csv))
            if self.args.inject_fault:
                want = (want[0], want[1] + "0")
            for i, (_, _, tables, _) in enumerate(runs[algo]):
                self.check("sweep-batch %s trial %d" % (algo, i),
                           tables == want,
                           "table or CSV at -j %d differs from -j %d"
                           % (SWEEP_JOBS, ORACLE_JOBS))
            counters = parse_counters(out)
            decodes = counters.get("batch.decodes", 0)
            reps = counters.get("batch.rep_steps", 0)
            self.check("sweep-batch %s counters" % algo,
                       0 < decodes <= self.sz["sweep_horizon"]
                       and reps <= decodes * self.sz["sweep_reps"],
                       "batch counters out of range: %s" % counters)
            lane_steps += reps
            for k in ("batch.decodes", "batch.rep_steps", "stream.refills"):
                self.counts["%s.%s" % (algo, k)] = counters.get(k)
        return lane_steps

    def sweep_batch(self, seconds):
        runs = self.sweep_workload(seconds)
        lane_steps = self.sweep_oracle(runs)
        # Per algorithm, the median set-up and the median sweep; a pair
        # is one sweep of each algorithm.
        setup = sum(statistics.median(setups(runs[a])) for a in runs)
        pair = sum(statistics.median(r[1] for r in runs[a]) for a in runs)
        busy = max(pair - setup, 1e-9)
        reps = self.sz["sweep_reps"] * len(SWEEP_ALGOS)
        for algo in SWEEP_ALGOS:
            self.report["wall_s." + algo] = sample_stats(
                [r[1] for r in runs[algo]])
            self.report["setup_s." + algo] = sample_stats(setups(runs[algo]))
        self.report.update(trials=sum(len(v) for v in runs.values()),
                           reps_per_s=stat_value(reps / busy, "1/s"))
        return {
            "setup_s": (setup, "s"),
            "steps_per_s": (lane_steps / busy, "1/s"),
            "peak_rss_mb": (max(r[3] for v in runs.values() for r in v), "MB"),
        }

    # -- doda serve ---------------------------------------------------------

    def start_server(self, k):
        """Spawn doda serve; returns (process, socket path, seconds from
        spawn to the first accepted connection)."""
        path = os.path.join(OUT, "serve-%d-%d.sock" % (os.getpid(), k))
        if os.path.exists(path):
            os.remove(path)
        t0 = time.perf_counter()
        p = self.spawn([DODA, "serve", "--socket", path, "--jobs", "1"])
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(path)
                break
            except OSError:
                if p.poll() is not None:
                    raise Failure("doda serve exited before accepting")
                time.sleep(0.0005)
            finally:
                s.close()
        return p, path, time.perf_counter() - t0

    def stop_server(self, p):
        # doda serve installs its SIGTERM handler after "listening on";
        # a signal before that line would kill it instead of draining.
        out = p.stdout.readline().decode()
        time.sleep(0.02)
        p.send_signal(signal.SIGTERM)
        out += p.stdout.read().decode()
        p.stdout.close()
        code, rss = self.reap(p)
        if code != 0:
            raise Failure("doda serve exited with code %d" % code)
        m = re.search(r"drained cleanly: (\d+) completed, (\d+) cancelled, "
                      r"(\d+) failed, (\d+) rejected", out)
        return m, rss

    def serve_setup(self, first, count):
        """Set-up samples from [count] servers started and drained."""
        walls = []
        for k in range(first, first + count):
            p, _, wall = self.start_server(k)
            m, _ = self.stop_server(p)
            self.check("setup server %d" % k, m is not None,
                       "no drain line after SIGTERM")
            walls.append(wall)
        return walls

    def serve_small(self, seconds):
        """Closed loops of a fixed number of jobs, each against a fresh
        doda serve, while one more loop at the mean pace still ends
        within [seconds]. Loop k runs jobs k*J .. k*J + J - 1, so the
        jobs differ and a seed fixes them all. The server keeps one
        thread handle per connection it has served, so a fixed count
        per server keeps its peak RSS from following the machine's
        speed. The loops are pinned to one CPU: across the two vCPUs of
        a shared VM, each wake-up between client, connection thread and
        executor waited on the host. The set-up samples are not pinned;
        two per loop join the SETUP_REPEATS taken first."""
        cpu = {min(os.sched_getaffinity(0))}
        first = SETUP_REPEATS["serve-small"]
        setups = self.serve_setup(0, first)
        jobs = self.sz["serve_loop_jobs"]
        loops, rss = [], 0.0
        t0 = time.perf_counter()
        while not loops or (time.perf_counter() - t0) * (
                len(loops) + 1) / len(loops) <= seconds:
            k = len(loops)
            setups += self.serve_setup(first + 3 * k, 2)
            self.cpus = cpu
            p, path, _ = self.start_server(first + 3 * k + 2)
            loop = self.probe("serve-loop", "socket=" + path,
                              "n=%d" % self.sz["serve_n"],
                              "seed=%d" % self.args.seed,
                              "clients=%d" % SERVE_CLIENTS,
                              "first=%d" % (k * jobs), "jobs=%d" % jobs,
                              "max_seconds=%g" % seconds,
                              "inject=%d" % int(self.args.inject_fault))
            m, r = self.stop_server(p)
            self.cpus = None
            rss = max(rss, r)
            self.attempted += loop["attempted"]
            self.errors += loop["errors"]
            self.check("serve-small loop %d drain" % k, m is not None
                       and int(m.group(1)) == loop["completed"]
                       and int(m.group(3)) == 0 and int(m.group(4)) == 0,
                       "server drain line %r does not match %d completed jobs"
                       % (m and m.group(0), loop["completed"]))
            loops.append(loop)
        wall = sum(l["wall_s"] for l in loops)
        completed = sum(l["completed"] for l in loops)
        # The first loop's counts are the seed-exact ones; how many
        # loops fit depends on the machine.
        self.counts.update(jobs=loops[0]["attempted"], steps=loops[0]["steps"])
        self.report.update(
            loops=len(loops),
            loop_steps_per_s=stat_value(
                sum(l["steps"] for l in loops) / wall, "1/s"),
            jobs_per_s=stat_value(completed / wall, "1/s"),
            latency_p50_ms=stat_value([l["latency_p50_ms"] for l in loops],
                                      "ms"),
            latency_p99_ms=stat_value([l["latency_p99_ms"] for l in loops],
                                      "ms"),
            latency_samples=completed,
            latency_beyond_p99=sum(l["beyond_p99"] for l in loops))
        return {
            "setup_s": (statistics.median(setups), "s"),
            "steps_per_s": (statistics.median(
                r for l in loops for r in l["window_rates"]), "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }

    # -- traced run ---------------------------------------------------------

    def traced(self, seconds):
        """Per-layer metrics: every layer family runs in the probe under
        spans; the workload's own family is also compared with an
        untraced run of the doda binary (tracing overhead, and how much
        of the untraced time the layer spans account for)."""
        w = self.args.workload
        # The untraced reference only has to show the tracing overhead,
        # so it gets a quarter of the run time; the layer suite is fixed.
        part = seconds / 4.0
        untraced = None
        if w in ("run-stream", "run-full"):
            setup, trials = self.cli_run_workload(w == "run-stream", part)
            untraced = statistics.median(t[0] for t in trials) - setup
        elif w == "sweep-batch":
            # The traced spans include building the footprint, so the
            # untraced side keeps its set-up too.
            runs = self.sweep_workload(part)
            self.sweep_oracle(runs)
            untraced = sum(statistics.median(r[1] for r in v)
                           for v in runs.values())
        p, path, _ = self.start_server(0)
        sz = self.sz
        serve_jobs = int(SERVE_JOBS_PER_S * (part if w == "serve-small"
                                             else 2.0))
        trace_file = os.path.join(
            OUT, "trace-%s-s%d.json" % (w, self.args.seed))
        res = self.probe(
            "layers", "n=%d" % sz["run_n"],
            "full_max_steps=%d" % sz["full_max_steps"],
            "seed=%d" % self.args.seed,
            "sweep_n=%d" % sz["sweep_n"], "sweep_bound=%d" % sz["sweep_bound"],
            "sweep_horizon=%d" % sz["sweep_horizon"],
            "sweep_reps=%d" % sz["sweep_reps"],
            "batch_prefix=%d" % sz["batch_prefix"], "socket=" + path,
            "serve_n=%d" % sz["serve_n"], "serve_jobs=%d" % serve_jobs,
            "serve_untraced_jobs=%d" % (serve_jobs if w == "serve-small" else 0),
            "serve_max_seconds=%g" % (1.5 * seconds),
            "trace=" + trace_file)
        self.stop_server(p)
        self.check("probe layer checks", not res["errors"],
                   "; ".join(res["errors"]))
        fam = res["family"][w]
        serve = res["family"]["serve-small"]
        for loop in serve.values():
            self.attempted += loop["attempted"]
            self.errors += loop["errors"]
        if w in ("run-stream", "run-full"):
            oracle = res["oracle"][w]
            self.check_runs(w, trials, oracle,
                            cost=oracle if w == "run-full" else None)
        if untraced is not None:
            overhead = fam["traced_s"] / untraced - 1.0
            accounted = fam["accounted_s"] / untraced
        else:
            t, u = serve["traced"], serve["untraced"]
            overhead = t["latency_p50_ms"] / u["latency_p50_ms"] - 1.0
            parts = sum(t[k] for k in ("connect_ms", "admit_ms", "queue_ms",
                                       "execute_ms", "unattributed_ms"))
            accounted = parts / t["latency_p50_ms"]
        self.report.update(trace_file=trace_file, spans=res["spans"],
                           spans_dropped=res["spans_dropped"])
        metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in res["metrics"].items()}
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics["trace.accounted_frac"] = (accounted, "ratio")
        return metrics


# -- parsing helpers ---------------------------------------------------------

def setups(sweeps):
    """The set-up samples among one algorithm's sweep records."""
    return [r[0] for r in sweeps if r[0] is not None]


def read(path):
    with open(path) as f:
        return f.read()


def parse_run(out):
    """The fields doda run prints."""
    r = {}
    for line in out.splitlines():
        key, _, val = line.partition(": ")
        val = val.strip()
        if key == "stop":
            r["stop"] = val
        elif key in ("steps", "transmissions"):
            r[key] = int(val)
        elif key == "duration":
            r["duration"] = None if val == "-" else int(val)
        elif key == "cost":
            r["cost"] = val
        elif key == "offline optimum on played prefix":
            r["opt"] = None if val == "infeasible" else int(val)
    return r


def sweep_table(out):
    """The result table of doda sweep: its output without the report
    lines (csv written, log-log fit, counters)."""
    lines = []
    for line in out.splitlines():
        if line.startswith(("csv written", "log-log", "counter", "gauge",
                            "histogram", "span")):
            continue
        lines.append(line)
    return "\n".join(lines)


def parse_counters(out):
    c = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "counter":
            c[parts[1]] = int(parts[2])
    return c


def sample_stats(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) >= 2 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2],
            "samples": len(xs), "unit": "s", "all": xs}


def stat_value(x, unit):
    if isinstance(x, list):
        return {"value": statistics.median(x), "unit": unit, "samples": len(x)}
    return {"value": x, "unit": unit}


# -- benchmark definition ----------------------------------------------------

def load_benchmark():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


PER_LAYER_UNITS = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}


def environment(args):
    def cmd_out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=20).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = (cmd_out(["git", "rev-parse", "HEAD"])
              if os.path.isdir(".git") else "") or "unknown"
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ocaml": cmd_out(["ocamlopt", "-version"]) or "unknown",
        "jobs": {"run-stream": 1, "run-full": 1, "sweep-batch": SWEEP_JOBS,
                 "serve-small": 1}[args.workload],
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
        "seed": args.seed,
        "platform": platform.platform(),
    }


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        print("perfbench: run from the root of a doda checkout "
              "(dune-project, lib/ and bin/ are missing here)", file=sys.stderr)
        sys.exit(2)
    try:
        p = subprocess.run(["dune", "build", "--root", ".", "./bin/doda_cli.exe",
                            "./perfbench/probe/probe.exe"],
                           stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        sys.exit(2)
    if p.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)


def write_results(args, payload):
    os.makedirs(RESULTS, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S.%fZ")
    kind = "trace" if args.trace else "e2e"
    base = "%s-%s" % (args.workload, kind)
    for name in ("%s-%s-s%d.json" % (base, stamp, args.seed),
                 "%s-latest.json" % base):
        with open(os.path.join(RESULTS, name), "w") as f:
            json.dump(payload, f, indent=1, sort_keys=True)
            f.write("\n")


def bench_main(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Self-test knobs: tiny inputs, and a corrupted expected value.
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    os.makedirs(OUT, exist_ok=True)
    b = Bench(args, SIZES[args.size])

    def on_alarm(*_):
        raise TimeoutError("perfbench: time limit of %d s exceeded"
                           % TIME_LIMIT_S)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        if args.trace:
            metrics = b.traced(args.seconds)
        else:
            metrics = {"run-stream": b.run_stream, "run-full": b.run_full,
                       "sweep-batch": b.sweep_batch,
                       "serve-small": b.serve_small}[args.workload](args.seconds)
    except (Failure, TimeoutError, OSError, ValueError, KeyError) as e:
        b.kill_all()
        print("perfbench: %s: %s" % (args.workload, e), file=sys.stderr)
        sys.exit(1)
    finally:
        signal.alarm(0)
        b.kill_all()

    failed = len(b.errors)
    attempted = max(b.attempted, 1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_results(args, {
        "workload": args.workload, "trace": args.trace, "seed": args.seed,
        "seconds": args.seconds, "size": args.size,
        "environment": environment(args), "counts": b.counts,
        "report": dict(b.report, failed_frac=failed / attempted),
        "errors": b.errors, "result": result,
    })
    for e in b.errors:
        print("perfbench: FAILED %s" % e, file=sys.stderr)
    print("workload %s seed %d (%s)" % (args.workload, args.seed,
                                        "traced" if args.trace else "untraced"))
    for k, (v, u) in sorted(metrics.items()):
        print("  %-40s %14.6g %s" % (k, v, u))
    for k, v in sorted(b.report.items()):
        if isinstance(v, dict) and "value" in v:
            print("  %-40s %14.6g %s%s" % (
                k, v["value"], v["unit"],
                "  (%d samples)" % v["samples"] if "samples" in v else ""))
        elif isinstance(v, dict):
            print("  %-40s median %.6g %s, q1 %.6g, q3 %.6g (%d samples)" % (
                k, v["median"], v["unit"], v["q1"], v["q3"], v["samples"]))
        else:
            print("  %-40s %s" % (k, v))
    print("  %-40s %14.6g ratio  (%d attempted)" % (
        "failed_frac", failed / attempted, attempted))
    for k, v in sorted(b.counts.items()):
        print("  count %-34s %s" % (k, v))
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


# -- compare -----------------------------------------------------------------

def load_results(path):
    """Result files under [path] (or [path] itself), latest copies
    excluded: {(workload, trace): [payload, ...]}."""
    files = ([path] if os.path.isfile(path) else
             [os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json") and not f.endswith("-latest.json")])
    runs = {}
    for f in files:
        with open(f) as fh:
            p = json.load(fh)
        runs.setdefault((p["workload"], p["trace"]), []).append(p)
    return runs


def flat_metrics(p):
    m = {k: v["value"] for k, v in p["result"]["metrics"].items()}
    for k, v in p.get("report", {}).items():
        if isinstance(v, dict) and "value" in v:
            m[k] = v["value"]
    return m


def verdict(old, new, better, bound):
    """A gain needs >= 9/10 of the pairs won and a median shift beyond
    the parent's interquartile spread; a loss beyond [bound] is worse;
    spread wider than [bound] is unresolved unless every new run beats
    every old one."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    losses = sum(1 for o, n in pairs if sign * (n - o) < 0)
    mo, mn = statistics.median(old), statistics.median(new)
    q = statistics.quantiles(old, n=4) if len(old) >= 2 else [mo, mo, mo]
    iqr = q[2] - q[0]
    shift = sign * (mn - mo)
    if pairs and wins >= 0.9 * len(pairs) and shift > iqr:
        v = "improved"
    elif bound is None:
        v = ("worse" if pairs and losses >= 0.9 * len(pairs) and -shift > iqr
             else "unchanged" if abs(shift) <= iqr else "unresolved")
    elif abs(mo) > 0 and iqr / abs(mo) > bound and not (
            min(sign * x for x in new) > max(sign * x for x in old)):
        v = "unresolved"
    elif abs(mo) > 0 and -shift / abs(mo) > bound:
        v = "worse"
    else:
        v = "unchanged"
    return v, wins, losses, mo, mn, iqr


def compare_main(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py compare")
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = load_benchmark()
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    # Report-only metrics (printed, kept in result files, not in the
    # final JSON line): same rule, no bound.
    rules.update({"reps_per_s": ("higher", None), "jobs_per_s": ("higher", None),
                  "loop_steps_per_s": ("higher", None),
                  "latency_p50_ms": ("lower", None),
                  "latency_p99_ms": ("lower", None)})
    old, new = load_results(args.old), load_results(args.new)
    print("%-12s %-5s %-40s %5s %12s %12s %12s %9s  %s" % (
        "workload", "mode", "metric", "pairs", "old median", "new median",
        "old IQR", "won/lost", "verdict"))
    for key in sorted(set(old) & set(new)):
        o_runs, n_runs = old[key], new[key]
        by_seed = {p["seed"]: p for p in n_runs}
        pairs = [(p, by_seed[p["seed"]]) for p in o_runs if p["seed"] in by_seed]
        if not pairs:
            pairs = list(zip(o_runs, n_runs))
        om = [flat_metrics(a) for a, _ in pairs]
        nm = [flat_metrics(b) for _, b in pairs]
        for name in sorted(set(om[0]) & set(nm[0])):
            if name not in rules:
                continue
            better, bound = rules[name]
            v, w, l, mo, mn, iqr = verdict([m[name] for m in om],
                                           [m[name] for m in nm], better, bound)
            print("%-12s %-5s %-40s %5d %12.5g %12.5g %12.5g %4d/%-4d  %s" % (
                key[0], "trace" if key[1] else "e2e", name, len(pairs), mo, mn,
                iqr, w, l, v))
        seeded = [(a, b) for a, b in pairs if a["seed"] == b["seed"]]
        differ = [a["seed"] for a, b in seeded if a["counts"] != b["counts"]]
        print("%-12s %-5s deterministic counts: %s" % (
            key[0], "trace" if key[1] else "e2e",
            "no seed in common" if not seeded else
            "differ for seeds %s" % differ if differ else
            "identical for %d seeds" % len(seeded)))
        if len(pairs) < 10:
            print("%-12s %-5s note: %d pairs; the rule wants at least 10"
                  % (key[0], "trace" if key[1] else "e2e", len(pairs)))


# -- selftest ----------------------------------------------------------------

def selftest_main(argv):
    """Every workload at tiny size, traced and untraced: each named
    metric is emitted with its unit and nothing fails; then a corrupted
    expected value must be counted as failed and make the run exit
    non-zero."""
    spec = load_benchmark()
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def bench(workload, trace, extra=()):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", "3", "--seconds", "1", "--trace",
               str(trace), "--size", "tiny"] + list(extra)
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = p.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else None
        return p, last

    for w in WORKLOADS:
        for trace in (0, 1):
            p, last = bench(w, trace)
            tag = "%s trace=%d" % (w, trace)
            if p.returncode != 0 or last is None:
                problems.append("%s: exit %d\n%s" % (tag, p.returncode,
                                                     p.stderr[-2000:]))
                continue
            if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(last)))
            if last["failed"] != 0 or not last["correct"]:
                problems.append("%s: failed %d" % (tag, last["failed"]))
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics %s, want %s" % (tag, got,
                                                            want[trace]))
            print("selftest: %s ok (%d attempted)" % (tag, last["attempted"]))
        p, last = bench(w, 0, ["--inject-fault"])
        if (p.returncode == 0 or last is None or last["failed"] < 1
                or w not in p.stderr):
            problems.append("%s: injected fault not counted (exit %d, %s)"
                            % (w, p.returncode, last))
        else:
            print("selftest: %s injected fault counted (%d failed)"
                  % (w, last["failed"]))
    for pr in problems:
        print("selftest: FAIL %s" % pr, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        compare_main(argv[1:])
    elif argv[:1] == ["selftest"]:
        selftest_main(argv[1:])
    else:
        bench_main(argv)


if __name__ == "__main__":
    main()
