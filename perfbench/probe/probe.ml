(* The in-process half of the repository benchmark: the correctness
   oracles, the closed-loop client of the served workload, and the
   traced per-layer suite. perfbench/run.py drives it; every command
   prints one JSON object on stdout.

     probe.exe run-oracle n=N seed=S algo=A max_steps=M steps=K [stream=1] [cost=1]
     probe.exe serve-loop socket=P n=N seed=S clients=C first=F jobs=J max_seconds=T
                          [inject=1]
     probe.exe layers n=N full_max_steps=M seed=S sweep_n=N sweep_bound=B sweep_horizon=H
                      sweep_reps=R batch_prefix=K socket=P serve_n=N
                      serve_jobs=J serve_untraced_jobs=J serve_max_seconds=T
                      trace=FILE

   The end-to-end numbers never come from here: run.py times the doda
   binary itself. This program times single layers, by calling their
   public functions with a span around each call. *)

module Prng = Doda_prng.Prng
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Sequence = Doda_dynamic.Sequence
module Tvg_class = Doda_dynamic.Tvg_class
module Engine = Doda_core.Engine
module Batch_engine = Doda_core.Batch_engine
module Algorithms = Doda_core.Algorithms
module Convergecast = Doda_core.Convergecast
module Cost = Doda_core.Cost
module Workload = Doda_sim.Workload
module Experiment = Doda_sim.Experiment
module Pool = Doda_sim.Pool
module Json = Doda_sim.Json
module Span = Doda_obs.Span
module Trace_event = Doda_obs.Trace_event
module Instrument = Doda_obs.Instrument
module Server = Doda_serve.Server
module Client = Doda_serve.Client
module Protocol = Doda_serve.Protocol
module Frame = Doda_serve.Frame

(* ------------------------------------------------------------------ *)
(* Arguments, clock, output                                            *)

let args =
  let h = Hashtbl.create 16 in
  for i = 2 to Array.length Sys.argv - 1 do
    let a = Sys.argv.(i) in
    match String.index_opt a '=' with
    | Some k ->
        Hashtbl.replace h (String.sub a 0 k)
          (String.sub a (k + 1) (String.length a - k - 1))
    | None ->
        prerr_endline ("probe: expected key=value, got " ^ a);
        exit 2
  done;
  h

let arg k =
  match Hashtbl.find_opt args k with
  | Some v -> v
  | None ->
      prerr_endline ("probe: missing argument " ^ k ^ "=");
      exit 2

let arg_int k =
  match int_of_string_opt (arg k) with
  | Some v -> v
  | None ->
      prerr_endline ("probe: " ^ k ^ "= is not an integer");
      exit 2

let arg_float k =
  match float_of_string_opt (arg k) with
  | Some v -> v
  | None ->
      prerr_endline ("probe: " ^ k ^ "= is not a number");
      exit 2

let flag k = Hashtbl.find_opt args k = Some "1"
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9
let ms_between a b = float_of_int (b - a) *. 1e-6

(* [f] under a span named [name]; returns its result and wall seconds. *)
let timed sink name f =
  let t0 = now_ns () in
  let r = Span.with_span sink name f in
  (r, secs_since t0)

let print_json j = print_endline (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Single runs (the run-stream and run-full workloads)                 *)

(* doda run's interaction budget for generator schedules. *)
let run_budget n = (200 * n * n) + 10_000

let algo_of ~n name =
  match Algorithms.find ~n name with
  | Some a -> a
  | None ->
      prerr_endline ("probe: unknown algorithm " ^ name);
      exit 2

(* The words doda run prints on its "stop:" line. *)
let stop_word = function
  | Engine.All_aggregated -> "aggregated"
  | Engine.Schedule_exhausted -> "schedule exhausted"
  | Engine.Step_limit -> "step limit"

let result_json (r : Engine.result) =
  Json.Obj
    [
      ("stop", Json.String (stop_word r.stop));
      ("steps", Json.Int r.steps);
      ("transmissions", Json.Int r.transmission_count);
      ( "duration",
        match r.duration with Some d -> Json.Int d | None -> Json.Null );
    ]

let same_result (a : Engine.result) (b : Engine.result) =
  a.stop = b.stop && a.steps = b.steps && a.duration = b.duration
  && a.transmission_count = b.transmission_count

(* The streamed path of doda run --stream, with the minor-heap words it
   allocates per interaction. *)
let stream_run sink ?(observers = []) name ~n ~seed ~max_steps algo =
  let sched = Workload.schedule ~stream:true Workload.Uniform ~n ~sink:0 ~seed in
  let w0 = Gc.minor_words () in
  let r, secs =
    timed sink name (fun () -> Engine.run ~max_steps ~observers algo sched)
  in
  let words = Gc.minor_words () -. w0 in
  ( r,
    secs,
    (Schedule.chunk_stats sched).Schedule.refills,
    words /. float_of_int (max 1 r.Engine.steps) )

(* The first [len] interactions of the uniform workload: the draws
   Workload.schedule makes for this seed, in the same order. *)
let uniform_prefix ~n ~seed len =
  Array.init len (Generators.uniform (Prng.create seed) ~n)

(* Generator time alone: [len] draws folded into one int, so no large
   buffer's page faults are charged to the generator. *)
let draw_loop sink name (gen : int -> Doda_dynamic.Interaction.t) len =
  snd
    (timed sink name (fun () ->
         let acc = ref 0 in
         for t = 0 to len - 1 do
           acc := !acc lxor Doda_dynamic.Interaction.to_int (gen t)
         done;
         !acc))

let frozen_of ~n arr =
  Schedule.freeze (Schedule.of_sequence ~n ~sink:0 (Sequence.of_array arr))

(* [arr] holds one interaction more than the run under test played, so
   a run cut by [max_steps] stops on the step limit here too. *)
let frozen_run sink ~n ~max_steps algo arr =
  let sched = frozen_of ~n arr in
  timed sink "engine.run/frozen" (fun () -> Engine.run ~max_steps algo sched)

(* Decode cost alone: walk a fresh streamed schedule block by block
   over [horizon] interactions without running any kernel. *)
let chunk_walk sink ~n ~seed horizon =
  let sched = Workload.schedule ~stream:true Workload.Uniform ~n ~sink:0 ~seed in
  snd
    (timed sink "schedule.chunk_view" (fun () ->
         let t = ref 0 and acc = ref 0 in
         while !t < horizon do
           let blk, off, avail = Schedule.chunk_view sched !t in
           acc := !acc lxor blk.(off);
           t := !t + avail
         done;
         !acc))

let cost_string c = Format.asprintf "%a" Cost.pp c
let opt_json = function Some o -> Json.Int o | None -> Json.Null

let run_oracle () =
  let n = arg_int "n" and seed = arg_int "seed" and steps = arg_int "steps" in
  let max_steps = arg_int "max_steps" in
  let algo = algo_of ~n (arg "algo") in
  if steps < 1 || steps > max_steps then begin
    prerr_endline "probe: steps= outside 1 .. max_steps=";
    exit 2
  end;
  let stream =
    if flag "stream" then begin
      let r, _, refills, words =
        stream_run Span.null "stream" ~n ~seed ~max_steps algo
      in
      [
        ( "stream",
          Json.Obj
            [
              ("result", result_json r);
              ("refills", Json.Int refills);
              ("minor_words_per_step", Json.Float words);
            ] );
      ]
    end
    else []
  in
  let arr = uniform_prefix ~n ~seed (steps + 1) in
  let r, _ = frozen_run Span.null ~n ~max_steps algo arr in
  let cost =
    if flag "cost" then begin
      (* doda run analyses exactly the interactions it played. *)
      let prefix = Sequence.sub (Sequence.of_array arr) ~pos:0 ~len:r.steps in
      [
        ("opt", opt_json (Convergecast.opt ~n ~sink:0 prefix 0));
        ("cost", Json.String (cost_string (Cost.of_result ~n ~sink:0 prefix r)));
      ]
    end
    else []
  in
  print_json (Json.Obj ((("frozen", result_json r) :: stream) @ cost))

(* ------------------------------------------------------------------ *)
(* The served closed loop (the serve-small workload)                   *)

type job = {
  index : int;
  seed : int;
  mutable id : int option;
  mutable reply : (string * int option * int * int) option;
      (* stop, duration, steps, transmissions *)
  mutable error : string option;
  mutable latency_ms : float;  (* connect -> terminal response *)
  mutable connect_ms : float;
  mutable admit_ms : float;  (* request written -> Accepted *)
  mutable queue_ms : float;  (* Accepted -> Started *)
  mutable execute_ms : float;  (* Started -> Run_result *)
  mutable done_ns : int;  (* when the terminal response arrived *)
}

let serve_algo = "gathering"

let run_request ~n ~seed =
  Protocol.Run
    {
      algo = serve_algo;
      n;
      sink = 0;
      seed;
      source = "uniform";
      max_steps = None;
      problem = None;
      stream = false;
      upload = None;
    }

(* Job [i] of a loop seeded [base]: deterministic, distinct per job. *)
let job_seed base i = (base * 100_003) + i

let one_job sink endpoint ~n (j : job) =
  let t0 = now_ns () in
  match Span.with_span sink "client.connect" (fun () -> Client.connect endpoint) with
  | exception e -> j.error <- Some ("connect: " ^ Printexc.to_string e)
  | conn ->
      let t1 = now_ns () in
      j.connect_ms <- ms_between t0 t1;
      (try
         Span.with_span sink "client.request" (fun () ->
             Client.request conn (run_request ~n ~seed:j.seed));
         let t2 = now_ns () in
         let phase = ref (Span.begin_span sink "serve.admit") in
         let next name =
           Span.end_span sink !phase;
           phase := Span.begin_span sink name
         in
         let t_acc = ref t2 and t_start = ref t2 in
         let rec loop () =
           match Client.read_response conn with
           | None -> j.error <- Some "server hung up before the result"
           | Some (Error e) -> j.error <- Some ("bad frame: " ^ e)
           | Some (Ok resp) -> (
               let t = now_ns () in
               match resp with
               | Protocol.Accepted { job; _ } ->
                   next "serve.queue";
                   j.id <- Some job;
                   t_acc := t;
                   loop ()
               | Protocol.Started _ ->
                   next "serve.execute";
                   t_start := t;
                   loop ()
               | Protocol.Run_result { stop; duration; steps; transmissions; _ }
                 ->
                   Span.end_span sink !phase;
                   j.latency_ms <- ms_between t0 t;
                   j.done_ns <- t;
                   j.admit_ms <- ms_between t2 !t_acc;
                   j.queue_ms <- ms_between !t_acc !t_start;
                   j.execute_ms <- ms_between !t_start t;
                   j.reply <- Some (stop, duration, steps, transmissions)
               | Protocol.Rejected { reason } ->
                   j.error <- Some ("rejected: " ^ reason)
               | Protocol.Error_response { message; _ } ->
                   j.error <- Some ("error: " ^ message)
               | _ -> j.error <- Some "unexpected response")
         in
         loop ()
       with e -> j.error <- Some (Printexc.to_string e));
      Client.close conn

(* [clients] threads, each sending its next job only after the previous
   one's terminal response, until jobs [first] .. [first + jobs - 1] have
   run (or [max_seconds] have passed). A fixed job count keeps the
   server's work, and so its memory, the same for a seed. Each thread
   records into its own span shard. *)
let closed_loop ?(first = 0) sink endpoint ~n ~seed ~clients ~jobs ~max_seconds =
  let next = Atomic.make 0 in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (max_seconds *. 1e9) in
  let finished = Array.make clients [] in
  let shards = Array.init clients (fun _ -> Span.shard sink) in
  let worker c () =
    let acc = ref [] in
    let take () =
      if now_ns () < deadline then
        let i = Atomic.fetch_and_add next 1 in
        if i < jobs then Some (first + i) else None
      else None
    in
    let rec go () =
      match take () with
      | None -> ()
      | Some i ->
          let j =
            {
              index = i;
              seed = job_seed seed i;
              id = None;
              reply = None;
              error = None;
              latency_ms = nan;
              connect_ms = nan;
              admit_ms = nan;
              queue_ms = nan;
              execute_ms = nan;
              done_ns = 0;
            }
          in
          one_job shards.(c) endpoint ~n j;
          acc := j :: !acc;
          go ()
    in
    go ();
    finished.(c) <- !acc
  in
  let threads = List.init clients (fun c -> Thread.create (worker c) ()) in
  List.iter Thread.join threads;
  let wall = secs_since t_start in
  Array.iter (Span.absorb sink) shards;
  let jobs = Array.of_list (List.concat (Array.to_list finished)) in
  Array.sort (fun a b -> compare a.index b.index) jobs;
  (jobs, wall, t_start)

(* Every reply must equal a direct Engine.run with the job's seed, and
   every job must carry its own id. [inject] corrupts the expected
   value of job 0, so the self-test can see a divergence counted. *)
let verify_jobs ~n ~inject jobs =
  let errors = ref [] in
  let fail (j : job) msg =
    errors :=
      Printf.sprintf "serve-small job %d (seed %d): %s" j.index j.seed msg
      :: !errors
  in
  let ids = Hashtbl.create (Array.length jobs) in
  let algo = algo_of ~n serve_algo in
  Array.iter
    (fun (j : job) ->
      match (j.error, j.reply, j.id) with
      | Some e, _, _ -> fail j e
      | None, None, _ -> fail j "no result"
      | None, Some _, None -> fail j "no job id"
      | None, Some (stop, duration, steps, tx), Some id ->
          if Hashtbl.mem ids id then
            fail j (Printf.sprintf "job id %d given twice" id)
          else Hashtbl.add ids id ();
          let e =
            Engine.run ~record:`Count ~max_steps:(run_budget n) algo
              (Workload.schedule Workload.Uniform ~n ~sink:0 ~seed:j.seed)
          in
          let e_steps = if inject && j.index = 0 then e.steps + 1 else e.steps in
          if
            not
              (stop = Protocol.stop_string e.stop
              && duration = e.duration && steps = e_steps
              && tx = e.transmission_count)
          then fail j "reply differs from a direct Engine.run")
    jobs;
  List.rev !errors

let median xs =
  let a = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) xs) in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank quantile over the completed jobs' latencies. *)
let quantile sorted q =
  let k = Array.length sorted in
  if k = 0 then nan
  else sorted.(min (k - 1) (int_of_float (Float.ceil (q *. float_of_int k)) - 1))

(* The loop's step rate in each of [windows] equal slices of its wall
   time, by when each job's result arrived: a stall of the machine moves
   the few slices it falls in, not the median. *)
let windowed_rates ~windows ~wall ~t_start ok =
  let len = wall /. float_of_int windows in
  let steps = Array.make windows 0 in
  List.iter
    (fun j ->
      match j.reply with
      | Some (_, _, s, _) ->
          let w = int_of_float (float_of_int (j.done_ns - t_start) *. 1e-9 /. len) in
          let w = max 0 (min (windows - 1) w) in
          steps.(w) <- steps.(w) + s
      | None -> ())
    ok;
  Array.to_list (Array.map (fun s -> float_of_int s /. len) steps)

let loop_windows = 20

let loop_summary ~n ~inject (jobs, wall, t_start) =
  let errors = verify_jobs ~n ~inject jobs in
  let ok = List.filter (fun j -> j.reply <> None) (Array.to_list jobs) in
  let lat = Array.of_list (List.map (fun j -> j.latency_ms) ok) in
  Array.sort compare lat;
  let p99 = quantile lat 0.99 in
  let field f = median (List.map f ok) in
  let unattributed j =
    j.latency_ms -. j.connect_ms -. j.admit_ms -. j.queue_ms -. j.execute_ms
  in
  let steps =
    List.fold_left
      (fun acc j ->
        match j.reply with Some (_, _, s, _) -> acc + s | None -> acc)
      0 ok
  in
  Json.Obj
    [
      ("attempted", Json.Int (Array.length jobs));
      ("failed", Json.Int (List.length errors));
      ("errors", Json.List (List.map (fun e -> Json.String e) errors));
      ("completed", Json.Int (List.length ok));
      ("wall_s", Json.Float wall);
      ("steps", Json.Int steps);
      ( "window_rates",
        Json.List
          (List.map
             (fun r -> Json.Float r)
             (windowed_rates ~windows:loop_windows ~wall ~t_start ok)) );
      ("latency_p50_ms", Json.Float (quantile lat 0.5));
      ("latency_p99_ms", Json.Float p99);
      ( "beyond_p99",
        Json.Int (Array.fold_left (fun c x -> if x > p99 then c + 1 else c) 0 lat) );
      ("connect_ms", Json.Float (field (fun j -> j.connect_ms)));
      ("admit_ms", Json.Float (field (fun j -> j.admit_ms)));
      ("queue_ms", Json.Float (field (fun j -> j.queue_ms)));
      ("execute_ms", Json.Float (field (fun j -> j.execute_ms)));
      ("unattributed_ms", Json.Float (field unattributed));
    ]

let endpoint () = Server.Unix_path (arg "socket")

let serve_loop () =
  let n = arg_int "n" in
  let loop =
    closed_loop ~first:(arg_int "first") Span.null (endpoint ()) ~n
      ~seed:(arg_int "seed")
      ~clients:(arg_int "clients") ~jobs:(arg_int "jobs")
      ~max_seconds:(arg_float "max_seconds")
  in
  print_json (loop_summary ~n ~inject:(flag "inject") loop)

(* ------------------------------------------------------------------ *)
(* The traced per-layer suite                                          *)

let layer_metrics = ref []
let errors = ref []
let metric name v = layer_metrics := (name, Json.Float v) :: !layer_metrics
let check cond msg = if not cond then errors := msg :: !errors

(* run-stream's layers: generator, chunk decode, kernel, telemetry. *)
let stream_layers sink ~n ~seed algo =
  let r, t_stream, refills, words =
    stream_run sink "engine.run/stream" ~n ~seed ~max_steps:(run_budget n) algo
  in
  let steps = r.Engine.steps in
  let t_gen =
    draw_loop sink "generators.uniform"
      (Generators.uniform (Prng.create seed) ~n)
      steps
  in
  let rf, t_frozen =
    frozen_run sink ~n ~max_steps:(run_budget n) algo
      (uniform_prefix ~n ~seed (steps + 1))
  in
  check (same_result r rf) "run-stream: streamed run differs from the frozen run";
  let t_walk = chunk_walk sink ~n ~seed steps in
  let rm, t_metrics, _, _ =
    stream_run sink "engine.run/stream+metrics" ~max_steps:(run_budget n)
      ~observers:(Instrument.engine_observers (Instrument.create ~resources:true ()))
      ~n ~seed algo
  in
  check (same_result r rm) "run-stream: --metrics changes the result";
  let f = float_of_int steps in
  metric "generators.uniform.draws_per_s" (f /. t_gen);
  metric "generators.uniform.share" (t_gen /. t_stream);
  metric "gc.minor_words_per_step" words;
  metric "schedule.chunk.refills" (float_of_int refills);
  metric "schedule.chunk.decode_overhead_s" (t_walk -. t_gen);
  metric "engine.frozen.steps_per_s" (f /. t_frozen);
  metric "engine.stream_over_frozen" (t_frozen /. t_stream);
  metric "obs.metrics_overhead_frac" ((t_metrics /. t_stream) -. 1.);
  let family =
    Json.Obj
      [
        ("traced_s", Json.Float t_stream);
        ("accounted_s", Json.Float (t_walk +. t_frozen));
      ]
  in
  (r, family)

(* run-full's layers, in doda run's order on the materialised path.
   A streamed run first tells how far to materialise. *)
let full_layers sink ~n ~seed ~max_steps algo =
  let expected, _, _, _ = stream_run Span.null "stream" ~n ~seed ~max_steps algo in
  let sched = Workload.schedule Workload.Uniform ~n ~sink:0 ~seed in
  let (), t_mat =
    timed sink "schedule.materialise" (fun () ->
        ignore (Schedule.get_exn sched (expected.steps - 1)))
  in
  let r, t_live =
    timed sink "engine.run/live-all" (fun () ->
        Engine.run ~max_steps algo sched)
  in
  check (same_result r expected) "run-full: live run differs from the streamed run";
  let prefix, t_prefix =
    timed sink "schedule.prefix" (fun () ->
        Schedule.prefix sched (Schedule.materialized sched))
  in
  let opt, t_opt =
    timed sink "convergecast.opt" (fun () -> Convergecast.opt ~n ~sink:0 prefix 0)
  in
  let cost, t_cost =
    timed sink "cost.of_result" (fun () -> Cost.of_result ~n ~sink:0 prefix r)
  in
  (match (opt, r.duration) with
  | Some o, Some d -> check (d >= o) "run-full: duration below the offline optimum"
  | _ -> ());
  metric "schedule.live.materialise_s" t_mat;
  metric "engine.live_all_s" t_live;
  metric "schedule.prefix_s" t_prefix;
  metric "convergecast.opt_s" t_opt;
  metric "cost.of_result_s" t_cost;
  let total = t_mat +. t_live +. t_prefix +. t_opt +. t_cost in
  ( Json.Obj
      [
        ("frozen", result_json r);
        ("opt", opt_json opt);
        ("cost", Json.String (cost_string cost));
      ],
    Json.Obj [ ("traced_s", Json.Float total); ("accounted_s", Json.Float total) ] )

(* One batched sweep point as doda sweep --batch --stream runs it;
   returns the measurement, its seconds and the schedule's chunk
   statistics. *)
let factory_run sink ~jobs ~n ~bound ~horizon ~reps ~seed algo =
  let built = ref None in
  let factory rng =
    let s =
      Workload.schedule ~stream:true (Workload.Bounded_recurrent bound) ~n
        ~sink:0 ~seed:(Prng.int rng 1_000_000_000)
    in
    built := Some s;
    s
  in
  let m, secs =
    timed sink
      (Printf.sprintf "experiment.run_batched_factory/%s/j%d"
         algo.Doda_core.Algorithm.name jobs)
      (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            Experiment.run_batched_factory ~pool ~replications:reps ~seed
              ~max_steps:horizon ~label:algo.name ~n factory algo))
  in
  let stats =
    match !built with
    | Some s -> Schedule.chunk_stats s
    | None -> { Schedule.refills = 0; prefetched = 0; stalls = 0; stall_ns = 0 }
  in
  (m, secs, stats)

(* sweep-batch's layers: bounded-recurrent generator, batch kernel,
   chunk prefetch, Pool and Experiment. *)
let sweep_layers sink ~seed =
  let n = arg_int "sweep_n" and bound = arg_int "sweep_bound" in
  let horizon = arg_int "sweep_horizon" and reps = arg_int "sweep_reps" in
  let prefix = arg_int "batch_prefix" in
  let gathering = algo_of ~n "gathering" and waiting = algo_of ~n "waiting" in
  let gen () = Tvg_class.gen_bounded_recurrent (Prng.create seed) ~n ~bound in
  let t_gen = draw_loop sink "generators.bounded_recurrent" (gen ()) prefix in
  let frozen = frozen_of ~n (Array.init prefix (gen ())) in
  let stats = Batch_engine.stats () in
  let _, t_batch =
    timed sink "batch_engine.run_reps/frozen" (fun () ->
        Batch_engine.run_reps ~max_steps:prefix ~record:`Count ~stats gathering
          frozen reps)
  in
  let run jobs algo = factory_run sink ~jobs ~n ~bound ~horizon ~reps ~seed algo in
  let m1, t_j1, _ = run 1 gathering in
  let m2, t_j2, cs = run 2 gathering in
  let mw, t_j1w, _ = run 1 waiting in
  check
    (m1.Experiment.samples = m2.Experiment.samples
    && m1.failures = m2.failures)
    "sweep-batch: run_batched_factory differs between 1 and 2 jobs";
  check
    (mw.Experiment.failures + Array.length mw.samples = reps)
    "sweep-batch: waiting lost replications";
  let sched =
    Workload.schedule ~stream:true (Workload.Bounded_recurrent bound) ~n ~sink:0
      ~seed
  in
  let _, t_direct =
    timed sink "batch_engine.run_reps/stream" (fun () ->
        Batch_engine.run_reps ~max_steps:horizon ~record:`Count gathering sched
          reps)
  in
  metric "generators.bounded_recurrent.draws_per_s"
    (float_of_int prefix /. t_gen);
  metric "batch_engine.frozen.lane_steps_per_s"
    (float_of_int stats.lane_steps /. t_batch);
  metric "batch_engine.occupancy"
    (float_of_int stats.lane_steps /. float_of_int (max 1 (stats.decodes * reps)));
  metric "pool.pipeline_speedup" (t_j1 /. t_j2);
  metric "experiment.driver_share" (1. -. (t_direct /. t_j1));
  metric "schedule.prefetch.hit_frac"
    (float_of_int cs.prefetched /. float_of_int (max 1 cs.refills));
  metric "schedule.prefetch.stall_ms" (float_of_int cs.stall_ns *. 1e-6);
  Json.Obj
    [
      ("traced_s", Json.Float (t_j1 +. t_j1w));
      ("accounted_s", Json.Float (t_j1 +. t_j1w));
    ]

(* Codec and framing costs, timed outside the server. *)
let codec_layers sink ~n =
  let iters = 20_000 in
  let req = run_request ~n ~seed:1 in
  let resp =
    Protocol.Run_result
      {
        job = 1;
        stop = "all-aggregated";
        duration = Some 12345;
        steps = 12346;
        transmissions = n - 1;
        problem = None;
      }
  in
  let ok = function Ok _ -> () | Error e -> failwith e in
  let parse s = match Json.parse s with Ok j -> j | Error e -> failwith e in
  let _, t_codec =
    timed sink "protocol.codec" (fun () ->
        for _ = 1 to iters do
          ok (Protocol.request_of_json (parse (Json.to_string (Protocol.request_to_json req))));
          ok (Protocol.response_of_json (parse (Json.to_string (Protocol.response_to_json resp))))
        done)
  in
  let rd, wr = Unix.pipe () in
  let ic = Unix.in_channel_of_descr rd and oc = Unix.out_channel_of_descr wr in
  let frame = Frame.Json (Protocol.request_to_json req) in
  let _, t_frame =
    timed sink "frame.roundtrip" (fun () ->
        for _ = 1 to iters do
          Frame.write oc frame;
          match Frame.read ic with
          | Some (Ok _) -> ()
          | _ -> failwith "frame round trip failed"
        done)
  in
  close_out oc;
  close_in ic;
  metric "protocol.codec_us" (t_codec /. float_of_int iters *. 1e6);
  metric "frame.roundtrip_us" (t_frame /. float_of_int iters *. 1e6)

let serve_layers sink ~seed =
  let n = arg_int "serve_n" in
  let max_seconds = arg_float "serve_max_seconds" in
  let loop sink jobs =
    loop_summary ~n ~inject:false
      (closed_loop sink (endpoint ()) ~n ~seed ~clients:2 ~jobs ~max_seconds)
  in
  let untraced =
    let jobs = arg_int "serve_untraced_jobs" in
    if jobs > 0 then [ ("untraced", loop Span.null jobs) ] else []
  in
  let traced = loop sink (arg_int "serve_jobs") in
  let num k =
    match Option.bind (Json.member k traced) Json.to_float_opt with
    | Some v -> v
    | None -> nan
  in
  metric "client.connect_ms" (num "connect_ms");
  metric "serve.admit_ms" (num "admit_ms");
  metric "serve.queue_ms" (num "queue_ms");
  metric "serve.execute_ms" (num "execute_ms");
  metric "serve.unattributed_ms" (num "unattributed_ms");
  codec_layers sink ~n;
  Json.Obj (("traced", traced) :: untraced)

let layers () =
  let n = arg_int "n" and seed = arg_int "seed" in
  let algo = algo_of ~n "gathering" in
  let sink = Span.create ~capacity:(1 lsl 17) () in
  let r, stream_family = stream_layers sink ~n ~seed algo in
  Gc.full_major ();
  let full_oracle, full_family =
    full_layers sink ~n ~seed ~max_steps:(arg_int "full_max_steps") algo
  in
  Gc.full_major ();
  let sweep_family = sweep_layers sink ~seed in
  let serve_family = serve_layers sink ~seed in
  Trace_event.write ~process_name:"perfbench-probe" (arg "trace") sink;
  print_json
    (Json.Obj
       [
         ("metrics", Json.Obj (List.rev !layer_metrics));
         ("errors", Json.List (List.rev_map (fun e -> Json.String e) !errors));
         ( "oracle",
           Json.Obj
             [
               ("run-stream", Json.Obj [ ("frozen", result_json r) ]);
               ("run-full", full_oracle);
             ] );
         ( "family",
           Json.Obj
             [
               ("run-stream", stream_family);
               ("run-full", full_family);
               ("sweep-batch", sweep_family);
               ("serve-small", serve_family);
             ] );
         ("spans", Json.Int (Span.length sink));
         ("spans_dropped", Json.Int (Span.dropped sink));
       ])

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "run-oracle" -> run_oracle ()
  | "serve-loop" -> serve_loop ()
  | "layers" -> layers ()
  | c ->
      prerr_endline ("probe: unknown command " ^ c ^ " (run-oracle | serve-loop | layers)");
      exit 2
