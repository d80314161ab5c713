(* Tests for the core DODA machinery: engine semantics, the
   convergecast duality solver, the cost function, and their agreement
   with exhaustive search. *)

module Interaction = Doda_dynamic.Interaction
module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Engine = Doda_core.Engine
module Convergecast = Doda_core.Convergecast
module Brute_force = Doda_core.Brute_force
module Cost = Doda_core.Cost
module Knowledge = Doda_core.Knowledge
module Algorithms = Doda_core.Algorithms
module Theory = Doda_core.Theory
module Prng = Doda_prng.Prng

let seq pairs = Sequence.of_pairs pairs

let sched ?(sink = 0) ~n pairs = Schedule.of_sequence ~n ~sink (seq pairs)

(* ------------------------------------------------------------------ *)
(* Engine semantics                                                    *)

let test_engine_gathering_line () =
  (* 0(sink) - chain of meetings: 2 gives to 1, then 1 gives to sink. *)
  let s = sched ~n:3 [ (1, 2); (0, 1) ] in
  let r = Engine.run Algorithms.gathering s in
  Alcotest.(check bool) "terminated" true (r.stop = Engine.All_aggregated);
  Alcotest.(check (option int)) "duration" (Some 1) r.duration;
  Alcotest.(check int) "two transmissions" 2 (List.length (Engine.transmissions r))

let test_engine_waiting_ignores_non_sink () =
  let s = sched ~n:3 [ (1, 2); (1, 2); (0, 2) ] in
  let r = Engine.run Algorithms.waiting s in
  (* Waiting only delivers node 2; node 1 never meets the sink. *)
  Alcotest.(check bool) "not terminated" true (r.stop = Engine.Schedule_exhausted);
  Alcotest.(check int) "one transmission" 1 (List.length (Engine.transmissions r));
  Alcotest.(check bool) "node 1 still owns" true (Engine.Holders.mem r.holders 1)

let test_engine_sender_loses_data () =
  let s = sched ~n:3 [ (1, 2); (1, 2); (0, 1); (0, 2) ] in
  let r = Engine.run Algorithms.gathering s in
  (* At t=0, 2 transmits to 1 (receiver is smaller id). At t=1 both
     cannot interact again usefully: 2 has no data. *)
  (match (Engine.transmissions r) with
  | { time = 0; sender = 2; receiver = 1 } :: _ -> ()
  | _ -> Alcotest.fail "unexpected first transmission");
  Alcotest.(check bool) "terminated" true (r.stop = Engine.All_aggregated)

let test_engine_max_steps () =
  let rng = Prng.create 7 in
  let s = Schedule.of_fun ~n:4 ~sink:0 (Generators.uniform rng ~n:4) in
  let r = Engine.run ~max_steps:3 Algorithms.waiting s in
  Alcotest.(check bool) "limited" true (r.steps <= 3)

let test_engine_unbounded_needs_max_steps () =
  let rng = Prng.create 7 in
  let s = Schedule.of_fun ~n:4 ~sink:0 (Generators.uniform rng ~n:4) in
  Alcotest.check_raises "missing max_steps"
    (Invalid_argument "Engine.run: max_steps is mandatory for unbounded schedules")
    (fun () -> ignore (Engine.run Algorithms.waiting s))

let test_engine_each_node_transmits_once () =
  let rng = Prng.create 11 in
  let s = Schedule.of_fun ~n:8 ~sink:0 (Generators.uniform rng ~n:8) in
  let r = Engine.run ~max_steps:100_000 Algorithms.gathering s in
  Alcotest.(check bool) "terminated" true (r.stop = Engine.All_aggregated);
  let senders = List.map (fun t -> t.Engine.sender) (Engine.transmissions r) in
  let sorted = List.sort compare senders in
  Alcotest.(check (list int)) "each non-sink transmits exactly once"
    [ 1; 2; 3; 4; 5; 6; 7 ] sorted

(* ------------------------------------------------------------------ *)
(* Convergecast: duality solver vs hand-made cases                     *)

let test_convergecast_simple_path () =
  (* Convergecast needs 2 -> 1 -> 0; only the order (1,2) then (0,1)
     works. *)
  let s = seq [ (0, 1); (1, 2); (0, 1) ] in
  Alcotest.(check (option int)) "opt(0)" (Some 2)
    (Convergecast.opt ~n:3 ~sink:0 s 0);
  Alcotest.(check (option int)) "opt(1)" (Some 2) (Convergecast.opt ~n:3 ~sink:0 s 1);
  Alcotest.(check (option int)) "opt(2)" None (Convergecast.opt ~n:3 ~sink:0 s 2)

let test_convergecast_infeasible () =
  let s = seq [ (1, 2); (1, 2) ] in
  Alcotest.(check (option int)) "no sink contact" None
    (Convergecast.opt ~n:3 ~sink:0 s 0)

let test_convergecast_plan_is_valid () =
  let rng = Prng.create 3 in
  let n = 6 in
  let s = Generators.uniform_sequence rng ~n ~length:200 in
  match Convergecast.plan ~n ~sink:0 s ~start:0 with
  | None -> Alcotest.fail "expected feasible plan"
  | Some plan ->
      (* Validity: every non-sink node fires exactly once, at an
         interaction involving it, and the receiver fires later (or is
         the sink). *)
      Alcotest.(check int) "sink does not fire" (-1) plan.fire_time.(0);
      for v = 1 to n - 1 do
        let t = plan.fire_time.(v) in
        let target = plan.fire_to.(v) in
        Alcotest.(check bool) "fires somewhere" true (t >= 0);
        let i = Sequence.get s t in
        Alcotest.(check bool) "fires at own interaction" true
          (Interaction.involves i v);
        Alcotest.(check int) "fires to the partner" (Interaction.other i v) target;
        if target <> 0 then
          Alcotest.(check bool) "receiver fires later" true
            (plan.fire_time.(target) > t)
      done;
      let ending = Array.fold_left Stdlib.max (-1) plan.fire_time in
      Alcotest.(check int) "completion is the last firing" ending plan.completion;
      Alcotest.(check (option int)) "completion equals opt" (Some plan.completion)
        (Convergecast.opt ~n ~sink:0 s 0)

let test_convergecast_matches_brute_force () =
  let rng = Prng.create 99 in
  for trial = 1 to 60 do
    let n = 3 + Prng.int rng 5 in
    let len = 5 + Prng.int rng 40 in
    let s = Generators.uniform_sequence rng ~n ~length:len in
    let start = Prng.int rng (Stdlib.max 1 (len / 2)) in
    let fast = Convergecast.opt ~n ~sink:0 s start in
    let slow = Brute_force.optimal_duration ~n ~sink:0 s ~start in
    Alcotest.(check (option int))
      (Printf.sprintf "trial %d (n=%d len=%d start=%d)" trial n len start)
      slow fast
  done

let test_full_knowledge_runs_at_opt () =
  let rng = Prng.create 5 in
  for _ = 1 to 10 do
    let n = 5 in
    let s = Generators.uniform_sequence rng ~n ~length:400 in
    let sch = Schedule.of_sequence ~n ~sink:0 s in
    let r = Engine.run Algorithms.full_knowledge sch in
    let expected = Convergecast.opt ~n ~sink:0 s 0 in
    Alcotest.(check (option int)) "terminates exactly at opt" expected r.duration
  done

(* ------------------------------------------------------------------ *)
(* T-chain and cost                                                    *)

let test_t_chain_increasing () =
  let rng = Prng.create 21 in
  let n = 5 in
  let s = Generators.uniform_sequence rng ~n ~length:1000 in
  let chain = Convergecast.t_chain ~n ~sink:0 s in
  Alcotest.(check bool) "non-empty" true (chain <> []);
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly increasing" true (increasing chain)

let test_cost_optimal_is_one () =
  let rng = Prng.create 31 in
  let n = 5 in
  let s = Generators.uniform_sequence rng ~n ~length:600 in
  let sch = Schedule.of_sequence ~n ~sink:0 s in
  let r = Engine.run Algorithms.full_knowledge sch in
  Alcotest.(check bool) "cost 1" true
    (Cost.equal (Cost.of_result ~n ~sink:0 s r) (Cost.Finite 1))

let test_cost_monotone_in_duration () =
  let rng = Prng.create 41 in
  let n = 5 in
  let s = Generators.uniform_sequence rng ~n ~length:800 in
  let c1 = Cost.cost ~n ~sink:0 s ~duration:(Some 10) in
  let c2 = Cost.cost ~n ~sink:0 s ~duration:(Some 700) in
  Alcotest.(check bool) "larger duration, larger cost" true
    (Cost.to_float c1 <= Cost.to_float c2)

let test_cost_unterminated_is_lower_bound () =
  let rng = Prng.create 51 in
  let n = 4 in
  let s = Generators.uniform_sequence rng ~n ~length:500 in
  match Cost.cost ~n ~sink:0 s ~duration:None with
  | Cost.At_least k -> Alcotest.(check bool) "positive" true (k >= 1)
  | Cost.Finite _ -> Alcotest.fail "expected a lower bound"

let test_convergecasts_within () =
  let s = seq [ (0, 1); (0, 2); (0, 1); (0, 2) ] in
  (* n=3: each convergecast needs both 1 and 2 to meet the sink. *)
  Alcotest.(check int) "two convergecasts" 2
    (Cost.convergecasts_within ~n:3 ~sink:0 s ~upto:3);
  Alcotest.(check int) "one convergecast by time 1" 1
    (Cost.convergecasts_within ~n:3 ~sink:0 s ~upto:2)

(* ------------------------------------------------------------------ *)
(* Flooding aggregation (the unconstrained counterfactual)             *)

module Flooding_aggregation = Doda_core.Flooding_aggregation

let test_flooding_simple_chain () =
  (* 3's datum must relay 3 -> 2 -> 1 -> 0; epidemic exchange does it
     along the same chain while also spreading copies. *)
  let s = seq [ (2, 3); (1, 2); (0, 1) ] in
  Alcotest.(check (option int)) "completes at 2" (Some 2)
    (Flooding_aggregation.sink_completion ~n:4 ~sink:0 s)

let test_flooding_counts_exchanges () =
  let s = seq [ (1, 2); (1, 2); (0, 1) ] in
  let sched = Schedule.of_sequence ~n:3 ~sink:0 s in
  let r = Flooding_aggregation.run sched in
  Alcotest.(check bool) "completed" true r.completed;
  (* Second {1,2} moves nothing: sets already equal. *)
  Alcotest.(check int) "two effective exchanges" 2 r.exchanges

let test_flooding_incomplete () =
  let s = seq [ (1, 2) ] in
  let sched = Schedule.of_sequence ~n:3 ~sink:0 s in
  let r = Flooding_aggregation.run sched in
  Alcotest.(check bool) "not completed" false r.completed;
  Alcotest.(check (option int)) "no duration" None r.duration

let test_flooding_large_n_bitset () =
  (* n > 63 exercises the multi-word bitset. *)
  let n = 100 in
  let rng = Prng.create 51 in
  let s = Generators.uniform_sequence rng ~n ~length:200_000 in
  let flood = Flooding_aggregation.sink_completion ~n ~sink:0 s in
  Alcotest.(check bool) "completes" true (flood <> None);
  Alcotest.(check (option int)) "equals opt" (Convergecast.opt ~n ~sink:0 s 0) flood

(* ------------------------------------------------------------------ *)
(* Theory formulas                                                     *)

let test_harmonic () =
  Alcotest.(check (float 1e-9)) "H(1)" 1.0 (Theory.harmonic 1);
  Alcotest.(check (float 1e-9)) "H(4)" (25.0 /. 12.0) (Theory.harmonic 4);
  Alcotest.(check (float 1e-9)) "H(0)" 0.0 (Theory.harmonic 0)

let test_expected_gathering_closed_form () =
  (* n(n-1) sum 1/(i(i+1)) over i=1..n-1 equals n(n-1)(1-1/n). *)
  let n = 17 in
  let direct = ref 0.0 in
  for i = 1 to n - 1 do
    direct := !direct +. (float_of_int (n * (n - 1)) /. float_of_int (i * (i + 1)))
  done;
  Alcotest.(check (float 1e-6)) "telescoped" !direct (Theory.expected_gathering n)

let test_recommended_tau_monotone () =
  Alcotest.(check bool) "tau grows" true
    (Theory.recommended_tau 100 < Theory.recommended_tau 200);
  Alcotest.(check bool) "positive" true (Theory.recommended_tau 2 >= 1)

let test_tau_for_f_minimised_at_sqrt_nlogn () =
  let n = 256 in
  let opt_f = sqrt (float_of_int n *. log (float_of_int n)) in
  let at_opt = Theory.tau_for_f ~n ~f:opt_f in
  Alcotest.(check bool) "smaller f is worse" true
    (Theory.tau_for_f ~n ~f:(opt_f /. 4.0) > at_opt);
  Alcotest.(check bool) "larger f is worse" true
    (Theory.tau_for_f ~n ~f:(opt_f *. 4.0) > at_opt)

(* ------------------------------------------------------------------ *)
(* Engine misbehaviour containment                                     *)

let rogue_algorithm name decide =
  {
    Doda_core.Algorithm.name;
    oblivious = true;
    requires = [];
    batch = None;
    make =
      (fun ~n:_ ~sink:_ _ ->
        { Doda_core.Algorithm.observe = Doda_core.Algorithm.no_observation; decide });
  }

let test_engine_rejects_non_endpoint () =
  let s = sched ~n:4 [ (1, 2) ] in
  let rogue = rogue_algorithm "rogue-endpoint" (fun ~time:_ _ -> Some 3) in
  Alcotest.check_raises "non endpoint"
    (Invalid_argument "Engine.step: rogue-endpoint returned a non-endpoint receiver")
    (fun () -> ignore (Engine.run rogue s))

let test_engine_rejects_sink_sender () =
  let s = sched ~n:3 [ (0, 1) ] in
  (* Receiver 1 means the sink (0) is the sender. *)
  let rogue = rogue_algorithm "rogue-sink" (fun ~time:_ i -> Some (Interaction.v i)) in
  Alcotest.check_raises "sink sender"
    (Invalid_argument "Engine.step: rogue-sink made the sink transmit") (fun () ->
      ignore (Engine.run rogue s))

let test_engine_ignores_decide_without_data () =
  (* decide must not even be consulted when an endpoint is empty: a
     rogue decision on a dead pair cannot corrupt the run. *)
  let s = sched ~n:3 [ (1, 2); (1, 2) ] in
  let calls = ref 0 in
  let counting =
    rogue_algorithm "counting" (fun ~time:_ i ->
        incr calls;
        Some (Interaction.u i))
  in
  let r = Engine.run counting s in
  Alcotest.(check int) "decide once" 1 !calls;
  Alcotest.(check int) "one transmission" 1 (List.length (Engine.transmissions r))

let test_engine_record_count_matches_all () =
  (* `Count recording must change nothing about the run except that the
     transmission log is dropped — a determinism regression test for
     the engine's fast path, across algorithms and stop reasons. *)
  let check_pair name (full : Engine.result) (count : Engine.result) =
    Alcotest.(check bool) (name ^ ": same stop") true (full.stop = count.stop);
    Alcotest.(check (option int)) (name ^ ": same duration") full.duration
      count.duration;
    Alcotest.(check int) (name ^ ": same steps") full.steps count.steps;
    Alcotest.(check int)
      (name ^ ": same transmission count")
      full.transmission_count count.transmission_count;
    Alcotest.(check int)
      (name ^ ": full log length agrees")
      full.transmission_count
      (List.length (Engine.transmissions full));
    Alcotest.(check (list string)) (name ^ ": count log empty") []
      (List.map (fun _ -> "tr") (Engine.transmissions count));
    Alcotest.(check (array bool)) (name ^ ": same holders")
      (Engine.Holders.to_array full.holders)
      (Engine.Holders.to_array count.holders)
  in
  let n = 24 in
  List.iter
    (fun (name, algo, max_steps) ->
      let run record =
        let rng = Prng.create 2016 in
        let sched =
          Schedule.of_fun ~n ~sink:0 (Generators.uniform rng ~n)
        in
        Engine.run ~record ~max_steps algo sched
      in
      check_pair name (run `All) (run `Count))
    [
      ("gathering", Algorithms.gathering, 100_000);
      ("waiting", Algorithms.waiting, 100_000);
      ("waiting-greedy", Algorithms.waiting_greedy ~tau:400, 100_000);
      ("step-limited waiting", Algorithms.waiting, 40);
    ];
  (* Finite schedule exhaustion under both modes. *)
  let finite record =
    Engine.run ~record Algorithms.gathering (sched ~n:3 [ (1, 2); (1, 2) ])
  in
  check_pair "exhausted" (finite `All) (finite `Count)

(* ------------------------------------------------------------------ *)
(* Stepper API                                                         *)

let sched_of s n = Schedule.of_sequence ~n ~sink:0 s

let test_stepper_matches_run () =
  let rng = Prng.create 61 in
  let n = 8 in
  let s = Generators.uniform_sequence rng ~n ~length:5_000 in
  let run_result = Engine.run Algorithms.gathering (sched_of s n) in
  let st = Engine.start Algorithms.gathering (sched_of s n) in
  let rec drive () =
    match Engine.step st with
    | Engine.Finished reason -> Engine.finish st reason
    | Engine.Stepped _ -> drive ()
  in
  let stepped_result = drive () in
  Alcotest.(check (option int)) "same duration" run_result.duration
    stepped_result.duration;
  Alcotest.(check int) "same transmissions"
    (List.length (Engine.transmissions run_result))
    (List.length (Engine.transmissions stepped_result))

let test_stepper_intermediate_state () =
  let s = sched ~n:3 [ (1, 2); (0, 1) ] in
  let st = Engine.start Algorithms.gathering s in
  Alcotest.(check int) "three owners" 3 (Engine.owners st);
  (match Engine.step st with
  | Engine.Stepped (Some { Engine.sender = 2; receiver = 1; _ }) -> ()
  | _ -> Alcotest.fail "expected 2 -> 1 at step 1");
  Alcotest.(check int) "two owners" 2 (Engine.owners st);
  Alcotest.(check bool) "2 no longer owns" false (Engine.owns st 2);
  Alcotest.(check int) "time 1" 1 (Engine.time st);
  (match Engine.step st with
  | Engine.Stepped (Some _) -> ()
  | _ -> Alcotest.fail "expected transmission at step 2");
  match Engine.step st with
  | Engine.Finished Engine.All_aggregated -> ()
  | _ -> Alcotest.fail "expected completion"

let test_stepper_snapshot_is_copy () =
  let s = sched ~n:3 [ (1, 2) ] in
  let st = Engine.start Algorithms.gathering s in
  let snap = Engine.holders_snapshot st in
  snap.(0) <- false;
  Alcotest.(check bool) "state unaffected" true (Engine.owns st 0)

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)

module Validate = Doda_core.Validate
module Run_log = Doda_core.Run_log

(* Hand-built logs enter the validator through the flat representation. *)
let vlog = Run_log.of_list

let violation_testable =
  Alcotest.testable
    (fun ppf v -> Validate.pp_violation ppf v)
    (fun a b -> a = b)

let test_validate_accepts_engine_run () =
  let rng = Prng.create 71 in
  let n = 8 in
  let s = Generators.uniform_sequence rng ~n ~length:10_000 in
  let r = Engine.run Algorithms.gathering (Schedule.of_sequence ~n ~sink:0 s) in
  Alcotest.(check (list violation_testable)) "no violations" []
    (Validate.execution ~n ~sink:0 s r.log);
  Alcotest.(check bool) "complete" true (Validate.complete ~n ~sink:0 s r.log)

let test_validate_flags_corruptions () =
  let s = seq [ (1, 2); (0, 1) ] in
  let ok = [ { Engine.time = 0; sender = 2; receiver = 1 };
             { Engine.time = 1; sender = 1; receiver = 0 } ] in
  Alcotest.(check int) "baseline valid" 0
    (List.length (Validate.execution ~n:3 ~sink:0 s (vlog ok)));
  let bad_endpoint = [ { Engine.time = 0; sender = 2; receiver = 0 } ] in
  Alcotest.(check bool) "wrong interaction flagged" true
    (List.mem (Validate.Wrong_interaction 0)
       (Validate.execution ~n:3 ~sink:0 s (vlog bad_endpoint)));
  let sink_sends = [ { Engine.time = 1; sender = 0; receiver = 1 } ] in
  Alcotest.(check bool) "sink transmission flagged" true
    (List.mem (Validate.Sink_transmitted 0)
       (Validate.execution ~n:3 ~sink:0 s (vlog sink_sends)));
  let out_of_order =
    [ { Engine.time = 1; sender = 1; receiver = 0 };
      { Engine.time = 0; sender = 2; receiver = 1 } ]
  in
  Alcotest.(check bool) "order flagged" true
    (List.mem (Validate.Out_of_order 1)
       (Validate.execution ~n:3 ~sink:0 s (vlog out_of_order)));
  let bad_time = [ { Engine.time = 9; sender = 1; receiver = 0 } ] in
  Alcotest.(check bool) "bad time flagged" true
    (List.mem (Validate.Bad_time 0) (Validate.execution ~n:3 ~sink:0 s (vlog bad_time)))

let test_validate_flags_reuse () =
  let s = seq [ (1, 2); (1, 2); (0, 1) ] in
  (* 2 sends at t=0; then 2 "receives" at t=1: receiver without data. *)
  let receiver_dead =
    [ { Engine.time = 0; sender = 2; receiver = 1 };
      { Engine.time = 1; sender = 1; receiver = 2 } ]
  in
  Alcotest.(check bool) "dead receiver flagged" true
    (List.mem (Validate.Receiver_without_data 1)
       (Validate.execution ~n:3 ~sink:0 s (vlog receiver_dead)))

let test_validate_incomplete () =
  let s = seq [ (0, 1) ] in
  let partial = [ { Engine.time = 0; sender = 1; receiver = 0 } ] in
  (* valid but node 2 never transmitted *)
  Alcotest.(check int) "valid" 0
    (List.length (Validate.execution ~n:3 ~sink:0 s (vlog partial)));
  Alcotest.(check bool) "not complete" false
    (Validate.complete ~n:3 ~sink:0 s (vlog partial))

let test_validate_plan () =
  let rng = Prng.create 73 in
  let n = 7 in
  let s = Generators.uniform_sequence rng ~n ~length:500 in
  match Convergecast.plan ~n ~sink:0 s ~start:0 with
  | None -> Alcotest.fail "expected a plan"
  | Some plan ->
      Alcotest.(check int) "plan validates" 0
        (List.length (Validate.plan ~n ~sink:0 s plan))

(* ------------------------------------------------------------------ *)
(* Exact phases                                                        *)

module Geometric_sum = Doda_stats.Geometric_sum

let test_phases_match_closed_forms () =
  List.iter
    (fun n ->
      Alcotest.(check (float 1e-6)) "waiting" (Theory.expected_waiting n)
        (Geometric_sum.mean (Theory.waiting_phases n));
      Alcotest.(check (float 1e-6)) "gathering" (Theory.expected_gathering n)
        (Geometric_sum.mean (Theory.gathering_phases n));
      Alcotest.(check (float 1e-6)) "broadcast" (Theory.expected_broadcast n)
        (Geometric_sum.mean (Theory.broadcast_phases n)))
    [ 3; 8; 33; 100 ]

let test_phases_are_probabilities () =
  let check_all name phases =
    Array.iter
      (fun p ->
        Alcotest.(check bool) (name ^ " in (0,1]") true (p > 0.0 && p <= 1.0))
      phases
  in
  check_all "waiting" (Theory.waiting_phases 12);
  check_all "gathering" (Theory.gathering_phases 12);
  check_all "broadcast" (Theory.broadcast_phases 12);
  (* Gathering's first phase is certain. *)
  Alcotest.(check (float 1e-9)) "first gathering phase" 1.0
    (Theory.gathering_phases 12).(0)

(* ------------------------------------------------------------------ *)
(* Knowledge construction                                              *)

let test_knowledge_missing_oracle () =
  let rng = Prng.create 1 in
  let s = Schedule.of_fun ~n:4 ~sink:0 (Generators.uniform rng ~n:4) in
  Alcotest.check_raises "own future needs finite schedule"
    (Invalid_argument "Knowledge.for_schedule: Own_future requires a finite schedule")
    (fun () -> ignore (Knowledge.for_schedule s [ Knowledge.Own_future ]))

let test_knowledge_satisfies () =
  let s = sched ~n:3 [ (0, 1); (0, 2) ] in
  let k = Knowledge.for_schedule s [ Knowledge.Meet_time; Knowledge.Full_schedule ] in
  Alcotest.(check bool) "satisfies" true
    (Knowledge.satisfies k [ Knowledge.Meet_time ]);
  Alcotest.(check bool) "does not satisfy underlying" false
    (Knowledge.satisfies k [ Knowledge.Underlying_graph ])

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)

let test_minimal_network () =
  (* n = 2: a single interaction completes everything. *)
  let s = sched ~n:2 [ (0, 1) ] in
  let r = Engine.run Algorithms.gathering s in
  Alcotest.(check bool) "terminated" true (r.stop = Engine.All_aggregated);
  Alcotest.(check (option int)) "at time 0" (Some 0) r.duration

let test_opt_at_last_index () =
  let s = seq [ (1, 2); (0, 1); (0, 2) ] in
  (* Starting at the very last interaction: only node 2 could deliver,
     node 1 cannot. *)
  Alcotest.(check (option int)) "opt at end" None (Convergecast.opt ~n:3 ~sink:0 s 2);
  Alcotest.(check bool) "feasible lo>hi is false" false
    (Convergecast.feasible ~n:3 ~sink:0 s ~lo:2 ~hi:1)

let test_cost_on_infeasible_sequence () =
  let s = seq [ (1, 2) ] in
  (* No convergecast fits at all: T(1) is beyond the horizon, so any
     terminating duration costs 1 and no termination is At_least 1. *)
  Alcotest.(check bool) "terminated cost" true
    (Cost.equal (Cost.cost ~n:3 ~sink:0 s ~duration:(Some 0)) (Cost.Finite 1));
  Alcotest.(check bool) "unterminated cost" true
    (Cost.equal (Cost.cost ~n:3 ~sink:0 s ~duration:None) (Cost.At_least 1))

let test_cost_formatting () =
  Alcotest.(check string) "finite" "3" (Format.asprintf "%a" Cost.pp (Cost.Finite 3));
  Alcotest.(check string) "at least" ">=2"
    (Format.asprintf "%a" Cost.pp (Cost.At_least 2));
  Alcotest.(check (float 1e-9)) "to_float" 2.0 (Cost.to_float (Cost.At_least 2))

let test_brute_force_guard () =
  let s = seq [ (0, 1) ] in
  Alcotest.check_raises "dense too large"
    (Invalid_argument "Brute_force: n too large for the dense subset search")
    (fun () -> ignore (Brute_force.optimal_duration_dense ~n:25 ~sink:0 s ~start:0));
  Alcotest.check_raises "sparse too large"
    (Invalid_argument "Brute_force: n too large for subset search (62-bit masks)")
    (fun () -> ignore (Brute_force.optimal_duration ~n:62 ~sink:0 s ~start:0));
  (* n = 25 now dispatches to the sparse backing instead of raising. *)
  Alcotest.(check (option int)) "sparse n=25"
    None
    (Brute_force.optimal_duration ~n:25 ~sink:0 s ~start:0)

let test_brute_force_reachable_states () =
  (* One interaction {1,2} on n=3: either nothing, 1->2, or 2->1. *)
  let s = seq [ (1, 2) ] in
  let states = Brute_force.reachable_states ~n:3 ~sink:0 s in
  Alcotest.(check (list int)) "three states" [ 0b011; 0b101; 0b111 ] states

let test_schedule_meet_limit_before_after () =
  let s = sched ~n:3 [ (0, 1); (0, 2) ] in
  (* Underlying schedule type via engine knowledge: query with a limit
     below the next occurrence. *)
  Alcotest.(check (option int)) "limit below after" None
    (Schedule.next_meet_with_sink s ~node:2 ~after:5 ~limit:3)

let () =
  Alcotest.run "core"
    [
      ( "engine",
        [
          Alcotest.test_case "gathering on a line" `Quick test_engine_gathering_line;
          Alcotest.test_case "waiting ignores non-sink" `Quick
            test_engine_waiting_ignores_non_sink;
          Alcotest.test_case "sender loses data" `Quick test_engine_sender_loses_data;
          Alcotest.test_case "max steps respected" `Quick test_engine_max_steps;
          Alcotest.test_case "unbounded needs max_steps" `Quick
            test_engine_unbounded_needs_max_steps;
          Alcotest.test_case "each node transmits once" `Quick
            test_engine_each_node_transmits_once;
          Alcotest.test_case "record `Count matches `All" `Quick
            test_engine_record_count_matches_all;
        ] );
      ( "convergecast",
        [
          Alcotest.test_case "simple path" `Quick test_convergecast_simple_path;
          Alcotest.test_case "infeasible" `Quick test_convergecast_infeasible;
          Alcotest.test_case "plan validity" `Quick test_convergecast_plan_is_valid;
          Alcotest.test_case "matches brute force" `Slow
            test_convergecast_matches_brute_force;
          Alcotest.test_case "full knowledge runs at opt" `Slow
            test_full_knowledge_runs_at_opt;
        ] );
      ( "cost",
        [
          Alcotest.test_case "t-chain increasing" `Quick test_t_chain_increasing;
          Alcotest.test_case "optimal algorithm costs 1" `Quick test_cost_optimal_is_one;
          Alcotest.test_case "monotone in duration" `Quick test_cost_monotone_in_duration;
          Alcotest.test_case "unterminated lower bound" `Quick
            test_cost_unterminated_is_lower_bound;
          Alcotest.test_case "convergecasts within" `Quick test_convergecasts_within;
        ] );
      ( "flooding-aggregation",
        [
          Alcotest.test_case "simple chain" `Quick test_flooding_simple_chain;
          Alcotest.test_case "counts exchanges" `Quick test_flooding_counts_exchanges;
          Alcotest.test_case "incomplete" `Quick test_flooding_incomplete;
          Alcotest.test_case "large n bitset" `Quick test_flooding_large_n_bitset;
        ] );
      ( "theory",
        [
          Alcotest.test_case "harmonic numbers" `Quick test_harmonic;
          Alcotest.test_case "gathering closed form" `Quick
            test_expected_gathering_closed_form;
          Alcotest.test_case "recommended tau monotone" `Quick
            test_recommended_tau_monotone;
          Alcotest.test_case "tau_for_f minimised" `Quick
            test_tau_for_f_minimised_at_sqrt_nlogn;
        ] );
      ( "misbehaviour",
        [
          Alcotest.test_case "rejects non-endpoint" `Quick
            test_engine_rejects_non_endpoint;
          Alcotest.test_case "rejects sink sender" `Quick
            test_engine_rejects_sink_sender;
          Alcotest.test_case "ignores decide without data" `Quick
            test_engine_ignores_decide_without_data;
        ] );
      ( "stepper",
        [
          Alcotest.test_case "matches run" `Quick test_stepper_matches_run;
          Alcotest.test_case "intermediate state" `Quick
            test_stepper_intermediate_state;
          Alcotest.test_case "snapshot is a copy" `Quick test_stepper_snapshot_is_copy;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts engine run" `Quick test_validate_accepts_engine_run;
          Alcotest.test_case "flags corruptions" `Quick test_validate_flags_corruptions;
          Alcotest.test_case "flags reuse" `Quick test_validate_flags_reuse;
          Alcotest.test_case "incomplete" `Quick test_validate_incomplete;
          Alcotest.test_case "validates plans" `Quick test_validate_plan;
        ] );
      ( "exact-phases",
        [
          Alcotest.test_case "match closed forms" `Quick test_phases_match_closed_forms;
          Alcotest.test_case "are probabilities" `Quick test_phases_are_probabilities;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "minimal network" `Quick test_minimal_network;
          Alcotest.test_case "opt at last index" `Quick test_opt_at_last_index;
          Alcotest.test_case "cost on infeasible" `Quick
            test_cost_on_infeasible_sequence;
          Alcotest.test_case "cost formatting" `Quick test_cost_formatting;
          Alcotest.test_case "brute force guard" `Quick test_brute_force_guard;
          Alcotest.test_case "brute force states" `Quick
            test_brute_force_reachable_states;
          Alcotest.test_case "meet limit below after" `Quick
            test_schedule_meet_limit_before_after;
        ] );
      ( "knowledge",
        [
          Alcotest.test_case "missing oracle" `Quick test_knowledge_missing_oracle;
          Alcotest.test_case "satisfies" `Quick test_knowledge_satisfies;
        ] );
    ]
