(* Tests for the adversary models and the impossibility-proof
   constructions (Theorems 1, 2, 3). *)

module Interaction = Doda_dynamic.Interaction
module Sequence = Doda_dynamic.Sequence
module Generators = Doda_dynamic.Generators
module Underlying = Doda_dynamic.Underlying
module Static_graph = Doda_graph.Static_graph
module Engine = Doda_core.Engine
module Cost = Doda_core.Cost
module Knowledge = Doda_core.Knowledge
module Algorithms = Doda_core.Algorithms
module Adversary = Doda_adversary.Adversary
module Randomized = Doda_adversary.Randomized
module Duel = Doda_adversary.Duel
module Counterexamples = Doda_adversary.Counterexamples
module Prng = Doda_prng.Prng

(* ------------------------------------------------------------------ *)
(* Basic adversary wrappers                                            *)

let test_of_sequence_replays_and_ends () =
  let s = Sequence.of_pairs [ (0, 1); (1, 2) ] in
  let adv = Adversary.of_sequence ~name:"replay" s in
  let r, played = Duel.run ~max_steps:100 ~n:3 ~sink:0 Algorithms.waiting adv in
  Alcotest.(check bool) "stopped at end" true (r.stop = Engine.Schedule_exhausted);
  Alcotest.(check bool) "played the sequence" true (Sequence.equal s played)

let test_limit () =
  let adv = Adversary.limit 5 (Adversary.of_generator ~name:"g" (fun _ -> Interaction.make 1 2)) in
  let r, played = Duel.run ~max_steps:100 ~n:3 ~sink:0 Algorithms.waiting adv in
  Alcotest.(check int) "five steps" 5 (Sequence.length played);
  Alcotest.(check bool) "exhausted" true (r.stop = Engine.Schedule_exhausted)

let test_duel_matches_engine_on_oblivious () =
  (* Running an algorithm through Duel on a committed sequence must be
     identical to running it through the engine. *)
  let rng = Prng.create 1 in
  let n = 8 in
  let s = Generators.uniform_sequence rng ~n ~length:5_000 in
  let adv = Adversary.of_sequence ~name:"replay" s in
  let r1, _ = Duel.run ~max_steps:5_000 ~n ~sink:0 Algorithms.gathering adv in
  let sched = Doda_dynamic.Schedule.of_sequence ~n ~sink:0 s in
  let r2 = Engine.run Algorithms.gathering sched in
  Alcotest.(check (option int)) "same duration" r2.duration r1.duration;
  Alcotest.(check int) "same transmissions" (List.length (Engine.transmissions r2))
    (List.length (Engine.transmissions r1))

let test_uniform_adversary_allows_termination () =
  let rng = Prng.create 2 in
  let adv = Randomized.uniform rng ~n:8 in
  let r, _ = Duel.run ~max_steps:100_000 ~n:8 ~sink:0 Algorithms.gathering adv in
  Alcotest.(check bool) "terminates" true (r.stop = Engine.All_aggregated)

let test_weighted_adversary_sink_bias_speeds_waiting () =
  (* Open question 3: a sink-biased adversary makes Waiting much
     faster, since sink meetings dominate. *)
  let run weight seed =
    let rng = Prng.create seed in
    let sched = Randomized.sink_biased_schedule rng ~n:16 ~sink:0 ~sink_weight:weight in
    let r = Engine.run ~max_steps:2_000_000 Algorithms.waiting sched in
    match r.Engine.duration with
    | Some d -> d
    | None -> Alcotest.fail "did not terminate"
  in
  let biased = run 20.0 3 and uniformish = run 1.0 3 in
  Alcotest.(check bool) "bias helps waiting" true (biased < uniformish)

(* ------------------------------------------------------------------ *)
(* Theorem 1: adaptive adversary defeats every algorithm on 3 nodes    *)

let horizon = 3_000

let check_never_terminates_with_convergecasts name algo adv ~n ~knowledge =
  let r, played = Duel.run ?knowledge ~max_steps:horizon ~n ~sink:0 algo adv in
  Alcotest.(check bool) (name ^ ": never terminates") true
    (r.Engine.stop = Engine.Step_limit);
  (* ... while successive optimal convergecasts keep completing: the
     executable form of cost = infinity. *)
  let possible = Cost.convergecasts_within ~n ~sink:0 played ~upto:(horizon - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: many convergecasts possible (%d)" name possible)
    true (possible > horizon / 50)

let test_theorem1_defeats_no_knowledge_algorithms () =
  List.iter
    (fun algo ->
      check_never_terminates_with_convergecasts
        ("thm1 vs " ^ algo.Doda_core.Algorithm.name)
        algo
        (Counterexamples.theorem1 ())
        ~n:Counterexamples.theorem1_nodes ~knowledge:None)
    Algorithms.no_knowledge

let test_theorem1_defeats_waiting_greedy_like_memory () =
  (* Even an algorithm with memory of past interactions cannot win;
     here, a "patient gathering" that transmits only after having seen
     k interactions. *)
  let patient k =
    {
      Doda_core.Algorithm.name = Printf.sprintf "patient-%d" k;
      oblivious = false;
      requires = [];
      batch = None;
      make =
        (fun ~n:_ ~sink knowledge ->
          ignore knowledge;
          let seen = ref 0 in
          {
            Doda_core.Algorithm.observe = (fun ~time:_ _ -> incr seen);
            decide =
              (fun ~time:_ i ->
                if !seen < k then None
                else if Interaction.involves i sink then Some sink
                else Some (Interaction.u i));
          });
    }
  in
  List.iter
    (fun k ->
      check_never_terminates_with_convergecasts
        (Printf.sprintf "thm1 vs patient-%d" k)
        (patient k)
        (Counterexamples.theorem1 ())
        ~n:Counterexamples.theorem1_nodes ~knowledge:None)
    [ 0; 3; 10 ]

(* ------------------------------------------------------------------ *)
(* Theorem 3: adaptive adversary on the 4-cycle, nodes know the graph  *)

let test_theorem3_defeats_algorithms_knowing_underlying () =
  let g = Counterexamples.theorem3_graph () in
  let knowledge = Some (Knowledge.with_underlying g Knowledge.empty) in
  List.iter
    (fun algo ->
      check_never_terminates_with_convergecasts
        ("thm3 vs " ^ algo.Doda_core.Algorithm.name)
        algo
        (Counterexamples.theorem3 ())
        ~n:Counterexamples.theorem3_nodes ~knowledge)
    [ Algorithms.waiting; Algorithms.gathering; Algorithms.tree_aggregation ]

let test_theorem3_underlying_graph_is_cycle () =
  (* The sequence actually played must have the promised underlying
     graph (that is the knowledge handed to the nodes). *)
  List.iter
    (fun algo ->
      let g = Counterexamples.theorem3_graph () in
      let knowledge = Some (Knowledge.with_underlying g Knowledge.empty) in
      let _, played =
        Duel.run ?knowledge ~max_steps:horizon ~n:4 ~sink:0 algo
          (Counterexamples.theorem3 ())
      in
      let actual = Underlying.of_sequence ~n:4 played in
      Alcotest.(check bool)
        (algo.Doda_core.Algorithm.name ^ ": underlying subset of C4")
        true
        (List.for_all
           (fun (u, v) -> Static_graph.has_edge g u v)
           (Static_graph.edges actual)))
    [ Algorithms.gathering; Algorithms.tree_aggregation ]

let test_theorem3_gathering_gets_trapped_quickly () =
  (* Gathering transmits greedily, so it falls into a trap loop within
     the first few interactions. *)
  let r, played =
    Duel.run ~max_steps:200 ~n:4 ~sink:0 Algorithms.gathering
      (Counterexamples.theorem3 ())
  in
  Alcotest.(check bool) "not terminated" true (r.Engine.stop = Engine.Step_limit);
  (* Someone other than the sink still holds data. *)
  let holders = Engine.count_owners r in
  Alcotest.(check bool) "stuck holder exists" true (holders >= 2);
  Alcotest.(check int) "played 200" 200 (Sequence.length played)

(* ------------------------------------------------------------------ *)
(* Theorem 2: oblivious construction against oblivious algorithms      *)

let test_theorem2_blocks_waiting_and_gathering () =
  let n = 8 in
  (* l0 = 1: both Waiting and Gathering transmit at the first
     interaction {u_0, s} with probability 1. Block d = 1. *)
  let s = Counterexamples.theorem2_sequence ~n ~l0:1 ~d:1 ~periods:60 in
  List.iter
    (fun algo ->
      let sched = Doda_dynamic.Schedule.of_sequence ~n ~sink:0 s in
      let r = Engine.run algo sched in
      Alcotest.(check bool)
        (algo.Doda_core.Algorithm.name ^ " never terminates")
        true
        (r.Engine.stop = Engine.Schedule_exhausted);
      (* Node u_1 = id 2 must still hold data: its escape path runs
         through u_0 which has already transmitted. *)
      Alcotest.(check bool) "u_1 still holds" true
        (Engine.Holders.mem r.Engine.holders 2))
    [ Algorithms.waiting; Algorithms.gathering ]

let test_theorem2_convergecasts_remain_possible () =
  let n = 6 in
  let s = Counterexamples.theorem2_sequence ~n ~l0:1 ~d:1 ~periods:80 in
  let possible =
    Cost.convergecasts_within ~n ~sink:0 s ~upto:(Sequence.length s - 1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "convergecasts possible (%d)" possible)
    true (possible >= 10)

let test_theorem2_search_deterministic () =
  (* Waiting transmits at the very first sink meeting, so l0 = 1. *)
  let n = 8 in
  match Counterexamples.theorem2_search ~trials:5 ~n Algorithms.waiting with
  | None -> Alcotest.fail "expected parameters"
  | Some p ->
      Alcotest.(check int) "l0 = 1" 1 p.Counterexamples.l0;
      Alcotest.(check (float 1e-9)) "certain transmission" 1.0
        p.Counterexamples.transmit_rate;
      Alcotest.(check (float 1e-9)) "survivor certain" 1.0 p.Counterexamples.survival;
      (* The found parameters actually block the algorithm. *)
      let s =
        Counterexamples.theorem2_sequence ~n ~l0:p.Counterexamples.l0
          ~d:p.Counterexamples.d ~periods:50
      in
      let r =
        Engine.run Algorithms.waiting (Doda_dynamic.Schedule.of_sequence ~n ~sink:0 s)
      in
      Alcotest.(check bool) "blocked" true (r.Engine.stop = Engine.Schedule_exhausted)

let test_theorem2_search_randomized () =
  (* coin-waiting(p = 0.5): P_l = 0.5^l, threshold 1/8 => l0 = 3. *)
  let n = 8 in
  let master = Prng.create 91 in
  let algo = Doda_core.Coin_algorithms.coin_waiting master ~p:0.5 in
  match Counterexamples.theorem2_search ~trials:400 ~n algo with
  | None -> Alcotest.fail "expected parameters"
  | Some p ->
      Alcotest.(check bool)
        (Printf.sprintf "l0 = %d near 3" p.Counterexamples.l0)
        true
        (p.Counterexamples.l0 >= 2 && p.Counterexamples.l0 <= 5);
      Alcotest.(check bool) "survivor likely" true (p.Counterexamples.survival > 0.5);
      (* The blocking sequence defeats the randomized algorithm in a
         substantial fraction of runs. *)
      let s =
        Counterexamples.theorem2_sequence ~n ~l0:p.Counterexamples.l0
          ~d:p.Counterexamples.d ~periods:100
      in
      let blocked = ref 0 in
      let runs = 30 in
      for _ = 1 to runs do
        let r =
          Engine.run algo (Doda_dynamic.Schedule.of_sequence ~n ~sink:0 s)
        in
        if r.Engine.stop <> Engine.All_aggregated then incr blocked
      done;
      Alcotest.(check bool)
        (Printf.sprintf "blocked %d/%d runs" !blocked runs)
        true
        (!blocked > runs / 2)

let test_theorem2_search_passive_algorithm () =
  (* An algorithm that never transmits cannot be provoked: None. *)
  let never =
    {
      Doda_core.Algorithm.name = "never";
      oblivious = true;
      requires = [];
      batch = None;
      make =
        (fun ~n:_ ~sink:_ _ ->
          {
            Doda_core.Algorithm.observe = Doda_core.Algorithm.no_observation;
            decide = (fun ~time:_ _ -> None);
          });
    }
  in
  Alcotest.(check bool) "no parameters" true
    (Counterexamples.theorem2_search ~trials:3 ~max_l:20 ~n:6 never = None)

let test_theorem2_validation () =
  Alcotest.check_raises "bad d"
    (Invalid_argument "Counterexamples.theorem2_sequence: d out of [1, n-2]")
    (fun () ->
      ignore (Counterexamples.theorem2_sequence ~n:5 ~l0:1 ~d:4 ~periods:1))

(* ------------------------------------------------------------------ *)
(* Spiteful: the generalised trap at arbitrary n                       *)

module Spiteful = Doda_adversary.Spiteful

let test_spiteful_traps_at_various_n () =
  List.iter
    (fun n ->
      List.iter
        (fun algo ->
          check_never_terminates_with_convergecasts
            (Printf.sprintf "spiteful n=%d vs %s" n algo.Doda_core.Algorithm.name)
            algo
            (Spiteful.adversary ~n ~sink:0)
            ~n ~knowledge:None)
        Algorithms.no_knowledge)
    [ 4; 7; 12 ]

let test_spiteful_freezes_after_first_transmission () =
  (* Against Gathering, exactly one transmission ever happens. *)
  let n = 6 in
  let r, _ =
    Duel.run ~max_steps:5_000 ~n ~sink:0 Algorithms.gathering
      (Spiteful.adversary ~n ~sink:0)
  in
  Alcotest.(check int) "one transmission" 1 (List.length (Engine.transmissions r));
  Alcotest.(check int) "n-1 owners left" (n - 1) (Engine.count_owners r)

let test_spiteful_respects_sink_position () =
  let n = 5 in
  let adv = Spiteful.adversary ~n ~sink:0 in
  let r, played = Duel.run ~max_steps:1_000 ~n ~sink:0 Algorithms.waiting adv in
  Alcotest.(check bool) "no termination" true (r.Engine.stop = Engine.Step_limit);
  (* The probe phase dares with sink meetings, so the sink appears. *)
  Alcotest.(check bool) "sink appears" true (Sequence.count_involving played 0 > 0)

let test_mixed_extremes () =
  let n = 8 in
  (* q = 0 behaves as the randomized adversary: terminates. *)
  let rng = Prng.create 97 in
  let adv0 = Doda_adversary.Mixed.adversary rng ~n ~sink:0 ~q:0.0 in
  let r0, _ = Duel.run ~max_steps:100_000 ~n ~sink:0 Algorithms.gathering adv0 in
  Alcotest.(check bool) "q=0 terminates" true (r0.Engine.stop = Engine.All_aggregated);
  (* q = 1 is the pure spiteful trap: never terminates. *)
  let rng = Prng.create 98 in
  let adv1 = Doda_adversary.Mixed.adversary rng ~n ~sink:0 ~q:1.0 in
  let r1, _ = Duel.run ~max_steps:20_000 ~n ~sink:0 Algorithms.gathering adv1 in
  Alcotest.(check bool) "q=1 stalls" true (r1.Engine.stop = Engine.Step_limit)

let test_mixed_monotone_slowdown () =
  let n = 10 in
  let mean_at q =
    let total = ref 0 and count = ref 0 in
    for seed = 1 to 10 do
      let rng = Prng.create (seed * 131) in
      let adv = Doda_adversary.Mixed.adversary rng ~n ~sink:0 ~q in
      let r, _ = Duel.run ~max_steps:300_000 ~n ~sink:0 Algorithms.gathering adv in
      match r.Engine.duration with
      | Some d ->
          total := !total + d;
          incr count
      | None -> ()
    done;
    Alcotest.(check int) "all terminated" 10 !count;
    float_of_int !total /. float_of_int !count
  in
  Alcotest.(check bool) "more adaptivity, slower" true (mean_at 0.8 > mean_at 0.0)

let test_mixed_validation () =
  let rng = Prng.create 99 in
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Mixed.adversary: q outside [0, 1]") (fun () ->
      ignore (Doda_adversary.Mixed.adversary rng ~n:5 ~sink:0 ~q:1.5))

let test_spiteful_validation () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Spiteful.adversary: need at least three nodes") (fun () ->
      ignore (Spiteful.adversary ~n:2 ~sink:0))

(* ------------------------------------------------------------------ *)
(* Sanity: the adaptive adversaries do not block an offline schedule   *)

let test_theorem1_sequence_admits_offline_aggregation () =
  (* The trap is online-only: the sequence played against Gathering
     admits a complete offline aggregation. *)
  let _, played =
    Duel.run ~max_steps:horizon ~n:3 ~sink:0 Algorithms.gathering
      (Counterexamples.theorem1 ())
  in
  Alcotest.(check bool) "offline feasible" true
    (Doda_core.Convergecast.opt ~n:3 ~sink:0 played 0 <> None)

let () =
  Alcotest.run "adversary"
    [
      ( "wrappers",
        [
          Alcotest.test_case "of_sequence replays" `Quick
            test_of_sequence_replays_and_ends;
          Alcotest.test_case "limit" `Quick test_limit;
          Alcotest.test_case "duel matches engine" `Quick
            test_duel_matches_engine_on_oblivious;
          Alcotest.test_case "uniform allows termination" `Quick
            test_uniform_adversary_allows_termination;
          Alcotest.test_case "sink bias speeds waiting" `Slow
            test_weighted_adversary_sink_bias_speeds_waiting;
        ] );
      ( "theorem1",
        [
          Alcotest.test_case "defeats no-knowledge algorithms" `Quick
            test_theorem1_defeats_no_knowledge_algorithms;
          Alcotest.test_case "defeats memoryful algorithms" `Quick
            test_theorem1_defeats_waiting_greedy_like_memory;
          Alcotest.test_case "offline aggregation feasible" `Quick
            test_theorem1_sequence_admits_offline_aggregation;
        ] );
      ( "theorem3",
        [
          Alcotest.test_case "defeats with underlying knowledge" `Quick
            test_theorem3_defeats_algorithms_knowing_underlying;
          Alcotest.test_case "underlying is the 4-cycle" `Quick
            test_theorem3_underlying_graph_is_cycle;
          Alcotest.test_case "gathering trapped quickly" `Quick
            test_theorem3_gathering_gets_trapped_quickly;
        ] );
      ( "spiteful",
        [
          Alcotest.test_case "traps at various n" `Quick test_spiteful_traps_at_various_n;
          Alcotest.test_case "freezes after first transmission" `Quick
            test_spiteful_freezes_after_first_transmission;
          Alcotest.test_case "sink appears in probe" `Quick
            test_spiteful_respects_sink_position;
          Alcotest.test_case "validation" `Quick test_spiteful_validation;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "extremes" `Quick test_mixed_extremes;
          Alcotest.test_case "monotone slowdown" `Slow test_mixed_monotone_slowdown;
          Alcotest.test_case "validation" `Quick test_mixed_validation;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "blocks waiting and gathering" `Quick
            test_theorem2_blocks_waiting_and_gathering;
          Alcotest.test_case "convergecasts remain possible" `Quick
            test_theorem2_convergecasts_remain_possible;
          Alcotest.test_case "search on deterministic" `Quick
            test_theorem2_search_deterministic;
          Alcotest.test_case "search on randomized" `Slow
            test_theorem2_search_randomized;
          Alcotest.test_case "search on passive" `Quick
            test_theorem2_search_passive_algorithm;
          Alcotest.test_case "validation" `Quick test_theorem2_validation;
        ] );
    ]
