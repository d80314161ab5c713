(* The impossibility results, live.

   Theorems 1-3 of the paper say that against adaptive (or crafted
   oblivious) adversaries, no online algorithm can aggregate: the
   adversary watches what the algorithm commits to and locks the
   receiver away from the sink forever — while an offline scheduler,
   knowing the future, would have finished over and over again.

   This example plays the literal proof constructions against the
   paper's algorithms and prints the growing gap.

     dune exec examples/adversary_showdown.exe *)

module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Engine = Doda_core.Engine
module Cost = Doda_core.Cost
module Knowledge = Doda_core.Knowledge
module Algorithms = Doda_core.Algorithms
module Duel = Doda_adversary.Duel
module Counterexamples = Doda_adversary.Counterexamples
module Table = Doda_sim.Table

let show_duel ~title ~n ~knowledge adversary_of algos =
  Format.printf "@.--- %s ---@." title;
  let t =
    Table.create
      ~header:[ "algorithm"; "horizon"; "terminated"; "optimal convergecasts"; "cost" ]
  in
  List.iter
    (fun algo ->
      List.iter
        (fun horizon ->
          let r, played =
            Duel.run ?knowledge ~max_steps:horizon ~n ~sink:0 algo (adversary_of ())
          in
          let possible =
            Cost.convergecasts_within ~n ~sink:0 played ~upto:(horizon - 1)
          in
          Table.add_row t
            [
              algo.Doda_core.Algorithm.name;
              string_of_int horizon;
              (if r.Engine.stop = Engine.All_aggregated then "yes" else "no");
              string_of_int possible;
              Format.asprintf "%a" Cost.pp (Cost.of_result ~n ~sink:0 played r);
            ])
        [ 300; 3000 ])
    algos;
  Table.print t

let () =
  Format.printf
    "Impossibility, executed: the adversary reacts to each transmission@.";

  show_duel ~title:"Theorem 1: three nodes, no knowledge"
    ~n:Counterexamples.theorem1_nodes ~knowledge:None
    (fun () -> Counterexamples.theorem1 ())
    [ Algorithms.waiting; Algorithms.gathering ];

  show_duel ~title:"Theorem 3: 4-cycle, nodes know the underlying graph"
    ~n:Counterexamples.theorem3_nodes
    ~knowledge:
      (Some
         (Knowledge.with_underlying (Counterexamples.theorem3_graph ())
            Knowledge.empty))
    (fun () -> Counterexamples.theorem3 ())
    [ Algorithms.gathering; Algorithms.tree_aggregation ];

  (* Theorem 2 is an oblivious construction: the whole sequence is
     committed upfront, yet it still defeats Waiting and Gathering. *)
  Format.printf "@.--- Theorem 2: oblivious ring-block sequence (n = 8) ---@.";
  let n = 8 in
  let s = Counterexamples.theorem2_sequence ~n ~l0:1 ~d:1 ~periods:100 in
  let t = Table.create ~header:[ "algorithm"; "terminated"; "stuck node"; "cost" ] in
  List.iter
    (fun algo ->
      let sched = Schedule.of_sequence ~n ~sink:0 s in
      let r = Engine.run algo sched in
      let stuck =
        List.init (n - 1) (fun i -> i + 1)
        |> List.filter (Engine.Holders.mem r.holders)
        |> List.map string_of_int |> String.concat ","
      in
      Table.add_row t
        [
          algo.Doda_core.Algorithm.name;
          (if r.Engine.stop = Engine.All_aggregated then "yes" else "no");
          stuck;
          Format.asprintf "%a" Cost.pp (Cost.of_result ~n ~sink:0 s r);
        ])
    [ Algorithms.waiting; Algorithms.gathering ];
  Table.print t;
  Format.printf
    "@.In every case the algorithm is frozen while the offline optimum@.\
     keeps completing: the online cost is unbounded, as the theorems state.@."
