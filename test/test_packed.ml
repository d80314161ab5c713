(* Properties of the packed-int interaction kernel: the immediate
   encoding round-trips, its order agrees with the accessors, and a
   frozen schedule shared across algorithms behaves exactly like a
   schedule rebuilt for every run. Also cross-validates the bitvector
   brute-force sweep against the original set-based implementation. *)

module Interaction = Doda_dynamic.Interaction
module Sequence = Doda_dynamic.Sequence
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Engine = Doda_core.Engine
module Algorithms = Doda_core.Algorithms
module Theory = Doda_core.Theory
module Brute_force = Doda_core.Brute_force
module Prng = Doda_prng.Prng

let count = 300

(* Distinct node pair up to the largest id the packing supports. *)
let pair_arb =
  let gen =
    QCheck.Gen.(
      map2
        (fun a b -> (a, b))
        (int_range 0 Interaction.max_node_id)
        (int_range 0 Interaction.max_node_id))
  in
  QCheck.make ~print:(fun (a, b) -> Printf.sprintf "(%d, %d)" a b) gen

let prop_roundtrip =
  QCheck.Test.make ~count ~name:"packed: to_int/of_int round-trips" pair_arb
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let i = Interaction.make a b in
      let j = Interaction.of_int (Interaction.to_int i) in
      Interaction.equal i j
      && Interaction.u j = Stdlib.min a b
      && Interaction.v j = Stdlib.max a b)

let prop_of_int_rejects_junk =
  QCheck.Test.make ~count ~name:"packed: of_int rejects non-interactions"
    QCheck.(int_range 0 Interaction.max_node_id)
    (fun v ->
      (* u = v is never a valid packing (self-interaction), and u > v
         breaks normalisation: both must be refused. *)
      let self = (v lsl 31) lor v in
      let ok p = match Interaction.of_int p with exception _ -> false | _ -> true in
      (not (ok self))
      && (v = 0 || not (ok ((v lsl 31) lor (v - 1)))))

let prop_order_consistent =
  QCheck.Test.make ~count ~name:"packed: compare is lexicographic on (u, v)"
    QCheck.(pair pair_arb pair_arb)
    (fun ((a1, b1), (a2, b2)) ->
      QCheck.assume (a1 <> b1 && a2 <> b2);
      let i1 = Interaction.make a1 b1 and i2 = Interaction.make a2 b2 in
      let lex =
        match Stdlib.compare (Interaction.u i1) (Interaction.u i2) with
        | 0 -> Stdlib.compare (Interaction.v i1) (Interaction.v i2)
        | c -> c
      in
      let sign c = Stdlib.compare c 0 in
      sign (Interaction.compare i1 i2) = sign lex
      && Interaction.equal i1 i2 = (Interaction.compare i1 i2 = 0)
      && ((not (Interaction.equal i1 i2))
         || Interaction.hash i1 = Interaction.hash i2))

(* ------------------------------------------------------------------ *)
(* Frozen shared schedule vs per-run rebuilt schedules.                *)

let instance_gen =
  QCheck.Gen.(
    map3
      (fun n len seed -> (n, len, seed))
      (int_range 3 10) (int_range 10 400) (int_range 0 1_000_000))

let instance_arb =
  QCheck.make
    ~print:(fun (n, len, seed) -> Printf.sprintf "(n=%d, len=%d, seed=%d)" n len seed)
    instance_gen

let algos_for n =
  [
    Algorithms.waiting;
    Algorithms.gathering;
    Algorithms.waiting_greedy ~tau:(Theory.recommended_tau n);
    Algorithms.full_knowledge;
  ]

let same_result (a : Engine.result) (b : Engine.result) =
  a.duration = b.duration
  && a.transmission_count = b.transmission_count
  && Engine.Holders.equal a.holders b.holders

let prop_frozen_shared_equals_rebuilt =
  QCheck.Test.make ~count:150
    ~name:"schedule: frozen shared run = per-run rebuilt run" instance_arb
    (fun (n, len, seed) ->
      let s = Generators.uniform_sequence (Prng.create seed) ~n ~length:len in
      let shared = Schedule.freeze (Schedule.of_sequence ~n ~sink:0 s) in
      List.for_all
        (fun algo ->
          let fresh = Schedule.of_sequence ~n ~sink:0 s in
          same_result
            (Engine.run ~record:`Count algo shared)
            (Engine.run ~record:`Count algo fresh))
        (algos_for n))

let prop_freeze_preserves_content =
  QCheck.Test.make ~count:150 ~name:"schedule: freeze preserves content and oracle"
    instance_arb
    (fun (n, len, seed) ->
      let s = Generators.uniform_sequence (Prng.create seed) ~n ~length:len in
      let live = Schedule.of_sequence ~n ~sink:0 s in
      let frozen = Schedule.freeze live in
      Schedule.is_frozen frozen
      && Schedule.length frozen = Some len
      && List.for_all
           (fun t ->
             Interaction.equal (Schedule.get_exn live t) (Schedule.get_exn frozen t))
           (List.init len (fun t -> t))
      && List.for_all
           (fun node ->
             List.for_all
               (fun after ->
                 Schedule.next_meet_with_sink live ~node ~after ~limit:len
                 = Schedule.next_meet_with_sink frozen ~node ~after ~limit:len)
               [ 0; len / 2; len ])
           (List.init n (fun u -> u)))

(* ------------------------------------------------------------------ *)
(* Bitvector brute force vs the original set-based sweep.              *)

module Int_set = Set.Make (Int)

let ref_successors ~sink mask a b =
  let bit x = 1 lsl x in
  if mask land bit a <> 0 && mask land bit b <> 0 then begin
    let acc = [ mask ] in
    let acc = if a <> sink then mask lxor bit a :: acc else acc in
    if b <> sink then mask lxor bit b :: acc else acc
  end
  else [ mask ]

let ref_step ~sink states i =
  let a = Interaction.u i and b = Interaction.v i in
  Int_set.fold
    (fun mask acc ->
      List.fold_left
        (fun acc m -> Int_set.add m acc)
        acc
        (ref_successors ~sink mask a b))
    states Int_set.empty

let ref_optimal_duration ~n ~sink s ~start =
  let goal = 1 lsl sink in
  let full = (1 lsl n) - 1 in
  if full = goal then Some start
  else begin
    let len = Sequence.length s in
    let states = ref (Int_set.singleton full) in
    let result = ref None in
    let t = ref start in
    while !result = None && !t < len do
      states := ref_step ~sink !states (Sequence.get s !t);
      if Int_set.mem goal !states then result := Some !t;
      incr t
    done;
    !result
  end

let ref_reachable_states ~n ~sink s =
  let full = (1 lsl n) - 1 in
  let states = ref (Int_set.singleton full) in
  Sequence.iteri (fun _ i -> states := ref_step ~sink !states i) s;
  Int_set.elements !states

let small_instance_arb =
  let gen =
    QCheck.Gen.(
      map3
        (fun n len seed -> (n, len, seed))
        (int_range 2 7) (int_range 1 40) (int_range 0 1_000_000))
  in
  QCheck.make
    ~print:(fun (n, len, seed) -> Printf.sprintf "(n=%d, len=%d, seed=%d)" n len seed)
    gen

let prop_brute_force_matches_reference =
  QCheck.Test.make ~count:200
    ~name:"brute force: bitvector sweep = set-based reference" small_instance_arb
    (fun (n, len, seed) ->
      let rng = Prng.create seed in
      let s = Generators.uniform_sequence rng ~n ~length:len in
      let sink = Prng.int rng n in
      let start = Prng.int rng len in
      Brute_force.optimal_duration ~n ~sink s ~start
      = ref_optimal_duration ~n ~sink s ~start
      && Brute_force.reachable_states ~n ~sink s = ref_reachable_states ~n ~sink s)

(* ------------------------------------------------------------------ *)

let to_alcotest = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "packed"
    [
      ( "encoding",
        List.map to_alcotest
          [ prop_roundtrip; prop_of_int_rejects_junk; prop_order_consistent ] );
      ( "schedule",
        List.map to_alcotest
          [ prop_frozen_shared_equals_rebuilt; prop_freeze_preserves_content ] );
      ( "brute-force",
        List.map to_alcotest [ prop_brute_force_matches_reference ] );
    ]
