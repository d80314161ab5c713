(* The t-interval and bounded-recurrent generators come in two forms
   over one window fill: the block fill behind streamed schedules
   ([Schedule.of_fill_chunked]) and the per-index generators of live
   schedules. Both must make the stream of an oracle kept here — the
   generators as first written: per-index closures over a window built
   with [Array.blit], [Prng.choose], [Prng.pair] and a polymorphic
   Fisher–Yates, on a tree decoded through an ordered set. Pinned
   draws tie all of them to the stream every committed benchmark table
   was produced with. *)

module Prng = Doda_prng.Prng
module Static_graph = Doda_graph.Static_graph
module Graph_gen = Doda_graph.Graph_gen
module Interaction = Doda_dynamic.Interaction
module Schedule = Doda_dynamic.Schedule
module Tvg = Doda_dynamic.Tvg_class
module Workload = Doda_sim.Workload
module Pool = Doda_sim.Pool

(* ------------------------------------------------------------------ *)
(* Oracle.                                                            *)

let oracle_shuffle : Prng.t -> 'a array -> unit =
 fun g a ->
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* Prüfer decoding with the smallest leaf taken from an ordered set. *)
let oracle_tree rng ~n =
  let g = Static_graph.create n in
  if n = 1 then g
  else if n = 2 then begin
    Static_graph.add_edge g 0 1;
    g
  end
  else begin
    let prufer = Array.init (n - 2) (fun _ -> Prng.int rng n) in
    let degree = Array.make n 1 in
    Array.iter (fun x -> degree.(x) <- degree.(x) + 1) prufer;
    let module Iset = Set.Make (Int) in
    let leaves = ref Iset.empty in
    for u = 0 to n - 1 do
      if degree.(u) = 1 then leaves := Iset.add u !leaves
    done;
    Array.iter
      (fun v ->
        let leaf = Iset.min_elt !leaves in
        leaves := Iset.remove leaf !leaves;
        Static_graph.add_edge g leaf v;
        degree.(v) <- degree.(v) - 1;
        if degree.(v) = 1 then leaves := Iset.add v !leaves)
      prufer;
    Static_graph.add_edge g (Iset.min_elt !leaves) (Iset.max_elt !leaves);
    g
  end

let oracle_tree_ints rng ~n =
  Array.of_list
    (List.map
       (fun (u, v) -> Interaction.to_int (Interaction.make u v))
       (Static_graph.edges (oracle_tree rng ~n)))

let oracle_blocks ~window fill =
  let block = Array.make window 0 in
  let next_base = ref 0 in
  fun t ->
    if t < !next_base - window then invalid_arg "oracle: rewind";
    while t >= !next_base do
      fill block;
      next_base := !next_base + window
    done;
    block.(t - (!next_base - window))

let oracle_t_interval rng ~n ~window =
  if window = 1 then
    oracle_blocks ~window:(n - 1) (fun block ->
        Array.blit (oracle_tree_ints rng ~n) 0 block 0 (n - 1);
        oracle_shuffle rng block)
  else
    oracle_blocks ~window (fun block ->
        let edges = oracle_tree_ints rng ~n in
        let m = Array.length edges in
        Array.blit edges 0 block 0 m;
        for idx = m to window - 1 do
          let a, b = Prng.pair rng n in
          block.(idx) <- Interaction.to_int (Interaction.make a b)
        done;
        oracle_shuffle rng block)

let oracle_bounded_recurrent rng ~n ~bound =
  let edges = oracle_tree_ints rng ~n in
  let m = Array.length edges in
  let half = bound / 2 in
  oracle_blocks ~window:half (fun block ->
      Array.blit edges 0 block 0 m;
      for idx = m to half - 1 do
        block.(idx) <- Prng.choose rng edges
      done;
      oracle_shuffle rng block)

(* ------------------------------------------------------------------ *)
(* The forms under test.                                              *)

type cls = Br of int | Ti of int

let describe ~n = function
  | Br b -> Printf.sprintf "bounded-recurrent n=%d bound=%d" n b
  | Ti w -> Printf.sprintf "t-interval n=%d window=%d" n w

let oracle ~seed ~n cls len =
  let g = Prng.create seed in
  let gen =
    match cls with
    | Br bound -> oracle_bounded_recurrent g ~n ~bound
    | Ti window -> oracle_t_interval g ~n ~window
  in
  Array.init len gen

let per_index ~seed ~n cls len =
  let g = Prng.create seed in
  let gen =
    match cls with
    | Br bound -> Tvg.gen_bounded_recurrent g ~n ~bound
    | Ti window -> Tvg.gen_t_interval g ~n ~window
  in
  Array.init len (fun t -> Interaction.to_int (gen t))

let fill ~seed ~n = function
  | Br bound -> Tvg.bounded_recurrent_fill (Prng.create seed) ~n ~bound
  | Ti window -> Tvg.t_interval_fill (Prng.create seed) ~n ~window

let workload = function
  | Br b -> Workload.Bounded_recurrent b
  | Ti w -> Workload.T_interval w

(* Walk a chunked schedule block by block, as the engine does. *)
let drain sched len =
  let out = Array.make len 0 in
  let t = ref 0 in
  while !t < len do
    let blk, off, avail = Schedule.chunk_view sched !t in
    let k = Stdlib.min avail (len - !t) in
    Array.blit blk off out !t k;
    t := !t + k
  done;
  out

let chunked ~seed ~n ~block cls =
  Schedule.of_fill_chunked ~block ~n ~sink:0 (fill ~seed ~n cls)

let seeds = [ 1; 7; 42 ]
let ns = [ 2; 5; 10; 33; 100 ]
let blocks = [ 1; 7; 8192 ]

(* Tight and loose recurrence bounds; windows of 1, exactly one tree,
   and a tree among fillers (an odd size, so windows straddle
   blocks). *)
let classes n =
  [ Br (2 * (n - 1)); Br ((2 * (n - 1)) + 7); Br (5 * n);
    Ti 1; Ti (n - 1); Ti ((3 * n) + 1) ]

(* Long enough to cross two 8192-entry blocks, plus a ragged end. *)
let horizon = 20_000

let check_same label expected got =
  Alcotest.(check (array int)) label expected got

let test_forms_agree () =
  List.iter
    (fun seed ->
      List.iter
        (fun n ->
          List.iter
            (fun cls ->
              let where = Printf.sprintf "seed %d %s" seed (describe ~n cls) in
              let expected = oracle ~seed ~n cls horizon in
              check_same (where ^ ": per-index") expected
                (per_index ~seed ~n cls horizon);
              let direct = Array.make horizon 0 in
              fill ~seed ~n cls direct ~base:0 ~len:horizon;
              check_same (where ^ ": one fill call") expected direct;
              List.iter
                (fun block ->
                  check_same
                    (Printf.sprintf "%s block %d: chunked" where block)
                    expected
                    (drain (chunked ~seed ~n ~block cls) horizon))
                blocks;
              check_same (where ^ ": streamed workload") expected
                (drain
                   (Workload.schedule ~stream:true (workload cls) ~n ~sink:0
                      ~seed)
                   horizon))
            (classes n))
        ns)
    seeds

let test_prefetched_agrees () =
  Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (seed, n, block, cls) ->
          let s = chunked ~seed ~n ~block cls in
          Pool.pipeline pool s;
          check_same
            (Printf.sprintf "seed %d %s block %d: prefetched" seed
               (describe ~n cls) block)
            (oracle ~seed ~n cls horizon) (drain s horizon))
        [ (7, 100, 8192, Br 198); (42, 33, 7, Ti 100); (1, 10, 1, Br 50) ])

(* The first draws of seed 7, captured before the block fill existed.
   The bounded-recurrent row is the schedule of the n = 10^5
   batched-sweep benchmark. *)
let pinned_br_seed7 =
  [|
    129781026882901; 178451596273681; 68691559503789; 5991479459674;
    31009663973453; 80764712562864; 61881888862482; 55160265067869;
    30174292773062; 60672855546187; 120360016084896; 108027017484659;
    48378511671545; 23450521455368; 57969173656601; 140722456044107;
  |]

let pinned_ti_seed7 =
  [|
    10737418280; 57982058552; 38654705697; 79456895030; 51539607644;
    118111600738; 36507222090; 34359738444; 25769803850; 6442451038;
    45097156638; 38654705760; 4294967300; 81604378678; 38654705737;
    195421012063;
  |]

let test_pinned () =
  let n = 100_000 and br = Br 199_998 in
  check_same "gen_bounded_recurrent seed 7 n 1e5" pinned_br_seed7
    (per_index ~seed:7 ~n br 16);
  check_same "bounded_recurrent_fill seed 7 n 1e5" pinned_br_seed7
    (drain (chunked ~seed:7 ~n ~block:8192 br) 16);
  check_same "gen_t_interval seed 7 n 100 window 300" pinned_ti_seed7
    (per_index ~seed:7 ~n:100 (Ti 300) 16);
  check_same "t_interval_fill seed 7 n 100 window 300" pinned_ti_seed7
    (drain (chunked ~seed:7 ~n:100 ~block:8192 (Ti 300)) 16)

let message f =
  match f () with
  | _ -> "no exception"
  | exception Invalid_argument m -> m

let test_out_of_order () =
  let rewound what =
    what
    ^ ": draws must be requested in non-decreasing time order (the block \
       for an earlier time was already discarded)"
  in
  let g = Tvg.gen_bounded_recurrent (Prng.create 7) ~n:10 ~bound:20 in
  ignore (g 25);
  Alcotest.(check string) "gen_bounded_recurrent"
    (rewound "Tvg_class.gen_bounded_recurrent")
    (message (fun () -> g 3));
  let g = Tvg.gen_t_interval (Prng.create 7) ~n:10 ~window:1 in
  ignore (g 25);
  Alcotest.(check string) "gen_t_interval" (rewound "Tvg_class.gen_t_interval")
    (message (fun () -> g 3));
  (* Times inside the window last drawn stay readable. *)
  Alcotest.(check string) "same window" "no exception"
    (message (fun () -> g 18));
  let f = Tvg.bounded_recurrent_fill (Prng.create 7) ~n:10 ~bound:20 in
  let buf = Array.make 8 0 in
  f buf ~base:0 ~len:8;
  f buf ~base:24 ~len:8;
  Alcotest.(check string) "bounded_recurrent_fill"
    (rewound "Tvg_class.bounded_recurrent_fill")
    (message (fun () -> f buf ~base:8 ~len:8))

(* ------------------------------------------------------------------ *)
(* The pieces: the int shuffle and the linear Prüfer decoder.         *)

let test_shuffle () =
  let n = 100_000 in
  let a = Array.init n (fun i -> i) and b = Array.init n (fun i -> i) in
  let ga = Prng.create 5 and gb = Prng.create 5 in
  let before = Gc.minor_words () in
  Prng.shuffle ga a;
  let words = Gc.minor_words () -. before in
  oracle_shuffle gb b;
  check_same "same permutation" b a;
  Alcotest.(check int) "same next draw" (Prng.int gb 1_000_003)
    (Prng.int ga 1_000_003);
  Alcotest.(check bool)
    (Printf.sprintf "allocates under 100 minor words (%.0f)" words)
    true (words < 100.)

let test_tree_decoder () =
  List.iter
    (fun seed ->
      List.iter
        (fun n ->
          let edges = ref [] in
          Graph_gen.random_tree_edges (Prng.create seed) ~n (fun u v ->
              edges := (Stdlib.min u v, Stdlib.max u v) :: !edges);
          let expected = Static_graph.edges (oracle_tree (Prng.create seed) ~n) in
          let where = Printf.sprintf "seed %d n %d" seed n in
          Alcotest.(check (list (pair int int)))
            (where ^ ": random_tree_edges")
            expected
            (List.sort compare !edges);
          Alcotest.(check (list (pair int int)))
            (where ^ ": random_tree") expected
            (Static_graph.edges (Graph_gen.random_tree (Prng.create seed) ~n)))
        [ 1; 2; 3; 4; 5; 10; 33; 100; 1000 ])
    [ 1; 7; 42; 99 ]

let () =
  Alcotest.run "tvg-fill"
    [
      ( "streams",
        [
          Alcotest.test_case "fill, per-index and oracle agree" `Quick
            test_forms_agree;
          Alcotest.test_case "prefetched chunked run agrees" `Quick
            test_prefetched_agrees;
          Alcotest.test_case "pinned seed-7 draws" `Quick test_pinned;
          Alcotest.test_case "out-of-order requests" `Quick test_out_of_order;
        ] );
      ( "pieces",
        [
          Alcotest.test_case "int shuffle = polymorphic Fisher-Yates" `Quick
            test_shuffle;
          Alcotest.test_case "linear Pruefer decode = ordered-set decode" `Quick
            test_tree_decoder;
        ] );
    ]
