(* The uniform generator's three forms must make one packed stream:
   the block fill behind streamed schedules ([Prng.fill_pairs] through
   [Schedule.of_fill_chunked]), the per-index [Generators.uniform] of
   live and frozen schedules, and an oracle kept here — the original
   definition of a uniform pair as two [Prng.int] draws. Pinned draws
   tie all three to the stream every committed benchmark table was
   produced with. *)

module Prng = Doda_prng.Prng
module Interaction = Doda_dynamic.Interaction
module Schedule = Doda_dynamic.Schedule
module Generators = Doda_dynamic.Generators
module Pool = Doda_sim.Pool

(* [a] among all [n] values, then [b] among the other [n - 1]. *)
let oracle_pair g n =
  let a = Prng.int g n in
  let b = Prng.int g (n - 1) in
  let b = if b >= a then b + 1 else b in
  if a < b then (a lsl 31) lor b else (b lsl 31) lor a

let oracle ~seed ~n len =
  let g = Prng.create seed in
  Array.init len (fun _ -> oracle_pair g n)

let per_index ~seed ~n len =
  let gen = Generators.uniform (Prng.create seed) ~n in
  Array.init len (fun t -> Interaction.to_int (gen t))

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

let chunked ~seed ~n ~block =
  Schedule.of_fill_chunked ~block ~n ~sink:0
    (Generators.uniform_fill (Prng.create seed) ~n)

let seeds = [ 1; 7; 42 ]
let ns = [ 2; 3; 4; 5; 8; 3000 ]
let blocks = [ 1; 7; 8192 ]

(* Long enough to cross several 8192-entry blocks, plus a ragged end. *)
let horizon = 20_000

let check_same label expected got =
  Alcotest.(check (array int)) label expected got

let test_forms_agree () =
  List.iter
    (fun seed ->
      List.iter
        (fun n ->
          let expected = oracle ~seed ~n horizon in
          let where = Printf.sprintf "seed %d n %d" seed n in
          check_same (where ^ ": per-index") expected (per_index ~seed ~n horizon);
          let direct = Array.make horizon 0 in
          Prng.fill_pairs (Prng.create seed) ~n direct ~pos:0 ~len:horizon;
          check_same (where ^ ": one fill_pairs call") expected direct;
          List.iter
            (fun block ->
              check_same
                (Printf.sprintf "%s block %d: chunked" where block)
                expected
                (drain (chunked ~seed ~n ~block) horizon))
            blocks)
        ns)
    seeds

let test_prefetched_agrees () =
  Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (seed, n, block) ->
          let s = chunked ~seed ~n ~block in
          Pool.pipeline pool s;
          check_same
            (Printf.sprintf "seed %d n %d block %d: prefetched" seed n block)
            (oracle ~seed ~n horizon) (drain s horizon))
        [ (7, 3000, 8192); (42, 5, 7); (1, 2, 1) ])

(* A fill writing at an offset leaves the rest of the buffer alone and
   continues the stream where the previous call stopped. *)
let test_fill_pairs_offset () =
  let g = Prng.create 3 in
  let buf = Array.make 10 (-1) in
  Prng.fill_pairs g ~n:9 buf ~pos:2 ~len:5;
  Prng.fill_pairs g ~n:9 buf ~pos:7 ~len:2;
  let expected = oracle ~seed:3 ~n:9 7 in
  check_same "offset fills"
    (Array.concat [ [| -1; -1 |]; expected; [| -1 |] ])
    buf;
  let bad f = Alcotest.(check bool) "rejected" true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  bad (fun () -> Prng.fill_pairs g ~n:1 buf ~pos:0 ~len:1);
  bad (fun () -> Prng.fill_pairs g ~n:9 buf ~pos:8 ~len:3);
  bad (fun () -> Prng.fill_pairs g ~n:9 buf ~pos:(-1) ~len:1)

(* The first draws of seed 7 at n = 3000, the stream behind the
   committed benchmark tables; any change to the PRNG state, the
   rejection limits or the pair packing shows here. *)
let pinned_seed7_n3000 =
  [|
    2787433777536; 4088808868305; 5839008041844; 1973537475026;
    2375116917323; 1591285384879; 4533337983115; 4406636448027;
    3197603153809; 921270487575; 607737875320; 850403526178;
    163208759260; 1879048193110; 2179695904842; 120259086530;
  |]

let test_pinned () =
  check_same "Generators.uniform (Prng.create 7) ~n:3000" pinned_seed7_n3000
    (per_index ~seed:7 ~n:3000 16);
  check_same "chunked fill" pinned_seed7_n3000
    (drain (chunked ~seed:7 ~n:3000 ~block:8192) 16)

(* A block fill that writes an id >= n, or a malformed packed pair, is
   caught at the refill that installs it. *)
let test_fill_checked () =
  let raises sched =
    match Schedule.chunk_view sched 0 with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let writing p =
    Schedule.of_fill_chunked ~block:4 ~n:5 ~sink:0 (fun buf ~base:_ ~len ->
        Array.fill buf 0 len (Interaction.to_int (Interaction.make 0 1));
        buf.(len - 1) <- p)
  in
  Alcotest.(check bool) "id >= n" true
    (raises (writing (Interaction.to_int (Interaction.make 1 5))));
  Alcotest.(check bool) "u = v" true (raises (writing ((2 lsl 31) lor 2)));
  Alcotest.(check bool) "negative" true (raises (writing (-1)));
  Alcotest.(check bool) "well-formed passes" false
    (raises (writing (Interaction.to_int (Interaction.make 3 4))))

let () =
  Alcotest.run "uniform-fill"
    [
      ( "streams",
        [
          Alcotest.test_case "fill, per-index and oracle agree" `Quick
            test_forms_agree;
          Alcotest.test_case "prefetched chunked run agrees" `Quick
            test_prefetched_agrees;
          Alcotest.test_case "fill_pairs at an offset" `Quick
            test_fill_pairs_offset;
          Alcotest.test_case "pinned seed-7 draws" `Quick test_pinned;
          Alcotest.test_case "fills are checked" `Quick test_fill_checked;
        ] );
    ]
