(* Statistical and determinism tests for the PRNG substrate. *)

module Prng = Doda_prng.Prng
module Splitmix64 = Doda_prng.Splitmix64
module Xoshiro256ss = Doda_prng.Xoshiro256ss

let test_splitmix_reference () =
  (* Reference outputs for seed 1234567 from the public-domain C
     implementation. *)
  let g = Splitmix64.create 1234567L in
  let a = Splitmix64.next g in
  let b = Splitmix64.next g in
  Alcotest.(check bool) "values differ" true (a <> b);
  (* Determinism from the same seed. *)
  let g2 = Splitmix64.create 1234567L in
  Alcotest.(check int64) "replay first" a (Splitmix64.next g2);
  Alcotest.(check int64) "replay second" b (Splitmix64.next g2)

let test_splitmix_copy_independent () =
  let g = Splitmix64.create 9L in
  let c = Splitmix64.copy g in
  let a = Splitmix64.next g in
  let b = Splitmix64.next c in
  Alcotest.(check int64) "copy replays" a b

let test_xoshiro_rejects_zero_state () =
  Alcotest.check_raises "zero state"
    (Invalid_argument "Xoshiro256ss.of_state: all-zero state") (fun () ->
      ignore (Xoshiro256ss.of_state (0L, 0L, 0L, 0L)))

let test_xoshiro_jump_diverges () =
  let g = Xoshiro256ss.create 42L in
  let h = Xoshiro256ss.copy g in
  Xoshiro256ss.jump h;
  let same = ref 0 in
  for _ = 1 to 100 do
    if Xoshiro256ss.next g = Xoshiro256ss.next h then incr same
  done;
  Alcotest.(check int) "no collisions after jump" 0 !same

(* Known answer: the reference C implementation of xoshiro256**
   seeded with the state words 1, 2, 3, 4. *)
let test_xoshiro_known_answer () =
  let g = Xoshiro256ss.of_state (1L, 2L, 3L, 4L) in
  List.iter
    (fun want -> Alcotest.(check int64) "reference output" want (Xoshiro256ss.next g))
    [ 11520L; 0L; 1509978240L; 1215971899390074240L ]

(* Rejection limits: a power of two accepts every 62-bit draw; any
   other bound accepts exactly the largest multiple of itself that
   fits in 62 bits, [0 .. limit]. An off-by-one here would shift the
   draw stream only once in 2^62 draws, so sampling cannot see it. *)
let test_xoshiro_limits () =
  List.iter
    (fun b ->
      Alcotest.(check int) (Printf.sprintf "limit %d" b) max_int (Xoshiro256ss.limit b))
    [ 1; 2; 4; 64; 1 lsl 30; 1 lsl 61 ];
  List.iter
    (fun b ->
      let l = Xoshiro256ss.limit b in
      Alcotest.(check int) (Printf.sprintf "limit %d + 1 is a multiple" b) 0 ((l + 1) mod b);
      Alcotest.(check bool) (Printf.sprintf "limit %d is the largest" b) true (max_int - l < b))
    [ 3; 5; 7; 2999; 3000; 99_999; (1 lsl 31) - 1; max_int ]

(* The bounded draws on the hot paths allocate nothing: no boxed
   words, no closure per rejection loop. *)
let test_draws_allocate_nothing () =
  let g = Prng.create 11 in
  let draws = 100_000 in
  let buf = Array.make draws 0 in
  (* Warm up outside the measurement. *)
  ignore (Prng.int g 3000);
  Prng.fill_pairs g ~n:3000 buf ~pos:0 ~len:1;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let acc = ref 0 in
  let w_int =
    words (fun () ->
        for _ = 1 to draws do
          acc := !acc lxor Prng.int g 3000
        done)
  in
  let w_fill = words (fun () -> Prng.fill_pairs g ~n:3000 buf ~pos:0 ~len:draws) in
  Alcotest.(check bool)
    (Printf.sprintf "Prng.int: %.0f minor words over %d draws" w_int draws)
    true (w_int < 100.);
  Alcotest.(check bool)
    (Printf.sprintf "Prng.fill_pairs: %.0f minor words over %d draws" w_fill draws)
    true (w_fill < 100.)

let test_int_bounds () =
  let g = Prng.create 1 in
  for _ = 1 to 10_000 do
    let x = Prng.int g 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7)
  done

let test_int_uniformity () =
  let g = Prng.create 2 in
  let counts = Array.make 10 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let x = Prng.int g 10 in
    counts.(x) <- counts.(x) + 1
  done;
  let expected = float_of_int draws /. 10.0 in
  Array.iteri
    (fun i c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) (Printf.sprintf "bucket %d within 5%%" i) true (dev < 0.05))
    counts

let test_int_rejects_nonpositive () =
  let g = Prng.create 3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_int_in_inclusive () =
  let g = Prng.create 4 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 10_000 do
    let x = Prng.int_in g 3 5 in
    Alcotest.(check bool) "in [3,5]" true (x >= 3 && x <= 5);
    if x = 3 then seen_lo := true;
    if x = 5 then seen_hi := true
  done;
  Alcotest.(check bool) "hits low" true !seen_lo;
  Alcotest.(check bool) "hits high" true !seen_hi

let test_float_range () =
  let g = Prng.create 5 in
  for _ = 1 to 10_000 do
    let x = Prng.float g 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_bool_balanced () =
  let g = Prng.create 6 in
  let trues = ref 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    if Prng.bool g then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int draws in
  Alcotest.(check bool) "balanced" true (ratio > 0.48 && ratio < 0.52)

let test_pair_distinct_ordered () =
  let g = Prng.create 7 in
  for _ = 1 to 10_000 do
    let a, b = Prng.pair g 9 in
    Alcotest.(check bool) "ordered distinct" true (a < b && b < 9 && a >= 0)
  done

let test_pair_uniform_over_pairs () =
  let g = Prng.create 8 in
  let n = 5 in
  let counts = Hashtbl.create 10 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let p = Prng.pair g n in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  let expected = float_of_int draws /. 10.0 in
  Alcotest.(check int) "all 10 pairs seen" 10 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) "within 5%" true (dev < 0.05))
    counts

let test_split_decorrelated () =
  let master = Prng.create 9 in
  let a = Prng.split master in
  let b = Prng.split master in
  let same = ref 0 in
  for _ = 1 to 1000 do
    if Prng.int a 1000 = Prng.int b 1000 then incr same
  done;
  (* Expect about one collision per thousand. *)
  Alcotest.(check bool) "few collisions" true (!same < 20)

let test_shuffle_is_permutation () =
  let g = Prng.create 10 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let g = Prng.create 11 in
  let s = Prng.sample_without_replacement g 10 30 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length distinct);
  Array.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 30)) s

let test_weighted_index () =
  let g = Prng.create 12 in
  let w = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 40_000 do
    let i = Prng.weighted_index g w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(1);
  let ratio = float_of_int counts.(2) /. float_of_int counts.(0) in
  Alcotest.(check bool) "3:1 ratio" true (ratio > 2.7 && ratio < 3.3)

let test_alias_matches_weights () =
  let g = Prng.create 13 in
  let w = [| 0.5; 2.0; 1.5; 0.0; 4.0 |] in
  let dist = Prng.Alias.create w in
  Alcotest.(check int) "size" 5 (Prng.Alias.size dist);
  let counts = Array.make 5 0 in
  let draws = 200_000 in
  for _ = 1 to draws do
    let i = Prng.Alias.sample g dist in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(3);
  let total_w = 8.0 in
  Array.iteri
    (fun i c ->
      if w.(i) > 0.0 then begin
        let expected = w.(i) /. total_w *. float_of_int draws in
        let dev = Float.abs (float_of_int c -. expected) /. expected in
        Alcotest.(check bool) (Printf.sprintf "weight %d within 5%%" i) true (dev < 0.05)
      end)
    counts

let test_alias_rejects_bad_weights () =
  Alcotest.check_raises "all zero"
    (Invalid_argument "Prng.Alias.create: weights must be nonnegative, not all zero")
    (fun () -> ignore (Prng.Alias.create [| 0.0; 0.0 |]))

let test_geometric_mean () =
  let g = Prng.create 14 in
  let p = 0.25 in
  let total = ref 0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    total := !total + Prng.geometric g p
  done;
  (* Mean of failures-before-success is (1-p)/p = 3. *)
  let mean = float_of_int !total /. float_of_int draws in
  Alcotest.(check bool) "mean near 3" true (mean > 2.85 && mean < 3.15)

let test_exponential_mean () =
  let g = Prng.create 15 in
  let total = ref 0.0 in
  let draws = 50_000 in
  for _ = 1 to draws do
    total := !total +. Prng.exponential g 2.0
  done;
  let mean = !total /. float_of_int draws in
  Alcotest.(check bool) "mean near 0.5" true (mean > 0.47 && mean < 0.53)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic replay" `Quick test_splitmix_reference;
          Alcotest.test_case "copy independent" `Quick test_splitmix_copy_independent;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "rejects zero state" `Quick test_xoshiro_rejects_zero_state;
          Alcotest.test_case "jump diverges" `Quick test_xoshiro_jump_diverges;
          Alcotest.test_case "known answer" `Quick test_xoshiro_known_answer;
          Alcotest.test_case "rejection limits" `Quick test_xoshiro_limits;
        ] );
      ( "prng",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
          Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
          Alcotest.test_case "int rejects nonpositive" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "int_in inclusive" `Quick test_int_in_inclusive;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bool balanced" `Slow test_bool_balanced;
          Alcotest.test_case "pair distinct ordered" `Quick test_pair_distinct_ordered;
          Alcotest.test_case "pair uniform" `Slow test_pair_uniform_over_pairs;
          Alcotest.test_case "split decorrelated" `Quick test_split_decorrelated;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "weighted index" `Slow test_weighted_index;
          Alcotest.test_case "geometric mean" `Slow test_geometric_mean;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
        ] );
      ( "alias",
        [
          Alcotest.test_case "matches weights" `Slow test_alias_matches_weights;
          Alcotest.test_case "rejects bad weights" `Quick test_alias_rejects_bad_weights;
        ] );
    ]
