(* The four 64-bit state words live in a 32-byte [Bytes.t], read and
   written through the [%caml_bytes_get64u] / [%caml_bytes_set64u]
   compiler primitives. ocamlopt expands each into one unboxed 64-bit
   load or store (no bounds check, no write barrier, no C call), so a
   [step] compiles to about 30 straight-line instructions and
   allocates nothing. A float array bit-cast through
   [Int64.bits_of_float] / [float_of_bits] is not equivalent: on
   OCaml 5.1 without flambda each conversion is a C call that switches
   stacks, eight per step.

   Dune's default profile compiles with [-opaque], which rules out
   inlining across modules. Every draw that has to run at the speed of
   the bare step — the bounded rejection draw [below], the bulk pair
   fill [fill_pairs] and the int shuffle [shuffle] — therefore lives
   here, in the step's own compilation unit. *)

type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let of_words s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set64u g 0 s0;
  set64u g 8 s1;
  set64u g 16 s2;
  set64u g 24 s3;
  g

(* s3 down to s0: the state used to be built as a record literal whose
   fields evaluate right to left, so the first SplitMix64 draw landed
   in s3. Keep that order — every committed benchmark table depends on
   the seeded stream. *)
let create seed =
  let sm = Splitmix64.create seed in
  let s3 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s0 = Splitmix64.next sm in
  of_words s0 s1 s2 s3

let of_state (s0, s1, s2, s3) =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro256ss.of_state: all-zero state";
  of_words s0 s1 s2 s3

let copy = Bytes.copy

(* One step of the xoshiro256** update, inlined into every draw
   below. *)
let[@inline always] step (g : t) =
  let s0 = get64u g 0 in
  let s1 = get64u g 8 in
  let s2 = get64u g 16 in
  let s3 = get64u g 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let t = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  let s2 = Int64.logxor s2 t in
  let s3 = rotl s3 45 in
  set64u g 0 s0;
  set64u g 8 s1;
  set64u g 16 s2;
  set64u g 24 s3;
  result

let next g = step g

let[@inline always] bits62 g = Int64.to_int (Int64.shift_right_logical (step g) 2)

let next_bits g ~drop = Int64.to_int (Int64.shift_right_logical (step g) drop)

(* The top 62 bits span [0, max_int]. A power-of-two bound accepts all
   of them and reduces by masking; any other bound accepts the largest
   multiple of itself that fits, so the reduction has no modulo
   bias. *)
let limit bound =
  if bound land (bound - 1) = 0 then max_int
  else max_int - (max_int mod bound) - 1

let rec below g bound limit =
  let r = bits62 g in
  if r > limit then below g bound limit
  else if limit = max_int then r land (bound - 1)
  else r mod bound

let fill_pairs g ~n buf ~pos ~len =
  if n < 2 || n - 1 > 0x7FFF_FFFF then
    invalid_arg "Xoshiro256ss.fill_pairs: n outside 2 .. 2^31";
  if pos < 0 || len < 0 || pos > Array.length buf - len then
    invalid_arg "Xoshiro256ss.fill_pairs: range outside the buffer";
  let la = limit n and lb = limit (n - 1) in
  for k = pos to pos + len - 1 do
    let a = below g n la in
    let b = below g (n - 1) lb in
    let b = if b >= a then b + 1 else b in
    Array.unsafe_set buf k (if a < b then (a lsl 31) lor b else (b lsl 31) lor a)
  done

(* Fisher–Yates from the top: position [i] swaps with a uniform
   [j <= i]. Typed [int array], so the swaps are plain stores with no
   float-array tag test and no write barrier. *)
let shuffle g (a : int array) =
  for i = Array.length a - 1 downto 1 do
    let j = below g (i + 1) (limit (i + 1)) in
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j tmp
  done

let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
     0x39ABDC4529B1661CL |]

let jump g =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun w ->
      for b = 0 to 63 do
        if Int64.(logand w (shift_left 1L b)) <> 0L then begin
          s0 := Int64.logxor !s0 (get64u g 0);
          s1 := Int64.logxor !s1 (get64u g 8);
          s2 := Int64.logxor !s2 (get64u g 16);
          s3 := Int64.logxor !s3 (get64u g 24)
        end;
        ignore (next g)
      done)
    jump_table;
  set64u g 0 !s0;
  set64u g 8 !s1;
  set64u g 16 !s2;
  set64u g 24 !s3
