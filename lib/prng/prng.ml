type t = {
  gen : Xoshiro256ss.t;
  seeder : Splitmix64.t;
  (* One-slot memo of the rejection limit for the last bound. Bulk
     consumers (schedule materialisation, batch replication) draw
     millions of times at one bound, and the limit is a pure function
     of the bound, so caching it removes one division per draw without
     touching the draw stream. *)
  mutable memo_bound : int;
  mutable memo_limit : int;
}

let create64 seed =
  {
    gen = Xoshiro256ss.create seed;
    seeder = Splitmix64.create (Int64.lognot seed);
    memo_bound = 0;
    memo_limit = 0;
  }

let create seed = create64 (Int64.of_int seed)

let split g = create64 (Splitmix64.split g.seeder)

let split_n g k =
  if k < 0 then invalid_arg "Prng.split_n: negative count";
  Array.init k (fun _ -> split g)

let copy g =
  {
    gen = Xoshiro256ss.copy g.gen;
    seeder = Splitmix64.copy g.seeder;
    memo_bound = g.memo_bound;
    memo_limit = g.memo_limit;
  }

let bits64 g = Xoshiro256ss.next g.gen

let limit g bound =
  if g.memo_bound = bound then g.memo_limit
  else begin
    let l = Xoshiro256ss.limit bound in
    g.memo_bound <- bound;
    g.memo_limit <- l;
    l
  end

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  Xoshiro256ss.below g.gen bound (limit g bound)

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let float g bound =
  (* 53 random bits mapped to [0, 1), scaled. *)
  let r = Xoshiro256ss.next_bits g.gen ~drop:11 in
  float_of_int r /. 9007199254740992.0 *. bound

let bool g = Int64.(shift_right_logical (bits64 g) 63) = 1L

let bernoulli g p = float g 1.0 < p

let exponential g lambda =
  if lambda <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let u = 1.0 -. float g 1.0 in
  -.log u /. lambda

let geometric g p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Prng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = 1.0 -. float g 1.0 in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

(* A pair draws [a] among all [n] values, then [b] among the other
   [n - 1]. The second limit is not memoised: it would evict the
   first, and a bulk caller wants {!fill_pairs} anyway. *)
let pair_packed g n =
  if n < 2 || n - 1 > 0x7FFF_FFFF then
    invalid_arg "Prng.pair: n must lie in 2 .. 2^31";
  let a = Xoshiro256ss.below g.gen n (limit g n) in
  let b = Xoshiro256ss.below g.gen (n - 1) (Xoshiro256ss.limit (n - 1)) in
  let b = if b >= a then b + 1 else b in
  if a < b then (a lsl 31) lor b else (b lsl 31) lor a

let pair g n =
  let p = pair_packed g n in
  (p lsr 31, p land 0x7FFF_FFFF)

let fill_pairs g ~n buf ~pos ~len =
  Xoshiro256ss.fill_pairs g.gen ~n buf ~pos ~len

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))

let weighted_index g w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then invalid_arg "Prng.weighted_index: weights sum to zero";
  let target = float g total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let shuffle g a = Xoshiro256ss.shuffle g.gen a

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  (* Partial Fisher-Yates over an index array. *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in g i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

module Alias = struct
  type dist = { prob : float array; alias : int array }

  let create w =
    let n = Array.length w in
    if n = 0 then invalid_arg "Prng.Alias.create: empty weights";
    let total = Array.fold_left ( +. ) 0.0 w in
    if total <= 0.0 || Array.exists (fun x -> x < 0.0) w then
      invalid_arg "Prng.Alias.create: weights must be nonnegative, not all zero";
    let scaled = Array.map (fun x -> x *. float_of_int n /. total) w in
    let prob = Array.make n 0.0 and alias = Array.make n 0 in
    let small = Queue.create () and large = Queue.create () in
    Array.iteri
      (fun i p -> Queue.push i (if p < 1.0 then small else large))
      scaled;
    while not (Queue.is_empty small) && not (Queue.is_empty large) do
      let s = Queue.pop small and l = Queue.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
      Queue.push l (if scaled.(l) < 1.0 then small else large)
    done;
    let flush q = Queue.iter (fun i -> prob.(i) <- 1.0) q in
    flush small;
    flush large;
    { prob; alias }

  let sample g d =
    let n = Array.length d.prob in
    let i = int g n in
    if float g 1.0 < d.prob.(i) then i else d.alias.(i)

  let size d = Array.length d.prob
end
