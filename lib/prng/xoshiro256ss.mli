(** xoshiro256** 1.0 (Blackman & Vigna, 2018).

    The workhorse generator of the library: 256 bits of state, period
    [2^256 - 1], excellent statistical quality and very fast. All
    randomness in simulations flows through this generator via
    {!Prng}. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] expands [seed] into a full 256-bit state using
    SplitMix64, as recommended by the authors. *)

val of_state : int64 * int64 * int64 * int64 -> t
(** [of_state (s0, s1, s2, s3)] uses the given words directly. The
    state must not be all-zero. @raise Invalid_argument otherwise. *)

val next : t -> int64
(** [next g] advances [g] and returns the next 64-bit output. *)

val next_bits : t -> drop:int -> int
(** [next_bits g ~drop] is
    [Int64.to_int (Int64.shift_right_logical (next g) drop)], fused so
    the 64-bit word is never boxed; the allocation-free path for the
    float draws in {!Prng} (bounded integers go through {!below}).
    [drop] must be at least 2 for the result to fit an OCaml int. *)

val limit : int -> int
(** [limit bound] is the largest 62-bit draw {!below} accepts for
    [bound]: [max_int] for a power of two (every draw, reduced by
    masking), otherwise one less than the largest multiple of [bound]
    that fits in 62 bits, so the accepted draws reduce without modulo
    bias. [bound] must be positive. *)

val below : t -> int -> int -> int
(** [below g bound (limit bound)] is uniform in [\[0, bound)]: it draws
    the top 62 bits of {!next} until one is at most the limit, then
    reduces it. One draw per attempt, so the stream it consumes is a
    pure function of the state and [bound]. Allocates nothing. *)

val fill_pairs : t -> n:int -> int array -> pos:int -> len:int -> unit
(** [fill_pairs g ~n buf ~pos ~len] writes [len] uniform unordered
    pairs of distinct values in [\[0, n)] to [buf.(pos) ..
    buf.(pos+len-1)], each packed as [(lo lsl 31) lor hi] with
    [lo < hi]. Entry [k] is drawn as [a = below g n _], then
    [b = below g (n-1) _] shifted past [a] — the same draws, in the
    same order, as [len] calls of {!Prng.pair}. Both limits are
    computed once per call and nothing is allocated.
    @raise Invalid_argument if [n] is outside [2 .. 2^31] or the range
    leaves [buf]. *)

val shuffle : t -> int array -> unit
(** [shuffle g a] permutes [a] uniformly in place by Fisher–Yates:
    for [i] from [length a - 1] down to 1, it swaps [a.(i)] with
    [a.(j)], [j = below g (i + 1) _]. The same draws and swaps as a
    loop of {!Prng.int} calls; allocates nothing. *)

val jump : t -> unit
(** [jump g] advances [g] by [2^128] steps; used to carve
    non-overlapping substreams out of one seed. *)

val copy : t -> t
(** [copy g] is an independent generator with the same state. *)
