(** Possibly-unbounded interaction schedules.

    A schedule is where an execution's interactions come from: either a
    fixed finite {!Sequence.t}, or a generator function materialised
    lazily (the randomized adversary draws interactions on demand, yet
    algorithms like Waiting Greedy need an oracle over the {e future}
    of the very same draw — lazy materialisation keeps both consistent).

    Every schedule maintains an index of interactions involving the
    sink, so that the [meetTime] knowledge of Section 4.3 — the first
    time after [t] at which a node interacts with the sink — is a
    binary search instead of a scan.

    For horizons where even lazy materialisation is too much — sweeps
    at n >= 10^5 process ~n^2 interactions — a {e chunked} schedule
    ({!of_fun_chunked}, {!of_fill_chunked}) streams the generator
    through one fixed-size block recycled in place: memory is O(block)
    whatever the horizon, at the price of strictly forward access and
    no sink-meeting index (meet-time knowledge is unavailable;
    Gathering and Waiting need none).

    {b Node-count limit.} Interactions pack both endpoint ids into one
    63-bit OCaml int ([(u lsl 31) lor v]), so every constructor
    rejects [n > Interaction.max_node_id + 1] (= 2^31) with a clear
    error instead of letting ids wrap silently.

    {b Thread-safety.} A live schedule is {e not} thread-safe: lazy
    materialisation and the sink index mutate unsynchronised internal
    buffers on access, including through ostensibly read-only calls
    such as {!get} and {!next_meet_with_sink}; it must stay confined to
    one domain. The same holds for a chunked schedule (block refills
    mutate in place). A {e frozen} schedule ({!freeze}) is immutable —
    a flat packed int array plus the complete sink-meeting index — and
    is safe to share read-only across domains, e.g. one schedule per
    trace swept by many algorithms on a {!Doda_sim.Pool}. *)

type t

val of_sequence : n:int -> sink:int -> Sequence.t -> t
(** A finite schedule. Node ids in the sequence must be below [n].
    @raise Invalid_argument on a bad [sink] or out-of-range ids
    (checked lazily on access for generators, eagerly here). *)

val of_fun : n:int -> sink:int -> (int -> Interaction.t) -> t
(** [of_fun ~n ~sink gen] materialises [gen t] on first access to time
    [t]; [gen] is called exactly once per index, in increasing order. *)

val of_fun_chunked :
  ?block:int -> ?length:int -> n:int -> sink:int ->
  (int -> Interaction.t) -> t
(** [of_fun_chunked ~n ~sink gen] is a {e streaming} schedule over
    [gen]: interactions are decoded [block] at a time (default 8192)
    into one fixed buffer recycled in place, so memory stays O(block)
    however far the run goes — in contrast to {!of_fun}, which keeps
    the whole materialised prefix. [length] caps the schedule at a
    finite horizon (e.g. a {!Trace.stream}ed file): decoding stops
    there, {!length} reports it, and reads beyond it behave like the
    end of any finite schedule. The trade-offs:

    - {e strictly forward}: reading a time before the current block
      raises [Invalid_argument] — old interactions are gone;
    - {e no sink-meeting index}: {!next_meet_with_sink},
      {!stepper_next_meet}, {!meets_with_sink_upto}, {!prefix} and
      {!freeze} raise [Invalid_argument];
    - [gen] is still called exactly once per index in increasing
      order, but may run up to one block {e ahead} of the highest time
      read (whole blocks are decoded at once). Give each chunked
      schedule a dedicated PRNG stream.

    @raise Invalid_argument on a bad [sink], [n] outside [2 ..
    Interaction.max_node_id + 1], or [block < 1]. *)

val of_fill_chunked :
  ?block:int -> ?length:int -> n:int -> sink:int ->
  (int array -> base:int -> len:int -> unit) -> t
(** [of_fill_chunked ~n ~sink fill] is {!of_fun_chunked} over a block
    fill: each refill calls [fill buf ~base ~len] once, which must
    write the packed interactions ({!Interaction.to_int}) of times
    [base .. base+len-1] to [buf.(0) .. buf.(len-1)]. Calls come in
    increasing [base] order and cover every time exactly once, so a
    fill may ignore [base] and draw from a stream. Every entry is
    checked after the fill, as {!of_fun_chunked} checks each
    interaction. A generator that can write a whole block in one loop
    ({!Generators.uniform_fill}) saves the per-index call;
    [of_fun_chunked] is this constructor over a loop of [gen] calls.
    @raise Invalid_argument as {!of_fun_chunked}; a refill raises
    [Invalid_argument] if an entry is not a packed interaction or
    names a node [>= n]. *)

val freeze : t -> t
(** The compact immutable form of a finite schedule: the interaction
    sequence as a flat packed int array plus the sink-meeting index
    built once, eagerly, in one pass. Queries answer without mutating
    anything, so the result can be shared read-only across domains and
    reused by every algorithm sweeping the same trace. Freezing an
    already frozen schedule is the identity.
    @raise Invalid_argument on an unbounded (generator or chunked)
    schedule — freeze a finite {!prefix} instead. *)

val is_frozen : t -> bool

val n : t -> int
(** Number of nodes. *)

val sink : t -> int

val length : t -> int option
(** [Some len] for finite schedules, [None] for generators. *)

val get : t -> int -> Interaction.t option
(** [get s t] is [Some I_t], materialising as needed; [None] iff the
    schedule is finite and [t] is past its end. On a chunked schedule,
    @raise Invalid_argument for a time before the current block. *)

val get_exn : t -> int -> Interaction.t
(** @raise Invalid_argument past the end of a finite schedule, or on a
    chunked-schedule rewind. Chunked-schedule errors name the failing
    operation and point at a replayable alternative (rebuild without
    [--stream]). *)

val backing : t -> Sequence.t option
(** The full backing sequence of a finite or frozen schedule, no copy —
    the engine's hot loop iterates it directly as a flat int array.
    [None] for generator and chunked schedules. *)

val is_chunked : t -> bool

val chunk_view : t -> int -> int array * int * int
(** [chunk_view s time] is [(block, off, avail)]: the current block of
    a chunked schedule positioned so [block.(off)] is the packed
    interaction at [time], with [avail >= 1] consecutive entries valid
    from [off]. The engine's hot loop drains [avail] entries with no
    per-step dispatch, then calls again — the refill is amortised over
    the block. Advances (and recycles) the block as needed.
    @raise Invalid_argument on a non-chunked schedule, a negative
    time, or a time before the current block (forward-only). *)

val chunk_prefetch : t -> submit:((unit -> unit) -> unit) -> now:(unit -> int) -> unit
(** [chunk_prefetch s ~submit ~now] turns a chunked schedule into a
    two-stage pipeline: a producer task (queued through [submit],
    typically {!Doda_sim.Pool}'s job queue) decodes the {e next} block
    into a spare buffer while the consumer drains the current one; on
    advance the buffers swap and the next fill is queued. [now] is a
    monotonic ns clock used only to account consumer stall time.

    Determinism is unchanged: the generator is still called exactly
    once per index in increasing order (exactly one fill is in flight
    at any moment), so the draw stream — and everything derived from
    it — is identical with or without prefetch. If no worker has
    started a queued fill when the consumer needs it, the consumer
    steals and runs it inline, so a busy or empty pool can never
    deadlock the run (it just degrades to the synchronous path).

    After this call the schedule must be advanced from a single
    consumer domain (the producer side is synchronized internally).
    Idempotent: a second call keeps the running producer chain.
    A generator exception is re-raised on the consumer at the advance
    that needs the failed block.
    @raise Invalid_argument on a non-chunked schedule. *)

type chunk_stats = {
  refills : int;  (** blocks installed as current — deterministic *)
  prefetched : int;  (** installed blocks that a pool task decoded *)
  stalls : int;  (** consumer waits on an unfinished fill *)
  stall_ns : int;  (** total time spent in those waits *)
}
(** [refills] depends only on the draw stream and block size, so it is
    safe to surface in jobs-invariant output; the other three are
    timing-dependent (zero without {!chunk_prefetch}). *)

val chunk_stats : t -> chunk_stats
(** Streaming counters of a chunked schedule; all-zero for other forms. *)

val materialized : t -> int
(** Number of interactions materialised so far. For a chunked schedule
    this is the high-water mark of decoded times — only the last block
    of them is actually held in memory. *)

val prefix : t -> int -> Sequence.t
(** [prefix s k] is [I_0 .. I_{k-1}] as a finite sequence,
    materialising as needed. @raise Invalid_argument if a finite
    schedule is shorter than [k]. *)

val next_meet_with_sink : t -> node:int -> after:int -> limit:int -> int option
(** [next_meet_with_sink s ~node ~after ~limit] is the smallest time
    [t' > after] with [I_{t'} = {node, sink}] and [t' <= limit], if
    any; materialises at most up to [limit]. This is the paper's
    [u.meetTime(t)] capped at [limit] — Waiting Greedy only ever
    compares meet times against its parameter [tau], so a cap keeps
    laziness without changing decisions. For [node = sink] the paper
    defines meetTime as the identity, so [Some (after + 1)] is
    returned (clipped to [limit]). *)

(** {1 Batch-friendly step iteration}

    A stepper is a mutable read cursor over one schedule, built for
    lockstep consumers (the batch engine) whose accesses are monotone
    in time. It keeps one position per node into the sink-meeting
    index, so repeated {!stepper_next_meet} probes cost O(1) amortised,
    and on generator schedules the search materialises {e only until
    the first meet past [after] is known} — not to [limit + 1] like
    {!next_meet_with_sink} — while returning identical answers (meets
    are indexed in increasing time order, so the first one found
    incrementally is the first one the full index would report).

    A stepper mutates the underlying live schedule (materialisation)
    and its own cursors: like a live schedule it must stay confined to
    one domain. Steppers over a {e frozen} schedule keep the schedule
    immutable; only the stepper's private cursors move. *)

type stepper

val stepper : t -> stepper
(** A fresh cursor at time 0. On a live finite schedule this builds
    the complete sink-meeting index up front (one O(len) pass). *)

val stepper_schedule : stepper -> t
(** The schedule the stepper iterates. *)

val stepper_get : stepper -> int -> Interaction.t
(** [stepper_get st t] is [I_t], materialising generator schedules in
    chunks. @raise Invalid_argument on a negative time or past the end
    of a finite schedule. *)

val stepper_next_meet : stepper -> node:int -> after:int -> limit:int -> int option
(** Same contract and answers as {!next_meet_with_sink}, through the
    stepper's cursors and lazy search. *)

val meets_with_sink_upto : t -> int -> int array
(** [meets_with_sink_upto s k] counts, per node, the interactions with
    the sink among [I_0 .. I_{k-1}] (index [sink] counts all of them).
    Used by the Lemma 1 experiment. *)
