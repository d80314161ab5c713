(** Flat structure-of-arrays transmission log.

    The canonical record of a run: three parallel int buffers
    ([time]/[sender]/[receiver]), appended once per transmission by the
    engine's run-core and indexed in O(1) by every consumer
    ([Validate], [Timeline], [Analysis], the CLI). Unlike the boxed
    [transmission list] it replaces, a log of T transmissions is three
    unboxed arrays — no per-event allocation while recording, no
    pointer chasing while reading.

    The log also owns the derived per-node views that downstream
    analyses kept recomputing: {!fire_times} (when each node
    transmitted) and {!parents} (to whom), computed in one pass and
    cached. *)

type transmission = { time : int; sender : int; receiver : int }
(** One boxed event, for compatibility consumers and literals in
    tests. [Engine.transmission] is an alias of this type. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty log. [capacity] pre-sizes the three buffers so appends up
    to it never reallocate; in the transmit-once model a run over [n]
    nodes commits at most [n - 1] transmissions, so both engines pass
    [~capacity:n] when they record [`All] and recording never doubles
    mid-run. [`Count] runs never write their log and pre-size none. *)

val add : t -> time:int -> sender:int -> receiver:int -> unit
(** Append one transmission (chronological order is the caller's
    contract; the engine appends in time order). *)

val length : t -> int
(** Number of transmissions recorded. *)

val time : t -> int -> int
val sender : t -> int -> int

val receiver : t -> int -> int
(** O(1) field access by transmission index.
    @raise Invalid_argument on out-of-bounds index. *)

val get : t -> int -> transmission
(** Boxed view of entry [i]. *)

val iter : (time:int -> sender:int -> receiver:int -> unit) -> t -> unit
(** Iterate in log (chronological) order without allocating. *)

val fold :
  ('a -> time:int -> sender:int -> receiver:int -> 'a) -> 'a -> t -> 'a

val to_list : t -> transmission list
(** Chronological boxed list — compatibility with the seed engine's
    [result.transmissions] representation. *)

val of_list : transmission list -> t
(** Build a log from a chronological list (tests, plan conversion). *)

(** {1 Derived per-node views}

    Both arrays are computed together in one O(T + n) pass and cached;
    repeated calls with the same [n] on an unchanged log are O(1). The
    returned arrays are the cache itself — do not mutate (copy first if
    you must). Senders outside [0, n) are ignored. *)

val fire_times : t -> n:int -> int array
(** Entry [v] is the time at which [v] transmitted, [-1] if it never
    did (the sink never does). *)

val parents : t -> n:int -> int array
(** Entry [v] is the receiver of [v]'s transmission ([v]'s parent in
    the aggregation forest), [-1] if [v] never transmitted. *)

val pp : Format.formatter -> t -> unit
