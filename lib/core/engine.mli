(** Execution engine: plays a schedule of interactions against a DODA
    algorithm and enforces the model of Section 2.

    Initially every node owns a data item. During interaction
    [I_t = {u, v}], if both nodes still own data the algorithm may
    order one to transmit to the other; the receiver aggregates. A node
    that transmitted owns nothing, can never transmit again, and can no
    longer receive. The run terminates when the sink is the only node
    owning data.

    Every execution goes through one run-core: {!run} drives it from a
    schedule, {!run_state} from an arbitrary pull source (how
    {!Doda_adversary.Duel} plays adaptive adversaries), and the
    {!state} API steps it one interaction at a time for debuggers,
    visualisations and tests. Model enforcement therefore lives in
    exactly one place, and {!observer}s can watch any of them. *)

type transmission = Run_log.transmission = {
  time : int;
  sender : int;
  receiver : int;
}

type stop_reason =
  | All_aggregated  (** the sink is the only data owner *)
  | Schedule_exhausted  (** finite schedule ended first *)
  | Step_limit  (** [max_steps] interactions processed *)

(** Who still owns data when a run ends: an immutable set of nodes. *)
module Holders : sig
  type t

  val mem : t -> int -> bool
  (** [mem h v]: node [v] still owns data.
      @raise Invalid_argument if [v] is not a node of the run. *)

  val count : t -> int
  (** Number of nodes that still own data. O(1). *)

  val to_array : t -> bool array
  (** A fresh ownership vector, entry [v] = [mem h v]. *)

  val equal : t -> t -> bool
  (** Same node count and same owners. Compare sets with this, not
      with polymorphic [=], which would compare representations. *)

  val of_planes :
    int array -> stride:int -> word:int -> bit:int -> n:int -> count:int -> t
  (** For run-cores: the set whose node [v] owns data iff bit [bit] of
      [planes.(v * stride + word)] is set, over nodes [0 .. n - 1], with
      [count] owners. O(1), no copy: the caller must never write
      [planes] again, which is what makes the set immutable and safe
      to share between results and domains. *)
end

type result = {
  stop : stop_reason;
  duration : int option;
      (** Time (interaction index) of the final transmission, when
          [stop = All_aggregated]; the paper's [duration(A, I)]. *)
  steps : int;  (** Interactions processed. *)
  log : Run_log.t;
      (** Flat transmission log, chronological. Empty when the run
          recorded with [`Count]. *)
  transmission_count : int;
      (** Number of transmissions, regardless of recording mode. *)
  holders : Holders.t;
      (** Who still owns data at the end. Immutable: {!finish} copies
          the live vector once, and {!Batch_engine} results are views
          of the batch's final bit planes, shared by every lane. *)
}

val transmissions : result -> transmission list
(** [Run_log.to_list result.log] — the seed engine's boxed
    chronological list, for consumers that want one. *)

(** {1 Observers}

    An observer watches a run from the outside: streaming progress,
    live validation, metric counters. All three callbacks are
    optional; an engine with no step observers pays one boolean test
    per interaction, so the [`Count] measurement path stays
    allocation-free. *)

type observer

val observer :
  ?on_step:(time:int -> Doda_dynamic.Interaction.t -> unit) ->
  ?on_transmit:(time:int -> sender:int -> receiver:int -> unit) ->
  ?on_finish:(result -> unit) ->
  unit ->
  observer
(** [on_step] fires after every interaction is processed (transmitting
    or not); [on_transmit] after each committed transmission;
    [on_finish] once, with the packaged result (each time {!finish} is
    called, for manual steppers). *)

(** {1 Whole runs} *)

val run :
  ?knowledge:Knowledge.t ->
  ?max_steps:int ->
  ?record:[ `All | `Count ] ->
  ?observers:observer list ->
  Algorithm.t ->
  Doda_dynamic.Schedule.t ->
  result
(** [run algo sched] executes [algo] against [sched].

    [knowledge] defaults to [Knowledge.for_schedule sched algo.requires]
    — exactly the oracles the algorithm declares.

    [max_steps] bounds the number of interactions processed; it
    defaults to the schedule length and is mandatory for generator
    schedules. The engine stops early as soon as aggregation completes.

    [record] (default [`All]) selects what the result carries. [`All]
    records the full transmission log. [`Count] skips the per-event log
    append — [result.log] is empty — and keeps only
    [transmission_count]; [stop], [duration], [steps] and [holders] are
    identical to an [`All] run (a determinism regression test enforces
    this). Use [`Count] on replication-heavy measurement paths that
    only consume durations.

    @raise Invalid_argument if required knowledge cannot be built, if
    [max_steps] is missing for an unbounded schedule, or if the
    algorithm misbehaves (returns a non-endpoint, or makes the sink
    transmit). *)

(** {1 Stepping} *)

type state
(** A run in progress. *)

val start :
  ?knowledge:Knowledge.t ->
  ?record:[ `All | `Count ] ->
  ?observers:observer list ->
  Algorithm.t ->
  Doda_dynamic.Schedule.t ->
  state
(** [start algo sched] initialises a run without executing anything.
    [record] as in {!run} (default [`All] — steppers usually want the
    log). @raise Invalid_argument on missing knowledge. *)

val start_source :
  ?knowledge:Knowledge.t ->
  ?record:[ `All | `Count ] ->
  ?observers:observer list ->
  n:int ->
  sink:int ->
  source:(state -> Doda_dynamic.Interaction.t option) ->
  Algorithm.t ->
  state
(** [start_source ~n ~sink ~source algo] initialises a run whose
    interactions are pulled from [source] instead of a pre-committed
    schedule — the hook adaptive adversaries plug into. [source st] is
    asked for the interaction at time [time st] and may inspect the
    live state (e.g. {!live_holders}); [None] ends the execution.
    [knowledge] defaults to [Knowledge.empty]: a pull source has no
    future to build oracles from.

    @raise Invalid_argument on invalid [n]/[sink] or missing
    knowledge. *)

type step_outcome =
  | Stepped of transmission option
      (** One interaction processed; the transmission it carried, if
          any. *)
  | Finished of stop_reason
      (** Nothing processed: aggregation already complete, or the
          schedule ended. [Step_limit] is never returned by [step]
          (the caller owns the loop). *)

val step : state -> step_outcome
(** Process the next interaction.
    @raise Invalid_argument on algorithm misbehaviour. *)

val run_state : state -> max_steps:int -> result
(** Drive a state to completion through the same run-core as {!run}:
    stops at aggregation, source exhaustion, or [max_steps]. *)

val time : state -> int
(** Interactions processed so far. *)

val owners : state -> int
(** Nodes currently owning data. *)

val problem : state -> Problem.t
(** The problem this run executes — always [Problem.Aggregation] for
    this engine (the termination predicate, initial ownership and
    success criterion are read from it; {!Gossip} is the run-core for
    [Dissemination]). *)

val owns : state -> int -> bool

val holders_snapshot : state -> bool array
(** Fresh copy of the ownership vector. *)

val live_holders : state -> bool array
(** The engine's own ownership vector, no copy — read-only by
    contract (mutating it corrupts the run). For per-step consumers
    (adversary views, observers) that must not allocate. *)

val last_transmission : state -> transmission option
(** Most recent transmission, if any — tracked even under [`Count]
    recording. *)

val transmissions_so_far : state -> transmission list
(** Chronological. Empty under [`Count] recording. *)

val finish : state -> stop_reason -> result
(** Package the current state as a {!result} (e.g. after deciding to
    stop at a step limit). Runs [on_finish] observers. *)

(** {1 Result helpers} *)

val transmissions_of_node : result -> int -> transmission list
(** Transmissions in which the node was sender or receiver. *)

val count_owners : result -> int
(** Number of nodes still owning data at the end. *)

val pp_result : Format.formatter -> result -> unit
