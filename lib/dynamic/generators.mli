(** Interaction-sequence generators: the executable side of the
    adversary models, plus structured sequences used by tests and
    experiments.

    Generator functions have type [int -> Interaction.t] (time to
    interaction) and plug into {!Schedule.of_fun}; finite variants
    return a {!Sequence.t}. *)

val uniform : Doda_prng.Prng.t -> n:int -> int -> Interaction.t
(** [uniform rng ~n] draws each interaction uniformly among the
    [n(n-1)/2] pairs — the paper's randomized adversary. The time
    argument is ignored (draws are i.i.d.). *)

val uniform_fill :
  Doda_prng.Prng.t -> n:int -> int array -> base:int -> len:int -> unit
(** [uniform_fill rng ~n] is the block form of {!uniform} for
    {!Schedule.of_fill_chunked}: [uniform_fill rng ~n buf ~base ~len]
    writes the packed interactions of times [base .. base+len-1] to
    [buf.(0) .. buf.(len-1)]. The draws are those [len] calls of
    [uniform rng ~n] would make, in the same order, but come from one
    {!Doda_prng.Prng.fill_pairs} loop with no per-index call and no
    allocation. *)

val uniform_sequence : Doda_prng.Prng.t -> n:int -> length:int -> Sequence.t

val weighted_nodes : Doda_prng.Prng.t -> weights:float array -> int -> Interaction.t
(** [weighted_nodes rng ~weights] draws a pair by sampling two distinct
    endpoints proportionally to per-node weights — the non-uniform
    randomized adversary raised as open question 3 of the paper.
    @raise Invalid_argument on fewer than two positive weights. *)

val over_graph : Doda_prng.Prng.t -> Doda_graph.Static_graph.t -> int -> Interaction.t
(** Draws uniformly among the edges of a fixed graph; the underlying
    graph of the resulting schedule is (almost surely) that graph.
    @raise Invalid_argument on a graph with no edges. *)

val round_robin : n:int -> int -> Interaction.t
(** [round_robin ~n t] cycles deterministically through all pairs in
    lexicographic order: every pair occurs infinitely often — the
    recurrence assumption of Theorem 4. *)

val periodic : Sequence.t -> int -> Interaction.t
(** [periodic s t] is [s] repeated forever.
    @raise Invalid_argument on an empty sequence. *)

val of_snapshots : Doda_graph.Static_graph.t list -> Sequence.t
(** Flattens an evolving graph (sequence of static snapshots) into an
    interaction sequence: each snapshot contributes its edges in
    lexicographic order, one interaction per time unit. *)

val all_pairs : n:int -> Sequence.t
(** One period of {!round_robin}: each pair exactly once. *)

val markov_edges :
  ?on_active:(int -> unit) ->
  Doda_prng.Prng.t -> n:int -> p_on:float -> p_off:float -> int -> Interaction.t
(** [markov_edges rng ~n ~p_on ~p_off] drives every pair by an
    independent two-state Markov chain (absent edges appear with
    probability [p_on] per time unit, present ones disappear with
    [p_off]) and draws each interaction uniformly among the currently
    present edges (advancing the chain until at least one edge is
    present). Models link stability/burstiness that i.i.d. uniform
    sampling cannot.

    Event-driven: each pair samples its geometric sojourn once per
    state change and waits on a timing wheel ({!Gen_kernel.Wheel}), so
    a step costs O(present + toggles) expected rather than O(n^2) —
    the chain {e law} is identical to the dense per-step Bernoulli
    sweep ({!markov_edges_dense} keeps that reference; the test suite
    checks distributional equivalence by KS), but the PRNG draw stream
    differs from it.

    [?on_active] is called once per draw with the number of currently
    present edges, after advancing and before the uniform pick — a
    test/instrumentation hook.
    @raise Invalid_argument unless both probabilities lie in (0, 1]. *)

val markov_edges_dense :
  ?on_active:(int -> unit) ->
  Doda_prng.Prng.t -> n:int -> p_on:float -> p_off:float -> int -> Interaction.t
(** The dense reference implementation of {!markov_edges}: one
    Bernoulli per pair per step, O(n^2). Same distribution as the
    event-driven version (not the same draw stream); kept as the
    oracle for the distributional-equivalence tests and the generator
    micro-benchmarks. *)

val stitch : (int * (int -> Interaction.t)) list -> int -> Interaction.t
(** [stitch [(len1, g1); (len2, g2); ...]] plays [g1] for [len1] steps
    (times 0..len1-1 passed to [g1] as 0-based), then [g2], ...; the
    last generator runs forever regardless of its length.
    @raise Invalid_argument on an empty list. *)
