(** Random graph generators, for building underlying topologies that
    interaction sequences are then drawn from. *)

val erdos_renyi : Doda_prng.Prng.t -> n:int -> p:float -> Static_graph.t
(** [erdos_renyi rng ~n ~p] includes each of the [n(n-1)/2] edges
    independently with probability [p]. *)

val random_tree : Doda_prng.Prng.t -> n:int -> Static_graph.t
(** [random_tree rng ~n] is a uniform random labelled tree, generated
    from a random Prüfer sequence ([n >= 1]).
    @raise Invalid_argument if [n <= 0]. *)

val random_tree_edges : Doda_prng.Prng.t -> n:int -> (int -> int -> unit) -> unit
(** [random_tree_edges rng ~n f] makes the draws of {!random_tree} and
    calls [f leaf v] once per tree edge, in Prüfer decode order, instead
    of building a graph. Linear time.
    @raise Invalid_argument if [n <= 0]. *)

val random_connected : Doda_prng.Prng.t -> n:int -> extra_edges:int -> Static_graph.t
(** [random_connected rng ~n ~extra_edges] is a random tree plus
    [extra_edges] additional distinct random edges (clipped to the
    number of available non-tree slots). *)

val gnm : Doda_prng.Prng.t -> n:int -> m:int -> Static_graph.t
(** [gnm rng ~n ~m] draws [m] distinct edges uniformly.
    @raise Invalid_argument if [m] exceeds [n(n-1)/2]. *)

val random_geometric :
  Doda_prng.Prng.t -> n:int -> radius:float -> Static_graph.t * (float * float) array
(** [random_geometric rng ~n ~radius] scatters [n] points uniformly in
    the unit square and connects points within [radius]; also returns
    the positions (reused by the mobility generators). *)
