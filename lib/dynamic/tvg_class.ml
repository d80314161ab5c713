module Prng = Doda_prng.Prng
module Static_graph = Doda_graph.Static_graph
module Traversal = Doda_graph.Traversal
module Graph_gen = Doda_graph.Graph_gen

type t =
  | Temporal
  | T_interval of int
  | Recurrent
  | Bounded_recurrent of int

let to_string = function
  | Temporal -> "temporal"
  | T_interval w -> Printf.sprintf "t-interval:%d" w
  | Recurrent -> "recurrent"
  | Bounded_recurrent b -> Printf.sprintf "bounded-recurrent:%d" b

let syntax = "temporal | t-interval:W | recurrent | bounded-recurrent:B"

let parse s =
  let positive name v =
    match int_of_string_opt v with
    | Some x when x >= 1 -> Ok x
    | Some _ -> Error (Printf.sprintf "%s must be >= 1, got %s" name v)
    | None -> Error (Printf.sprintf "%s is not an integer in %S" name s)
  in
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "temporal" -> Ok Temporal
      | "recurrent" -> Ok Recurrent
      | _ -> Error (Printf.sprintf "unknown TVG class %S (expected %s)" s syntax)
      )
  | Some i -> (
      let head = String.sub s 0 i
      and arg = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "t-interval" -> Result.map (fun w -> T_interval w) (positive "window" arg)
      | "bounded-recurrent" ->
          Result.map (fun b -> Bounded_recurrent b) (positive "bound" arg)
      | _ -> Error (Printf.sprintf "unknown TVG class %S (expected %s)" s syntax)
      )

type witness =
  | Unreachable of { src : int; dst : int }
  | Disconnected_window of { start : int; len : int }
  | Vanished_edge of { u : int; v : int; last_seen : int }
  | Edge_gap of { u : int; v : int; gap_start : int; gap_end : int }

let pp_witness ppf w =
  let p fmt = Format.fprintf ppf fmt in
  match w with
  | Unreachable { src; dst } -> p "no journey from node %d to node %d" src dst
  | Disconnected_window { start; len } ->
      p "interactions [%d, %d) have a disconnected union graph" start
        (start + len)
  | Vanished_edge { u; v; last_seen } ->
      p "edge (%d, %d) last appears at time %d, before the closing half" u v
        last_seen
  | Edge_gap { u; v; gap_start; gap_end } ->
      p "edge (%d, %d) absent for the %d steps of (%d, %d)" u v
        (gap_end - gap_start - 1) gap_start gap_end

exception Witness of witness

(* ------------------------------------------------------------------ *)
(* Validators. The three interval/recurrence classes share one strictly
   forward core over [(get, length)], so frozen sequences and chunked
   streams go through identical code; [Temporal] needs one flood per
   source and therefore a {!Sequence.t}. *)

(* Union-find with path halving, reset per window. *)
let uf_find parent i =
  let i = ref i in
  while parent.(!i) <> !i do
    parent.(!i) <- parent.(parent.(!i));
    i := parent.(!i)
  done;
  !i

let t_interval ~n ~length ~window get =
  let parent = Array.make n 0 in
  let blocks = length / window in
  try
    for b = 0 to blocks - 1 do
      for v = 0 to n - 1 do
        parent.(v) <- v
      done;
      let comps = ref n in
      let start = b * window in
      for t = start to start + window - 1 do
        let i = get t in
        let ru = uf_find parent (Interaction.u i)
        and rv = uf_find parent (Interaction.v i) in
        if ru <> rv then begin
          parent.(ru) <- rv;
          decr comps
        end
      done;
      if !comps > 1 then raise (Witness (Disconnected_window { start; len = window }))
    done;
    Ok ()
  with Witness w -> Error w

(* One shared footprint scan: last occurrence per packed edge, plus
   first-appearance order so edge witnesses are deterministic. *)
let scan_edges ~length get ~on_occurrence =
  let last = Hashtbl.create 64 in
  let order = ref [] in
  for t = 0 to length - 1 do
    let key = Interaction.to_int (get t) in
    let prev =
      match Hashtbl.find_opt last key with
      | Some o -> o
      | None ->
          order := key :: !order;
          -1
    in
    on_occurrence ~key ~prev ~time:t;
    Hashtbl.replace last key t
  done;
  (last, List.rev !order)

let decode_edge key =
  let i = Interaction.of_int_unchecked key in
  (Interaction.u i, Interaction.v i)

let recurrent ~length get =
  let half = (length + 1) / 2 in
  let last, order =
    scan_edges ~length get ~on_occurrence:(fun ~key:_ ~prev:_ ~time:_ -> ())
  in
  try
    List.iter
      (fun key ->
        let last_seen = Hashtbl.find last key in
        if last_seen < half then begin
          let u, v = decode_edge key in
          raise (Witness (Vanished_edge { u; v; last_seen }))
        end)
      order;
    Ok ()
  with Witness w -> Error w

let bounded_recurrent ~length ~bound get =
  try
    let last, order =
      scan_edges ~length get ~on_occurrence:(fun ~key ~prev ~time ->
          if time - prev > bound then begin
            let u, v = decode_edge key in
            raise (Witness (Edge_gap { u; v; gap_start = prev; gap_end = time }))
          end)
    in
    List.iter
      (fun key ->
        let o = Hashtbl.find last key in
        if length - o > bound then begin
          let u, v = decode_edge key in
          raise (Witness (Edge_gap { u; v; gap_start = o; gap_end = length }))
        end)
      order;
    Ok ()
  with Witness w -> Error w

let temporal ~n s =
  try
    for src = 0 to n - 1 do
      let arrival = Temporal.earliest_arrival ~n ~src s in
      for dst = 0 to n - 1 do
        if arrival.(dst) = None then raise (Witness (Unreachable { src; dst }))
      done
    done;
    Ok ()
  with Witness w -> Error w

let check_param cls =
  match cls with
  | T_interval w when w < 1 ->
      invalid_arg "Tvg_class: T_interval window must be >= 1"
  | Bounded_recurrent b when b < 1 ->
      invalid_arg "Tvg_class: Bounded_recurrent bound must be >= 1"
  | _ -> ()

let validate_stream ~n ~length cls get =
  check_param cls;
  match cls with
  | Temporal ->
      invalid_arg
        "Tvg_class.validate_stream: Temporal needs random access (one flood \
         per source); freeze a prefix and use Tvg_class.validate"
  | T_interval window -> t_interval ~n ~length ~window get
  | Recurrent -> recurrent ~length get
  | Bounded_recurrent bound -> bounded_recurrent ~length ~bound get

let validate ~n cls s =
  check_param cls;
  match cls with
  | Temporal -> temporal ~n s
  | _ ->
      validate_stream ~n ~length:(Sequence.length s) cls (fun t ->
          Sequence.unsafe_get s t)

(* ------------------------------------------------------------------ *)
(* Classification summary. *)

type summary = {
  nodes : int;
  length : int;
  footprint_edges : int;
  footprint_connected : bool;
  temporal : (unit, witness) result;
  recurrent : (unit, witness) result;
  min_window : int option;
  min_bound : int option;
}

let summarize ~n s =
  let length = Sequence.length s in
  let get t = Sequence.unsafe_get s t in
  let footprint = Underlying.of_sequence ~n s in
  let min_window =
    let rec go w =
      if w > length then None
      else if t_interval ~n ~length ~window:w get = Ok () then Some w
      else go (2 * w)
    in
    go 1
  in
  let min_bound =
    (* The smallest valid bound is the largest gap between consecutive
       occurrences of any footprint edge, with sentinels at -1 and
       [length] — no search needed. *)
    if length = 0 then None
    else begin
      let max_gap = ref 0 in
      let last, _ =
        scan_edges ~length get ~on_occurrence:(fun ~key:_ ~prev ~time ->
            if time - prev > !max_gap then max_gap := time - prev)
      in
      Hashtbl.iter
        (fun _ o -> if length - o > !max_gap then max_gap := length - o)
        last;
      Some !max_gap
    end
  in
  {
    nodes = n;
    length;
    footprint_edges = Static_graph.edge_count footprint;
    footprint_connected = Traversal.connected footprint;
    temporal = temporal ~n s;
    recurrent = recurrent ~length get;
    min_window;
    min_bound;
  }

(* ------------------------------------------------------------------ *)
(* Class-constrained generators. Both are window generators:
   interaction [t] lives in tumbling window [t / window]; a window's
   contents are drawn the first time any of its indices is needed, so
   identical seeds replay identical schedules as long as times arrive
   in non-decreasing order (the schedule layer's contract). The block
   fill is the primary form; the per-index generators read it one
   entry at a time. *)

(* [window_fill ~what ~window draw] serves a block fill over windows
   that [draw] writes into one recycled array. Copies are explicit int
   loops: [Array.blit] into a major-heap array (every chunk buffer)
   goes through [caml_modify] per element, two to three times the cost
   of a plain store. *)
let window_fill ~what ~window draw =
  let win = Array.make window 0 in
  (* Base of the next window to draw; the drawn window is
     [next_base - window .. next_base - 1]. *)
  let next_base = ref 0 in
  fun (buf : int array) ~base ~len ->
    if base < !next_base - window then
      invalid_arg
        (what
       ^ ": draws must be requested in non-decreasing time order (the block \
          for an earlier time was already discarded)");
    let pos = ref 0 in
    while !pos < len do
      let t = base + !pos in
      while t >= !next_base do
        draw win;
        next_base := !next_base + window
      done;
      let off = t - (!next_base - window) in
      let k = Int.min (window - off) (len - !pos) in
      let p = !pos - off in
      for i = off to off + k - 1 do
        Array.unsafe_set buf (p + i) (Array.unsafe_get win i)
      done;
      pos := !pos + k
    done

let per_index fill =
  let one = [| 0 |] in
  fun t ->
    fill one ~base:t ~len:1;
    Interaction.of_int_unchecked one.(0)

let copy_into (dst : int array) (src : int array) =
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done

(* Sort packed interactions over nodes [0, n) in linear time: a stable
   counting sort by [v], then by [u]. [Array.sort] takes about 40 ms on
   the 10^5 edges of an n = 10^5 tree; this takes a few. *)
let sort_packed ~n (a : int array) =
  let m = Array.length a in
  let tmp = Array.make m 0 and start = Array.make (n + 1) 0 in
  let pass key (src : int array) (dst : int array) =
    Array.fill start 0 (n + 1) 0;
    Array.iter
      (fun p ->
        let k = key p + 1 in
        start.(k) <- start.(k) + 1)
      src;
    for i = 1 to n do
      start.(i) <- start.(i) + start.(i - 1)
    done;
    Array.iter
      (fun p ->
        let k = key p in
        dst.(start.(k)) <- p;
        start.(k) <- start.(k) + 1)
      src
  in
  pass (fun p -> p land Interaction.max_node_id) a tmp;
  pass (fun p -> p lsr 31) tmp a

(* The edges of a uniform random tree, packed and sorted: the order of
   [Static_graph.edges], which the draw stream depends on. *)
let tree_edge_ints rng ~n =
  let edges = Array.make (n - 1) 0 and k = ref 0 in
  Graph_gen.random_tree_edges rng ~n (fun u v ->
      edges.(!k) <- Interaction.to_int (Interaction.make u v);
      incr k);
  sort_packed ~n edges;
  edges

let t_interval_window ~what rng ~n ~window =
  if n < 2 then invalid_arg (what ^ ": need n >= 2");
  if window = 1 then
    (* 1-interval (per-step connectivity): emit back-to-back fresh
       spanning trees with no fillers — the tightest refresh the
       pairwise-interaction model supports. A single interaction only
       connects n = 2, so for larger n the schedule realizes
       T-interval (n - 1): every tumbling (n - 1)-window is exactly
       one spanning tree (the validator round-trips at that width). *)
    window_fill ~what ~window:(n - 1) (fun win ->
        copy_into win (tree_edge_ints rng ~n);
        Prng.shuffle rng win)
  else if window < n - 1 then
    invalid_arg
      (what
     ^ ": window must be 1 (per-step connectivity, realized as \
        back-to-back spanning trees) or >= n - 1 (a window must fit a \
        spanning tree)")
  else
    window_fill ~what ~window (fun win ->
        (* Fresh spanning tree per window, buried among uniform
           fillers. *)
        let edges = tree_edge_ints rng ~n in
        let m = Array.length edges in
        copy_into win edges;
        Prng.fill_pairs rng ~n win ~pos:m ~len:(window - m);
        Prng.shuffle rng win)

let bounded_recurrent_window ~what rng ~n ~bound =
  if n < 2 then invalid_arg (what ^ ": need n >= 2");
  if bound < 2 * (n - 1) then
    invalid_arg
      (what
     ^ ": bound must be >= 2 * (n - 1) (a half-window must fit the whole \
        footprint)");
  (* One fixed footprint tree; every tumbling half-window contains all
     its edges, so every sliding [bound]-window — which always covers a
     full half-window — does too. *)
  let edges = tree_edge_ints rng ~n in
  let m = Array.length edges in
  window_fill ~what ~window:(bound / 2) (fun win ->
      copy_into win edges;
      for idx = m to Array.length win - 1 do
        win.(idx) <- edges.(Prng.int rng m)
      done;
      Prng.shuffle rng win)

let t_interval_fill rng ~n ~window =
  t_interval_window ~what:"Tvg_class.t_interval_fill" rng ~n ~window

let bounded_recurrent_fill rng ~n ~bound =
  bounded_recurrent_window ~what:"Tvg_class.bounded_recurrent_fill" rng ~n
    ~bound

let gen_t_interval rng ~n ~window =
  per_index (t_interval_window ~what:"Tvg_class.gen_t_interval" rng ~n ~window)

let gen_bounded_recurrent rng ~n ~bound =
  per_index
    (bounded_recurrent_window ~what:"Tvg_class.gen_bounded_recurrent" rng ~n
       ~bound)
