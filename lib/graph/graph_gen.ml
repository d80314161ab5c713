module Prng = Doda_prng.Prng

let erdos_renyi rng ~n ~p =
  let g = Static_graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli rng p then Static_graph.add_edge g u v
    done
  done;
  g

(* Decode a uniformly random Prüfer sequence in linear time. Each step
   joins the smallest current leaf to the next code entry. [ptr] scans
   upward for leaves; a node that turns into a leaf below [ptr] is the
   smallest leaf at that moment and is taken at once, so the scan never
   moves back. *)
let random_tree_edges rng ~n f =
  if n <= 0 then invalid_arg "Graph_gen.random_tree_edges: n must be positive";
  if n = 2 then f 0 1
  else if n > 2 then begin
    let prufer = Array.init (n - 2) (fun _ -> Prng.int rng n) in
    let degree = Array.make n 1 in
    Array.iter (fun x -> degree.(x) <- degree.(x) + 1) prufer;
    let ptr = ref 0 in
    while degree.(!ptr) <> 1 do
      incr ptr
    done;
    let leaf = ref !ptr in
    Array.iter
      (fun v ->
        f !leaf v;
        degree.(v) <- degree.(v) - 1;
        if degree.(v) = 1 && v < !ptr then leaf := v
        else begin
          incr ptr;
          while degree.(!ptr) <> 1 do
            incr ptr
          done;
          leaf := !ptr
        end)
      prufer;
    f !leaf (n - 1)
  end

let random_tree rng ~n =
  if n <= 0 then invalid_arg "Graph_gen.random_tree: n must be positive";
  let g = Static_graph.create n in
  random_tree_edges rng ~n (Static_graph.add_edge g);
  g

let random_connected rng ~n ~extra_edges =
  let g = random_tree rng ~n in
  let max_edges = n * (n - 1) / 2 in
  let budget = Stdlib.min extra_edges (max_edges - Static_graph.edge_count g) in
  let added = ref 0 in
  while !added < budget do
    let u, v = Prng.pair rng n in
    if not (Static_graph.has_edge g u v) then begin
      Static_graph.add_edge g u v;
      incr added
    end
  done;
  g

let gnm rng ~n ~m =
  let max_edges = n * (n - 1) / 2 in
  if m > max_edges then invalid_arg "Graph_gen.gnm: too many edges requested";
  let g = Static_graph.create n in
  while Static_graph.edge_count g < m do
    let u, v = Prng.pair rng n in
    Static_graph.add_edge g u v
  done;
  g

let random_geometric rng ~n ~radius =
  let positions = Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0)) in
  let g = Static_graph.create n in
  let r2 = radius *. radius in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let xu, yu = positions.(u) and xv, yv = positions.(v) in
      let dx = xu -. xv and dy = yu -. yv in
      if (dx *. dx) +. (dy *. dy) <= r2 then Static_graph.add_edge g u v
    done
  done;
  (g, positions)
