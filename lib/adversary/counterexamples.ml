module Interaction = Doda_dynamic.Interaction
module Sequence = Doda_dynamic.Sequence
module Engine = Doda_core.Engine

(* Shared machinery: probe a cyclic pattern until the algorithm commits
   a transmission between two non-sink nodes (or, for theorem 1, a
   specific delivery), then lock into a punishing loop chosen by a case
   table. [trap] maps (sender, receiver) to the loop, or None to keep
   probing (e.g. plain deliveries to the sink). *)
type state = Probing | Looping of Interaction.t array

let reactive ~name ~probe ~trap =
  let state = ref Probing in
  let position = ref 0 in
  let seen_time = ref (-1) in  (* time of the last transmission reacted to *)
  let next (view : Adversary.view) =
    (match (!state, view.last_transmission) with
    | Probing, Some { Engine.time; sender; receiver }
      when time > !seen_time -> begin
        seen_time := time;
        match trap ~sender ~receiver with
        | Some cycle ->
            state := Looping cycle;
            position := 0
        | None -> ()
      end
    | _ -> ());
    let cycle = match !state with Probing -> probe | Looping c -> c in
    let i = cycle.(!position mod Array.length cycle) in
    incr position;
    Some i
  in
  { Adversary.name; next }

let theorem1_nodes = 3

let theorem1 () =
  let s = 0 and a = 1 and b = 2 in
  let ab = Interaction.make a b and bs = Interaction.make b s in
  let a_s = Interaction.make a s in
  let probe = [| ab; bs |] in
  let trap ~sender ~receiver =
    if sender = a && receiver = b then Some [| a_s; ab |]
    else if sender = b && receiver = a then Some [| bs; ab |]
    else if sender = b && receiver = s then Some [| ab; bs |]
    else None
  in
  reactive ~name:"theorem1-adaptive" ~probe ~trap

let theorem3_nodes = 4

let theorem3_graph () =
  Doda_graph.Static_graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0) ]

let theorem3 () =
  let s = 0 and u1 = 1 and u2 = 2 and u3 = 3 in
  let e a b = Interaction.make a b in
  let probe = [| e u1 s; e u3 s; e u2 u1; e u2 u3 |] in
  let trap ~sender ~receiver =
    (* Case table from the proof, completed for every direction the
       algorithm can choose; each loop keeps the trapped receiver away
       from the sink while one optimal convergecast per period stays
       possible. Deliveries to the sink keep the probe going. *)
    if sender = u2 && receiver = u1 then Some [| e u1 u2; e u2 u3; e u3 s |]
    else if sender = u1 && receiver = u2 then Some [| e u2 u3; e u2 u1; e u1 s |]
    else if sender = u2 && receiver = u3 then Some [| e u3 u2; e u2 u1; e u1 s |]
    else if sender = u3 && receiver = u2 then Some [| e u2 u1; e u2 u3; e u3 s |]
    else None
  in
  reactive ~name:"theorem3-adaptive" ~probe ~trap

type theorem2_parameters = {
  l0 : int;
  d : int;
  survival : float;
  transmit_rate : float;
}

let meeting_prefix ~n l =
  Doda_dynamic.Sequence.of_list
    (List.init l (fun i -> Interaction.make (1 + (i mod (n - 1))) 0))

let theorem2_search ?(trials = 100) ?(max_l = 0) ~n (algo : Doda_core.Algorithm.t) =
  if n < 4 then invalid_arg "Counterexamples.theorem2_search: need n >= 4";
  let max_l = if max_l <= 0 then 8 * n else max_l in
  (* One Monte-Carlo pass per prefix length: fraction of runs with no
     transmission at all, and per-node survival frequencies. *)
  let estimate l =
    let seq = meeting_prefix ~n l in
    let sched () = Doda_dynamic.Schedule.of_sequence ~n ~sink:0 seq in
    let silent = ref 0 in
    let survived = Array.make n 0 in
    for _ = 1 to trials do
      let r = Doda_core.Engine.run algo (sched ()) in
      if r.Doda_core.Engine.transmission_count = 0 then incr silent;
      let holders = r.Doda_core.Engine.holders in
      for v = 0 to n - 1 do
        if Doda_core.Engine.Holders.mem holders v then
          survived.(v) <- survived.(v) + 1
      done
    done;
    let p_silent = float_of_int !silent /. float_of_int trials in
    let survival v = float_of_int survived.(v) /. float_of_int trials in
    (p_silent, survival)
  in
  let threshold = 1.0 /. float_of_int n in
  let rec search l =
    if l > max_l then None
    else begin
      let p_silent, survival = estimate l in
      if p_silent < threshold then begin
        (* Pick the most-likely survivor among the valid gadget
           positions d in [1, n-2] (node u_d has id d + 1). *)
        let best = ref 1 in
        for d = 2 to n - 2 do
          if survival (d + 1) > survival (!best + 1) then best := d
        done;
        Some
          {
            l0 = l;
            d = !best;
            survival = survival (!best + 1);
            transmit_rate = 1.0 -. p_silent;
          }
      end
      else search (l + 1)
    end
  in
  search 1

let theorem2_sequence ~n ~l0 ~d ~periods =
  if n < 3 then invalid_arg "Counterexamples.theorem2_sequence: need n >= 3";
  if l0 < 0 then invalid_arg "Counterexamples.theorem2_sequence: negative l0";
  if d < 1 || d > n - 2 then
    invalid_arg "Counterexamples.theorem2_sequence: d out of [1, n-2]";
  if periods < 0 then invalid_arg "Counterexamples.theorem2_sequence: negative periods";
  let s = 0 in
  let u i = 1 + (i mod (n - 1)) in
  let prefix = List.init l0 (fun i -> Interaction.make (u i) s) in
  let gadget =
    List.init (n - 1) (fun i ->
        if i = d - 1 then Interaction.make (u (d - 1)) s
        else Interaction.make (u i) (u (i + 1)))
  in
  let rec repeat k acc = if k = 0 then acc else repeat (k - 1) (acc @ gadget) in
  Sequence.of_list (prefix @ repeat periods [])
