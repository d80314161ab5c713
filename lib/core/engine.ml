module Schedule = Doda_dynamic.Schedule
module Interaction = Doda_dynamic.Interaction

type transmission = Run_log.transmission = {
  time : int;
  sender : int;
  receiver : int;
}

type stop_reason = All_aggregated | Schedule_exhausted | Step_limit

module Holders = struct
  (* Node [v] owns data iff bit [bit] of [planes.(v * stride + word)] is
     set. The scalar engine copies its vector into a plane of its own
     (stride 1, bit 1); the batch engine hands every lane a view of its
     final bit planes. Nothing writes [planes] once a view exists, so a
     set is immutable and can be shared across domains. *)
  type t = {
    planes : int array;
    stride : int;
    word : int;
    bit : int;
    n : int;
    count : int;
  }

  let of_planes planes ~stride ~word ~bit ~n ~count =
    { planes; stride; word; bit; n; count }

  let mem h v =
    if v < 0 || v >= h.n then invalid_arg "Engine.Holders.mem: node out of range";
    h.planes.((v * h.stride) + h.word) land h.bit <> 0

  let count h = h.count
  let to_array h = Array.init h.n (mem h)

  let equal a b =
    a.n = b.n
    &&
    let rec same v = v >= a.n || (mem a v = mem b v && same (v + 1)) in
    same 0
end

type result = {
  stop : stop_reason;
  duration : int option;
  steps : int;
  log : Run_log.t;
  transmission_count : int;
  holders : Holders.t;
}

let transmissions r = Run_log.to_list r.log

type observer = {
  obs_step : (time:int -> Interaction.t -> unit) option;
  obs_transmit : (time:int -> sender:int -> receiver:int -> unit) option;
  obs_finish : (result -> unit) option;
}

let observer ?on_step ?on_transmit ?on_finish () =
  { obs_step = on_step; obs_transmit = on_transmit; obs_finish = on_finish }

type state = {
  algo_name : string;
  source : state -> Interaction.t option;
  instance : Algorithm.instance;
  problem : Problem.t;
  sink : int;  (* [Problem.sink problem], hoisted for the hot path *)
  target : int;
      (* [Problem.target_owners problem]: the owner count at which the
         run has succeeded — also hoisted, the loops test it once per
         interaction. *)
  record_log : bool;
  holds : bool array;
  step_obs : (time:int -> Interaction.t -> unit) array;
  transmit_obs : (time:int -> sender:int -> receiver:int -> unit) array;
  finish_obs : (result -> unit) array;
  has_step_obs : bool;
      (* [Array.length step_obs > 0], precomputed: the run-core tests
         one immutable bool per interaction, so the no-observer hot
         path stays branch-predictable and allocation-free. *)
  log : Run_log.t;
  mutable owner_count : int;
  mutable clock : int;
  mutable tx_count : int;
  mutable last_time : int;
  mutable last_sender : int;
  mutable last_receiver : int;
}

let make_state ~algo_name ~instance ~problem ~record ~observers ~source ~n =
  let step_obs =
    Array.of_list (List.filter_map (fun o -> o.obs_step) observers)
  in
  let holds = Problem.initial_holders problem ~n in
  let owner_count =
    Array.fold_left (fun acc h -> if h then acc + 1 else acc) 0 holds
  in
  {
    algo_name;
    source;
    instance;
    problem;
    sink = Problem.sink problem;
    target = Problem.target_owners problem;
    record_log = (record = `All);
    holds;
    step_obs;
    transmit_obs =
      Array.of_list (List.filter_map (fun o -> o.obs_transmit) observers);
    finish_obs =
      Array.of_list (List.filter_map (fun o -> o.obs_finish) observers);
    has_step_obs = Array.length step_obs > 0;
    (* Transmit-once bounds a run's transmissions by [n - 1], so a
       pre-sized log never reallocates mid-run. [`Count] never writes
       it, so it gets none. *)
    log =
      (if record = `All then Run_log.create ~capacity:n ()
       else Run_log.create ());
    owner_count;
    clock = 0;
    tx_count = 0;
    last_time = -1;
    last_sender = -1;
    last_receiver = -1;
  }

let start ?knowledge ?(record = `All) ?(observers = []) (algo : Algorithm.t)
    schedule =
  let n = Schedule.n schedule in
  let sink = Schedule.sink schedule in
  let knowledge =
    match knowledge with
    | Some k -> k
    | None -> Knowledge.for_schedule schedule algo.requires
  in
  Algorithm.check_knowledge algo.name knowledge algo.requires;
  make_state ~algo_name:algo.name
    ~instance:(algo.make ~n ~sink knowledge)
    ~problem:(Problem.aggregation ~sink) ~record ~observers
    ~source:(fun st -> Schedule.get schedule st.clock)
    ~n

let start_source ?(knowledge = Knowledge.empty) ?record ?observers ~n ~sink
    ~source (algo : Algorithm.t) =
  if n < 1 then invalid_arg "Engine.start_source: need at least one node";
  if sink < 0 || sink >= n then
    invalid_arg "Engine.start_source: sink out of range";
  Algorithm.check_knowledge algo.name knowledge algo.requires;
  make_state ~algo_name:algo.name
    ~instance:(algo.make ~n ~sink knowledge)
    ~problem:(Problem.aggregation ~sink)
    ~record:(Option.value record ~default:`All)
    ~observers:(Option.value observers ~default:[])
    ~source ~n

type step_outcome = Stepped of transmission option | Finished of stop_reason

(* Shared model enforcement: validate the algorithm's decision and
   commit the transmission at time [t]. *)
let commit st ~t ~i receiver =
  if not (Interaction.involves i receiver) then
    invalid_arg
      (Printf.sprintf "Engine.step: %s returned a non-endpoint receiver"
         st.algo_name);
  let sender = Interaction.other i receiver in
  if sender = st.sink then
    invalid_arg
      (Printf.sprintf "Engine.step: %s made the sink transmit" st.algo_name);
  st.holds.(sender) <- false;
  st.owner_count <- st.owner_count - 1;
  st.tx_count <- st.tx_count + 1;
  st.last_time <- t;
  st.last_sender <- sender;
  st.last_receiver <- receiver;
  sender

(* Out of line so [exec_step] stays small: only runs when an observer
   of the matching kind is installed. *)
let notify_step st ~t i =
  let obs = st.step_obs in
  for k = 0 to Array.length obs - 1 do
    (Array.unsafe_get obs k) ~time:t i
  done

let notify_transmit st ~t ~sender ~receiver =
  let obs = st.transmit_obs in
  for k = 0 to Array.length obs - 1 do
    (Array.unsafe_get obs k) ~time:t ~sender ~receiver
  done

(* The run-core: process interaction [i] at time [t]. Every execution —
   schedule-backed [run], adversary-backed [run_state], and the manual
   [step] API — goes through this one function, so model enforcement
   and observation cannot diverge between drivers. [instance] and
   [holds] are [st.instance]/[st.holds], hoisted by callers whose loop
   is hot. *)
let[@inline] exec_step st (instance : Algorithm.instance) holds ~t i =
  instance.observe ~time:t i;
  let a = Interaction.u i and b = Interaction.v i in
  (if holds.(a) && holds.(b) then
     match instance.decide ~time:t i with
     | None -> ()
     | Some receiver ->
         let sender = commit st ~t ~i receiver in
         if st.record_log then Run_log.add st.log ~time:t ~sender ~receiver;
         if Array.length st.transmit_obs > 0 then
           notify_transmit st ~t ~sender ~receiver);
  if st.has_step_obs then notify_step st ~t i;
  st.clock <- t + 1

let step st =
  if st.owner_count <= st.target then Finished All_aggregated
  else
    match st.source st with
    | None -> Finished Schedule_exhausted
    | Some i ->
        let before = st.tx_count in
        exec_step st st.instance st.holds ~t:st.clock i;
        Stepped
          (if st.tx_count > before then
             Some
               {
                 time = st.last_time;
                 sender = st.last_sender;
                 receiver = st.last_receiver;
               }
           else None)

let time st = st.clock
let owners st = st.owner_count
let problem st = st.problem
let owns st v = st.holds.(v)
let holders_snapshot st = Array.copy st.holds
let live_holders st = st.holds

let last_transmission st =
  if st.tx_count = 0 then None
  else
    Some
      {
        time = st.last_time;
        sender = st.last_sender;
        receiver = st.last_receiver;
      }

let transmissions_so_far st = Run_log.to_list st.log

(* The one copy a scalar run pays: an int loop, since [Array.map] into
   a major-heap block stores through [caml_modify] per element. *)
let copy_holders st =
  let n = Array.length st.holds in
  let planes = Array.make n 0 in
  for v = 0 to n - 1 do
    if Array.unsafe_get st.holds v then planes.(v) <- 1
  done;
  Holders.of_planes planes ~stride:1 ~word:0 ~bit:1 ~n ~count:st.owner_count

let finish st stop =
  let result =
    {
      stop;
      duration = (if stop = All_aggregated then Some st.last_time else None);
      steps = st.clock;
      log = st.log;
      transmission_count = st.tx_count;
      holders = copy_holders st;
    }
  in
  let obs = st.finish_obs in
  for k = 0 to Array.length obs - 1 do
    (Array.unsafe_get obs k) result
  done;
  result

let run ?knowledge ?max_steps ?record ?observers (algo : Algorithm.t) schedule =
  let limit =
    match (max_steps, Schedule.length schedule) with
    | Some m, Some len -> Stdlib.min m len
    | Some m, None -> m
    | None, Some len -> len
    | None, None ->
        invalid_arg "Engine.run: max_steps is mandatory for unbounded schedules"
  in
  let st = start ?knowledge ?record ?observers algo schedule in
  (* Hot loop. Equivalent to iterating [step], but without the
     per-interaction [Stepped]/[option] wrappers: [clock < limit]
     guarantees the schedule has an interaction at [clock] (finite
     schedules because [limit <= length]; generators never run out). *)
  let instance = st.instance and holds = st.holds in
  (match Schedule.backing schedule with
  | Some seq ->
      (* Finite or frozen: [limit <= length], so iterate the backing
         flat packed int array directly — no per-step dispatch. *)
      while st.owner_count > st.target && st.clock < limit do
        let t = st.clock in
        exec_step st instance holds ~t (Doda_dynamic.Sequence.unsafe_get seq t)
      done
  | None when Schedule.is_chunked schedule ->
      (* Chunked: drain the hot block with a flat inner loop — the
         only per-step work beyond [exec_step] is one array read — and
         pay the refill once per block via [chunk_view]. *)
      while st.owner_count > st.target && st.clock < limit do
        let block, off, avail = Schedule.chunk_view schedule st.clock in
        let base = st.clock in
        let stop = Int.min limit (base + avail) in
        while st.owner_count > st.target && st.clock < stop do
          let t = st.clock in
          exec_step st instance holds ~t
            (Interaction.of_int_unchecked
               (Array.unsafe_get block (off + t - base)))
        done
      done
  | None ->
      (* Generator: the allocation-free [Schedule.get_exn] materialises
         as it goes. *)
      while st.owner_count > st.target && st.clock < limit do
        let t = st.clock in
        exec_step st instance holds ~t (Schedule.get_exn schedule t)
      done);
  let reason =
    if st.owner_count <= st.target then All_aggregated
    else
      match Schedule.length schedule with
      | Some len when st.clock >= len -> Schedule_exhausted
      | Some _ | None -> Step_limit
  in
  finish st reason

let run_state st ~max_steps =
  let instance = st.instance and holds = st.holds in
  let stop = ref None in
  while !stop = None do
    if st.owner_count <= st.target then stop := Some All_aggregated
    else if st.clock >= max_steps then stop := Some Step_limit
    else
      match st.source st with
      | None -> stop := Some Schedule_exhausted
      | Some i -> exec_step st instance holds ~t:st.clock i
  done;
  finish st (Option.get !stop)

let transmissions_of_node result node =
  List.filter
    (fun tr -> tr.sender = node || tr.receiver = node)
    (transmissions result)

let count_owners result = Holders.count result.holders

let pp_result ppf r =
  let reason =
    match r.stop with
    | All_aggregated -> "aggregated"
    | Schedule_exhausted -> "schedule exhausted"
    | Step_limit -> "step limit"
  in
  Format.fprintf ppf "@[<v>stop: %s@,steps: %d@,transmissions: %d@," reason
    r.steps r.transmission_count;
  (match r.duration with
  | Some d -> Format.fprintf ppf "duration: %d@," d
  | None -> Format.fprintf ppf "duration: -@,");
  Format.fprintf ppf "owners left: %d@]" (count_owners r)
