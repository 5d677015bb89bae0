(* A wall clock is a private simulator whose queue holds the timers:
   the poll loop fires whatever the wall clock has made due. *)
type wall = {
  queue : Sim.t;
  source : unit -> float;
  mutable last : float;  (* clamp: readings never go backwards *)
}

type t = Sim_clock of Sim.t | Wall of wall

let of_sim sim = Sim_clock sim

let monotonic ~now () =
  (* Private epoch: readings are relative to creation, so only
     differences are meaningful and a huge absolute wall time never
     leaks into timeouts. *)
  let epoch = now () in
  let source () = now () -. epoch in
  Wall { queue = Sim.create (); source; last = 0. }

let is_sim = function Sim_clock _ -> true | Wall _ -> false
let sim = function Sim_clock s -> Some s | Wall _ -> None

let wall_ms w =
  let v = w.source () in
  if v > w.last then w.last <- v;
  w.last

let now_ms = function Sim_clock s -> Sim.now s | Wall w -> wall_ms w

(* The queue's clock only moves when a timer fires, so it trails the
   wall clock between ticks: express the delay against it. *)
let queue_delay w delay_ms =
  wall_ms w +. Float.max 0. delay_ms -. Sim.now w.queue

let schedule t ~label ~delay_ms f =
  match t with
  | Sim_clock s -> Sim.schedule s ~label ~delay:delay_ms f
  | Wall w -> Sim.schedule w.queue ~label ~delay:(queue_delay w delay_ms) f

let schedule_cancellable t ~label ~delay_ms f =
  match t with
  | Sim_clock s -> Sim.schedule_cancellable s ~label ~delay:delay_ms f
  | Wall w ->
      Sim.schedule_cancellable w.queue ~label ~delay:(queue_delay w delay_ms) f

(* Re-reads the clock every iteration so a slow thunk that makes the
   next timer due fires it in the same tick. *)
let tick = function
  | Sim_clock _ -> 0
  | Wall w ->
      let rec go fired =
        match Sim.next_at w.queue with
        | Some at when at <= wall_ms w ->
            ignore (Sim.step w.queue);
            go (fired + 1)
        | Some _ | None -> fired
      in
      go 0

let next_due_ms = function
  | Sim_clock _ -> None
  | Wall w ->
      Option.map
        (fun at -> Float.max 0. (at -. wall_ms w))
        (Sim.next_at w.queue)

let pending = function
  | Sim_clock _ -> 0
  | Wall w -> List.length (Sim.pending_events w.queue)
