(* Event labels classify what an event *is* so an external scheduler
   (the model checker) can distinguish message deliveries — which a real
   asynchronous network may reorder arbitrarily — from local actions and
   guard timers. See [Pti_mc.Explore] for the consumer. *)
type label =
  | Deliver of { src : string; dst : string; info : string }
  | Act of { owner : string; info : string }
  | Timer of { owner : string; info : string }
  | Internal

type event = {
  at : float;
  seq : int;
  label : label;
  thunk : unit -> unit;
  mutable cancelled : bool;
}

type info = { i_at : float; i_seq : int; i_label : label }

type t = {
  queue : event Pti_util.Pqueue.t;
  mutable clock : float;
  mutable next_seq : int;
}

let cmp a b =
  match Float.compare a.at b.at with 0 -> compare a.seq b.seq | c -> c

let create () =
  { queue = Pti_util.Pqueue.create ~cmp (); clock = 0.; next_seq = 0 }

let now t = t.clock

let push_event t ?(label = Internal) ~at thunk =
  let at = if at < t.clock then t.clock else at in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let e = { at; seq; label; thunk; cancelled = false } in
  Pti_util.Pqueue.push t.queue e;
  e

let schedule_at t ?label ~at thunk = ignore (push_event t ?label ~at thunk)

let schedule t ?label ~delay thunk =
  let delay = if delay < 0. then 0. else delay in
  schedule_at t ?label ~at:(t.clock +. delay) thunk

let schedule_cancellable t ?label ~delay thunk =
  let delay = if delay < 0. then 0. else delay in
  let e = push_event t ?label ~at:(t.clock +. delay) thunk in
  fun () -> e.cancelled <- true

(* Cancelled events are discarded without touching the clock. *)
let rec step t =
  match Pti_util.Pqueue.pop t.queue with
  | None -> false
  | Some e when e.cancelled -> step t
  | Some e ->
      t.clock <- e.at;
      e.thunk ();
      true

let run t = while step t do () done

(* Cancelled heads are discarded on the way, without touching the clock. *)
let rec next_at t =
  match Pti_util.Pqueue.peek t.queue with
  | Some e when e.cancelled ->
      ignore (Pti_util.Pqueue.pop t.queue);
      next_at t
  | Some e -> Some e.at
  | None -> None

let run_until t horizon =
  let rec go () =
    match next_at t with
    | Some at when at <= horizon ->
        ignore (step t);
        go ()
    | Some _ | None -> ()
  in
  go ();
  if t.clock < horizon then t.clock <- horizon

let pending t = Pti_util.Pqueue.length t.queue

let pending_events t =
  Pti_util.Pqueue.to_list_unordered t.queue
  |> List.filter (fun e -> not e.cancelled)
  |> List.sort cmp
  |> List.map (fun e -> { i_at = e.at; i_seq = e.seq; i_label = e.label })

(* Fire a chosen pending event out of heap order. The clock only moves
   forward ([max]) so firing a "late" event before an "early" one models
   the late one being delivered sooner, not time running backwards. *)
let fire t ~seq =
  match
    Pti_util.Pqueue.remove_where t.queue ~f:(fun e ->
        e.seq = seq && not e.cancelled)
  with
  | None -> false
  | Some e ->
      if e.at > t.clock then t.clock <- e.at;
      e.thunk ();
      true

let pp_label ppf = function
  | Deliver { src; dst; info } ->
      Format.fprintf ppf "deliver %s->%s %s" src dst info
  | Act { owner; info } -> Format.fprintf ppf "act[%s] %s" owner info
  | Timer { owner; info } -> Format.fprintf ppf "timer[%s] %s" owner info
  | Internal -> Format.pp_print_string ppf "internal"
