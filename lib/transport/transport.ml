module Net = Pti_net.Net
module Sim = Pti_net.Sim
module Faults = Pti_net.Faults
module Clock = Pti_net.Clock

type address = string
type kind = Sim | Unix_socket | Tcp

let kind_name = function Sim -> "sim" | Unix_socket -> "unix" | Tcp -> "tcp"

let kind_of_string = function
  | "sim" -> Some Sim
  | "unix" | "unix-socket" | "uds" -> Some Unix_socket
  | "tcp" -> Some Tcp
  | _ -> None

type 'a codec = 'a Stream.codec = {
  c_encode : 'a -> string;
  c_decode : string -> ('a, string) result;
}

type conn_event = Stream.conn_event =
  | Connected of { local : address; peer : address }
  | Disconnected of { local : address; peer : address }

(* The sim fabric is the Net plus a Clock wrapper over its simulator —
   no state of its own, so [of_net] twice on one net is harmless. *)
type 'a sim_fabric = { net : 'a Net.t; sclock : Clock.t }

type 'a t = Sim_f of 'a sim_fabric | Stream_f of 'a Stream.t

type 'a endpoint =
  | Sim_ep of { sf : 'a sim_fabric; addr : address }
  | Stream_ep of 'a Stream.endpoint

let of_net net = Sim_f { net; sclock = Clock.of_sim (Net.sim net) }

let create_unix ?dir ?reliability ?metrics ~codec () =
  let s =
    Stream.create ~family:Stream.Unix_socket ?policy:reliability
      ?unix_dir:dir ?metrics ()
  in
  Stream.set_codec s codec;
  Stream_f s

let create_tcp ?host ?reliability ?metrics ~codec () =
  let s =
    Stream.create ~family:Stream.Tcp ?policy:reliability ?tcp_host:host
      ?metrics ()
  in
  Stream.set_codec s codec;
  Stream_f s

let clock = function Sim_f sf -> sf.sclock | Stream_f s -> Stream.clock s
let now_ms t = Clock.now_ms (clock t)
let stats = function Sim_f sf -> Net.stats sf.net | Stream_f s -> Stream.stats s
let sim_net = function Sim_f sf -> Some sf.net | Stream_f _ -> None

let add_endpoint t addr ~handler =
  match t with
  | Sim_f sf ->
      Net.add_host sf.net addr ~handler:(fun ~net:_ ~src msg -> handler ~src msg);
      Sim_ep { sf; addr }
  | Stream_f s -> Stream_ep (Stream.add_endpoint s addr ~handler)

let register_remote t addr spec =
  match t with
  | Sim_f _ -> ()
  | Stream_f s -> Stream.register_remote s addr spec

let set_bind t addr spec =
  match t with Sim_f _ -> () | Stream_f s -> Stream.set_bind s addr spec

let set_bind_fd t addr fd =
  match t with Sim_f _ -> () | Stream_f s -> Stream.set_bind_fd s addr fd

let listen_spec t addr =
  match t with Sim_f _ -> None | Stream_f s -> Stream.listen_spec s addr

let send ep ?info ~dst ~category ~size payload =
  match ep with
  | Sim_ep { sf; addr } ->
      Net.send sf.net ?info ~src:addr ~dst ~category ~size payload
  | Stream_ep e ->
      Stream.send e.Stream.ep_owner e ?info ~dst ~category ~size payload

let on_conn_event t f =
  match t with Sim_f _ -> () | Stream_f s -> Stream.on_conn_event s f

let timer t ~owner ~info ~delay_ms f =
  Clock.schedule (clock t) ~label:(Sim.Timer { owner; info }) ~delay_ms f

let timer_cancellable t ~owner ~info ~delay_ms f =
  Clock.schedule_cancellable (clock t) ~label:(Sim.Timer { owner; info })
    ~delay_ms f

let act t ~owner ~info ~delay_ms f =
  Clock.schedule (clock t) ~label:(Sim.Act { owner; info }) ~delay_ms f

let poll t ~timeout_ms =
  match t with
  | Sim_f sf ->
      ignore timeout_ms;
      Sim.step (Net.sim sf.net)
  | Stream_f s -> Stream.poll s ~timeout_ms

let run = function Sim_f sf -> Net.run sf.net | Stream_f s -> Stream.run s

let drive_until t ?deadline_ms pred =
  match t with
  | Sim_f sf ->
      let sim = Net.sim sf.net in
      let before_deadline () =
        match deadline_ms with None -> true | Some d -> Sim.now sim < d
      in
      let rec go () =
        if pred () then true
        else if not (before_deadline ()) then pred ()
        else if Sim.step sim then go ()
        else pred ()
      in
      go ()
  | Stream_f s -> Stream.drive_until s ?deadline_ms pred

let faults = function
  | Sim_f sf -> Net.faults sf.net
  | Stream_f s -> Stream.faults s

let set_fault_hooks t f = Faults.set_hooks (faults t) f
let set_integrity t f = Faults.set_integrity (faults t) f
let partition t a b = Faults.partition (faults t) a b
let heal t a b = Faults.heal (faults t) a b
let dropped_messages t = (faults t).dropped
let injected_drops t = (faults t).injected_drops
let corrupted_frames t = (faults t).corrupted_frames
let integrity_drops t = (faults t).integrity_drops

let lost_messages = function
  | Sim_f sf -> Net.lost_messages sf.net
  | Stream_f s -> Stream.lost s

let retransmissions = function
  | Sim_f sf -> Net.retransmissions sf.net
  | Stream_f s -> Stream.reconnects s

let received_bytes t c =
  match t with Sim_f _ -> 0 | Stream_f s -> Stream.received_bytes s c

let total_received_bytes = function
  | Sim_f _ -> 0
  | Stream_f s -> Stream.total_received_bytes s

let close = function Sim_f _ -> () | Stream_f s -> Stream.close s
