module Splitmix = Pti_util.Splitmix

type address = string

(* The knobs live in [Arq] so the socket transports can reuse the same
   policy record (reconnect backoff mirrors the retry schedule). *)
type reliability = Arq.policy = {
  retransmit_ms : float;
  max_retries : int;
  ack_bytes : int;
}

let default_reliability = Arq.default

type 'a t = {
  sim : Sim.t;
  stats : Stats.t;
  rng : Splitmix.t;
  default_latency : float;
  default_bandwidth : float;
  drop_rate : float;
  jitter : float;
  reliability : reliability option;
  handlers : (address, net:'a t -> src:address -> 'a -> unit) Hashtbl.t;
  known : (address, unit) Hashtbl.t;  (* every address ever registered *)
  links : (string, float * float) Hashtbl.t;  (* "a|b" -> latency,bw *)
  faults : 'a Faults.t;
  ledger : Arq.Ledger.t;  (* ids issued, acks seen, deliveries made *)
  lost_by : (Stats.category, int) Hashtbl.t;
  mutable retransmitted : int;
  mutable lost : int;
  mutable observer :
    (now:float -> src:address -> dst:address -> category:Stats.category ->
     size:int -> attempt:int -> unit)
    option;
}

let link_key a b = if a <= b then a ^ "|" ^ b else b ^ "|" ^ a

let create ?(default_latency_ms = 1.0) ?(default_bandwidth_bpms = 1000.)
    ?(drop_rate = 0.) ?(jitter_ms = 0.) ?reliability ?(seed = 42L) ?metrics ()
    =
  {
    sim = Sim.create ();
    stats = Stats.create ?metrics ();
    rng = Splitmix.create seed;
    default_latency = default_latency_ms;
    default_bandwidth = default_bandwidth_bpms;
    drop_rate;
    jitter = jitter_ms;
    reliability;
    handlers = Hashtbl.create 16;
    known = Hashtbl.create 16;
    links = Hashtbl.create 16;
    faults = Faults.create ();
    ledger = Arq.Ledger.create ();
    lost_by = Hashtbl.create 8;
    retransmitted = 0;
    lost = 0;
    observer = None;
  }

let sim t = t.sim
let stats t = t.stats
let faults t = t.faults

let add_host t addr ~handler =
  if Hashtbl.mem t.handlers addr then
    invalid_arg (Printf.sprintf "Net.add_host: duplicate address %S" addr);
  Hashtbl.replace t.known addr ();
  Hashtbl.replace t.handlers addr handler

let remove_host t addr = Hashtbl.remove t.handlers addr

let set_link t a b ~latency_ms ~bandwidth_bpms =
  Hashtbl.replace t.links (link_key a b) (latency_ms, bandwidth_bpms)

let on_send t f = t.observer <- Some f

let observe t ~src ~dst ~category ~size ~attempt =
  match t.observer with
  | None -> ()
  | Some f -> f ~now:(Sim.now t.sim) ~src ~dst ~category ~size ~attempt

let partition t a b = Faults.partition t.faults a b
let heal t a b = Faults.heal t.faults a b
let set_fault_hooks t f = Faults.set_hooks t.faults f
let set_integrity t f = Faults.set_integrity t.faults f

let link_params t a b =
  match Hashtbl.find_opt t.links (link_key a b) with
  | Some p -> p
  | None -> (t.default_latency, t.default_bandwidth)

(* The link is severed — statically partitioned or inside an injected
   down/flap/crash window. Checked at send time and again on arrival so
   a cut kills messages already in flight. *)
let severed t ~src ~dst =
  Faults.severed t.faults ~now:(Sim.now t.sim) ~src ~dst

(* One transmission attempt is lost when the link is severed, the
   ambient drop coin says so, or an injected loss window fires. *)
let attempt_lost t ~src ~dst =
  severed t ~src ~dst
  || (t.drop_rate > 0. && Splitmix.float t.rng < t.drop_rate)
  || Faults.injected_drop t.faults ~now:(Sim.now t.sim) ~src ~dst

let transfer_delay t ~src ~dst ~size =
  let latency, bandwidth = link_params t src dst in
  let jitter = if t.jitter > 0. then Splitmix.float t.rng *. t.jitter else 0. in
  latency +. (float_of_int size /. bandwidth) +. jitter
  +. Faults.delay t.faults ~now:(Sim.now t.sim) ~src ~dst

(* On arrival a cut made while the frame was in flight kills it — a
   cable does not care how far the packet got — and a frame failing the
   integrity screen is discarded before the handler sees it (under ARQ
   the discard also suppresses the ack, so the sender retransmits). *)
let arrives t ~src ~dst payload =
  if severed t ~src ~dst then begin
    Faults.drop t.faults;
    false
  end
  else Faults.admit t.faults payload

(* The handler is resolved on arrival, not at send time, so a host
   removed (crashed) mid-flight just loses the frame instead of
   delivering into the void — and a restarted host picks deliveries
   back up. Returns whether the payload was handed over. *)
let deliver t ~src ~dst payload =
  match Hashtbl.find_opt t.handlers dst with
  | None ->
      Faults.drop t.faults;
      false
  | Some handler ->
      handler ~net:t ~src payload;
      true

let count_lost t category =
  t.lost <- t.lost + 1;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.lost_by category) in
  Hashtbl.replace t.lost_by category (n + 1)

(* One transmission attempt: duplicates are decided once, then each copy
   is charged, observed, lost or corrupted and delayed on its own, and
   [launch] schedules a survivor's arrival (one closure per copy: an
   in-flight copy retains nothing else). Corruption is sampled at send
   time, so the hooks' draw order is deterministic; the mangled payload
   rides to arrival. *)
let transmit t ~src ~dst ~category ~size ~attempt payload launch =
  let now = Sim.now t.sim in
  for _copy = 1 to Faults.copies t.faults ~now ~src ~dst do
    Stats.record t.stats category ~bytes:size;
    observe t ~src ~dst ~category ~size ~attempt;
    if attempt_lost t ~src ~dst then Faults.drop t.faults
    else
      let payload = Faults.corrupt t.faults ~now ~src ~dst payload in
      launch payload (transfer_delay t ~src ~dst ~size)
  done

let send t ?info ~src ~dst ~category ~size payload =
  if not (Hashtbl.mem t.known dst) then
    invalid_arg (Printf.sprintf "Net.send: unknown host %S" dst);
  (* The delivery label carries the sender's description of the payload
     (when given) so the model checker can tell concurrently pending
     messages of the same category apart. *)
  let info =
    match info with Some i -> i | None -> Stats.category_name category
  in
  let label = Sim.Deliver { src; dst; info } in
  match t.reliability with
  | None ->
      transmit t ~src ~dst ~category ~size ~attempt:0 payload
        (fun payload delay ->
          Sim.schedule t.sim ~label ~delay (fun () ->
              if arrives t ~src ~dst payload && deliver t ~src ~dst payload
              then Stats.record_latency t.stats category ~ms:delay))
  | Some r ->
      let msg_id = Arq.Ledger.fresh_id t.ledger in
      let sent_at = Sim.now t.sim in
      (* On (each) arrival: deliver exactly once, always (re-)ack. A
         partition cut mid-flight loses the attempt (the retransmission
         timer is already armed and will retry). A corrupt frame is
         discarded without an ack, so corruption triggers retransmission
         just like loss. *)
      let on_arrival payload () =
        if arrives t ~src ~dst payload then begin
          if not (Arq.Ledger.is_delivered t.ledger msg_id) then begin
            if deliver t ~src ~dst payload then begin
              Arq.Ledger.mark_delivered t.ledger msg_id;
              Stats.record_latency t.stats category
                ~ms:(Sim.now t.sim -. sent_at)
            end
          end;
          if Arq.Ledger.is_delivered t.ledger msg_id then begin
            (* The ack travels back and may itself be lost. *)
            Stats.record t.stats Stats.Control ~bytes:r.ack_bytes;
            if attempt_lost t ~src:dst ~dst:src then Faults.drop t.faults
            else begin
              let ack_delay =
                transfer_delay t ~src:dst ~dst:src ~size:r.ack_bytes
              in
              let ack_label =
                Sim.Deliver
                  { src = dst; dst = src; info = Printf.sprintf "ack#%d" msg_id }
              in
              Sim.schedule t.sim ~label:ack_label ~delay:ack_delay (fun () ->
                  if severed t ~src:dst ~dst:src then Faults.drop t.faults
                  else Arq.Ledger.mark_acked t.ledger msg_id)
            end
          end
        end
      in
      let rec attempt n =
        transmit t ~src ~dst ~category ~size ~attempt:n payload
          (fun payload delay ->
            Sim.schedule t.sim ~label ~delay (on_arrival payload));
        if n > 0 then t.retransmitted <- t.retransmitted + 1;
        (* Retransmission timer: fires whether or not this attempt
           arrived; a lost ack also triggers a retry. *)
        let timer_label =
          Sim.Timer
            { owner = src; info = Printf.sprintf "retransmit#%d" msg_id }
        in
        Sim.schedule t.sim ~label:timer_label ~delay:r.retransmit_ms (fun () ->
            if not (Arq.Ledger.is_acked t.ledger msg_id) then
              if n < r.max_retries then attempt (n + 1)
              else if not (Arq.Ledger.is_delivered t.ledger msg_id) then
                count_lost t category)
      in
      attempt 0

let run t = Sim.run t.sim
let now_ms t = Sim.now t.sim

(* Sorted: Hashtbl iteration order depends on insertion history and
   hashing, which would leak nondeterminism into anything that walks
   the host list (schedule replay must be bit-identical). *)
let hosts t =
  Hashtbl.fold (fun a _ acc -> a :: acc) t.handlers []
  |> List.sort String.compare

let enabled t = Sim.pending_events t.sim
let fire t ~seq = Sim.fire t.sim ~seq
let dropped_messages t = t.faults.dropped
let retransmissions t = t.retransmitted
let lost_messages t = t.lost

let lost_for t category =
  Option.value ~default:0 (Hashtbl.find_opt t.lost_by category)

let injected_drops t = t.faults.injected_drops
let injected_duplicates t = t.faults.injected_duplicates
let integrity_drops t = t.faults.integrity_drops
