(** The pluggable transport fabric: one interface, three backends.

    A transport [t] is everything a protocol stack needs from the
    network: endpoints addressed by logical names, [send], timers/acts
    on the backend's {!Pti_net.Clock}, connection lifecycle events,
    fault injection and per-category accounting — and nothing else: the
    surface is what the stack drives. Backends:

    - {b sim} — wraps an ['a Net.t] {e unchanged}: sends, ARQ, fault
      hooks, partitions and the model checker's [enabled]/[fire]
      scheduler hook all keep their exact semantics and {!Sim.label}s,
      so every deterministic suite behaves bit-identically whether the
      stack reaches [Net] directly or through here.
    - {b unix} — Unix-domain stream sockets, one listening socket per
      endpoint, nonblocking poll loop, reconnect-with-backoff driven by
      the same {!Arq.policy} knobs as the sim's ARQ.
    - {b tcp} — same machinery over loopback/remote TCP.

    Stream backends are polymorphic via an explicit ['a codec]; the
    peer stack supplies its [Message] binary codec. Every backend embeds
    one {!Pti_net.Faults} model and consults it in the simulator's
    per-copy order, so the chaos vocabulary (loss, duplication, delay,
    corruption, down windows, partitions) applies to real kernel sockets
    too and one plan counts the same everywhere. Timers on every backend
    sit in a {!Pti_net.Sim} queue. The model checker stays pinned to the
    sim backend — only the simulator exposes a deterministic
    enabled-event set. *)

type address = string

type kind = Sim | Unix_socket | Tcp

val kind_name : kind -> string
val kind_of_string : string -> kind option
(** ["sim" | "unix" | "tcp"]. *)

type 'a codec = {
  c_encode : 'a -> string;
  c_decode : string -> ('a, string) result;
}
(** Payload <-> wire bytes, used by stream backends only (the sim moves
    values in memory and charges declared sizes). *)

type conn_event =
  | Connected of { local : address; peer : address }
  | Disconnected of { local : address; peer : address }

type 'a t
type 'a endpoint

(** {1 Construction} *)

val of_net : 'a Pti_net.Net.t -> 'a t
(** Wrap a simulated network. Cheap; the fabric holds no state of its
    own, so wrapping the same [Net.t] twice yields equivalent fabrics. *)

val create_unix :
  ?dir:string ->
  ?reliability:Pti_net.Arq.policy ->
  ?metrics:Pti_obs.Metrics.t ->
  codec:'a codec ->
  unit ->
  'a t
(** Unix-domain-socket fabric. Endpoints bind [<dir>/<addr>.sock]
    (default: a per-user directory under the system temp dir).
    [reliability] tunes reconnect backoff, default {!Pti_net.Arq.default}. *)

val create_tcp :
  ?host:string ->
  ?reliability:Pti_net.Arq.policy ->
  ?metrics:Pti_obs.Metrics.t ->
  codec:'a codec ->
  unit ->
  'a t
(** TCP fabric; endpoints bind [host] (default 127.0.0.1) on an
    ephemeral port unless {!set_bind} pins one. *)

(** {1 Introspection} *)

val now_ms : _ t -> float
val stats : _ t -> Pti_net.Stats.t
(** Sim: the wrapped net's stats (bytes charged by declared size).
    Streams: the fabric's own stats — bytes charged by actual framed
    wire size at send, latencies recorded on delivery from the wire
    stamp. *)

val sim_net : 'a t -> 'a Pti_net.Net.t option
(** The wrapped network on the sim backend; [None] on streams. Escape
    hatch for sim-only machinery (trace attach, the mc scheduler hook). *)

(** {1 Endpoints and addressing} *)

val add_endpoint :
  'a t -> address -> handler:(src:address -> 'a -> unit) -> 'a endpoint
(** Register a logical address. Sim: [Net.add_host]. Streams: binds and
    listens. @raise Invalid_argument on a duplicate address. *)

val register_remote : _ t -> address -> string -> unit
(** [register_remote t addr spec] teaches a stream fabric how to dial
    logical [addr]: a socket path (unix) or ["host:port"] (tcp). Only
    dialers need this — an accepted connection identifies its peer via
    the hello frame and replies reuse it. No-op on sim. *)

val set_bind : _ t -> address -> string -> unit
(** Pin where a future {!add_endpoint} for [addr] will listen (socket
    path / ["host:port"]) instead of the default. No-op on sim. *)

val set_bind_fd : _ t -> address -> Unix.file_descr -> unit
(** Like {!set_bind} with an already-listening descriptor — lets a
    parent process open the listener, fork, and have the child adopt it
    (no port race). No-op on sim. *)

val listen_spec : _ t -> address -> string option
(** Where a local endpoint actually listens, in {!register_remote}
    form — hand this to the process that will dial us. [None] on sim
    or for unknown addresses. *)

(** {1 Data path} *)

val send :
  'a endpoint ->
  ?info:string ->
  dst:address ->
  category:Pti_net.Stats.category ->
  size:int ->
  'a ->
  unit
(** Sim: exactly [Net.send] (same labels, same ARQ, same accounting).
    Streams: apply the fault model per copy, frame, write (connecting
    first if needed, buffering while a dial is in flight).
    @raise Invalid_argument for an unresolvable destination. *)

val on_conn_event : _ t -> (conn_event -> unit) -> unit
(** Subscribe to stream connection lifecycle events (never fires on
    sim). Callbacks run inside the poll loop. *)

(** {1 Timers and actions}

    On sim these produce the exact [Sim.Timer]/[Sim.Act] labels the
    model checker keys on; on streams the same labels land in the
    monotonic clock's private queue and fire from the poll loop. *)

val timer :
  _ t -> owner:address -> info:string -> delay_ms:float -> (unit -> unit) -> unit

val timer_cancellable :
  _ t ->
  owner:address ->
  info:string ->
  delay_ms:float ->
  (unit -> unit) ->
  unit ->
  unit
(** Returns the cancel thunk. *)

val act :
  _ t -> owner:address -> info:string -> delay_ms:float -> (unit -> unit) -> unit

(** {1 Driving} *)

val poll : _ t -> timeout_ms:float -> bool
(** Streams: wait up to [timeout_ms] for I/O (bounded by the next timer
    deadline), service it, fire due timers. Sim: [Sim.step] (the
    timeout is meaningless in logical time). *)

val run : _ t -> unit
(** Sim: run to quiescence. Streams: poll until briefly idle —
    heuristic; prefer {!drive_until}. *)

val drive_until : _ t -> ?deadline_ms:float -> (unit -> bool) -> bool
(** Drive the fabric until the predicate holds. Sim: steps until the
    predicate holds or the event queue drains ([deadline_ms] is a
    simulated-clock bound). Streams: polls until the predicate holds or
    the monotonic clock passes [deadline_ms] (default: 30 s from now).
    Returns the predicate's final value. *)

(** {1 Faults, partitions} *)

val set_fault_hooks : 'a t -> 'a Pti_net.Faults.hooks option -> unit
(** Install (or clear) the hooks of the backend's {!Pti_net.Faults}
    model. Every backend asks them in the simulator's per-copy order, so
    one plan counts the same on each ([fh_down] also screens arrivals,
    so a window opening mid-flight kills frames already in kernel
    buffers). *)

val set_integrity : 'a t -> ('a -> bool) option -> unit
val partition : _ t -> address -> address -> unit
val heal : _ t -> address -> address -> unit

(** {1 Accounting} *)

val dropped_messages : _ t -> int
val lost_messages : _ t -> int
(** Sim: ARQ gave up. Streams: frames abandoned after reconnect
    retries were exhausted, or still queued on a connection that died. *)

val retransmissions : _ t -> int
(** Sim: ARQ retries. Streams: reconnect attempts. *)

val injected_drops : _ t -> int
val corrupted_frames : _ t -> int
val integrity_drops : _ t -> int
(** Streams also count undecodable frames (wire damage detected by the
    codec) here. *)

val received_bytes : _ t -> Pti_net.Stats.category -> int
(** Stream receive-side accounting (actual framed bytes); 0 on sim —
    the sim's single [Stats.t] already sees both directions. *)

val total_received_bytes : _ t -> int

val close : _ t -> unit
(** Streams: flush briefly, close every fd, unlink unix sockets.
    No-op on sim. Idempotent. *)
