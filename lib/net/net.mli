(** The simulated network: addressed hosts, latency/bandwidth links,
    deterministic loss, optional reliable delivery, per-category
    accounting. Faults (partitions, hooks, integrity screen) live in an
    embedded {!Faults} model the socket transports share; every
    transmission attempt, raw or under ARQ, goes through one per-copy
    loop that consults it.

    Polymorphic in the payload so the middleware layers its own message
    type on top; the network charges each message by the byte [size] the
    sender declares (computed from real wire renderings upstream).

    {1 Reliability}

    With {!reliability} configured, every send is acknowledged and
    retransmitted on a timer until acked or out of retries — an abstract
    ARQ layer. Retransmissions are charged again in the {!Stats} (and acks
    as [Control] bytes), so loss shows up as traffic and latency, the way
    it would over a real transport. Duplicate deliveries caused by lost
    acks are suppressed (exactly-once delivery to handlers). Without it,
    a dropped message is simply gone — which stalls request/reply
    protocols, as it should. *)

type address = string

type reliability = Arq.policy = {
  retransmit_ms : float;  (** Timer before an unacked send is retried. *)
  max_retries : int;  (** Attempts beyond the first before giving up. *)
  ack_bytes : int;  (** Wire size charged per acknowledgement. *)
}
(** Alias of {!Arq.policy}: the same knobs configure the sim ARQ here
    and reconnect-with-backoff in the socket transports. *)

val default_reliability : reliability
(** 50 ms timer, 5 retries, 16-byte acks. *)

type 'a t

val create : ?default_latency_ms:float -> ?default_bandwidth_bpms:float ->
  ?drop_rate:float -> ?jitter_ms:float -> ?reliability:reliability ->
  ?seed:int64 -> ?metrics:Pti_obs.Metrics.t -> unit -> 'a t
(** Defaults: 1.0 ms latency, 1000 bytes/ms (~1 MB/s) bandwidth, no drops,
    no jitter, no reliability layer, seed 42. [metrics] is forwarded to
    {!Stats.create}: latency histograms and traffic gauges land in the
    given registry under [net.*]. *)

val sim : 'a t -> Sim.t
val stats : 'a t -> Stats.t

val faults : 'a t -> 'a Faults.t
(** The network's fault model: partitions, hooks, integrity screen and
    their counters (the functions below are shorthands for it). *)

val add_host : 'a t -> address ->
  handler:(net:'a t -> src:address -> 'a -> unit) -> unit
(** @raise Invalid_argument on a duplicate address. After
    {!remove_host} the address may be registered again (restart). *)

val remove_host : 'a t -> address -> unit
(** Unregister a host (crash). Handlers are resolved on arrival, so
    frames in flight to a removed host are dropped, not raised on;
    under reliability they go unacked and the sender keeps retrying,
    so a host re-added within the retry budget picks the delivery
    back up. Sending {e to} a removed-but-once-known address is a
    silent drop; only a never-registered destination raises. *)

val set_link : 'a t -> address -> address -> latency_ms:float ->
  bandwidth_bpms:float -> unit
(** Overrides the defaults for both directions of the pair. *)

val partition : 'a t -> address -> address -> unit
(** Drop all traffic between the pair until {!heal} — including messages
    (and acks) already in flight when the cut happens: delivery re-checks
    the partition table on arrival, so nothing crosses a severed link.
    Under reliability the senders keep retrying, so short partitions only
    delay delivery. *)

val heal : 'a t -> address -> address -> unit

val set_fault_hooks : 'a t -> 'a Faults.hooks option -> unit
(** Install (or clear) the fault-injection hooks. Duplicates are asked
    once per transmission attempt; each copy is then charged, lost
    (severed link, ambient loss, [fh_drop]), corrupted and delayed on its
    own. *)

val set_integrity : 'a t -> ('a -> bool) option -> unit
(** Install a frame-integrity predicate — the abstract link-layer
    checksum. A frame failing it is discarded on arrival (counted in
    {!integrity_drops}) before the handler sees it; under reliability
    the discard suppresses the ack, so the sender retransmits and a
    later clean copy still gets through. *)

val send : 'a t -> ?info:string -> src:address -> dst:address ->
  category:Stats.category -> size:int -> 'a -> unit
(** Enqueue a message: records [size] bytes, applies latency + size/bandwidth
    (+ jitter), may drop. Delivery invokes the destination handler inside
    the simulation. [info] (default: the category name) describes the
    payload in the delivery event's {!Sim.label} so an exploration
    strategy can tell concurrently pending messages apart.
    @raise Invalid_argument for an unknown destination. *)

val on_send : 'a t ->
  (now:float -> src:address -> dst:address -> category:Stats.category ->
   size:int -> attempt:int -> unit) -> unit
(** Install an observer called for every transmission attempt (the
    {!Trace} module builds message logs from this). [attempt] is [0] for
    the first transmission and counts retransmissions up. Replaces any
    previous observer. *)

val run : 'a t -> unit
(** Run the simulation to quiescence. *)

val now_ms : 'a t -> float

val hosts : 'a t -> address list
(** Registered (alive) addresses, sorted — deterministic regardless of
    registration order. *)

(** {1 Scheduler hook}

    The model checker ([pti_mc]) replaces the simulator's FIFO event loop
    with an external strategy: read the {!enabled} set, pick an event,
    {!fire} it, repeat. {!run} remains the "always pick the earliest"
    strategy. *)

val enabled : 'a t -> Sim.info list
(** Pending simulator events (deliveries, actions, timers), sorted by
    [(time, seq)]. See {!Sim.pending_events}. *)

val fire : 'a t -> seq:int -> bool
(** Fire one enabled event out of order; clock only moves forward. See
    {!Sim.fire}. *)

val dropped_messages : 'a t -> int
(** Transmission attempts lost to drops/partitions (including attempts
    that were later retried successfully). *)

val retransmissions : 'a t -> int
(** Extra attempts made by the reliability layer. *)

val lost_messages : 'a t -> int
(** Messages abandoned after exhausting retries (always 0 without
    reliability — unreliable sends are counted in
    {!dropped_messages} only). *)

val lost_for : 'a t -> Stats.category -> int
(** {!lost_messages} restricted to one traffic category — lets a
    harness attribute abandoned messages (e.g. lost object envelopes
    vs lost subprotocol requests). *)

val injected_drops : 'a t -> int
(** Copies lost to [fh_drop] windows (excludes ambient [drop_rate]
    losses and severed links). *)

val injected_duplicates : 'a t -> int
(** Extra frame copies created by [fh_duplicates]. *)

val integrity_drops : 'a t -> int
(** Frames discarded on arrival by the {!set_integrity} predicate. *)
