(** Per-category traffic accounting.

    The paper's headline for the optimistic protocol is that it "saves
    network resources": type representations and code travel only when
    needed. These counters are how experiment E5 observes that. *)

type category =
  | Object_msg  (** Hybrid envelopes carrying objects (Figure 3). *)
  | Tdesc_request
  | Tdesc_reply  (** Type descriptions (§5.2). *)
  | Asm_request
  | Asm_reply  (** Assemblies — downloaded code. *)
  | Invoke_request
  | Invoke_reply  (** Pass-by-reference remote invocations. *)
  | Gossip
      (** Cluster background traffic: membership, anti-entropy digests,
          replica pushes ([pti_cluster]). *)
  | Handle_ctl
      (** Type-handle negotiation control traffic: NAKs for unknown
          handles and the bind frames that renegotiate them. *)
  | Control  (** Everything else (acks, errors). *)

val all_categories : category list
val category_name : category -> string

val index : category -> int
(** Stable small-integer code (position in {!all_categories}) — the
    one-byte category tag the stream transports put on each frame. *)

val of_index : int -> category
(** Inverse of {!index}. @raise Invalid_argument out of range. *)

type t

val create : ?metrics:Pti_obs.Metrics.t -> unit -> t
(** When [metrics] is given, delivery latencies feed
    [net.latency_ms.<category>] histograms and per-category byte/message
    totals are exported as [net.bytes.<category>] /
    [net.messages.<category>] gauges (snapshot-time callbacks), so the
    network shares one registry with the peers that use it. *)

val record : t -> category -> bytes:int -> unit
val bytes : t -> category -> int
val messages : t -> category -> int
val total_bytes : t -> int
val total_messages : t -> int

val reset : t -> unit
(** Zeroes the byte and message counts (the latency histograms belong
    to the registry; see {!Pti_obs.Metrics.reset}). *)

val record_latency : t -> category -> ms:float -> unit
(** Called by the network when a message is first delivered: simulated
    time between the original send and the arrival. Observed into the
    category's [net.latency_ms.<category>] histogram — the only place a
    latency is kept, so memory stays constant however many messages a
    fabric carries. Without a registry it does nothing. *)

val pp : Format.formatter -> t -> unit
(** Aligned table of category / messages / bytes. *)
