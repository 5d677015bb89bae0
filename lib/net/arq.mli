(** Pure ARQ bookkeeping, independent of the simulator clock.

    {!Net} implements stop-and-wait reliability over the sim; the socket
    transports implement reconnect-with-backoff over real file
    descriptors. Both share this module: the {!policy} record is the
    single vocabulary of reliability knobs ([Net.reliability] is an
    alias), {!backoff_ms} is the retry schedule, and {!Ledger} is the
    clock-free id/ack/delivery table the sim ARQ path keeps its state
    in. *)

type policy = {
  retransmit_ms : float;  (** Timer before an unacked send is retried. *)
  max_retries : int;  (** Attempts beyond the first before giving up. *)
  ack_bytes : int;  (** Wire size charged per acknowledgement. *)
}

val default : policy
(** 50 ms timer, 5 retries, 16-byte acks. *)

val backoff_ms : policy -> attempt:int -> float
(** Delay before retry [attempt] (0-based): exponential from
    [retransmit_ms], doubling per attempt, capped at 32x the base — the
    schedule the stream backends use between reconnect attempts.
    (The sim ARQ keeps its historical fixed interval; simulated waiting
    is free, so backoff would only slow deterministic runs down.) *)

val give_up : policy -> attempt:int -> bool
(** True once [attempt] exceeds [max_retries]. *)

(** Per-sender message ledger: issued ids, acks seen, deliveries made.
    Exactly-once delivery and duplicate-ack suppression reduce to table
    lookups here; no time involved. *)
module Ledger : sig
  type t

  val create : unit -> t

  val fresh_id : t -> int
  (** Monotonically increasing, starting at 0. *)

  val mark_acked : t -> int -> unit
  val is_acked : t -> int -> bool

  val mark_delivered : t -> int -> unit
  val is_delivered : t -> int -> bool

  val issued : t -> int
  (** How many ids {!fresh_id} has handed out. *)
end
