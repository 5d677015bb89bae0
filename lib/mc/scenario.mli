(** Closed, fault-free worlds for systematic exploration.

    A scenario builds a fresh deterministic simulation — peers, workload,
    issued sends — whose {e only} remaining nondeterminism is the order
    of enabled deliveries and local actions. The explorer re-executes a
    scenario from scratch for every schedule prefix, so construction
    must be cheap and draw no ambient randomness (fixed seeds only).

    A terminal state is judged by the chaos harness's judge
    ({!Pti_fault.Chaos.judge}): conservation, exactly-once, no-mangle,
    trap rejection, verdict stability, metrics-vs-trace — plus
    {!Pti_fault.Invariant.fetch_economy}, which bounds subprotocol
    traffic by what the in-flight dedup guards promise, and (cluster
    scenario) membership convergence. *)

type kind =
  | Protocol  (** Two peers, a burst of same-typed objects, classic wire. *)
  | Cluster
      (** A replicated cluster: replica pushes, gossip ticks as
          explorable actions, membership must converge all-alive. *)
  | Wire
      (** Two peers with handle negotiation + batching + binary tdescs;
          later sends and a receiver-side handle-table drop are
          explorable actions. *)
  | Evolution
      (** Live schema evolution: every object is the evolving family
          (CAS-published onto a version chain), and the v2 publication
          is an explorable action racing the sends, description fetches
          and conformance probes. Adds
          {!Pti_fault.Invariant.upgrade_safety}: each delivery must
          decode against exactly the revision its send negotiated. *)

val kind_name : kind -> string
val kind_of_string : string -> kind option

type spec = {
  s_kind : kind;
  s_peers : int;  (** Cluster size (cluster scenario only); min 2. *)
  s_objects : int;  (** Objects sent; min 1. *)
  s_fanout_bug : bool;
      (** Two-peer scenarios: duplicate every frame on the receiver's
          request link, the wire pattern of the historical fetch
          fan-out bug (one tdesc probe and one code download per
          envelope) — for the known-bug regression. *)
  s_cas_bug : bool;
      (** Evolution scenario: publish v2 by advancing the chain head
          directly instead of through the atomic CAS + registry upgrade
          — the historical torn publish — for the known-bug
          regression. *)
}

val spec :
  ?peers:int -> ?objects:int -> ?fanout_bug:bool -> ?cas_bug:bool -> kind ->
  spec
(** Defaults: 3 peers, 2 objects, bugs off. *)

type instance = {
  i_net : Pti_core.Message.t Pti_net.Net.t;
      (** The live network: drive it via {!Pti_net.Net.enabled} /
          {!Pti_net.Net.fire} / {!Pti_net.Net.run}. *)
  i_check : unit -> Pti_fault.Invariant.violation list;
      (** Evaluate the property set — call only at a terminal (quiescent)
          state; may mutate checker caches, so do not explore further
          afterwards. *)
  i_fingerprint : unit -> int64;
      (** Combined FNV digest of all peer/node state, for hash pruning. *)
}

val make : spec -> instance
(** A fresh world with all sends issued; equal specs build bit-identical
    worlds. *)
