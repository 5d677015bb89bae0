(** The chaos harness: seeded end-to-end runs under injected faults,
    checked against the protocol's invariants, with schedule shrinking.

    Each run builds a fresh world (network, peers, optionally a
    replicated cluster), publishes a small workload of conformant and
    trap type families, paces object sends across the fault horizon,
    compiles a {!Fault_plan} onto the network and runs to quiescence.
    Everything — link noise, fault windows, gossip partners — derives
    from one [int64] seed, so a failing run reproduces from its seed
    alone and a shrunk plan replays under the same randomness. *)

type config = {
  c_profile : Fault_plan.profile;
  c_cluster : bool;
      (** [true]: a 4-node replicated cluster (factor 2, gossip ticking
          through the fault horizon, membership re-convergence checked
          after heal). [false]: two peers. *)
  c_objects : int;  (** Objects sent per run (60 ms apart). *)
  c_frame_integrity : bool;
      (** Install {!Corruptor.frame_intact} so corrupt object envelopes
          are dropped pre-ack and recovered by ARQ retransmission. *)
  c_wire : bool;
      (** Run with every wire-efficiency feature on: negotiated type
          handles, envelope batching (4 KiB budget) and the binary
          tdesc codec. With 5+ objects the receiver's handle tables are
          additionally dropped just before the last send, and the run
          must observe at least one renegotiation
          ({!Invariant.handle_degradation}). *)
  c_upgrade : bool;
      (** Live schema evolution under faults: halfway through the send
          window, family 0 is CAS-republished at v2 (adds an [email]
          field) on the sender's version chain. Later sends of that
          family travel — and must decode — at v2; in-flight v1 sends
          must keep decoding at v1 ({!Invariant.upgrade_safety}). *)
}

val default_config : config
(** Lossy, two peers, 8 objects, frame integrity on, wire features and
    upgrade off. *)

type run_result = {
  r_seed : int64;
  r_plan : Fault_plan.t;
  r_sent : int;
  r_delivered : int;
  r_rejected : int;  (** Non-conformant (trap) objects turned away. *)
  r_failed : int;  (** Decode/load failures and terminal corruptions. *)
  r_corrupt_rejects : int;  (** Across every peer in the run. *)
  r_net_lost : int;  (** Object messages the ARQ layer gave up on. *)
  r_retransmissions : int;
  r_injected_drops : int;
  r_corrupted_frames : int;
  r_integrity_drops : int;
  r_renegotiations : int;
      (** Handle NAKs the receiver sent — nonzero whenever its tables
          were dropped mid-run under [c_wire]. *)
  r_violations : Invariant.violation list;  (** Empty = run is green. *)
}

(** {1 Judging a terminal state}

    The invariants every closed run must satisfy once it has quiesced,
    whoever drove it: this harness, or the model checker's scenarios at
    each terminal state they explore. *)

type judgement = {
  j_delivered : int;
  j_rejected : int;  (** Non-conformant objects turned away. *)
  j_failed : int;
      (** Events that permanently consumed an object: decode/load
          failures and corrupt envelope/payload/batch rejections (a
          corrupt handle-bind frame is {e not} terminal — the parked
          envelope accounts for itself). *)
  j_net_lost : int;  (** Object messages the ARQ layer gave up on. *)
  j_violations : Invariant.violation list;
}

val judge :
  net:'a Pti_net.Net.t ->
  trace:Pti_net.Trace.t ->
  receiver:Pti_core.Peer.t ->
  families:(int * Pti_demo.Workload.flavor) list ->
  sent:int ->
  expected:(string * (string * int)) list ->
  trap_keys:string list ->
  judgement
(** Count the receiver's outcomes and check conservation, exactly-once,
    no-mangle (deliveries keyed and compared by their [(name, age)]
    fields, proxies unwrapped), trap-never-delivered, verdict stability
    of each of [families] against {!Pti_demo.Workload.interest_person}
    and metrics-vs-trace. [sent] objects went out; [expected] maps each
    conformant object's key to its fields, [trap_keys] names the trap
    objects. Clears the receiver's verdict cache (the stability
    re-check), so call it once, at quiescence. *)

val decoded_revisions : Pti_core.Peer.t -> (string * int) list
(** [(key, revision)] for each delivery: the schema revision the value
    was decoded against (2 when it carries the v2-only [email] field,
    else 1) — the [decoded] side of {!Invariant.upgrade_safety}. *)

val membership :
  Pti_cluster.Cluster.t -> string list -> Invariant.violation list
(** {!Invariant.membership_converged} over every host's view of the
    given hosts. *)

val run_one : ?plan:Fault_plan.t -> config -> seed:int64 -> run_result
(** One seeded world. [plan] overrides the generated schedule (same
    seed + same plan = same result — what {!shrink} relies on). *)

val shrink : config -> seed:int64 -> Fault_plan.t -> Fault_plan.t
(** Greedy ddmin over {!Fault_plan.shrink_candidates}: repeatedly move
    to the first strictly smaller plan that still violates an invariant
    under the same seed. Returns a (locally) minimal failing plan. *)

type summary = {
  s_runs : int;
  s_sent : int;
  s_delivered : int;
  s_rejected : int;
  s_failed : int;
  s_net_lost : int;
  s_corrupt_rejects : int;
  s_retransmissions : int;
  s_failures : run_result list;
  s_shrunk : (run_result * run_result) option;
      (** First failing run and its re-run under the shrunk plan. *)
}

val run_many : config -> runs:int -> seed:int64 -> summary
(** [runs] independent worlds with per-run seeds derived from [seed].
    If any run violates an invariant, the first failure is shrunk. *)

val pp_run : Format.formatter -> run_result -> unit
val pp_summary : Format.formatter -> summary -> unit
