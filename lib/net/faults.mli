(** The fault model every backend shares: partitions, fault-injection
    hooks, the frame-integrity screen and their counters.

    A backend owns one ['a t] and asks it one question per step of a
    transmission, in the simulator's order: {!copies} once per attempt,
    then for each copy {!severed} and {!injected_drop} (lose),
    {!corrupt}, {!delay}; {!severed} again and {!admit} on arrival. The
    simulator ({!Net}) draws its ambient loss coin between {!severed}
    and {!injected_drop} and its jitter before {!delay}; the socket
    backends have neither. Only this module calls the hooks, so the
    chaos vocabulary means the same thing — and counts the same — on
    every backend. *)

type address = string

type 'a hooks = {
  fh_down : now:float -> src:address -> dst:address -> bool;
      (** Link severed at [now] (flap / partition window / crashed peer).
          Checked when a copy launches {e and} again on arrival, so a
          window opening mid-flight kills the frame. *)
  fh_drop : now:float -> src:address -> dst:address -> bool;
      (** Extra per-copy loss (burst windows). Counted in
          [injected_drops] when it fires. *)
  fh_duplicates : now:float -> src:address -> dst:address -> int;
      (** Extra copies of the frame to transmit (each charged, lost,
          corrupted and delayed independently). *)
  fh_delay : now:float -> src:address -> dst:address -> float;
      (** Extra milliseconds added to the transfer delay — reordering
          windows return large random values here. *)
  fh_corrupt : now:float -> src:address -> dst:address -> 'a -> 'a option;
      (** [Some p'] replaces the payload of this copy with a mangled
          [p']; [None] leaves it alone. Asked only for copies that
          survived the loss decision. *)
}
(** Per-link fault-injection hooks, evaluated lazily against the
    backend's clock — installing a plan schedules no events, so a
    simulation still quiesces. Hooks draw their own randomness (from a
    seeded [Splitmix]); the backend only asks. See
    [Pti_fault.Fault_plan] for the compiler. *)

val no_hooks : 'a hooks
(** Hooks that never fire — a base to override selectively. *)

type 'a t = private {
  partitions : (string, unit) Hashtbl.t;  (** Severed pairs. *)
  mutable hooks : 'a hooks option;
  mutable integrity : ('a -> bool) option;
  mutable dropped : int;
      (** Copies lost to loss, severed links or a missing receiver. *)
  mutable injected_drops : int;  (** Copies lost to [fh_drop]. *)
  mutable injected_duplicates : int;  (** Extra copies from [fh_duplicates]. *)
  mutable corrupted_frames : int;  (** Copies mangled by [fh_corrupt]. *)
  mutable integrity_drops : int;
      (** Frames discarded on arrival by the integrity screen (and, on
          streams, frames the codec could not decode). *)
}
(** Read-only outside this module: state changes go through the
    functions below. *)

val create : unit -> 'a t

val partition : 'a t -> address -> address -> unit
(** Sever the unordered pair until {!heal}. *)

val heal : 'a t -> address -> address -> unit
val set_hooks : 'a t -> 'a hooks option -> unit

val set_integrity : 'a t -> ('a -> bool) option -> unit
(** Install (or clear) the frame-integrity predicate — the abstract
    link-layer checksum {!admit} applies on arrival. *)

val drop : 'a t -> unit
(** Count a lost copy in [dropped]. *)

val reject : 'a t -> unit
(** Count a discarded frame in [integrity_drops]. *)

val copies : 'a t -> now:float -> src:address -> dst:address -> int
(** How many copies one attempt transmits: 1 plus [fh_duplicates]. *)

val severed : 'a t -> now:float -> src:address -> dst:address -> bool
(** Partitioned, or inside an [fh_down] window. Counts nothing. *)

val injected_drop : 'a t -> now:float -> src:address -> dst:address -> bool
(** [fh_drop] fires for this copy; counted in [injected_drops]. *)

val corrupt : 'a t -> now:float -> src:address -> dst:address -> 'a -> 'a
(** The copy's payload after [fh_corrupt]; a replacement is counted in
    [corrupted_frames]. *)

val delay : 'a t -> now:float -> src:address -> dst:address -> float
(** Extra delay from [fh_delay], clamped to be non-negative. *)

val admit : 'a t -> 'a -> bool
(** The integrity screen: [false] (counted as a {!reject}) when the
    predicate rejects the payload. *)
