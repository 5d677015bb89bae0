(** Abstract time source: the simulator's logical clock or a monotonic
    wall clock — one event queue ({!Sim}) under both.

    Every layer above the network schedules guard timers (request
    timeouts, fetch backoff, renegotiation parks) and local actions
    (batch flushes, gossip ticks). On the simulated backend those go
    through {!Sim.schedule} with exactly the same {!Sim.label}s — the
    model checker's schedules and fingerprints are keyed on them
    (pinned by a regression test). On a socket backend the same calls
    land in a private {!Sim.t} whose clock trails a monotonic
    milliseconds source; the poll loop fires what is due via {!tick}. *)

type t

val of_sim : Sim.t -> t
(** A clock that is the simulator: [now_ms] is {!Sim.now} and
    scheduling is {!Sim.schedule}. {!tick} is a no-op (the sim loop
    fires its own events). *)

val monotonic : now:(unit -> float) -> unit -> t
(** A real-time clock over a milliseconds source (wall time). Readings
    are clamped to be non-decreasing, so a stepping system clock can
    never make an EWMA or a timeout go backwards. The caller supplies
    [now] (e.g. [Unix.gettimeofday () *. 1000.]) — keeping this module
    free of OS dependencies and testable with a fake source. *)

val is_sim : t -> bool
val sim : t -> Sim.t option
(** The simulator of an {!of_sim} clock; [None] on a wall clock (its
    queue is private). *)

val now_ms : t -> float
(** Current time in milliseconds. Monotonic clocks report time since
    creation (a private epoch — only differences are meaningful). *)

val schedule : t -> label:Sim.label -> delay_ms:float -> (unit -> unit) -> unit
(** Run the thunk [delay_ms] from now (clamped to 0). On a monotonic
    clock the thunk fires from a later {!tick}. *)

val schedule_cancellable :
  t -> label:Sim.label -> delay_ms:float -> (unit -> unit) -> unit -> unit
(** Like {!schedule}, returning a cancel thunk (idempotent). *)

val tick : t -> int
(** Fire every timer the wall clock has made due, in (deadline,
    schedule order); returns how many fired. Thunks may schedule further
    timers — a timer made due by the time taken inside the same tick
    fires before returning. No-op (0) on a sim clock. *)

val next_due_ms : t -> float option
(** Milliseconds until the earliest pending monotonic timer ([Some 0.]
    when overdue); [None] when no timer is pending or on a sim clock.
    The poll loop uses this to bound its select timeout. *)

val pending : t -> int
(** Pending (non-cancelled) monotonic timers; 0 on a sim clock. *)
