(** Discrete-event simulation core.

    A priority queue of timestamped thunks; time advances only when events
    fire, so runs are deterministic and as fast as the host CPU. Simulated
    time is in milliseconds (matching the paper's reporting unit).

    {1 Event labels}

    Every event carries a {!label} classifying what it is, so an external
    scheduler (the model checker, [pti_mc]) can distinguish message
    deliveries — which a real asynchronous network may reorder
    arbitrarily — from local sender actions and from guard timers that
    only matter when something was lost. Unlabelled events default to
    {!Internal} and are treated conservatively (reorderable, dependent
    with everything). *)

type label =
  | Deliver of { src : string; dst : string; info : string }
      (** A message arriving at host [dst]. The network may deliver
          concurrently pending messages in any order. *)
  | Act of { owner : string; info : string }
      (** A local action at [owner] (batch flush, gossip tick, a
          scenario's scheduled send): a unit of work whose order against
          concurrent deliveries is genuinely nondeterministic. *)
  | Timer of { owner : string; info : string }
      (** A guard timer (request timeout, retry backoff, renegotiation
          park): fires only when the thing it guards failed to happen.
          The model checker does not treat timers as schedule choice
          points — it defers them to quiescence. *)
  | Internal  (** Unclassified (default). *)

val pp_label : Format.formatter -> label -> unit

type info = { i_at : float; i_seq : int; i_label : label }
(** A pending event as the scheduler hook exposes it: timestamp,
    stable sequence number (the firing handle) and label. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time (ms). *)

val schedule : t -> ?label:label -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay]. Negative delays are
    clamped to 0. Events at equal times fire in scheduling order. *)

val schedule_at : t -> ?label:label -> at:float -> (unit -> unit) -> unit

val schedule_cancellable : t -> ?label:label -> delay:float ->
  (unit -> unit) -> (unit -> unit)
(** Like {!schedule}, returning a cancel thunk. A cancelled event is
    skipped without advancing the clock, so armed-but-unneeded timers
    (request timeouts, leases) do not stretch the simulated run. *)

val step : t -> bool
(** Fire the next event; [false] when the queue is empty. *)

val run : t -> unit
(** Run to quiescence. *)

val run_until : t -> float -> unit
(** Fire every event with a timestamp [<=] the given time, advancing the
    clock to exactly that time. *)

val next_at : t -> float option
(** Timestamp of the earliest pending non-cancelled event, if any. *)

val pending : t -> int

val pending_events : t -> info list
(** Every pending non-cancelled event, sorted by [(at, seq)] — the
    deterministic enabled set an exploration strategy chooses from. *)

val fire : t -> seq:int -> bool
(** Fire the pending event with this sequence number {e now}, regardless
    of its position in the queue; [false] if no such (non-cancelled)
    event is pending. The clock advances to [max clock at] — it never
    moves backwards — so firing events out of time order models an
    asynchronous network delaying the others. *)
