(** Composable, seeded fault schedules over {!Pti_net.Net}.

    A plan is a list of timed {e windows}; each window applies one fault
    {e action} to the links matched by its {e selector} while the
    simulated clock is inside [\[start, stop)]. Plans compile to the
    network's lazy per-link {!Pti_net.Faults.hooks} — no events are
    scheduled, so the simulation still quiesces, and every random choice
    is drawn from an explicit [Splitmix] stream: one [int64] seed
    reproduces the whole run. *)

module Splitmix = Pti_util.Splitmix

type selector =
  | Any  (** Every link. *)
  | Between of string * string  (** The unordered pair. *)
  | From_host of string
  | To_host of string
  | Touching of string
      (** Any link with the host at either end — a whole-host fault
          (crash windows use this: the host falls silent, then
          restarts when the window closes). *)

type action =
  | Loss of float  (** Per-attempt drop probability (burst loss). *)
  | Duplicate of float  (** Probability of one extra copy per window. *)
  | Reorder of float
      (** Extra uniform random delay up to the given ms — enough beyond
          the link jitter to reorder messages in flight. *)
  | Corrupt of float  (** Per-copy byte-corruption probability. *)
  | Down
      (** Link severed for the whole window: flap, partition or crash
          depending on the selector; heals itself at [w_stop]. *)

type window = {
  w_start : float;
  w_stop : float;  (** Start-inclusive, stop-exclusive, in sim ms. *)
  w_sel : selector;
  w_act : action;
}

type t = { windows : window list }

val selector_matches : selector -> src:string -> dst:string -> bool
val window_active : window -> now:float -> src:string -> dst:string -> bool

val horizon : t -> float
(** Largest [w_stop]; 0 for an empty plan. Past it the network is
    fault-free. *)

val hooks :
  t ->
  rng:Splitmix.t ->
  corrupt:(Splitmix.t -> 'a -> 'a option) ->
  'a Pti_net.Faults.hooks
(** Compile the plan. [rng] feeds every probabilistic window (loss,
    duplication, reorder jitter, corruption coins); [corrupt] mangles a
    payload when a corruption window fires (return [None] to leave a
    payload it cannot corrupt). *)

(** {1 Profiles and generation} *)

type profile = Lossy | Flaky | Byzantine_wire

val profile_name : profile -> string
val profile_of_string : string -> profile option

val random :
  profile:profile -> hosts:string list -> horizon_ms:float -> Splitmix.t -> t
(** A randomized plan for the profile:
    - [Lossy]: burst-loss windows plus duplication and reordering — no
      severed links, so ARQ can always win;
    - [Flaky]: link flaps / whole-host crash windows (self-healing) on
      top of loss and duplication;
    - [Byzantine_wire]: byte-corruption windows plus duplication and
      reordering — no loss, so every failure is an integrity story.

    Window durations are bounded well below the ARQ retry span
    (12 x 40 ms in the chaos harness), so a retried message always gets
    attempts outside any single window. *)

(** {1 Shrinking} *)

val shrink_candidates : t -> t list
(** Strictly smaller plans to try when this one fails: first each half
    of the window list, then every single-window removal. Empty for
    plans of one or zero windows. *)

val shrink : fails:(t -> bool) -> t -> t
(** Greedy ddmin: repeatedly move to the first candidate that still
    [fails]. Returns a locally minimal failing plan ([plan] itself when
    nothing smaller fails). Assumes [fails plan] — callers check. *)

val pp : Format.formatter -> t -> unit
(** One line per window: [  12.0..96.0ms loss(0.62) on alice->*]. *)
