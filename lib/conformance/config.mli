(** Conformance-rule configuration.

    The paper's rules are fixed (§4.2); the knobs here expose (a) the
    relaxations the paper itself suggests — a Levenshtein threshold above 0
    and wildcard name patterns — and (b) selective disabling of aspects,
    used by experiment E6 to quantify how much safety each aspect buys
    (the paper's "weaker rule breaks type safety" remark). *)

type ambiguity =
  | First_match
      (** Declaration order wins — "up to the programmer" default. *)
  | Best_score
      (** Highest name-similarity (then identity permutation) wins. *)
  | Reject_ambiguous  (** More than one candidate fails the check. *)

type t = {
  name_distance : int;
      (** Max case-insensitive Levenshtein distance for names; the paper
          mandates [0]. *)
  allow_wildcards : bool;
      (** Treat ['*']/['?'] in the {e interest} type's names as wildcards. *)
  compare_namespaces : bool;
      (** Compare fully qualified names instead of simple names. Off by
          default: independently written types live in different
          namespaces. *)
  check_fields : bool;
  check_supertypes : bool;
  check_methods : bool;
  check_ctors : bool;
  check_modifiers : bool;  (** Rule (iv): "modifiers supposed to be the same". *)
  consider_permutations : bool;
      (** Rule (iv): match arguments up to permutation. *)
  ambiguity : ambiguity;
  max_depth : int;
      (** Recursion fuel for pathological hierarchies (cycles are already
          handled co-inductively). *)
}

val strict : t
(** The paper's rules: distance 0, no wildcards, all aspects on,
    permutations on, [First_match], depth 64. *)

val name_only : t
(** Only the name aspect — the explicitly warned-against weak rule. *)

val relaxed : distance:int -> t
(** [strict] with a positive Levenshtein threshold (E6 sweep). *)

val with_wildcards : t
(** [strict] plus wildcard name patterns. *)
