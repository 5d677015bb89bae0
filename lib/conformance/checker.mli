(** The implicit structural conformance checker — Figure 2 of the paper.

    [check t ~actual ~interest] decides whether instances of [actual] (the
    received object's type, the paper's T') can safely be used where
    [interest] (the variable's type, T) is expected, and when they can,
    produces the {!Mapping.t} a dynamic proxy needs.

    Rule (vi): [actual] implicitly structurally conforms to [interest] iff
    they are {e equal} (same GUID), {e equivalent} (same structure),
    [actual] {e explicitly} conforms (declared subtyping reachable through
    the description graph), or every aspect holds:
    {ul
    {- (i) names conform — case-insensitive Levenshtein distance within the
       configured bound (0 in the paper), optionally wildcards;}
    {- (ii) every field of [interest] is matched by a field of [actual]
       with a conformant name and an {e invariant} (mutually conformant)
       type;}
    {- (iii) supertypes — [actual]'s superclass conforms to [interest]'s,
       and every interface of [interest] is matched by one of [actual]'s;}
    {- (iv) every method of [interest] is matched by a method of [actual]:
       equal modifiers, conformant name, equal arity, covariant return and
       contravariant arguments {e up to a permutation} of the argument
       positions;}
    {- (v) constructors — like methods, without names and returns.}}

    Recursion through field/parameter/return types is co-inductive: a pair
    of types already under test is assumed conformant, so recursive types
    (e.g. [Person.spouse : Person]) terminate.

    The published rule text reads naturally for the direction of (2) in
    rule (iv) either way; we implement the type-safe reading (covariant
    returns, contravariant arguments), which matches the paper's stated
    goal that weakening the rules "breaks the type safety". *)

type failure = { context : string; message : string }
(** One reason a check failed; [context] names the pair/member being
    compared when the failure was recorded. *)

val pp_failure : Format.formatter -> failure -> unit

type verdict =
  | Conformant of Mapping.t
  | Not_conformant of failure list  (** Most specific failures first. *)

val verdict_ok : verdict -> bool

type t
(** A checker: configuration + description resolver + bounded result
    cache with keyed invalidation. *)

val create : ?config:Config.t -> ?cache_capacity:int ->
  resolver:Pti_typedesc.Type_description.resolver -> unit -> t
(** [config] defaults to {!Config.strict}; [cache_capacity] bounds the
    verdict cache (LRU, default 2048 entries). *)

val config : t -> Config.t

val check : t -> actual:Pti_typedesc.Type_description.t ->
  interest:Pti_typedesc.Type_description.t -> verdict

val conforms : t -> actual:Pti_typedesc.Type_description.t ->
  interest:Pti_typedesc.Type_description.t -> bool

val check_ty : t -> actual:Pti_cts.Ty.t -> interest:Pti_cts.Ty.t -> bool
(** Conformance lifted to type references (primitives compare by equality,
    arrays recurse, named types resolve and run the full check). *)

val explicit_conforms : t -> actual:Pti_typedesc.Type_description.t ->
  interest:Pti_typedesc.Type_description.t -> bool
(** Just the explicit-subtyping short-circuit, exposed for tests. *)

val names_conform : t -> interest_name:string -> string -> bool
(** Just the name rule (i), exposed for tests and the E6 sweep. *)

(** {1 Binding probes}

    The matching machinery of rules (iv) and (v), exposed so static
    analysis ([pti lint]) reports exactly what the runtime binder would
    do — a hazard flagged by lint is a hazard the proxy would act on. *)

val viable_methods : t -> actual:Pti_typedesc.Type_description.t ->
  interest:Pti_typedesc.Type_description.method_desc ->
  (Pti_typedesc.Type_description.method_desc * int array) list
(** Every method of [actual] usable as the interest signature under the
    checker's configuration (conformant name, equal arity and modifiers,
    covariant return, permutable arguments), with the argument permutation
    that makes it fit. Two or more entries means the binder's choice is
    policy-dependent (ambiguous). *)

val viable_ctors : t -> actual:Pti_typedesc.Type_description.t ->
  interest:Pti_typedesc.Type_description.ctor_desc ->
  (Pti_typedesc.Type_description.ctor_desc * int array) list
(** Rule (v) analogue of {!viable_methods}. *)

val permutation : t -> interest_params:Pti_cts.Ty.t list ->
  actual_params:Pti_cts.Ty.t list -> int array option
(** [find_permutation] itself: a bijection sending each actual parameter
    position to a conformant caller argument position, identity-first.
    [None] when arities differ or no assignment exists. *)

(** {1 Instrumentation} *)

type stats = {
  checks : int;  (** Top-level [check] calls. *)
  pair_checks : int;  (** Type-pair evaluations including recursion. *)
  cache_hits : int;  (** Verdict-cache lookups answered, any depth. *)
  cache_misses : int;  (** Verdict-cache lookups that came back empty. *)
  cache_evictions : int;  (** Entries displaced by capacity pressure. *)
  cache_size : int;
  cache_capacity : int;
  resolver_misses : int;  (** Failed description lookups. *)
  top_hits : int;  (** Top-level pairs answered from the cache. *)
  top_computes : int;  (** Top-level pairs computed from scratch. The
      reuse rate of repeated checks is
      [top_hits / (top_hits + top_computes)]. *)
  invalidated : int;  (** Entries dropped by {!note_new_type}. *)
}

val stats : t -> stats
val cache_counters : t -> Pti_obs.Lru.counters

val reuse_rate : t -> float
(** [top_hits / (top_hits + top_computes)] — the fraction of top-level
    checks answered from the verdict cache ([0.] before any check). The
    scale bench reports this as the population-scale cache-reuse curve. *)

val note_new_type : ?witness:Pti_util.Guid.t -> t -> string -> int
(** [note_new_type t name]: a description for [name] just became
    resolvable. Invalidates exactly the cached verdicts whose computation
    asked the resolver for [name] (hit or miss) — in particular verdicts
    that failed because [name] was missing — and returns how many were
    dropped. Verdicts for unrelated pairs survive, unlike {!clear_cache}.

    [witness] is the GUID of the description [name] now resolves to and
    makes the invalidation version-aware: verdicts whose computation
    resolved [name] to {e exactly this} description are statements about
    unchanged bytes and survive, while verdicts that saw a different
    version (or failed on the miss) are dropped. Without [witness] every
    verdict that resolved [name] at all is dropped — the safe
    pre-evolution behavior. A v2 publish therefore never poisons cached
    v1 verdicts (stale resolutions go) and never over-drops them
    (same-witness resolutions stay). *)

val clear_cache : t -> unit
(** Drop every cached verdict (the sledgehammer; prefer
    {!note_new_type}). Counters survive. *)
