(** Reflection over the CTS — the capability §5 relies on to build type
    descriptions without shipping code.

    The CLR/Java reflection APIs the paper uses are modeled by queries over
    the registry: a host can enumerate the structure (fields, methods,
    constructors, supertypes) of any type it has loaded. *)

val type_of_value : Registry.t -> Value.value -> Meta.class_def option
(** Runtime class of an object value ([None] for primitives, nulls, and
    proxies, whose runtime type is the wrapped target's). *)

val methods : Meta.class_def -> Meta.method_def list
(** Declared (own) methods. *)

val all_methods : Registry.t -> Meta.class_def -> Meta.method_def list
(** Own + inherited methods; an override (same name and arity) hides the
    inherited one. Document order: most-derived first. *)

val referenced_types : Meta.class_def -> string list
(** Qualified names appearing anywhere in the class surface (sorted,
    deduplicated) — the closure seed for assembly packaging. *)

val implements : Registry.t -> Meta.class_def -> Meta.class_def -> bool
(** [implements reg cd iface]: every method of [iface] has a matching
    (name + arity, case-insensitive) method on [cd] or its ancestors. This
    is Läufer-style structural conformance against an interface — strictly
    weaker than the paper's implicit structural conformance, provided for
    comparison in tests and the E6 ablation. *)
