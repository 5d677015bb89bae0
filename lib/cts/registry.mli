(** Per-host registry of loaded type definitions.

    Each peer owns a registry; loading an assembly (downloaded code)
    registers its classes. Lookup is by case-insensitive qualified name or
    by GUID, mirroring the two identities the paper uses (names for the
    structural rules, GUIDs for equality). *)

type t

exception Duplicate of string
(** Raised when registering a second, structurally different class under a
    qualified name (or GUID) already taken. Re-registering the identical
    definition is idempotent. *)

val create : unit -> t

val register : t -> Meta.class_def -> unit
(** @raise Duplicate, @raise Invalid_argument if {!Meta.validate} fails. *)

val upgrade : t -> Meta.class_def -> unit
(** Schema evolution: bind the class's qualified name to this (newer)
    definition, {e keeping} any previously registered definition
    reachable by its GUID — in-flight envelopes stamped with the old
    version's GUID keep resolving while new lookups by name see the new
    version. Upgrading to the identical definition is idempotent.
    @raise Duplicate if the new GUID is already bound to a different
    definition, @raise Invalid_argument if {!Meta.validate} fails. *)

val shadow : t -> Meta.class_def -> unit
(** The downgrade-safe counterpart of {!upgrade}: make the definition
    reachable by GUID {e without} disturbing what its qualified name
    resolves to (the name is bound only if nothing holds it yet) — how
    a host already running a newer revision absorbs the older classes
    an in-flight envelope still decodes against. Idempotent on the
    identical definition.
    @raise Duplicate if the GUID is bound to a different definition,
    @raise Invalid_argument if {!Meta.validate} fails. *)

val find : t -> string -> Meta.class_def option
(** Case-insensitive qualified-name lookup. *)

val find_exn : t -> string -> Meta.class_def
(** @raise Not_found *)

val find_by_guid : t -> Pti_util.Guid.t -> Meta.class_def option
val mem : t -> string -> bool
val mem_guid : t -> Pti_util.Guid.t -> bool
val all : t -> Meta.class_def list
val cardinal : t -> int

val copy : t -> t
(** Snapshot; used by tests to fork peer states. *)

(** {1 Hierarchy queries} *)

val super_chain : t -> Meta.class_def -> Meta.class_def list
(** Superclasses from the immediate parent outwards. Unresolvable or cyclic
    links terminate the chain. *)

val all_interfaces : t -> Meta.class_def -> Meta.class_def list
(** Transitive closure of implemented/extended interfaces (deduplicated). *)

val is_subtype : t -> sub:string -> super:string -> bool
(** Declared (explicit) subtyping: reflexive-transitive closure over
    superclass and interface edges, by case-insensitive qualified name. *)

val find_method : t -> Meta.class_def -> string -> int ->
  (Meta.class_def * Meta.method_def) option
(** [find_method t cd name arity] resolves a method by case-insensitive name
    and arity along the superclass chain (virtual dispatch resolution).
    The walk follows at most {!cardinal}[ t] superclass links — more than
    any acyclic chain has — so a class that names itself (or a
    descendant) as its superclass ends the search with [None] instead of
    looping. The bound costs a counter, not an allocation. *)

val fresh_object : t -> Meta.class_def -> Value.obj * Meta.class_def list
(** [fresh_object t cd] is a new object of class [cd] holding exactly the
    fields [cd] declares or inherits, each at the default of its type
    ({!Value.default_of}). The fields are installed base class first over
    {!super_chain}, so a derived field shadows a base field of the same
    (case-insensitive) name and keeps the derived type's default. The
    list is that chain, base class first and [cd] last — what
    {!Eval.construct} runs field initializers over.

    Its callers are {!Eval.construct} and the two payload decoders, which
    keep a payload field only if the object already holds it
    ({!Value.update_field}). *)

val missing_dependencies : t -> Meta.class_def -> string list
(** Qualified names referenced by the class (super, interfaces, field types,
    signatures) that are not yet registered — what a peer must still
    download before the class is usable. *)
