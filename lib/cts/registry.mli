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
(** Case-insensitive qualified-name lookup. The name is hashed and
    compared case-insensitively where it lies, so a lookup allocates
    only the option it returns; {!mem} and {!find_exn} share it and
    allocate nothing. *)

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
    superclass and interface edges, by case-insensitive qualified name:
    [super] is [sub], a class on {!super_chain} of [sub]'s class, or an
    interface {!all_interfaces} lists for it. The edges are walked in
    place, with a step budget instead of a visited set, so a check
    builds no list and allocates only the lowercased names it looks up;
    a walk that spends its budget (a cycle, or ancestors shared many
    times over) is settled on those two lists. *)

val find_method : t -> Meta.class_def -> string -> int ->
  Meta.method_def option
(** [find_method t cd name arity] resolves a method by case-insensitive name
    and arity along the superclass chain (virtual dispatch resolution).
    The walk follows at most {!cardinal}[ t] superclass links — more than
    any acyclic chain has — so a class that names itself (or a
    descendant) as its superclass ends the search with [None] instead of
    looping. Names are compared in place and the walk allocates only the
    option it returns. *)

(** {1 Object layouts} *)

type layout = private {
  ly_name : string;  (** {!Meta.qualified_name}: every instance's [cls]. *)
  ly_lineage : Meta.class_def list;
      (** {!super_chain} reversed, then the class: base class first. *)
  ly_keys : string array;
      (** The lowercased field keys the class declares or inherits, each
          once, sorted by [String.compare]: the order the payload
          encoders write an instance's fields in. *)
  ly_tys : Ty.t array;
      (** The declared type of each key, at the same index: the most
          derived declaration of that name. *)
  ly_supers : string array;
      (** The lowercased qualified names of the class's declared
          supertypes, each once: {!super_chain}, then
          {!all_interfaces}. *)
  ly_stamp : int;  (** The registry's {!stamp} when it was built. *)
  ly_defaults : Value.value array;
      (** The default of each key's type ({!Value.default_of}), at the
          same index: what a new instance holds. *)
}
(** A class's field layout, compiled once: what every instance of the
    class holds and what each field may hold. *)

val layout : t -> Meta.class_def -> layout
(** Compiles the layout of [cd]: walks {!super_chain} and
    {!all_interfaces} once, lowercases each field name and supertype
    name once and concatenates the qualified name once. The
    layout depends on the class and on what its superclass names resolve
    to, which {!register}, {!upgrade} and {!shadow} can change: it
    records the registry's {!stamp} at build time in [ly_stamp]. *)

val stamp : t -> int
(** Changes whenever a name is bound to another class: a registration,
    an upgrade, a shadow that claims a free name. No two registries
    share a stamp (a {!copy} takes a new one). A layout is what
    {!layout} would build now exactly when its [ly_stamp] is the
    registry's stamp; a cache keeps layouts only while that holds. *)

val instantiate : layout -> Value.obj
(** A new object of the layout's class, under a fresh object id: its
    key array is the layout's {!ly_keys}, shared, and its slots a copy
    of {!ly_defaults}. One record and one array. *)

val fresh_object : t -> Meta.class_def -> Value.obj * Meta.class_def list
(** [fresh_object t cd] is {!instantiate}[ (]{!layout}[ t cd)] and the
    layout's {!ly_lineage}, for callers that hold no layout: a derived
    field shadows a base field of the same (case-insensitive) name and
    keeps the derived type's default; the lineage is what
    {!Eval.construct} runs field initializers over. *)

val slot : layout -> string -> pos:int -> len:int -> hint:int -> int
(** [slot ly src ~pos ~len ~hint] is the index in {!ly_keys} of the
    field named by the [len] bytes of [src] from [pos], compared
    case-insensitively where they lie, or [-1] if the class declares no
    such field: the slot of that field in every {!instantiate}d object
    of the layout, which a decoder writes directly. The search starts
    at [hint] and wraps around: a decoder reading fields in key order
    passes the slot after the last one it found and finds each field at
    its first probe. Allocates nothing.
    @raise Invalid_argument if the range is not within [src]. *)

(** {1 Value checks} *)

val assignable : t -> sub:Ty.t -> super:Ty.t -> bool
(** Whether a value of declared type [sub] may stand where [super] is
    declared: any type where [super] is [object] (the root of every
    type), a class or interface and a declared supertype of it
    ({!is_subtype}), arrays whose element types are assignable, and a
    primitive type only to itself. *)

val admits_instance : layout -> Ty.t -> bool
(** Whether an instance of the layout's class may stand where [ty] is
    declared: [ty] is [object], the class itself, or one of its
    {!ly_supers}. What {!admits} answers for such an object, read off
    the layout; allocates nothing. Both payload decoders check each
    object they build through it. *)

val admits : t -> Ty.t -> Value.value -> bool
(** Whether a slot declared [ty] may hold [v], by [v]'s outer shape: a
    primitive type needs the matching tag; a class, interface or array
    type also takes [null]; a class or interface type takes an object
    whose class is that type or a declared subtype of it; an array type
    takes an array whose element type is {!assignable} to the declared
    element type (the items are the decoder's to check, each against
    the array's own element type); [object] takes anything. A decoder
    calls it once per value it reads, except the objects it builds
    ({!admits_instance}). On an exact class-name match it allocates
    nothing, and an object of a subclass costs the lowercased names
    {!is_subtype} looks up. *)

val missing_dependencies : t -> Meta.class_def -> string list
(** Qualified names referenced by the class (super, interfaces, field types,
    signatures) that are not yet registered — what a peer must still
    download before the class is usable. *)
