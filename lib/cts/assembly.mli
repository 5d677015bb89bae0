(** Assemblies: the unit of code distribution.

    In the paper, once types conform the receiver downloads the *assembly*
    implementing the sender's type from a download path carried in the
    envelope (§6.1). An assembly bundles class definitions (with bodies)
    plus the names of assemblies it depends on. *)

type t = {
  asm_name : string;
  asm_version : int;
  asm_classes : Meta.class_def list;
  asm_requires : string list;  (** Names of prerequisite assemblies. *)
}

val make : ?version:int -> ?requires:string list -> name:string ->
  Meta.class_def list -> t
(** Stamps every class's [td_assembly] with [name] and validates each.
    @raise Invalid_argument on validation failure. *)

val class_names : t -> string list
(** Qualified names, sorted. *)

val find_class : t -> string -> Meta.class_def option

val load : Registry.t -> t -> unit
(** Registers every class; idempotent for identical definitions.
    @raise Registry.Duplicate on a conflicting definition. *)

val upgrade : Registry.t -> t -> unit
(** Schema evolution: {!Registry.upgrade} every class — each qualified
    name now resolves to this assembly's definition while previously
    registered versions stay reachable by GUID.
    @raise Registry.Duplicate on a GUID collision. *)

val shadow : Registry.t -> t -> unit
(** {!Registry.shadow} every class: reachable by GUID, names left to
    whatever newer revision holds them — loading an {e older} revision
    than the live one. @raise Registry.Duplicate on a GUID collision. *)

val external_dependencies : t -> string list
(** Qualified type names referenced but not defined by this assembly. *)
