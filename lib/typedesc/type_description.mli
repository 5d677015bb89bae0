(** Type descriptions (§5): the code-free representation of a type that
    travels instead of the implementation.

    A description carries the type's identity (GUID), its structure — name,
    namespace, supertype and interface names, field types, method and
    constructor signatures — and the assembly (download unit) implementing
    it. Deliberately {e non-recursive}: field/parameter types are referenced
    by name only, so a description stays small and the receiver can reuse
    descriptions it already holds (§5.2).

    A description is exactly a class without its code: {!t} has no place
    for a body, and its XML form is the body-less class rendered by
    [Pti_serial.Assembly_xml]'s class codec under its own root element,
    [<typeDescription>]. *)

open Pti_cts

type param_desc = { pd_name : string; pd_ty : Ty.t }

type method_desc = {
  md_name : string;
  md_params : param_desc list;
  md_return : Ty.t;
  md_mods : Meta.member_mods;
}

type field_desc = {
  fd_name : string;
  fd_ty : Ty.t;
  fd_mods : Meta.member_mods;
}

type ctor_desc = { cd_params : param_desc list; cd_mods : Meta.member_mods }

type t = {
  ty_name : string;
  ty_namespace : string list;
  ty_guid : Pti_util.Guid.t;
  ty_kind : Meta.kind;
  ty_super : string option;
  ty_interfaces : string list;
  ty_fields : field_desc list;
  ty_ctors : ctor_desc list;
  ty_methods : method_desc list;
  ty_assembly : string;
}

val of_class : Meta.class_def -> t
(** Introspection: project a loaded class onto its description. *)

val to_class : t -> Meta.class_def
(** The body-less class the description stands for — what {!to_xml}
    renders. Not loadable code. *)

val qualified_name : t -> string

val equals : t -> t -> bool
(** Type {e equality} of the conformance rules: GUID identity. *)

val fingerprint : t -> string
(** Canonical digest of the structure, case-normalized, excluding GUID and
    assembly. Members are sorted, so declaration order does not matter. *)

val equivalent : t -> t -> bool
(** Type {e equivalence}: identical structure regardless of identity —
    [fingerprint] equality. *)

val method_arity : method_desc -> int
val signature : method_desc -> string

(** {1 Sizes} *)

val size_bytes : t -> int
(** Size of the XML rendering, the description's size E2 reports. A
    transfer is charged the bytes actually sent, PTID or XML
    ([Message.size]). *)

(** {1 XML codec (§5.2)} *)

val to_xml : t -> Pti_xml.Xml.t
(** {!to_class} under [<typeDescription>]. *)

val of_xml : Pti_xml.Xml.t -> (t, string) result
(** A [<typeDescription>] element read as a class; any [<init>]/[<body>]
    children must parse and are dropped. *)

val to_xml_string : ?pretty:bool -> t -> string
val of_xml_string : string -> (t, string) result

(** {1 Binary codec}

    Compact wire form negotiated per link ([Tdesc_request.binary_ok]);
    XML remains the default and the interop fallback. Checksummed like
    every binary frame, so wire corruption surfaces as an [Error], never
    as a mangled description. *)

val to_binary_string : t -> string
val of_binary_string : string -> (t, string) result

val is_binary : string -> bool
(** True iff the string starts with the binary-codec magic. *)

val of_wire_string : string -> (t, string) result
(** Self-describing parse: {!of_binary_string} when the magic matches,
    {!of_xml_string} otherwise. *)

(** {1 Resolvers} *)

type resolver = string -> t option
(** How the conformance checker looks up descriptions of referenced types
    (supertypes, field types, parameter types) by qualified name. On a peer
    this is backed by the description cache plus a network fetch. *)

val registry_resolver : Registry.t -> resolver
(** Resolver over locally loaded code — the local/offline case. *)

val table_resolver : t list -> resolver
(** Resolver over an explicit list of descriptions (case-insensitive). *)

val chain : resolver -> resolver -> resolver
(** Try the first, fall back to the second. *)
