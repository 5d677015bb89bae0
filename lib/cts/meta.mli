(** Metadata: class and interface definitions.

    This is the CTS analogue of the CLR's type metadata. Conformance rules
    compare the *description* projection of this metadata (no bodies); the
    evaluator runs the bodies. *)

type visibility = Public | Protected | Private

type member_mods = { visibility : visibility; static : bool; virtual_ : bool }

val public_mods : member_mods
(** [{ visibility = Public; static = false; virtual_ = true }] — the default
    for members built by the {!Builder} DSL. *)

val equal_mods : member_mods -> member_mods -> bool

type param = { param_name : string; param_ty : Ty.t }

type field_def = {
  f_name : string;
  f_ty : Ty.t;
  f_mods : member_mods;
  f_init : Expr.t option;  (** Evaluated at construction, before the ctor. *)
}

type method_def = {
  m_name : string;
  m_params : param list;
  m_return : Ty.t;
  m_mods : member_mods;
  m_body : Expr.t option;  (** [None] on interfaces. *)
}

type ctor_def = {
  c_params : param list;
  c_mods : member_mods;
  c_body : Expr.t option;
}

type kind = Class | Interface

type class_def = {
  td_name : string;  (** Simple name. *)
  td_namespace : string list;
  td_guid : Pti_util.Guid.t;  (** Platform type identity (§5, fn. 5). *)
  td_kind : kind;
  td_super : string option;  (** Qualified name; [None] for roots. *)
  td_interfaces : string list;  (** Qualified names. *)
  td_fields : field_def list;
  td_ctors : ctor_def list;
  td_methods : method_def list;
  td_assembly : string;  (** Owning assembly — the code download unit. *)
}

val qualified_name : class_def -> string
(** [namespace.name], the key under which the class registers. *)

val arity : method_def -> int

val signature : method_def -> string
(** Human-readable [name(ty, ..) : ret] string for diagnostics. *)

val visibility_to_string : visibility -> string
val visibility_of_string : string -> visibility option

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val strip_bodies : class_def -> class_def
(** Drop every body and initializer — the shape that travels as a type
    description (descriptions must never carry code, §5.1). *)

val validate : class_def -> (unit, string) result
(** Structural well-formedness: valid identifiers, no duplicate fields, no
    duplicate method name+arity, interfaces carry no bodies/fields/ctors. *)
