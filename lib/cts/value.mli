(** Runtime values of the CTS.

    Objects carry a mutable field table and the qualified name of their
    runtime class; proxies carry an arbitrary dispatch closure, which is how
    the dynamic-proxy library interposes on invocation without a circular
    dependency on the evaluator. *)

type value =
  | Vnull
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vchar of char
  | Vobj of obj
  | Varr of arr
  | Vproxy of proxy

and obj = {
  oid : int;  (** Host-unique object id (also used by serializers for refs). *)
  cls : string;  (** Qualified name of the runtime class. *)
  fields : (string, value) Hashtbl.t;  (** Keys are lowercased field names. *)
}

and arr = { elem_ty : Ty.t; items : value array }

and proxy = {
  px_interface : string;
      (** Qualified name of the type of interest the proxy presents as. *)
  px_target : value;  (** The wrapped, conformant object. *)
  px_invoke : string -> value list -> value;
      (** Dispatch: translates and forwards an invocation. *)
}

val fresh_oid : unit -> int
(** Monotonic id supply (per process). *)

val default_of : Ty.t -> value
(** Zero value of a type: [0], [0.], [false], [""], null for references. *)

val type_name : value -> string
(** Runtime type rendering, e.g. ["demo.Person"], ["int"], ["proxy<I>"],
    for diagnostics. *)

val get_field : obj -> string -> value option
(** Case-insensitive field read. *)

val set_field : obj -> string -> value -> unit

val equal_shallow : value -> value -> bool
(** Primitive equality; objects/arrays/proxies compare by identity. *)

val equal_deep : value -> value -> bool
(** Structural equality on the object graph; proxies compare by target.
    Handles cycles (bounded by a visited set on object id pairs). *)

val pp : Format.formatter -> value -> unit
(** Debug rendering (cycle-safe, depth-limited). *)

val to_string : value -> string
