(** Runtime values of the CTS.

    An object is the layout it was built from: the qualified name of its
    runtime class, the sorted key array of that class's layout, shared
    by every instance and never copied, and a value array with each
    field at its key's index. Proxies carry an arbitrary dispatch
    closure, which is how the dynamic-proxy library interposes on
    invocation without a circular dependency on the evaluator. *)

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
  keys : string array;
      (** The field names, each once, sorted by [String.compare]: the
          layout's lowercased keys for an object built from one
          ([Registry.instantiate]), the names as given for one built by
          {!make_obj}. The payload encoders write fields in this
          order. *)
  slots : value array;  (** [slots.(i)] holds field [keys.(i)]. *)
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

val make_obj : string -> (string * value) list -> obj
(** [make_obj cls fields]: an object of class [cls] holding exactly
    [fields], keys kept as given (any case, declared or not) and values
    unchecked, under a fresh object id. It encodes as an object of that
    class with those fields.
    @raise Invalid_argument if a key appears twice. *)

val slot_of : obj -> string -> int
(** The index of the field [name] in [keys] (compared
    case-insensitively, in place), or [-1] when the object holds no
    such field. Allocates nothing. *)

val get_field : obj -> string -> value option
(** Case-insensitive field read; allocates only its [Some]. *)

val set_field : obj -> string -> value -> unit
(** Case-insensitive field write, in place, allocating nothing. An
    object holds the fields it was built with and no others.
    @raise Invalid_argument if the object holds no field [name]. *)

val equal_shallow : value -> value -> bool
(** Primitive equality; objects/arrays/proxies compare by identity. *)

val equal_deep : value -> value -> bool
(** Structural equality on the object graph; proxies compare by target.
    Handles cycles (bounded by a visited set on object id pairs). *)

val pp : Format.formatter -> value -> unit
(** Debug rendering (cycle-safe, depth-limited). *)

val to_string : value -> string
