(** Type references of the common type system.

    A type reference either names a primitive, refers to a declared class or
    interface by qualified name, or is an array of another reference.
    References are resolved against a {!Registry.t} (locally) or against a
    description resolver (remotely, during conformance checking). *)

type t =
  | Void
  | Bool
  | Int
  | Float
  | String
  | Char
  | Named of string  (** Qualified name, e.g. ["demo.Person"]. *)
  | Array of t

val equal : t -> t -> bool
(** Structural equality; [Named] comparison is case-insensitive, consistent
    with the paper's case-insensitive name rule. *)

val compare : t -> t -> int

val to_string : t -> string
(** Wire rendering: primitives by keyword, arrays with a ["[]"] suffix. *)

val max_rank : int
(** 1 024: the deepest array rank {!of_string} reads. *)

val of_string : string -> t option
(** Inverse of {!to_string}, in one scan of its input; [None] on
    malformed input (e.g. dangling ["[]"]) and on a rank above
    {!max_rank}. *)

val of_string_exn : string -> t

val named_roots : t -> string list
(** The qualified names mentioned by the reference (at most one today, but
    kept as a list for future generic types). Used to know which type
    descriptions a conformance check may need to fetch. *)

val pp : Format.formatter -> t -> unit
