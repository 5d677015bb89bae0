(** 128-bit globally unique identifiers.

    The paper relies on the platform's notion of type identity; .NET uses
    128-bit GUIDs (§5, footnote 5). Two type definitions are {e equal} in
    the conformance rules iff their GUIDs are equal. *)

type t

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val make : Splitmix.t -> t
(** Draw a fresh GUID from a deterministic stream. *)

val of_name : string -> t
(** Deterministic, content-addressed GUID (FNV-1a over the name, widened).
    Used for well-known types such as the CTS primitives so that every peer
    agrees on their identity without coordination. *)

val to_string : t -> string
(** Canonical [xxxxxxxx-xxxx-xxxx-xxxx-xxxxxxxxxxxx] rendering, lowercase.
    Allocates only the string. *)

val of_string : string -> t option
(** Parses the canonical rendering (case-insensitive); [None] if malformed. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit

val nil : t
(** The all-zero GUID; never generated by {!make}. *)
