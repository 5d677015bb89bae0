(** The sealed binary assembly frame, [PTIA]: how code travels (Figure 1,
    step 5) — download replies, eager sends and cluster replica pushes —
    and what [Repository]'s content digest hashes.

    After the assembly's name, version and requirements, each class is
    written in [PTID]'s class layout with an optional body after every
    field, constructor and method: an expression tree, one tag byte per
    {!Pti_cts.Expr.t} node, tag 0 for no body. The decoder checks what it
    reads as it reads it: each count and length is bounded by the bytes
    left and nesting by {!Payload.max_depth} levels, so its work and
    allocation are linear in its input, and every failure is an
    [Error]. *)

open Pti_cts

val to_string : Assembly.t -> string
val of_string : string -> (Assembly.t, string) result

(** {2 Member codecs shared with [PTID]}

    The readers raise [Failure] on a field that does not parse and
    {!Bytes_io.Reader.Underflow} on truncation. *)

val parsed : string -> (string -> 'a option) -> string -> 'a
(** [parsed what of_string s]: [of_string s], or [Failure] naming [what]. *)

val write_ty : Bytes_io.Writer.t -> Ty.t -> unit
val read_ty : Bytes_io.Reader.t -> Ty.t
val write_mods : Bytes_io.Writer.t -> Meta.member_mods -> unit
val read_mods : Bytes_io.Reader.t -> Meta.member_mods

val write_params :
  Bytes_io.Writer.t -> ('p -> string) -> ('p -> Ty.t) -> 'p list -> unit
(** A count, then each parameter's name and type. *)

val read_params : Bytes_io.Reader.t -> (string -> Ty.t -> 'p) -> 'p list
