(** Expression AST for method and constructor bodies.

    The paper's platform (the CLR) executes real method bodies; here methods
    carry a small interpreted AST so that invocation — direct or through a
    dynamic proxy — is a real, measurable operation and behavioural tests
    can observe effects. *)

type const =
  | Cnull
  | Cbool of bool
  | Cint of int
  | Cfloat of float
  | Cstring of string
  | Cchar of char

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Concat  (** String concatenation. *)

type unop = Neg | Not

type t =
  | Const of const
  | This
  | Var of string  (** Parameter or local. *)
  | Let of string * t * t
  | Assign of string * t  (** Re-binds a local/parameter; evaluates to it. *)
  | Field_get of t * string
  | Field_set of t * string * t  (** Evaluates to the assigned value. *)
  | Call of t * string * t list  (** Virtual dispatch on the receiver. *)
  | Static_call of string * string * t list  (** [class, method, args]. *)
  | New of string * t list
  | New_array of Ty.t * t list
  | Index_get of t * t
  | Index_set of t * t * t
  | Array_length of t
  | If of t * t * t
  | While of t * t  (** Evaluates to null. *)
  | Seq of t list  (** Evaluates to the last expression (null if empty). *)
  | Binop of binop * t * t
  | Unop of unop * t
  | Throw of t
      (** Raise a user exception carrying the value. Uncaught throws
          surface as {!Eval.Runtime_error} at the host boundary. *)
  | Try of t * string * t
      (** [Try (body, var, handler)]: on a user throw (or a runtime
          error, whose message is bound as a string) evaluate [handler]
          with [var] bound to the carried value. *)

val binop_name : binop -> string
val unop_name : unop -> string

val pp : Format.formatter -> t -> unit
(** S-expression-ish rendering for diagnostics and the assembly codec. *)

val to_string : t -> string

(** {1 Convenience constructors} *)

val int : int -> t
val str : string -> t
val bool : bool -> t
val null : t
val get : string -> t
(** [get f] is [Field_get (This, f)]. *)

val set : string -> t -> t
(** [set f v] is [Field_set (This, f, v)]. *)
