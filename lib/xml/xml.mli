(** A small self-contained XML implementation.

    The paper ships type descriptions and hybrid object envelopes as XML
    messages (§5.2, §6.2); .NET's XML stack is replaced by this module. It
    supports the subset needed on the wire — elements, attributes, character
    data, CDATA, comments and processing instructions — with correct
    escaping and a tolerant parser. *)

type t =
  | Element of string * (string * string) list * t list
      (** [Element (tag, attributes, children)] *)
  | Text of string  (** Character data (unescaped form). *)
  | Cdata of string  (** CDATA section contents. *)
  | Comment of string

(** {1 Construction helpers} *)

val elt : ?attrs:(string * string) list -> string -> t list -> t
val text : string -> t
val leaf : ?attrs:(string * string) list -> string -> string -> t
(** [leaf tag s] is [elt tag [text s]]. *)

(** {1 Accessors} *)

val tag : t -> string option
val attr : string -> t -> string option
val attr_exn : string -> t -> string
val children : t -> t list

val child : string -> t -> t option
(** First child element with the given tag. *)

val child_exn : string -> t -> t
val childs : string -> t -> t list
(** All child elements with the given tag, in document order. *)

val text_content : t -> string
(** Concatenation of all text/CDATA descendants. *)

val path : string list -> t -> t option
(** [path ["a";"b"] x] descends through first-matching children. *)

(** {1 Printing}

    The compact rendering is measured, then written into a string of
    exactly its size: besides the result it allocates nothing, and an
    escaped value is copied run by run. *)

val escape_text : string -> string
val escape_attr : string -> string
(** The escaped forms; a string that needs no escaping is returned
    as is. *)

val to_string : ?decl:bool -> t -> string
(** Compact, canonical single-line rendering. [decl] prepends the
    [<?xml version="1.0"?>] declaration (default [false]). *)

val to_string_pretty : ?decl:bool -> ?indent:int -> t -> string
(** Human-readable rendering — the paper stresses that the XML part of the
    envelope is human readable. *)

val size_bytes : t -> int
(** Size in bytes of the compact rendering, computed without rendering;
    the network simulator charges messages by this. *)

(** {1 Parsing}

    One pass over the input. A name, attribute value or text run that
    holds no entity reference is cut from the input with one
    [String.sub]; only a run that holds a reference is decoded through
    a buffer. The parser allocates little more than the tree it returns:
    about one word per input byte (0.98 on a 4 179-byte assembly
    document). *)

type error = { position : int; message : string }

val pp_error : Format.formatter -> error -> unit

val max_depth : int
(** How deeply elements may nest: [1024], the root counting as 1; no
    document the middleware writes nests deeper than 10. A deeper
    document is an [Error] at the first element past the limit, found
    without recursing further, so a hostile document costs time and
    stack in proportion to the limit, not to its nesting. *)

val parse : string -> (t, error) result
(** Parses one document (prolog and trailing whitespace allowed, comments
    and processing instructions skipped). Returns the root element. *)

val parse_locating :
  attr:string -> string -> (t * (int * int) option, error) result
(** {!parse}, also returning where the root element's first attribute
    named [attr] sits in the input: [(start, stop)] spans the
    whitespace before its name through its closing quote, so cutting
    [start, stop) out of the input leaves the document without it.
    [None] when the root has no such attribute. *)

val parse_exn : string -> t
(** @raise Invalid_argument on parse errors. *)
