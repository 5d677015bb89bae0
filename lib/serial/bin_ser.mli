(** Compact binary object-graph serializer — the paper's "binary
    serialization" payload option (§6.2).

    Handles shared references and cycles through per-graph object ids, and
    interns class and field names in a string table. Like the platform
    serializers the paper discusses (§5.2), {e decoding requires the
    object's classes to be loaded}: decoding against a registry missing a
    class fails with [Unknown_type], which is what forces the protocol to
    download code first. *)

open Pti_cts

type error = Payload.error =
  | Malformed of string
  | Unknown_type of string  (** Qualified class name not in the registry. *)
  | Corrupt of string
      (** The 8-byte FNV-1a checksum after the magic does not match the
          body — the bytes were damaged in transit, reported before any
          structural parsing, so a flipped byte can never surface as a
          mangled value — or a value does not inhabit its declared
          type. *)

val pp_error : Format.formatter -> error -> unit

val encode : Value.value -> string * string list
(** The payload bytes, and the distinct classes of the objects the walk
    met: in first-visit order (fields in name order), compared
    case-insensitively, each recorded as the walk enters its object.
    {!Envelope.make} builds its type entries from that list, so a send
    walks its graph once. Proxies are serialized through their wrapped
    target (a proxy is a local artifact; what travels is the real
    object).

    Each object's fields are written in the order of its key array,
    which is sorted: undeclared fields travel, missing ones do not. The
    walk works in per-domain scratch (the writer, the interned names,
    the objects met), reset at the start of every encode, and seals the
    frame in place: for a small object it allocates little more than
    the frame and the class list. *)

val decode :
  ?resolve:(string -> Meta.class_def option) ->
  ?layout:(Meta.class_def -> Registry.layout) ->
  Registry.t -> string -> (Value.value, error) result
(** Rebuilds the graph with fresh object ids through {!Payload}, the
    graph builder both payload codecs share; this module reads only
    PTIB's syntax. Each object starts as {!Registry.instantiate} of its
    (loaded) class's layout: fields the class does not declare are
    dropped, declared fields missing from the payload keep their
    default values. A payload field name is matched against the
    layout's keys where it lies in the input ({!Registry.slot}).

    Every value is checked as it is read against the type its place
    declares ({!Registry.admits}): a field against its slot's type, an
    array item against the array's element type; the root and a field
    the class does not declare take anything. A value its place does
    not admit (a string in an [int] field, arrays in an [int[]], an
    object of an unrelated class) fails the decode with [Corrupt].
    Names and objects must be numbered in the order they first appear,
    as {!encode} numbers them; any other id fails with [Malformed], and
    so do arrays and objects nested deeper than {!Payload.max_depth}
    (1 024), refused at the first level past it.

    [resolve] overrides class-by-name lookup (default [Registry.find
    reg]) — the envelope layer passes a version-pinned resolver so an
    upgraded registry still decodes in-flight payloads against the
    version they were encoded with. [layout] supplies each class's
    layout (default {!Registry.layout}[ reg], compiled once per class
    per decode); a caller that caches layouts passes its cache. *)
