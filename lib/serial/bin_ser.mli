(** Compact binary object-graph serializer — the paper's "binary
    serialization" payload option (§6.2).

    Handles shared references and cycles through per-graph object ids, and
    interns class and field names in a string table. Like the platform
    serializers the paper discusses (§5.2), {e decoding requires the
    object's classes to be loaded}: decoding against a registry missing a
    class fails with [Unknown_type], which is what forces the protocol to
    download code first. *)

open Pti_cts

type error =
  | Malformed of string
  | Unknown_type of string  (** Qualified class name not in the registry. *)
  | Corrupt of string
      (** The 8-byte FNV-1a checksum after the magic does not match the
          body — the bytes were damaged in transit. Reported before any
          structural parsing, so a flipped byte can never surface as a
          mangled value. *)

val pp_error : Format.formatter -> error -> unit

val encode : Value.value -> string * string list
(** The payload bytes, and the distinct classes of the objects the walk
    met: in first-visit order (fields in name order), compared
    case-insensitively, each recorded as the walk enters its object.
    {!Envelope.make} builds its type entries from that list, so a send
    walks its graph once. Proxies are serialized through their wrapped
    target (a proxy is a local artifact; what travels is the real
    object). *)

val decode : ?resolve:(string -> Meta.class_def option) -> Registry.t ->
  string -> (Value.value, error) result
(** Rebuilds the graph with fresh object ids. Each object starts as
    {!Registry.fresh_object} of its (loaded) class: fields the class does
    not declare are dropped, declared fields missing from the payload
    keep their default values. [resolve] overrides class-by-name lookup
    (default [Registry.find reg]) — the envelope layer passes a
    version-pinned resolver so an upgraded registry still decodes
    in-flight payloads against the version they were encoded with. *)

