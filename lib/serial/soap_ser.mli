(** SOAP-style XML object-graph serializer (§6.2).

    Mirrors SOAP section-5 encoding in miniature: every object is an
    element carrying an [id]; repeated occurrences become [<ref href>]
    elements (multi-ref), which also makes cycles serializable. Encoding
    walks the object graph and builds an XML tree, so it is markedly more
    expensive than decoding — the asymmetry the paper measures in §7.3. *)

open Pti_cts

type error =
  | Malformed of string
  | Unknown_type of string

val pp_error : Format.formatter -> error -> unit

val encode_xml : Value.value -> Pti_xml.Xml.t * string list
(** The payload element, and the distinct classes of the objects the walk
    met, exactly as {!Bin_ser.encode} lists them: first-visit order,
    compared case-insensitively, each recorded as the walk enters its
    object. *)

val encode : Value.value -> string
(** The XML text of {!encode_xml}, wrapped in a [<soap:Envelope>]. *)

val decode_xml : ?resolve:(string -> Meta.class_def option) -> Registry.t ->
  Pti_xml.Xml.t -> (Value.value, error) result
val decode : ?resolve:(string -> Meta.class_def option) -> Registry.t ->
  string -> (Value.value, error) result
(** Objects start as {!Registry.fresh_object} and keep only the payload
    fields their class declares, as in {!Bin_ser.decode}. [resolve]
    overrides class-by-name lookup (default [Registry.find reg]). *)
