(** SOAP-style XML object-graph serializer (§6.2).

    Mirrors SOAP section-5 encoding in miniature: every object is an
    element carrying an [id]; repeated occurrences become [<ref href>]
    elements (multi-ref), which also makes cycles serializable. Encoding
    walks the object graph and builds an XML tree, so it is markedly more
    expensive than decoding — the asymmetry the paper measures in §7.3. *)

open Pti_cts

type error = Payload.error =
  | Malformed of string
  | Unknown_type of string
  | Corrupt of string
      (** A value its place does not admit: the payload parsed, but a
          field, item or object does not inhabit its declared type. *)

val pp_error : Format.formatter -> error -> unit

val encode_xml : Value.value -> Pti_xml.Xml.t * string list
(** The payload element, and the distinct classes of the objects the walk
    met, exactly as {!Bin_ser.encode} lists them: first-visit order,
    compared case-insensitively, each recorded as the walk enters its
    object. *)

val encode : Value.value -> string
(** The XML text of {!encode_xml}, wrapped in a [<soap:Envelope>]. *)

val decode_xml :
  ?resolve:(string -> Meta.class_def option) ->
  ?layout:(Meta.class_def -> Registry.layout) ->
  Registry.t -> Pti_xml.Xml.t -> (Value.value, error) result

val decode :
  ?resolve:(string -> Meta.class_def option) ->
  ?layout:(Meta.class_def -> Registry.layout) ->
  Registry.t -> string -> (Value.value, error) result
(** Built through {!Payload}, the graph builder {!Bin_ser.decode} uses
    too: objects start as {!Registry.instantiate} of their class's
    layout and keep only the payload fields their class declares, and
    every value is checked as it is read against the type its place
    declares: a value its place does not admit fails with [Corrupt].
    Object ids must run from 1 in document order, as the encoder
    numbers them; any other id is [Malformed], and so is nesting past
    {!Payload.max_depth}. [resolve]
    overrides class-by-name lookup (default [Registry.find reg]);
    [layout] supplies each class's layout (default {!Registry.layout}[
    reg], compiled once per class per decode). *)
