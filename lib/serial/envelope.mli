(** The hybrid XML message of Figure 3.

    What actually travels when an object is sent: a human-readable XML
    envelope listing, for every class occurring in the object graph, its
    name, GUID, assembly and download path — plus the serialized object
    itself as an embedded SOAP element or a base64 binary blob. Crucially
    the envelope does {e not} carry the type description or the code; those
    are fetched on demand (the optimistic protocol). *)

open Pti_cts

type codec = Soap | Binary

type type_entry = {
  te_name : string;  (** Qualified class name. *)
  te_guid : Pti_util.Guid.t;
  te_assembly : string;
  te_download_path : string;  (** Where the implementation can be fetched. *)
  te_version : int;
      (** Version of the carrying assembly on its publisher's chain;
          [0] = unversioned (pre-evolution sender). Version 0 is absent
          from canonical bytes, XML attributes and wire frames, so
          pre-evolution envelopes are byte-identical in both
          directions. *)
}

type payload = Psoap of Pti_xml.Xml.t | Pbinary of string

type t = { env_types : type_entry list; env_payload : payload }

type error =
  | Malformed of string
  | Unknown_type of string
  | Corrupt of string
      (** The integrity digest did not match — the envelope (or its
          binary payload's checksum) was damaged on the wire. Decoding
          never yields a mangled value: corruption surfaces here. *)
  | Unknown_handles of int list
      (** A handle-encoded envelope referenced handles the receiver's
          link table cannot resolve (cold cache, restart, eviction) —
          the signal that triggers renegotiation, never a failure of
          the payload itself. *)

val pp_error : Format.formatter -> error -> unit

val digest : t -> string
(** FNV-1a (hex) over the envelope's canonical content — every type
    entry field plus the serialized payload bytes, each as a
    length-prefixed field ["<decimal length>:<bytes>"]. Written as a
    [digest] attribute by {!to_xml}; {!of_xml} recomputes and compares
    when the attribute is present (envelopes without one are accepted,
    for pre-digest peers). The PTIE frame carries the same value, raw.

    The fields are absorbed one by one into a single running hash
    ({!Pti_util.Fnv.state}): the canonical content is never built and
    the payload never copied, and the value is the one the hash of the
    concatenated fields gives. A binary envelope's digest allocates the
    hash state, each entry's GUID rendering and the result; a SOAP
    payload is rendered once to be absorbed. *)

val make : ?version_of:(assembly:string -> int) -> Registry.t ->
  codec:codec -> download_path:(assembly:string -> string) ->
  Value.value -> t
(** Serializes the value with the chosen codec and builds a [type_entry]
    per class of the list that codec's walk returns ({!Bin_ser.encode},
    {!Soap_ser.encode_xml}): the graph's distinct classes, met in the same
    single walk that writes the payload. The root's class comes first,
    the rest sorted by qualified name. [version_of] supplies
    the published chain version per assembly (default: 0, unversioned).
    @raise Invalid_argument if a class in the graph is not registered on
    the sending host. *)

val required_classes : t -> string list
(** Names the receiver must have loaded before the payload can decode. *)

val decode_payload :
  ?layout:(Meta.class_def -> Registry.layout) ->
  Registry.t -> t -> (Value.value, error) result
(** Fails with [Unknown_type] when a class is not (yet) loaded — the signal
    that triggers the download subprotocol, and with [Corrupt] when a
    value does not inhabit the type its place declares
    ({!Bin_ser.decode}, {!Soap_ser.decode}). [layout] supplies class
    layouts, as a per-peer cache does (default: compiled once per class
    per decode). Classes named by the
    envelope's type entries decode {e version-pinned}: resolution goes by
    the entry's GUID first and falls back to by-name lookup only when
    that GUID was never registered — so a receiver that upgraded a type
    mid-flight still decodes old envelopes against the old version (the
    upgrade-safety invariant), while pre-evolution registries (where name
    and GUID agree) behave exactly as before. *)

val to_xml : t -> Pti_xml.Xml.t
val of_xml : Pti_xml.Xml.t -> (t, error) result
val to_string : t -> string
val of_string : string -> (t, error) result

(** {2 Negotiated type handles}

    Wire-efficiency layer: after first contact, a type entry on a link
    is a small integer. [`Bind h] ships the full entry together with
    its assigned handle (first use), [`Ref h] ships only the handle;
    there is no third slot form; an envelope that needs no handles
    travels as classic XML. Handle-encoded envelopes travel only as
    PTIE frames, which carry two checks: the semantic digest over the
    fully reconstructed envelope (a drifted table binding can never
    deliver a mis-typed payload) and the sealed frame's checksum over
    the literal bytes (integrity without a table, see
    {!Bytes_io.seal}). *)

type handle_form = [ `Bind of int | `Ref of int ]

val to_string_h : t -> form:(type_entry -> handle_form) -> string
(** Renders with the per-entry form chosen by [form] — typically a
    lookup in the sender side of a {!Handle_table} — as a compact
    sealed binary frame ([PTIE] magic, raw payload bytes, no
    base64), sealed in place ({!Bytes_io.Writer.seal}). *)

val of_string_h :
  resolve:(int -> type_entry option) ->
  string ->
  (t * (int * type_entry) list, error) result
(** Accepts a PTIE frame or a classic XML envelope. A classic envelope
    decodes exactly as {!of_string} does and returns no bindings. For
    PTIE, [resolve] consults the receiver's link table; bindings shipped
    in the same frame are visible to its own refs, and are returned so
    the caller can install them. The frame is checked and read where it
    lies: its checksum and digest are compared in place, and only the
    payload bytes are copied out. Fails with {!Unknown_handles} when refs
    cannot be resolved (wire-intact — the caller should NAK and park),
    with [Corrupt] on checksum or digest mismatch, and with [Malformed]
    on a checksum-valid frame whose body does not parse (an unknown
    slot tag, for instance). *)

val wire_ok : string -> bool
(** Frame-level integrity probe: the frame parses and its PTIE checksum
    (or, for classic envelopes, semantic digest) matches. Unknown handles
    are a table condition, not wire damage, and leave the frame ok. *)

(** {2 Binary type-entry codec}

    The one rendering of a type entry on a binary wire, shared by PTIE
    slots and PTIH bind frames ({!Handle_table.encode_bindings}). An
    entry is four varint-prefixed strings: name, GUID, assembly and
    download path. Both formats ship entries as bindings (handle,
    entry); the bindings' versions travel apart, in an optional
    trailing block of one varint per binding in wire order. The block
    is written only when some entry is versioned, so pre-evolution
    frames stay byte-identical; a decoder probes for it with
    {!Bytes_io.Reader.at_end}. *)

val write_entry : Bytes_io.Writer.t -> type_entry -> unit
(** The four strings; the version is left to {!write_versions}. *)

val read_entry : Bytes_io.Reader.t -> type_entry
(** Reads one entry, at version 0.
    @raise Failure on an unparsable GUID
    @raise Bytes_io.Reader.Underflow on truncated input *)

val write_versions : Bytes_io.Writer.t -> (int * type_entry) list -> unit
(** The trailing version block for [binds], or nothing when no entry
    is versioned. *)

val read_versions :
  Bytes_io.Reader.t -> (int * type_entry) list -> (int * type_entry) list
(** [binds] with their versions from the trailing block, or unchanged
    when the input is at its end (no block).
    @raise Bytes_io.Reader.Underflow on a truncated block *)
