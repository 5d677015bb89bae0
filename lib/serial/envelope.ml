open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module B64 = Pti_util.Base64
module Fnv = Pti_util.Fnv

type codec = Soap | Binary

type type_entry = {
  te_name : string;
  te_guid : Guid.t;
  te_assembly : string;
  te_download_path : string;
  te_version : int;
      (* Version of the carrying assembly on its publisher's chain;
         0 = unversioned (pre-evolution sender). Kept out of canonical
         bytes and wire frames when 0 so pre-evolution digests and
         encodings are unchanged. *)
}

type payload = Psoap of Xml.t | Pbinary of string

type t = { env_types : type_entry list; env_payload : payload }

type error =
  | Malformed of string
  | Unknown_type of string
  | Corrupt of string
  | Unknown_handles of int list

let pp_error ppf = function
  | Malformed m -> Format.fprintf ppf "malformed envelope: %s" m
  | Unknown_type ty -> Format.fprintf ppf "unknown type %S" ty
  | Corrupt m -> Format.fprintf ppf "corrupt envelope: %s" m
  | Unknown_handles hs ->
      Format.fprintf ppf "unknown type handles [%s]"
        (String.concat "; " (List.map string_of_int hs))

(* The integrity digest covers the envelope's canonical content: the
   semantic fields of the envelope, not its XML rendering, so the check
   is immune to whitespace/attribute-order differences between writer
   and reader. Every field is length-prefixed (netstring style,
   "<decimal length>:<bytes>"): the binary payload is arbitrary bytes, so
   no in-band separator is safe — a 0x00/0x01 scheme let two distinct
   envelopes share a digest. The fields are absorbed one by one into
   one FNV-1a state, which hashes their concatenation without building
   it or copying the payload. *)
let absorb st s =
  Fnv.feed_int st (String.length s);
  Fnv.feed_char st ':';
  Fnv.feed_string st s

let rec decimal_digits n = if n < 10 then 1 else 1 + decimal_digits (n / 10)

let rec absorb_entries st = function
  | [] -> ()
  | e :: rest ->
      absorb st e.te_name;
      absorb st (Guid.to_string e.te_guid);
      absorb st e.te_assembly;
      absorb st e.te_download_path;
      (* Versioned entries fold the version into the digest, as the
         field "v<version>"; version 0 stays absent so pre-evolution
         envelopes keep their digests. *)
      if e.te_version > 0 then begin
        Fnv.feed_int st (1 + decimal_digits e.te_version);
        Fnv.feed_char st ':';
        Fnv.feed_char st 'v';
        Fnv.feed_int st e.te_version
      end;
      absorb_entries st rest

let digest_state t =
  let st = Fnv.init () in
  absorb_entries st t.env_types;
  (match t.env_payload with
  | Psoap x ->
      absorb st "soap";
      absorb st (Xml.to_string x)
  | Pbinary p ->
      absorb st "binary";
      absorb st p);
  st

let digest t = Fnv.to_hex (Fnv.value (digest_state t))

(* The payload walk also lists the graph's distinct classes, root's
   first: one walk serves both halves of the envelope. *)
let make ?(version_of = fun ~assembly:_ -> 0) reg ~codec ~download_path v =
  let env_payload, classes =
    match codec with
    | Soap ->
        let x, classes = Soap_ser.encode_xml v in
        (Psoap x, classes)
    | Binary ->
        let b, classes = Bin_ser.encode v in
        (Pbinary b, classes)
  in
  let env_types =
    List.map
      (fun cls ->
        match Registry.find reg cls with
        | None ->
            invalid_arg
              (Printf.sprintf "Envelope.make: class %S not registered" cls)
        | Some cd ->
            {
              te_name = Meta.qualified_name cd;
              te_guid = cd.Meta.td_guid;
              te_assembly = cd.Meta.td_assembly;
              te_download_path = download_path ~assembly:cd.Meta.td_assembly;
              te_version = version_of ~assembly:cd.Meta.td_assembly;
            })
      classes
  in
  (* Deterministic emission order: the root's class stays first (the
     receiver's fast path and eager prefetch key off it), the tail is
     sorted by qualified name. The walk visits fields in name order, not
     [Hashtbl] order, so the list never depends on stdlib hash
     internals. *)
  let env_types =
    match env_types with
    | root :: rest ->
        root
        :: List.sort (fun a b -> String.compare a.te_name b.te_name) rest
    | [] -> []
  in
  { env_types; env_payload }

let required_classes t = List.map (fun e -> e.te_name) t.env_types

(* Version-pinned class resolution: a payload class named by the
   envelope decodes against the exact description the sender stamped (by
   GUID), not whatever the name happens to resolve to at decode time — a
   receiver that upgraded mid-flight must not decode an old envelope
   against the new version. Names outside the envelope (or GUIDs the
   registry never learned) fall back to by-name lookup, the
   pre-evolution behavior. *)
let pinned_resolve reg t name =
  let pinned =
    List.find_opt
      (fun e -> Pti_util.Strutil.equal_ci e.te_name name)
      t.env_types
  in
  match pinned with
  | Some e -> (
      match Registry.find_by_guid reg e.te_guid with
      | Some cd -> Some cd
      | None -> Registry.find reg name)
  | None -> Registry.find reg name

let decode_payload ?layout reg t =
  let resolve = pinned_resolve reg t in
  match
    match t.env_payload with
    | Psoap x -> Soap_ser.decode_xml ~resolve ?layout reg x
    | Pbinary b -> Bin_ser.decode ~resolve ?layout reg b
  with
  | Ok _ as ok -> ok
  | Error (Payload.Malformed m) -> Error (Malformed m)
  | Error (Payload.Unknown_type ty) -> Error (Unknown_type ty)
  | Error (Payload.Corrupt m) -> Error (Corrupt m)

let entry_attrs e =
  [
    ("name", e.te_name);
    ("guid", Guid.to_string e.te_guid);
    ("assembly", e.te_assembly);
    ("downloadPath", e.te_download_path);
  ]
  @ if e.te_version > 0 then [ ("version", string_of_int e.te_version) ] else []

let payload_to_xml = function
  | Psoap x -> Xml.elt "payload" ~attrs:[ ("encoding", "soap") ] [ x ]
  | Pbinary b ->
      Xml.elt "payload"
        ~attrs:[ ("encoding", "binary") ]
        [ Xml.text (B64.encode b) ]

let to_xml t =
  let open Xml in
  elt "envelope"
    ~attrs:[ ("digest", digest t) ]
    (List.map (fun e -> elt "type" ~attrs:(entry_attrs e) []) t.env_types
    @ [ payload_to_xml t.env_payload ])

(* The reader raises [Fail] where a field fails; [of_xml] answers
   once. *)
exception Fail of error

let malformed fmt = Printf.ksprintf (fun m -> raise (Fail (Malformed m))) fmt

let attr name x =
  match Xml.attr name x with
  | Some v -> v
  | None -> malformed "missing attribute %S" name

let entry_of_elt e =
  {
    te_name = attr "name" e;
    te_guid =
      (let s = attr "guid" e in
       match Guid.of_string s with
       | Some g -> g
       | None -> malformed "bad guid %S" s);
    te_assembly = attr "assembly" e;
    te_download_path = attr "downloadPath" e;
    (* Optional: absent on envelopes from pre-evolution senders. *)
    te_version =
      (match Xml.attr "version" e with
      | None -> 0
      | Some s -> (
          match int_of_string_opt s with
          | Some v when v >= 0 -> v
          | _ -> malformed "bad version %S" s));
  }

let payload_of_xml x =
  let p =
    match Xml.child "payload" x with
    | Some p -> p
    | None -> malformed "missing <payload>"
  in
  match attr "encoding" p with
  | "soap" -> (
      match Xml.elements p with
      | [ inner ] -> Psoap inner
      | _ -> malformed "soap payload expects one element")
  | "binary" -> (
      match B64.decode (Xml.text_content p) with
      | Some b -> Pbinary b
      | None -> malformed "bad base64 payload")
  | other -> malformed "unknown encoding %S" other

let envelope = function
  | Xml.Element ("envelope", _, _) as x -> (
      let env_types = List.map entry_of_elt (Xml.childs "type" x) in
      let t = { env_types; env_payload = payload_of_xml x } in
      (* An envelope written before digests existed (no attribute) is
         accepted as-is; a present digest must match the recomputed one. *)
      match Xml.attr "digest" x with
      | Some d when not (String.equal d (digest t)) ->
          raise (Fail (Corrupt "envelope digest mismatch"))
      | _ -> t)
  | Xml.Element (other, _, _) -> malformed "expected <envelope>, got <%s>" other
  | _ -> malformed "expected an element"

let of_xml x = match envelope x with t -> Ok t | exception Fail e -> Error e

let to_string t = Xml.to_string (to_xml t)

let of_string s =
  match Xml.parse s with
  | Error e -> Error (Malformed (Format.asprintf "%a" Xml.pp_error e))
  | Ok x -> of_xml x

(* ------------------- negotiated type handles ----------------------- *)

(* A handle-encoded envelope replaces repeat type entries with
   references into a per-link table negotiated on first use ([`Bind]
   ships the full entry together with its handle, [`Ref] only the
   handle). It travels only in the compact PTIE frame below; the
   classic XML form carries full entries and no handles. *)

type handle_form = [ `Bind of int | `Ref of int ]

module W = Bytes_io.Writer
module R = Bytes_io.Reader

(* ------------------- binary type-entry codec ----------------------- *)

(* One type entry on a binary wire, shared by PTIE slots and PTIH bind
   frames: name, guid, assembly, downloadPath (varint-prefixed
   strings). Both formats ship entries as bindings (handle, entry), and
   the bindings' versions travel apart, in a trailing block of one
   varint per binding in wire order, written only when some entry is
   versioned; a decoder probes for the block with [at_end], so
   pre-evolution frames (no block, all versions 0) decode unchanged in
   both directions. *)

let write_entry w e =
  W.string w e.te_name;
  W.string w (Guid.to_string e.te_guid);
  W.string w e.te_assembly;
  W.string w e.te_download_path

let read_entry r =
  let te_name = R.string r in
  let guid_s = R.string r in
  let te_guid =
    match Guid.of_string guid_s with
    | Some g -> g
    | None -> failwith (Printf.sprintf "bad guid %S" guid_s)
  in
  let te_assembly = R.string r in
  let te_download_path = R.string r in
  { te_name; te_guid; te_assembly; te_download_path; te_version = 0 }

let write_versions w binds =
  if List.exists (fun (_, e) -> e.te_version > 0) binds then
    List.iter (fun (_, e) -> W.varint w e.te_version) binds

(* Explicit recursion: reads are effectful, the versions must be
   consumed in wire order. *)
let rec versioned r acc = function
  | [] -> List.rev acc
  | (h, e) :: rest ->
      versioned r ((h, { e with te_version = R.varint r }) :: acc) rest

let read_versions r binds = if R.at_end r then binds else versioned r [] binds

(* ---------------- compact binary wire form (PTIE) ------------------ *)

(* Handle-encoded envelopes go on the wire in a compact binary frame:
   XML plus base64 costs ~45% over the raw bytes, which defeats the
   point of shipping two-byte type refs. Layout, inside a sealed frame
   ([Bytes_io.seal], magic [PTIE]):

     body  = digest8 | varint n | slot* | payload | versions
     slot  = 0x01 varint handle, entry           (bind)
           | 0x02 varint handle                  (ref)
     payload = u8 codec (0 soap / 1 binary) | string
     versions = the trailing block, over the bind slots' entries

   The frame checksum covers the literal content (integrity without a
   table); [digest8] is the raw semantic digest over the reconstructed
   envelope, serving exactly like the XML [digest] attribute. *)

let bin_magic = "PTIE\x01"
let max_slots = 10_000
let writer = W.scratch ()

(* The slots in wire order. Bind slots carry entries, whose versions go
   in the trailing block: returns the bind slots' entries, newest first,
   when some entry is versioned, and nothing otherwise. *)
let rec write_slots w ~form ~versioned bound = function
  | [] -> bound
  | e :: rest -> (
      match (form e : handle_form) with
      | `Bind h ->
          W.u8 w 1;
          W.varint w h;
          write_entry w e;
          write_slots w ~form ~versioned
            (if versioned then (h, e) :: bound else bound)
            rest
      | `Ref h ->
          W.u8 w 2;
          W.varint w h;
          write_slots w ~form ~versioned bound rest)

let to_string_h t ~form =
  let w = writer () in
  W.begin_seal w ~magic:bin_magic;
  let digest8 = Bytes.create 8 in
  Bytes.set_int64_be digest8 0 (Fnv.value (digest_state t));
  W.raw w (Bytes.unsafe_to_string digest8);
  W.varint w (List.length t.env_types);
  let versioned = List.exists (fun e -> e.te_version > 0) t.env_types in
  let bound = write_slots w ~form ~versioned [] t.env_types in
  (match t.env_payload with
  | Psoap x ->
      W.u8 w 0;
      W.string w (Xml.to_string x)
  | Pbinary p ->
      W.u8 w 1;
      W.string w p);
  write_versions w (List.rev bound);
  W.seal w

(* Decode a PTIE body whose checksum already matched, where it lies:
   [body] stands on its first byte, the raw digest. *)
let of_body_h ~resolve body =
  if R.remaining body < 8 then failwith "truncated envelope digest";
  let src = R.source body and digest_at = R.pos body in
  let r = R.create ~pos:(digest_at + 8) src in
  let n = R.varint r in
  if n < 0 || n > max_slots then failwith "bad slot count";
  (* Explicit recursion: reads are effectful, evaluation order must be
     the wire order. *)
  let rec read_slots acc k =
    if k = 0 then List.rev acc
    else
      let slot =
        match R.u8 r with
        | 1 ->
            let h = R.varint r in
            `Bind (h, read_entry r)
        | 2 -> `Ref (R.varint r)
        | tag -> failwith (Printf.sprintf "bad slot tag %d" tag)
      in
      read_slots (slot :: acc) (k - 1)
  in
  let slots = read_slots [] n in
  let env_payload =
    match R.u8 r with
    | 0 -> (
        match Xml.parse (R.string r) with
        | Ok x -> Psoap x
        | Error e ->
            failwith (Format.asprintf "bad soap payload: %a" Xml.pp_error e))
    | 1 -> Pbinary (R.string r)
    | tag -> failwith (Printf.sprintf "bad payload tag %d" tag)
  in
  let bindings =
    read_versions r
      (List.filter_map (function `Bind b -> Some b | `Ref _ -> None) slots)
  in
  if not (R.at_end r) then failwith "trailing bytes in envelope";
  (* A slot resolves through the bindings shipped in this frame first,
     then the receiver's link table. *)
  let unknown = ref [] in
  let env_types =
    List.filter_map
      (fun (`Bind (h, _) | `Ref h) ->
        match List.assoc_opt h bindings with
        | Some e -> Some e
        | None -> (
            match resolve h with
            | Some e -> Some e
            | None ->
                if not (List.mem h !unknown) then unknown := h :: !unknown;
                None))
      slots
  in
  match List.rev !unknown with
  | _ :: _ as hs -> Error (Unknown_handles hs)
  | [] ->
      let t = { env_types; env_payload } in
      (* Semantic digest over the reconstruction: a wrong binding in the
         link table can never look like an intact envelope. *)
      if Fnv.equal_be (digest_state t) src ~pos:digest_at then
        Ok (t, bindings)
      else Error (Corrupt "envelope digest mismatch")

(* PTIE, or else the classic XML envelope, which carries no handles. *)
let of_string_h ~resolve s =
  match Bytes_io.unseal ~magic:bin_magic s with
  | Error (`Short | `Bad_magic) -> Result.map (fun t -> (t, [])) (of_string s)
  | Error `Bad_checksum -> Error (Corrupt "envelope wire checksum mismatch")
  | Ok body -> (
      try of_body_h ~resolve body with
      | R.Underflow m | Failure m -> Error (Malformed m))

(* Frame-level integrity probe for the chaos harness: true iff the
   document parses and its checksum (or, for classic XML envelopes, the
   semantic digest) matches. Unknown handles do not make a frame dirty —
   they are a table condition, not wire damage. *)
let wire_ok s =
  match of_string_h ~resolve:(fun _ -> None) s with
  | Ok _ | Error (Unknown_handles _) -> true
  | Error (Corrupt _) -> false
  | Error (Malformed _ | Unknown_type _) -> false
