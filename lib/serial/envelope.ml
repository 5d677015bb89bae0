open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module B64 = Pti_util.Base64

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

(* Canonical content string the integrity digest is computed over: the
   semantic fields of the envelope, not its XML rendering, so the check
   is immune to whitespace/attribute-order differences between writer
   and reader. Every field is length-prefixed (netstring style): the
   binary payload is arbitrary bytes, so no in-band separator is safe —
   a 0x00/0x01 scheme let two distinct envelopes share a digest. *)
let canonical t =
  let b = Buffer.create 256 in
  let field s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  List.iter
    (fun e ->
      field e.te_name;
      field (Guid.to_string e.te_guid);
      field e.te_assembly;
      field e.te_download_path;
      (* Versioned entries fold the version into the digest; version 0
         stays absent so pre-evolution envelopes keep their digests. *)
      if e.te_version > 0 then field ("v" ^ string_of_int e.te_version))
    t.env_types;
  (match t.env_payload with
  | Psoap x ->
      field "soap";
      field (Xml.to_string x)
  | Pbinary p ->
      field "binary";
      field p);
  Buffer.contents b

let digest t = Pti_util.Fnv.hash_hex (canonical t)

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

let decode_payload reg t =
  let resolve = pinned_resolve reg t in
  match t.env_payload with
  | Psoap x -> (
      match Soap_ser.decode_xml ~resolve reg x with
      | Ok v -> Ok v
      | Error (Soap_ser.Malformed m) -> Error (Malformed m)
      | Error (Soap_ser.Unknown_type ty) -> Error (Unknown_type ty))
  | Pbinary b -> (
      match Bin_ser.decode ~resolve reg b with
      | Ok v -> Ok v
      | Error (Bin_ser.Malformed m) -> Error (Malformed m)
      | Error (Bin_ser.Unknown_type ty) -> Error (Unknown_type ty)
      | Error (Bin_ser.Corrupt m) -> Error (Corrupt m))

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

let attr name x =
  match Xml.attr name x with
  | Some v -> Ok v
  | None -> Error (Malformed (Printf.sprintf "missing attribute %S" name))

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let entry_of_elt e =
  let* te_name = attr "name" e in
  let* guid_s = attr "guid" e in
  let* te_guid =
    match Guid.of_string guid_s with
    | Some g -> Ok g
    | None -> Error (Malformed (Printf.sprintf "bad guid %S" guid_s))
  in
  let* te_assembly = attr "assembly" e in
  let* te_download_path = attr "downloadPath" e in
  (* Optional: absent on envelopes from pre-evolution senders. *)
  let* te_version =
    match Xml.attr "version" e with
    | None -> Ok 0
    | Some s -> (
        match int_of_string_opt s with
        | Some v when v >= 0 -> Ok v
        | _ -> Error (Malformed (Printf.sprintf "bad version %S" s)))
  in
  Ok { te_name; te_guid; te_assembly; te_download_path; te_version }

let payload_of_xml x =
  let* payload_elt =
    match Xml.child "payload" x with
    | Some p -> Ok p
    | None -> Error (Malformed "missing <payload>")
  in
  let* encoding = attr "encoding" payload_elt in
  match encoding with
  | "soap" -> (
      match
        List.filter
          (function Xml.Element _ -> true | _ -> false)
          (Xml.children payload_elt)
      with
      | [ inner ] -> Ok (Psoap inner)
      | _ -> Error (Malformed "soap payload expects one element"))
  | "binary" -> (
      match B64.decode (Xml.text_content payload_elt) with
      | Some b -> Ok (Pbinary b)
      | None -> Error (Malformed "bad base64 payload"))
  | other -> Error (Malformed (Printf.sprintf "unknown encoding %S" other))

let of_xml x =
  match Xml.tag x with
  | Some "envelope" ->
      let* env_types = map_result entry_of_elt (Xml.childs "type" x) in
      let* env_payload = payload_of_xml x in
      let t = { env_types; env_payload } in
      (* An envelope written before digests existed (no attribute) is
         accepted as-is; a present digest must match the recomputed one. *)
      let* () =
        match Xml.attr "digest" x with
        | None -> Ok ()
        | Some d when String.equal d (digest t) -> Ok ()
        | Some _ -> Error (Corrupt "envelope digest mismatch")
      in
      Ok t
  | Some other ->
      Error (Malformed (Printf.sprintf "expected <envelope>, got <%s>" other))
  | None -> Error (Malformed "expected an element")

let to_string t = Xml.to_string (to_xml t)

let of_string s =
  match Xml.parse s with
  | Error e -> Error (Malformed (Format.asprintf "%a" Xml.pp_error e))
  | Ok x -> of_xml x

let size_bytes t = String.length (to_string t)

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
let digest_raw t = Pti_util.Fnv.hash_bytes (canonical t)

let to_string_h t ~form =
  let w = W.create () in
  W.raw w (digest_raw t);
  W.varint w (List.length t.env_types);
  (* Bind slots carry entries; their versions go in the trailing block. *)
  let bound = ref [] in
  List.iter
    (fun e ->
      match (form e : handle_form) with
      | `Bind h ->
          W.u8 w 1;
          W.varint w h;
          write_entry w e;
          bound := (h, e) :: !bound
      | `Ref h ->
          W.u8 w 2;
          W.varint w h)
    t.env_types;
  (match t.env_payload with
  | Psoap x ->
      W.u8 w 0;
      W.string w (Xml.to_string x)
  | Pbinary p ->
      W.u8 w 1;
      W.string w p);
  write_versions w (List.rev !bound);
  Bytes_io.seal ~magic:bin_magic (W.contents w)

(* Decode a PTIE body whose checksum already matched. *)
let of_body_h ~resolve body =
  if String.length body < 8 then failwith "truncated envelope digest";
  let digest8 = String.sub body 0 8 in
  let r = R.create (String.sub body 8 (String.length body - 8)) in
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
      if String.equal digest8 (digest_raw t) then Ok (t, bindings)
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
