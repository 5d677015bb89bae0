(* Per-link negotiated type-handle tables.

   The sender assigns a small monotonically increasing integer to every
   distinct type entry it ships on a link; the first envelope carrying
   the type binds handle and entry together ([`Bind]), later envelopes
   ship only the handle ([`Ref]). The receiver keeps a bounded table of
   learned bindings. Handles are never reused — after a sender-side
   reset the counter keeps counting, so a stale binding on the other end
   can only miss (and trigger renegotiation), never alias a different
   type. Correctness never depends on the table: an unknown handle is
   NAKed and the sender re-binds it, and the envelope's semantic digest
   rejects any binding that drifted from the sender's. *)

module Fnv = Pti_util.Fnv
module Guid = Pti_util.Guid

(* ------------------------------ sender ----------------------------- *)

type sender = {
  mutable next_handle : int;
  by_entry : (Envelope.type_entry, int) Hashtbl.t;
  by_handle : (int, Envelope.type_entry) Hashtbl.t;
      (* Reverse map: rebuilding a NAKed binding needs the full entry
         without retaining any envelope. *)
}

let create_sender () =
  { next_handle = 1; by_entry = Hashtbl.create 16; by_handle = Hashtbl.create 16 }

let obtain s entry =
  match Hashtbl.find_opt s.by_entry entry with
  | Some h -> `Known h
  | None ->
      let h = s.next_handle in
      s.next_handle <- h + 1;
      Hashtbl.replace s.by_entry entry h;
      Hashtbl.replace s.by_handle h entry;
      `Fresh h

let entry_for s h = Hashtbl.find_opt s.by_handle h

let reset_sender s =
  Hashtbl.reset s.by_entry;
  Hashtbl.reset s.by_handle

(* ----------------------------- receiver ---------------------------- *)

module ILru = Pti_obs.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type receiver = Envelope.type_entry ILru.t

let create_receiver ~capacity : receiver = ILru.create ~capacity ()
let install (r : receiver) h entry = ILru.put r h entry
let resolve (r : receiver) h = ILru.find r h
let clear_receiver (r : receiver) = ILru.clear r
let receiver_length (r : receiver) = ILru.length r

(* The peer's shared flyweight pool recycles receiver tables across
   sessions; pooling is only sound between tables of equal capacity. *)
let receiver_capacity (r : receiver) = ILru.capacity r

(* ----------------------------- fingerprints ------------------------ *)

(* Deterministic digests of table state for the model checker's
   state-hash pruning: bindings rendered sorted by handle, FNV-1a over
   the text. Two tables with the same bindings hash equal regardless of
   the order they were learned in. *)

let render_binding buf h (e : Envelope.type_entry) =
  Buffer.add_string buf
    (Printf.sprintf "%d=%s/%s/%s/%s%s\n" h e.Envelope.te_name
       (Guid.to_string e.Envelope.te_guid)
       e.Envelope.te_assembly e.Envelope.te_download_path
       (* Version 0 renders as before so pre-evolution fingerprints are
          unchanged. *)
       (if e.Envelope.te_version > 0 then
          Printf.sprintf "@v%d" e.Envelope.te_version
        else ""))

let fingerprint_sender s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "next=%d\n" s.next_handle);
  Hashtbl.fold (fun h e acc -> (h, e) :: acc) s.by_handle []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (h, e) -> render_binding buf h e);
  Fnv.hash64 (Buffer.contents buf)

let fingerprint_receiver (r : receiver) =
  let buf = Buffer.create 128 in
  ILru.fold r ~init:[] ~f:(fun h e acc -> (h, e) :: acc)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (h, e) -> render_binding buf h e);
  Fnv.hash64 (Buffer.contents buf)

(* --------------------------- bind frames --------------------------- *)

(* [Handle_bind] control messages carry renegotiated bindings in a
   sealed frame ([Bytes_io.seal], magic [PTIH]) so the chaos harness's
   frame-integrity filter can vet them without structural parsing.
   Body: varint n | (varint handle, entry)* | versions, with the entry
   codec and trailing version block shared with PTIE slots. *)

module W = Bytes_io.Writer
module R = Bytes_io.Reader

let bind_magic = "PTIH\x01"

let encode_bindings binds =
  let w = W.create () in
  W.varint w (List.length binds);
  List.iter
    (fun (h, e) ->
      W.varint w h;
      Envelope.write_entry w e)
    binds;
  Envelope.write_versions w binds;
  Bytes_io.seal ~magic:bind_magic (W.contents w)

let decode_bindings s =
  match Bytes_io.unseal ~magic:bind_magic s with
  | Error `Short -> Error "truncated bind frame"
  | Error `Bad_magic -> Error "bad bind-frame magic"
  | Error `Bad_checksum -> Error "bind-frame checksum mismatch"
  | Ok body -> (
      try
        let r = R.create body in
        let binds =
          Envelope.read_versions r
            (Framing.read_list r (fun r ->
                 let h = R.varint r in
                 (h, Envelope.read_entry r)))
        in
        if R.at_end r then Ok binds else Error "trailing bytes in bind frame"
      with R.Underflow m | Failure m -> Error m)

let bindings_intact s = Result.is_ok (Bytes_io.unseal ~magic:bind_magic s)
