(* Multi-envelope batch frames.

   The peer coalesces same-destination object sends that happen within
   one simulator instant into a single framed message, amortising
   per-message framing and ARQ/ack overhead. Each part is a complete
   [Obj_msg] worth of content (envelope plus any eager extras); gossip
   digests can ride along as opportunistic piggyback. The frame is
   sealed ([Bytes_io.seal], magic [PTIF]) so wire damage is detected at
   the frame boundary and handled by retransmission, exactly like the
   binary payload codec. *)

module W = Bytes_io.Writer
module R = Bytes_io.Reader

type part = {
  p_envelope : string;
  p_tdescs : string list;
  p_assemblies : string list;
}

type t = {
  parts : part list;
  piggyback : (string * string) list;  (** Gossip [(kind, body)] pairs. *)
}

let magic = "PTIF\x01"

let encode t =
  let w = W.sealed ~magic () in
  W.varint w (List.length t.parts);
  List.iter
    (fun p ->
      W.string w p.p_envelope;
      Framing.write_string_list w p.p_tdescs;
      Framing.write_string_list w p.p_assemblies)
    t.parts;
  W.varint w (List.length t.piggyback);
  List.iter
    (fun (kind, body) ->
      W.string w kind;
      W.string w body)
    t.piggyback;
  W.seal w

let read_list = Framing.read_list

let decode s =
  match Bytes_io.unseal ~magic s with
  | Error `Short -> Error "truncated batch frame"
  | Error `Bad_magic -> Error "bad batch-frame magic"
  | Error `Bad_checksum -> Error "batch-frame checksum mismatch"
  | Ok r -> (
      try
        let parts =
          read_list r (fun r ->
              let p_envelope = R.string r in
              let p_tdescs = read_list r R.string in
              let p_assemblies = read_list r R.string in
              { p_envelope; p_tdescs; p_assemblies })
        in
        let piggyback =
          read_list r (fun r ->
              let kind = R.string r in
              let body = R.string r in
              (kind, body))
        in
        if R.at_end r then Ok { parts; piggyback }
        else Error "trailing bytes in batch frame"
      with
      | R.Underflow m -> Error m
      | Failure m -> Error m)

let intact s = Result.is_ok (Bytes_io.unseal ~magic s)
