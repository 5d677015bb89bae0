(* Length-prefixed framing shared by [Batch_frame] and the stream
   transports.

   A frame on a byte stream is a LEB128 varint length followed by that
   many payload bytes. The [Decoder] is incremental and partial-read
   safe: bytes arrive in arbitrary chunks (a TCP read can split a frame
   — or the length varint itself — at any byte boundary) and complete
   frames pop out as they materialise. The writer side is [alloc], an
   exact-size frame with its prefix written, which a producer fills in
   place; it lives here so every producer agrees on the prefix
   encoding.

   Also home to the varint-counted list helpers [Batch_frame] and the
   wire codecs share, with the same bound on counts. *)

module W = Bytes_io.Writer
module R = Bytes_io.Reader

let max_list = 100_000

let write_list w f l =
  W.varint w (List.length l);
  List.iter (f w) l

let write_string_list w l = write_list w W.string l

(* Explicit recursion: the element reader is effectful, so evaluation
   order must be the wire order. *)
let rec read_n r f acc k =
  if k = 0 then List.rev acc else read_n r f (f r :: acc) (k - 1)

(* A list's count. Every element takes at least one byte, so a count
   above the bytes left is refused before anything is read. *)
let read_count r =
  let n = R.varint r in
  if n < 0 || n > max_list || n > R.remaining r then
    failwith "bad list length";
  n

let read_list r f = read_n r f [] (read_count r)

let read_string_list r = read_list r R.string

(* ~16 MB: far above any PTI frame, far below a parser bomb. *)
let default_max_frame = 16 * 1024 * 1024

let rec frame_overhead payload_len =
  if payload_len < 0x80 then 1 else 1 + frame_overhead (payload_len lsr 7)

let rec write_prefix b at n =
  if n < 0x80 then Bytes.unsafe_set b at (Char.unsafe_chr n)
  else begin
    Bytes.unsafe_set b at (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    write_prefix b (at + 1) (n lsr 7)
  end

(* One exact-size buffer: a producer that assembles its payload in
   place copies it once. *)
let alloc len =
  if len < 0 then invalid_arg "Framing.alloc";
  let b = Bytes.create (frame_overhead len + len) in
  write_prefix b 0 len;
  b

let encode payload =
  let n = String.length payload in
  let b = alloc n in
  Bytes.blit_string payload 0 b (frame_overhead n) n;
  Bytes.unsafe_to_string b

module Decoder = struct
  type t = {
    buf : Buffer.t;
    mutable pos : int;  (* consumed prefix of [buf] *)
    max_frame : int;
  }

  let create ?(max_frame = default_max_frame) () =
    { buf = Buffer.create 4096; pos = 0; max_frame }

  let buffered t = Buffer.length t.buf - t.pos

  let feed t ?(off = 0) ?len s =
    let len = match len with Some l -> l | None -> String.length s - off in
    Buffer.add_substring t.buf s off len

  (* Parse a varint at [pos] without committing: the terminator byte may
     not have arrived yet. Returns the value and how many bytes it took. *)
  let try_varint t =
    let avail = buffered t in
    let rec go i shift acc =
      if i >= avail || i > 9 then None
      else
        let b = Char.code (Buffer.nth t.buf (t.pos + i)) in
        let acc = acc lor ((b land 0x7f) lsl shift) in
        if b < 0x80 then Some (acc, i + 1) else go (i + 1) (shift + 7) acc
    in
    go 0 0 0

  (* Consumed bytes are trimmed once they dominate the buffer, so a
     long-lived connection doesn't accumulate its whole history. *)
  let compact t =
    if t.pos > 4096 && t.pos * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.pos (Buffer.length t.buf - t.pos) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.pos <- 0
    end

  let pop t =
    match try_varint t with
    | None ->
        if buffered t > 10 then Error "unterminated frame length"
        else Ok None
    | Some (len, hdr) ->
        if len < 0 || len > t.max_frame then
          Error (Printf.sprintf "frame length %d exceeds limit" len)
        else if buffered t < hdr + len then Ok None
        else begin
          let payload = Buffer.sub t.buf (t.pos + hdr) len in
          t.pos <- t.pos + hdr + len;
          compact t;
          Ok (Some payload)
        end
end
