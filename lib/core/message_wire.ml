(* Binary wire codec for [Message.t] — the stream transports' payload
   format.

   On the simulated network messages travel as in-memory values and
   only their declared [Message.size] is charged; a socket needs real
   bytes. One tag byte per constructor, then [Bytes_io] primitives
   (varints, length-prefixed strings, option bools). A leading magic
   guards against framing drift; damage inside a field surfaces as a
   reader underflow and decodes to [Error], which the transport counts
   as an integrity drop — the envelope/batch checksums underneath
   still protect semantic content exactly as on the sim. *)

module W = Pti_serial.Bytes_io.Writer
module R = Pti_serial.Bytes_io.Reader
module Framing = Pti_serial.Framing

let magic = "PTIM\x01"

let opt w = function
  | None -> W.bool w false
  | Some s ->
      W.bool w true;
      W.string w s

let read_opt r = if R.bool r then Some (R.string r) else None

let writer = W.scratch ()

let encode (m : Message.t) =
  let w = writer () in
  W.raw w magic;
  (match m with
  | Message.Obj_msg { envelope; tdescs; assemblies } ->
      W.u8 w 0;
      W.string w envelope;
      Framing.write_string_list w tdescs;
      Framing.write_string_list w assemblies
  | Message.Obj_batch { frame } ->
      W.u8 w 1;
      W.string w frame
  | Message.Tdesc_request { type_name; token; binary_ok; version } ->
      W.u8 w 2;
      W.string w type_name;
      W.varint w token;
      W.bool w binary_ok;
      (* Version 0 is omitted so pre-evolution frames are unchanged;
         decoders probe for the trailing field with [at_end]. *)
      if version > 0 then W.varint w version
  | Message.Tdesc_reply { type_name; desc; token } ->
      W.u8 w 3;
      W.string w type_name;
      opt w desc;
      W.varint w token
  | Message.Asm_request { path; token } ->
      W.u8 w 4;
      W.string w path;
      W.varint w token
  | Message.Asm_reply { path; assembly; token } ->
      W.u8 w 5;
      W.string w path;
      opt w assembly;
      W.varint w token
  | Message.Invoke_request { target; meth; args; token } ->
      W.u8 w 6;
      W.zigzag w target;
      W.string w meth;
      W.string w args;
      W.varint w token
  | Message.Invoke_reply { token; result; error } ->
      W.u8 w 7;
      W.varint w token;
      opt w result;
      opt w error
  | Message.Gossip { kind; body } ->
      W.u8 w 8;
      W.string w kind;
      W.string w body
  | Message.Handle_nak { handles } ->
      W.u8 w 9;
      W.varint w (List.length handles);
      List.iter (W.varint w) handles
  | Message.Handle_bind { frame } ->
      W.u8 w 10;
      W.string w frame);
  W.contents w

let decode s : (Message.t, string) result =
  try
    let r = R.create s in
    R.expect_magic r magic;
    let msg =
      match R.u8 r with
      | 0 ->
          let envelope = R.string r in
          let tdescs = Framing.read_string_list r in
          let assemblies = Framing.read_string_list r in
          Message.Obj_msg { envelope; tdescs; assemblies }
      | 1 -> Message.Obj_batch { frame = R.string r }
      | 2 ->
          let type_name = R.string r in
          let token = R.varint r in
          let binary_ok = R.bool r in
          let version = if R.at_end r then 0 else R.varint r in
          Message.Tdesc_request { type_name; token; binary_ok; version }
      | 3 ->
          let type_name = R.string r in
          let desc = read_opt r in
          let token = R.varint r in
          Message.Tdesc_reply { type_name; desc; token }
      | 4 ->
          let path = R.string r in
          let token = R.varint r in
          Message.Asm_request { path; token }
      | 5 ->
          let path = R.string r in
          let assembly = read_opt r in
          let token = R.varint r in
          Message.Asm_reply { path; assembly; token }
      | 6 ->
          let target = R.zigzag r in
          let meth = R.string r in
          let args = R.string r in
          let token = R.varint r in
          Message.Invoke_request { target; meth; args; token }
      | 7 ->
          let token = R.varint r in
          let result = read_opt r in
          let error = read_opt r in
          Message.Invoke_reply { token; result; error }
      | 8 ->
          let kind = R.string r in
          let body = R.string r in
          Message.Gossip { kind; body }
      | 9 ->
          let n = R.varint r in
          if n < 0 || n > 100_000 then failwith "bad handle count";
          let rec go acc k =
            if k = 0 then List.rev acc else go (R.varint r :: acc) (k - 1)
          in
          Message.Handle_nak { handles = go [] n }
      | 10 -> Message.Handle_bind { frame = R.string r }
      | tag -> failwith (Printf.sprintf "unknown message tag %d" tag)
    in
    if R.at_end r then Ok msg else Error "trailing bytes in message"
  with
  | R.Underflow m -> Error m
  | Failure m -> Error m

let codec : Message.t Pti_transport.Transport.codec =
  { c_encode = encode; c_decode = decode }
