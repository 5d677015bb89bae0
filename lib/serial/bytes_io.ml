module Fnv = Pti_util.Fnv

let seal ~magic body = String.concat "" [ magic; Fnv.hash_bytes body; body ]

type unseal_error = [ `Short | `Bad_magic | `Bad_checksum ]

(* Whether [s] holds [sub] at [off], compared in place. *)
let rec holds s ~off sub i =
  i >= String.length sub
  || (Char.equal s.[off + i] sub.[i] && holds s ~off sub (i + 1))

let unseal ~magic s =
  let m = String.length magic in
  let header = m + 8 in
  if String.length s < header then Error `Short
  else if not (holds s ~off:0 magic 0) then Error `Bad_magic
  else
    let body = String.sub s header (String.length s - header) in
    if holds s ~off:m (Fnv.hash_bytes body) 0 then Ok body
    else Error `Bad_checksum

module Writer = struct
  type t = Buffer.t

  let create ?(initial = 256) () = Buffer.create initial
  let contents = Buffer.contents
  let length = Buffer.length
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let varint t v =
    if v < 0 then invalid_arg "Writer.varint: negative";
    let rec go v =
      if v < 0x80 then u8 t v
      else begin
        u8 t (0x80 lor (v land 0x7f));
        go (v lsr 7)
      end
    in
    go v

  let zigzag t v =
    let encoded = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
    (* The shift may overflow for extreme values; mask to a non-negative
       encoding domain by using Int64 when needed is overkill here — object
       graphs carry human-scale integers. Guard anyway. *)
    if encoded < 0 then invalid_arg "Writer.zigzag: magnitude too large"
    else varint t encoded

  let f64 t v =
    let bits = Int64.bits_of_float v in
    for i = 0 to 7 do
      u8 t (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff)
    done

  let string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let bool t b = u8 t (if b then 1 else 0)
  let raw t s = Buffer.add_string t s
end

module Reader = struct
  type t = { src : string; mutable pos : int }

  exception Underflow of string

  let create src = { src; pos = 0 }
  let pos t = t.pos
  let at_end t = t.pos >= String.length t.src
  let remaining t = String.length t.src - t.pos

  let u8 t =
    if at_end t then raise (Underflow "u8 past end");
    let v = Char.code t.src.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let varint t =
    let rec go shift acc =
      if shift > Sys.int_size then raise (Underflow "varint too long");
      let b = u8 t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let zigzag t =
    let v = varint t in
    (v lsr 1) lxor (-(v land 1))

  let f64 t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 t)) (i * 8))
    done;
    Int64.float_of_bits !bits

  let string t =
    let n = varint t in
    (* A hostile length can read as negative, or overflow [pos + n]. *)
    if n < 0 || n > remaining t then raise (Underflow "string past end");
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let bool t = u8 t <> 0

  let expect_magic t m =
    let n = String.length m in
    if t.pos + n > String.length t.src || String.sub t.src t.pos n <> m then
      raise (Underflow (Printf.sprintf "bad magic, expected %S" m));
    t.pos <- t.pos + n
end
