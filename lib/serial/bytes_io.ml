module Fnv = Pti_util.Fnv

module Writer = struct
  (* [hdr] is the length of a sealed frame's header (magic and checksum)
     at the start of the buffer, 0 for a plain writer. *)
  type t = { mutable buf : Bytes.t; mutable len : int; mutable hdr : int }

  (* Never empty: [reserve] grows the buffer by doubling it. *)
  let create ?(initial = 256) () =
    { buf = Bytes.create (max 16 initial); len = 0; hdr = 0 }

  let contents t = Bytes.sub_string t.buf 0 t.len
  let length t = t.len

  (* Room for [n] more bytes, doubling. *)
  let reserve t n =
    let need = t.len + n in
    if need > Bytes.length t.buf then begin
      let cap = ref (2 * Bytes.length t.buf) in
      while !cap < need do
        cap := 2 * !cap
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end

  (* A scratch writer keeps its buffer across uses, unless one use grew
     it past this. *)
  let max_kept = 65_536

  let reset t =
    if Bytes.length t.buf > max_kept then t.buf <- Bytes.create 256;
    t.len <- 0;
    t.hdr <- 0

  let scratch () =
    let key = Domain.DLS.new_key (fun () -> create ()) in
    fun () ->
      let t = Domain.DLS.get key in
      reset t;
      t

  let u8 t v =
    if t.len >= Bytes.length t.buf then reserve t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xff));
    t.len <- t.len + 1

  (* [v] read as unsigned: a zigzag encoding may set the top bit. *)
  let rec varint_loop t v =
    if v land lnot 0x7f = 0 then u8 t v
    else begin
      u8 t (0x80 lor (v land 0x7f));
      varint_loop t (v lsr 7)
    end

  let varint t v =
    if v < 0 then invalid_arg "Writer.varint: negative";
    varint_loop t v

  let zigzag t v = varint_loop t ((v lsl 1) lxor (v asr (Sys.int_size - 1)))

  let f64 t v =
    reserve t 8;
    Bytes.set_int64_le t.buf t.len (Int64.bits_of_float v);
    t.len <- t.len + 8

  let raw t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let string t s =
    varint t (String.length s);
    raw t s

  let bool t b = u8 t (if b then 1 else 0)

  let begin_seal t ~magic =
    if t.len <> 0 then invalid_arg "Writer.begin_seal: writer not empty";
    raw t magic;
    (* The checksum's place, filled by [seal]. *)
    reserve t 8;
    t.len <- t.len + 8;
    t.hdr <- t.len

  let sealed ?initial ~magic () =
    let t = create ?initial () in
    begin_seal t ~magic;
    t

  let seal t =
    if t.hdr = 0 then invalid_arg "Writer.seal: not a sealed writer";
    let h =
      Fnv.hash64_sub (Bytes.unsafe_to_string t.buf) ~pos:t.hdr
        ~len:(t.len - t.hdr)
    in
    Bytes.set_int64_be t.buf (t.hdr - 8) h;
    contents t
end

let seal ~magic body =
  let m = String.length magic and n = String.length body in
  let b = Bytes.create (m + 8 + n) in
  Bytes.blit_string magic 0 b 0 m;
  Bytes.set_int64_be b m (Fnv.hash64 body);
  Bytes.blit_string body 0 b (m + 8) n;
  Bytes.unsafe_to_string b

module Reader = struct
  type t = { src : string; mutable pos : int }

  exception Underflow of string

  let create ?(pos = 0) src =
    if pos < 0 || pos > String.length src then invalid_arg "Reader.create";
    { src; pos }

  let pos t = t.pos
  let source t = t.src
  let at_end t = t.pos >= String.length t.src
  let remaining t = String.length t.src - t.pos

  let u8 t =
    if at_end t then raise (Underflow "u8 past end");
    let v = Char.code (String.unsafe_get t.src t.pos) in
    t.pos <- t.pos + 1;
    v

  let rec varint_loop t shift acc =
    if shift > Sys.int_size then raise (Underflow "varint too long");
    let b = u8 t in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else varint_loop t (shift + 7) acc

  let varint t = varint_loop t 0 0

  let zigzag t =
    let v = varint t in
    (v lsr 1) lxor (-(v land 1))

  let f64 t =
    if remaining t < 8 then raise (Underflow "u8 past end");
    let v = Int64.float_of_bits (String.get_int64_le t.src t.pos) in
    t.pos <- t.pos + 8;
    v

  (* The length of the string at the cursor, checked against the bytes
     left. *)
  let string_len t =
    let n = varint t in
    (* A hostile length can read as negative, or overflow [pos + n]. *)
    if n < 0 || n > remaining t then raise (Underflow "string past end");
    n

  let string t =
    let n = string_len t in
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let skip_string t =
    let n = string_len t in
    let at = t.pos in
    t.pos <- t.pos + n;
    at

  let bool t = u8 t <> 0

  let expect_magic t m =
    let n = String.length m in
    if t.pos + n > String.length t.src || String.sub t.src t.pos n <> m then
      raise (Underflow (Printf.sprintf "bad magic, expected %S" m));
    t.pos <- t.pos + n
end

type unseal_error = [ `Short | `Bad_magic | `Bad_checksum ]

(* Whether [s] holds [sub] at [off], compared in place. *)
let rec holds s ~off sub i =
  i >= String.length sub
  || (Char.equal s.[off + i] sub.[i] && holds s ~off sub (i + 1))

let unseal ~magic s =
  let m = String.length magic in
  let header = m + 8 in
  let n = String.length s in
  if n < header then Error `Short
  else if not (holds s ~off:0 magic 0) then Error `Bad_magic
  else if
    Int64.equal
      (Fnv.hash64_sub s ~pos:header ~len:(n - header))
      (String.get_int64_be s m)
  then Ok (Reader.create ~pos:header s)
  else Error `Bad_checksum
