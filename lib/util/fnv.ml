let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A [for] loop over a local [ref] keeps the accumulator unboxed; a
   closure capturing it (as [String.iter] needs) boxes it at every
   byte. *)
let hash64_sub ?(init = offset_basis) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fnv.hash64_sub";
  let h = ref init in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let hash64 ?init s = hash64_sub ?init s ~pos:0 ~len:(String.length s)

let to_hex h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    Bytes.unsafe_set b i
      (Strutil.hex_digit
         (Int64.to_int (Int64.shift_right_logical h (4 * (15 - i))) land 0xf))
  done;
  Bytes.unsafe_to_string b

let hash_hex s = to_hex (hash64 s)

let hash_bytes s =
  let h = hash64 s in
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical h ((7 - i) * 8)) 0xFFL)))
  done;
  Bytes.to_string b
