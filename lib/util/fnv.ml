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

(* The streaming accumulator lives in 8 bytes, read and written in
   place, so absorbing never boxes it. *)
type state = Bytes.t

let init () =
  let st = Bytes.create 8 in
  Bytes.set_int64_le st 0 offset_basis;
  st

let feed_sub st s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fnv.feed_sub";
  let h = ref (Bytes.get_int64_le st 0) in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  Bytes.set_int64_le st 0 !h

let feed_string st s = feed_sub st s ~pos:0 ~len:(String.length s)

let feed_char st c =
  Bytes.set_int64_le st 0
    (Int64.mul
       (Int64.logxor (Bytes.get_int64_le st 0) (Int64.of_int (Char.code c)))
       prime)

(* Most significant digit first, as [string_of_int] writes them. *)
let rec feed_digits st n =
  if n >= 10 then feed_digits st (n / 10);
  feed_char st (Char.unsafe_chr (48 + (n mod 10)))

let feed_int st n =
  if n >= 0 then feed_digits st n else feed_string st (string_of_int n)

let value st = Bytes.get_int64_le st 0
let equal_be st s ~pos =
  Int64.equal (Bytes.get_int64_le st 0) (String.get_int64_be s pos)

let hash_bytes s =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (hash64 s);
  Bytes.unsafe_to_string b
