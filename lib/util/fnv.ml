let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* A [for] loop over a local [ref] keeps the accumulator unboxed; a
   closure capturing it (as [String.iter] needs) boxes it at every
   byte. *)
let hash64 ?(init = offset_basis) s =
  let h = ref init in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h

let to_hex h = Printf.sprintf "%016Lx" h
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
