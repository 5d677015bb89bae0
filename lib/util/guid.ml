type t = { hi : int64; lo : int64 }

let compare a b =
  match Int64.unsigned_compare a.hi b.hi with
  | 0 -> Int64.unsigned_compare a.lo b.lo
  | c -> c

let equal a b = a.hi = b.hi && a.lo = b.lo
let hash a = Int64.to_int (Int64.logxor a.hi a.lo) land max_int
let nil = { hi = 0L; lo = 0L }

let make rng =
  let rec draw () =
    let g = { hi = Splitmix.next64 rng; lo = Splitmix.next64 rng } in
    if equal g nil then draw () else g
  in
  draw ()

(* FNV-1a 64-bit, run twice with distinct offsets to fill 128 bits. *)
let of_name s =
  let hi = Fnv.hash64 s in
  let lo = Fnv.hash64 ~init:0x9AE16A3B2F90404FL s in
  let g = { hi; lo } in
  if equal g nil then { hi = 1L; lo = 1L } else g

let to_string { hi; lo } =
  let b = Bytes.make 36 '-' in
  let pos = ref 0 in
  for k = 0 to 15 do
    if k = 4 || k = 6 || k = 8 || k = 10 then incr pos;
    let w = if k < 8 then hi else lo in
    let byte =
      Int64.to_int (Int64.shift_right_logical w (8 * (7 - (k land 7)))) land 0xff
    in
    Bytes.unsafe_set b !pos (Strutil.hex_digit (byte lsr 4));
    Bytes.unsafe_set b (!pos + 1) (Strutil.hex_digit (byte land 0xf));
    pos := !pos + 2
  done;
  Bytes.unsafe_to_string b

(* Local refs in a [for] loop keep both halves unboxed, as in
   [Fnv.hash64]: the parse allocates only its result. *)
let of_string s =
  if String.length s <> 36 then None
  else begin
    let ok = ref true and hi = ref 0L and lo = ref 0L and k = ref 0 in
    for i = 0 to 35 do
      let c = String.unsafe_get s i in
      if i = 8 || i = 13 || i = 18 || i = 23 then (if c <> '-' then ok := false)
      else begin
        let v = Strutil.hex_value c in
        if v < 0 then ok := false
        else if !k < 16 then
          hi := Int64.logor (Int64.shift_left !hi 4) (Int64.of_int v)
        else lo := Int64.logor (Int64.shift_left !lo 4) (Int64.of_int v);
        incr k
      end
    done;
    if !ok then Some { hi = !hi; lo = !lo } else None
  end

let of_string_exn s =
  match of_string s with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Guid.of_string_exn: %S" s)

let pp ppf g = Format.pp_print_string ppf (to_string g)
