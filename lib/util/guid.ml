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

let hex_digits = "0123456789abcdef"

let to_string { hi; lo } =
  let b = Bytes.make 36 '-' in
  let pos = ref 0 in
  for k = 0 to 15 do
    if k = 4 || k = 6 || k = 8 || k = 10 then incr pos;
    let w = if k < 8 then hi else lo in
    let byte =
      Int64.to_int (Int64.shift_right_logical w (8 * (7 - (k land 7)))) land 0xff
    in
    Bytes.unsafe_set b !pos hex_digits.[byte lsr 4];
    Bytes.unsafe_set b (!pos + 1) hex_digits.[byte land 0xf];
    pos := !pos + 2
  done;
  Bytes.unsafe_to_string b

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let of_string s =
  if String.length s <> 36 then None
  else begin
    let ok = ref true in
    let nibbles = Array.make 32 0 in
    let k = ref 0 in
    String.iteri
      (fun i c ->
        match i with
        | 8 | 13 | 18 | 23 -> if c <> '-' then ok := false
        | _ -> (
            match hex_val c with
            | Some v ->
                if !k < 32 then begin
                  nibbles.(!k) <- v;
                  incr k
                end
                else ok := false
            | None -> ok := false))
      s;
    if (not !ok) || !k <> 32 then None
    else begin
      let word off =
        let v = ref 0L in
        for i = off to off + 15 do
          v := Int64.logor (Int64.shift_left !v 4) (Int64.of_int nibbles.(i))
        done;
        !v
      in
      Some { hi = word 0; lo = word 16 }
    end
  end

let of_string_exn s =
  match of_string s with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "Guid.of_string_exn: %S" s)

let pp ppf g = Format.pp_print_string ppf (to_string g)
