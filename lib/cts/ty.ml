module S = Pti_util.Strutil

type t =
  | Void
  | Bool
  | Int
  | Float
  | String
  | Char
  | Named of string
  | Array of t

let rec equal a b =
  match a, b with
  | Void, Void | Bool, Bool | Int, Int | Float, Float | String, String
  | Char, Char ->
      true
  | Named x, Named y -> Pti_util.Strutil.equal_ci x y
  | Array x, Array y -> equal x y
  | (Void | Bool | Int | Float | String | Char | Named _ | Array _), _ -> false

let rec compare a b =
  let rank = function
    | Void -> 0
    | Bool -> 1
    | Int -> 2
    | Float -> 3
    | String -> 4
    | Char -> 5
    | Named _ -> 6
    | Array _ -> 7
  in
  match a, b with
  | Named x, Named y -> Pti_util.Strutil.compare_ci x y
  | Array x, Array y -> compare x y
  | _ -> Stdlib.compare (rank a) (rank b)

(* The element's keyword or name, and the rank above it. *)
let rec name = function
  | Void -> "void"
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | String -> "string"
  | Char -> "char"
  | Named n -> n
  | Array e -> name e

let rec rank acc = function Array e -> rank (acc + 1) e | _ -> acc

(* One allocation for an array reference. *)
let to_string t =
  match rank 0 t with
  | 0 -> name t
  | r ->
      let n = name t in
      let len = String.length n in
      let b = Bytes.make (len + (2 * r)) ']' in
      Bytes.blit_string n 0 b 0 len;
      for i = 0 to r - 1 do Bytes.set b (len + (2 * i)) '[' done;
      Bytes.unsafe_to_string b

let max_rank = 1024

let keywords =
  [ ("void", Void); ("bool", Bool); ("boolean", Bool); ("int", Int);
    ("int32", Int); ("int64", Int); ("float", Float); ("double", Float);
    ("string", String); ("char", Char) ]

(* The [len] bytes of [s] from [lo], compared in place. *)
let rec element s lo len = function
  | (k, t) :: _ when len = String.length k && S.equal_ci_sub s lo k 0 len -> t
  | _ :: rest -> element s lo len rest
  | [] -> Named (if len = String.length s then s else String.sub s lo len)

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec trim_right s lo hi =
  if hi > lo && is_space s.[hi - 1] then trim_right s lo (hi - 1) else hi

(* One scan: trim, then peel "[]" pairs, and the blanks before each, off
   the right end. *)
let of_string s =
  let lo = ref 0 in
  while !lo < String.length s && is_space s.[!lo] do incr lo done;
  let lo = !lo in
  let hi = ref (trim_right s lo (String.length s)) and r = ref 0 in
  while
    !r <= max_rank && !hi - lo >= 2 && s.[!hi - 1] = ']' && s.[!hi - 2] = '['
  do
    incr r;
    hi := trim_right s lo (!hi - 2)
  done;
  let rec wrap r e = if r = 0 then e else wrap (r - 1) (Array e) in
  if !hi = lo || !r > max_rank then None
  else Some (wrap !r (element s lo (!hi - lo) keywords))

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Ty.of_string_exn: %S" s)

let rec named_roots = function
  | Void | Bool | Int | Float | String | Char -> []
  | Named n -> [ n ]
  | Array e -> named_roots e

let pp ppf t = Format.pp_print_string ppf (to_string t)
