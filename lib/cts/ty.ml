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

let rec to_string = function
  | Void -> "void"
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | String -> "string"
  | Char -> "char"
  | Named n -> n
  | Array e -> to_string e ^ "[]"

let rec of_string s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else if n >= 2 && String.sub s (n - 2) 2 = "[]" then
    match of_string (String.sub s 0 (n - 2)) with
    | Some e -> Some (Array e)
    | None -> None
  else
    match String.lowercase_ascii s with
    | "void" -> Some Void
    | "bool" | "boolean" -> Some Bool
    | "int" | "int32" | "int64" -> Some Int
    | "float" | "double" -> Some Float
    | "string" -> Some String
    | "char" -> Some Char
    | _ -> Some (Named s)

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Ty.of_string_exn: %S" s)

let rec named_roots = function
  | Void | Bool | Int | Float | String | Char -> []
  | Named n -> [ n ]
  | Array e -> named_roots e

let pp ppf t = Format.pp_print_string ppf (to_string t)
