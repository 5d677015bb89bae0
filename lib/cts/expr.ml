type const =
  | Cnull
  | Cbool of bool
  | Cint of int
  | Cfloat of float
  | Cstring of string
  | Cchar of char

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | Concat

type unop = Neg | Not

type t =
  | Const of const
  | This
  | Var of string
  | Let of string * t * t
  | Assign of string * t
  | Field_get of t * string
  | Field_set of t * string * t
  | Call of t * string * t list
  | Static_call of string * string * t list
  | New of string * t list
  | New_array of Ty.t * t list
  | Index_get of t * t
  | Index_set of t * t * t
  | Array_length of t
  | If of t * t * t
  | While of t * t
  | Seq of t list
  | Binop of binop * t * t
  | Unop of unop * t
  | Throw of t
  | Try of t * string * t

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Mod -> "mod"
  | Eq -> "eq"
  | Neq -> "neq"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"
  | And -> "and"
  | Or -> "or"
  | Concat -> "concat"

let unop_name = function Neg -> "neg" | Not -> "not"

let rec pp ppf e =
  let open Format in
  match e with
  | Const Cnull -> pp_print_string ppf "null"
  | Const (Cbool b) -> pp_print_bool ppf b
  | Const (Cint i) -> pp_print_int ppf i
  | Const (Cfloat f) -> fprintf ppf "%h" f
  | Const (Cstring s) -> fprintf ppf "%S" s
  | Const (Cchar c) -> fprintf ppf "'%c'" c
  | This -> pp_print_string ppf "this"
  | Var v -> pp_print_string ppf v
  | Let (v, e1, e2) -> fprintf ppf "(let %s %a %a)" v pp e1 pp e2
  | Assign (v, e1) -> fprintf ppf "(assign %s %a)" v pp e1
  | Field_get (o, f) -> fprintf ppf "(get %a %s)" pp o f
  | Field_set (o, f, v) -> fprintf ppf "(set %a %s %a)" pp o f pp v
  | Call (o, m, args) -> fprintf ppf "(call %a %s%a)" pp o m pp_args args
  | Static_call (c, m, args) ->
      fprintf ppf "(scall %s %s%a)" c m pp_args args
  | New (c, args) -> fprintf ppf "(new %s%a)" c pp_args args
  | New_array (ty, items) ->
      fprintf ppf "(array %s%a)" (Ty.to_string ty) pp_args items
  | Index_get (a, i) -> fprintf ppf "(aget %a %a)" pp a pp i
  | Index_set (a, i, v) -> fprintf ppf "(aset %a %a %a)" pp a pp i pp v
  | Array_length a -> fprintf ppf "(alen %a)" pp a
  | If (c, t, e) -> fprintf ppf "(if %a %a %a)" pp c pp t pp e
  | While (c, b) -> fprintf ppf "(while %a %a)" pp c pp b
  | Seq es -> fprintf ppf "(seq%a)" pp_args es
  | Binop (op, a, b) -> fprintf ppf "(%s %a %a)" (binop_name op) pp a pp b
  | Unop (op, a) -> fprintf ppf "(%s %a)" (unop_name op) pp a
  | Throw a -> fprintf ppf "(throw %a)" pp a
  | Try (b, v, h) -> fprintf ppf "(try %a %s %a)" pp b v pp h

and pp_args ppf = function
  | [] -> ()
  | args ->
      List.iter (fun a -> Format.fprintf ppf " %a" pp a) args

let to_string e = Format.asprintf "%a" pp e

let int i = Const (Cint i)
let str s = Const (Cstring s)
let bool b = Const (Cbool b)
let null = Const Cnull
let get f = Field_get (This, f)
let set f v = Field_set (This, f, v)
