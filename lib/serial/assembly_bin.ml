open Pti_cts
module W = Bytes_io.Writer
module R = Bytes_io.Reader
module Guid = Pti_util.Guid

(* The readers raise [Failure] on a field that does not parse and
   [R.Underflow] on truncation; each entry point answers once. *)
let parsed what of_string s =
  match of_string s with
  | Some v -> v
  | None -> failwith (Printf.sprintf "bad %s %S" what s)

(* --- members, shared with PTID ----------------------------------------- *)

let write_ty w ty = W.string w (Ty.to_string ty)
let read_ty r = parsed "type" Ty.of_string (R.string r)

let write_mods w (m : Meta.member_mods) =
  W.string w (Meta.visibility_to_string m.Meta.visibility);
  W.bool w m.Meta.static;
  W.bool w m.Meta.virtual_

let read_mods r =
  let visibility = parsed "visibility" Meta.visibility_of_string (R.string r) in
  let static = R.bool r in
  { Meta.visibility; static; virtual_ = R.bool r }

(* Explicit recursion, no closure: PTID writes and reads parameters on
   every description. *)
let rec write_each w name ty = function
  | [] -> ()
  | p :: ps -> W.string w (name p); write_ty w (ty p); write_each w name ty ps

let write_params w name ty ps =
  W.varint w (List.length ps);
  write_each w name ty ps

let rec read_each r make acc k =
  if k = 0 then List.rev acc
  else
    let name = R.string r in
    read_each r make (make name (read_ty r) :: acc) (k - 1)

let read_params r make = read_each r make [] (Framing.read_count r)

(* --- expressions: one tag byte per node, 0 for a member without one ----- *)

let binops =
  Expr.[| Add; Sub; Mul; Div; Mod; Eq; Neq; Lt; Le; Gt; Ge; And; Or; Concat |]

let unops = Expr.[| Neg; Not |]

let rec code_of table op i =
  if table.(i) = op then i else code_of table op (i + 1)

let op_of table r =
  let i = R.u8 r in
  if i < Array.length table then table.(i) else failwith "bad operator"

let rec write_expr w (e : Expr.t) =
  match e with
  | Const Cnull -> W.u8 w 1
  | Const (Cbool b) -> W.u8 w 2; W.bool w b
  | Const (Cint i) -> W.u8 w 3; W.zigzag w i
  | Const (Cfloat f) -> W.u8 w 4; W.f64 w f
  | Const (Cstring s) -> W.u8 w 5; W.string w s
  | Const (Cchar c) -> W.u8 w 6; W.u8 w (Char.code c)
  | This -> W.u8 w 7
  | Var v -> W.u8 w 8; W.string w v
  | Let (v, a, b) -> W.u8 w 9; W.string w v; write_expr w a; write_expr w b
  | Assign (v, a) -> W.u8 w 10; W.string w v; write_expr w a
  | Field_get (o, f) -> W.u8 w 11; write_expr w o; W.string w f
  | Field_set (o, f, v) ->
      W.u8 w 12; write_expr w o; W.string w f; write_expr w v
  | Call (o, m, args) ->
      W.u8 w 13; write_expr w o; W.string w m; write_exprs w args
  | Static_call (c, m, args) ->
      W.u8 w 14; W.string w c; W.string w m; write_exprs w args
  | New (c, args) -> W.u8 w 15; W.string w c; write_exprs w args
  | New_array (ty, items) -> W.u8 w 16; write_ty w ty; write_exprs w items
  | Index_get (a, i) -> W.u8 w 17; write_expr w a; write_expr w i
  | Index_set (a, i, v) ->
      W.u8 w 18; write_expr w a; write_expr w i; write_expr w v
  | Array_length a -> W.u8 w 19; write_expr w a
  | If (c, t, e) -> W.u8 w 20; write_expr w c; write_expr w t; write_expr w e
  | While (c, b) -> W.u8 w 21; write_expr w c; write_expr w b
  | Seq es -> W.u8 w 22; write_exprs w es
  | Binop (op, a, b) ->
      W.u8 w 23; W.u8 w (code_of binops op 0); write_expr w a; write_expr w b
  | Unop (op, a) -> W.u8 w 24; W.u8 w (code_of unops op 0); write_expr w a
  | Throw a -> W.u8 w 25; write_expr w a
  | Try (b, v, h) -> W.u8 w 26; write_expr w b; W.string w v; write_expr w h

and write_exprs w es = Framing.write_list w write_expr es

let write_body w = function None -> W.u8 w 0 | Some e -> write_expr w e

let str = R.string

(* [depth] is the node's level, the body's root at 1. Each node reads its
   tag before its children, so a decode is linear in its input. *)
let rec expr r depth = node r depth (R.u8 r)

and node r depth tag : Expr.t =
  if depth > Payload.max_depth then
    failwith (Printf.sprintf "code nested deeper than %d" Payload.max_depth);
  let d = depth + 1 in
  match tag with
  | 1 -> Const Cnull
  | 2 -> Const (Cbool (R.bool r))
  | 3 -> Const (Cint (R.zigzag r))
  | 4 -> Const (Cfloat (R.f64 r))
  | 5 -> Const (Cstring (str r))
  | 6 -> Const (Cchar (Char.chr (R.u8 r)))
  | 7 -> This
  | 8 -> Var (str r)
  | 9 -> let v = str r in let a = expr r d in Let (v, a, expr r d)
  | 10 -> let v = str r in Assign (v, expr r d)
  | 11 -> let o = expr r d in Field_get (o, str r)
  | 12 -> let o = expr r d in let f = str r in Field_set (o, f, expr r d)
  | 13 -> let o = expr r d in let m = str r in Call (o, m, exprs r d)
  | 14 -> let c = str r in let m = str r in Static_call (c, m, exprs r d)
  | 15 -> let c = str r in New (c, exprs r d)
  | 16 -> let ty = read_ty r in New_array (ty, exprs r d)
  | 17 -> let a = expr r d in Index_get (a, expr r d)
  | 18 -> let a = expr r d in let i = expr r d in Index_set (a, i, expr r d)
  | 19 -> Array_length (expr r d)
  | 20 -> let c = expr r d in let t = expr r d in If (c, t, expr r d)
  | 21 -> let c = expr r d in While (c, expr r d)
  | 22 -> Seq (exprs r d)
  | 23 -> let op = op_of binops r in let a = expr r d in Binop (op, a, expr r d)
  | 24 -> let op = op_of unops r in Unop (op, expr r d)
  | 25 -> Throw (expr r d)
  | 26 -> let b = expr r d in let v = str r in Try (b, v, expr r d)
  | t -> failwith (Printf.sprintf "bad expression tag %d" t)

and exprs r depth = Framing.read_list r (fun r -> expr r depth)

let read_body r = match R.u8 r with 0 -> None | tag -> Some (node r 1 tag)

(* --- classes: PTID's layout, a body after every member ------------------ *)

let param_name p = p.Meta.param_name
let param_ty p = p.Meta.param_ty
let param param_name param_ty = { Meta.param_name; param_ty }
let write_params' w ps = write_params w param_name param_ty ps

let write_field w (f : Meta.field_def) =
  W.string w f.f_name; write_ty w f.f_ty; write_mods w f.f_mods;
  write_body w f.f_init

let write_ctor w (c : Meta.ctor_def) =
  write_params' w c.c_params; write_mods w c.c_mods; write_body w c.c_body

let write_method w (m : Meta.method_def) =
  W.string w m.m_name; write_params' w m.m_params; write_ty w m.m_return;
  write_mods w m.m_mods; write_body w m.m_body

let write_class w (cd : Meta.class_def) =
  W.string w cd.td_name;
  Framing.write_string_list w cd.td_namespace;
  W.string w (Guid.to_string cd.td_guid);
  W.string w (Meta.kind_to_string cd.td_kind);
  W.string w cd.td_assembly;
  (match cd.td_super with
  | None -> W.bool w false
  | Some s -> W.bool w true; W.string w s);
  Framing.write_string_list w cd.td_interfaces;
  Framing.write_list w write_field cd.td_fields;
  Framing.write_list w write_ctor cd.td_ctors;
  Framing.write_list w write_method cd.td_methods

let read_field r =
  let f_name = str r in
  let f_ty = read_ty r in
  let f_mods = read_mods r in
  { Meta.f_name; f_ty; f_mods; f_init = read_body r }

let read_ctor r =
  let c_params = read_params r param in
  let c_mods = read_mods r in
  { Meta.c_params; c_mods; c_body = read_body r }

let read_method r =
  let m_name = str r in
  let m_params = read_params r param in
  let m_return = read_ty r in
  let m_mods = read_mods r in
  { Meta.m_name; m_params; m_return; m_mods; m_body = read_body r }

let read_class r =
  let td_name = str r in
  let td_namespace = Framing.read_string_list r in
  let td_guid = parsed "guid" Guid.of_string (str r) in
  let td_kind = parsed "kind" Meta.kind_of_string (str r) in
  let td_assembly = str r in
  let td_super = if R.bool r then Some (str r) else None in
  let td_interfaces = Framing.read_string_list r in
  let td_fields = Framing.read_list r read_field in
  let td_ctors = Framing.read_list r read_ctor in
  let td_methods = Framing.read_list r read_method in
  { Meta.td_name; td_namespace; td_guid; td_kind; td_super; td_interfaces;
    td_fields; td_ctors; td_methods; td_assembly }

(* --- the frame ---------------------------------------------------------- *)

let magic = "PTIA\x01"
let scratch = W.scratch ()

let to_string (a : Assembly.t) =
  let w = scratch () in
  W.begin_seal w ~magic;
  W.string w a.asm_name;
  W.zigzag w a.asm_version;
  Framing.write_string_list w a.asm_requires;
  Framing.write_list w write_class a.asm_classes;
  W.seal w

let read_assembly r =
  let asm_name = str r in
  let asm_version = R.zigzag r in
  let asm_requires = Framing.read_string_list r in
  let asm_classes = Framing.read_list r read_class in
  if not (R.at_end r) then failwith "trailing bytes";
  { Assembly.asm_name; asm_version; asm_classes; asm_requires }

let of_string s =
  match Bytes_io.unseal ~magic s with
  | Error `Short -> Error "truncated assembly frame"
  | Error `Bad_magic -> Error "not an assembly frame"
  | Error `Bad_checksum -> Error "corrupt assembly: checksum mismatch"
  | Ok r -> (
      match read_assembly r with
      | a -> Ok a
      | exception Failure m -> Error ("bad assembly frame: " ^ m)
      | exception R.Underflow m -> Error ("truncated assembly frame: " ^ m))
