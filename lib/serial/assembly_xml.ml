open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module S = Pti_util.Strutil

let ( let* ) = Result.bind

(* --- expressions ------------------------------------------------------ *)

let binop_of_string s =
  List.find_opt
    (fun op -> String.equal (Expr.binop_name op) s)
    [
      Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.Eq; Expr.Neq;
      Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.And; Expr.Or; Expr.Concat;
    ]

let unop_of_string s =
  List.find_opt
    (fun op -> String.equal (Expr.unop_name op) s)
    [ Expr.Neg; Expr.Not ]

let rec expr_to_xml e =
  let open Xml in
  match e with
  | Expr.Const Expr.Cnull -> elt "null" []
  | Expr.Const (Expr.Cbool b) ->
      elt "bool" ~attrs:[ ("v", string_of_bool b) ] []
  | Expr.Const (Expr.Cint i) -> elt "int" ~attrs:[ ("v", string_of_int i) ] []
  | Expr.Const (Expr.Cfloat f) ->
      elt "float" ~attrs:[ ("v", Printf.sprintf "%h" f) ] []
  | Expr.Const (Expr.Cstring s) -> elt "str" ~attrs:[ ("v", s) ] []
  | Expr.Const (Expr.Cchar c) ->
      elt "chr" ~attrs:[ ("v", string_of_int (Char.code c)) ] []
  | Expr.This -> elt "this" []
  | Expr.Var v -> elt "var" ~attrs:[ ("name", v) ] []
  | Expr.Let (v, e1, e2) ->
      elt "let" ~attrs:[ ("name", v) ] [ expr_to_xml e1; expr_to_xml e2 ]
  | Expr.Assign (v, e1) ->
      elt "assign" ~attrs:[ ("name", v) ] [ expr_to_xml e1 ]
  | Expr.Field_get (o, f) ->
      elt "fget" ~attrs:[ ("field", f) ] [ expr_to_xml o ]
  | Expr.Field_set (o, f, v) ->
      elt "fset" ~attrs:[ ("field", f) ] [ expr_to_xml o; expr_to_xml v ]
  | Expr.Call (o, m, args) ->
      elt "call" ~attrs:[ ("name", m) ] (List.map expr_to_xml (o :: args))
  | Expr.Static_call (c, m, args) ->
      elt "scall" ~attrs:[ ("class", c); ("name", m) ]
        (List.map expr_to_xml args)
  | Expr.New (c, args) ->
      elt "new" ~attrs:[ ("class", c) ] (List.map expr_to_xml args)
  | Expr.New_array (ty, items) ->
      elt "newarr" ~attrs:[ ("type", Ty.to_string ty) ]
        (List.map expr_to_xml items)
  | Expr.Index_get (a, i) -> elt "aget" [ expr_to_xml a; expr_to_xml i ]
  | Expr.Index_set (a, i, v) ->
      elt "aset" [ expr_to_xml a; expr_to_xml i; expr_to_xml v ]
  | Expr.Array_length a -> elt "alen" [ expr_to_xml a ]
  | Expr.If (c, t, e) ->
      elt "if" [ expr_to_xml c; expr_to_xml t; expr_to_xml e ]
  | Expr.While (c, b) -> elt "while" [ expr_to_xml c; expr_to_xml b ]
  | Expr.Seq es -> elt "seq" (List.map expr_to_xml es)
  | Expr.Binop (op, a, b) ->
      elt "binop" ~attrs:[ ("op", Expr.binop_name op) ]
        [ expr_to_xml a; expr_to_xml b ]
  | Expr.Unop (op, a) ->
      elt "unop" ~attrs:[ ("op", Expr.unop_name op) ] [ expr_to_xml a ]
  | Expr.Throw a -> elt "throw" [ expr_to_xml a ]
  | Expr.Try (b, v, h) ->
      elt "try" ~attrs:[ ("var", v) ] [ expr_to_xml b; expr_to_xml h ]

let attr name x =
  match Xml.attr name x with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing attribute %S" name)

let elements x =
  List.filter (function Xml.Element _ -> true | _ -> false) (Xml.children x)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let rec expr_of_xml x =
  let kids () = map_result expr_of_xml (elements x) in
  match Xml.tag x with
  | Some "null" -> Ok Expr.null
  | Some "bool" ->
      let* v = attr "v" x in
      (match bool_of_string_opt v with
      | Some b -> Ok (Expr.bool b)
      | None -> Error "bad bool")
  | Some "int" ->
      let* v = attr "v" x in
      (match int_of_string_opt v with
      | Some i -> Ok (Expr.int i)
      | None -> Error "bad int")
  | Some "float" ->
      let* v = attr "v" x in
      (match float_of_string_opt v with
      | Some f -> Ok (Expr.Const (Expr.Cfloat f))
      | None -> Error "bad float")
  | Some "str" ->
      let* v = attr "v" x in
      Ok (Expr.str v)
  | Some "chr" ->
      let* v = attr "v" x in
      (match int_of_string_opt v with
      | Some c when c >= 0 && c < 256 -> Ok (Expr.Const (Expr.Cchar (Char.chr c)))
      | _ -> Error "bad chr")
  | Some "this" -> Ok Expr.This
  | Some "var" ->
      let* name = attr "name" x in
      Ok (Expr.Var name)
  | Some "let" -> (
      let* name = attr "name" x in
      let* ks = kids () in
      match ks with
      | [ e1; e2 ] -> Ok (Expr.Let (name, e1, e2))
      | _ -> Error "let expects 2 children")
  | Some "assign" -> (
      let* name = attr "name" x in
      let* ks = kids () in
      match ks with
      | [ e1 ] -> Ok (Expr.Assign (name, e1))
      | _ -> Error "assign expects 1 child")
  | Some "fget" -> (
      let* field = attr "field" x in
      let* ks = kids () in
      match ks with
      | [ o ] -> Ok (Expr.Field_get (o, field))
      | _ -> Error "fget expects 1 child")
  | Some "fset" -> (
      let* field = attr "field" x in
      let* ks = kids () in
      match ks with
      | [ o; v ] -> Ok (Expr.Field_set (o, field, v))
      | _ -> Error "fset expects 2 children")
  | Some "call" -> (
      let* name = attr "name" x in
      let* ks = kids () in
      match ks with
      | recv :: args -> Ok (Expr.Call (recv, name, args))
      | [] -> Error "call expects a receiver")
  | Some "scall" ->
      let* cls = attr "class" x in
      let* name = attr "name" x in
      let* args = kids () in
      Ok (Expr.Static_call (cls, name, args))
  | Some "new" ->
      let* cls = attr "class" x in
      let* args = kids () in
      Ok (Expr.New (cls, args))
  | Some "newarr" -> (
      let* ty_s = attr "type" x in
      match Ty.of_string ty_s with
      | None -> Error "bad array type"
      | Some ty ->
          let* items = kids () in
          Ok (Expr.New_array (ty, items)))
  | Some "aget" -> (
      let* ks = kids () in
      match ks with
      | [ a; i ] -> Ok (Expr.Index_get (a, i))
      | _ -> Error "aget expects 2 children")
  | Some "aset" -> (
      let* ks = kids () in
      match ks with
      | [ a; i; v ] -> Ok (Expr.Index_set (a, i, v))
      | _ -> Error "aset expects 3 children")
  | Some "alen" -> (
      let* ks = kids () in
      match ks with
      | [ a ] -> Ok (Expr.Array_length a)
      | _ -> Error "alen expects 1 child")
  | Some "if" -> (
      let* ks = kids () in
      match ks with
      | [ c; t; e ] -> Ok (Expr.If (c, t, e))
      | _ -> Error "if expects 3 children")
  | Some "while" -> (
      let* ks = kids () in
      match ks with
      | [ c; b ] -> Ok (Expr.While (c, b))
      | _ -> Error "while expects 2 children")
  | Some "seq" ->
      let* ks = kids () in
      Ok (Expr.Seq ks)
  | Some "binop" -> (
      let* op_s = attr "op" x in
      match binop_of_string op_s with
      | None -> Error (Printf.sprintf "bad binop %S" op_s)
      | Some op -> (
          let* ks = kids () in
          match ks with
          | [ a; b ] -> Ok (Expr.Binop (op, a, b))
          | _ -> Error "binop expects 2 children"))
  | Some "unop" -> (
      let* op_s = attr "op" x in
      match unop_of_string op_s with
      | None -> Error (Printf.sprintf "bad unop %S" op_s)
      | Some op -> (
          let* ks = kids () in
          match ks with
          | [ a ] -> Ok (Expr.Unop (op, a))
          | _ -> Error "unop expects 1 child"))
  | Some "throw" -> (
      let* ks = kids () in
      match ks with
      | [ a ] -> Ok (Expr.Throw a)
      | _ -> Error "throw expects 1 child")
  | Some "try" -> (
      let* var = attr "var" x in
      let* ks = kids () in
      match ks with
      | [ b; h ] -> Ok (Expr.Try (b, var, h))
      | _ -> Error "try expects 2 children")
  | Some other -> Error (Printf.sprintf "unknown expression tag <%s>" other)
  | None -> Error "expected an element"

(* --- classes ---------------------------------------------------------- *)

let mods_attrs (m : Meta.member_mods) =
  [
    ("visibility", Meta.visibility_to_string m.Meta.visibility);
    ("static", string_of_bool m.Meta.static);
    ("virtual", string_of_bool m.Meta.virtual_);
  ]

let mods_of_xml x =
  let* vis_s = attr "visibility" x in
  let* visibility =
    match Meta.visibility_of_string vis_s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bad visibility %S" vis_s)
  in
  let* st_s = attr "static" x in
  let* vt_s = attr "virtual" x in
  match bool_of_string_opt st_s, bool_of_string_opt vt_s with
  | Some static, Some virtual_ -> Ok { Meta.visibility; static; virtual_ }
  | _ -> Error "bad modifier booleans"

let params_to_xml ps =
  List.map
    (fun (p : Meta.param) ->
      Xml.elt "param"
        ~attrs:
          [ ("name", p.Meta.param_name); ("type", Ty.to_string p.Meta.param_ty) ]
        [])
    ps

let params_of_xml x =
  map_result
    (fun p ->
      let* name = attr "name" p in
      let* ty_s = attr "type" p in
      match Ty.of_string ty_s with
      | Some ty -> Ok { Meta.param_name = name; param_ty = ty }
      | None -> Error (Printf.sprintf "bad param type %S" ty_s))
    (Xml.childs "param" x)

let body_to_xml tag = function
  | None -> []
  | Some e -> [ Xml.elt tag [ expr_to_xml e ] ]

let body_of_xml tag x =
  match Xml.child tag x with
  | None -> Ok None
  | Some b -> (
      match elements b with
      | [ e ] ->
          let* expr = expr_of_xml e in
          Ok (Some expr)
      | _ -> Error (Printf.sprintf "<%s> expects one child" tag))

let class_to_xml ?(root = "class") (cd : Meta.class_def) =
  let open Xml in
  elt root
    ~attrs:
      [
        ("name", cd.Meta.td_name);
        ("namespace", String.concat "." cd.Meta.td_namespace);
        ("guid", Guid.to_string cd.Meta.td_guid);
        ("kind", Meta.kind_to_string cd.Meta.td_kind);
        ("assembly", cd.Meta.td_assembly);
      ]
    (List.concat
       [
         (match cd.Meta.td_super with
         | None -> []
         | Some s -> [ elt "super" ~attrs:[ ("name", s) ] [] ]);
         List.map
           (fun i -> elt "interface" ~attrs:[ ("name", i) ] [])
           cd.Meta.td_interfaces;
         List.map
           (fun (f : Meta.field_def) ->
             elt "field"
               ~attrs:
                 (("name", f.Meta.f_name)
                 :: ("type", Ty.to_string f.Meta.f_ty)
                 :: mods_attrs f.Meta.f_mods)
               (body_to_xml "init" f.Meta.f_init))
           cd.Meta.td_fields;
         List.map
           (fun (c : Meta.ctor_def) ->
             elt "constructor" ~attrs:(mods_attrs c.Meta.c_mods)
               (params_to_xml c.Meta.c_params @ body_to_xml "body" c.Meta.c_body))
           cd.Meta.td_ctors;
         List.map
           (fun (m : Meta.method_def) ->
             elt "method"
               ~attrs:
                 (("name", m.Meta.m_name)
                 :: ("return", Ty.to_string m.Meta.m_return)
                 :: mods_attrs m.Meta.m_mods)
               (params_to_xml m.Meta.m_params @ body_to_xml "body" m.Meta.m_body))
           cd.Meta.td_methods;
       ])

let class_of_xml ?(root = "class") x =
  match Xml.tag x with
  | Some tag when String.equal tag root ->
      let* name = attr "name" x in
      let* ns_s = attr "namespace" x in
      let td_namespace = if ns_s = "" then [] else S.split_on '.' ns_s in
      let* guid_s = attr "guid" x in
      let* td_guid =
        match Guid.of_string guid_s with
        | Some g -> Ok g
        | None -> Error (Printf.sprintf "bad guid %S" guid_s)
      in
      let* kind_s = attr "kind" x in
      let* td_kind =
        match Meta.kind_of_string kind_s with
        | Some k -> Ok k
        | None -> Error (Printf.sprintf "bad kind %S" kind_s)
      in
      let* td_assembly = attr "assembly" x in
      let* td_super =
        match Xml.child "super" x with
        | None -> Ok None
        | Some s ->
            let* n = attr "name" s in
            Ok (Some n)
      in
      let* td_interfaces =
        map_result (attr "name") (Xml.childs "interface" x)
      in
      let* td_fields =
        map_result
          (fun f ->
            let* f_name = attr "name" f in
            let* ty_s = attr "type" f in
            let* f_ty =
              match Ty.of_string ty_s with
              | Some ty -> Ok ty
              | None -> Error (Printf.sprintf "bad field type %S" ty_s)
            in
            let* f_mods = mods_of_xml f in
            let* f_init = body_of_xml "init" f in
            Ok { Meta.f_name; f_ty; f_mods; f_init })
          (Xml.childs "field" x)
      in
      let* td_ctors =
        map_result
          (fun c ->
            let* c_params = params_of_xml c in
            let* c_mods = mods_of_xml c in
            let* c_body = body_of_xml "body" c in
            Ok { Meta.c_params; c_mods; c_body })
          (Xml.childs "constructor" x)
      in
      let* td_methods =
        map_result
          (fun m ->
            let* m_name = attr "name" m in
            let* ret_s = attr "return" m in
            let* m_return =
              match Ty.of_string ret_s with
              | Some ty -> Ok ty
              | None -> Error (Printf.sprintf "bad return type %S" ret_s)
            in
            let* m_params = params_of_xml m in
            let* m_mods = mods_of_xml m in
            let* m_body = body_of_xml "body" m in
            Ok { Meta.m_name; m_params; m_return; m_mods; m_body })
          (Xml.childs "method" x)
      in
      Ok
        {
          Meta.td_name = name;
          td_namespace;
          td_guid;
          td_kind;
          td_super;
          td_interfaces;
          td_fields;
          td_ctors;
          td_methods;
          td_assembly;
        }
  | Some other -> Error (Printf.sprintf "expected <%s>, got <%s>" root other)
  | None -> Error "expected an element"

(* --- assemblies ------------------------------------------------------- *)

let to_xml (a : Assembly.t) =
  Xml.elt "assembly"
    ~attrs:
      [
        ("name", a.Assembly.asm_name);
        ("version", string_of_int a.Assembly.asm_version);
      ]
    (List.map
       (fun r -> Xml.elt "requires" ~attrs:[ ("name", r) ] [])
       a.Assembly.asm_requires
    @ List.map class_to_xml a.Assembly.asm_classes)

let of_xml x =
  match Xml.tag x with
  | Some "assembly" ->
      let* name = attr "name" x in
      let* version_s = attr "version" x in
      let* version =
        match int_of_string_opt version_s with
        | Some v -> Ok v
        | None -> Error "bad version"
      in
      let* requires = map_result (attr "name") (Xml.childs "requires" x) in
      let* classes = map_result class_of_xml (Xml.childs "class" x) in
      Ok
        {
          Assembly.asm_name = name;
          asm_version = version;
          asm_classes = classes;
          asm_requires = requires;
        }
  | Some other -> Error (Printf.sprintf "expected <assembly>, got <%s>" other)
  | None -> Error "expected an element"

(* Wire strings carry an integrity digest over the bytes as sent: a
   byte flip that still parses as a (different) assembly would load
   mangled code, so corruption must be caught before loading. *)
let to_string a = Pti_xml.Digest_attr.to_string (to_xml a)

let of_string s =
  match Pti_xml.Digest_attr.of_string s with
  | Error (`Syntax e) -> Error (Format.asprintf "%a" Xml.pp_error e)
  | Error `Mismatch -> Error "corrupt assembly: digest mismatch"
  | Ok x -> of_xml x
