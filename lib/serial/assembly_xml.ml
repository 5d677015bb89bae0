open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module S = Pti_util.Strutil

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

(* The readers raise [Bad] where a field fails; each entry point answers
   once. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let answer read x = match read x with v -> Ok v | exception Bad m -> Error m

let attr name = function
  | Xml.Element (_, attrs, _) -> (
      match List.assoc name attrs with
      | v -> v
      | exception Not_found -> bad "missing attribute %S" name)
  | _ -> bad "missing attribute %S" name

(* Attribute [name] of [x], read by [parse]. *)
let parsed name parse x =
  let s = attr name x in
  match parse s with Some v -> v | None -> bad "bad %s %S" name s

(* [read] of each child element tagged [tag], in document order. *)
let[@tail_mod_cons] rec members tag read = function
  | [] -> []
  | (Xml.Element (t, _, _) as m) :: rest when String.equal t tag ->
      read m :: members tag read rest
  | _ :: rest -> members tag read rest

let name x = attr "name" x

let chr s =
  match int_of_string_opt s with
  | Some c when c >= 0 && c < 256 -> Some (Char.chr c)
  | _ -> None

let rec expr x =
  match x with
  | Xml.Element (tag, _, _) -> (
      match (tag, Xml.elements x) with
      | "null", _ -> Expr.null
      | "bool", _ -> Expr.bool (parsed "v" bool_of_string_opt x)
      | "int", _ -> Expr.int (parsed "v" int_of_string_opt x)
      | "float", _ ->
          Expr.Const (Expr.Cfloat (parsed "v" float_of_string_opt x))
      | "str", _ -> Expr.str (attr "v" x)
      | "chr", _ -> Expr.Const (Expr.Cchar (parsed "v" chr x))
      | "this", _ -> Expr.This
      | "var", _ -> Expr.Var (name x)
      | "let", [ e1; e2 ] -> Expr.Let (name x, expr e1, expr e2)
      | "assign", [ e1 ] -> Expr.Assign (name x, expr e1)
      | "fget", [ o ] -> Expr.Field_get (expr o, attr "field" x)
      | "fset", [ o; v ] -> Expr.Field_set (expr o, attr "field" x, expr v)
      | "call", recv :: args ->
          Expr.Call (expr recv, name x, List.map expr args)
      | "scall", args ->
          Expr.Static_call (attr "class" x, name x, List.map expr args)
      | "new", args -> Expr.New (attr "class" x, List.map expr args)
      | "newarr", items ->
          Expr.New_array (parsed "type" Ty.of_string x, List.map expr items)
      | "aget", [ a; i ] -> Expr.Index_get (expr a, expr i)
      | "aset", [ a; i; v ] -> Expr.Index_set (expr a, expr i, expr v)
      | "alen", [ a ] -> Expr.Array_length (expr a)
      | "if", [ c; t; e ] -> Expr.If (expr c, expr t, expr e)
      | "while", [ c; b ] -> Expr.While (expr c, expr b)
      | "seq", es -> Expr.Seq (List.map expr es)
      | "binop", [ a; b ] ->
          Expr.Binop (parsed "op" binop_of_string x, expr a, expr b)
      | "unop", [ a ] -> Expr.Unop (parsed "op" unop_of_string x, expr a)
      | "throw", [ a ] -> Expr.Throw (expr a)
      | "try", [ b; h ] -> Expr.Try (expr b, attr "var" x, expr h)
      | _, es ->
          bad "bad expression <%s> with %d children" tag (List.length es))
  | _ -> bad "expected an element"

let expr_of_xml = answer expr

(* --- classes ---------------------------------------------------------- *)

let mods_attrs (m : Meta.member_mods) =
  [
    ("visibility", Meta.visibility_to_string m.Meta.visibility);
    ("static", string_of_bool m.Meta.static);
    ("virtual", string_of_bool m.Meta.virtual_);
  ]

let params_to_xml ps =
  List.map
    (fun (p : Meta.param) ->
      Xml.elt "param"
        ~attrs:
          [ ("name", p.Meta.param_name); ("type", Ty.to_string p.Meta.param_ty) ]
        [])
    ps

let body_to_xml tag = function
  | None -> []
  | Some e -> [ Xml.elt tag [ expr_to_xml e ] ]

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

let mods x =
  {
    Meta.visibility = parsed "visibility" Meta.visibility_of_string x;
    static = parsed "static" bool_of_string_opt x;
    virtual_ = parsed "virtual" bool_of_string_opt x;
  }

let param p =
  { Meta.param_name = name p; param_ty = parsed "type" Ty.of_string p }

(* The one expression under the child tagged [tag], if there is one. *)
let body tag x =
  match Xml.child tag x with
  | None -> None
  | Some b -> (
      match Xml.elements b with
      | [ e ] -> Some (expr e)
      | _ -> bad "<%s> expects one child" tag)

let field f =
  {
    Meta.f_name = name f;
    f_ty = parsed "type" Ty.of_string f;
    f_mods = mods f;
    f_init = body "init" f;
  }

let ctor c =
  {
    Meta.c_params = members "param" param (Xml.children c);
    c_mods = mods c;
    c_body = body "body" c;
  }

let meth m =
  {
    Meta.m_name = name m;
    m_params = members "param" param (Xml.children m);
    m_return = parsed "return" Ty.of_string m;
    m_mods = mods m;
    m_body = body "body" m;
  }

let class_ root x =
  match x with
  | Xml.Element (tag, _, children) when String.equal tag root ->
      {
        Meta.td_name = name x;
        td_namespace =
          (match attr "namespace" x with "" -> [] | ns -> S.split_on '.' ns);
        td_guid = parsed "guid" Guid.of_string x;
        td_kind = parsed "kind" Meta.kind_of_string x;
        td_super = Option.map name (Xml.child "super" x);
        td_interfaces = members "interface" name children;
        td_fields = members "field" field children;
        td_ctors = members "constructor" ctor children;
        td_methods = members "method" meth children;
        td_assembly = attr "assembly" x;
      }
  | Xml.Element (other, _, _) -> bad "expected <%s>, got <%s>" root other
  | _ -> bad "expected an element"

let class_of_xml ?(root = "class") x = answer (class_ root) x

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

let assembly = function
  | Xml.Element ("assembly", _, children) as x ->
      {
        Assembly.asm_name = name x;
        asm_version = parsed "version" int_of_string_opt x;
        asm_classes = members "class" (class_ "class") children;
        asm_requires = members "requires" name children;
      }
  | Xml.Element (other, _, _) -> bad "expected <assembly>, got <%s>" other
  | _ -> bad "expected an element"

let of_xml x = answer assembly x

(* Wire strings carry an integrity digest over the bytes as sent: a
   byte flip that still parses as a (different) assembly would load
   mangled code, so corruption must be caught before loading. *)
let to_string a = Pti_xml.Digest_attr.to_string (to_xml a)

let of_string s =
  match Pti_xml.Digest_attr.of_string s with
  | Error (`Syntax e) -> Error (Format.asprintf "%a" Xml.pp_error e)
  | Error `Mismatch -> Error "corrupt assembly: digest mismatch"
  | Ok x -> of_xml x
