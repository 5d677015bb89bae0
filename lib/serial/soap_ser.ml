open Pti_cts
module Xml = Pti_xml.Xml

type error = Payload.error =
  | Malformed of string
  | Unknown_type of string
  | Corrupt of string

let pp_error = Payload.pp_error "SOAP"

type walk = {
  seen : (int, int) Hashtbl.t;  (* oid -> id *)
  mutable classes : string list;  (* distinct, case-insensitively; reversed *)
}

let rec value_to_xml st v =
  match Payload.strip v with
  | Value.Vnull -> Xml.elt "null" []
  | Value.Vbool b -> Xml.leaf "bool" (string_of_bool b)
  | Value.Vint i -> Xml.leaf "int" (string_of_int i)
  | Value.Vfloat f -> Xml.leaf "float" (Printf.sprintf "%h" f)
  | Value.Vstring s -> Xml.leaf "string" s
  | Value.Vchar c -> Xml.leaf "char" (string_of_int (Char.code c))
  | Value.Varr a ->
      Xml.elt "array"
        ~attrs:[ ("elemType", Ty.to_string a.Value.elem_ty) ]
        (Array.to_list (Array.map (value_to_xml st) a.Value.items))
  | Value.Vobj o -> (
      match Hashtbl.find_opt st.seen o.Value.oid with
      | Some id -> Xml.elt "ref" ~attrs:[ ("href", string_of_int id) ] []
      | None ->
          let id = Hashtbl.length st.seen + 1 in
          Hashtbl.add st.seen o.Value.oid id;
          (* Recorded here, before the fields are walked: the arguments
             of [Xml.elt] evaluate in an unspecified order. *)
          if not (Pti_util.Strutil.mem_ci o.Value.cls st.classes) then
            st.classes <- o.Value.cls :: st.classes;
          let field i k =
            Xml.elt "field" ~attrs:[ ("name", k) ]
              [ value_to_xml st o.Value.slots.(i) ]
          in
          Xml.elt "obj"
            ~attrs:[ ("id", string_of_int id); ("type", o.Value.cls) ]
            (List.mapi field (Array.to_list o.Value.keys)))
  | Value.Vproxy _ -> assert false

let encode_xml v =
  let st = { seen = Hashtbl.create 16; classes = [] } in
  let x = value_to_xml st v in
  (x, List.rev st.classes)

let encode v =
  Xml.to_string
    (Xml.elt "soap:Envelope"
       ~attrs:[ ("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/") ]
       [ Xml.elt "soap:Body" [ fst (encode_xml v) ] ])

module P = Payload

let one_child x =
  match Xml.elements x with
  | [ c ] -> c
  | cs ->
      P.malformed "expected exactly one element child, got %d" (List.length cs)

let attr name x =
  match Xml.attr name x with
  | Some s -> s
  | None ->
      P.malformed "%s without %s" (Option.value ~default:"" (Xml.tag x)) name

let int_attr name x =
  let s = attr name x in
  match int_of_string_opt s with
  | Some i -> i
  | None -> P.malformed "bad %s %S" name s

let text what parse x =
  match parse (String.trim (Xml.text_content x)) with
  | Some v -> v
  | None -> P.malformed "bad %s %S" what (Xml.text_content x)

let chr s =
  match int_of_string_opt s with
  | Some c when c >= 0 && c < 256 -> Some (Char.chr c)
  | _ -> None

(* A value where [ty] is declared, checked as soon as its outer shape is
   known, as {!Bin_ser} checks it. *)
let rec read b ty x =
  match x with
  | Xml.Element ("obj", _, fields) -> read_object b ty x fields
  | Xml.Element ("array", _, _) -> read_array b ty x
  | Xml.Element ("ref", _, _) -> P.ref_ b ty (int_attr "href" x)
  | Xml.Element (tag, _, _) ->
      P.value b ty
        (match tag with
        | "null" -> Value.Vnull
        | "bool" -> Value.Vbool (text "bool" bool_of_string_opt x)
        | "int" -> Value.Vint (text "int" int_of_string_opt x)
        | "float" -> Value.Vfloat (text "float" float_of_string_opt x)
        | "string" -> Value.Vstring (Xml.text_content x)
        | "char" -> Value.Vchar (text "char" chr x)
        | other -> P.malformed "unexpected element <%s>" other)
  | _ -> P.malformed "expected an element"

and read_array b ty x =
  let ty_s = attr "elemType" x in
  let elem_ty =
    match Ty.of_string ty_s with
    | Some ty -> ty
    | None -> P.malformed "bad elemType %S" ty_s
  in
  let elements = Xml.elements x in
  let items = Array.make (List.length elements) Value.Vnull in
  let v = P.array b ty elem_ty items in
  List.iteri (fun i c -> items.(i) <- read b elem_ty c) elements;
  P.ascend b;
  v

and read_object b ty x fields =
  let id = int_attr "id" x in
  let cls = attr "type" x in
  let o, ly = P.obj b ~id ty cls ~pos:0 ~len:(String.length cls) in
  (* Fields come in key order: each is found at the slot after the
     last. *)
  let hint = ref 0 in
  List.iter
    (function
      | Xml.Element ("field", _, _) as c ->
          let name = attr "name" c in
          let s =
            Registry.slot ly name ~pos:0 ~len:(String.length name) ~hint:!hint
          in
          P.set o s (read b (P.declared ly s) (one_child c));
          if s >= 0 then hint := s + 1
      | Xml.Element (other, _, _) ->
          P.malformed "unexpected <%s> inside obj" other
      | _ -> ())
    fields;
  P.ascend b;
  Value.Vobj o

(* The encoder numbers objects from 1. *)
let decode_xml ?resolve ?layout reg x =
  P.decode ?resolve ?layout ~first:1 reg (fun b -> read b P.any x)

let decode ?resolve ?layout reg s =
  match Xml.parse s with
  | Error e -> Error (Malformed (Format.asprintf "%a" Xml.pp_error e))
  | Ok root ->
      P.decode ?resolve ?layout ~first:1 reg (fun b ->
          read b P.any
            (match root with
            | Xml.Element ("soap:Envelope", _, _) -> (
                match Xml.child "soap:Body" root with
                | Some body -> one_child body
                | None -> P.malformed "missing soap:Body")
            (* Also accept a bare payload element. *)
            | _ -> root))
