open Pti_cts
module Xml = Pti_xml.Xml

type error = Malformed of string | Unknown_type of string

let pp_error ppf = function
  | Malformed m -> Format.fprintf ppf "malformed SOAP payload: %s" m
  | Unknown_type t -> Format.fprintf ppf "unknown type %S" t

let rec strip = function Value.Vproxy p -> strip p.Value.px_target | v -> v

type walk = {
  seen : (int, int) Hashtbl.t;  (* oid -> id *)
  mutable classes : string list;  (* distinct, case-insensitively; reversed *)
}

let rec value_to_xml st v =
  match strip v with
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
          let bindings =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) o.Value.fields []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          Xml.elt "obj"
            ~attrs:[ ("id", string_of_int id); ("type", o.Value.cls) ]
            (List.map
               (fun (k, v) ->
                 Xml.elt "field" ~attrs:[ ("name", k) ]
                   [ value_to_xml st v ])
               bindings))
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

exception Fail of error

let fail fmt = Printf.ksprintf (fun m -> raise (Fail (Malformed m))) fmt

let one_child x =
  match
    List.filter
      (function Xml.Element _ -> true | _ -> false)
      (Xml.children x)
  with
  | [ c ] -> c
  | cs -> fail "expected exactly one element child, got %d" (List.length cs)

let rec xml_to_value ?resolve reg objects x =
  let resolve =
    match resolve with Some f -> f | None -> Registry.find reg
  in
  match Xml.tag x with
  | Some "null" -> Value.Vnull
  | Some "bool" -> (
      match bool_of_string_opt (String.trim (Xml.text_content x)) with
      | Some b -> Value.Vbool b
      | None -> fail "bad bool %S" (Xml.text_content x))
  | Some "int" -> (
      match int_of_string_opt (String.trim (Xml.text_content x)) with
      | Some i -> Value.Vint i
      | None -> fail "bad int %S" (Xml.text_content x))
  | Some "float" -> (
      match float_of_string_opt (String.trim (Xml.text_content x)) with
      | Some f -> Value.Vfloat f
      | None -> fail "bad float %S" (Xml.text_content x))
  | Some "string" -> Value.Vstring (Xml.text_content x)
  | Some "char" -> (
      match int_of_string_opt (String.trim (Xml.text_content x)) with
      | Some c when c >= 0 && c < 256 -> Value.Vchar (Char.chr c)
      | _ -> fail "bad char %S" (Xml.text_content x))
  | Some "array" -> (
      let ty_s =
        match Xml.attr "elemType" x with
        | Some s -> s
        | None -> fail "array without elemType"
      in
      match Ty.of_string ty_s with
      | None -> fail "bad elemType %S" ty_s
      | Some elem_ty ->
          let items =
            Xml.children x
            |> List.filter (function Xml.Element _ -> true | _ -> false)
            |> List.map (xml_to_value ~resolve reg objects)
          in
          Value.Varr { Value.elem_ty; items = Array.of_list items })
  | Some "ref" -> (
      let id =
        match Xml.attr "href" x with
        | Some s -> (
            match int_of_string_opt s with
            | Some i -> i
            | None -> fail "bad href %S" s)
        | None -> fail "ref without href"
      in
      match Hashtbl.find_opt objects id with
      | Some o -> Value.Vobj o
      | None -> fail "dangling href %d" id)
  | Some "obj" -> (
      let id =
        match Xml.attr "id" x with
        | Some s -> (
            match int_of_string_opt s with
            | Some i -> i
            | None -> fail "bad id %S" s)
        | None -> fail "obj without id"
      in
      let cls =
        match Xml.attr "type" x with
        | Some s -> s
        | None -> fail "obj without type"
      in
      match resolve cls with
      | None -> raise (Fail (Unknown_type cls))
      | Some cd ->
          let o, _ = Registry.fresh_object reg cd in
          Hashtbl.add objects id o;
          List.iter
            (fun c ->
              match Xml.tag c with
              | Some "field" ->
                  let name =
                    match Xml.attr "name" c with
                    | Some n -> n
                    | None -> fail "field without name"
                  in
                  let v = xml_to_value ~resolve reg objects (one_child c) in
                  Value.update_field o name v
              | Some other -> fail "unexpected <%s> inside obj" other
              | None -> ())
            (Xml.children x);
          Value.Vobj o)
  | Some other -> fail "unexpected element <%s>" other
  | None -> fail "expected an element"

let decode_xml ?resolve reg x =
  try Ok (xml_to_value ?resolve reg (Hashtbl.create 16) x) with Fail e -> Error e

let decode ?resolve reg s =
  match Xml.parse s with
  | Error e -> Error (Malformed (Format.asprintf "%a" Xml.pp_error e))
  | Ok root -> (
      match Xml.tag root with
      | Some "soap:Envelope" -> (
          match Xml.child "soap:Body" root with
          | None -> Error (Malformed "missing soap:Body")
          | Some body -> (
              try decode_xml ?resolve reg (one_child body) with Fail e -> Error e))
      | Some _ ->
          (* Also accept a bare payload element. *)
          decode_xml ?resolve reg root
      | None -> Error (Malformed "no root element"))
