open Pti_cts
module Xml = Pti_xml.Xml

type error = Malformed of string | Unknown_type of string | Corrupt of string

let pp_error ppf = function
  | Malformed m -> Format.fprintf ppf "malformed SOAP payload: %s" m
  | Unknown_type t -> Format.fprintf ppf "unknown type %S" t
  | Corrupt m -> Format.fprintf ppf "corrupt SOAP payload: %s" m

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

(* The declared type of a value nothing declares: the root, and a field
   its class does not declare. *)
let any = Ty.Named "object"

(* One decode's state: objects by their sequential ids (the encoder
   numbers them from 1 in document order), and the layout of each class
   met, resolved once. *)
type outern = {
  reg : Registry.t;
  resolve : string -> Meta.class_def option;
  layout_of : Meta.class_def -> Registry.layout;
  mutable objects : Value.obj array;  (* object [id] at [id - 1] *)
  mutable nobjects : int;
  mutable layouts : (string * Registry.layout) list;
}

let no_object = { Value.oid = -1; cls = ""; fields = Hashtbl.create 1 }

let class_layout st cls =
  match
    List.find_opt (fun (c, _) -> Pti_util.Strutil.equal_ci c cls) st.layouts
  with
  | Some (_, ly) -> ly
  | None -> (
      match st.resolve cls with
      | None -> raise (Fail (Unknown_type cls))
      | Some cd ->
          let ly = st.layout_of cd in
          st.layouts <- (cls, ly) :: st.layouts;
          ly)

let mistyped ty v =
  raise
    (Fail
       (Corrupt
          (Printf.sprintf "a %s value where %s is declared"
             (Value.type_name v) (Ty.to_string ty))))

let check st ty v = if not (Registry.admits st.reg ty v) then mistyped ty v

let int_attr name x =
  match Xml.attr name x with
  | Some s -> (
      match int_of_string_opt s with
      | Some i -> i
      | None -> fail "bad %s %S" name s)
  | None -> fail "%s without %s" (Option.value ~default:"" (Xml.tag x)) name

(* A value where [ty] is declared, checked as soon as its outer shape is
   known, as {!Bin_ser} checks it. *)
let rec read st ty x =
  match Xml.tag x with
  | Some "obj" -> read_object st ty x
  | Some "array" -> read_array st ty x
  | _ ->
      let v = read_scalar st x in
      check st ty v;
      v

and read_scalar st x =
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
  | Some "ref" ->
      let id = int_attr "href" x in
      if id >= 1 && id <= st.nobjects then Value.Vobj st.objects.(id - 1)
      else fail "dangling href %d" id
  | Some other -> fail "unexpected element <%s>" other
  | None -> fail "expected an element"

and read_array st ty x =
  let ty_s =
    match Xml.attr "elemType" x with
    | Some s -> s
    | None -> fail "array without elemType"
  in
  match Ty.of_string ty_s with
  | None -> fail "bad elemType %S" ty_s
  | Some elem_ty ->
      let elements =
        List.filter (function Xml.Element _ -> true | _ -> false)
          (Xml.children x)
      in
      let items = Array.make (List.length elements) Value.Vnull in
      let v = Value.Varr { Value.elem_ty; items } in
      check st ty v;
      List.iteri (fun i c -> items.(i) <- read st elem_ty c) elements;
      v

and read_object st ty x =
  let id = int_attr "id" x in
  if id <> st.nobjects + 1 then fail "non-sequential object id %d" id;
  let cls =
    match Xml.attr "type" x with
    | Some s -> s
    | None -> fail "obj without type"
  in
  let ly = class_layout st cls in
  (* Declared defaults first, so missing payload fields are sane and
     undeclared ones are dropped. *)
  let o = Registry.instantiate ly in
  if st.nobjects = Array.length st.objects then begin
    let objects = Array.make (2 * st.nobjects) no_object in
    Array.blit st.objects 0 objects 0 st.nobjects;
    st.objects <- objects
  end;
  st.objects.(st.nobjects) <- o;
  st.nobjects <- id;
  let v = Value.Vobj o in
  if not (Registry.admits_instance ly ty) then mistyped ty v;
  (* Fields come in key order: each is found at the slot after the
     last. *)
  let hint = ref 0 in
  List.iter
    (fun c ->
      match Xml.tag c with
      | Some "field" ->
          let name =
            match Xml.attr "name" c with
            | Some n -> n
            | None -> fail "field without name"
          in
          let s =
            Registry.slot ly name ~pos:0 ~len:(String.length name) ~hint:!hint
          in
          if s < 0 then ignore (read st any (one_child c))
          else begin
            Hashtbl.replace o.Value.fields ly.Registry.ly_keys.(s)
              (read st ly.Registry.ly_tys.(s) (one_child c));
            hint := s + 1
          end
      | Some other -> fail "unexpected <%s> inside obj" other
      | None -> ())
    (Xml.children x);
  v

let decode_xml ?resolve ?layout reg x =
  let st =
    { reg;
      resolve =
        (match resolve with Some f -> f | None -> Registry.find reg);
      layout_of =
        (match layout with Some f -> f | None -> Registry.layout reg);
      objects = Array.make 8 no_object; nobjects = 0; layouts = [] }
  in
  try Ok (read st any x) with Fail e -> Error e

let decode ?resolve ?layout reg s =
  match Xml.parse s with
  | Error e -> Error (Malformed (Format.asprintf "%a" Xml.pp_error e))
  | Ok root -> (
      match Xml.tag root with
      | Some "soap:Envelope" -> (
          match Xml.child "soap:Body" root with
          | None -> Error (Malformed "missing soap:Body")
          | Some body -> (
              try decode_xml ?resolve ?layout reg (one_child body)
              with Fail e -> Error e))
      | Some _ ->
          (* Also accept a bare payload element. *)
          decode_xml ?resolve ?layout reg root
      | None -> Error (Malformed "no root element"))
