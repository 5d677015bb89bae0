open Pti_cts
module Xml = Pti_xml.Xml
module Guid = Pti_util.Guid
module S = Pti_util.Strutil

type param_desc = { pd_name : string; pd_ty : Ty.t }

type method_desc = {
  md_name : string;
  md_params : param_desc list;
  md_return : Ty.t;
  md_mods : Meta.member_mods;
}

type field_desc = {
  fd_name : string;
  fd_ty : Ty.t;
  fd_mods : Meta.member_mods;
}

type ctor_desc = { cd_params : param_desc list; cd_mods : Meta.member_mods }

type t = {
  ty_name : string;
  ty_namespace : string list;
  ty_guid : Guid.t;
  ty_kind : Meta.kind;
  ty_super : string option;
  ty_interfaces : string list;
  ty_fields : field_desc list;
  ty_ctors : ctor_desc list;
  ty_methods : method_desc list;
  ty_assembly : string;
}

let param_of_meta p = { pd_name = p.Meta.param_name; pd_ty = p.Meta.param_ty }

let of_class (cd : Meta.class_def) =
  {
    ty_name = cd.Meta.td_name;
    ty_namespace = cd.Meta.td_namespace;
    ty_guid = cd.Meta.td_guid;
    ty_kind = cd.Meta.td_kind;
    ty_super = cd.Meta.td_super;
    ty_interfaces = cd.Meta.td_interfaces;
    ty_fields =
      List.map
        (fun f ->
          { fd_name = f.Meta.f_name; fd_ty = f.Meta.f_ty;
            fd_mods = f.Meta.f_mods })
        cd.Meta.td_fields;
    ty_ctors =
      List.map
        (fun c ->
          { cd_params = List.map param_of_meta c.Meta.c_params;
            cd_mods = c.Meta.c_mods })
        cd.Meta.td_ctors;
    ty_methods =
      List.map
        (fun m ->
          {
            md_name = m.Meta.m_name;
            md_params = List.map param_of_meta m.Meta.m_params;
            md_return = m.Meta.m_return;
            md_mods = m.Meta.m_mods;
          })
        cd.Meta.td_methods;
    ty_assembly = cd.Meta.td_assembly;
  }

let to_class t =
  {
    Meta.td_name = t.ty_name;
    td_namespace = t.ty_namespace;
    td_guid = t.ty_guid;
    td_kind = t.ty_kind;
    td_super = t.ty_super;
    td_interfaces = t.ty_interfaces;
    td_fields =
      List.map
        (fun f ->
          { Meta.f_name = f.fd_name; f_ty = f.fd_ty; f_mods = f.fd_mods;
            f_init = None })
        t.ty_fields;
    td_ctors =
      List.map
        (fun c ->
          {
            Meta.c_params =
              List.map
                (fun p -> { Meta.param_name = p.pd_name; param_ty = p.pd_ty })
                c.cd_params;
            c_mods = c.cd_mods;
            c_body = None;
          })
        t.ty_ctors;
    td_methods =
      List.map
        (fun m ->
          {
            Meta.m_name = m.md_name;
            m_params =
              List.map
                (fun p -> { Meta.param_name = p.pd_name; param_ty = p.pd_ty })
                m.md_params;
            m_return = m.md_return;
            m_mods = m.md_mods;
            m_body = None;
          })
        t.ty_methods;
    td_assembly = t.ty_assembly;
  }

let qualified_name t =
  match t.ty_namespace with
  | [] -> t.ty_name
  | ns -> String.concat "." ns ^ "." ^ t.ty_name

let equals a b = Guid.equal a.ty_guid b.ty_guid

let method_arity m = List.length m.md_params

let signature m =
  Printf.sprintf "%s(%s) : %s" m.md_name
    (String.concat ", "
       (List.map (fun p -> Ty.to_string p.pd_ty) m.md_params))
    (Ty.to_string m.md_return)

(* --- fingerprint ------------------------------------------------------ *)

let mods_key (m : Meta.member_mods) =
  Printf.sprintf "%s%c%c"
    (Meta.visibility_to_string m.Meta.visibility)
    (if m.Meta.static then 's' else '-')
    (if m.Meta.virtual_ then 'v' else '-')

let ty_key ty = String.lowercase_ascii (Ty.to_string ty)

let fingerprint t =
  let b = Buffer.create 256 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  add (String.lowercase_ascii (qualified_name t));
  add (Meta.kind_to_string t.ty_kind);
  add
    (match t.ty_super with
    | None -> "-"
    | Some s -> String.lowercase_ascii s);
  List.iter add
    (List.sort compare (List.map String.lowercase_ascii t.ty_interfaces));
  let field_keys =
    List.sort compare
      (List.map
         (fun f ->
           Printf.sprintf "f:%s:%s:%s"
             (String.lowercase_ascii f.fd_name)
             (ty_key f.fd_ty) (mods_key f.fd_mods))
         t.ty_fields)
  in
  List.iter add field_keys;
  let params_key ps =
    (* Parameter order is *not* part of the fingerprint beyond multiset:
       conformance considers permutations, so equivalence must too. *)
    String.concat ","
      (List.sort compare (List.map (fun p -> ty_key p.pd_ty) ps))
  in
  let ctor_keys =
    List.sort compare
      (List.map
         (fun c ->
           Printf.sprintf "c:(%s):%s" (params_key c.cd_params)
             (mods_key c.cd_mods))
         t.ty_ctors)
  in
  List.iter add ctor_keys;
  let method_keys =
    List.sort compare
      (List.map
         (fun m ->
           Printf.sprintf "m:%s:(%s):%s:%s"
             (String.lowercase_ascii m.md_name)
             (params_key m.md_params) (ty_key m.md_return)
             (mods_key m.md_mods))
         t.ty_methods)
  in
  List.iter add method_keys;
  (* Digest the canonical text so fingerprints are small, stable keys. *)
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A fingerprint's first line is the lowercased qualified name, so two
   differently named types are told apart before either is rendered. *)
let equivalent a b =
  S.equal_ci (qualified_name a) (qualified_name b)
  && String.equal (fingerprint a) (fingerprint b)

(* --- XML codec -------------------------------------------------------- *)

(* A description is its body-less class under its own root element, so
   the assembly codec's class codec reads and writes it. *)
let xml_root = "typeDescription"

let to_xml t =
  Pti_serial.Assembly_xml.class_to_xml ~root:xml_root (to_class t)

let of_xml x =
  Result.map of_class (Pti_serial.Assembly_xml.class_of_xml ~root:xml_root x)

(* The compact wire rendering carries an integrity digest; the pretty
   rendering is for display and stays digest-free. *)
let to_xml_string ?(pretty = false) t =
  if pretty then Xml.to_string_pretty (to_xml t)
  else Pti_xml.Digest_attr.to_string (to_xml t)

let of_xml_string s =
  match Pti_xml.Digest_attr.of_string s with
  | Error (`Syntax e) -> Error (Format.asprintf "%a" Xml.pp_error e)
  | Error `Mismatch -> Error "corrupt type description: digest mismatch"
  | Ok x -> of_xml x

let size_bytes t = Xml.size_bytes (to_xml t)

(* --- compact binary codec -------------------------------------------- *)

(* Negotiated per link as a wire-efficiency measure: a description in
   this form is a fraction of its XML rendering. XML stays the default
   and the interop fallback — a reply is self-describing by its magic.
   Same integrity discipline as the other binary frames: a sealed frame
   ([Bytes_io.seal], magic [PTID]). *)

module Bytes_io = Pti_serial.Bytes_io
module Framing = Pti_serial.Framing
module Members = Pti_serial.Assembly_bin
module W = Bytes_io.Writer
module R = Bytes_io.Reader

let binary_magic = "PTID\x01"

let pd_name p = p.pd_name
let pd_ty p = p.pd_ty
let param pd_name pd_ty = { pd_name; pd_ty }

let to_binary_string t =
  let w = W.sealed ~magic:binary_magic () in
  W.string w t.ty_name;
  Framing.write_string_list w t.ty_namespace;
  W.string w (Guid.to_string t.ty_guid);
  W.string w (Meta.kind_to_string t.ty_kind);
  W.string w t.ty_assembly;
  (match t.ty_super with
  | None -> W.bool w false
  | Some s ->
      W.bool w true;
      W.string w s);
  Framing.write_string_list w t.ty_interfaces;
  Framing.write_list w
    (fun w f ->
      W.string w f.fd_name;
      Members.write_ty w f.fd_ty;
      Members.write_mods w f.fd_mods)
    t.ty_fields;
  Framing.write_list w
    (fun w c ->
      Members.write_params w pd_name pd_ty c.cd_params;
      Members.write_mods w c.cd_mods)
    t.ty_ctors;
  Framing.write_list w
    (fun w m ->
      W.string w m.md_name;
      Members.write_params w pd_name pd_ty m.md_params;
      Members.write_ty w m.md_return;
      Members.write_mods w m.md_mods)
    t.ty_methods;
  W.seal w

let is_binary s = String.starts_with ~prefix:binary_magic s

(* Readers mirror the writers above, in wire order; [Failure] on a field
   that does not parse, [R.Underflow] on truncation. *)
let parsed = Members.parsed
let r_list = Framing.read_list

let of_binary_body r =
  let ty_name = R.string r in
  let ty_namespace = Framing.read_string_list r in
  let ty_guid = parsed "guid" Guid.of_string (R.string r) in
  let ty_kind = parsed "kind" Meta.kind_of_string (R.string r) in
  let ty_assembly = R.string r in
  let ty_super = if R.bool r then Some (R.string r) else None in
  let ty_interfaces = Framing.read_string_list r in
  let ty_fields =
    r_list r (fun r ->
        let fd_name = R.string r in
        let fd_ty = Members.read_ty r in
        let fd_mods = Members.read_mods r in
        { fd_name; fd_ty; fd_mods })
  in
  let ty_ctors =
    r_list r (fun r ->
        let cd_params = Members.read_params r param in
        let cd_mods = Members.read_mods r in
        { cd_params; cd_mods })
  in
  let ty_methods =
    r_list r (fun r ->
        let md_name = R.string r in
        let md_params = Members.read_params r param in
        let md_return = Members.read_ty r in
        let md_mods = Members.read_mods r in
        { md_name; md_params; md_return; md_mods })
  in
  if not (R.at_end r) then failwith "trailing bytes in binary tdesc";
  {
    ty_name;
    ty_namespace;
    ty_guid;
    ty_kind;
    ty_super;
    ty_interfaces;
    ty_fields;
    ty_ctors;
    ty_methods;
    ty_assembly;
  }

let of_binary_string s =
  match Bytes_io.unseal ~magic:binary_magic s with
  | Error `Short -> Error "truncated binary tdesc"
  | Error `Bad_magic -> Error "bad binary tdesc magic"
  | Error `Bad_checksum -> Error "corrupt type description: checksum mismatch"
  | Ok r -> (
      try Ok (of_binary_body r) with
      | Failure m -> Error m
      | R.Underflow m -> Error ("truncated binary tdesc: " ^ m))

(* Self-describing parse: binary by magic, XML otherwise. *)
let of_wire_string s = if is_binary s then of_binary_string s else of_xml_string s

type resolver = string -> t option

let registry_resolver reg name =
  Option.map of_class (Registry.find reg name)

let table_resolver descs name =
  List.find_opt (fun d -> S.equal_ci (qualified_name d) name) descs

let chain r1 r2 name = match r1 name with Some d -> Some d | None -> r2 name
