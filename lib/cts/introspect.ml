module S = Pti_util.Strutil

let rec type_of_value reg v =
  match v with
  | Value.Vobj o -> Registry.find reg o.Value.cls
  | Value.Vproxy p -> type_of_value reg p.Value.px_target
  | Value.Vnull | Value.Vbool _ | Value.Vint _ | Value.Vfloat _
  | Value.Vstring _ | Value.Vchar _ | Value.Varr _ ->
      None

let methods cd = cd.Meta.td_methods

let all_methods reg cd =
  let chain = cd :: Registry.super_chain reg cd in
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun c ->
      List.filter
        (fun m ->
          let k =
            (String.lowercase_ascii m.Meta.m_name, Meta.arity m)
          in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        c.Meta.td_methods)
    chain

let referenced_types cd =
  let names = ref [] in
  let add_ty ty = names := Ty.named_roots ty @ !names in
  Option.iter (fun s -> names := s :: !names) cd.Meta.td_super;
  names := cd.Meta.td_interfaces @ !names;
  List.iter (fun f -> add_ty f.Meta.f_ty) cd.Meta.td_fields;
  List.iter
    (fun m ->
      add_ty m.Meta.m_return;
      List.iter (fun p -> add_ty p.Meta.param_ty) m.Meta.m_params)
    cd.Meta.td_methods;
  List.iter
    (fun c -> List.iter (fun p -> add_ty p.Meta.param_ty) c.Meta.c_params)
    cd.Meta.td_ctors;
  List.sort_uniq S.compare_ci !names

let implements reg cd iface =
  let available = all_methods reg cd in
  List.for_all
    (fun im ->
      List.exists
        (fun m ->
          S.equal_ci m.Meta.m_name im.Meta.m_name
          && Meta.arity m = Meta.arity im)
        available)
    iface.Meta.td_methods
