module S = Pti_util.Strutil

type t = {
  asm_name : string;
  asm_version : int;
  asm_classes : Meta.class_def list;
  asm_requires : string list;
}

let make ?(version = 1) ?(requires = []) ~name classes =
  let classes =
    List.map (fun cd -> { cd with Meta.td_assembly = name }) classes
  in
  List.iter
    (fun cd ->
      match Meta.validate cd with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Assembly.make: " ^ msg))
    classes;
  { asm_name = name; asm_version = version; asm_classes = classes;
    asm_requires = requires }

let class_names t =
  List.sort S.compare_ci (List.map Meta.qualified_name t.asm_classes)

let find_class t name =
  List.find_opt
    (fun cd -> S.equal_ci (Meta.qualified_name cd) name)
    t.asm_classes

let load reg t = List.iter (Registry.register reg) t.asm_classes
let upgrade reg t = List.iter (Registry.upgrade reg) t.asm_classes
let shadow reg t = List.iter (Registry.shadow reg) t.asm_classes

let external_dependencies t =
  let own = List.map (fun cd -> Meta.qualified_name cd) t.asm_classes in
  let is_own n = List.exists (fun o -> S.equal_ci o n) own in
  t.asm_classes
  |> List.concat_map Introspect.referenced_types
  |> List.filter (fun n -> not (is_own n))
  |> List.sort_uniq S.compare_ci
