module S = Pti_util.Strutil
module Guid = Pti_util.Guid

(* Qualified names, compared and hashed case-insensitively in place. *)
module Names = Hashtbl.Make (struct
  type t = string

  let equal = S.equal_ci
  let hash = S.hash_ci
end)

type t = {
  by_name : Meta.class_def Names.t;
  by_guid : (Guid.t, Meta.class_def) Hashtbl.t;
  (* Changes whenever a name is bound to another class, which is what a
     layout's super chain depends on. Drawn from one process-wide
     counter, so no two registries (or states of one) share a stamp. *)
  mutable stamp : int;
}

exception Duplicate of string

let stamps = Atomic.make 0
let fresh_stamp () = Atomic.fetch_and_add stamps 1

let create () =
  { by_name = Names.create 64; by_guid = Hashtbl.create 64;
    stamp = fresh_stamp () }

let bind_name t cd =
  Names.replace t.by_name (Meta.qualified_name cd) cd;
  t.stamp <- fresh_stamp ()

let register t cd =
  (match Meta.validate cd with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Registry.register: " ^ msg));
  match Names.find_opt t.by_name (Meta.qualified_name cd) with
  | Some existing when existing = cd -> ()
  | Some _ -> raise (Duplicate (Meta.qualified_name cd))
  | None ->
      if Hashtbl.mem t.by_guid cd.Meta.td_guid then
        raise (Duplicate (Meta.qualified_name cd));
      bind_name t cd;
      Hashtbl.replace t.by_guid cd.Meta.td_guid cd

(* Live schema evolution: the new definition takes over the qualified
   name, while any previous definition stays reachable by its GUID — an
   in-flight envelope stamped with the old GUID still resolves, which is
   what keeps a rolling upgrade from mis-typing deliveries. *)
let upgrade t cd =
  (match Meta.validate cd with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Registry.upgrade: " ^ msg));
  (match Hashtbl.find_opt t.by_guid cd.Meta.td_guid with
  | Some existing when existing = cd -> ()
  | Some _ -> raise (Duplicate (Meta.qualified_name cd))
  | None -> ());
  (match Names.find_opt t.by_name (Meta.qualified_name cd) with
  | Some bound when bound == cd -> ()
  | _ -> bind_name t cd);
  Hashtbl.replace t.by_guid cd.Meta.td_guid cd

(* The downgrade-safe counterpart: make the definition reachable by GUID
   without disturbing whatever the name currently resolves to — how a
   receiver that already runs v2 absorbs the v1 classes an in-flight old
   envelope still decodes against. The name is bound only when nothing
   holds it yet. *)
let shadow t cd =
  (match Meta.validate cd with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Registry.shadow: " ^ msg));
  match Hashtbl.find_opt t.by_guid cd.Meta.td_guid with
  | Some existing when existing = cd -> ()
  | Some _ -> raise (Duplicate (Meta.qualified_name cd))
  | None ->
      Hashtbl.replace t.by_guid cd.Meta.td_guid cd;
      if not (Names.mem t.by_name (Meta.qualified_name cd)) then bind_name t cd

(* [String.lowercase_ascii], without a copy of a name that has no
   uppercase letter. *)
let rec has_upper s i =
  i < String.length s
  && ((s.[i] >= 'A' && s.[i] <= 'Z') || has_upper s (i + 1))

let lc s = if has_upper s 0 then String.lowercase_ascii s else s

let find t name =
  match Names.find t.by_name name with
  | cd -> Some cd
  | exception Not_found -> None

let find_exn t name = Names.find t.by_name name
let find_by_guid t guid = Hashtbl.find_opt t.by_guid guid
let mem t name = Names.mem t.by_name name
let mem_guid t guid = Hashtbl.mem t.by_guid guid
let all t = Names.fold (fun _ cd acc -> cd :: acc) t.by_name []
let cardinal t = Names.length t.by_name

let copy t =
  { by_name = Names.copy t.by_name; by_guid = Hashtbl.copy t.by_guid;
    stamp = fresh_stamp () }

let rec chain_from t seen cd acc =
  match cd.Meta.td_super with
  | None -> List.rev acc
  | Some super_name -> (
      let k = String.lowercase_ascii super_name in
      if List.mem k seen then List.rev acc
      else
        match find t super_name with
        | None -> List.rev acc
        | Some super -> chain_from t (k :: seen) super (super :: acc))

let super_chain t cd =
  if cd.Meta.td_super = None then []
  else chain_from t [ String.lowercase_ascii (Meta.qualified_name cd) ] cd []

let all_interfaces t cd =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec visit_iface name =
    let k = String.lowercase_ascii name in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      match find t name with
      | None -> ()
      | Some icd ->
          acc := icd :: !acc;
          List.iter visit_iface icd.Meta.td_interfaces
    end
  in
  let visit_class cd = List.iter visit_iface cd.Meta.td_interfaces in
  visit_class cd;
  List.iter visit_class (super_chain t cd);
  List.rev !acc

(* The declared supertypes of [cd], each once: its superclass chain,
   then every interface any of them implements. *)
let supertypes t cd = super_chain t cd @ all_interfaces t cd

exception Found
exception Spent

(* Walks the edges [supertypes] follows, depth first, and raises [Found]
   at a name equal to [super] that resolves (a name resolves to the class
   whose qualified name it equals, up to case). Each class or interface
   visited costs one unit of [fuel]: the walk keeps no visited set, and
   raises [Spent] when the fuel runs out, as it does on a cycle. Returns
   the fuel left. *)
let rec up t super cd fuel =
  if fuel <= 0 then raise Spent;
  let fuel = across t super cd.Meta.td_interfaces (fuel - 1) in
  match cd.Meta.td_super with
  | None -> fuel
  | Some name -> (
      match find_exn t name with
      | exception Not_found -> fuel
      | c -> if S.equal_ci name super then raise Found else up t super c fuel)

and across t super names fuel =
  match names with
  | [] -> fuel
  | name :: rest -> (
      match find_exn t name with
      | exception Not_found -> across t super rest fuel
      | c ->
          if S.equal_ci name super then raise Found;
          if fuel <= 0 then raise Spent;
          across t super rest
            (across t super c.Meta.td_interfaces (fuel - 1)))

let is_subtype t ~sub ~super =
  S.equal_ci sub super
  ||
  match find_exn t sub with
  | exception Not_found -> false
  | cd -> (
      (* An acyclic graph without shared ancestors visits each supertype
         once; whatever needs more is settled on the closure. *)
      match up t super cd (2 * (cardinal t + 1)) with
      | _ -> false
      | exception Found -> true
      | exception Spent ->
          List.exists
            (fun c -> S.equal_ci (Meta.qualified_name c) super)
            (supertypes t cd))

let rec declared name arity = function
  | [] -> raise Not_found
  | m :: rest ->
      if Meta.arity m = arity && S.equal_ci m.Meta.m_name name then m
      else declared name arity rest

(* Every class the walk can reach is bound by name, so an acyclic chain
   has at most [cardinal t] superclasses: the counter ends a cyclic one
   without the visited set [super_chain] allocates. *)
let rec method_in t name arity budget cd =
  match declared name arity cd.Meta.td_methods with
  | m -> Some m
  | exception Not_found -> (
      match cd.Meta.td_super with
      | Some s when budget > 0 -> (
          match find_exn t s with
          | sc -> method_in t name arity (budget - 1) sc
          | exception Not_found -> None)
      | _ -> None)

let find_method t cd name arity = method_in t name arity (cardinal t) cd

type layout = {
  ly_name : string;
  ly_lineage : Meta.class_def list;
  ly_keys : string array;
  ly_tys : Ty.t array;
  ly_supers : string array;
  ly_stamp : int;
  ly_defaults : Value.value array;
}

(* Insertion sort of the keys, carrying their types along: a class
   declares a handful of fields, and an in-place sort allocates
   nothing. *)
let sort_slots keys tys =
  for i = 1 to Array.length keys - 1 do
    let k = keys.(i) and ty = tys.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && String.compare keys.(!j) k > 0 do
      keys.(!j + 1) <- keys.(!j);
      tys.(!j + 1) <- tys.(!j);
      decr j
    done;
    keys.(!j + 1) <- k;
    tys.(!j + 1) <- ty
  done

(* The slot of key [k] among the first [!used] keys, appended if
   absent. *)
let rec slot_of keys used k i =
  if i = !used then begin
    keys.(i) <- k;
    incr used;
    i
  end
  else if String.equal keys.(i) k then i
  else slot_of keys used k (i + 1)

(* Base class first: a derived field of the same name takes over the
   base field's slot with its own type. *)
let rec add_fields keys tys used = function
  | [] -> ()
  | f :: rest ->
      tys.(slot_of keys used (lc f.Meta.f_name) 0) <- f.Meta.f_ty;
      add_fields keys tys used rest

let rec add_classes keys tys used = function
  | [] -> ()
  | c :: rest ->
      add_fields keys tys used c.Meta.td_fields;
      add_classes keys tys used rest

let layout t cd =
  let chain = super_chain t cd in
  let lineage = List.rev (cd :: chain) in
  let declared =
    List.fold_left (fun n c -> n + List.length c.Meta.td_fields) 0 lineage
  in
  let keys = Array.make declared "" and tys = Array.make declared Ty.Void in
  let used = ref 0 in
  add_classes keys tys used lineage;
  let n = !used in
  let keys = if n = declared then keys else Array.sub keys 0 n in
  let tys = if n = declared then tys else Array.sub tys 0 n in
  sort_slots keys tys;
  (* A class without superclass or interfaces, as most are, allocates
     nothing here. *)
  let ifaces =
    if List.exists (fun c -> c.Meta.td_interfaces <> []) lineage then
      all_interfaces t cd
    else []
  in
  let supers =
    match (chain, ifaces) with
    | [], [] -> [||]
    | _ ->
        Array.of_list
          (List.map
             (fun c -> String.lowercase_ascii (Meta.qualified_name c))
             (chain @ ifaces))
  in
  { ly_name = Meta.qualified_name cd; ly_lineage = lineage; ly_keys = keys;
    ly_tys = tys; ly_supers = supers; ly_stamp = t.stamp;
    ly_defaults = Array.map Value.default_of tys }

let stamp t = t.stamp

let instantiate ly =
  { Value.oid = Value.fresh_oid (); cls = ly.ly_name; keys = ly.ly_keys;
    slots = Array.copy ly.ly_defaults }

let fresh_object t cd =
  let ly = layout t cd in
  (instantiate ly, ly.ly_lineage)

let rec scan src at len keys i stop =
  if i >= stop then -1
  else if
    String.length keys.(i) = len && S.equal_ci_sub src at keys.(i) 0 len
  then i
  else scan src at len keys (i + 1) stop

let slot ly src ~pos ~len ~hint =
  if pos < 0 || len < 0 || pos > String.length src - len then
    invalid_arg "Registry.slot";
  let keys = ly.ly_keys in
  let n = Array.length keys in
  let hint = max 0 (min hint n) in
  let s = scan src pos len keys hint n in
  if s >= 0 then s else scan src pos len keys 0 hint

(* The root of every reference type: a slot declared [object] holds
   anything. *)
let is_root n = S.equal_ci n "object"

let rec assignable t ~sub ~super =
  match (sub, super) with
  | _, Ty.Named n when is_root n -> true
  | Ty.Named a, Ty.Named b -> is_subtype t ~sub:a ~super:b
  | Ty.Array a, Ty.Array b -> assignable t ~sub:a ~super:b
  | _ -> Ty.equal sub super

let rec among n supers i =
  i < Array.length supers
  && (S.equal_ci n supers.(i) || among n supers (i + 1))

let admits_instance ly ty =
  match ty with
  | Ty.Named n ->
      is_root n || S.equal_ci n ly.ly_name || among n ly.ly_supers 0
  | _ -> false

let admits t ty v =
  match (ty, v) with
  | Ty.Named n, _ when is_root n -> true
  | (Ty.Named _ | Ty.Array _ | Ty.Void), Value.Vnull -> true
  | Ty.Named n, Value.Vobj o -> is_subtype t ~sub:o.Value.cls ~super:n
  | Ty.Array d, Value.Varr a -> assignable t ~sub:a.Value.elem_ty ~super:d
  | Ty.Bool, Value.Vbool _
  | Ty.Int, Value.Vint _
  | Ty.Float, Value.Vfloat _
  | Ty.String, Value.Vstring _
  | Ty.Char, Value.Vchar _ ->
      true
  | _ -> false

let missing_dependencies t cd =
  let wanted = Hashtbl.create 8 in
  let add_ty ty =
    List.iter
      (fun n ->
        let k = String.lowercase_ascii n in
        if (not (Hashtbl.mem wanted k)) && not (mem t n) then
          Hashtbl.add wanted k n)
      (Ty.named_roots ty)
  in
  let add_name n = add_ty (Ty.Named n) in
  Option.iter add_name cd.Meta.td_super;
  List.iter add_name cd.Meta.td_interfaces;
  List.iter (fun f -> add_ty f.Meta.f_ty) cd.Meta.td_fields;
  List.iter
    (fun m ->
      add_ty m.Meta.m_return;
      List.iter (fun p -> add_ty p.Meta.param_ty) m.Meta.m_params)
    cd.Meta.td_methods;
  List.iter
    (fun c -> List.iter (fun p -> add_ty p.Meta.param_ty) c.Meta.c_params)
    cd.Meta.td_ctors;
  Hashtbl.fold (fun _ n acc -> n :: acc) wanted []
