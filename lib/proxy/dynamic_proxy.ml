open Pti_cts
module Mapping = Pti_conformance.Mapping
module Checker = Pti_conformance.Checker
module Td = Pti_typedesc.Type_description
module S = Pti_util.Strutil

(* One interest method of a mapping, compiled: its method map, the
   actual parameter types as an array, and whether the arguments pass
   as they come (none permuted, none to coerce). *)
type entry = { mm : Mapping.method_map; tys : Ty.t array; plain : bool }

(* Compiled mappings, keyed by the mapping itself: the checker hands out
   one mapping per cached verdict. *)
module Compiled = Hashtbl.Make (struct
  type t = Mapping.t

  let equal = ( == )
  let hash m = Hashtbl.hash m.Mapping.actual
end)

type context = {
  cx_reg : Registry.t;
  cx_checker : Checker.t;
  cx_compiled : entry array Compiled.t;
}

let create_context reg checker =
  { cx_reg = reg; cx_checker = checker; cx_compiled = Compiled.create 16 }

let rec unwrap = function
  | Value.Vproxy p -> unwrap p.Value.px_target
  | v -> v

let is_proxy = function Value.Vproxy _ -> true | _ -> false

let fail fmt = Printf.ksprintf (fun s -> raise (Eval.Runtime_error s)) fmt

(* The description of a qualified name, from the code loaded in the
   context's registry. *)
let desc_of cx name = Td.registry_resolver cx.cx_reg name

let compile (mm : Mapping.method_map) =
  let tys = Array.of_list mm.Mapping.mm_actual_param_tys in
  let named = function Ty.Named _ -> true | _ -> false in
  { mm; tys;
    plain =
      Mapping.is_identity_perm mm.Mapping.mm_perm
      && not (Array.exists named tys) }

(* A mapping's methods, compiled at the first proxy made from it and
   kept while its verdict is: the table holds at most as many mappings
   as the checker holds verdicts, and starts over when full. *)
let compiled cx mapping =
  match Compiled.find cx.cx_compiled mapping with
  | es -> es
  | exception Not_found ->
      if
        Compiled.length cx.cx_compiled
        >= (Checker.stats cx.cx_checker).Checker.cache_capacity
      then Compiled.reset cx.cx_compiled;
      let es = Array.of_list (List.map compile mapping.Mapping.methods) in
      Compiled.add cx.cx_compiled mapping es;
      es

let rec find_entry es name arity i =
  if i = Array.length es then -1
  else
    let mm = es.(i).mm in
    if
      mm.Mapping.mm_arity = arity
      && S.equal_ci mm.Mapping.mm_interest_name name
    then i
    else find_entry es name arity (i + 1)

let rec wrap cx ~interest ~mapping target =
  let es = compiled cx mapping in
  let px_invoke name args = dispatch cx es target name args in
  Value.Vproxy { Value.px_interface = interest; px_target = target; px_invoke }

and dispatch cx es target name args =
  match find_entry es name (List.length args) 0 with
  | -1 ->
      (* Optimistic forwarding: identity mappings and weakened-rule proxies
         land here. May raise Runtime_error if the target lacks the
         method — the unsafety the full rules prevent. *)
      Eval.call cx.cx_reg target name args
  | i ->
      let { mm; tys; plain } = es.(i) in
      (* Contravariant side: each argument, in the actual method's
         order, must be usable as its parameter type. *)
      let args =
        if plain then args
        else
          let a = Array.of_list args in
          List.mapi (fun j k -> coerce_ty cx tys.(j) a.(k))
            (Array.to_list mm.Mapping.mm_perm)
      in
      let result = Eval.call cx.cx_reg target mm.Mapping.mm_actual_name args in
      (* Covariant side: present the result as the interest return type. *)
      coerce_ty cx mm.Mapping.mm_interest_return result

and coerce_ty cx ty v =
  match ty, v with
  | Ty.Named interest, (Value.Vobj _ | Value.Vproxy _) ->
      coerce cx ~interest v
  | _ -> v

and coerce cx ~interest v =
  match v with
  | Value.Vnull | Value.Vbool _ | Value.Vint _ | Value.Vfloat _
  | Value.Vstring _ | Value.Vchar _ | Value.Varr _ ->
      v
  | Value.Vproxy p when S.equal_ci p.Value.px_interface interest -> v
  | Value.Vproxy _ | Value.Vobj _ -> (
      let runtime_cls =
        match unwrap v with
        | Value.Vobj o -> o.Value.cls
        | _ -> assert false
      in
      if S.equal_ci runtime_cls interest then unwrap v
      else
        match desc_of cx runtime_cls, desc_of cx interest with
        | Some actual_d, Some interest_d -> (
            match
              Checker.check cx.cx_checker ~actual:actual_d ~interest:interest_d
            with
            | Checker.Conformant m ->
                if m.Mapping.identity then unwrap v
                else wrap cx ~interest ~mapping:m (unwrap v)
            | Checker.Not_conformant fs ->
                fail "cannot view %s as %s: %s" runtime_cls interest
                  (match fs with
                  | f :: _ -> f.Checker.message
                  | [] -> "not conformant"))
        | None, _ -> fail "cannot resolve runtime type %s" runtime_cls
        | _, None -> fail "cannot resolve interest type %s" interest)

let construct_as cx ~interest ~actual args =
  match desc_of cx actual, desc_of cx interest with
  | None, _ -> fail "cannot resolve actual type %s" actual
  | _, None -> fail "cannot resolve interest type %s" interest
  | Some actual_d, Some interest_d -> (
      match Checker.check cx.cx_checker ~actual:actual_d ~interest:interest_d with
      | Checker.Not_conformant fs ->
          fail "cannot construct %s as %s: %s" actual interest
            (match fs with f :: _ -> f.Checker.message | [] -> "not conformant")
      | Checker.Conformant m ->
          let arity = List.length args in
          let actual_args =
            if m.Mapping.identity then args
            else
              match Mapping.find_ctor m ~arity with
              | Some cm ->
                  List.map2
                    (fun ty v -> coerce_ty cx ty v)
                    cm.Mapping.cm_actual_param_tys
                    (Mapping.permute args cm.Mapping.cm_perm)
              | None ->
                  fail "no conformant constructor of arity %d on %s" arity
                    actual
          in
          let instance = Eval.construct cx.cx_reg actual actual_args in
          if m.Mapping.identity then instance
          else wrap cx ~interest ~mapping:m instance)

let wrap_compound cx ~interests target =
  if interests = [] then invalid_arg "Dynamic_proxy.wrap_compound: empty";
  let label =
    "[" ^ String.concat ", " (List.map fst interests) ^ "]"
  in
  let px_invoke name args =
    let arity = List.length args in
    let rec try_mappings = function
      | [] ->
          (* No interest claims the method: optimistic forwarding. *)
          Eval.call cx.cx_reg target name args
      | (_, mapping) :: rest ->
          let es = compiled cx mapping in
          if find_entry es name arity 0 >= 0 then
            dispatch cx es target name args
          else try_mappings rest
    in
    try_mappings interests
  in
  Value.Vproxy { Value.px_interface = label; px_target = target; px_invoke }

let invoke = Eval.call
