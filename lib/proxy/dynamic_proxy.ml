open Pti_cts
module Mapping = Pti_conformance.Mapping
module Checker = Pti_conformance.Checker
module Td = Pti_typedesc.Type_description
module S = Pti_util.Strutil

type context = { cx_reg : Registry.t; cx_checker : Checker.t }

let create_context reg checker = { cx_reg = reg; cx_checker = checker }

let rec unwrap = function
  | Value.Vproxy p -> unwrap p.Value.px_target
  | v -> v

let is_proxy = function Value.Vproxy _ -> true | _ -> false

let fail fmt = Printf.ksprintf (fun s -> raise (Eval.Runtime_error s)) fmt

(* The description of a qualified name, from the code loaded in the
   context's registry. *)
let desc_of cx name = Td.registry_resolver cx.cx_reg name

let rec wrap cx ~interest ~mapping target =
  let px_invoke name args = dispatch cx interest mapping target name args in
  Value.Vproxy { Value.px_interface = interest; px_target = target; px_invoke }

and dispatch cx _interest mapping target name args =
  match Mapping.find mapping ~name ~arity:(List.length args) with
  | None ->
      (* Optimistic forwarding: identity mappings and weakened-rule proxies
         land here. May raise Runtime_error if the target lacks the
         method — the unsafety the full rules prevent. *)
      Eval.call cx.cx_reg target name args
  | Some mm ->
      let permuted = Mapping.permute args mm.Mapping.mm_perm in
      (* Contravariant side: each argument must be usable as the actual
         method's parameter type. *)
      let coerced_args =
        List.map2
          (fun ty v -> coerce_ty cx ty v)
          mm.Mapping.mm_actual_param_tys permuted
      in
      let result =
        Eval.call cx.cx_reg target mm.Mapping.mm_actual_name coerced_args
      in
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
      | (interest, mapping) :: rest -> (
          match Mapping.find mapping ~name ~arity with
          | Some _ -> dispatch cx interest mapping target name args
          | None -> try_mappings rest)
    in
    try_mappings interests
  in
  Value.Vproxy { Value.px_interface = label; px_target = target; px_invoke }

let invoke = Eval.call
