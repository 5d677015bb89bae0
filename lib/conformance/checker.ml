open Pti_cts
module Td = Pti_typedesc.Type_description
module Lev = Pti_util.Levenshtein
module Guid = Pti_util.Guid
module S = Pti_util.Strutil
module Lru = Pti_obs.Lru

type failure = { context : string; message : string }

let pp_failure ppf f = Format.fprintf ppf "[%s] %s" f.context f.message

type verdict = Conformant of Mapping.t | Not_conformant of failure list

let verdict_ok = function Conformant _ -> true | Not_conformant _ -> false

type stats_mut = {
  mutable m_checks : int;
  mutable m_pair_checks : int;
  mutable m_resolver_misses : int;
  mutable m_top_hits : int;
  mutable m_top_computes : int;
  mutable m_invalidated : int;
}

type stats = {
  checks : int;
  pair_checks : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_size : int;
  cache_capacity : int;
  resolver_misses : int;
  top_hits : int;
  top_computes : int;
  invalidated : int;
}

(* A cached verdict carries the dependencies it was computed from (every
   name the resolver was asked for during the computation), so learning a
   new type can invalidate exactly the entries that mentioned it — keyed
   invalidation instead of clearing the cache.

   Each dependency is {e witnessed}: a successful resolution records the
   GUID of the description it returned, a miss records [None].
   Version-aware invalidation falls out: when [name] is (re)announced
   with GUID [g], verdicts that resolved [name] to that same [g] are
   statements about bytes that have not changed and survive, while
   verdicts that saw a different version — or failed on the miss — are
   dropped. A dependency is the pair (lowercased name, witness).

   The cache itself is keyed by the pair (actual GUID, interest GUID): a
   GUID names one description, and the configuration is fixed when the
   checker is created and the cache is private to it, so the config
   never tells two entries apart. A cache hit hashes and compares the
   two GUIDs and formats no string. *)
module Dep = struct
  type t = string * Guid.t option

  let equal (n, g) (n', g') = String.equal n n' && Option.equal Guid.equal g g'

  let hash (n, g) =
    ((Hashtbl.hash n * 31) + match g with None -> 0 | Some g -> Guid.hash g)
    land max_int
end

module Dep_tbl = Hashtbl.Make (Dep)

type entry = { e_verdict : verdict; e_deps : Dep.t list }

module Pair = struct
  type t = Guid.t * Guid.t

  let equal (a, i) (a', i') = Guid.equal a a' && Guid.equal i i'
  let hash (a, i) = ((Guid.hash a * 31) + Guid.hash i) land max_int
end

module Cache = Lru.Make (Pair)
module Pair_tbl = Hashtbl.Make (Pair)

type t = {
  cfg : Config.t;
  resolve : Td.resolver;
  cache : entry Cache.t;
  (* dependency -> set of cache keys whose entry depends on it *)
  dep_index : unit Pair_tbl.t Dep_tbl.t;
  (* dependency accumulator of the in-flight top-level computation *)
  mutable cur_deps : unit Dep_tbl.t option;
  st : stats_mut;
}

let default_cache_capacity = 2048

let unindex_deps dep_index key deps =
  List.iter
    (fun dep ->
      match Dep_tbl.find_opt dep_index dep with
      | None -> ()
      | Some keys ->
          Pair_tbl.remove keys key;
          if Pair_tbl.length keys = 0 then Dep_tbl.remove dep_index dep)
    deps

let create ?(config = Config.strict)
    ?(cache_capacity = default_cache_capacity) ~resolver () =
  let dep_index = Dep_tbl.create 64 in
  {
    cfg = config;
    resolve = resolver;
    cache =
      Cache.create ~capacity:cache_capacity
        ~on_evict:(fun key e -> unindex_deps dep_index key e.e_deps)
        ();
    dep_index;
    cur_deps = None;
    st =
      { m_checks = 0; m_pair_checks = 0; m_resolver_misses = 0;
        m_top_hits = 0; m_top_computes = 0; m_invalidated = 0 };
  }

let config t = t.cfg

let stats t =
  let c = Cache.counters t.cache in
  {
    checks = t.st.m_checks;
    pair_checks = t.st.m_pair_checks;
    cache_hits = c.Lru.hits;
    cache_misses = c.Lru.misses;
    cache_evictions = c.Lru.evictions;
    cache_size = Cache.length t.cache;
    cache_capacity = Cache.capacity t.cache;
    resolver_misses = t.st.m_resolver_misses;
    top_hits = t.st.m_top_hits;
    top_computes = t.st.m_top_computes;
    invalidated = t.st.m_invalidated;
  }

let cache_counters t = Cache.counters t.cache

let reuse_rate t =
  (* The paper's headline cost lever at population scale: what fraction
     of top-level checks the verdict cache answered outright. *)
  let total = t.st.m_top_hits + t.st.m_top_computes in
  if total = 0 then 0.
  else float_of_int t.st.m_top_hits /. float_of_int total

let clear_cache t =
  Cache.clear t.cache;
  Dep_tbl.reset t.dep_index

let note_new_type ?witness t name =
  let name = String.lowercase_ascii name in
  (* A dependency that witnessed exactly the arriving description's
     GUID is still valid and must not be dropped. *)
  let stale (n, g) =
    String.equal n name
    && not
         (match witness, g with
         | Some w, Some g -> Guid.equal w g
         | _ -> false)
  in
  let stale_deps =
    Dep_tbl.fold
      (fun dep _ acc -> if stale dep then dep :: acc else acc)
      t.dep_index []
  in
  match stale_deps with
  | [] -> 0
  | _ ->
      let doomed = Pair_tbl.create 16 in
      List.iter
        (fun dep ->
          match Dep_tbl.find_opt t.dep_index dep with
          | None -> ()
          | Some keys ->
              Pair_tbl.iter (fun k () -> Pair_tbl.replace doomed k ()) keys)
        stale_deps;
      let n = Cache.invalidate_where t.cache (Pair_tbl.mem doomed) in
      (* on_evict already pruned the per-dep key sets entry by entry;
         drop any now-empty dep rows. *)
      List.iter
        (fun dep ->
          match Dep_tbl.find_opt t.dep_index dep with
          | Some keys when Pair_tbl.length keys = 0 ->
              Dep_tbl.remove t.dep_index dep
          | _ -> ())
        stale_deps;
      t.st.m_invalidated <- t.st.m_invalidated + n;
      n

(* ---------------------------------------------------------------- *)
(* Rule (i): names                                                    *)
(* ---------------------------------------------------------------- *)

(* Where the simple name starts in a qualified name: after its last
   dot. *)
let rec after_last_dot qname i =
  if i < 0 then 0
  else if Char.equal (String.unsafe_get qname i) '.' then i + 1
  else after_last_dot qname (i - 1)

let simple_start qname = after_last_dot qname (String.length qname - 1)

let from qname k = String.sub qname k (String.length qname - k)
let simple_name qname = from qname (simple_start qname)

(* At distance 0 without a wildcard, rule (i) is case-insensitive
   equality, compared in place; the Levenshtein and wildcard matchers
   serve the relaxed configurations. *)
let names_conform_raw cfg ~interest_name actual_name =
  let i0, a0 =
    if cfg.Config.compare_namespaces then (0, 0)
    else (simple_start interest_name, simple_start actual_name)
  in
  let wild =
    cfg.Config.allow_wildcards
    && (String.contains_from interest_name i0 '*'
       || String.contains_from interest_name i0 '?')
  in
  if cfg.Config.name_distance = 0 && not wild then
    let n = String.length actual_name - a0 in
    String.length interest_name - i0 = n
    && S.equal_ci_sub interest_name i0 actual_name a0 n
  else
    let i = from interest_name i0 and a = from actual_name a0 in
    if wild then Lev.wildcard_match ~pattern:i a
    else Lev.within ~limit:cfg.Config.name_distance i a

let names_conform t ~interest_name actual =
  names_conform_raw t.cfg ~interest_name actual

(* ---------------------------------------------------------------- *)
(* Resolution                                                         *)
(* ---------------------------------------------------------------- *)

let note_dep_key t dep =
  match t.cur_deps with
  | None -> ()
  | Some deps -> Dep_tbl.replace deps dep ()

let note_dep t name witness =
  if Option.is_some t.cur_deps then
    note_dep_key t (String.lowercase_ascii name, witness)

let resolve t name =
  (* Recorded whether the lookup hits or misses: a verdict that failed on
     a missing description must be re-examined when that type arrives,
     while a hit witnesses the GUID of the description it actually saw. *)
  match t.resolve name with
  | Some d ->
      note_dep t name (Some d.Td.ty_guid);
      Some d
  | None ->
      note_dep t name None;
      t.st.m_resolver_misses <- t.st.m_resolver_misses + 1;
      None

(* Explicit conformance: [interest] is reachable from [actual] through the
   declared supertype/interface graph (by GUID or, failing that, by equal
   qualified name). *)
let explicit_reachable t (actual : Td.t) (interest : Td.t) =
  let target_guid = interest.Td.ty_guid in
  let target_name = Td.qualified_name interest in
  let seen = Hashtbl.create 8 in
  let rec reachable (d : Td.t) =
    let matches =
      Guid.equal d.Td.ty_guid target_guid
      || S.equal_ci (Td.qualified_name d) target_name
    in
    if matches then true
    else begin
      let k = String.lowercase_ascii (Td.qualified_name d) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        let parents =
          (match d.Td.ty_super with None -> [] | Some s -> [ s ])
          @ d.Td.ty_interfaces
        in
        List.exists
          (fun name ->
            (* A name that textually matches the target counts even if the
               description cannot be fetched. *)
            S.equal_ci name target_name
            ||
            match resolve t name with
            | Some parent -> reachable parent
            | None -> false)
          parents
      end
    end
  in
  (not (Guid.equal actual.Td.ty_guid target_guid))
  && ((match actual.Td.ty_super with None -> false | Some s -> S.equal_ci s target_name)
      || List.exists (fun i -> S.equal_ci i target_name) actual.Td.ty_interfaces
      ||
      let parents =
        (match actual.Td.ty_super with None -> [] | Some s -> [ s ])
        @ actual.Td.ty_interfaces
      in
      List.exists
        (fun name ->
          match resolve t name with
          | Some parent -> reachable parent
          | None -> false)
        parents)

(* A type that declares no supertype reaches nothing: no resolver call,
   no table. *)
let explicit_conforms_desc t (actual : Td.t) (interest : Td.t) =
  match actual.Td.ty_super, actual.Td.ty_interfaces with
  | None, [] -> false
  | _ -> explicit_reachable t actual interest

(* ---------------------------------------------------------------- *)
(* The core recursive check                                           *)
(* ---------------------------------------------------------------- *)

type assum = unit Pair_tbl.t

let ok = Ok ()

(* A failure names the pair it was found in; the name is formatted only
   when a failure is reported. *)
let pair_context (actual : Td.t) (interest : Td.t) =
  Printf.sprintf "%s <= %s" (Td.qualified_name actual)
    (Td.qualified_name interest)

let fail actual interest fmt =
  Printf.ksprintf
    (fun message ->
      Error [ { context = pair_context actual interest; message } ])
    fmt

let rec conforms_desc t (assum : assum) depth (actual : Td.t)
    (interest : Td.t) : (Mapping.t, failure list) result =
  t.st.m_pair_checks <- t.st.m_pair_checks + 1;
  if depth > t.cfg.Config.max_depth then
    fail actual interest "max recursion depth exceeded"
  else if Td.equals actual interest then
    Ok
      (Mapping.identity_mapping
         ~interest:(Td.qualified_name interest)
         ~actual:(Td.qualified_name actual))
  else begin
    let key = (actual.Td.ty_guid, interest.Td.ty_guid) in
    let fresh = Pair_tbl.length assum = 0 in
    match Cache.find t.cache key with
    | Some e ->
        if fresh then t.st.m_top_hits <- t.st.m_top_hits + 1
        else
          (* A nested hit folds the entry's dependencies into the
             enclosing computation's: the outer verdict inherits them. *)
          List.iter (note_dep_key t) e.e_deps;
        (match e.e_verdict with
        | Conformant m -> Ok m
        | Not_conformant fs -> Error fs)
    | None ->
        if Pair_tbl.mem assum key then
          (* Co-inductive assumption: this pair is already under test. *)
          Ok
            (Mapping.identity_mapping
               ~interest:(Td.qualified_name interest)
               ~actual:(Td.qualified_name actual))
        else begin
          Pair_tbl.add assum key ();
          (* Track resolver traffic for the top-level pair so the cached
             verdict knows which type names it depends on. *)
          let saved_deps = t.cur_deps in
          if fresh then begin
            t.st.m_top_computes <- t.st.m_top_computes + 1;
            (* The pair itself is identified by GUID in the cache key;
               only the name→description bindings the computation actually
               resolves are dependencies (recorded in [resolve]). Seeding
               the pair's own names here would make a v2 publish drop
               still-valid verdicts about v1 — the over-drop
               {!note_new_type}'s witnesses exist to prevent. *)
            t.cur_deps <- Some (Dep_tbl.create 16)
          end;
          let result = conforms_desc_uncached t assum depth actual interest in
          Pair_tbl.remove assum key;
          (* Only cache results computed without outstanding assumptions:
             results under assumptions may depend on pairs still in flight. *)
          if fresh then begin
            let deps =
              match t.cur_deps with
              | Some h -> Dep_tbl.fold (fun d () acc -> d :: acc) h []
              | None -> []
            in
            t.cur_deps <- saved_deps;
            let entry =
              {
                e_verdict =
                  (match result with
                  | Ok m -> Conformant m
                  | Error fs -> Not_conformant fs);
                e_deps = deps;
              }
            in
            Cache.put t.cache key entry;
            List.iter
              (fun dep ->
                let keys =
                  match Dep_tbl.find_opt t.dep_index dep with
                  | Some ks -> ks
                  | None ->
                      let ks = Pair_tbl.create 4 in
                      Dep_tbl.replace t.dep_index dep ks;
                      ks
                in
                Pair_tbl.replace keys key ())
              deps
          end;
          result
        end
  end

and conforms_desc_uncached t assum depth actual interest =
  if Td.equivalent actual interest then
    Ok
      (Mapping.identity_mapping
         ~interest:(Td.qualified_name interest)
         ~actual:(Td.qualified_name actual))
  else if explicit_conforms_desc t actual interest then
    Ok
      (Mapping.identity_mapping
         ~interest:(Td.qualified_name interest)
         ~actual:(Td.qualified_name actual))
  else begin
    (* Aspect (i): names. *)
    let interest_name = Td.qualified_name interest in
    let actual_name = Td.qualified_name actual in
    if not (names_conform_raw t.cfg ~interest_name actual_name) then
      fail actual interest "name %S does not conform to %S (rule i)"
        (simple_name actual_name) (simple_name interest_name)
    else
      let ( >>= ) r f = match r with Ok () -> f () | Error e -> Error e in
      check_supertypes t assum depth actual interest >>= fun () ->
      check_fields t assum depth actual interest >>= fun () ->
      match check_ctors t assum depth actual interest with
      | Error e -> Error e
      | Ok ctor_maps -> (
          match check_methods t assum depth actual interest with
          | Error e -> Error e
          | Ok method_maps ->
              Ok
                {
                  Mapping.interest = interest_name;
                  actual = actual_name;
                  identity = false;
                  methods = method_maps;
                  ctors = ctor_maps;
                })
  end

(* Aspect (iii): supertypes. *)
and check_supertypes t assum depth actual interest =
  if not t.cfg.Config.check_supertypes then ok
  else begin
    let super_ok =
      match interest.Td.ty_super, actual.Td.ty_super with
      | None, _ -> ok
      | Some si, None ->
          fail actual interest
            "interest has superclass %s but actual has none (rule iii)"
            si
      | Some si, Some sa ->
          if S.equal_ci si sa then ok
          else (
            match resolve t si, resolve t sa with
            | Some di, Some da -> (
                match conforms_desc t assum (depth + 1) da di with
                | Ok _ -> ok
                | Error fs ->
                    Error
                      ({ context = pair_context actual interest;
                         message =
                           Printf.sprintf
                             "superclass %s does not conform to %s (rule iii)"
                             sa si }
                      :: fs))
            | None, _ -> fail actual interest "unresolvable supertype %S" si
            | _, None -> fail actual interest "unresolvable supertype %S" sa)
    in
    match super_ok with
    | Error e -> Error e
    | Ok () ->
        (* Every interface of the interest type must be matched by one of
           the actual type's interfaces. *)
        let rec each = function
          | [] -> ok
          | iface :: rest ->
              let candidates = actual.Td.ty_interfaces in
              let matched =
                List.exists
                  (fun a ->
                    S.equal_ci a iface
                    ||
                    match resolve t iface, resolve t a with
                    | Some di, Some da -> (
                        match conforms_desc t assum (depth + 1) da di with
                        | Ok _ -> true
                        | Error _ -> false)
                    | _ -> false)
                  candidates
              in
              if matched then each rest
              else
                fail actual interest
                  "no interface of actual conforms to %S (rule iii)" iface
        in
        each interest.Td.ty_interfaces
  end

(* Aspect (ii): fields (invariant in the field's type). *)
and check_fields t assum depth actual interest =
  if not t.cfg.Config.check_fields then ok
  else
    let rec each = function
      | [] -> ok
      | (f : Td.field_desc) :: rest ->
          let candidates =
            List.filter
              (fun (g : Td.field_desc) ->
                names_conform_raw t.cfg ~interest_name:f.Td.fd_name g.Td.fd_name
                && ((not t.cfg.Config.check_modifiers)
                   || Meta.equal_mods f.Td.fd_mods g.Td.fd_mods))
              actual.Td.ty_fields
          in
          let ty_ok (g : Td.field_desc) =
            ty_conforms t assum (depth + 1) ~actual:g.Td.fd_ty
              ~interest:f.Td.fd_ty
            && ty_conforms t assum (depth + 1) ~actual:f.Td.fd_ty
                 ~interest:g.Td.fd_ty
          in
          let matching = List.filter ty_ok candidates in
          (match matching, t.cfg.Config.ambiguity with
          | [], _ ->
              fail actual interest
                "no field of actual matches %s : %s (rule ii)"
                f.Td.fd_name (Ty.to_string f.Td.fd_ty)
          | _ :: _ :: _, Config.Reject_ambiguous ->
              fail actual interest "field %s matches ambiguously (rule ii)"
                f.Td.fd_name
          | _ -> each rest)
    in
    each interest.Td.ty_fields

(* Aspect (v): constructors. Returns the chosen witnesses. *)
and check_ctors t assum depth actual interest =
  if not t.cfg.Config.check_ctors then Ok []
  else
    let rec each acc = function
      | [] -> Ok (List.rev acc)
      | (c : Td.ctor_desc) :: rest ->
          let arity = List.length c.Td.cd_params in
          let interest_params = List.map (fun p -> p.Td.pd_ty) c.Td.cd_params in
          let with_perm = viable_ctor_matches t assum depth actual c in
          (match with_perm, t.cfg.Config.ambiguity with
          | [], _ ->
              fail actual interest
                "no constructor of actual matches ctor/%d (rule v)" arity
          | _ :: _ :: _, Config.Reject_ambiguous ->
              fail actual interest "constructor/%d matches ambiguously (rule v)"
                arity
          | (c', perm) :: _, _ ->
              let cm =
                {
                  Mapping.cm_arity = arity;
                  cm_perm = perm;
                  cm_param_tys = interest_params;
                  cm_actual_param_tys =
                    List.map (fun p -> p.Td.pd_ty) c'.Td.cd_params;
                }
              in
              each (cm :: acc) rest)
    in
    each [] interest.Td.ty_ctors

(* Aspect (iv): methods. Returns the chosen method maps. *)
and check_methods t assum depth actual interest =
  if not t.cfg.Config.check_methods then Ok []
  else
    let rec each acc = function
      | [] -> Ok (List.rev acc)
      | (m : Td.method_desc) :: rest -> (
          match match_method t assum depth actual interest m with
          | Ok mm -> each (mm :: acc) rest
          | Error e -> Error e)
    in
    each [] interest.Td.ty_methods

(* All methods of [actual] that could serve interest signature [m]: name
   conforms, equal arity and modifiers, covariant return, and some legal
   argument permutation (which is returned with the method). The runtime
   binder picks among exactly this set, so tools probing for ambiguity
   (pti lint) share it. *)
and viable_method_matches t assum depth (actual : Td.t) (m : Td.method_desc) =
  let arity = Td.method_arity m in
  let name_candidates =
    List.filter
      (fun (m' : Td.method_desc) ->
        names_conform_raw t.cfg ~interest_name:m.Td.md_name m'.Td.md_name
        && Td.method_arity m' = arity
        && ((not t.cfg.Config.check_modifiers)
           || Meta.equal_mods m.Td.md_mods m'.Td.md_mods))
      actual.Td.ty_methods
  in
  let interest_params = List.map (fun p -> p.Td.pd_ty) m.Td.md_params in
  List.filter_map
    (fun (m' : Td.method_desc) ->
      let actual_params = List.map (fun p -> p.Td.pd_ty) m'.Td.md_params in
      if
        not
          (ty_conforms t assum (depth + 1) ~actual:m'.Td.md_return
             ~interest:m.Td.md_return)
      then None
      else
        find_permutation t assum depth ~interest_params ~actual_params
        |> Option.map (fun perm -> (m', perm)))
    name_candidates

(* Likewise for rule (v): constructors of [actual] usable as interest
   constructor [c] — equal arity and modifiers, permutable parameters. *)
and viable_ctor_matches t assum depth (actual : Td.t) (c : Td.ctor_desc) =
  let arity = List.length c.Td.cd_params in
  let interest_params = List.map (fun p -> p.Td.pd_ty) c.Td.cd_params in
  let candidates =
    List.filter
      (fun (c' : Td.ctor_desc) ->
        List.length c'.Td.cd_params = arity
        && ((not t.cfg.Config.check_modifiers)
           || Meta.equal_mods c.Td.cd_mods c'.Td.cd_mods))
      actual.Td.ty_ctors
  in
  List.filter_map
    (fun (c' : Td.ctor_desc) ->
      find_permutation t assum depth ~interest_params
        ~actual_params:(List.map (fun p -> p.Td.pd_ty) c'.Td.cd_params)
      |> Option.map (fun perm -> (c', perm)))
    candidates

and match_method t assum depth (actual : Td.t) interest (m : Td.method_desc) =
  let arity = Td.method_arity m in
  let interest_params = List.map (fun p -> p.Td.pd_ty) m.Td.md_params in
  let viable = viable_method_matches t assum depth actual m in
  let chosen =
    match viable, t.cfg.Config.ambiguity with
    | [], _ -> None
    | [ x ], _ -> Some x
    | _ :: _ :: _, Config.Reject_ambiguous -> None
    | x :: _, Config.First_match -> Some x
    | xs, Config.Best_score ->
        let score (m', perm) =
          Lev.similarity m.Td.md_name m'.Td.md_name
          +. (if Mapping.is_identity_perm perm then 0.5 else 0.)
        in
        let best =
          List.fold_left
            (fun acc x ->
              match acc with
              | None -> Some x
              | Some y -> if score x > score y then Some x else Some y)
            None xs
        in
        best
  in
  match chosen with
  | Some (m', perm) ->
      Ok
        {
          Mapping.mm_interest_name = m.Td.md_name;
          mm_actual_name = m'.Td.md_name;
          mm_arity = arity;
          mm_perm = perm;
          mm_interest_return = m.Td.md_return;
          mm_actual_return = m'.Td.md_return;
          mm_param_tys = interest_params;
          mm_actual_param_tys = List.map (fun p -> p.Td.pd_ty) m'.Td.md_params;
        }
  | None -> (
      match viable with
      | _ :: _ :: _ ->
          fail actual interest "method %s matches ambiguously (rule iv)"
            (Td.signature m)
      | _ ->
          fail actual interest "no method of actual matches %s (rule iv)"
            (Td.signature m))

(* Find a bijection sending each actual-parameter position [j] to a caller
   (interest) argument position [perm.(j)], such that the caller's argument
   type conforms to the actual parameter type (contravariance). Prefers the
   identity permutation; only the identity is tried when permutations are
   disabled. *)
and find_permutation t assum depth ~interest_params ~actual_params =
  let n = List.length interest_params in
  if n <> List.length actual_params then None
  else begin
    let ip = Array.of_list interest_params in
    let ap = Array.of_list actual_params in
    let arg_ok i j =
      ty_conforms t assum (depth + 1) ~actual:ip.(i) ~interest:ap.(j)
    in
    if not t.cfg.Config.consider_permutations then begin
      let all_ok = ref true in
      for j = 0 to n - 1 do
        if !all_ok then all_ok := arg_ok j j
      done;
      if !all_ok then Some (Array.init n (fun j -> j)) else None
    end
    else begin
      let used = Array.make n false in
      let perm = Array.make n (-1) in
      (* Position [j]'s candidates, in order: [j] itself first, for
         stable, readable mappings, then every other argument position
         in ascending order. *)
      let rec assign j = j >= n || try_candidate j 0
      and try_candidate j k =
        if k >= n then false
        else begin
          let i = if k = 0 then j else if k <= j then k - 1 else k in
          if (not used.(i)) && arg_ok i j then begin
            used.(i) <- true;
            perm.(j) <- i;
            if assign (j + 1) then true
            else begin
              used.(i) <- false;
              perm.(j) <- -1;
              try_candidate j (k + 1)
            end
          end
          else try_candidate j (k + 1)
        end
      in
      if assign 0 then Some perm else None
    end
  end

(* Type-reference conformance. *)
and ty_conforms t assum depth ~actual ~interest =
  match actual, interest with
  | Ty.Void, Ty.Void
  | Ty.Bool, Ty.Bool
  | Ty.Int, Ty.Int
  | Ty.Float, Ty.Float
  | Ty.String, Ty.String
  | Ty.Char, Ty.Char ->
      true
  | Ty.Array a, Ty.Array i -> ty_conforms t assum depth ~actual:a ~interest:i
  | Ty.Named a, Ty.Named i ->
      S.equal_ci a i
      || (depth <= t.cfg.Config.max_depth
         &&
         match resolve t a, resolve t i with
         | Some da, Some di -> (
             match conforms_desc t assum (depth + 1) da di with
             | Ok _ -> true
             | Error _ -> false)
         | _ -> false)
  | ( ( Ty.Void | Ty.Bool | Ty.Int | Ty.Float | Ty.String | Ty.Char
      | Ty.Named _ | Ty.Array _ ),
      _ ) ->
      false

(* ---------------------------------------------------------------- *)
(* Public API                                                         *)
(* ---------------------------------------------------------------- *)

let check t ~actual ~interest =
  t.st.m_checks <- t.st.m_checks + 1;
  let assum : assum = Pair_tbl.create 8 in
  match conforms_desc t assum 0 actual interest with
  | Ok m -> Conformant m
  | Error fs -> Not_conformant fs

let conforms t ~actual ~interest = verdict_ok (check t ~actual ~interest)

let check_ty t ~actual ~interest =
  let assum : assum = Pair_tbl.create 8 in
  ty_conforms t assum 0 ~actual ~interest

let explicit_conforms t ~actual ~interest = explicit_conforms_desc t actual interest

let viable_methods t ~actual ~interest =
  let assum : assum = Pair_tbl.create 8 in
  viable_method_matches t assum 0 actual interest

let viable_ctors t ~actual ~interest =
  let assum : assum = Pair_tbl.create 8 in
  viable_ctor_matches t assum 0 actual interest

let permutation t ~interest_params ~actual_params =
  let assum : assum = Pair_tbl.create 8 in
  find_permutation t assum 0 ~interest_params ~actual_params
