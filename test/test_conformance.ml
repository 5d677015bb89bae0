(* Tests for the implicit structural conformance rules (Figure 2). *)

open Pti_cts
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Config = Pti_conformance.Config
module Mapping = Pti_conformance.Mapping
module Demo = Pti_demo.Demo_types
module B = Builder
module E = Expr

let all_assemblies =
  [
    Demo.news_assembly (); Demo.social_assembly (); Demo.bogus_assembly ();
    Demo.trap_assembly (); Demo.typo_assembly (); Demo.printer_assembly ();
    Demo.printsvc_assembly ();
  ]

let registry = Demo.fresh_registry all_assemblies

let resolver = Td.registry_resolver registry

let desc name = Option.get (resolver name)

let make_checker ?config () = Checker.create ?config ~resolver ()

let check ?config ~actual ~interest () =
  Checker.check (make_checker ?config ())
    ~actual:(desc actual) ~interest:(desc interest)

let assert_conformant ?config ~actual ~interest () =
  match check ?config ~actual ~interest () with
  | Checker.Conformant m -> m
  | Checker.Not_conformant fs ->
      Alcotest.failf "%s should conform to %s but: %s" actual interest
        (String.concat "; "
           (List.map (fun f -> f.Checker.message) fs))

let assert_not_conformant ?config ~actual ~interest () =
  match check ?config ~actual ~interest () with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ ->
      Alcotest.failf "%s should NOT conform to %s" actual interest

(* ------------------------------------------------------------------ *)

let test_reflexive () =
  List.iter
    (fun name ->
      let m = assert_conformant ~actual:name ~interest:name () in
      Alcotest.(check bool) (name ^ " identity") true m.Mapping.identity)
    [ Demo.news_person; Demo.social_person; Demo.news_event; Demo.printer ]

let test_social_conforms_to_news () =
  let m =
    assert_conformant ~actual:Demo.social_person ~interest:Demo.news_person ()
  in
  Alcotest.(check bool) "not identity" false m.Mapping.identity;
  (* Every interest method got a translation. *)
  let interest_d = desc Demo.news_person in
  Alcotest.(check int)
    "all methods mapped"
    (List.length interest_d.Td.ty_methods)
    (List.length m.Mapping.methods);
  (* greet/0 maps to GREET. *)
  match Mapping.find m ~name:"greet" ~arity:0 with
  | None -> Alcotest.fail "no mapping for greet/0"
  | Some mm ->
      Alcotest.(check string) "maps to GREET" "greet"
        (String.lowercase_ascii mm.Mapping.mm_actual_name)

let test_news_conforms_to_social () =
  (* The relation is symmetric for this pair (structures mirror). *)
  ignore
    (assert_conformant ~actual:Demo.news_person ~interest:Demo.social_person ())

let test_events_conform () =
  ignore
    (assert_conformant ~actual:Demo.social_event ~interest:Demo.news_event ());
  ignore
    (assert_conformant ~actual:Demo.news_event ~interest:Demo.social_event ())

let test_printers_conform () =
  ignore (assert_conformant ~actual:Demo.printer ~interest:Demo.printsvc ());
  ignore (assert_conformant ~actual:Demo.printsvc ~interest:Demo.printer ())

let test_bogus_rejected () =
  assert_not_conformant ~actual:Demo.bogus_person ~interest:Demo.news_person ()

let test_trap_rejected_by_full_rules () =
  assert_not_conformant ~actual:Demo.trap_person ~interest:Demo.news_person ()

let test_trap_accepted_by_name_only () =
  ignore
    (assert_conformant ~config:Config.name_only ~actual:Demo.trap_person
       ~interest:Demo.news_person ())

let test_name_rule_strict () =
  (* Persom is one edit away: rejected at distance 0... *)
  assert_not_conformant ~actual:Demo.typo_person ~interest:Demo.news_person ();
  (* ...accepted at distance 1. *)
  ignore
    (assert_conformant
       ~config:(Config.relaxed ~distance:1)
       ~actual:Demo.typo_person ~interest:Demo.news_person ())

let test_wildcards () =
  (* An interest type named Pers* with matching structure. *)
  let iface =
    B.class_ ~ns:[ "query" ] ~assembly:"query-asm" "Pers_star"
    |> B.property "name" Ty.String
    |> B.build
  in
  (* Patch the name directly: '*' is not a valid identifier, so bypass the
     builder validation through the description layer. *)
  let d = Td.of_class iface in
  let d = { d with Td.ty_name = "Pers*"; ty_fields = []; ty_ctors = [] } in
  let checker = make_checker ~config:Config.with_wildcards () in
  (match Checker.check checker ~actual:(desc Demo.news_person) ~interest:d with
  | Checker.Conformant _ -> ()
  | Checker.Not_conformant fs ->
      Alcotest.failf "wildcard should match: %s"
        (String.concat "; " (List.map (fun f -> f.Checker.message) fs)));
  (* The same name does not conform without wildcards. *)
  let strict = make_checker () in
  match Checker.check strict ~actual:(desc Demo.news_person) ~interest:d with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ -> Alcotest.fail "wildcard matched under strict rules"

let test_permutation_in_mapping () =
  (* socialw ctor is (int, string) against newsw (string, int): covered via
     ctor aspect; method-level permutation exercised with bespoke types. *)
  let a =
    B.class_ ~ns:[ "pa" ] ~assembly:"pa" "Calc"
    |> B.method_ "combine"
         [ ("s", Ty.String); ("n", Ty.Int) ]
         Ty.String
         ~body:(E.Binop (E.Concat, E.Var "s", E.Call (E.Var "n", "toString", [])))
    |> B.build
  in
  let b =
    B.class_ ~ns:[ "pb" ] ~assembly:"pb" "calc"
    |> B.method_ "COMBINE"
         [ ("n", Ty.Int); ("s", Ty.String) ]
         Ty.String
         ~body:(E.Binop (E.Concat, E.Var "s", E.Call (E.Var "n", "toString", [])))
    |> B.build
  in
  let local = Td.table_resolver [ Td.of_class a; Td.of_class b ] in
  let checker = Checker.create ~resolver:local () in
  match
    Checker.check checker ~actual:(Td.of_class b) ~interest:(Td.of_class a)
  with
  | Checker.Not_conformant fs ->
      Alcotest.failf "permuted method should conform: %s"
        (String.concat "; " (List.map (fun f -> f.Checker.message) fs))
  | Checker.Conformant m -> (
      match Mapping.find m ~name:"combine" ~arity:2 with
      | None -> Alcotest.fail "no mapping for combine/2"
      | Some mm ->
          (* Actual position 0 (int) takes caller arg 1; position 1 takes 0. *)
          Alcotest.(check (array int))
            "permutation" [| 1; 0 |] mm.Mapping.mm_perm)

let test_permutations_disabled () =
  let a =
    B.class_ ~ns:[ "pa" ] ~assembly:"pa" "Calc"
    |> B.method_ "combine" [ ("s", Ty.String); ("n", Ty.Int) ] Ty.Void
    |> B.build
  in
  let b =
    B.class_ ~ns:[ "pb" ] ~assembly:"pb" "calc"
    |> B.method_ "combine" [ ("n", Ty.Int); ("s", Ty.String) ] Ty.Void
    |> B.build
  in
  let local = Td.table_resolver [ Td.of_class a; Td.of_class b ] in
  let config = { Config.strict with Config.consider_permutations = false } in
  let checker = Checker.create ~config ~resolver:local () in
  match
    Checker.check checker ~actual:(Td.of_class b) ~interest:(Td.of_class a)
  with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ ->
      Alcotest.fail "permutation matched with permutations disabled"

let test_explicit_conformance () =
  (* A class explicitly implementing an interface conforms to it via the
     explicit short-circuit even when structure alone would not suffice
     (the interface's method set is a subset). *)
  let iface =
    B.interface_ ~ns:[ "ex" ] ~assembly:"ex" "INamed"
    |> B.abstract_method "getName" [] Ty.String
    |> B.build
  in
  let impl =
    B.class_ ~ns:[ "ex" ] ~assembly:"ex" "Badge"
         ~interfaces:[ "ex.INamed" ]
    |> B.property "name" Ty.String
    |> B.field "serial" Ty.Int
    |> B.build
  in
  let local = Td.table_resolver [ Td.of_class iface; Td.of_class impl ] in
  let checker = Checker.create ~resolver:local () in
  Alcotest.(check bool)
    "explicit" true
    (Checker.explicit_conforms checker ~actual:(Td.of_class impl)
       ~interest:(Td.of_class iface));
  match
    Checker.check checker ~actual:(Td.of_class impl)
      ~interest:(Td.of_class iface)
  with
  | Checker.Conformant m ->
      Alcotest.(check bool) "identity" true m.Mapping.identity
  | Checker.Not_conformant _ -> Alcotest.fail "explicit subtype should conform"

let test_equivalence_identity_mapping () =
  (* Same structure registered under two GUIDs (different assemblies). *)
  let mk asm =
    B.class_ ~ns:[ "eq" ] ~assembly:asm "Point"
    |> B.property "x" Ty.Int
    |> B.property "y" Ty.Int
    |> B.build
  in
  let a = mk "asm-a" and b = mk "asm-b" in
  Alcotest.(check bool)
    "distinct guids" false
    (Pti_util.Guid.equal a.Meta.td_guid b.Meta.td_guid);
  let local = Td.table_resolver [ Td.of_class a; Td.of_class b ] in
  let checker = Checker.create ~resolver:local () in
  match
    Checker.check checker ~actual:(Td.of_class b) ~interest:(Td.of_class a)
  with
  | Checker.Conformant m ->
      Alcotest.(check bool) "identity" true m.Mapping.identity
  | Checker.Not_conformant _ -> Alcotest.fail "equivalent types should conform"

let test_supertype_aspect () =
  (* Interest has a superclass the actual lacks: rejected. *)
  let base =
    B.class_ ~ns:[ "sa" ] ~assembly:"sa" "Base"
    |> B.property "id" Ty.Int |> B.build
  in
  let derived =
    B.class_ ~ns:[ "sa" ] ~assembly:"sa" "Thing" ~super:"sa.Base"
    |> B.property "name" Ty.String
    |> B.build
  in
  let flat =
    B.class_ ~ns:[ "sb" ] ~assembly:"sb" "thing"
    |> B.property "name" Ty.String
    |> B.build
  in
  let local =
    Td.table_resolver
      [ Td.of_class base; Td.of_class derived; Td.of_class flat ]
  in
  let checker = Checker.create ~resolver:local () in
  (match
     Checker.check checker ~actual:(Td.of_class flat)
       ~interest:(Td.of_class derived)
   with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ -> Alcotest.fail "missing superclass should reject");
  (* With a conformant superclass on the actual side it passes. *)
  let base2 =
    B.class_ ~ns:[ "sb" ] ~assembly:"sb" "base"
    |> B.property "id" Ty.Int |> B.build
  in
  let flat2 =
    B.class_ ~ns:[ "sb" ] ~assembly:"sb" "thing2" ~super:"sb.base"
    |> B.property "name" Ty.String
    |> B.build
  in
  (* Rename so the name rule still matches "Thing". *)
  let flat2_d = { (Td.of_class flat2) with Td.ty_name = "thing" } in
  let local2 =
    Td.table_resolver
      [ Td.of_class base; Td.of_class derived; Td.of_class base2; flat2_d ]
  in
  let checker2 = Checker.create ~resolver:local2 () in
  match
    Checker.check checker2 ~actual:flat2_d ~interest:(Td.of_class derived)
  with
  | Checker.Conformant _ -> ()
  | Checker.Not_conformant fs ->
      Alcotest.failf "conformant superclass should pass: %s"
        (String.concat "; " (List.map (fun f -> f.Checker.message) fs))

let test_field_type_invariance () =
  (* Same field name, different (non-conformant) field type: rejected. *)
  let a =
    B.class_ ~ns:[ "fa" ] ~assembly:"fa" "Box"
    |> B.field "content" Ty.String |> B.build
  in
  let b =
    B.class_ ~ns:[ "fb" ] ~assembly:"fb" "box"
    |> B.field "content" Ty.Int |> B.build
  in
  let local = Td.table_resolver [ Td.of_class a; Td.of_class b ] in
  let checker = Checker.create ~resolver:local () in
  match
    Checker.check checker ~actual:(Td.of_class b) ~interest:(Td.of_class a)
  with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ -> Alcotest.fail "int field cannot match string field"

let test_modifier_mismatch () =
  let a =
    B.class_ ~ns:[ "ma" ] ~assembly:"ma" "Svc"
    |> B.method_ "ping" [] Ty.Int ~body:(E.int 1)
    |> B.build
  in
  let static_mods = { Meta.public_mods with Meta.static = true } in
  let b =
    B.class_ ~ns:[ "mb" ] ~assembly:"mb" "svc"
    |> B.method_ ~mods:static_mods "ping" [] Ty.Int ~body:(E.int 1)
    |> B.build
  in
  let local = Td.table_resolver [ Td.of_class a; Td.of_class b ] in
  let checker = Checker.create ~resolver:local () in
  (match
     Checker.check checker ~actual:(Td.of_class b) ~interest:(Td.of_class a)
   with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ -> Alcotest.fail "static mismatch should reject");
  (* And passes when modifier checking is off. *)
  let config = { Config.strict with Config.check_modifiers = false } in
  let lax = Checker.create ~config ~resolver:local () in
  match Checker.check lax ~actual:(Td.of_class b) ~interest:(Td.of_class a) with
  | Checker.Conformant _ -> ()
  | Checker.Not_conformant _ -> Alcotest.fail "should pass without modifiers"

let test_ambiguity_policies () =
  (* Within one class, case-insensitive duplicate method names are invalid,
     so ambiguity only arises under a relaxed name distance: the interest's
     [pick] matches both [pica] (distance 1) and [pick] (distance 0). *)
  let a =
    B.class_ ~ns:[ "aa" ] ~assembly:"aa" "Chooser"
    |> B.method_ "pick" [ ("x", Ty.Int) ] Ty.Int ~body:(E.Var "x")
    |> B.build
  in
  let b =
    B.class_ ~ns:[ "ab" ] ~assembly:"ab" "chooser"
    |> B.method_ "pica" [ ("x", Ty.Int) ] Ty.Int ~body:(E.Var "x")
    |> B.method_ "pick" [ ("y", Ty.Int) ] Ty.Int
         ~body:(E.Binop (E.Add, E.Var "y", E.int 1))
    |> B.build
  in
  let local = Td.table_resolver [ Td.of_class a; Td.of_class b ] in
  let relaxed = Config.relaxed ~distance:1 in
  let first = Checker.create ~config:relaxed ~resolver:local () in
  (match
     Checker.check first ~actual:(Td.of_class b) ~interest:(Td.of_class a)
   with
  | Checker.Conformant m ->
      let mm = Option.get (Mapping.find m ~name:"pick" ~arity:1) in
      Alcotest.(check string) "first match wins" "pica"
        mm.Mapping.mm_actual_name
  | Checker.Not_conformant _ -> Alcotest.fail "first-match should conform");
  let reject =
    Checker.create
      ~config:{ relaxed with Config.ambiguity = Config.Reject_ambiguous }
      ~resolver:local ()
  in
  (match
     Checker.check reject ~actual:(Td.of_class b) ~interest:(Td.of_class a)
   with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ -> Alcotest.fail "reject-ambiguous should reject");
  let best =
    Checker.create
      ~config:{ relaxed with Config.ambiguity = Config.Best_score }
      ~resolver:local ()
  in
  match
    Checker.check best ~actual:(Td.of_class b) ~interest:(Td.of_class a)
  with
  | Checker.Conformant m ->
      let mm = Option.get (Mapping.find m ~name:"pick" ~arity:1) in
      Alcotest.(check string) "best score prefers the exact name" "pick"
        mm.Mapping.mm_actual_name
  | Checker.Not_conformant _ -> Alcotest.fail "best-score should conform"

let test_recursive_types_coinduction () =
  (* Person.spouse : Person on both sides — must terminate and conform. *)
  ignore
    (assert_conformant ~actual:Demo.social_person ~interest:Demo.news_person ());
  (* Mutually recursive pair across two worlds. *)
  let a1 =
    B.class_ ~ns:[ "ra" ] ~assembly:"ra" "Ping"
    |> B.field "other" (Ty.Named "ra.Pong")
    |> B.build
  in
  let a2 =
    B.class_ ~ns:[ "ra" ] ~assembly:"ra" "Pong"
    |> B.field "other" (Ty.Named "ra.Ping")
    |> B.build
  in
  let b1 =
    B.class_ ~ns:[ "rb" ] ~assembly:"rb" "ping"
    |> B.field "other" (Ty.Named "rb.pong")
    |> B.build
  in
  let b2 =
    B.class_ ~ns:[ "rb" ] ~assembly:"rb" "pong"
    |> B.field "other" (Ty.Named "rb.ping")
    |> B.build
  in
  let local =
    Td.table_resolver
      [ Td.of_class a1; Td.of_class a2; Td.of_class b1; Td.of_class b2 ]
  in
  let checker = Checker.create ~resolver:local () in
  match
    Checker.check checker ~actual:(Td.of_class b1) ~interest:(Td.of_class a1)
  with
  | Checker.Conformant _ -> ()
  | Checker.Not_conformant fs ->
      Alcotest.failf "mutual recursion should conform: %s"
        (String.concat "; " (List.map (fun f -> f.Checker.message) fs))

let test_unresolvable_reference_rejects () =
  let a =
    B.class_ ~ns:[ "ua" ] ~assembly:"ua" "Holder"
    |> B.field "x" (Ty.Named "ua.Missing")
    |> B.build
  in
  let b =
    B.class_ ~ns:[ "ub" ] ~assembly:"ub" "holder"
    |> B.field "x" (Ty.Named "ub.AlsoMissing")
    |> B.build
  in
  let local = Td.table_resolver [ Td.of_class a; Td.of_class b ] in
  let checker = Checker.create ~resolver:local () in
  match
    Checker.check checker ~actual:(Td.of_class b) ~interest:(Td.of_class a)
  with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ ->
      Alcotest.fail "unresolvable field types should reject"

let test_interface_as_interest () =
  (* A class conforms to an interface interest when the (ci) names match
     and every interface method is matched; interfaces have no fields or
     ctors, so those aspects are vacuous. *)
  let iface =
    B.interface_ ~ns:[ "ii" ] ~assembly:"ii" "person"
    |> B.abstract_method "getName" [] Ty.String
    |> B.abstract_method "older" [ ("y", Ty.Int) ] Ty.Int
    |> B.build
  in
  let local =
    Td.table_resolver [ Td.of_class iface; desc Demo.news_person ]
  in
  let checker = Checker.create ~resolver:local () in
  match
    Checker.check checker ~actual:(desc Demo.news_person)
      ~interest:(Td.of_class iface)
  with
  | Checker.Conformant m ->
      Alcotest.(check int) "two methods mapped" 2
        (List.length m.Mapping.methods)
  | Checker.Not_conformant fs ->
      Alcotest.failf "class should conform to interface interest: %s"
        (String.concat "; " (List.map (fun f -> f.Checker.message) fs))

let test_array_field_types () =
  let a =
    B.class_ ~ns:[ "ar" ] ~assembly:"ar" "Roster"
    |> B.field "names" (Ty.Array Ty.String)
    |> B.build
  in
  let b =
    B.class_ ~ns:[ "br" ] ~assembly:"br" "roster"
    |> B.field "names" (Ty.Array Ty.String)
    |> B.build
  in
  let c =
    B.class_ ~ns:[ "cr" ] ~assembly:"cr" "roster"
    |> B.field "names" (Ty.Array Ty.Int)
    |> B.build
  in
  let local =
    Td.table_resolver [ Td.of_class a; Td.of_class b; Td.of_class c ]
  in
  let checker = Checker.create ~resolver:local () in
  Alcotest.(check bool) "same array type conforms" true
    (Checker.verdict_ok
       (Checker.check checker ~actual:(Td.of_class b)
          ~interest:(Td.of_class a)));
  Alcotest.(check bool) "different element type rejected" false
    (Checker.verdict_ok
       (Checker.check checker ~actual:(Td.of_class c)
          ~interest:(Td.of_class a)))

let test_question_mark_wildcard () =
  let d = desc Demo.news_person in
  let interest = { d with Td.ty_name = "Pers?n"; ty_fields = [];
                   ty_ctors = []; ty_methods = [] } in
  let checker = make_checker ~config:Config.with_wildcards () in
  match Checker.check checker ~actual:(desc Demo.social_person) ~interest with
  | Checker.Conformant _ -> ()
  | Checker.Not_conformant _ -> Alcotest.fail "'?' wildcard should match"

let test_deep_explicit_chain () =
  (* Explicit conformance walks several levels of declared supertypes. *)
  let l0 = B.class_ ~ns:[ "dc" ] ~assembly:"dc" "Root" |> B.build in
  let l1 =
    B.class_ ~ns:[ "dc" ] ~assembly:"dc" "Mid" ~super:"dc.Root" |> B.build
  in
  let l2 =
    B.class_ ~ns:[ "dc" ] ~assembly:"dc" "Leaf" ~super:"dc.Mid" |> B.build
  in
  let local =
    Td.table_resolver [ Td.of_class l0; Td.of_class l1; Td.of_class l2 ]
  in
  let checker = Checker.create ~resolver:local () in
  Alcotest.(check bool) "leaf <=e root" true
    (Checker.explicit_conforms checker ~actual:(Td.of_class l2)
       ~interest:(Td.of_class l0));
  Alcotest.(check bool) "root !<=e leaf" false
    (Checker.explicit_conforms checker ~actual:(Td.of_class l0)
       ~interest:(Td.of_class l2));
  (* And the full rules pick it up via the shortcut despite the name
     mismatch (Leaf vs Root). *)
  Alcotest.(check bool) "shortcut beats the name rule" true
    (Checker.verdict_ok
       (Checker.check checker ~actual:(Td.of_class l2)
          ~interest:(Td.of_class l0)))

let test_cache_and_stats () =
  let checker = make_checker () in
  let a = desc Demo.social_person and i = desc Demo.news_person in
  ignore (Checker.check checker ~actual:a ~interest:i);
  let s1 = Checker.stats checker in
  ignore (Checker.check checker ~actual:a ~interest:i);
  let s2 = Checker.stats checker in
  Alcotest.(check int) "two checks" 2 s2.Checker.checks;
  Alcotest.(check bool) "cache hit on repeat" true
    (s2.Checker.cache_hits > s1.Checker.cache_hits);
  Alcotest.(check bool)
    "second check did no extra pair work" true
    (s2.Checker.pair_checks - s1.Checker.pair_checks <= 1)

(* A repeated check of a conformant pair is answered by a probe of the
   verdict cache: no key or failure context is formatted on the way. *)
let test_cached_check_is_lookup () =
  let checker = make_checker () in
  let a = desc Demo.social_person and i = desc Demo.news_person in
  let first = Checker.check checker ~actual:a ~interest:i in
  Alcotest.(check bool) "conformant" true (Checker.verdict_ok first);
  let hits = (Checker.stats checker).Checker.top_hits in
  let before = Gc.minor_words () in
  let again = Checker.check checker ~actual:a ~interest:i in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "same verdict" true (again = first);
  Alcotest.(check int) "one more top-level hit" (hits + 1)
    (Checker.stats checker).Checker.top_hits;
  Alcotest.(check bool)
    (Printf.sprintf "cached check allocates %.0f words (at most 100)" words)
    true (words <= 100.)

(* A cold check of workload family 7's Person against wnews.Person: a
   fresh strict checker whose resolver returns prebuilt descriptions.
   On the success path no fingerprint is rendered (the qualified names
   differ), no name is split or lowercased for rule (i), and no failure
   context is formatted: at most 5 000 words. *)
let test_cold_check_allocation () =
  let module W = Pti_demo.Workload in
  let reg = Registry.create () in
  Assembly.load reg (W.family ~index:7 ~flavor:W.Conformant);
  Assembly.load reg (W.interest_assembly ());
  let descs = List.map Td.of_class (Registry.all reg) in
  let resolver = Td.table_resolver descs in
  let actual =
    Option.get (resolver (W.person_name ~index:7 ~flavor:W.Conformant))
  in
  let interest = Option.get (resolver W.interest_person) in
  let check () = Checker.check (Checker.create ~resolver ()) ~actual ~interest in
  Alcotest.(check bool) "conformant" true (Checker.verdict_ok (check ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (check ()));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "cold check allocates %.0f words (at most 5 000)" words)
    true (words <= 5000.)

let test_name_rule_direct () =
  let checker = make_checker () in
  Alcotest.(check bool) "case-insensitive equal" true
    (Checker.names_conform checker ~interest_name:"Person" "pERSON");
  Alcotest.(check bool) "distance 1 rejected" false
    (Checker.names_conform checker ~interest_name:"Person" "Persom");
  Alcotest.(check bool) "namespace ignored" true
    (Checker.names_conform checker ~interest_name:"a.b.Person" "c.Person");
  let ns_checker =
    make_checker
      ~config:{ Config.strict with Config.compare_namespaces = true } ()
  in
  Alcotest.(check bool) "namespaces compared when asked" false
    (Checker.names_conform ns_checker ~interest_name:"a.b.Person" "c.Person")

let test_primitive_ty_conformance () =
  let checker = make_checker () in
  Alcotest.(check bool) "int<=int" true
    (Checker.check_ty checker ~actual:Ty.Int ~interest:Ty.Int);
  Alcotest.(check bool) "int<=float" false
    (Checker.check_ty checker ~actual:Ty.Int ~interest:Ty.Float);
  Alcotest.(check bool) "string[]<=string[]" true
    (Checker.check_ty checker ~actual:(Ty.Array Ty.String)
       ~interest:(Ty.Array Ty.String));
  Alcotest.(check bool) "named recursion" true
    (Checker.check_ty checker
       ~actual:(Ty.Named Demo.social_person)
       ~interest:(Ty.Named Demo.news_person))

(* clear_cache empties the verdict cache (so the next check recomputes
   pair work) while the stats counters keep accumulating. *)
let test_clear_cache () =
  let checker = make_checker () in
  let actual = desc Demo.social_person and interest = desc Demo.news_person in
  ignore (Checker.check checker ~actual ~interest);
  ignore (Checker.check checker ~actual ~interest);
  let warm = Checker.stats checker in
  Checker.clear_cache checker;
  let s3 = Checker.stats checker in
  Alcotest.(check int) "counters survive clear_cache" warm.Checker.checks
    s3.Checker.checks;
  ignore (Checker.check checker ~actual ~interest);
  let s4 = Checker.stats checker in
  Alcotest.(check bool) "after clear_cache the pair is recomputed" true
    (s4.Checker.pair_checks > s3.Checker.pair_checks);
  Alcotest.(check int) "checks keep counting" (s3.Checker.checks + 1)
    s4.Checker.checks

(* Keyed invalidation (the clear_cache replacement): a new type
   description must drop exactly the verdicts that depended on that name —
   including verdicts that failed because the name did not resolve — and
   nothing else. *)
let test_keyed_invalidation () =
  let tbl = Hashtbl.create 8 in
  let put cd =
    Hashtbl.replace tbl
      (String.lowercase_ascii (Meta.qualified_name cd))
      (Td.of_class cd)
  in
  let res name = Hashtbl.find_opt tbl (String.lowercase_ascii name) in
  let checker = Checker.create ~resolver:res () in
  let addr ns =
    B.class_ ~ns:[ ns ] ~assembly:"t" "Addr"
    |> B.field "street" Ty.String
    |> B.build
  in
  let person ns addr_ns =
    B.class_ ~ns:[ ns ] ~assembly:"t" "Person"
    |> B.field "home" (Ty.Named (addr_ns ^ ".Addr"))
    |> B.build
  in
  let interest = person "q" "q" and actual = person "p" "p" in
  put (addr "q");
  put interest;
  put actual;
  (* p.Addr is deliberately absent: the verdict fails on the miss. *)
  let d cd = Td.of_class cd in
  (match Checker.check checker ~actual:(d actual) ~interest:(d interest) with
  | Checker.Not_conformant _ -> ()
  | Checker.Conformant _ ->
      Alcotest.fail "should not conform while p.Addr is unknown");
  Alcotest.(check int) "unrelated name invalidates nothing" 0
    (Checker.note_new_type checker "other.Thing");
  let s1 = Checker.stats checker in
  ignore (Checker.check checker ~actual:(d actual) ~interest:(d interest));
  let s2 = Checker.stats checker in
  Alcotest.(check int)
    "verdict survives the unrelated arrival (no recompute)"
    s1.Checker.top_computes s2.Checker.top_computes;
  Alcotest.(check bool) "repeat is a cache hit" true
    (s2.Checker.top_hits > s1.Checker.top_hits);
  (* The missing dependency arrives: the stale negative verdict must go. *)
  put (addr "p");
  Alcotest.(check bool) "dependent verdict invalidated" true
    (Checker.note_new_type checker "p.Addr" >= 1);
  match Checker.check checker ~actual:(d actual) ~interest:(d interest) with
  | Checker.Conformant _ -> ()
  | Checker.Not_conformant _ ->
      Alcotest.fail "must conform once p.Addr resolves"

(* Capacity pressure: the verdict cache is a bounded LRU now. *)
let test_cache_capacity () =
  let checker = Checker.create ~cache_capacity:1 ~resolver () in
  let a = desc Demo.social_person and i = desc Demo.news_person in
  ignore (Checker.check checker ~actual:a ~interest:i);
  (* A second distinct pair displaces the first (capacity 1)... *)
  ignore
    (Checker.check checker ~actual:(desc Demo.trap_person) ~interest:i);
  ignore (Checker.check checker ~actual:a ~interest:i);
  let s = Checker.stats checker in
  Alcotest.(check int) "capacity reported" 1 s.Checker.cache_capacity;
  Alcotest.(check bool) "bounded" true (s.Checker.cache_size <= 1);
  let c = Checker.cache_counters checker in
  Alcotest.(check bool) "evictions counted" true (c.Pti_obs.Lru.evictions >= 1)

(* Property: conformance of the demo pair is stable under checker reuse
   and declaration-order permutations of the interest's methods. *)
let prop_method_order_irrelevant =
  QCheck.Test.make ~name:"method declaration order irrelevant" ~count:30
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Pti_util.Splitmix.create (Int64.of_int seed) in
      let d = desc Demo.news_person in
      let methods = Array.of_list d.Td.ty_methods in
      Pti_util.Splitmix.shuffle rng methods;
      let shuffled = { d with Td.ty_methods = Array.to_list methods } in
      let checker = make_checker () in
      Checker.verdict_ok
        (Checker.check checker ~actual:(desc Demo.social_person)
           ~interest:shuffled))

let prop_equivalence_reflexive_on_population =
  QCheck.Test.make ~name:"every type equivalent to itself" ~count:1
    QCheck.unit
    (fun () ->
      List.for_all
        (fun cd ->
          let d = Td.of_class cd in
          Td.equivalent d d)
        (Registry.all registry))

let () =
  Alcotest.run "conformance"
    [
      ( "rules",
        [
          Alcotest.test_case "reflexive" `Quick test_reflexive;
          Alcotest.test_case "social => news person" `Quick
            test_social_conforms_to_news;
          Alcotest.test_case "news => social person" `Quick
            test_news_conforms_to_social;
          Alcotest.test_case "events conform both ways" `Quick
            test_events_conform;
          Alcotest.test_case "printer types conform" `Quick
            test_printers_conform;
          Alcotest.test_case "missing members rejected" `Quick
            test_bogus_rejected;
          Alcotest.test_case "trap rejected by full rules" `Quick
            test_trap_rejected_by_full_rules;
          Alcotest.test_case "trap accepted by name-only rules" `Quick
            test_trap_accepted_by_name_only;
          Alcotest.test_case "levenshtein threshold" `Quick
            test_name_rule_strict;
          Alcotest.test_case "wildcards" `Quick test_wildcards;
          Alcotest.test_case "argument permutation" `Quick
            test_permutation_in_mapping;
          Alcotest.test_case "permutations disabled" `Quick
            test_permutations_disabled;
          Alcotest.test_case "explicit conformance" `Quick
            test_explicit_conformance;
          Alcotest.test_case "equivalence" `Quick
            test_equivalence_identity_mapping;
          Alcotest.test_case "supertype aspect" `Quick test_supertype_aspect;
          Alcotest.test_case "field type invariance" `Quick
            test_field_type_invariance;
          Alcotest.test_case "modifier mismatch" `Quick test_modifier_mismatch;
          Alcotest.test_case "ambiguity policies" `Quick
            test_ambiguity_policies;
          Alcotest.test_case "co-inductive recursion" `Quick
            test_recursive_types_coinduction;
          Alcotest.test_case "unresolvable references" `Quick
            test_unresolvable_reference_rejects;
          Alcotest.test_case "interface as interest" `Quick
            test_interface_as_interest;
          Alcotest.test_case "array field types" `Quick test_array_field_types;
          Alcotest.test_case "'?' wildcard" `Quick test_question_mark_wildcard;
          Alcotest.test_case "deep explicit chain" `Quick
            test_deep_explicit_chain;
          Alcotest.test_case "cache and stats" `Quick test_cache_and_stats;
          Alcotest.test_case "cached check is a lookup" `Quick
            test_cached_check_is_lookup;
          Alcotest.test_case "cold check allocation" `Quick
            test_cold_check_allocation;
          Alcotest.test_case "clear_cache" `Quick test_clear_cache;
          Alcotest.test_case "keyed invalidation" `Quick
            test_keyed_invalidation;
          Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
          Alcotest.test_case "name rule" `Quick test_name_rule_direct;
          Alcotest.test_case "type reference conformance" `Quick
            test_primitive_ty_conformance;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_method_order_irrelevant;
          QCheck_alcotest.to_alcotest prop_equivalence_reflexive_on_population;
        ] );
    ]
