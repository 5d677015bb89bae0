(* Tests for type descriptions (§5): creation by introspection, XML codec,
   equality / equivalence / fingerprints, resolvers. *)

open Pti_cts
module Td = Pti_typedesc.Type_description
module Demo = Pti_demo.Demo_types
module B = Builder

let registry =
  Demo.fresh_registry
    [ Demo.news_assembly (); Demo.social_assembly (); Demo.typo_assembly () ]

let person_desc () = Td.of_class (Registry.find_exn registry Demo.news_person)

let test_of_class_projects_structure () =
  let d = person_desc () in
  Alcotest.(check string) "name" "Person" d.Td.ty_name;
  Alcotest.(check (list string)) "namespace" [ "newsw" ] d.Td.ty_namespace;
  Alcotest.(check string) "assembly" "news-asm" d.Td.ty_assembly;
  Alcotest.(check int) "fields" 4 (List.length d.Td.ty_fields);
  Alcotest.(check int) "ctors" 1 (List.length d.Td.ty_ctors);
  Alcotest.(check bool) "methods present" true (List.length d.Td.ty_methods >= 10)

let test_qualified_name () =
  Alcotest.(check string) "qname" Demo.news_person
    (Td.qualified_name (person_desc ()))

let test_no_recursion_in_description () =
  (* §5.2: descriptions reference other types by name only. This is a
     structural property of the type itself (fields are Ty.t), asserted
     here by checking the XML stays flat. *)
  let x = Td.to_xml (person_desc ()) in
  let rec depth n node =
    match node with
    | Pti_xml.Xml.Element (_, _, cs) ->
        List.fold_left (fun acc c -> max acc (depth (n + 1) c)) n cs
    | _ -> n
  in
  Alcotest.(check bool) "flat (<=3 levels)" true (depth 1 x <= 3)

let test_xml_roundtrip_all_demo_types () =
  List.iter
    (fun cd ->
      let d = Td.of_class cd in
      match Td.of_xml_string (Td.to_xml_string d) with
      | Ok d' ->
          Alcotest.(check bool)
            ("roundtrip " ^ Td.qualified_name d)
            true (d = d')
      | Error msg ->
          Alcotest.failf "roundtrip %s failed: %s" (Td.qualified_name d) msg)
    (Registry.all registry)

let test_xml_pretty_parses_too () =
  let d = person_desc () in
  match Td.of_xml_string (Td.to_xml_string ~pretty:true d) with
  | Ok d' ->
      Alcotest.(check string) "same fingerprint" (Td.fingerprint d)
        (Td.fingerprint d')
  | Error msg -> Alcotest.failf "pretty parse failed: %s" msg

let test_of_xml_rejects_malformed () =
  List.iter
    (fun s ->
      match Td.of_xml_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should reject: %s" s)
    [
      "";
      "<notATypeDescription/>";
      "<typeDescription name=\"X\"/>";
      (* missing guid etc. *)
      "<typeDescription name=\"X\" namespace=\"\" guid=\"nope\" \
       kind=\"class\" assembly=\"a\"/>";
      "<typeDescription name=\"X\" namespace=\"\" \
       guid=\"00000000-0000-0000-0000-000000000001\" kind=\"sometimes\" \
       assembly=\"a\"/>";
    ]

(* A description element that carries code (a class's [<init>]/[<body>]
   children, as in an assembly) is read with the code dropped; the code
   must still parse. *)
let test_of_xml_drops_code () =
  let module X = Pti_xml.Xml in
  let cd = Registry.find_exn registry Demo.news_person in
  let with_code =
    Pti_serial.Assembly_xml.class_to_xml ~root:"typeDescription" cd
  in
  (match Td.of_xml with_code with
  | Ok d -> Alcotest.(check bool) "code dropped" true (d = Td.of_class cd)
  | Error e -> Alcotest.failf "description with code rejected: %s" e);
  let bad_body =
    match with_code with
    | X.Element (tag, attrs, _) ->
        X.Element
          ( tag,
            attrs,
            [
              X.elt "method"
                ~attrs:
                  [ ("name", "m"); ("return", "void");
                    ("visibility", "public"); ("static", "false");
                    ("virtual", "true") ]
                [ X.elt "body" [ X.elt "nonsense" [] ] ];
            ] )
    | other -> other
  in
  match Td.of_xml bad_body with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "an unparsable body was accepted"

let test_equals_is_guid_identity () =
  let d1 = person_desc () in
  let d2 = Td.of_class (Registry.find_exn registry Demo.social_person) in
  Alcotest.(check bool) "same guid equal" true (Td.equals d1 d1);
  Alcotest.(check bool) "different guid unequal" false (Td.equals d1 d2)

let test_fingerprint_ignores_identity_and_order () =
  let d = person_desc () in
  (* Changing guid/assembly does not change the fingerprint. *)
  let rng = Pti_util.Splitmix.create 5L in
  let d2 =
    { d with Td.ty_guid = Pti_util.Guid.make rng; ty_assembly = "other" }
  in
  Alcotest.(check string) "identity-free" (Td.fingerprint d) (Td.fingerprint d2);
  (* Member order does not matter. *)
  let d3 = { d with Td.ty_methods = List.rev d.Td.ty_methods } in
  Alcotest.(check string) "order-free" (Td.fingerprint d) (Td.fingerprint d3);
  (* Structure does matter. *)
  let d4 = { d with Td.ty_fields = List.tl d.Td.ty_fields } in
  Alcotest.(check bool) "structure-sensitive" false
    (Td.fingerprint d = Td.fingerprint d4)

let test_equivalent_across_assemblies () =
  let mk asm =
    B.class_ ~ns:[ "eqv" ] ~assembly:asm "Pair"
    |> B.property "left" Ty.Int
    |> B.property "right" Ty.Int
    |> B.build
  in
  let a = Td.of_class (mk "one") and b = Td.of_class (mk "two") in
  Alcotest.(check bool) "equivalent" true (Td.equivalent a b);
  Alcotest.(check bool) "not equal" false (Td.equals a b)

let test_to_class_strips_everything () =
  let cd = Td.to_class (person_desc ()) in
  Alcotest.(check bool) "no bodies" true
    (List.for_all (fun m -> m.Meta.m_body = None) cd.Meta.td_methods);
  Alcotest.(check bool) "validates" true (Meta.validate cd = Ok ())

let test_resolvers () =
  let r = Td.registry_resolver registry in
  Alcotest.(check bool) "registry hit" true (r Demo.news_person <> None);
  Alcotest.(check bool) "registry miss" true (r "no.Such" = None);
  let t = Td.table_resolver [ person_desc () ] in
  Alcotest.(check bool) "table ci hit" true (t "NEWSW.PERSON" <> None);
  let chained = Td.chain t (fun _ -> Some (person_desc ())) in
  Alcotest.(check bool) "chain falls back" true (chained "anything" <> None)

let test_size_bytes_positive_and_stable () =
  let d = person_desc () in
  let s1 = Td.size_bytes d and s2 = Td.size_bytes d in
  Alcotest.(check bool) "positive" true (s1 > 0);
  Alcotest.(check int) "stable" s1 s2

let prop_fingerprint_shuffle_invariant =
  QCheck.Test.make ~name:"fingerprint invariant under member shuffles"
    ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Pti_util.Splitmix.create (Int64.of_int seed) in
      let d = person_desc () in
      let shuffle l =
        let a = Array.of_list l in
        Pti_util.Splitmix.shuffle rng a;
        Array.to_list a
      in
      let d' =
        {
          d with
          Td.ty_methods = shuffle d.Td.ty_methods;
          ty_fields = shuffle d.Td.ty_fields;
          ty_interfaces = shuffle d.Td.ty_interfaces;
        }
      in
      Td.fingerprint d = Td.fingerprint d')

let prop_xml_roundtrip_preserves_fingerprint =
  QCheck.Test.make ~name:"xml roundtrip preserves fingerprint" ~count:20
    QCheck.(int_bound (List.length (Registry.all registry) - 1))
    (fun i ->
      let cd = List.nth (Registry.all registry) i in
      let d = Td.of_class cd in
      match Td.of_xml_string (Td.to_xml_string d) with
      | Ok d' -> Td.fingerprint d = Td.fingerprint d'
      | Error _ -> false)

(* --------------------------- binary codec -------------------------- *)

let test_binary_roundtrip_all_demo_types () =
  List.iter
    (fun cd ->
      let d = Td.of_class cd in
      let s = Td.to_binary_string d in
      Alcotest.(check bool) "tagged binary" true (Td.is_binary s);
      Alcotest.(check bool) "smaller than xml" true
        (String.length s < String.length (Td.to_xml_string d));
      match Td.of_binary_string s with
      | Ok d' ->
          Alcotest.(check bool)
            ("binary roundtrip " ^ Td.qualified_name d)
            true
            (d = d')
      | Error e -> Alcotest.failf "%s: %s" (Td.qualified_name d) e)
    (Registry.all registry)

let test_of_wire_string_dispatches () =
  let d = person_desc () in
  (match Td.of_wire_string (Td.to_binary_string d) with
  | Ok d' -> Alcotest.(check bool) "binary wire" true (d = d')
  | Error e -> Alcotest.failf "binary: %s" e);
  match Td.of_wire_string (Td.to_xml_string d) with
  | Ok d' ->
      Alcotest.(check string) "xml wire" (Td.fingerprint d) (Td.fingerprint d')
  | Error e -> Alcotest.failf "xml: %s" e

let prop_binary_flip_always_detected =
  QCheck.Test.make ~name:"binary tdesc: any single byte flip is detected"
    ~count:300
    QCheck.(pair (int_bound 100_000) (int_range 1 255))
    (fun (pos, x) ->
      let s = Td.to_binary_string (person_desc ()) in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match Td.of_binary_string (Bytes.to_string b) with
      | Error _ -> true
      | Ok d' ->
          (* A flip inside the magic makes [of_wire_string] fall back to
             the XML parser, which must also reject; a flip that decodes
             is only acceptable if nothing observable changed (cannot
             happen with a checksummed body, but keep the property
             honest). *)
          d' = person_desc ())

(* Every single-byte flip of the demo Person's compact XML description
   either fails to decode or decodes to the description sent: its digest
   covers the bytes as sent. *)
let test_xml_flips_never_mangle () =
  let d = person_desc () in
  let s = Td.to_xml_string d in
  for pos = 0 to String.length s - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string s in
        Bytes.set b pos (Char.chr (Char.code s.[pos] lxor mask));
        match Td.of_xml_string (Bytes.to_string b) with
        | Error _ -> ()
        | Ok d' ->
            if d' <> d then
              Alcotest.failf
                "flip 0x%02x at byte %d decoded to another description" mask
                pos)
      [ 0x01; 0x20; 0xff ]
  done

(* The PTID encoding of the demo Person, pinned by its FNV-1a: a change
   to the codec cannot move a byte unnoticed. *)
let test_binary_golden_pin () =
  Alcotest.(check string) "PTID" "401816b598e8f2d5"
    (Pti_util.Fnv.hash_hex (Td.to_binary_string (person_desc ())))

(* Its XML renderings, pinned the same way: the compact wire form (with
   its integrity digest) and the pretty display form. *)
let test_xml_golden_pins () =
  let d = person_desc () in
  Alcotest.(check string) "compact" "8ef882035ae86949"
    (Pti_util.Fnv.hash_hex (Td.to_xml_string d));
  Alcotest.(check string) "pretty" "3b1131aeaa1fc480"
    (Pti_util.Fnv.hash_hex (Td.to_xml_string ~pretty:true d))

let () =
  Alcotest.run "typedesc"
    [
      ( "creation",
        [
          Alcotest.test_case "of_class structure" `Quick
            test_of_class_projects_structure;
          Alcotest.test_case "qualified name" `Quick test_qualified_name;
          Alcotest.test_case "non-recursive" `Quick
            test_no_recursion_in_description;
          Alcotest.test_case "to_class" `Quick test_to_class_strips_everything;
        ] );
      ( "xml",
        [
          Alcotest.test_case "roundtrip all demo types" `Quick
            test_xml_roundtrip_all_demo_types;
          Alcotest.test_case "pretty parses" `Quick test_xml_pretty_parses_too;
          Alcotest.test_case "malformed rejected" `Quick
            test_of_xml_rejects_malformed;
          Alcotest.test_case "code dropped" `Quick test_of_xml_drops_code;
          Alcotest.test_case "golden pins" `Quick test_xml_golden_pins;
          Alcotest.test_case "digest: no flip mangles" `Quick
            test_xml_flips_never_mangle;
          Alcotest.test_case "size" `Quick test_size_bytes_positive_and_stable;
        ] );
      ( "identity",
        [
          Alcotest.test_case "equals = guid" `Quick
            test_equals_is_guid_identity;
          Alcotest.test_case "fingerprint" `Quick
            test_fingerprint_ignores_identity_and_order;
          Alcotest.test_case "equivalence" `Quick
            test_equivalent_across_assemblies;
        ] );
      ("resolvers", [ Alcotest.test_case "kinds" `Quick test_resolvers ]);
      ( "binary",
        [
          Alcotest.test_case "roundtrip all demo types" `Quick
            test_binary_roundtrip_all_demo_types;
          Alcotest.test_case "of_wire_string dispatches" `Quick
            test_of_wire_string_dispatches;
          Alcotest.test_case "golden pin" `Quick test_binary_golden_pin;
          QCheck_alcotest.to_alcotest prop_binary_flip_always_detected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_fingerprint_shuffle_invariant;
          QCheck_alcotest.to_alcotest prop_xml_roundtrip_preserves_fingerprint;
        ] );
    ]
