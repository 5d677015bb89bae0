(* Tests for the CTS runtime: metadata, registry, evaluation, builder,
   introspection, assemblies. *)

open Pti_cts
module Demo = Pti_demo.Demo_types
module B = Builder
module E = Expr

let reg () =
  Demo.fresh_registry [ Demo.news_assembly (); Demo.social_assembly () ]

let get_string = function
  | Value.Vstring s -> s
  | v -> Alcotest.failf "expected string, got %s" (Value.type_name v)

let get_int = function
  | Value.Vint i -> i
  | v -> Alcotest.failf "expected int, got %s" (Value.type_name v)

(* ------------------------------- ty -------------------------------- *)

let test_ty_strings () =
  List.iter
    (fun (ty, s) ->
      Alcotest.(check string) s s (Ty.to_string ty);
      match Ty.of_string s with
      | Some ty' -> Alcotest.(check bool) ("parse " ^ s) true (Ty.equal ty ty')
      | None -> Alcotest.failf "failed to parse %s" s)
    [
      (Ty.Int, "int"); (Ty.Bool, "bool"); (Ty.String, "string");
      (Ty.Float, "float"); (Ty.Void, "void"); (Ty.Char, "char");
      (Ty.Named "a.B", "a.B"); (Ty.Array Ty.Int, "int[]");
      (Ty.Array (Ty.Array (Ty.Named "x.Y")), "x.Y[][]");
    ]

let test_ty_case_insensitive_named () =
  Alcotest.(check bool) "named ci" true
    (Ty.equal (Ty.Named "a.Person") (Ty.Named "A.PERSON"));
  Alcotest.(check bool) "named differs" false
    (Ty.equal (Ty.Named "a.Person") (Ty.Named "a.Persons"))

let test_ty_of_string_empty () =
  Alcotest.(check bool) "empty rejected" true (Ty.of_string "" = None);
  Alcotest.(check bool) "dangling [] rejected" true (Ty.of_string "[]" = None)

(* ------------------------------- meta ------------------------------ *)

let test_validate_rejects () =
  let base = B.class_ ~ns:[ "t" ] ~assembly:"t" "X" |> B.build in
  let field name ty =
    { Meta.f_name = name; f_ty = ty; f_mods = Meta.public_mods; f_init = None }
  in
  let bad = { base with Meta.td_name = "9bad" } in
  (match Meta.validate bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "bad class name accepted");
  let dup_fields =
    { base with Meta.td_fields = [ field "name" Ty.String; field "NAME" Ty.Int ] }
  in
  (match Meta.validate dup_fields with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "case-insensitive duplicate fields accepted");
  let iface_with_body =
    {
      base with
      Meta.td_kind = Meta.Interface;
      td_methods =
        [
          {
            Meta.m_name = "m";
            m_params = [];
            m_return = Ty.Int;
            m_mods = Meta.public_mods;
            m_body = Some (E.int 1);
          };
        ];
    }
  in
  (match Meta.validate iface_with_body with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "interface method body accepted");
  (* The builder enforces validation on build. *)
  match
    B.class_ ~ns:[ "t" ] ~assembly:"t" "Y"
    |> B.field "f" Ty.Int |> B.field "F" Ty.Int |> B.build
  with
  | _ -> Alcotest.fail "builder accepted duplicate fields"
  | exception Invalid_argument _ -> ()

let test_qualified_name () =
  let cd = B.class_ ~ns:[ "a"; "b" ] ~assembly:"t" "C" |> B.build in
  Alcotest.(check string) "qname" "a.b.C" (Meta.qualified_name cd);
  let cd2 = B.class_ ~assembly:"t" "Top" |> B.build in
  Alcotest.(check string) "no ns" "Top" (Meta.qualified_name cd2)

let test_strip_bodies () =
  let cd =
    B.class_ ~ns:[ "t" ] ~assembly:"t" "C"
    |> B.field ~init:(E.int 3) "x" Ty.Int
    |> B.method_ ~body:(E.int 1) "m" [] Ty.Int
    |> B.ctor ~body:(E.null) []
    |> B.build
  in
  let stripped = Meta.strip_bodies cd in
  Alcotest.(check bool) "field init gone" true
    (List.for_all (fun f -> f.Meta.f_init = None) stripped.Meta.td_fields);
  Alcotest.(check bool) "method body gone" true
    (List.for_all (fun m -> m.Meta.m_body = None) stripped.Meta.td_methods);
  Alcotest.(check bool) "ctor body gone" true
    (List.for_all (fun c -> c.Meta.c_body = None) stripped.Meta.td_ctors)

(* ------------------------------- registry -------------------------- *)

let test_registry_lookup () =
  let r = reg () in
  Alcotest.(check bool) "find ci" true (Registry.find r "NEWSW.PERSON" <> None);
  Alcotest.(check bool) "missing" true (Registry.find r "no.Such" = None);
  let cd = Registry.find_exn r Demo.news_person in
  Alcotest.(check bool) "guid lookup" true
    (Registry.find_by_guid r cd.Meta.td_guid <> None)

let test_registry_duplicate () =
  let r = Registry.create () in
  let cd = B.class_ ~ns:[ "d" ] ~assembly:"d" "C" |> B.property "x" Ty.Int |> B.build in
  Registry.register r cd;
  (* Identical re-registration is idempotent. *)
  Registry.register r cd;
  Alcotest.(check int) "one entry" 1 (Registry.cardinal r);
  (* A different class under the same name is a conflict. *)
  let cd2 =
    B.class_ ~ns:[ "d" ] ~assembly:"other" "C" |> B.property "y" Ty.Int |> B.build
  in
  match Registry.register r cd2 with
  | () -> Alcotest.fail "conflicting registration accepted"
  | exception Registry.Duplicate _ -> ()

(* A peer memoises the description of a loaded class by GUID, which is
   sound only while a registry never binds a GUID to a second
   definition, through any of its three entry points. *)
let test_registry_guid_keeps_definition () =
  let r = Registry.create () in
  let cd = B.class_ ~ns:[ "d" ] ~assembly:"d" "C" |> B.property "x" Ty.Int |> B.build in
  Registry.register r cd;
  let guid = cd.Meta.td_guid in
  let changed =
    B.class_ ~ns:[ "d" ] ~guid ~assembly:"d" "C" |> B.property "y" Ty.Int |> B.build
  in
  let renamed =
    B.class_ ~ns:[ "d" ] ~guid ~assembly:"d" "D" |> B.property "x" Ty.Int |> B.build
  in
  List.iter
    (fun (what, bind, other) ->
      match bind r other with
      | () -> Alcotest.failf "%s rebound a registered GUID" what
      | exception Registry.Duplicate _ -> ())
    [
      ("upgrade", Registry.upgrade, changed);
      ("shadow", Registry.shadow, changed);
      ("register", Registry.register, renamed);
    ];
  (* The identical definition is still accepted everywhere. *)
  Registry.register r cd;
  Registry.upgrade r cd;
  Registry.shadow r cd;
  Alcotest.(check int) "one entry" 1 (Registry.cardinal r);
  Alcotest.(check bool) "the GUID keeps its definition" true
    (Registry.find_by_guid r guid = Some cd)

let test_registry_hierarchy () =
  let r = Registry.create () in
  let base =
    B.class_ ~ns:[ "h" ] ~assembly:"h" "Base" |> B.field "id" Ty.Int |> B.build
  in
  let iface =
    B.interface_ ~ns:[ "h" ] ~assembly:"h" "IThing"
    |> B.abstract_method "go" [] Ty.Void
    |> B.build
  in
  let derived =
    B.class_ ~ns:[ "h" ] ~assembly:"h" "Derived" ~super:"h.Base"
      ~interfaces:[ "h.IThing" ]
    |> B.field "name" Ty.String
    |> B.method_ "go" [] Ty.Void ~body:E.null
    |> B.build
  in
  List.iter (Registry.register r) [ base; iface; derived ];
  Alcotest.(check int) "super chain" 1
    (List.length (Registry.super_chain r derived));
  Alcotest.(check int) "interfaces" 1
    (List.length (Registry.all_interfaces r derived));
  Alcotest.(check bool) "subtype" true
    (Registry.is_subtype r ~sub:"h.Derived" ~super:"h.Base");
  Alcotest.(check bool) "subtype iface" true
    (Registry.is_subtype r ~sub:"h.Derived" ~super:"h.IThing");
  Alcotest.(check bool) "not subtype" false
    (Registry.is_subtype r ~sub:"h.Base" ~super:"h.Derived");
  (* Inherited fields. *)
  let fields = Registry.all_fields r derived in
  Alcotest.(check int) "all fields" 2 (List.length fields);
  (* Inherited method resolution. *)
  Alcotest.(check bool) "find inherited" true
    (Registry.find_method r derived "go" 0 <> None)

let test_registry_copy_isolated () =
  let r = reg () in
  let snapshot = Registry.copy r in
  let extra =
    B.class_ ~ns:[ "cp" ] ~assembly:"cp" "Extra" |> B.property "x" Ty.Int
    |> B.build
  in
  Registry.register r extra;
  Alcotest.(check bool) "original grew" true (Registry.mem r "cp.Extra");
  Alcotest.(check bool) "snapshot did not" false
    (Registry.mem snapshot "cp.Extra")

let test_missing_dependencies () =
  let r = Registry.create () in
  let cd =
    B.class_ ~ns:[ "m" ] ~assembly:"m" "Holder"
    |> B.field "x" (Ty.Named "m.Missing")
    |> B.build
  in
  Registry.register r cd;
  Alcotest.(check (list string)) "missing" [ "m.Missing" ]
    (Registry.missing_dependencies r cd)

(* ------------------------------- eval ------------------------------ *)

let test_construct_and_accessors () =
  let r = reg () in
  let p = Demo.make_news_person r ~name:"Ada" ~age:36 in
  Alcotest.(check string) "getName" "Ada" (Eval.call r p "getName" [] |> get_string);
  Alcotest.(check int) "getAge" 36 (Eval.call r p "getAge" [] |> get_int);
  ignore (Eval.call r p "setAge" [ Value.Vint 37 ]);
  Alcotest.(check int) "setAge" 37 (Eval.call r p "getAge" [] |> get_int);
  Alcotest.(check string) "greet" "Hello, Ada"
    (Eval.call r p "greet" [] |> get_string);
  Alcotest.(check int) "older" 40
    (Eval.call r p "older" [ Value.Vint 3 ] |> get_int)

let test_field_defaults () =
  let r = reg () in
  let p = Demo.make_news_person r ~name:"N" ~age:1 in
  (* spouse/home initialized to null by default. *)
  Alcotest.(check bool) "spouse null" true
    (Eval.call r p "getSpouse" [] = Value.Vnull)

let test_runtime_errors () =
  let r = reg () in
  let p = Demo.make_news_person r ~name:"N" ~age:1 in
  let expect_error f =
    match f () with
    | _ -> Alcotest.fail "expected Runtime_error"
    | exception Eval.Runtime_error _ -> ()
  in
  expect_error (fun () -> Eval.call r p "noSuchMethod" []);
  expect_error (fun () -> Eval.call r p "getName" [ Value.Vint 1 ]);
  expect_error (fun () -> Eval.construct r "no.Such" []);
  expect_error (fun () -> Eval.construct r Demo.news_person [ Value.Vint 1 ]);
  expect_error (fun () ->
      Eval.eval r ~this:None ~locals:[]
        (E.Binop (E.Div, E.int 1, E.int 0)));
  expect_error (fun () -> Eval.eval r ~this:None ~locals:[] E.This);
  expect_error (fun () ->
      Eval.eval r ~this:None ~locals:[] (E.Field_get (E.null, "x")))

let test_control_flow () =
  let r = Registry.create () in
  (* while-loop sum through assignment. *)
  let body =
    E.Let
      ( "acc",
        E.int 0,
        E.Let
          ( "i",
            E.int 0,
            E.Seq
              [
                E.While
                  ( E.Binop (E.Lt, E.Var "i", E.Var "n"),
                    E.Seq
                      [
                        E.Assign ("acc", E.Binop (E.Add, E.Var "acc", E.Var "i"));
                        E.Assign ("i", E.Binop (E.Add, E.Var "i", E.int 1));
                      ] );
                E.Var "acc";
              ] ) )
  in
  let v = Eval.eval r ~this:None ~locals:[ ("n", Value.Vint 10) ] body in
  Alcotest.(check int) "sum 0..9" 45 (get_int v);
  (* if/else both branches. *)
  let branch b =
    Eval.eval r ~this:None ~locals:[]
      (E.If (E.bool b, E.str "yes", E.str "no"))
  in
  Alcotest.(check string) "then" "yes" (get_string (branch true));
  Alcotest.(check string) "else" "no" (get_string (branch false))

let test_arrays () =
  let r = Registry.create () in
  let v =
    Eval.eval r ~this:None ~locals:[]
      (E.Let
         ( "a",
           E.New_array (Ty.Int, [ E.int 1; E.int 2; E.int 3 ]),
           E.Seq
             [
               E.Index_set (E.Var "a", E.int 1, E.int 20);
               E.Binop
                 ( E.Add,
                   E.Index_get (E.Var "a", E.int 1),
                   E.Array_length (E.Var "a") );
             ] ))
  in
  Alcotest.(check int) "array ops" 23 (get_int v);
  match
    Eval.eval r ~this:None ~locals:[]
      (E.Index_get (E.New_array (Ty.Int, []), E.int 0))
  with
  | _ -> Alcotest.fail "out of bounds should raise"
  | exception Eval.Runtime_error _ -> ()

let test_static_methods () =
  let r = Registry.create () in
  let cd =
    B.class_ ~ns:[ "s" ] ~assembly:"s" "MathUtil"
    |> B.method_
         ~mods:{ Meta.public_mods with Meta.static = true }
         "double" [ ("x", Ty.Int) ] Ty.Int
         ~body:(E.Binop (E.Mul, E.Var "x", E.int 2))
    |> B.build
  in
  Registry.register r cd;
  Alcotest.(check int) "static call" 14
    (Eval.call_static r "s.MathUtil" "double" [ Value.Vint 7 ] |> get_int);
  (* There is no instance method of that name. *)
  match Eval.call_static r "s.MathUtil" "missing" [] with
  | _ -> Alcotest.fail "missing static should raise"
  | exception Eval.Runtime_error _ -> ()

let test_virtual_dispatch () =
  let r = Registry.create () in
  let base =
    B.class_ ~ns:[ "v" ] ~assembly:"v" "Animal"
    |> B.method_ "speak" [] Ty.String ~body:(E.str "...")
    |> B.method_ "describe" [] Ty.String
         ~body:(E.Binop (E.Concat, E.str "says ", E.Call (E.This, "speak", [])))
    |> B.build
  in
  let derived =
    B.class_ ~ns:[ "v" ] ~assembly:"v" "Dog" ~super:"v.Animal"
    |> B.method_ "speak" [] Ty.String ~body:(E.str "woof")
    |> B.build
  in
  Registry.register r base;
  Registry.register r derived;
  let dog = Eval.construct r "v.Dog" [] in
  (* describe is inherited; speak dispatches to the override. *)
  Alcotest.(check string) "virtual dispatch" "says woof"
    (Eval.call r dog "describe" [] |> get_string)

let test_exceptions () =
  let r = Registry.create () in
  (* throw / try-catch round trip inside the interpreter. *)
  let caught =
    Eval.eval r ~this:None ~locals:[]
      (E.Try
         ( E.Seq [ E.Throw (E.str "boom"); E.str "unreachable" ],
           "err",
           E.Binop (E.Concat, E.str "caught: ", E.Var "err") ))
  in
  Alcotest.(check string) "caught user throw" "caught: boom" (get_string caught);
  (* Runtime errors are catchable too, as their message string. *)
  let caught_rt =
    Eval.eval r ~this:None ~locals:[]
      (E.Try (E.Binop (E.Div, E.int 1, E.int 0), "err", E.Var "err"))
  in
  Alcotest.(check string) "caught runtime error" "division by zero"
    (get_string caught_rt);
  (* Uncaught throws surface as Runtime_error at the host boundary. *)
  (match Eval.eval r ~this:None ~locals:[] (E.Throw (E.int 7)) with
  | _ -> Alcotest.fail "uncaught throw should raise"
  | exception Eval.Runtime_error msg ->
      Alcotest.(check bool) "mentions the payload" true
        (Pti_util.Strutil.starts_with ~prefix:"unhandled exception" msg));
  (* Throws cross method boundaries and are caught by outer handlers. *)
  let thrower =
    B.class_ ~ns:[ "x" ] ~assembly:"x" "Thrower"
    |> B.method_ "boom" [] Ty.Void ~body:(E.Throw (E.str "deep"))
    |> B.method_ "safe" [] Ty.String
         ~body:
           (E.Try (E.Call (E.This, "boom", []), "e", E.Var "e"))
    |> B.build
  in
  Registry.register r thrower;
  let t = Eval.construct r "x.Thrower" [] in
  Alcotest.(check string) "cross-call catch" "deep"
    (Eval.call r t "safe" [] |> get_string)

let test_builtin_methods () =
  let r = Registry.create () in
  let call v m args = Eval.call r v m args in
  Alcotest.(check int) "string length" 3
    (call (Value.Vstring "abc") "length" [] |> get_int);
  Alcotest.(check string) "toUpper" "ABC"
    (call (Value.Vstring "abc") "toUpper" [] |> get_string);
  Alcotest.(check string) "int toString" "42"
    (call (Value.Vint 42) "toString" [] |> get_string);
  Alcotest.(check bool) "contains" true
    (call (Value.Vstring "hello world") "contains" [ Value.Vstring "o w" ]
     = Value.Vbool true)

(* ------------------------------- introspect ------------------------ *)

let test_introspection () =
  let r = reg () in
  let cd = Registry.find_exn r Demo.news_person in
  let p = Demo.make_news_person r ~name:"I" ~age:5 in
  (match Introspect.type_of_value r p with
  | Some found ->
      Alcotest.(check string) "type_of_value" Demo.news_person
        (Meta.qualified_name found)
  | None -> Alcotest.fail "type_of_value failed");
  Alcotest.(check bool) "methods nonempty" true (Introspect.methods cd <> []);
  let refs = Introspect.referenced_types cd in
  Alcotest.(check bool) "references address" true
    (List.exists (Pti_util.Strutil.equal_ci "newsw.Address") refs);
  Alcotest.(check bool) "references self (spouse)" true
    (List.exists (Pti_util.Strutil.equal_ci Demo.news_person) refs)

let test_implements () =
  let r = Registry.create () in
  let iface =
    B.interface_ ~ns:[ "i" ] ~assembly:"i" "INamed"
    |> B.abstract_method "getName" [] Ty.String
    |> B.build
  in
  let yes =
    B.class_ ~ns:[ "i" ] ~assembly:"i" "A" |> B.property "name" Ty.String
    |> B.build
  in
  let no = B.class_ ~ns:[ "i" ] ~assembly:"i" "B" |> B.build in
  List.iter (Registry.register r) [ iface; yes; no ];
  Alcotest.(check bool) "implements" true (Introspect.implements r yes iface);
  Alcotest.(check bool) "not implements" false (Introspect.implements r no iface)

(* ------------------------------- assembly -------------------------- *)

let test_assembly () =
  let asm = Demo.news_assembly () in
  Alcotest.(check int) "classes" 3 (List.length asm.Assembly.asm_classes);
  Alcotest.(check bool) "stamped" true
    (List.for_all
       (fun cd -> cd.Meta.td_assembly = "news-asm")
       asm.Assembly.asm_classes);
  Alcotest.(check bool) "find_class" true
    (Assembly.find_class asm Demo.news_person <> None);
  Alcotest.(check bool) "self-contained" true
    (Assembly.external_dependencies asm = []);
  Alcotest.(check bool) "size positive" true (Assembly.size_bytes asm > 0)

let test_assembly_size_dwarfs_tdesc () =
  (* The economics of the optimistic protocol: code on the wire is much
     heavier than a description on the wire. *)
  let asm = Demo.news_assembly () in
  let r = Demo.fresh_registry [ asm ] in
  let cd = Registry.find_exn r Demo.news_person in
  let d = Pti_typedesc.Type_description.of_class cd in
  let asm_wire = String.length (Pti_serial.Assembly_xml.to_string asm) in
  Alcotest.(check bool) "asm >> tdesc" true
    (asm_wire > 2 * Pti_typedesc.Type_description.size_bytes d)

let () =
  Alcotest.run "cts"
    [
      ( "ty",
        [
          Alcotest.test_case "to/of string" `Quick test_ty_strings;
          Alcotest.test_case "named ci equality" `Quick
            test_ty_case_insensitive_named;
          Alcotest.test_case "malformed" `Quick test_ty_of_string_empty;
        ] );
      ( "meta",
        [
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "qualified name" `Quick test_qualified_name;
          Alcotest.test_case "strip bodies" `Quick test_strip_bodies;
        ] );
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "duplicates" `Quick test_registry_duplicate;
          Alcotest.test_case "a GUID keeps its definition" `Quick
            test_registry_guid_keeps_definition;
          Alcotest.test_case "hierarchy" `Quick test_registry_hierarchy;
          Alcotest.test_case "missing deps" `Quick test_missing_dependencies;
          Alcotest.test_case "copy isolation" `Quick
            test_registry_copy_isolated;
        ] );
      ( "eval",
        [
          Alcotest.test_case "construct+accessors" `Quick
            test_construct_and_accessors;
          Alcotest.test_case "field defaults" `Quick test_field_defaults;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "static methods" `Quick test_static_methods;
          Alcotest.test_case "virtual dispatch" `Quick test_virtual_dispatch;
          Alcotest.test_case "builtins" `Quick test_builtin_methods;
          Alcotest.test_case "exceptions" `Quick test_exceptions;
        ] );
      ( "introspect",
        [
          Alcotest.test_case "basics" `Quick test_introspection;
          Alcotest.test_case "implements" `Quick test_implements;
        ] );
      ( "assembly",
        [
          Alcotest.test_case "bundle" `Quick test_assembly;
          Alcotest.test_case "asm size >> tdesc size" `Quick
            test_assembly_size_dwarfs_tdesc;
        ] );
    ]
