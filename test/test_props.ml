(* Cross-cutting property and fuzz tests: parsers never crash on junk,
   conformance is deterministic and complete, the protocol conserves
   objects, whole-system determinism. *)

open Pti_cts
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Mapping = Pti_conformance.Mapping
module Xml = Pti_xml.Xml
module Bin = Pti_serial.Bin_ser
module Soap = Pti_serial.Soap_ser
module Env = Pti_serial.Envelope
module Idl = Pti_idl.Idl
module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Stats = Pti_net.Stats
module Demo = Pti_demo.Demo_types
module Workload = Pti_demo.Workload

(* ----------------------------- fuzzing ----------------------------- *)

let junk_gen = QCheck.string_of_size (QCheck.Gen.int_bound 200)

let prop_xml_parser_total =
  QCheck.Test.make ~name:"xml parser never raises on junk" ~count:500 junk_gen
    (fun s ->
      match Xml.parse s with Ok _ -> true | Error _ -> true)

let prop_xml_parser_on_mutated_document =
  (* Take a real document, flip one byte: must still return, and parse
     failures must carry a position within the input. *)
  let doc =
    Td.to_xml_string
      (Td.of_class
         (Registry.find_exn
            (Demo.fresh_registry [ Demo.news_assembly () ])
            Demo.news_person))
  in
  QCheck.Test.make ~name:"xml parser total on mutated documents" ~count:300
    QCheck.(pair (int_bound (String.length doc - 1)) (int_bound 255))
    (fun (pos, byte) ->
      let b = Bytes.of_string doc in
      Bytes.set b pos (Char.chr byte);
      match Xml.parse (Bytes.to_string b) with
      | Ok _ -> true
      | Error e -> e.Xml.position >= 0 && e.Xml.position <= String.length doc)

let prop_bin_decoder_total =
  let reg = Demo.fresh_registry [ Demo.news_assembly () ] in
  QCheck.Test.make ~name:"binary decoder never raises on junk" ~count:500
    junk_gen
    (fun s ->
      match Bin.decode reg ("PTIB\x02" ^ s) with
      | Ok _ | Error _ -> true)

let prop_tdesc_decoder_total =
  QCheck.Test.make ~name:"type-description decoder total on junk" ~count:300
    junk_gen
    (fun s -> match Td.of_xml_string s with Ok _ | Error _ -> true)

let prop_idl_parser_total =
  QCheck.Test.make ~name:"idl parser never raises on junk" ~count:500 junk_gen
    (fun s -> match Idl.parse_classes s with Ok _ | Error _ -> true)

let prop_idl_parser_total_on_mutations =
  let src =
    "assembly \"a\";\nnamespace n;\nclass Person { field name : string; \
     method getName() : string { return name; } }"
  in
  QCheck.Test.make ~name:"idl parser total on mutated source" ~count:300
    QCheck.(pair (int_bound (String.length src - 1)) printable_char)
    (fun (pos, c) ->
      let b = Bytes.of_string src in
      Bytes.set b pos c;
      match Idl.parse_classes (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

(* ----------------------- conformance properties -------------------- *)

let population_registry =
  let reg = Registry.create () in
  Assembly.load reg (Demo.news_assembly ());
  for i = 0 to 9 do
    Assembly.load reg (Workload.family ~index:i ~flavor:Workload.Conformant)
  done;
  reg

let pop_resolver = Td.registry_resolver population_registry

let prop_conformant_families_conform =
  QCheck.Test.make ~name:"every conformant family conforms to the interest"
    ~count:10
    QCheck.(int_bound 9)
    (fun i ->
      let checker = Checker.create ~resolver:pop_resolver () in
      let actual =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:i ~flavor:Workload.Conformant))
      in
      let interest = Option.get (pop_resolver Demo.news_person) in
      Checker.verdict_ok (Checker.check checker ~actual ~interest))

let prop_conformance_deterministic =
  QCheck.Test.make ~name:"conformance verdict independent of checker instance"
    ~count:20
    QCheck.(pair (int_bound 9) (int_bound 9))
    (fun (i, j) ->
      let actual =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:i ~flavor:Workload.Conformant))
      in
      let interest =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:j ~flavor:Workload.Conformant))
      in
      let v1 =
        Checker.verdict_ok
          (Checker.check (Checker.create ~resolver:pop_resolver ()) ~actual
             ~interest)
      in
      let v2 =
        Checker.verdict_ok
          (Checker.check (Checker.create ~resolver:pop_resolver ()) ~actual
             ~interest)
      in
      v1 = v2)

let prop_family_pairs_transitive_instance =
  (* family_i <= news.Person and news.Person <= family_j, so family_i <=
     family_j must hold too (sampled transitivity of the relation on this
     population). *)
  QCheck.Test.make ~name:"transitivity instances across the population"
    ~count:25
    QCheck.(pair (int_bound 9) (int_bound 9))
    (fun (i, j) ->
      let checker = Checker.create ~resolver:pop_resolver () in
      let d k =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:k ~flavor:Workload.Conformant))
      in
      let news = Option.get (pop_resolver Demo.news_person) in
      let ( <= ) a b = Checker.verdict_ok (Checker.check checker ~actual:a ~interest:b) in
      (* Premises hold by construction; the conclusion must. *)
      if d i <= news && news <= d j then d i <= d j else QCheck.assume_fail ())

let prop_mapping_complete =
  QCheck.Test.make ~name:"conformant mapping covers every interest method"
    ~count:10
    QCheck.(int_bound 9)
    (fun i ->
      let checker = Checker.create ~resolver:pop_resolver () in
      let actual =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:i ~flavor:Workload.Conformant))
      in
      let interest = Option.get (pop_resolver Demo.news_person) in
      match Checker.check checker ~actual ~interest with
      | Checker.Not_conformant _ -> false
      | Checker.Conformant m ->
          m.Mapping.identity
          || List.for_all
               (fun (md : Td.method_desc) ->
                 Mapping.find m ~name:md.Td.md_name
                   ~arity:(Td.method_arity md)
                 <> None)
               interest.Td.ty_methods)

let prop_permutations_are_bijections =
  QCheck.Test.make ~name:"every mapping permutation is a bijection" ~count:10
    QCheck.(int_bound 9)
    (fun i ->
      let checker = Checker.create ~resolver:pop_resolver () in
      let actual =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:i ~flavor:Workload.Conformant))
      in
      let interest = Option.get (pop_resolver Demo.news_person) in
      match Checker.check checker ~actual ~interest with
      | Checker.Not_conformant _ -> false
      | Checker.Conformant m ->
          List.for_all
            (fun mm ->
              let p = mm.Mapping.mm_perm in
              let n = Array.length p in
              let seen = Array.make n false in
              Array.for_all
                (fun i ->
                  i >= 0 && i < n
                  &&
                  if seen.(i) then false
                  else begin
                    seen.(i) <- true;
                    true
                  end)
                p)
            m.Mapping.methods)

(* ------------------------- protocol properties --------------------- *)

let run_protocol ~objects ~distinct ~nonconf ~seed =
  let net = Net.create ~seed () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  let flavors =
    Array.init distinct (fun i ->
        if i < nonconf then Workload.Trap_missing else Workload.Conformant)
  in
  Array.iteri
    (fun i flavor ->
      Peer.publish_assembly sender (Workload.family ~index:i ~flavor))
    flavors;
  for n = 0 to objects - 1 do
    let index = n mod distinct in
    let v =
      Workload.make_person (Peer.registry sender) ~index
        ~flavor:flavors.(index)
        ~name:(Printf.sprintf "p%d" n) ~age:n
    in
    Peer.send_value sender ~dst:"receiver" v;
    Net.run net
  done;
  let delivered, rejected, failed =
    List.fold_left
      (fun (d, r, f) ev ->
        match ev with
        | Peer.Delivered _ -> (d + 1, r, f)
        | Peer.Rejected _ -> (d, r + 1, f)
        | Peer.Decode_failed _ | Peer.Load_failed _
        | Peer.Corrupt_rejected _ -> (d, r, f + 1))
      (0, 0, 0) (Peer.events receiver)
  in
  (delivered, rejected, failed, Stats.total_bytes (Net.stats net))

let protocol_params =
  QCheck.make
    QCheck.Gen.(
      let* distinct = int_range 1 8 in
      let* nonconf = int_bound distinct in
      let* objects = int_range 1 25 in
      return (objects, distinct, nonconf))

let prop_protocol_conserves_objects =
  QCheck.Test.make ~name:"delivered + rejected = objects sent" ~count:25
    protocol_params
    (fun (objects, distinct, nonconf) ->
      let delivered, rejected, failed, _ =
        run_protocol ~objects ~distinct ~nonconf ~seed:3L
      in
      failed = 0 && delivered + rejected = objects)

let prop_protocol_deterministic =
  QCheck.Test.make ~name:"identical runs transfer identical bytes" ~count:10
    protocol_params
    (fun (objects, distinct, nonconf) ->
      let r1 = run_protocol ~objects ~distinct ~nonconf ~seed:11L in
      let r2 = run_protocol ~objects ~distinct ~nonconf ~seed:11L in
      r1 = r2)

let prop_protocol_delivery_counts_match_conformance =
  QCheck.Test.make ~name:"exactly the conformant objects are delivered"
    ~count:20 protocol_params
    (fun (objects, distinct, nonconf) ->
      let delivered, rejected, _, _ =
        run_protocol ~objects ~distinct ~nonconf ~seed:7L
      in
      let expected_rejected =
        (* objects whose index mod distinct < nonconf *)
        let count = ref 0 in
        for n = 0 to objects - 1 do
          if n mod distinct < nonconf then incr count
        done;
        !count
      in
      rejected = expected_rejected && delivered = objects - expected_rejected)

(* --------------------------- envelope walk ------------------------- *)

(* The distinct classes of a value graph in first-visit order, as a
   walk separate from either codec once listed them for the envelope. *)
let graph_classes v =
  let seen_obj = Hashtbl.create 16 in
  let found = ref [] in
  let rec go v =
    match v with
    | Value.Vnull | Value.Vbool _ | Value.Vint _ | Value.Vfloat _
    | Value.Vstring _ | Value.Vchar _ ->
        ()
    | Value.Vproxy p -> go p.Value.px_target
    | Value.Varr a -> Array.iter go a.Value.items
    | Value.Vobj o ->
        if not (Hashtbl.mem seen_obj o.Value.oid) then begin
          Hashtbl.add seen_obj o.Value.oid ();
          if not (List.exists (Pti_util.Strutil.equal_ci o.Value.cls) !found)
          then found := o.Value.cls :: !found;
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) o.Value.fields []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> List.iter (fun (_, v) -> go v)
        end
  in
  go v;
  List.rev !found

let walk_registry =
  let r = Registry.create () in
  List.iter
    (fun n ->
      Registry.register r (Builder.class_ ~ns:[ "walk" ] n |> Builder.build))
    [ "Alpha"; "Beta"; "Gamma" ];
  r

(* A random graph over up to six objects: shared references, cycles,
   proxies (possibly of proxies), arrays of objects, and each class
   spelled in three cases. Field names are not in insertion order. *)
let random_graph seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let spellings =
    [|
      [| "walk.Alpha"; "WALK.ALPHA"; "walk.alpha" |];
      [| "walk.Beta"; "Walk.BETA"; "walk.beta" |];
      [| "walk.Gamma"; "walk.GAMMA"; "wALK.gamma" |];
    |]
  in
  let n = 1 + int 6 in
  let objs =
    Array.init n (fun _ ->
        { Value.oid = Value.fresh_oid (); cls = spellings.(int 3).(int 3);
          fields = Hashtbl.create 4 })
  in
  let obj () = Value.Vobj objs.(int n) in
  let rec proxy depth =
    Value.Vproxy
      { Value.px_interface = "walk.I";
        px_target =
          (if depth > 0 && int 2 = 0 then proxy (depth - 1) else obj ());
        px_invoke = (fun _ _ -> Value.Vnull) }
  in
  let objects () =
    Value.Varr
      { Value.elem_ty = Ty.Named "object";
        items =
          Array.init (int 4) (fun _ -> if int 4 = 0 then proxy 1 else obj ()) }
  in
  let value () =
    match int 6 with
    | 0 -> Value.Vint (int 100)
    | 1 -> Value.Vnull
    | 2 | 3 -> obj ()
    | 4 -> proxy 2
    | _ -> objects ()
  in
  Array.iter
    (fun o ->
      for _ = 1 to int 5 do
        let name = [| "zeta"; "b"; "a10"; "a2"; "m" |].(int 5) in
        Hashtbl.replace o.Value.fields name (value ())
      done)
    objs;
  match int 4 with
  | 0 -> objects ()
  | 1 -> proxy 2
  | _ -> Value.Vobj objs.(0)

let prop_envelope_lists_walk_classes =
  QCheck.Test.make ~name:"envelope lists the payload walk's classes" ~count:300
    QCheck.int
    (fun seed ->
      let v = random_graph seed in
      let reference = graph_classes v in
      let expected =
        match
          List.map
            (fun c -> Meta.qualified_name (Registry.find_exn walk_registry c))
            reference
        with
        | root :: rest -> root :: List.sort String.compare rest
        | [] -> []
      in
      let entries codec =
        let env =
          Env.make walk_registry ~codec
            ~download_path:(fun ~assembly -> assembly)
            v
        in
        List.map (fun e -> e.Env.te_name) env.Env.env_types
      in
      snd (Bin.encode v) = reference
      && snd (Soap.encode_xml v) = reference
      && entries Env.Binary = expected
      && entries Env.Soap = expected)

let () =
  Alcotest.run "properties"
    [
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_xml_parser_total;
          QCheck_alcotest.to_alcotest prop_xml_parser_on_mutated_document;
          QCheck_alcotest.to_alcotest prop_bin_decoder_total;
          QCheck_alcotest.to_alcotest prop_tdesc_decoder_total;
          QCheck_alcotest.to_alcotest prop_idl_parser_total;
          QCheck_alcotest.to_alcotest prop_idl_parser_total_on_mutations;
        ] );
      ( "envelope",
        [ QCheck_alcotest.to_alcotest prop_envelope_lists_walk_classes ] );
      ( "conformance",
        [
          QCheck_alcotest.to_alcotest prop_conformant_families_conform;
          QCheck_alcotest.to_alcotest prop_conformance_deterministic;
          QCheck_alcotest.to_alcotest prop_family_pairs_transitive_instance;
          QCheck_alcotest.to_alcotest prop_mapping_complete;
          QCheck_alcotest.to_alcotest prop_permutations_are_bijections;
        ] );
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_protocol_conserves_objects;
          QCheck_alcotest.to_alcotest prop_protocol_deterministic;
          QCheck_alcotest.to_alcotest
            prop_protocol_delivery_counts_match_conformance;
        ] );
    ]
