(* The live schema-evolution battery (E15): the versioned,
   content-addressed store (CAS publish, pins, chains), conformance of
   additive revisions, version-aware verdict invalidation, and an
   upgrade under traffic on a live pair of peers. *)

open Pti_cts
module B = Builder
module E = Expr
module Repository = Pti_core.Repository
module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Checker = Pti_conformance.Checker
module Td = Pti_typedesc.Type_description
module Workload = Pti_demo.Workload
module Demo = Pti_demo.Demo_types
module Cluster = Pti_cluster.Cluster
module Node = Pti_cluster.Node

let fam v = Workload.family_v ~version:v ~index:0 ~flavor:Workload.Conformant
let fam_name = (fam 1).Assembly.asm_name

let ok_exn = function
  | Ok ve -> ve
  | Error (Repository.Conflict _) -> Alcotest.fail "unexpected CAS conflict"

(* ------------------------- the store itself ------------------------- *)

let test_cas_chain_and_pins () =
  let r = Repository.create () in
  let pub ?expect v =
    Repository.publish_cas r ~host:"h" ~expect (fam v)
  in
  let ve1 = ok_exn (pub 1) in
  Alcotest.(check int) "first publish is v1" 1 ve1.Repository.ve_version;
  let ve2 = ok_exn (pub ~expect:ve1.Repository.ve_digest 2) in
  Alcotest.(check int) "CAS append is v2" 2 ve2.Repository.ve_version;
  (* A stale expect must lose, and report the real head. *)
  (match pub 3 with
  | Ok _ -> Alcotest.fail "stale CAS (expect=None) must conflict"
  | Error (Repository.Conflict { expected; head }) ->
      Alcotest.(check (option string)) "conflict echoes the stale expect"
        None expected;
      Alcotest.(check (option string)) "conflict reports the true head"
        (Some ve2.Repository.ve_digest) head);
  (* Republishing bytes already on the chain is idempotent. *)
  let again = ok_exn (pub 2) in
  Alcotest.(check string) "idempotent republish returns the entry"
    ve2.Repository.ve_digest again.Repository.ve_digest;
  Alcotest.(check int) "chain still has two entries" 2
    (List.length (Repository.chain r fam_name));
  (* Pinned resolution: latest, by version, by content digest. *)
  let dig pin =
    match Repository.resolve r ?pin fam_name with
    | Some ve -> ve.Repository.ve_digest
    | None -> Alcotest.fail "resolve came back empty"
  in
  Alcotest.(check string) "Latest is the head" ve2.Repository.ve_digest
    (dig None);
  Alcotest.(check string) "Version 1 pin" ve1.Repository.ve_digest
    (dig (Some (Repository.Version 1)));
  Alcotest.(check string) "Digest pin" ve1.Repository.ve_digest
    (dig (Some (Repository.Digest ve1.Repository.ve_digest)));
  (* The unversioned name serves the head; the versioned path still
     serves the old bytes (a mirror can serve what a receiver pinned). *)
  (match Repository.find_by_name r fam_name with
  | Some (_, asm) ->
      Alcotest.(check int) "find_by_name serves the head" 2
        asm.Assembly.asm_version
  | None -> Alcotest.fail "find_by_name lost the assembly");
  let v1_path =
    Repository.path_for_version ~host:"h" ~assembly:fam_name ~version:1
  in
  (match Repository.find r ~path:v1_path with
  | Some asm ->
      Alcotest.(check int) "versioned path serves the pinned bytes" 1
        asm.Assembly.asm_version
  | None -> Alcotest.fail "versioned path not served");
  match Repository.parse_versioned_path v1_path with
  | Some (host, name, Some v) ->
      Alcotest.(check string) "versioned path host" "h" host;
      Alcotest.(check string) "versioned path name" fam_name name;
      Alcotest.(check int) "versioned path version" 1 v
  | _ -> Alcotest.fail "versioned path did not parse"

(* A publish renders the assembly a constant number of times, whatever
   the chain's length: onto 16 entries, of a new revision or of bytes
   already there, it allocates at most three times a publish onto an
   empty chain (family 7's revisions). *)
let test_publish_cost_constant () =
  let fam7 v = Workload.family_v ~version:v ~index:7 ~flavor:Workload.Conformant in
  let chain_of k =
    let r = Repository.create () in
    let head = ref None in
    for v = 1 to k do
      head :=
        Some (ok_exn (Repository.publish_cas r ~host:"h" ~expect:!head (fam7 v)))
          .Repository.ve_digest
    done;
    (r, !head)
  in
  let words k asm =
    let r, head = chain_of k in
    let before = Gc.minor_words () in
    ignore (ok_exn (Repository.publish_cas r ~host:"h" ~expect:head asm));
    Gc.minor_words () -. before
  in
  let empty = words 0 (fam7 1) in
  let check what w =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f words, onto an empty chain %.0f" what w empty)
      true
      (w <= 3. *. empty)
  in
  check "a new revision onto 16 entries" (words 16 (fam7 17));
  check "a republish onto 16 entries" (words 16 (fam7 16))

let test_subscribers_see_every_extension () =
  let r = Repository.create () in
  let log = ref [] in
  Repository.subscribe r (fun ~name ~version ~digest:_ ->
      log := (name, version) :: !log);
  let ve1 = ok_exn (Repository.publish_cas r ~host:"h" ~expect:None (fam 1)) in
  let _ve2 =
    ok_exn
      (Repository.publish_cas r ~host:"h"
         ~expect:(Some ve1.Repository.ve_digest) (fam 2))
  in
  (* A mirror merge of an already-known entry is not an extension. *)
  let fresh =
    Repository.learn_version r ~version:1
      ~path:(Repository.path_for_version ~host:"m" ~assembly:fam_name ~version:1)
      (fam 1)
  in
  Alcotest.(check bool) "duplicate merge is not fresh" false fresh;
  let fresh3 =
    Repository.learn_version r ~version:3
      ~path:(Repository.path_for_version ~host:"m" ~assembly:fam_name ~version:3)
      (fam 3)
  in
  Alcotest.(check bool) "new merge is fresh" true fresh3;
  Alcotest.(check (list (pair string int)))
    "one notification per genuine extension, in order"
    [ (fam_name, 1); (fam_name, 2); (fam_name, 3) ]
    (List.rev !log)

(* --------------------- conformance of revisions --------------------- *)

let check_against ~interest_reg ~interest version =
  let reg = Registry.create () in
  Assembly.load reg (fam version);
  let resolver name =
    match Registry.find reg name with
    | Some cd -> Some (Td.of_class cd)
    | None ->
        Option.map Td.of_class (Registry.find interest_reg name)
  in
  let ch = Checker.create ~resolver () in
  let d n =
    match resolver n with
    | Some d -> d
    | None -> Alcotest.failf "unresolvable %s" n
  in
  let pname = Workload.person_name ~index:0 ~flavor:Workload.Conformant in
  Checker.check ch ~actual:(d pname) ~interest:(d interest)

(* The design theorem behind the wnews interest: an interest that demands
   a self-referential field (newsw.Person.spouse : newsw.Person) puts the
   sender's type inside its own invariant closure — rule ii then requires
   full mutual equivalence, so NO additive revision can ever conform
   again. The workload interest leaves [spouse] out, and the same v2
   revision conforms. The checker answers both questions correctly. *)
let test_additive_revision_conformance_matrix () =
  let wnews_reg = Registry.create () in
  Assembly.load wnews_reg (Workload.interest_assembly ());
  let newsw_reg = Registry.create () in
  Assembly.load newsw_reg (Demo.news_assembly ());
  let is_ok = function Checker.Conformant _ -> true | _ -> false in
  let vs_wnews v =
    check_against ~interest_reg:wnews_reg ~interest:Workload.interest_person v
  in
  let vs_newsw v =
    check_against ~interest_reg:newsw_reg ~interest:Demo.news_person v
  in
  Alcotest.(check bool) "v1 conforms to the workload interest" true
    (is_ok (vs_wnews 1));
  Alcotest.(check bool) "v2 still conforms: additive evolution is safe" true
    (is_ok (vs_wnews 2));
  Alcotest.(check bool) "v1 conforms to the recursive interest" true
    (is_ok (vs_newsw 1));
  match vs_newsw 2 with
  | Checker.Conformant _ ->
      Alcotest.fail
        "v2 must NOT conform to a self-referential interest (rule ii \
         freezes types in their own invariant closure)"
  | Checker.Not_conformant failures ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "the failure is the invariant spouse field" true
        (List.exists (fun f -> contains f.Checker.message "spouse") failures)

(* ----------------- version-aware verdict invalidation ---------------- *)

(* Two mirror item worlds: the holders reference them under different
   names, so the invariance check must resolve both — which is what
   records the name dependencies the invalidation is keyed on (equal
   names short-circuit without resolving). *)
let item_class ~ns ~version =
  let c =
    B.class_ ~ns:[ ns ] ~assembly:(ns ^ "-asm")
      ?guid:
        (if version <= 1 then None
         else
           Some
             (Pti_util.Guid.of_name
                (Printf.sprintf "%s-asm#v%d!Item" ns version)))
      "Item"
    |> B.ctor ~body:(E.set "tag" (E.Var "t")) [ ("t", Ty.String) ]
    |> B.property "tag" Ty.String
  in
  let c = if version <= 1 then c else c |> B.property "note" Ty.String in
  B.build c

let holder_class ~ns ~item name =
  B.class_ ~ns:[ ns ] ~assembly:(ns ^ "-asm") name
  |> B.ctor ~body:(E.Seq []) []
  |> B.field "it" (Ty.Named item)
  |> B.getter "getIt" ~field:"it" (Ty.Named item)
  |> B.setter "setIt" ~field:"it" (Ty.Named item)
  |> B.build

let test_v2_publish_keeps_unrelated_verdicts () =
  (* A mutable world the resolver reads through: publishing v2 swaps the
     binding for evo.Item, exactly like a repository upgrade would. *)
  let version = ref 1 in
  let classes () =
    let reg = Registry.create () in
    Assembly.load reg
      (Assembly.make ~name:"evoa-asm" [ item_class ~ns:"evoa" ~version:!version ]);
    Assembly.load reg
      (Assembly.make ~name:"evob-asm" [ item_class ~ns:"evob" ~version:!version ]);
    Assembly.load reg
      (Assembly.make ~name:"a-asm"
         [ holder_class ~ns:"aw" ~item:"evoa.Item" "Holder" ]);
    Assembly.load reg
      (Assembly.make ~name:"b-asm"
         [ holder_class ~ns:"bw" ~item:"evob.Item" "Holder" ]);
    reg
  in
  let resolver name = Option.map Td.of_class (Registry.find (classes ()) name) in
  let ch = Checker.create ~resolver () in
  let d n = Option.get (resolver n) in
  let check_holders () =
    Checker.check ch ~actual:(d "aw.Holder") ~interest:(d "bw.Holder")
  in
  (match check_holders () with
  | Checker.Conformant _ -> ()
  | Checker.Not_conformant _ -> Alcotest.fail "holders must conform at v1");
  let computes_after_first = (Checker.stats ch).Checker.top_computes in
  (* Re-announcing the SAME bytes (same witness GUID) must not drop the
     verdict: it is a statement about exactly those bytes. *)
  let v1_guid = (d "evoa.Item").Td.ty_guid in
  let dropped = Checker.note_new_type ~witness:v1_guid ch "evoa.Item" in
  Alcotest.(check int) "same-witness announcement drops nothing" 0 dropped;
  ignore (check_holders ());
  Alcotest.(check int) "verdict answered from cache" computes_after_first
    (Checker.stats ch).Checker.top_computes;
  (* Publish v2: different bytes, different GUID. The verdict resolved
     evo.Item at v1, so it is stale and must be dropped... *)
  version := 2;
  let v2_guid = (d "evoa.Item").Td.ty_guid in
  let dropped = Checker.note_new_type ~witness:v2_guid ch "evoa.Item" in
  Alcotest.(check bool) "v2 announcement drops the dependent verdict" true
    (dropped >= 1);
  (* ... and the recomputation sees v2 and still conforms (the revision
     is additive and the field stays invariant on the same name). *)
  (match check_holders () with
  | Checker.Conformant _ -> ()
  | Checker.Not_conformant _ ->
      Alcotest.fail "holders must still conform after the upgrade");
  Alcotest.(check int) "recomputed, not served stale"
    (computes_after_first + 1)
    (Checker.stats ch).Checker.top_computes

(* --------------------- upgrade under live traffic -------------------- *)

let test_upgrade_under_traffic () =
  let net = Net.create ~seed:7L () in
  let alice = Peer.create ~net "alice" in
  let bob = Peer.create ~net "bob" in
  Peer.install_assembly bob (Workload.interest_assembly ());
  let got = ref [] in
  Peer.register_interest bob ~interest:Workload.interest_person
    (fun ~from:_ v -> got := v :: !got);
  let ve1 = ok_exn (Peer.publish_assembly_cas alice (fam 1)) in
  let send name age =
    let v =
      Workload.make_person (Peer.registry alice) ~index:0
        ~flavor:Workload.Conformant ~name ~age
    in
    Peer.send_value alice ~dst:"bob" v;
    Net.run net
  in
  send "old" 30;
  let ve2 =
    ok_exn
      (Peer.publish_assembly_cas ~expect:ve1.Repository.ve_digest alice (fam 2))
  in
  Alcotest.(check int) "upgrade lands as v2" 2 ve2.Repository.ve_version;
  send "new" 31;
  let rejected =
    List.exists
      (function Peer.Rejected _ -> true | _ -> false)
      (Peer.events bob)
  in
  Alcotest.(check bool) "no delivery was rejected across the upgrade" false
    rejected;
  let rec obj_of = function
    | Value.Vobj o -> Some o
    | Value.Vproxy p -> obj_of p.Value.px_target
    | _ -> None
  in
  let email_of v =
    match obj_of v with
    | None -> Alcotest.fail "delivery is not an object"
    | Some o -> Value.get_field o "email"
  in
  match List.rev !got with
  | [ old_v; new_v ] ->
      Alcotest.(check bool) "pre-upgrade delivery decodes at v1 (no email)"
        true
        (email_of old_v = None);
      (match email_of new_v with
      | Some (Value.Vstring s) ->
          Alcotest.(check string) "post-upgrade delivery carries the v2 field"
            "new@v2" s
      | _ -> Alcotest.fail "post-upgrade delivery lost the v2 field")
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

(* ------------------------------ QCheck ------------------------------ *)

(* CAS linearizes: publishers with possibly-stale views of the head race
   over one chain; whatever the interleaving, every success lands at a
   unique consecutive version, no success is ever lost, and every
   conflict reports the digest that really was at the head. *)
let prop_cas_linearizes =
  QCheck.Test.make ~name:"CAS publish linearizes (no lost updates)"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 16) (int_bound 2))
    (fun schedule ->
      let r = Repository.create () in
      let believed = Array.make 3 None in
      let content = ref 0 in
      let oks = ref [] in
      let sound = ref true in
      List.iter
        (fun p ->
          incr content;
          let asm = fam !content in
          let head_before =
            Option.map
              (fun ve -> ve.Repository.ve_digest)
              (Repository.resolve r fam_name)
          in
          match Repository.publish_cas r ~host:"h" ~expect:believed.(p) asm with
          | Ok ve ->
              if believed.(p) <> head_before then sound := false;
              oks := ve :: !oks;
              believed.(p) <- Some ve.Repository.ve_digest
          | Error (Repository.Conflict { head; _ }) ->
              if head <> head_before then sound := false;
              believed.(p) <- head)
        schedule;
      let chain = Repository.chain r fam_name in
      let versions = List.map (fun ve -> ve.Repository.ve_version) chain in
      let digests = List.map (fun ve -> ve.Repository.ve_digest) chain in
      !sound
      && List.length chain = List.length !oks
      && versions = List.init (List.length chain) (fun i -> i + 1)
      && List.length (List.sort_uniq compare digests) = List.length digests
      && List.for_all
           (fun ve -> List.mem ve.Repository.ve_digest digests)
           !oks)

(* Content addressing: the digest is a function of the canonical bytes —
   equal parameters give equal digests, distinct revisions/families give
   distinct ones. *)
let prop_digest_content_addressed =
  let params =
    QCheck.(
      triple (int_range 1 3) (int_range 0 7)
        (int_bound 4
        |> map (function
             | 0 -> Workload.Conformant
             | 1 -> Workload.Trap_missing
             | 2 -> Workload.Trap_arity
             | 3 -> Workload.Trap_fieldtype
             | _ -> Workload.Typo 1)))
  in
  QCheck.Test.make ~name:"digest is content-addressed (injective on params)"
    ~count:200
    QCheck.(pair params params)
    (fun ((v1, i1, f1), (v2, i2, f2)) ->
      let a = Workload.family_v ~version:v1 ~index:i1 ~flavor:f1 in
      let b = Workload.family_v ~version:v2 ~index:i2 ~flavor:f2 in
      let same_params = v1 = v2 && i1 = i2 && f1 = f2 in
      same_params = (Repository.digest_of a = Repository.digest_of b))

(* Pinned resolution is stable across gossip convergence: however many
   rounds it takes the chain to spread, a mirror answers a version pin
   with exactly the origin's digest for that version. *)
let prop_pins_stable_across_gossip =
  QCheck.Test.make ~name:"resolve(pin) stable across gossip convergence"
    ~count:25
    QCheck.(pair (int_range 1 3) (int_range 3 8))
    (fun (depth, rounds) ->
      let net = Net.create ~seed:11L () in
      let addrs = [ "n0"; "n1"; "n2" ] in
      let c = Cluster.create ~seed:5L ~transport:(Transport.of_net net) addrs in
      let origin = Cluster.node c "n0" in
      let entries =
        List.init depth (fun i ->
            let expect =
              Option.map
                (fun ve -> ve.Repository.ve_digest)
                (Repository.resolve (Peer.repository (Cluster.peer c "n0"))
                   fam_name)
            in
            match Node.publish_cas ?expect origin (fam (i + 1)) with
            | Ok ve -> ve
            | Error _ -> QCheck.Test.fail_report "sequential CAS conflicted")
      in
      Cluster.run_rounds c rounds;
      List.for_all
        (fun a ->
          let repo = Peer.repository (Cluster.peer c a) in
          List.for_all
            (fun ve ->
              match
                Repository.resolve repo
                  ~pin:(Repository.Version ve.Repository.ve_version) fam_name
              with
              | Some got ->
                  String.equal got.Repository.ve_digest ve.Repository.ve_digest
              | None -> false)
            entries
          &&
          match Repository.resolve repo fam_name with
          | Some head -> head.Repository.ve_version = depth
          | None -> false)
        addrs)

let () =
  Alcotest.run "evolution"
    [
      ( "store",
        [
          Alcotest.test_case "CAS chain and pins" `Quick
            test_cas_chain_and_pins;
          Alcotest.test_case "subscribers see every extension" `Quick
            test_subscribers_see_every_extension;
          Alcotest.test_case "publish cost is constant" `Quick
            test_publish_cost_constant;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "additive revision conformance matrix" `Quick
            test_additive_revision_conformance_matrix;
          Alcotest.test_case "v2 publish keeps unrelated verdicts" `Quick
            test_v2_publish_keeps_unrelated_verdicts;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "upgrade under live traffic" `Quick
            test_upgrade_under_traffic;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_cas_linearizes;
          QCheck_alcotest.to_alcotest prop_digest_content_addressed;
          QCheck_alcotest.to_alcotest prop_pins_stable_across_gossip;
        ] );
    ]
