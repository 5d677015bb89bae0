(* Tests of the pti_cluster subsystem: membership, anti-entropy gossip,
   replicated repositories and mirror failover — plus the repository
   determinism and peer-knob satellites that back them. *)

open Pti_cts
module Peer = Pti_core.Peer
module Message = Pti_core.Message
module Repository = Pti_core.Repository
module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Sim = Pti_net.Sim
module Stats = Pti_net.Stats
module Metrics = Pti_obs.Metrics
module Proxy = Pti_proxy.Dynamic_proxy
module Demo = Pti_demo.Demo_types
module Cluster = Pti_cluster.Cluster
module Node = Pti_cluster.Node
module Digest = Pti_cluster.Digest

let social_asm = "social-asm"

let make_net () = Net.create ~seed:7L ()

let get_string = function
  | Value.Vstring s -> s
  | v -> Alcotest.failf "expected a string, got %s" (Value.type_name v)

(* ---------------------------------------------------------------- *)
(* Digest codec                                                       *)
(* ---------------------------------------------------------------- *)

let test_digest_roundtrip () =
  let m =
    {
      Digest.g_token = 42;
      g_types = [ ("news.Person", "0123"); ("social.Event", "4567") ];
      g_chains = [ ("wl-0", [ (1, "0123"); (2, "89ab") ]) ];
      g_paths = [ ("asm://a/x", "x"); ("asm://b/x", "x") ];
      g_members = [ "a"; "b"; "c" ];
      g_descs = [ "<td>\nmultiline\tbody</td>"; "" ];
    }
  in
  match Digest.decode (Digest.encode m) with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok m' ->
      Alcotest.(check int) "token" m.Digest.g_token m'.Digest.g_token;
      Alcotest.(check (list (pair string string)))
        "types" m.Digest.g_types m'.Digest.g_types;
      Alcotest.(check (list (pair string string)))
        "paths" m.Digest.g_paths m'.Digest.g_paths;
      Alcotest.(check (list string)) "members" m.Digest.g_members
        m'.Digest.g_members;
      Alcotest.(check (list string)) "descs" m.Digest.g_descs
        m'.Digest.g_descs

let test_digest_decode_total () =
  List.iter
    (fun junk ->
      match Digest.decode junk with
      | Ok _ | Error _ -> ())
    [ "garbage"; "token\tnope"; "desc\t-3\n"; "desc\t100000\nshort"; "\t\t\t" ];
  (* Every encoded digest carries its checksum line: a body without one
     is rejected, while the encoded form still round-trips. *)
  let wire =
    Digest.encode
      { Digest.empty with
        g_token = 7; g_types = [ ("A.Person", "guid-1") ];
        g_members = [ "n1" ] }
  in
  (match Digest.decode wire with
  | Ok m -> Alcotest.(check int) "encoded digest round-trips" 7 m.Digest.g_token
  | Error e -> Alcotest.failf "encoded digest rejected: %s" e);
  let stripped =
    let i = String.index wire '\n' in
    String.sub wire (i + 1) (String.length wire - i - 1)
  in
  match Digest.decode stripped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "digest without its checksum line accepted"

(* ---------------------------------------------------------------- *)
(* Membership                                                         *)
(* ---------------------------------------------------------------- *)

let addrs3 = [ "n1"; "n2"; "n3" ]

let test_membership_bootstrap () =
  let net = make_net () in
  let c = Cluster.create ~transport:(Transport.of_net net) addrs3 in
  let n1 = Cluster.node c "n1" in
  Alcotest.(check (list string)) "roster minus self" [ "n2"; "n3" ]
    (Node.alive n1);
  Alcotest.(check (option bool)) "no self entry" None
    (Option.map (fun _ -> true) (Node.status n1 "n1"))

let test_crash_detected_then_heal_recovers () =
  let net = make_net () in
  let c =
    Cluster.create ~transport:(Transport.of_net net) ~probe_timeout_ms:100.
      [ "n1"; "n2" ]
  in
  let n1 = Cluster.node c "n1" in
  Cluster.run_rounds c 2;
  Alcotest.(check (option string)) "alive while traffic flows"
    (Some "alive")
    (Option.map Node.status_name (Node.status n1 "n2"));
  Cluster.crash c "n2";
  (* Two unanswered probes: alive -> suspect -> dead. *)
  Cluster.run_rounds c 1;
  Alcotest.(check (option string)) "suspect after one silent probe"
    (Some "suspect")
    (Option.map Node.status_name (Node.status n1 "n2"));
  Cluster.run_rounds c 1;
  Alcotest.(check (option string)) "dead after two" (Some "dead")
    (Option.map Node.status_name (Node.status n1 "n2"));
  (* Heal: only direct contact resurrects. *)
  Cluster.heal c "n2";
  Cluster.run_rounds c 2;
  Alcotest.(check (option string)) "alive again after heal" (Some "alive")
    (Option.map Node.status_name (Node.status n1 "n2"))

(* ---------------------------------------------------------------- *)
(* Gossip dissemination                                               *)
(* ---------------------------------------------------------------- *)

let test_gossip_spreads_types_and_paths () =
  let net = make_net () in
  let c = Cluster.create ~transport:(Transport.of_net net) ~factor:1 addrs3 in
  Node.publish (Cluster.node c "n1") (Demo.social_assembly ());
  (* Nobody but n1 knows the social types or where their code lives. *)
  Alcotest.(check (option bool)) "n3 ignorant before gossip" None
    (Option.map
       (fun _ -> true)
       (Peer.local_description (Cluster.peer c "n3") Demo.social_person));
  Cluster.run_rounds c 6;
  let n3 = Cluster.node c "n3" in
  Alcotest.(check bool) "n3 knows the description" true
    (Peer.local_description (Cluster.peer c "n3") Demo.social_person <> None);
  Alcotest.(check (list string)) "n3 knows the download path"
    [ "asm://n1/" ^ social_asm ]
    (Node.known_mirrors n3 social_asm);
  Alcotest.(check bool) "rounds counted" true (Node.gossip_rounds n3 >= 6);
  Alcotest.(check bool) "digest bytes counted" true
    (Node.digest_bytes n3 > 0);
  (* The exchange round-trips also feed RTT estimates somewhere. *)
  Alcotest.(check bool) "some rtt observed" true
    (List.exists
       (fun n -> List.exists (fun a -> Node.rtt n a <> None) addrs3)
       (Cluster.nodes c))

let test_gossip_is_deterministic () =
  let run () =
    let net = make_net () in
    let c = Cluster.create ~transport:(Transport.of_net net) ~factor:1 addrs3 in
    Node.publish (Cluster.node c "n1") (Demo.social_assembly ());
    Cluster.run_rounds c 4;
    ( Stats.bytes (Net.stats net) Stats.Gossip,
      List.map (fun n -> Node.digest_bytes n) (Cluster.nodes c) )
  in
  Alcotest.(check (pair int (list int))) "identical gossip traffic"
    (run ()) (run ())

(* ---------------------------------------------------------------- *)
(* Replication                                                        *)
(* ---------------------------------------------------------------- *)

let test_placement_deterministic_and_sized () =
  let net = make_net () in
  let c =
    Cluster.create ~transport:(Transport.of_net net) [ "n1"; "n2"; "n3"; "n4" ]
  in
  let n1 = Cluster.node c "n1" in
  let p2 = Node.placement n1 ~assembly:"some-asm" 2 in
  Alcotest.(check int) "k replicas" 2 (List.length p2);
  Alcotest.(check (list string)) "stable order" p2
    (Node.placement n1 ~assembly:"some-asm" 2);
  Alcotest.(check bool) "never self" true (not (List.mem "n1" p2));
  (* Dead members are skipped. *)
  List.iter (fun a -> Node.mark n1 a Node.Dead) p2;
  let p2' = Node.placement n1 ~assembly:"some-asm" 2 in
  Alcotest.(check bool) "avoids the dead" true
    (List.for_all (fun a -> not (List.mem a p2)) p2')

let test_publish_replicates () =
  let net = make_net () in
  let c = Cluster.create ~transport:(Transport.of_net net) ~factor:2 addrs3 in
  let n1 = Cluster.node c "n1" in
  let holder =
    match Node.placement n1 ~assembly:social_asm 1 with
    | [ h ] -> h
    | l -> Alcotest.failf "expected 1 holder, got %d" (List.length l)
  in
  Node.publish n1 (Demo.social_assembly ());
  Cluster.run c;
  (* The holder serves the bytes without loading the code. *)
  let holder_repo = Peer.repository (Cluster.peer c holder) in
  Alcotest.(check bool) "mirror copy served" true
    (Repository.find holder_repo
       ~path:(Repository.path_for ~host:holder ~assembly:social_asm)
    <> None);
  Alcotest.(check bool) "mirror did not load the code" true
    (Registry.find (Peer.registry (Cluster.peer c holder)) Demo.social_person
    = None);
  Alcotest.(check int) "publisher knows both mirrors" 2
    (List.length (Node.known_mirrors n1 social_asm))

(* ---------------------------------------------------------------- *)
(* Mirror ranking                                                     *)
(* ---------------------------------------------------------------- *)

let test_mirror_ranking_policy () =
  let net = make_net () in
  let c =
    Cluster.create ~transport:(Transport.of_net net) [ "n1"; "n2"; "n3" ]
  in
  let n1 = Cluster.node c "n1" in
  (* n2 and n3 each serve a mirror of news-asm; gossip teaches n1 both. *)
  List.iter
    (fun host ->
      Peer.serve_assembly (Cluster.peer c host) (Demo.news_assembly ()))
    [ "n2"; "n3" ];
  Cluster.run_rounds c 6;
  Alcotest.(check (list string)) "all mirrors known"
    [ "asm://n2/news-asm"; "asm://n3/news-asm" ]
    (Node.known_mirrors n1 "news-asm");
  (* A healthy advertised host leads the candidate order. *)
  Alcotest.(check (list string)) "healthy advertised first"
    [ "asm://n2/news-asm"; "asm://n3/news-asm" ]
    (Node.rank n1 ~assembly:"news-asm" ~advertised:"asm://n2/news-asm");
  (* A dead advertised host becomes the last resort. *)
  Node.mark n1 "n2" Node.Dead;
  Alcotest.(check (list string)) "dead advertised demoted"
    [ "asm://n3/news-asm"; "asm://n2/news-asm" ]
    (Node.rank n1 ~assembly:"news-asm" ~advertised:"asm://n2/news-asm");
  (* With a fresh advertised path, the suspect mirror ranks below the
     healthy one. *)
  Node.mark n1 "n2" Node.Suspect;
  Alcotest.(check (list string)) "suspect ranked below alive"
    [ "asm://n3/news-asm"; "asm://n2/news-asm" ]
    (Node.rank n1 ~assembly:"news-asm" ~advertised:"asm://n9/news-asm"
    |> List.filter (fun p -> p <> "asm://n9/news-asm"))

(* ---------------------------------------------------------------- *)
(* Fetch pipeline knobs                                               *)
(* ---------------------------------------------------------------- *)

let test_fetch_retries_and_backoff () =
  (* The provider host vanishes just as the code download starts: the
     pipeline retries under backoff, then gives up — counters tell the
     story. *)
  let net = Net.create ~seed:8L () in
  let sender = Peer.create ~net "sender" in
  let receiver =
    Peer.create ~net ~request_timeout_ms:50. ~fetch_retries:2
      ~fetch_backoff_ms:10. "receiver"
  in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> Alcotest.fail "must not deliver without code");
  let alice =
    Demo.make_social_person (Peer.registry sender) ~name:"Alice" ~age:30
  in
  Peer.send_value sender ~dst:"receiver" alice;
  (* Envelope and description exchange land normally; the link dies the
     instant the first assembly request hits the wire. *)
  Net.on_send net (fun ~now:_ ~src:_ ~dst:_ ~category ~size:_ ~attempt:_ ->
      if category = Stats.Asm_request then
        Net.partition net "sender" "receiver");
  Net.run net;
  Alcotest.(check int) "three attempts on the wire" 3
    (Peer.fetch_attempts receiver);
  Alcotest.(check int) "two retries" 2 (Peer.fetch_retries receiver);
  Alcotest.(check int) "no mirrors, no failover" 0
    (Peer.fetch_failovers receiver);
  Alcotest.(check bool) "degraded to a load failure" true
    (List.exists
       (function Peer.Load_failed _ -> true | _ -> false)
       (Peer.events receiver))

let test_repository_find_by_name_deterministic () =
  let repo = Repository.create () in
  let asm = Demo.news_assembly () in
  (* Insert in an order unlike the lexicographic one. *)
  List.iter
    (fun p -> Repository.add repo ~path:p asm)
    [ "asm://zeta/news-asm"; "asm://alpha/news-asm"; "asm://mid/news-asm" ];
  (match Repository.find_by_name repo "news-asm" with
  | Some (path, _) ->
      Alcotest.(check string) "lexicographically smallest path"
        "asm://alpha/news-asm" path
  | None -> Alcotest.fail "assembly not found");
  Alcotest.(check (list string)) "all mirrors enumerated, sorted"
    [ "asm://alpha/news-asm"; "asm://mid/news-asm"; "asm://zeta/news-asm" ]
    (Repository.mirror_paths repo "news-asm");
  Alcotest.(check int) "entries are (path, name)" 3
    (List.length
       (List.filter
          (fun (_, n) -> n = "news-asm")
          (Repository.entries repo)))

(* ---------------------------------------------------------------- *)
(* The acceptance integration test: crash the origin, deliver anyway   *)
(* ---------------------------------------------------------------- *)

let test_failover_survives_origin_crash () =
  let net = make_net () in
  let metrics = Metrics.create () in
  let addrs = [ "origin"; "east"; "west"; "south" ] in
  let c =
    Cluster.create ~transport:(Transport.of_net net) ~metrics ~factor:2
      ~request_timeout_ms:200. ~probe_timeout_ms:100. addrs
  in
  let origin = Cluster.node c "origin" in
  (* Where does the single replica land? Pick the relay and receiver
     among the hosts that do NOT hold a copy, so the receiver is forced
     through the failover path. *)
  let holder =
    match Node.placement origin ~assembly:social_asm 1 with
    | [ h ] -> h
    | l -> Alcotest.failf "expected one holder, got %d" (List.length l)
  in
  let relay, receiver =
    match List.filter (fun a -> a <> "origin" && a <> holder) addrs with
    | [ a; b ] -> (a, b)
    | l -> Alcotest.failf "expected two spares, got %d" (List.length l)
  in
  Node.publish origin (Demo.social_assembly ());
  (* Prime the relay: it receives one object from the origin, thereby
     loading the social code and remembering the origin's advertised
     download path — the path it will re-advertise after the crash. *)
  let relay_peer = Cluster.peer c relay in
  Peer.install_assembly relay_peer (Demo.news_assembly ());
  Peer.register_interest relay_peer ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  Demo.make_social_person (Peer.registry (Cluster.peer c "origin"))
    ~name:"Seed" ~age:1
  |> Peer.send_value (Cluster.peer c "origin") ~dst:relay;
  Cluster.run c;
  Alcotest.(check bool) "relay primed" true
    (Registry.find (Peer.registry relay_peer) Demo.social_person <> None);
  (* Gossip spreads the mirror paths (origin's and the holder's). *)
  Cluster.run_rounds c 5;
  let receiver_node = Cluster.node c receiver in
  Alcotest.(check bool) "receiver knows both mirrors" true
    (List.length (Node.known_mirrors receiver_node social_asm) >= 2);
  (* Crash the origin mid-run. No gossip round follows: the receiver
     still believes the origin alive, so the advertised path is tried
     first and MUST fail over. *)
  Cluster.crash c "origin";
  let receiver_peer = Cluster.peer c receiver in
  Peer.install_assembly receiver_peer (Demo.news_assembly ());
  let delivered = ref [] in
  Peer.register_interest receiver_peer ~interest:Demo.news_person
    (fun ~from:_ v -> delivered := v :: !delivered);
  let n_objects = 5 in
  for i = 1 to n_objects do
    Demo.make_social_person (Peer.registry relay_peer)
      ~name:(Printf.sprintf "p%d" i) ~age:i
    |> Peer.send_value relay_peer ~dst:receiver
  done;
  Cluster.run c;
  (* 100% conformant deliveries despite the dead origin... *)
  Alcotest.(check int) "all objects delivered" n_objects
    (List.length !delivered);
  let name =
    Proxy.invoke (Peer.registry receiver_peer) (List.hd !delivered)
      "getName" []
    |> get_string
  in
  Alcotest.(check bool) "delivery is conformant (proxy answers)" true
    (String.length name > 0);
  (* ...and it went through the failover machinery. *)
  Alcotest.(check bool) "failovers happened" true
    (Peer.fetch_failovers receiver_peer > 0);
  match Metrics.find metrics (Printf.sprintf "cluster.%s.fetch.failovers" receiver) with
  | Some (Metrics.Gauge g) ->
      Alcotest.(check bool) "cluster.*.fetch.failovers > 0" true (g > 0.)
  | _ -> Alcotest.fail "cluster fetch.failovers metric missing"

let () =
  Alcotest.run "pti_cluster"
    [
      ( "digest",
        [
          Alcotest.test_case "roundtrip" `Quick test_digest_roundtrip;
          Alcotest.test_case "decode is total" `Quick test_digest_decode_total;
        ] );
      ( "membership",
        [
          Alcotest.test_case "bootstrap roster" `Quick test_membership_bootstrap;
          Alcotest.test_case "crash detected, heal recovers" `Quick
            test_crash_detected_then_heal_recovers;
        ] );
      ( "gossip",
        [
          Alcotest.test_case "spreads types and paths" `Quick
            test_gossip_spreads_types_and_paths;
          Alcotest.test_case "deterministic" `Quick test_gossip_is_deterministic;
        ] );
      ( "replication",
        [
          Alcotest.test_case "placement deterministic" `Quick
            test_placement_deterministic_and_sized;
          Alcotest.test_case "publish pushes mirrors" `Quick
            test_publish_replicates;
          Alcotest.test_case "ranking inputs" `Quick test_mirror_ranking_policy;
        ] );
      ( "fetch",
        [
          Alcotest.test_case "retries and backoff" `Quick
            test_fetch_retries_and_backoff;
          Alcotest.test_case "repository determinism" `Quick
            test_repository_find_by_name_deterministic;
          Alcotest.test_case "failover survives origin crash" `Quick
            test_failover_survives_origin_crash;
        ] );
    ]
