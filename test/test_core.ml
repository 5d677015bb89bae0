(* End-to-end tests of the optimistic transport protocol (Figure 1) and the
   pass-by-reference remoting layer. *)

open Pti_cts
module Peer = Pti_core.Peer
module Message = Pti_core.Message
module Net = Pti_net.Net
module Stats = Pti_net.Stats
module Proxy = Pti_proxy.Dynamic_proxy
module Demo = Pti_demo.Demo_types

let make_net () = Net.create ~seed:7L ()

(* A world where the sender publishes social types, the receiver registered
   an interest in its own news types. *)
let two_peers ?mode ?codec () =
  let net = make_net () in
  let sender = Peer.create ?mode ?codec ~net "sender" in
  let receiver = Peer.create ?mode ?codec ~net "receiver" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  (net, sender, receiver)

let get_string = function
  | Value.Vstring s -> s
  | v -> Alcotest.failf "expected a string, got %s" (Value.type_name v)

let get_int = function
  | Value.Vint i -> i
  | v -> Alcotest.failf "expected an int, got %s" (Value.type_name v)

let test_pass_by_value_conformant () =
  let net, sender, receiver = two_peers () in
  let received = ref [] in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ v -> received := v :: !received);
  let alice =
    Demo.make_social_person (Peer.registry sender) ~name:"Alice" ~age:30
  in
  Peer.send_value sender ~dst:"receiver" alice;
  Net.run net;
  match !received with
  | [ v ] ->
      (* The proxy answers the receiver's vocabulary. *)
      let name =
        Proxy.invoke (Peer.registry receiver) v "getName" [] |> get_string
      in
      Alcotest.(check string) "name through proxy" "Alice" name;
      let greeting =
        Proxy.invoke (Peer.registry receiver) v "greet" [] |> get_string
      in
      Alcotest.(check string) "greet through proxy" "Hello, Alice" greeting;
      let older =
        Proxy.invoke (Peer.registry receiver) v "older" [ Value.Vint 5 ]
        |> get_int
      in
      Alcotest.(check int) "older through proxy" 35 older
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

let test_non_conformant_rejected_without_code_download () =
  let net = make_net () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.publish_assembly sender (Demo.bogus_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> Alcotest.fail "bogus person must not be delivered");
  let bogus =
    Eval.construct (Peer.registry sender) Demo.bogus_person
      [ Value.Vstring "Mallory" ]
  in
  Peer.send_value sender ~dst:"receiver" bogus;
  Net.run net;
  (* Rejected... *)
  (match Peer.events receiver with
  | [ Peer.Rejected { type_name; _ } ] ->
      Alcotest.(check string) "rejected type" Demo.bogus_person type_name
  | evs ->
      Alcotest.failf "expected one rejection, got: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Peer.pp_event) evs)));
  (* ...and, crucially, no assembly bytes moved (the optimistic saving). *)
  let stats = Net.stats net in
  Alcotest.(check int) "no assembly requests" 0
    (Stats.messages stats Stats.Asm_request);
  Alcotest.(check int) "no assembly bytes" 0
    (Stats.bytes stats Stats.Asm_reply);
  (* Type descriptions did travel (that is the probe). *)
  Alcotest.(check bool) "tdescs travelled" true
    (Stats.bytes stats Stats.Tdesc_reply > 0)

let test_known_guid_skips_all_fetches () =
  (* Receiver already has the sender's exact assembly: no tdesc, no code. *)
  let net = make_net () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  let asm = Demo.social_assembly () in
  Peer.publish_assembly sender asm;
  Peer.install_assembly receiver asm;
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  let bob =
    Demo.make_social_person (Peer.registry sender) ~name:"Bob" ~age:41
  in
  Peer.send_value sender ~dst:"receiver" bob;
  Net.run net;
  let stats = Net.stats net in
  Alcotest.(check int) "no tdesc traffic" 0
    (Stats.messages stats Stats.Tdesc_request);
  Alcotest.(check int) "no asm traffic" 0
    (Stats.messages stats Stats.Asm_request);
  match Peer.events receiver with
  | [ Peer.Delivered _ ] -> ()
  | evs -> Alcotest.failf "expected delivery, got %d events" (List.length evs)

let test_second_send_uses_cached_code () =
  let net, sender, receiver = two_peers () in
  let count = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr count);
  let p1 =
    Demo.make_social_person (Peer.registry sender) ~name:"One" ~age:1
  in
  Peer.send_value sender ~dst:"receiver" p1;
  Net.run net;
  let stats = Net.stats net in
  let asm_after_first = Stats.messages stats Stats.Asm_request in
  let tdesc_after_first = Stats.messages stats Stats.Tdesc_request in
  Alcotest.(check bool) "first send downloaded code" true (asm_after_first > 0);
  let p2 =
    Demo.make_social_person (Peer.registry sender) ~name:"Two" ~age:2
  in
  Peer.send_value sender ~dst:"receiver" p2;
  Net.run net;
  Alcotest.(check int) "no new assembly fetch"
    asm_after_first
    (Stats.messages stats Stats.Asm_request);
  Alcotest.(check int) "no new tdesc fetch"
    tdesc_after_first
    (Stats.messages stats Stats.Tdesc_request);
  Alcotest.(check int) "both delivered" 2 !count

(* The observability refactor, end to end: repeated-type traffic must show
   rising cache-hit counters (through the shared metrics registry) while
   generating zero additional tdesc/assembly bytes. *)
let test_repeat_traffic_cache_counters () =
  let module Workload = Pti_demo.Workload in
  let module Checker = Pti_conformance.Checker in
  let module Metrics = Pti_obs.Metrics in
  let net = make_net () in
  let metrics = Metrics.create () in
  let sender = Peer.create ~net ~metrics "sender" in
  let receiver = Peer.create ~net ~metrics "receiver" in
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  for i = 0 to 2 do
    Peer.publish_assembly sender
      (Workload.family ~index:i ~flavor:Workload.Conformant)
  done;
  let send index n =
    let v =
      Workload.make_person (Peer.registry sender) ~index
        ~flavor:Workload.Conformant
        ~name:(Printf.sprintf "p%d" n)
        ~age:n
    in
    Peer.send_value sender ~dst:"receiver" v;
    Net.run net
  in
  (* Warm-up: one object of each of the three types pulls code once. *)
  for i = 0 to 2 do
    send i i
  done;
  let s = Net.stats net in
  let code_bytes () =
    Stats.bytes s Stats.Tdesc_request
    + Stats.bytes s Stats.Tdesc_reply
    + Stats.bytes s Stats.Asm_request
    + Stats.bytes s Stats.Asm_reply
  in
  let warm_bytes = code_bytes () in
  let st0 = Checker.stats (Peer.checker receiver) in
  (* Nine more objects over the same three types. *)
  for n = 3 to 11 do
    send (n mod 3) n
  done;
  Alcotest.(check int) "zero additional tdesc/assembly bytes" warm_bytes
    (code_bytes ());
  let st1 = Checker.stats (Peer.checker receiver) in
  Alcotest.(check int) "no further verdict computes" st0.Checker.top_computes
    st1.Checker.top_computes;
  Alcotest.(check int) "every repeat hit the verdict cache"
    (st0.Checker.top_hits + 9) st1.Checker.top_hits;
  (* The same counters surface through the shared registry. *)
  match Metrics.find metrics "peer.receiver.checker.top_hits" with
  | Some (Metrics.Gauge v) ->
      Alcotest.(check (float 0.)) "metrics gauge agrees"
        (float_of_int st1.Checker.top_hits)
        v
  | _ -> Alcotest.fail "peer.receiver.checker.top_hits not registered"

(* Regression for the over-invalidation bug: a new (unrelated) type
   description arriving at the peer used to clear the whole verdict
   cache; it must now leave unrelated verdicts in place. *)
let test_new_type_preserves_unrelated_verdicts () =
  let module Workload = Pti_demo.Workload in
  let module Checker = Pti_conformance.Checker in
  let net = make_net () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  let send index n =
    let v =
      Workload.make_person (Peer.registry sender) ~index
        ~flavor:Workload.Conformant
        ~name:(Printf.sprintf "p%d" n)
        ~age:n
    in
    Peer.send_value sender ~dst:"receiver" v;
    Net.run net
  in
  Peer.publish_assembly sender
    (Workload.family ~index:0 ~flavor:Workload.Conformant);
  send 0 0;
  let st1 = Checker.stats (Peer.checker receiver) in
  (* A brand-new type arrives (descriptions and all)... *)
  Peer.publish_assembly sender
    (Workload.family ~index:5 ~flavor:Workload.Conformant);
  send 5 1;
  (* ...and the old type's verdict must still be cached. *)
  send 0 2;
  let st2 = Checker.stats (Peer.checker receiver) in
  Alcotest.(check int) "only the new type computed a verdict"
    (st1.Checker.top_computes + 1)
    st2.Checker.top_computes;
  Alcotest.(check int) "nothing depended on the new names" 0
    st2.Checker.invalidated;
  Alcotest.(check bool) "the repeat was a cache hit" true
    (st2.Checker.top_hits > st1.Checker.top_hits)

(* The event log is a bounded ring now. *)
let test_event_log_bounded () =
  let net = make_net () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net ~event_log_capacity:4 "receiver" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  for n = 1 to 6 do
    let v =
      Demo.make_social_person (Peer.registry sender)
        ~name:(Printf.sprintf "p%d" n)
        ~age:n
    in
    Peer.send_value sender ~dst:"receiver" v;
    Net.run net
  done;
  let events = Peer.events receiver in
  Alcotest.(check int) "ring keeps the last 4" 4 (List.length events);
  Alcotest.(check int) "two displaced" 2 (Peer.events_dropped receiver);
  (match events with
  | Peer.Delivered { value; _ } :: _ ->
      (* Chronological: the oldest kept event is delivery #3. *)
      let name =
        Proxy.invoke (Peer.registry receiver) value "getName" []
      in
      (match name with
      | Value.Vstring s -> Alcotest.(check string) "oldest kept" "p3" s
      | _ -> Alcotest.fail "getName")
  | _ -> Alcotest.fail "expected Delivered events");
  Peer.clear_events receiver;
  Alcotest.(check int) "cleared" 0 (List.length (Peer.events receiver));
  Alcotest.(check int) "dropped reset" 0 (Peer.events_dropped receiver)

let test_eager_mode_ships_everything () =
  let net, sender, receiver = two_peers ~mode:Peer.Eager () in
  let count = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr count);
  let p =
    Demo.make_social_person (Peer.registry sender) ~name:"Eve" ~age:9
  in
  Peer.send_value sender ~dst:"receiver" p;
  Net.run net;
  Alcotest.(check int) "delivered" 1 !count;
  let stats = Net.stats net in
  (* Everything inline: no subprotocol round-trips at all... *)
  Alcotest.(check int) "no tdesc round-trips" 0
    (Stats.messages stats Stats.Tdesc_request);
  Alcotest.(check int) "no asm round-trips" 0
    (Stats.messages stats Stats.Asm_request);
  (* ...but the object message is much fatter than the optimistic one. *)
  let eager_bytes = Stats.bytes stats Stats.Object_msg in
  let net2, sender2, receiver2 = two_peers () in
  Peer.register_interest receiver2 ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  let p2 =
    Demo.make_social_person (Peer.registry sender2) ~name:"Eve" ~age:9
  in
  Peer.send_value sender2 ~dst:"receiver" p2;
  Net.run net2;
  let optimistic_obj_bytes =
    Stats.bytes (Net.stats net2) Stats.Object_msg
  in
  Alcotest.(check bool) "eager object message is heavier" true
    (eager_bytes > 2 * optimistic_obj_bytes)

let test_soap_codec_roundtrip_through_protocol () =
  let net, sender, receiver = two_peers ~codec:Pti_serial.Envelope.Soap () in
  let received = ref None in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ v -> received := Some v);
  let carol =
    Demo.make_social_person (Peer.registry sender) ~name:"Carol" ~age:27
  in
  Peer.send_value sender ~dst:"receiver" carol;
  Net.run net;
  match !received with
  | Some v ->
      let name =
        Proxy.invoke (Peer.registry receiver) v "getName" [] |> get_string
      in
      Alcotest.(check string) "soap payload decoded" "Carol" name
  | None -> Alcotest.fail "no delivery via SOAP codec"

let test_nested_object_graph_travels () =
  let net, sender, receiver = two_peers () in
  Peer.register_interest receiver ~interest:Demo.news_event
    (fun ~from:_ _ -> ());
  let reg = Peer.registry sender in
  let author = Demo.make_social_person reg ~name:"Dan" ~age:50 in
  let event =
    Demo.make_social_event reg ~headline:"Types unify!" ~author ~priority:1
  in
  Peer.send_value sender ~dst:"receiver" event;
  Net.run net;
  match Peer.events receiver with
  | [ Peer.Delivered { value; _ } ] ->
      let summary =
        Proxy.invoke (Peer.registry receiver) value "summary" [] |> get_string
      in
      Alcotest.(check string) "summary" "Types unify! (by Dan)" summary;
      (* getAuthor returns a nested object re-wrapped as newsw.Person. *)
      let author' = Proxy.invoke (Peer.registry receiver) value "getAuthor" [] in
      let name =
        Proxy.invoke (Peer.registry receiver) author' "getName" []
        |> get_string
      in
      Alcotest.(check string) "nested author name" "Dan" name
  | evs ->
      Alcotest.failf "expected delivery, got: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Peer.pp_event) evs))

let test_cycle_in_object_graph () =
  let net, sender, receiver = two_peers () in
  let received = ref None in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ v -> received := Some v);
  let reg = Peer.registry sender in
  let a = Demo.make_social_person reg ~name:"A" ~age:1 in
  let b = Demo.make_social_person reg ~name:"B" ~age:2 in
  ignore (Eval.call reg a "setspouse" [ b ]);
  ignore (Eval.call reg b "setspouse" [ a ]);
  Peer.send_value sender ~dst:"receiver" a;
  Net.run net;
  match !received with
  | Some v ->
      let rreg = Peer.registry receiver in
      let spouse = Proxy.invoke rreg v "getSpouse" [] in
      let back = Proxy.invoke rreg spouse "getSpouse" [] in
      let name = Proxy.invoke rreg back "getName" [] |> get_string in
      Alcotest.(check string) "cycle preserved" "A" name;
      (* Identity: the spouse loop must come back to the same object. *)
      (match Proxy.unwrap back, Proxy.unwrap v with
      | Value.Vobj o1, Value.Vobj o2 ->
          Alcotest.(check bool) "physical identity" true (o1 == o2)
      | _ -> Alcotest.fail "expected objects at both ends of the cycle")
  | None -> Alcotest.fail "cyclic graph not delivered"

let test_missing_assembly_fails_gracefully () =
  let net = make_net () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  (* Sender loads the social types but does NOT publish the assembly. *)
  Peer.install_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> Alcotest.fail "must not deliver without code");
  let p = Demo.make_social_person (Peer.registry sender) ~name:"X" ~age:0 in
  Peer.send_value sender ~dst:"receiver" p;
  Net.run net;
  let failures =
    List.filter
      (function Peer.Load_failed _ | Peer.Decode_failed _ -> true | _ -> false)
      (Peer.events receiver)
  in
  Alcotest.(check bool) "failure recorded" true (failures <> [])

let test_burst_of_new_type_objects () =
  (* Two objects of a brand-new type sent back-to-back, with the network
     only run afterwards: both reception pipelines run concurrently. Both
     must deliver; the duplicated in-flight fetches are a known cost of
     optimism (the assembly load is idempotent for identical bytes). *)
  let net, sender, receiver = two_peers () in
  let count = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr count);
  let reg = Peer.registry sender in
  Peer.send_value sender ~dst:"receiver"
    (Demo.make_social_person reg ~name:"B1" ~age:1);
  Peer.send_value sender ~dst:"receiver"
    (Demo.make_social_person reg ~name:"B2" ~age:2);
  Net.run net;
  Alcotest.(check int) "both delivered" 2 !count;
  let failures =
    List.filter
      (function
        | Peer.Load_failed _ | Peer.Decode_failed _ -> true | _ -> false)
      (Peer.events receiver)
  in
  Alcotest.(check (list pass)) "no failures" [] failures

let test_interest_listing_and_removal () =
  let net, sender, receiver = two_peers () in
  let hits = ref 0 in
  let id =
    Peer.register_interest_id receiver ~interest:Demo.news_person
      (fun ~from:_ _ -> incr hits)
  in
  Alcotest.(check (list string)) "listed" [ Demo.news_person ]
    (Peer.interests receiver);
  Peer.send_value sender ~dst:"receiver"
    (Demo.make_social_person (Peer.registry sender) ~name:"X" ~age:0);
  Net.run net;
  Alcotest.(check int) "hit while registered" 1 !hits;
  Peer.unregister_interest receiver id;
  Peer.unregister_interest receiver id;
  Alcotest.(check (list string)) "unlisted" [] (Peer.interests receiver);
  Peer.send_value sender ~dst:"receiver"
    (Demo.make_social_person (Peer.registry sender) ~name:"Y" ~age:0);
  Net.run net;
  Alcotest.(check int) "no hit after removal" 1 !hits

let test_protocol_over_lossy_reliable_network () =
  (* The whole Figure-1 pipeline (object, tdesc round-trips, assembly
     download) completes over a 25%-lossy link once the ARQ layer is on. *)
  let net =
    Net.create ~drop_rate:0.25 ~reliability:Net.default_reliability ~seed:13L
      ()
  in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  let count = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr count);
  for i = 1 to 5 do
    Peer.send_value sender ~dst:"receiver"
      (Demo.make_social_person (Peer.registry sender)
         ~name:(Printf.sprintf "L%d" i) ~age:i)
  done;
  Net.run net;
  Alcotest.(check int) "all delivered despite loss" 5 !count;
  Alcotest.(check bool) "loss actually happened" true
    (Net.dropped_messages net > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (Net.retransmissions net > 0)

let test_request_timeout_degrades_to_rejection () =
  (* The object arrives, then the link dies: the description request is
     lost and (without an ARQ layer) never answered. The request timeout
     turns the stalled pipeline into a rejection. *)
  let net, sender, receiver = two_peers () in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> Alcotest.fail "must not deliver without descriptions");
  Peer.send_value sender ~dst:"receiver"
    (Demo.make_social_person (Peer.registry sender) ~name:"T" ~age:1);
  (* Let the envelope land (~1.3 ms), then cut the link. *)
  Pti_net.Sim.run_until (Net.sim net) 2.;
  Net.partition net "sender" "receiver";
  Net.run net;
  Alcotest.(check bool) "timeout advanced the clock" true
    (Net.now_ms net >= 10_000.);
  match
    List.filter (function Peer.Rejected _ -> true | _ -> false)
      (Peer.events receiver)
  with
  | [ Peer.Rejected { reason; _ } ] ->
      Alcotest.(check string) "reason" "type description unavailable" reason
  | _ -> Alcotest.fail "expected exactly one rejection"

(* A hostile sender adds a class that names itself as its superclass and
   hangs an object of it, carrying one field the class does not declare,
   off a conformant Person. The receiver must come back from the payload
   decode; whether it delivers the mistyped [home] is not settled here. *)
let test_self_supertype_payload_returns () =
  let module Workload = Pti_demo.Workload in
  let loop =
    Builder.class_ ~ns:[ "evil" ] ~assembly:"evil" "Loop" ~super:"evil.Loop"
    |> Builder.build
  in
  let run ~extra =
    let net = make_net () in
    let sender = Peer.create ~net "sender" in
    let receiver = Peer.create ~net "receiver" in
    Peer.publish_assembly sender
      (Workload.family ~index:3 ~flavor:Workload.Conformant);
    Peer.publish_assembly sender (Assembly.make ~name:"evil" [ loop ]);
    Peer.install_assembly receiver (Workload.interest_assembly ());
    let delivered = ref 0 in
    Peer.register_interest receiver ~interest:Workload.interest_person
      (fun ~from:_ _ -> incr delivered);
    let fields = Hashtbl.create 1 in
    if extra then Hashtbl.replace fields "extra" (Value.Vint 1);
    let p =
      Workload.make_person (Peer.registry sender) ~index:3
        ~flavor:Workload.Conformant ~name:"Eve" ~age:3
    in
    (match p with
    | Value.Vobj o ->
        Value.set_field o "home"
          (Value.Vobj
             { Value.oid = Value.fresh_oid (); cls = "evil.Loop"; fields })
    | _ -> Alcotest.fail "expected an object");
    Peer.send_value sender ~dst:"receiver" p;
    Net.run net;
    !delivered
  in
  Alcotest.(check int) "without the extra field it delivers" 1
    (run ~extra:false);
  ignore (run ~extra:true)

let test_primitive_payload_goes_to_sink () =
  let net = make_net () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  let got = ref None in
  Peer.set_default_sink receiver (fun ~from:_ v -> got := Some v);
  Peer.send_value sender ~dst:"receiver" (Value.Vint 42);
  Net.run net;
  match !got with
  | Some (Value.Vint 42) -> ()
  | _ -> Alcotest.fail "primitive payload lost"

(* ------------------------------------------------------------------ *)
(* Pass-by-reference                                                    *)
(* ------------------------------------------------------------------ *)

let test_remote_invocation_conformant () =
  let net = make_net () in
  let lender = Peer.create ~net "lender" in
  let borrower = Peer.create ~net "borrower" in
  Peer.publish_assembly lender (Demo.printer_assembly ());
  Peer.publish_assembly borrower (Demo.printsvc_assembly ());
  let obj = Demo.make_printer (Peer.registry lender) ~label:"hp-1" in
  let rref = Peer.export lender obj in
  match Peer.acquire borrower rref ~interest:Demo.printsvc with
  | Error e -> Alcotest.failf "acquire failed: %s" e
  | Ok proxy ->
      (* Borrower speaks its own vocabulary: PRINT / GETPRINTED. *)
      let n1 =
        Proxy.invoke (Peer.registry borrower) proxy "PRINT"
          [ Value.Vstring "doc-a" ]
        |> get_int
      in
      let n2 =
        Proxy.invoke (Peer.registry borrower) proxy "PRINT"
          [ Value.Vstring "doc-b" ]
        |> get_int
      in
      Alcotest.(check int) "first print" 1 n1;
      Alcotest.(check int) "second print" 2 n2;
      (* State lives on the lender (pass-by-reference, not a copy). *)
      let printed =
        Eval.call (Peer.registry lender) obj "getPrinted" [] |> get_int
      in
      Alcotest.(check int) "lender-side state" 2 printed

let test_remote_invocation_error_propagates () =
  let net = make_net () in
  let lender = Peer.create ~net "lender" in
  let borrower = Peer.create ~net "borrower" in
  Peer.publish_assembly lender (Demo.printer_assembly ());
  Peer.publish_assembly borrower (Demo.printer_assembly ());
  let obj = Demo.make_printer (Peer.registry lender) ~label:"hp-2" in
  let rref = Peer.export lender obj in
  match Peer.acquire borrower rref ~interest:Demo.printer with
  | Error e -> Alcotest.failf "acquire failed: %s" e
  | Ok proxy -> (
      match
        Proxy.invoke (Peer.registry borrower) proxy "shred"
          [ Value.Vstring "doc" ]
      with
      | _ -> Alcotest.fail "unknown remote method should raise"
      | exception Eval.Runtime_error _ -> ())

let test_acquire_non_conformant_fails () =
  let net = make_net () in
  let lender = Peer.create ~net "lender" in
  let borrower = Peer.create ~net "borrower" in
  Peer.publish_assembly lender (Demo.trap_assembly ());
  Peer.publish_assembly borrower (Demo.printsvc_assembly ());
  let trap = Demo.make_trap_person (Peer.registry lender) in
  let rref = Peer.export lender trap in
  match Peer.acquire borrower rref ~interest:Demo.printsvc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trap type must not conform to printer interest"

let test_remote_invocation_with_object_argument () =
  (* The borrower passes one of ITS OWN objects as an invocation argument:
     the argument travels as an envelope, and the lender downloads the
     borrower's code to decode it — the full pipeline in both
     directions. *)
  let net = make_net () in
  let lender = Peer.create ~net "lender" in
  let borrower = Peer.create ~net "borrower" in
  Peer.publish_assembly lender (Demo.news_assembly ());
  (* Borrower publishes (not merely installs) so the lender can fetch. *)
  Peer.publish_assembly borrower (Demo.social_assembly ());
  Peer.install_assembly borrower (Demo.news_assembly ());
  let target = Demo.make_news_person (Peer.registry lender) ~name:"L" ~age:9 in
  let rref = Peer.export lender target in
  match Peer.acquire borrower rref ~interest:Demo.news_person with
  | Error e -> Alcotest.failf "acquire failed: %s" e
  | Ok proxy ->
      let spouse =
        Demo.make_social_person (Peer.registry borrower) ~name:"S" ~age:8
      in
      (* setSpouse(social person) — lender must download social-asm. *)
      ignore
        (Proxy.invoke (Peer.registry borrower) proxy "setSpouse" [ spouse ]);
      Alcotest.(check bool) "lender loaded the borrower's code" true
        (Registry.mem (Peer.registry lender) Demo.social_person);
      (* The value landed on the lender's object. *)
      let got = Eval.call (Peer.registry lender) target "getSpouse" [] in
      Alcotest.(check string) "spouse name on the lender" "S"
        (Eval.call (Peer.registry lender) got "getname" [] |> get_string);
      (* And the result of getSpouse round-trips back by value. *)
      let back = Proxy.invoke (Peer.registry borrower) proxy "getSpouse" [] in
      Alcotest.(check string) "spouse comes back by value" "S"
        (Eval.call (Peer.registry borrower) back "getname" [] |> get_string)

(* A rejection is decided by one check per interest: its reason comes
   from the same verdicts, not from checking again. Repeat sends of a
   trap family hit the verdict cache, so each costs exactly one check
   and logs the same reason. *)
let test_rejection_checks_once () =
  let module Checker = Pti_conformance.Checker in
  let net = make_net () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.publish_assembly sender (Demo.trap_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> Alcotest.fail "trap must not be delivered");
  let checks () = (Checker.stats (Peer.checker receiver)).Checker.checks in
  let send_trap () =
    Peer.clear_events receiver;
    Peer.send_value sender ~dst:"receiver"
      (Demo.make_trap_person (Peer.registry sender));
    Net.run net;
    match Peer.events receiver with
    | [ Peer.Rejected { reason; _ } ] -> reason
    | evs ->
        Alcotest.failf "expected one rejection, got %d events"
          (List.length evs)
  in
  ignore (send_trap ());
  for _ = 1 to 3 do
    let before = checks () in
    let reason = send_trap () in
    Alcotest.(check int) "one check per rejected send" 1 (checks () - before);
    Alcotest.(check string) "rejection reason"
      "no field of actual matches name : string (rule ii)" reason
  done

(* A root type and its field type in two assemblies. The one that sorts
   first is already in the receiver's repository (served there, not
   loaded), so it is ready at once; the other must still come from the
   sender. Delivery has to wait for both. *)
let test_split_assemblies_wait_for_every_fetch () =
  let module B = Builder in
  let tag =
    B.class_ ~ns:[ "fsplit" ] ~assembly:"asm-a-tag" "Tag"
    |> B.ctor ~body:(Expr.set "label" (Expr.Var "l")) [ ("l", Ty.String) ]
    |> B.field "label" Ty.String
    |> B.build
  in
  let item =
    B.class_ ~ns:[ "fsplit" ] ~assembly:"asm-b-item" "Item"
    |> B.ctor
         ~body:
           (Expr.Seq
              [ Expr.set "name" (Expr.Var "n"); Expr.set "tag" (Expr.Var "t") ])
         [ ("n", Ty.String); ("t", Ty.Named "fsplit.Tag") ]
    |> B.field "name" Ty.String
    |> B.getter "getName" ~field:"name" Ty.String
    |> B.field "tag" (Ty.Named "fsplit.Tag")
    |> B.build
  in
  let interest =
    B.class_ ~ns:[ "rsplit" ] ~assembly:"asm-interest" "Item"
    |> B.method_ "getName" [] Ty.String ~body:(Expr.str "")
    |> B.build
  in
  let tag_asm = Assembly.make ~name:"asm-a-tag" [ tag ] in
  let net = make_net () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.publish_assembly sender tag_asm;
  Peer.publish_assembly sender (Assembly.make ~name:"asm-b-item" [ item ]);
  Peer.serve_assembly receiver tag_asm;
  Peer.install_assembly receiver
    (Assembly.make ~name:"asm-interest" [ interest ]);
  Peer.register_interest receiver ~interest:"rsplit.Item" (fun ~from:_ _ -> ());
  let reg = Peer.registry sender in
  let t = Eval.construct reg "fsplit.Tag" [ Value.Vstring "red" ] in
  Peer.send_value sender ~dst:"receiver"
    (Eval.construct reg "fsplit.Item" [ Value.Vstring "it"; t ]);
  Net.run net;
  match Peer.events receiver with
  | [ Peer.Delivered _ ] -> ()
  | evs ->
      Alcotest.failf "expected one delivery and no failure, got: %s"
        (String.concat "; "
           (List.map (Format.asprintf "%a" Peer.pp_event) evs))

let test_eager_mode_rejection_still_pays () =
  (* Under the eager baseline a non-conformant object still ships all its
     code — the waste the optimistic protocol avoids (cf. E5b). *)
  let net = make_net () in
  let sender = Peer.create ~mode:Peer.Eager ~net "sender" in
  let receiver = Peer.create ~mode:Peer.Eager ~net "receiver" in
  Peer.publish_assembly sender (Demo.trap_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> Alcotest.fail "trap must not be delivered");
  Peer.send_value sender ~dst:"receiver"
    (Demo.make_trap_person (Peer.registry sender));
  Net.run net;
  (match Peer.events receiver with
  | [ Peer.Rejected _ ] -> ()
  | evs -> Alcotest.failf "expected rejection, got %d events" (List.length evs));
  (* The code was nevertheless loaded (shipped inline). *)
  Alcotest.(check bool) "wasted code transfer" true
    (Registry.mem (Peer.registry receiver) Demo.trap_person);
  let obj_bytes = Stats.bytes (Net.stats net) Stats.Object_msg in
  Alcotest.(check bool) "fat object message" true
    (obj_bytes > 3 * String.length (Pti_serial.Assembly_xml.to_string (Demo.trap_assembly ())) / 4)

let test_fetch_type_description () =
  let net = make_net () in
  let a = Peer.create ~net "a" in
  let b = Peer.create ~net "b" in
  Peer.publish_assembly b (Demo.news_assembly ());
  (match Peer.fetch_type_description a ~from:"b" Demo.news_person with
  | Some d ->
      Alcotest.(check string) "fetched name" "Person" d.Pti_typedesc.Type_description.ty_name
  | None -> Alcotest.fail "description fetch failed");
  (* Unknown type comes back as None, not a crash. *)
  match Peer.fetch_type_description a ~from:"b" "no.such.Type" with
  | None -> ()
  | Some _ -> Alcotest.fail "unknown type should yield None"

(* ------------------------------------------------------------------ *)
(* Wire messages                                                        *)
(* ------------------------------------------------------------------ *)

let test_message_sizes_and_categories () =
  let open Message in
  let cases =
    [
      (Obj_msg { envelope = "abcd"; tdescs = [ "xy" ]; assemblies = [ "z" ] },
       Stats.Object_msg, 16 + 4 + 2 + 1);
      (Tdesc_request { type_name = "a.B"; token = 1; binary_ok = false; version = 0 },
       Stats.Tdesc_request,
       16 + 3);
      (Tdesc_reply { type_name = "a.B"; desc = Some "dddd"; token = 1 },
       Stats.Tdesc_reply, 16 + 3 + 4);
      (Tdesc_reply { type_name = "a.B"; desc = None; token = 1 },
       Stats.Tdesc_reply, 16 + 3);
      (Asm_request { path = "asm://h/x"; token = 2 }, Stats.Asm_request,
       16 + 9);
      (Asm_reply { path = "asm://h/x"; assembly = Some "aa"; token = 2 },
       Stats.Asm_reply, 16 + 9 + 2);
      (Invoke_request { target = 3; meth = "m"; args = "aaaa"; token = 4 },
       Stats.Invoke_request, 16 + 8 + 1 + 4);
      (Invoke_reply { token = 4; result = Some "rr"; error = None },
       Stats.Invoke_reply, 16 + 2);
    ]
  in
  List.iter
    (fun (msg, cat, expected_size) ->
      Alcotest.(check bool)
        ("category of " ^ describe msg)
        true
        (category msg = cat);
      Alcotest.(check int) ("size of " ^ describe msg) expected_size (size msg))
    cases

let test_message_describe_is_informative () =
  let open Message in
  let d = describe (Tdesc_request { type_name = "x.Y"; token = 9; binary_ok = false; version = 0 }) in
  Alcotest.(check bool) "mentions the type" true
    (Pti_util.Strutil.starts_with ~prefix:"tdesc-req(x.Y)" d)

(* ------------------------- wire efficiency ------------------------- *)

(* One world with the wire knobs set, sending [n] same-type objects. *)
let wire_world ?handles ?batch_bytes ?tdesc_binary n =
  let net = make_net () in
  let sender = Peer.create ?handles ?batch_bytes ?tdesc_binary ~net "sender" in
  let receiver =
    Peer.create ?handles ?batch_bytes ?tdesc_binary ~net "receiver"
  in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  let received = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr received);
  for i = 1 to n do
    let v =
      Demo.make_social_person (Peer.registry sender)
        ~name:(Printf.sprintf "p%d" i) ~age:(20 + i)
    in
    Peer.send_value sender ~dst:"receiver" v;
    Net.run net
  done;
  (net, sender, receiver, !received)

let test_handles_shrink_repeat_traffic () =
  let n = 12 in
  let _, _, _, plain_received = wire_world n in
  let net_p, _, _, _ = wire_world n in
  let plain_bytes = Stats.bytes (Net.stats net_p) Stats.Object_msg in
  let net_h, sender, _, received = wire_world ~handles:true n in
  Alcotest.(check int) "all delivered with handles" plain_received received;
  Alcotest.(check int) "all delivered" n received;
  (* Every distinct entry binds exactly once (on the first envelope) and
     is a handle ref on all later ones. *)
  let entries = Peer.handle_misses sender in
  Alcotest.(check bool) "first envelope binds" true (entries >= 1);
  Alcotest.(check int) "refs for every later entry" (entries * (n - 1))
    (Peer.handle_hits sender);
  Alcotest.(check int) "no renegotiation on a quiet link" 0
    (Peer.renegotiations sender);
  let handle_bytes = Stats.bytes (Net.stats net_h) Stats.Object_msg in
  Alcotest.(check bool)
    (Printf.sprintf "handles shrink object traffic (%d < %d)" handle_bytes
       plain_bytes)
    true (handle_bytes < plain_bytes)

let test_handle_table_drop_renegotiates () =
  let net = make_net () in
  let sender = Peer.create ~handles:true ~net "sender" in
  let receiver = Peer.create ~handles:true ~net "receiver" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  let got = ref [] in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ v -> got := v :: !got);
  let send name =
    Peer.send_value sender ~dst:"receiver"
      (Demo.make_social_person (Peer.registry sender) ~name ~age:44);
    Net.run net
  in
  send "before";
  (* Simulate receiver restart: learned bindings gone, sender unaware. *)
  Peer.drop_handle_tables receiver;
  send "after";
  Alcotest.(check int) "both delivered" 2 (List.length !got);
  Alcotest.(check int) "exactly one NAK round" 1
    (Peer.renegotiations receiver);
  (* The renegotiated delivery is intact, not just present. *)
  let names =
    List.filter_map
      (fun v ->
        match Proxy.invoke (Peer.registry receiver) v "getName" [] with
        | Value.Vstring s -> Some s
        | _ -> None)
      !got
    |> List.sort compare
  in
  Alcotest.(check (list string)) "names intact" [ "after"; "before" ] names

let test_batching_coalesces_same_instant () =
  let net = make_net () in
  let sender = Peer.create ~batch_bytes:65536 ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  let received = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr received);
  (* Five sends before the simulation runs: one instant, one frame. *)
  for i = 1 to 5 do
    Peer.send_value sender ~dst:"receiver"
      (Demo.make_social_person (Peer.registry sender)
         ~name:(Printf.sprintf "b%d" i) ~age:i)
  done;
  Net.run net;
  Alcotest.(check int) "all delivered" 5 !received;
  Alcotest.(check int) "one batch frame" 1 (Peer.batch_messages sender);
  Alcotest.(check int) "five envelopes inside" 5 (Peer.batch_envelopes sender);
  Alcotest.(check bool) "framing overhead saved" true
    (Peer.batch_bytes_saved sender > 0);
  Alcotest.(check int) "one object message on the wire" 1
    (Stats.messages (Net.stats net) Stats.Object_msg)

let test_batch_budget_bounds_frames () =
  let net = make_net () in
  (* A budget smaller than two envelopes: every send flushes its own
     frame immediately. *)
  let sender = Peer.create ~batch_bytes:1 ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  let received = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr received);
  for i = 1 to 4 do
    Peer.send_value sender ~dst:"receiver"
      (Demo.make_social_person (Peer.registry sender)
         ~name:(Printf.sprintf "s%d" i) ~age:i)
  done;
  Net.run net;
  Alcotest.(check int) "all delivered" 4 !received;
  Alcotest.(check int) "one frame per send under a tiny budget" 4
    (Peer.batch_messages sender)

let test_tdesc_binary_negotiated () =
  let run ~tdesc_binary =
    let net = make_net () in
    let sender = Peer.create ~net "sender" in
    let receiver = Peer.create ~tdesc_binary ~net "receiver" in
    Peer.publish_assembly sender (Demo.social_assembly ());
    Peer.publish_assembly receiver (Demo.news_assembly ());
    let received = ref 0 in
    Peer.register_interest receiver ~interest:Demo.news_person
      (fun ~from:_ _ -> incr received);
    Peer.send_value sender ~dst:"receiver"
      (Demo.make_social_person (Peer.registry sender) ~name:"T" ~age:1);
    Net.run net;
    (!received, Stats.bytes (Net.stats net) Stats.Tdesc_reply)
  in
  let xml_received, xml_bytes = run ~tdesc_binary:false in
  let bin_received, bin_bytes = run ~tdesc_binary:true in
  Alcotest.(check int) "xml delivered" 1 xml_received;
  Alcotest.(check int) "binary delivered" 1 bin_received;
  Alcotest.(check bool)
    (Printf.sprintf "binary tdesc replies are smaller (%d < %d)" bin_bytes
       xml_bytes)
    true (bin_bytes < xml_bytes)

let () =
  Alcotest.run "core-protocol"
    [
      ( "pass-by-value",
        [
          Alcotest.test_case "conformant object delivered via proxy" `Quick
            test_pass_by_value_conformant;
          Alcotest.test_case "non-conformant rejected before code download"
            `Quick test_non_conformant_rejected_without_code_download;
          Alcotest.test_case "known GUID skips all fetches" `Quick
            test_known_guid_skips_all_fetches;
          Alcotest.test_case "repeat sends reuse cached code" `Quick
            test_second_send_uses_cached_code;
          Alcotest.test_case "eager baseline ships everything" `Quick
            test_eager_mode_ships_everything;
          Alcotest.test_case "SOAP codec end-to-end" `Quick
            test_soap_codec_roundtrip_through_protocol;
          Alcotest.test_case "nested object graph" `Quick
            test_nested_object_graph_travels;
          Alcotest.test_case "cyclic object graph" `Quick
            test_cycle_in_object_graph;
          Alcotest.test_case "missing assembly fails gracefully" `Quick
            test_missing_assembly_fails_gracefully;
          Alcotest.test_case "burst of new-type objects" `Quick
            test_burst_of_new_type_objects;
          Alcotest.test_case "split assemblies wait for every fetch" `Quick
            test_split_assemblies_wait_for_every_fetch;
          Alcotest.test_case "interest listing and removal" `Quick
            test_interest_listing_and_removal;
          Alcotest.test_case "protocol over lossy reliable network" `Quick
            test_protocol_over_lossy_reliable_network;
          Alcotest.test_case "request timeout degrades to rejection" `Quick
            test_request_timeout_degrades_to_rejection;
          Alcotest.test_case "primitive payloads reach the sink" `Quick
            test_primitive_payload_goes_to_sink;
          Alcotest.test_case "self-supertype payload returns" `Quick
            test_self_supertype_payload_returns;
        ] );
      ( "observability",
        [
          Alcotest.test_case "repeat traffic raises cache counters" `Quick
            test_repeat_traffic_cache_counters;
          Alcotest.test_case "new type keeps unrelated verdicts" `Quick
            test_new_type_preserves_unrelated_verdicts;
          Alcotest.test_case "event log is a bounded ring" `Quick
            test_event_log_bounded;
          Alcotest.test_case "rejection checks once" `Quick
            test_rejection_checks_once;
        ] );
      ( "messages",
        [
          Alcotest.test_case "sizes and categories" `Quick
            test_message_sizes_and_categories;
          Alcotest.test_case "describe" `Quick
            test_message_describe_is_informative;
        ] );
      ( "wire-efficiency",
        [
          Alcotest.test_case "handles shrink repeat traffic" `Quick
            test_handles_shrink_repeat_traffic;
          Alcotest.test_case "table drop renegotiates" `Quick
            test_handle_table_drop_renegotiates;
          Alcotest.test_case "batching coalesces same instant" `Quick
            test_batching_coalesces_same_instant;
          Alcotest.test_case "tiny budget bounds frames" `Quick
            test_batch_budget_bounds_frames;
          Alcotest.test_case "binary tdesc negotiated" `Quick
            test_tdesc_binary_negotiated;
        ] );
      ( "pass-by-reference",
        [
          Alcotest.test_case "remote invocation through conformant proxy"
            `Quick test_remote_invocation_conformant;
          Alcotest.test_case "remote errors propagate" `Quick
            test_remote_invocation_error_propagates;
          Alcotest.test_case "non-conformant acquire fails" `Quick
            test_acquire_non_conformant_fails;
          Alcotest.test_case "type description fetch" `Quick
            test_fetch_type_description;
          Alcotest.test_case "object argument downloads code" `Quick
            test_remote_invocation_with_object_argument;
          Alcotest.test_case "eager rejection still pays" `Quick
            test_eager_mode_rejection_still_pays;
        ] );
    ]
