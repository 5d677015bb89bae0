(* Tests for the pluggable transport fabric: stream loopback exchange,
   the shared fault model on real sockets (counting the same as on the
   simulator), partitions, frames lost with a dying connection, and a
   forked two-process publish -> conform -> invoke run over unix
   sockets.

   Everything here drives kernel sockets; where the environment cannot
   provide them (no AF_UNIX/AF_INET, no fork) the tests skip cleanly
   instead of failing. *)

module Transport = Pti_transport.Transport
module Stats = Pti_net.Stats
module Peer = Pti_core.Peer
module Message_wire = Pti_core.Message_wire
module Demo = Pti_demo.Demo_types
module Value = Pti_cts.Value
module Proxy = Pti_proxy.Dynamic_proxy

let string_codec =
  {
    Transport.c_encode = (fun s -> s);
    c_decode =
      (fun s ->
        if String.length s > 0 && s.[0] = '!' then Error "poisoned frame"
        else Ok s);
  }

(* Socket support probe: skip rather than fail on exotic sandboxes. *)
let skip_unless_sockets domain =
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | fd -> Unix.close fd
  | exception Unix.Unix_error _ -> Alcotest.skip ()

let fresh_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pti-ttest-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  (try Unix.mkdir dir 0o700
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let fresh_unix_fabric ?reliability () =
  let dir = fresh_dir () in
  (Transport.create_unix ~dir ?reliability ~codec:string_codec (), dir)

let fabric_of_kind = function
  | Transport.Unix_socket ->
      skip_unless_sockets Unix.PF_UNIX;
      fst (fresh_unix_fabric ())
  | Transport.Tcp ->
      skip_unless_sockets Unix.PF_INET;
      Transport.create_tcp ~codec:string_codec ()
  | Transport.Sim -> invalid_arg "stream kinds only"

(* Both endpoints live on one fabric: the poll loop services the
   listener and the dialed connection in the same process. *)
let wire_pair tr ~on_b =
  let a = Transport.add_endpoint tr "a" ~handler:(fun ~src:_ _ -> ()) in
  let _b = Transport.add_endpoint tr "b" ~handler:on_b in
  (match Transport.listen_spec tr "b" with
  | Some spec -> Transport.register_remote tr "b" spec
  | None -> Alcotest.fail "endpoint b has no listen spec");
  a

let test_stream_loopback kind () =
  let tr = fabric_of_kind kind in
  let got = ref [] in
  let events = ref [] in
  Transport.on_conn_event tr (fun e -> events := e :: !events);
  let a = wire_pair tr ~on_b:(fun ~src s -> got := (src, s) :: !got) in
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "hello";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "world";
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> List.length !got = 2)
  in
  Alcotest.(check bool) "both delivered" true ok;
  Alcotest.(check (list (pair string string)))
    "payloads in order, src attributed"
    [ ("a", "hello"); ("a", "world") ]
    (List.rev !got);
  (* Receive-side accounting counts actual framed bytes. *)
  Alcotest.(check bool) "rx bytes counted" true
    (Transport.received_bytes tr Stats.Object_msg > 10);
  Alcotest.(check bool) "tx bytes counted" true
    (Stats.total_bytes (Transport.stats tr) > 10);
  Alcotest.(check bool) "connection events seen" true
    (List.exists (function Transport.Connected _ -> true | _ -> false)
       !events);
  Transport.close tr

let test_stream_fault_middleware () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr = fst (fresh_unix_fabric ()) in
  let got = ref 0 in
  let a = wire_pair tr ~on_b:(fun ~src:_ _ -> incr got) in
  let dropping = ref true in
  Transport.set_fault_hooks tr
    (Some
       {
         Pti_net.Faults.no_hooks with
         Pti_net.Faults.fh_drop = (fun ~now:_ ~src:_ ~dst:_ -> !dropping);
       });
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 "x";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 "y";
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 500.)
       (fun () -> false));
  Alcotest.(check int) "both eaten by middleware" 2
    (Transport.injected_drops tr);
  Alcotest.(check int) "nothing delivered" 0 !got;
  dropping := false;
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 "z";
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> !got = 1)
  in
  Alcotest.(check bool) "delivered once hooks stand down" true ok;
  Transport.close tr

let test_stream_corruption_and_integrity () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr = fst (fresh_unix_fabric ()) in
  let got = ref 0 in
  let a = wire_pair tr ~on_b:(fun ~src:_ _ -> incr got) in
  (* Corrupt every frame into the codec's poison pattern: the send side
     counts the mangling, the receive side counts the codec rejecting
     it — wire damage never reaches the handler. *)
  Transport.set_fault_hooks tr
    (Some
       {
         Pti_net.Faults.no_hooks with
         Pti_net.Faults.fh_corrupt =
           (fun ~now:_ ~src:_ ~dst:_ s -> Some ("!" ^ s));
       });
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 "m";
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 10_000.)
       (fun () -> Transport.integrity_drops tr = 1));
  Alcotest.(check int) "corruption charged at send" 1
    (Transport.corrupted_frames tr);
  Alcotest.(check int) "undecodable frame dropped at receive" 1
    (Transport.integrity_drops tr);
  Alcotest.(check int) "handler never saw it" 0 !got;
  (* An application-level integrity predicate screens decoded values the
     same way. *)
  Transport.set_fault_hooks tr None;
  Transport.set_integrity tr (Some (fun s -> s <> "tainted"));
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:7 "tainted";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "clean";
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> !got = 1)
  in
  Alcotest.(check bool) "clean value delivered" true ok;
  Alcotest.(check int) "tainted value screened" 2
    (Transport.integrity_drops tr);
  Transport.close tr

let test_stream_partition_heal () =
  skip_unless_sockets Unix.PF_UNIX;
  let tr = fst (fresh_unix_fabric ()) in
  let got = ref [] in
  let a = wire_pair tr ~on_b:(fun ~src:_ s -> got := s :: !got) in
  Transport.partition tr "a" "b";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:4 "lost";
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 300.)
       (fun () -> false));
  Alcotest.(check (list string)) "severed link delivers nothing" [] !got;
  Alcotest.(check bool) "drop accounted" true
    (Transport.dropped_messages tr >= 1);
  Transport.heal tr "a" "b";
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:5 "after";
  let ok =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 10_000.)
      (fun () -> !got = [ "after" ])
  in
  Alcotest.(check bool) "healed link delivers" true ok;
  Transport.close tr

(* One plan, armed once per backend: every send is duplicated once, the
   first copy of each pair is dropped and every surviving copy is
   corrupted. Both backends consult the same fault model in the same
   per-copy order, so the counters agree. *)
let fault_counts tr a =
  let calls = ref 0 in
  Transport.set_fault_hooks tr
    (Some
       {
         Pti_net.Faults.no_hooks with
         Pti_net.Faults.fh_duplicates = (fun ~now:_ ~src:_ ~dst:_ -> 1);
         fh_drop =
           (fun ~now:_ ~src:_ ~dst:_ ->
             incr calls;
             !calls mod 2 = 1);
         fh_corrupt = (fun ~now:_ ~src:_ ~dst:_ s -> Some ("!" ^ s));
       });
  List.iter
    (fun s -> Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1 s)
    [ "x"; "y"; "z" ];
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 300.)
       (fun () -> false));
  ( Transport.injected_drops tr,
    Transport.corrupted_frames tr,
    Transport.dropped_messages tr )

let test_one_plan_both_backends () =
  skip_unless_sockets Unix.PF_UNIX;
  let sim = Transport.of_net (Pti_net.Net.create ()) in
  let sim_a = Transport.add_endpoint sim "a" ~handler:(fun ~src:_ _ -> ()) in
  ignore (Transport.add_endpoint sim "b" ~handler:(fun ~src:_ _ -> ()));
  let on_sim = fault_counts sim sim_a in
  let unix = fst (fresh_unix_fabric ()) in
  let on_unix = fault_counts unix (wire_pair unix ~on_b:(fun ~src:_ _ -> ())) in
  Transport.close unix;
  Alcotest.(check (triple int int int))
    "(injected drops, corrupted frames, dropped) agree" on_sim on_unix

(* A connection that dies with frames still queued must account for
   them: they never reach the peer, so they count as lost. *)
let test_dead_connection_counts_queued_frames () =
  skip_unless_sockets Unix.PF_UNIX;
  let ta, dir = fresh_unix_fabric () in
  let tb = Transport.create_unix ~dir ~codec:string_codec () in
  let a = Transport.add_endpoint ta "a" ~handler:(fun ~src:_ _ -> ()) in
  ignore (Transport.add_endpoint tb "b" ~handler:(fun ~src:_ _ -> ()));
  (match Transport.listen_spec tb "b" with
  | Some spec -> Transport.register_remote ta "b" spec
  | None -> Alcotest.fail "endpoint b has no listen spec");
  let body = String.make 65536 'p' in
  for _ = 1 to 100 do
    Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:65536 body
  done;
  ignore (Transport.poll ta ~timeout_ms:0.);
  Transport.close tb;
  for _ = 1 to 20 do
    ignore (Transport.poll ta ~timeout_ms:10.)
  done;
  Alcotest.(check bool) "queued frames counted lost" true
    (Transport.lost_messages ta > 0);
  Transport.close ta

(* A raw dialer sends a hello, then one data frame whose PTIM body
   declares a string length that reads as negative. That must cost the
   receiving fabric one integrity drop and nothing more: [poll] returns,
   and a later send from a real endpoint is still delivered. *)
let test_hostile_frame_dropped kind () =
  let tr =
    match kind with
    | Transport.Unix_socket ->
        skip_unless_sockets Unix.PF_UNIX;
        Transport.create_unix ~dir:(fresh_dir ()) ~codec:Message_wire.codec ()
    | Transport.Tcp ->
        skip_unless_sockets Unix.PF_INET;
        Transport.create_tcp ~codec:Message_wire.codec ()
    | Transport.Sim -> invalid_arg "stream kinds only"
  in
  let got = ref 0 in
  let a = Transport.add_endpoint tr "a" ~handler:(fun ~src:_ _ -> ()) in
  ignore (Transport.add_endpoint tr "b" ~handler:(fun ~src:_ _ -> incr got));
  let spec = Option.get (Transport.listen_spec tr "b") in
  let raw, addr =
    match kind with
    | Transport.Tcp ->
        let i = String.rindex spec ':' in
        let host = String.sub spec 0 i in
        let port = String.sub spec (i + 1) (String.length spec - i - 1) in
        ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
          Unix.ADDR_INET (Unix.inet_addr_of_string host, int_of_string port) )
    | _ -> (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX spec)
  in
  Unix.connect raw addr;
  let frame = Pti_serial.Framing.encode in
  let hostile = "PTIM\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01abc" in
  (* hello, then data: category 0, an 8-byte send stamp, the body *)
  let bytes =
    frame "\x48raw" ^ frame ("\x44\x00" ^ String.make 8 '\x00' ^ hostile)
  in
  ignore (Unix.write_substring raw bytes 0 (String.length bytes));
  let within pred =
    Transport.drive_until tr ~deadline_ms:(Transport.now_ms tr +. 10_000.) pred
  in
  Alcotest.(check bool) "hostile frame dropped" true
    (within (fun () -> Transport.integrity_drops tr = 1));
  Transport.send a ~dst:"b" ~category:Stats.Object_msg ~size:1
    (Pti_core.Message.Gossip { kind = "k"; body = "after" });
  Alcotest.(check bool) "later send delivered" true
    (within (fun () -> !got = 1));
  Alcotest.(check int) "one integrity drop" 1 (Transport.integrity_drops tr);
  Unix.close raw;
  Transport.close tr

(* ------------------------------------------------------------------ *)
(* Two processes over a unix socket: publish -> conform -> invoke      *)
(* ------------------------------------------------------------------ *)

let objects = 3

(* Receiver child: interest in the social family it has never seen
   (forcing the publish/fetch/conform subprotocol against the sender),
   plus an exported greeter the sender will invoke remotely. *)
let forked_receiver tr =
  let hung_up = ref false in
  Transport.on_conn_event tr (function
    | Transport.Disconnected _ -> hung_up := true
    | Transport.Connected _ -> ());
  let peer = Peer.create ~transport:tr "receiver" in
  let delivered = ref 0 in
  Peer.register_interest peer ~interest:Demo.social_person (fun ~from:_ _ ->
      incr delivered);
  (* First export on a fresh peer => rr_id 0: the sender reconstructs
     the ref without a side channel. *)
  Peer.install_assembly peer (Demo.news_assembly ());
  ignore
    (Peer.export peer
       (Demo.make_news_person (Peer.registry peer) ~name:"greeter" ~age:9));
  let announced = ref false in
  let done_ () =
    if (not !announced) && !delivered >= objects then begin
      announced := true;
      Peer.send_gossip peer ~dst:"sender" ~kind:"test-done" ~body:""
    end;
    !announced && !hung_up
  in
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 30_000.)
       done_);
  Transport.close tr;
  if !delivered = objects then 0 else 1

let forked_sender tr =
  let sender = Peer.create ~transport:tr "sender" in
  let receiver_done = ref false in
  Peer.set_gossip_handler sender (fun ~src:_ ~kind ~body:_ ->
      if kind = "test-done" then receiver_done := true);
  Peer.install_assembly sender (Demo.news_assembly ());
  Peer.install_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly sender (Demo.social_assembly ());
  for n = 1 to objects do
    Peer.send_value sender ~dst:"receiver"
      (Demo.make_social_person (Peer.registry sender)
         ~name:(Printf.sprintf "s%d" n) ~age:n);
    ignore (Transport.poll tr ~timeout_ms:0.)
  done;
  let rref =
    { Peer.rr_host = "receiver"; rr_id = 0; rr_class = Demo.news_person }
  in
  let greeting =
    match Peer.acquire sender rref ~interest:Demo.news_person with
    | Error e -> Error ("acquire: " ^ e)
    | Ok proxy -> (
        match Proxy.invoke (Peer.registry sender) proxy "greet" [] with
        | Value.Vstring s -> Ok s
        | v -> Error ("greet returned " ^ Value.to_string v)
        | exception e -> Error ("greet raised " ^ Printexc.to_string e))
  in
  let all_done =
    Transport.drive_until tr
      ~deadline_ms:(Transport.now_ms tr +. 30_000.)
      (fun () -> !receiver_done)
  in
  Transport.close tr;
  match greeting with
  | Ok "Hello, greeter" when all_done -> 0
  | Ok s -> Printf.eprintf "unexpected greeting %S\n%!" s; 1
  | Error e -> Printf.eprintf "invoke failed: %s\n%!" e; 1

let test_forked_unix_protocol () =
  skip_unless_sockets Unix.PF_UNIX;
  (match Unix.fork () with
  | exception Unix.Unix_error _ -> Alcotest.skip ()
  | 0 -> Stdlib.exit 0
  | pid -> ignore (Unix.waitpid [] pid));
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pti-fork-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spec = Filename.concat dir "receiver.sock" in
  (* Dial retries absorb the race between the parent's first connect and
     the child's bind. *)
  let reliability =
    { Pti_net.Arq.retransmit_ms = 50.; max_retries = 8; ack_bytes = 16 }
  in
  let fabric () =
    Transport.create_unix ~dir ~reliability ~codec:Message_wire.codec ()
  in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let status =
        try
          let tr = fabric () in
          Transport.set_bind tr "receiver" spec;
          forked_receiver tr
        with _ -> 2
      in
      Stdlib.exit status
  | pid ->
      let sender_status =
        try
          let tr = fabric () in
          Transport.register_remote tr "receiver" spec;
          forked_sender tr
        with e ->
          Printf.eprintf "sender raised %s\n%!" (Printexc.to_string e);
          2
      in
      let _, child_st = Unix.waitpid [] pid in
      let child_status =
        match child_st with Unix.WEXITED n -> n | _ -> 2
      in
      (try Unix.unlink spec with Unix.Unix_error _ -> ());
      (try Unix.rmdir dir with Unix.Unix_error _ -> ());
      Alcotest.(check int) "sender side clean" 0 sender_status;
      Alcotest.(check int) "receiver side clean" 0 child_status

let () =
  Random.self_init ();
  Alcotest.run "transport"
    [
      ( "stream-loopback",
        [
          Alcotest.test_case "unix exchange" `Quick
            (test_stream_loopback Transport.Unix_socket);
          Alcotest.test_case "tcp exchange" `Quick
            (test_stream_loopback Transport.Tcp);
        ] );
      ( "stream-faults",
        [
          Alcotest.test_case "drop middleware" `Quick
            test_stream_fault_middleware;
          Alcotest.test_case "corruption + integrity" `Quick
            test_stream_corruption_and_integrity;
          Alcotest.test_case "partition + heal" `Quick
            test_stream_partition_heal;
          Alcotest.test_case "one plan, both backends, same counts" `Quick
            test_one_plan_both_backends;
          Alcotest.test_case "dead connection counts queued frames" `Quick
            test_dead_connection_counts_queued_frames;
          Alcotest.test_case "unix hostile frame dropped" `Quick
            (test_hostile_frame_dropped Transport.Unix_socket);
          Alcotest.test_case "tcp hostile frame dropped" `Quick
            (test_hostile_frame_dropped Transport.Tcp);
        ] );
      ( "two-process",
        [
          Alcotest.test_case "unix publish/conform/invoke" `Quick
            test_forked_unix_protocol;
        ] );
    ]
