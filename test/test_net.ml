(* Tests for the discrete-event network simulator. *)

module Sim = Pti_net.Sim
module Net = Pti_net.Net
module Stats = Pti_net.Stats

let test_sim_ordering () =
  let sim = Sim.create () in
  let trace = ref [] in
  Sim.schedule sim ~delay:5. (fun () -> trace := "c" :: !trace);
  Sim.schedule sim ~delay:1. (fun () -> trace := "a" :: !trace);
  Sim.schedule sim ~delay:3. (fun () -> trace := "b" :: !trace);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ]
    (List.rev !trace);
  Alcotest.(check (float 1e-9)) "clock at last event" 5. (Sim.now sim)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let trace = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:1. (fun () -> trace := i :: !trace)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ]
    (List.rev !trace)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let trace = ref [] in
  Sim.schedule sim ~delay:1. (fun () ->
      trace := "outer" :: !trace;
      Sim.schedule sim ~delay:1. (fun () -> trace := "inner" :: !trace));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ]
    (List.rev !trace);
  Alcotest.(check (float 1e-9)) "clock" 2. (Sim.now sim)

let test_sim_run_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~delay:1. (fun () -> incr fired);
  Sim.schedule sim ~delay:10. (fun () -> incr fired);
  Sim.run_until sim 5.;
  Alcotest.(check int) "only early events" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock advanced to horizon" 5. (Sim.now sim);
  Alcotest.(check int) "one pending" 1 (Sim.pending sim)

let test_sim_negative_delay_clamped () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.schedule sim ~delay:5. (fun () ->
      Sim.schedule sim ~delay:(-3.) (fun () -> fired := true));
  Sim.run sim;
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check (float 1e-9)) "no time travel" 5. (Sim.now sim)

let test_net_latency_and_bandwidth () =
  let net = Net.create ~default_latency_ms:2. ~default_bandwidth_bpms:100. () in
  let arrival = ref nan in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net ~src:_ () ->
      arrival := Net.now_ms net);
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:300 ();
  Net.run net;
  (* 2 ms latency + 300/100 ms serialization. *)
  Alcotest.(check (float 1e-9)) "delivery time" 5. !arrival

let test_net_link_override () =
  let net = Net.create ~default_latency_ms:1. ~default_bandwidth_bpms:1e9 () in
  let arrival = ref nan in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net ~src:_ () ->
      arrival := Net.now_ms net);
  Net.set_link net "a" "b" ~latency_ms:50. ~bandwidth_bpms:1e9;
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:0 ();
  Net.run net;
  Alcotest.(check bool) "link latency used" true (!arrival >= 50.)

let test_net_stats_accounting () =
  let net = Net.create () in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:100 ();
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:50 ();
  Net.send net ~src:"b" ~dst:"a" ~category:Stats.Tdesc_reply ~size:30 ();
  Net.run net;
  let s = Net.stats net in
  Alcotest.(check int) "obj msgs" 2 (Stats.messages s Stats.Object_msg);
  Alcotest.(check int) "obj bytes" 150 (Stats.bytes s Stats.Object_msg);
  Alcotest.(check int) "tdesc bytes" 30 (Stats.bytes s Stats.Tdesc_reply);
  Alcotest.(check int) "total" 180 (Stats.total_bytes s);
  Alcotest.(check int) "total msgs" 3 (Stats.total_messages s)

let test_net_partition () =
  let net = Net.create () in
  let delivered = ref 0 in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> incr delivered);
  Net.partition net "a" "b";
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ();
  Net.run net;
  Alcotest.(check int) "dropped" 0 !delivered;
  Alcotest.(check int) "counted" 1 (Net.dropped_messages net);
  Net.heal net "a" "b";
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ();
  Net.run net;
  Alcotest.(check int) "healed" 1 !delivered

let test_net_drop_rate () =
  let net = Net.create ~drop_rate:1.0 () in
  let delivered = ref 0 in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> incr delivered);
  for _ = 1 to 10 do
    Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ()
  done;
  Net.run net;
  Alcotest.(check int) "all dropped" 0 !delivered;
  Alcotest.(check int) "all counted" 10 (Net.dropped_messages net)

let test_net_unknown_host () =
  let net = Net.create () in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  (match Net.send net ~src:"a" ~dst:"ghost" ~category:Stats.Control ~size:1 () with
  | _ -> Alcotest.fail "unknown host should raise"
  | exception Invalid_argument _ -> ());
  match Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ()) with
  | _ -> Alcotest.fail "duplicate host should raise"
  | exception Invalid_argument _ -> ()

let test_reliable_survives_loss () =
  (* 30% loss, reliability on: everything still arrives exactly once. *)
  let net =
    Net.create ~drop_rate:0.3 ~reliability:Net.default_reliability ~seed:99L ()
  in
  let got = ref [] in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ (_ : int) -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ i -> got := i :: !got);
  for i = 1 to 50 do
    Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:10 i
  done;
  Net.run net;
  Alcotest.(check (list int)) "all delivered exactly once"
    (List.init 50 (fun i -> i + 1))
    (List.sort compare !got);
  Alcotest.(check bool) "retransmissions happened" true
    (Net.retransmissions net > 0);
  Alcotest.(check int) "nothing abandoned" 0 (Net.lost_messages net)

let test_reliable_gives_up_on_partition () =
  let reliability = { Net.default_reliability with Net.max_retries = 2 } in
  let net = Net.create ~reliability ~seed:4L () in
  let delivered = ref 0 in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> incr delivered);
  Net.partition net "a" "b";
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ();
  Net.run net;
  Alcotest.(check int) "never delivered" 0 !delivered;
  Alcotest.(check int) "abandoned after retries" 1 (Net.lost_messages net);
  Alcotest.(check int) "3 attempts" 3 (Net.dropped_messages net)

let test_reliable_delivers_after_heal () =
  (* A partition shorter than the retry budget only delays delivery. *)
  let reliability =
    { Net.retransmit_ms = 10.; max_retries = 10; ack_bytes = 16 }
  in
  let net = Net.create ~reliability ~seed:4L () in
  let delivered_at = ref nan in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net ~src:_ () ->
      delivered_at := Net.now_ms net);
  Net.partition net "a" "b";
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ();
  (* Heal at t=35ms, while retries are still scheduled. *)
  Pti_net.Sim.schedule (Net.sim net) ~delay:35. (fun () -> Net.heal net "a" "b");
  Net.run net;
  Alcotest.(check bool) "delivered after heal" true (!delivered_at >= 35.);
  Alcotest.(check int) "not abandoned" 0 (Net.lost_messages net)

let test_partition_kills_in_flight () =
  (* A cut severs messages already on the wire, not just future sends. *)
  let net = Net.create ~default_latency_ms:10. () in
  let delivered = ref 0 in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> incr delivered);
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ();
  (* The message lands at t=10; the cable is cut at t=5. *)
  Pti_net.Sim.schedule (Net.sim net) ~delay:5. (fun () ->
      Net.partition net "a" "b");
  Net.run net;
  Alcotest.(check int) "in-flight message lost" 0 !delivered;
  Alcotest.(check int) "counted as dropped" 1 (Net.dropped_messages net);
  Net.heal net "a" "b";
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ();
  Net.run net;
  Alcotest.(check int) "healed link carries traffic" 1 !delivered

let test_reliable_partition_kills_in_flight_then_recovers () =
  (* Under ARQ the in-flight loss is repaired by retransmission once the
     link heals: exactly-once delivery, nothing abandoned. *)
  let reliability =
    { Net.retransmit_ms = 30.; max_retries = 10; ack_bytes = 16 }
  in
  let net = Net.create ~reliability ~default_latency_ms:10. ~seed:4L () in
  let deliveries = ref 0 in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> incr deliveries);
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ();
  Pti_net.Sim.schedule (Net.sim net) ~delay:5. (fun () ->
      Net.partition net "a" "b");
  Pti_net.Sim.schedule (Net.sim net) ~delay:50. (fun () ->
      Net.heal net "a" "b");
  Net.run net;
  Alcotest.(check int) "delivered exactly once after heal" 1 !deliveries;
  Alcotest.(check bool) "first attempt lost in flight" true
    (Net.dropped_messages net >= 1);
  Alcotest.(check int) "not abandoned" 0 (Net.lost_messages net)

let test_reliable_charges_retransmissions () =
  let net =
    Net.create ~drop_rate:0.5
      ~reliability:Net.default_reliability ~seed:2L ()
  in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> ());
  for _ = 1 to 20 do
    Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:100 ()
  done;
  Net.run net;
  let s = Net.stats net in
  (* More bytes than the 20 * 100 a loss-free run would charge. *)
  Alcotest.(check bool) "loss costs bytes" true
    (Stats.bytes s Stats.Object_msg > 2000);
  Alcotest.(check bool) "acks charged as control" true
    (Stats.bytes s Stats.Control > 0)

let test_trace_records_and_renders () =
  let net = Net.create () in
  let trace = Pti_net.Trace.attach net in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:100 ();
  Net.send net ~src:"b" ~dst:"a" ~category:Stats.Control ~size:5 ();
  Net.run net;
  Alcotest.(check int) "two entries" 2 (Pti_net.Trace.count trace ());
  Alcotest.(check int) "filtered" 1
    (Pti_net.Trace.count trace ~category:Stats.Object_msg ());
  (match Pti_net.Trace.entries trace with
  | [ e1; e2 ] ->
      Alcotest.(check string) "first src" "a" e1.Pti_net.Trace.src;
      Alcotest.(check string) "second src" "b" e2.Pti_net.Trace.src;
      Alcotest.(check int) "attempt 0" 0 e1.Pti_net.Trace.attempt
  | _ -> Alcotest.fail "expected two entries");
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    ln > 0 && go 0
  in
  let log = Format.asprintf "%a" Pti_net.Trace.pp_log trace in
  Alcotest.(check bool) "log mentions category" true (contains log "object");
  let seq = Format.asprintf "%a" Pti_net.Trace.pp_sequence trace in
  Alcotest.(check bool) "sequence has arrows" true
    (String.length seq > 0 && String.contains seq '>');
  Pti_net.Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (Pti_net.Trace.count trace ())

let test_trace_records_retransmissions () =
  let net =
    Net.create ~drop_rate:1.0
      ~reliability:{ Net.default_reliability with Net.max_retries = 2 }
      ~seed:1L ()
  in
  let trace = Pti_net.Trace.attach net in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 ();
  Net.run net;
  Alcotest.(check int) "3 attempts traced" 3 (Pti_net.Trace.count trace ());
  Alcotest.(check bool) "attempt numbers grow" true
    (List.map (fun e -> e.Pti_net.Trace.attempt) (Pti_net.Trace.entries trace)
    = [ 0; 1; 2 ])

let object_latency m =
  match Pti_obs.Metrics.find m "net.latency_ms.object" with
  | Some (Pti_obs.Metrics.Histogram h) -> h
  | _ -> Alcotest.fail "net.latency_ms.object missing"

let test_latency_percentiles () =
  let m = Pti_obs.Metrics.create () in
  let net =
    Net.create ~default_latency_ms:10. ~default_bandwidth_bpms:1e9 ~metrics:m
      ()
  in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ () -> ());
  for _ = 1 to 9 do
    Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:0 ()
  done;
  Net.run net;
  let h = object_latency m in
  Alcotest.(check int) "samples" 9 h.Pti_obs.Metrics.h_count;
  Alcotest.(check (option (float 1e-9))) "median" (Some 10.)
    (Pti_obs.Metrics.quantile h 0.5);
  (match Pti_obs.Metrics.find m "net.latency_ms.control" with
  | Some (Pti_obs.Metrics.Histogram c) ->
      Alcotest.(check (option (float 1e-9))) "empty category" None
        (Pti_obs.Metrics.quantile c 0.5)
  | _ -> Alcotest.fail "net.latency_ms.control missing");
  (* Under loss + reliability, latencies include the retry waits. A
     bucket bound above 50 ms puts the observation itself above 50 ms:
     at least one 50 ms retransmit interval. *)
  let lm = Pti_obs.Metrics.create () in
  let lossy =
    Net.create ~drop_rate:0.5 ~reliability:Net.default_reliability ~seed:3L
      ~metrics:lm ()
  in
  Net.add_host lossy "a" ~handler:(fun ~net:_ ~src:_ () -> ());
  Net.add_host lossy "b" ~handler:(fun ~net:_ ~src:_ () -> ());
  for _ = 1 to 20 do
    Net.send lossy ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:0 ()
  done;
  Net.run lossy;
  match Pti_obs.Metrics.quantile (object_latency lm) 0.95 with
  | Some p95 -> Alcotest.(check bool) "p95 includes retries" true (p95 > 50.)
  | None -> Alcotest.fail "no p95"

(* Latencies live only in the registry's fixed-bucket histograms, so a
   long-lived fabric's memory does not grow with the traffic it has
   carried. *)
let test_latency_store_constant () =
  let m = Pti_obs.Metrics.create () in
  let s = Stats.create ~metrics:m () in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  for i = 1 to 1_000_000 do
    Stats.record_latency s Stats.Object_msg ~ms:(float_of_int (i mod 997))
  done;
  let grown = live () - before in
  (* [s] must still be reachable when the heap is measured. *)
  ignore (Sys.opaque_identity s);
  Alcotest.(check int) "all observed" 1_000_000 (object_latency m).h_count;
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew by %d words" grown)
    true (grown < 10_000)

let test_stats_metrics_registry () =
  let m = Pti_obs.Metrics.create () in
  let s = Stats.create ~metrics:m () in
  Stats.record_latency s Stats.Object_msg ~ms:3.;
  Stats.record s Stats.Object_msg ~bytes:42;
  (match Pti_obs.Metrics.find m "net.latency_ms.object" with
  | Some (Pti_obs.Metrics.Histogram h) ->
      Alcotest.(check int) "histogram fed" 1 h.Pti_obs.Metrics.h_count
  | _ -> Alcotest.fail "net.latency_ms.object missing");
  match Pti_obs.Metrics.find m "net.bytes.object" with
  | Some (Pti_obs.Metrics.Gauge v) ->
      Alcotest.(check (float 0.)) "bytes gauge live" 42. v
  | _ -> Alcotest.fail "net.bytes.object missing"

let test_stats_reset () =
  let a = Stats.create () in
  Stats.record a Stats.Object_msg ~bytes:10;
  Stats.record a Stats.Control ~bytes:1;
  Stats.reset a;
  Alcotest.(check int) "reset" 0 (Stats.total_bytes a)

let test_determinism () =
  (* Two identically-seeded networks with jitter produce identical
     delivery times. *)
  let run () =
    let net = Net.create ~jitter_ms:2. ~seed:123L () in
    let times = ref [] in
    Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ () -> ());
    Net.add_host net "b" ~handler:(fun ~net ~src:_ () ->
        times := Net.now_ms net :: !times);
    for i = 1 to 20 do
      Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:i ()
    done;
    Net.run net;
    !times
  in
  Alcotest.(check (list (float 1e-12))) "deterministic" (run ()) (run ())

(* ---------------------------------------------------------------- *)
(* Crash/restart: remove_host + re-registration                       *)
(* ---------------------------------------------------------------- *)

let test_remove_host_and_restart () =
  let net = Net.create () in
  let got = ref [] in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ _ -> ());
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ s -> got := s :: !got);
  Alcotest.check_raises "duplicate add still refuses"
    (Invalid_argument "Net.add_host: duplicate address \"b\"") (fun () ->
      Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ _ -> ()));
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 "before";
  Net.run net;
  (* Crash: the host disappears; frames addressed to it are silently
     dropped (it was known once), not a programming error. *)
  Net.remove_host net "b";
  let dropped0 = Net.dropped_messages net in
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 "while down";
  Net.run net;
  Alcotest.(check bool) "dropped while down" true
    (Net.dropped_messages net > dropped0);
  (* Restart: re-registration under the same address is legal again. *)
  Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ s -> got := s :: !got);
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Control ~size:1 "after";
  Net.run net;
  Alcotest.(check (list string)) "messages around the crash"
    [ "before"; "after" ] (List.rev !got);
  (* A host that never existed is still a programming error. *)
  Alcotest.check_raises "never-known dst raises"
    (Invalid_argument "Net.send: unknown host \"zed\"") (fun () ->
      Net.send net ~src:"a" ~dst:"zed" ~category:Stats.Control ~size:1 "x")

let test_arq_redelivers_across_restart () =
  (* A message sent while the destination is down is retransmitted until
     the host comes back — crash/restart inside the ARQ retry budget
     loses nothing. *)
  let net =
    Net.create
      ~reliability:{ Net.retransmit_ms = 10.; max_retries = 10; ack_bytes = 4 }
      ()
  in
  let sim = Net.sim net in
  let got = ref [] in
  let handler ~net:_ ~src:_ s = got := s :: !got in
  Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ _ -> ());
  Net.add_host net "b" ~handler;
  Net.remove_host net "b";
  Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:10 "m";
  Sim.schedule sim ~delay:35. (fun () -> Net.add_host net "b" ~handler);
  Net.run net;
  Alcotest.(check (list string)) "redelivered after restart" [ "m" ] !got;
  Alcotest.(check int) "nothing lost" 0 (Net.lost_for net Stats.Object_msg)

(* ---------------------------------------------------------------- *)
(* Model-based ARQ property                                           *)
(* ---------------------------------------------------------------- *)

(* Random loss (data and acks alike — both directions share the coin),
   many messages: the ARQ layer must deliver each payload at most once,
   account for every message as delivered or lost, and charge each
   attempt's bytes. *)
let prop_arq_model =
  QCheck.Test.make
    ~name:"ARQ model: exactly-once, conservation, charged retransmissions"
    ~count:60
    QCheck.(triple (int_bound 899) (1 -- 25) small_int)
    (fun (drop_pm, n, seed) ->
      let drop_rate = float_of_int drop_pm /. 1000. in
      let net =
        Net.create ~drop_rate
          ~reliability:
            { Net.retransmit_ms = 20.; max_retries = 6; ack_bytes = 4 }
          ~seed:(Int64.of_int seed) ()
      in
      let delivered : (int, int) Hashtbl.t = Hashtbl.create 16 in
      Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ _ -> ());
      Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ i ->
          Hashtbl.replace delivered i
            (1 + Option.value ~default:0 (Hashtbl.find_opt delivered i)));
      for i = 1 to n do
        Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:100 i
      done;
      Net.run net;
      let doubly =
        Hashtbl.fold (fun _ c acc -> acc || c > 1) delivered false
      in
      let lost = Net.lost_for net Stats.Object_msg in
      let attempts = n + Net.retransmissions net in
      (not doubly)
      && Hashtbl.length delivered + lost = n
      && Stats.bytes (Net.stats net) Stats.Object_msg = attempts * 100)

(* Injected duplication on top of loss: extra copies of data frames (and
   their extra acks) must never double-deliver. *)
let prop_arq_duplication_exactly_once =
  QCheck.Test.make ~name:"ARQ under injected duplication stays exactly-once"
    ~count:40
    QCheck.(pair (int_bound 500) small_int)
    (fun (drop_pm, seed) ->
      let net =
        Net.create
          ~drop_rate:(float_of_int drop_pm /. 1000.)
          ~reliability:
            { Net.retransmit_ms = 20.; max_retries = 6; ack_bytes = 4 }
          ~seed:(Int64.of_int seed) ()
      in
      Net.set_fault_hooks net
        (Some
           {
             Pti_net.Faults.no_hooks with
             Pti_net.Faults.fh_duplicates = (fun ~now:_ ~src:_ ~dst:_ -> 1);
           });
      let n = 15 in
      let delivered : (int, int) Hashtbl.t = Hashtbl.create 16 in
      Net.add_host net "a" ~handler:(fun ~net:_ ~src:_ _ -> ());
      Net.add_host net "b" ~handler:(fun ~net:_ ~src:_ i ->
          Hashtbl.replace delivered i
            (1 + Option.value ~default:0 (Hashtbl.find_opt delivered i)));
      for i = 1 to n do
        Net.send net ~src:"a" ~dst:"b" ~category:Stats.Object_msg ~size:10 i
      done;
      Net.run net;
      let doubly =
        Hashtbl.fold (fun _ c acc -> acc || c > 1) delivered false
      in
      (not doubly)
      && Hashtbl.length delivered + Net.lost_for net Stats.Object_msg = n)

(* ---------------------------------------------------------------- *)
(* Clock: sim passthrough pin + monotonic clock on a private Sim      *)
(* ---------------------------------------------------------------- *)

module Clock = Pti_net.Clock

(* The regression test promised by clock.mli: scheduling through a
   sim-backed Clock must leave the simulator's pending-event set
   bit-identical (same labels, same timestamps, same sequence numbers)
   to scheduling against Sim directly — the model checker's schedules
   and fingerprints are keyed on exactly that set. *)
let test_clock_sim_labels_verbatim () =
  let direct = Sim.create () in
  let wrapped_sim = Sim.create () in
  let clock = Clock.of_sim wrapped_sim in
  let trace_a = ref [] and trace_b = ref [] in
  let record tr tag () = tr := tag :: !tr in
  (* Same schedule sequence on both sides. *)
  Sim.schedule direct
    ~label:(Sim.Timer { owner = "a"; info = "req-timeout#1" })
    ~delay:25. (record trace_a "timer");
  Sim.schedule direct
    ~label:(Sim.Act { owner = "a"; info = "batch-flush" })
    ~delay:5. (record trace_a "act");
  Sim.schedule direct
    ~label:(Sim.Timer { owner = "b"; info = "lease" })
    ~delay:25. (record trace_a "timer2");
  Clock.schedule clock
    ~label:(Sim.Timer { owner = "a"; info = "req-timeout#1" })
    ~delay_ms:25. (record trace_b "timer");
  Clock.schedule clock
    ~label:(Sim.Act { owner = "a"; info = "batch-flush" })
    ~delay_ms:5. (record trace_b "act");
  Clock.schedule clock
    ~label:(Sim.Timer { owner = "b"; info = "lease" })
    ~delay_ms:25. (record trace_b "timer2");
  let summarize sim =
    List.map
      (fun { Sim.i_at; i_seq; i_label } ->
        Format.asprintf "%g/%d/%a" i_at i_seq Sim.pp_label i_label)
      (Sim.pending_events sim)
  in
  Alcotest.(check (list string))
    "pending-event sets identical" (summarize direct)
    (summarize wrapped_sim);
  Sim.run direct;
  Sim.run wrapped_sim;
  Alcotest.(check (list string))
    "firing order identical" (List.rev !trace_a) (List.rev !trace_b)

let test_clock_sim_passthrough () =
  let sim = Sim.create () in
  let clock = Clock.of_sim sim in
  Alcotest.(check bool) "is_sim" true (Clock.is_sim clock);
  Alcotest.(check bool) "sim exposed" true
    (match Clock.sim clock with Some s -> s == sim | None -> false);
  Clock.schedule clock
    ~label:(Sim.Act { owner = "x"; info = "a" })
    ~delay_ms:3.
    (fun () -> ());
  Alcotest.(check int) "tick is a no-op" 0 (Clock.tick clock);
  Alcotest.(check bool) "no monotonic deadline" true
    (Clock.next_due_ms clock = None);
  Alcotest.(check int) "no monotonic pending" 0 (Clock.pending clock);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "now_ms tracks Sim.now" (Sim.now sim)
    (Clock.now_ms clock)

let fake_clock start =
  let now = ref start in
  let clock = Clock.monotonic ~now:(fun () -> !now) () in
  (clock, now)

let test_clock_monotonic_order () =
  let clock, now = fake_clock 1000. in
  let trace = ref [] in
  let record tag () = trace := tag :: !trace in
  let lbl i = Sim.Timer { owner = "t"; info = i } in
  Clock.schedule clock ~label:(lbl "late") ~delay_ms:20. (record "late");
  Clock.schedule clock ~label:(lbl "early") ~delay_ms:5. (record "early");
  Clock.schedule clock ~label:(lbl "tie-1") ~delay_ms:10. (record "tie-1");
  Clock.schedule clock ~label:(lbl "tie-2") ~delay_ms:10. (record "tie-2");
  Alcotest.(check int) "all pending" 4 (Clock.pending clock);
  Alcotest.(check int) "nothing due yet" 0 (Clock.tick clock);
  now := 1012.;
  Alcotest.(check int) "three due" 3 (Clock.tick clock);
  Alcotest.(check (list string))
    "deadline then schedule order"
    [ "early"; "tie-1"; "tie-2" ]
    (List.rev !trace);
  now := 1050.;
  Alcotest.(check int) "last fires" 1 (Clock.tick clock);
  Alcotest.(check int) "drained" 0 (Clock.pending clock)

let test_clock_monotonic_reentrant_tick () =
  let clock, now = fake_clock 0. in
  let trace = ref [] in
  let lbl i = Sim.Act { owner = "t"; info = i } in
  Clock.schedule clock ~label:(lbl "outer") ~delay_ms:5. (fun () ->
      trace := "outer" :: !trace;
      (* Already due when scheduled — must fire within this same tick. *)
      Clock.schedule clock ~label:(lbl "inner") ~delay_ms:0. (fun () ->
          trace := "inner" :: !trace));
  now := 10.;
  Alcotest.(check int) "both fire in one tick" 2 (Clock.tick clock);
  Alcotest.(check (list string)) "outer before inner" [ "outer"; "inner" ]
    (List.rev !trace)

let test_clock_monotonic_cancel_idempotent () =
  let clock, now = fake_clock 0. in
  let fired = ref 0 in
  let lbl = Sim.Timer { owner = "t"; info = "guard" } in
  let cancel =
    Clock.schedule_cancellable clock ~label:lbl ~delay_ms:5. (fun () ->
        incr fired)
  in
  Clock.schedule clock ~label:lbl ~delay_ms:5. (fun () -> incr fired);
  cancel ();
  cancel ();
  (* second cancel must be harmless *)
  now := 20.;
  Alcotest.(check int) "only the live timer fires" 1 (Clock.tick clock);
  Alcotest.(check int) "fired once" 1 !fired

let test_clock_monotonic_next_due () =
  let clock, now = fake_clock 100. in
  Alcotest.(check bool) "empty -> None" true (Clock.next_due_ms clock = None);
  Clock.schedule clock
    ~label:(Sim.Timer { owner = "t"; info = "g" })
    ~delay_ms:10.
    (fun () -> ());
  (match Clock.next_due_ms clock with
  | Some d -> Alcotest.(check (float 1e-9)) "due in 10ms" 10. d
  | None -> Alcotest.fail "expected a deadline");
  now := 125.;
  Alcotest.(check bool) "overdue -> Some 0." true
    (Clock.next_due_ms clock = Some 0.);
  ignore (Clock.tick clock);
  Alcotest.(check bool) "drained -> None" true (Clock.next_due_ms clock = None)

let test_clock_monotonic_clamped () =
  let clock, now = fake_clock 1000. in
  Alcotest.(check (float 1e-9)) "private epoch" 0. (Clock.now_ms clock);
  now := 1040.;
  Alcotest.(check (float 1e-9)) "advances" 40. (Clock.now_ms clock);
  now := 900.;
  (* system clock stepped backwards *)
  Alcotest.(check (float 1e-9)) "never goes backwards" 40.
    (Clock.now_ms clock);
  now := 1060.;
  Alcotest.(check (float 1e-9)) "resumes" 60. (Clock.now_ms clock)

(* ---------------------------------------------------------------- *)
(* Arq: pure reliability bookkeeping                                  *)
(* ---------------------------------------------------------------- *)

module Arq = Pti_net.Arq

let test_arq_backoff_schedule () =
  let p = { Arq.retransmit_ms = 50.; max_retries = 8; ack_bytes = 16 } in
  Alcotest.(check (float 1e-9)) "attempt 0" 50. (Arq.backoff_ms p ~attempt:0);
  Alcotest.(check (float 1e-9)) "attempt 1" 100. (Arq.backoff_ms p ~attempt:1);
  Alcotest.(check (float 1e-9)) "attempt 4" 800. (Arq.backoff_ms p ~attempt:4);
  Alcotest.(check (float 1e-9)) "capped at 32x" 1600.
    (Arq.backoff_ms p ~attempt:5);
  Alcotest.(check (float 1e-9)) "stays capped" 1600.
    (Arq.backoff_ms p ~attempt:40)

let test_arq_give_up_boundary () =
  let p = { Arq.default with Arq.max_retries = 3 } in
  Alcotest.(check bool) "within budget" false (Arq.give_up p ~attempt:3);
  Alcotest.(check bool) "one past budget" true (Arq.give_up p ~attempt:4)

let test_arq_ledger () =
  let l = Arq.Ledger.create () in
  Alcotest.(check int) "first id" 0 (Arq.Ledger.fresh_id l);
  Alcotest.(check int) "second id" 1 (Arq.Ledger.fresh_id l);
  Alcotest.(check int) "issued" 2 (Arq.Ledger.issued l);
  Alcotest.(check bool) "not acked yet" false (Arq.Ledger.is_acked l 0);
  Arq.Ledger.mark_acked l 0;
  Alcotest.(check bool) "acked" true (Arq.Ledger.is_acked l 0);
  Alcotest.(check bool) "ack is per-id" false (Arq.Ledger.is_acked l 1);
  Alcotest.(check bool) "not delivered yet" false (Arq.Ledger.is_delivered l 1);
  Arq.Ledger.mark_delivered l 1;
  Alcotest.(check bool) "delivered" true (Arq.Ledger.is_delivered l 1);
  Alcotest.(check bool) "delivery is per-id" false (Arq.Ledger.is_delivered l 0)

let () =
  Alcotest.run "net"
    [
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick
            test_sim_nested_scheduling;
          Alcotest.test_case "run_until" `Quick test_sim_run_until;
          Alcotest.test_case "negative delay" `Quick
            test_sim_negative_delay_clamped;
        ] );
      ( "net",
        [
          Alcotest.test_case "latency+bandwidth" `Quick
            test_net_latency_and_bandwidth;
          Alcotest.test_case "link override" `Quick test_net_link_override;
          Alcotest.test_case "stats" `Quick test_net_stats_accounting;
          Alcotest.test_case "partition" `Quick test_net_partition;
          Alcotest.test_case "drop rate" `Quick test_net_drop_rate;
          Alcotest.test_case "unknown host" `Quick test_net_unknown_host;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "survives loss" `Quick test_reliable_survives_loss;
          Alcotest.test_case "gives up on partition" `Quick
            test_reliable_gives_up_on_partition;
          Alcotest.test_case "delivers after heal" `Quick
            test_reliable_delivers_after_heal;
          Alcotest.test_case "partition kills in-flight" `Quick
            test_partition_kills_in_flight;
          Alcotest.test_case "in-flight loss repaired after heal" `Quick
            test_reliable_partition_kills_in_flight_then_recovers;
          Alcotest.test_case "retransmissions charged" `Quick
            test_reliable_charges_retransmissions;
        ] );
      ( "crash-restart",
        [
          Alcotest.test_case "remove_host + re-add" `Quick
            test_remove_host_and_restart;
          Alcotest.test_case "ARQ redelivers across restart" `Quick
            test_arq_redelivers_across_restart;
        ] );
      ( "arq-model",
        [
          QCheck_alcotest.to_alcotest prop_arq_model;
          QCheck_alcotest.to_alcotest prop_arq_duplication_exactly_once;
        ] );
      ( "clock",
        [
          Alcotest.test_case "sim labels verbatim" `Quick
            test_clock_sim_labels_verbatim;
          Alcotest.test_case "sim passthrough" `Quick
            test_clock_sim_passthrough;
          Alcotest.test_case "monotonic firing order" `Quick
            test_clock_monotonic_order;
          Alcotest.test_case "re-entrant tick" `Quick
            test_clock_monotonic_reentrant_tick;
          Alcotest.test_case "cancel idempotent" `Quick
            test_clock_monotonic_cancel_idempotent;
          Alcotest.test_case "next_due_ms" `Quick
            test_clock_monotonic_next_due;
          Alcotest.test_case "clamped non-decreasing" `Quick
            test_clock_monotonic_clamped;
        ] );
      ( "arq-policy",
        [
          Alcotest.test_case "backoff schedule" `Quick
            test_arq_backoff_schedule;
          Alcotest.test_case "give_up boundary" `Quick
            test_arq_give_up_boundary;
          Alcotest.test_case "ledger" `Quick test_arq_ledger;
        ] );
      ( "stats",
        [
          Alcotest.test_case "reset" `Quick test_stats_reset;
          Alcotest.test_case "latency percentiles" `Quick
            test_latency_percentiles;
          Alcotest.test_case "latency store is constant-size" `Quick
            test_latency_store_constant;
          Alcotest.test_case "metrics registry" `Quick
            test_stats_metrics_registry;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records and renders" `Quick
            test_trace_records_and_renders;
          Alcotest.test_case "records retransmissions" `Quick
            test_trace_records_retransmissions;
        ] );
    ]
