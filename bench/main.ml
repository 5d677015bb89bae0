(* Benchmark harness reproducing the evaluation of "Pragmatic Type
   Interoperability" (ICDCS 2003).

   E1 (§7.1) direct vs dynamic-proxy invocation
   E2 (§7.2) type-description creation / serialization / deserialization
   E3 (§7.3) object serialization / deserialization (SOAP and binary)
   E4 (§7.4) implicit structural conformance checking
   E5 (§1/§3) optimistic protocol vs eager baseline (bytes and time)
   E6 (§4.2)  rule-weakening ablation: safety vs recall
   E9 (§6)    cluster fan-out: gossip dissemination and mirror failover
   E10        fault intensity: delivery and bytes under injected faults
   E11        wire efficiency: type handles, batching, binary tdescs
   E12        systematic exploration: DPOR + state-hash pruning power
   E13        transport backends: sim vs unix-domain vs TCP sockets
   E14        population scale: the million-session flyweight simulator
   E16        hub fan-out: the sharded flyweight block across domains

   E1-E4 are Bechamel micro-benchmarks; E5/E6 are deterministic simulated
   experiments printed as tables. Absolute numbers differ from the paper's
   2002 CLR testbed; EXPERIMENTS.md records the shape comparison. *)

open Bechamel
open Pti_cts
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Config = Pti_conformance.Config
module Proxy = Pti_proxy.Dynamic_proxy
module Bin = Pti_serial.Bin_ser
module Soap = Pti_serial.Soap_ser
module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Stats = Pti_net.Stats
module Demo = Pti_demo.Demo_types
module Workload = Pti_demo.Workload
module Cluster = Pti_cluster.Cluster
module Node = Pti_cluster.Node
module Metrics = Pti_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Bechamel runner                                                      *)
(* ------------------------------------------------------------------ *)

let quick = Array.exists (String.equal "--quick") Sys.argv

(* --json FILE: machine-readable run summary, one object per group mapping
   row names to the measured value (OLS ns/op for Bechamel groups, bytes
   or rates for the protocol tables). The "E14" group carries the
   population-scale rows, one "<N> <field>" entry per swept session
   count, mirroring the [scale.*] metric namespace `pti stats --scale`
   exposes: deliv/s (scale.deliveries_per_sec), p50/p99 ms
   (scale.latency_ms quantiles), tdesc hit (scale.cache.tdesc_hit_rate),
   flash tdesc (scale.flash.tdesc_fetches) and wall ms. *)
let json_file =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if String.equal Sys.argv.(i) "--json" then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let json_acc : (string * (string * float) list) list ref = ref []

let record_group title rows =
  if json_file <> None then json_acc := (title, rows) :: !json_acc

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_number v =
  if Float.is_nan v then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let write_json () =
  match json_file with
  | None -> ()
  | Some path ->
      let b = Buffer.create 4096 in
      Buffer.add_string b "{";
      List.iteri
        (fun i (group, rows) ->
          if i > 0 then Buffer.add_string b ",";
          Buffer.add_string b (Printf.sprintf "\n  \"%s\": {" (json_escape group));
          List.iteri
            (fun j (name, v) ->
              if j > 0 then Buffer.add_string b ",";
              Buffer.add_string b
                (Printf.sprintf "\n    \"%s\": %s" (json_escape name)
                   (json_number v)))
            rows;
          Buffer.add_string b "\n  }")
        (List.rev !json_acc);
      Buffer.add_string b "\n}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents b);
      close_out oc;
      Printf.printf "wrote %s\n" path

let cfg =
  Benchmark.cfg ~limit:2000
    ~quota:(Time.second (if quick then 0.1 else 0.5))
    ~kde:None ()

let instance = Toolkit.Instance.monotonic_clock

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

(* Nanoseconds per run, estimated by ordinary least squares. *)
let measure elt =
  let result = Benchmark.run cfg [ instance ] elt in
  match Analyze.OLS.estimates (Analyze.one ols instance result) with
  | Some [ ns ] -> ns
  | Some _ | None -> nan

let hr () = print_endline (String.make 78 '-')

let bench_group title rows =
  hr ();
  Printf.printf "%s\n" title;
  hr ();
  Printf.printf "  %-44s %14s %14s\n" "benchmark" "ns/op" "ops/s";
  let results =
    List.map
      (fun (name, fn) ->
        let ns = measure (Test.Elt.unsafe_make ~name (Staged.stage fn)) in
        Printf.printf "  %-44s %14.1f %14.0f\n" name ns (1e9 /. ns);
        (name, ns))
      rows
  in
  print_newline ();
  record_group title results;
  results

let ratio results a b =
  match List.assoc_opt a results, List.assoc_opt b results with
  | Some x, Some y when y > 0. -> x /. y
  | _ -> nan

(* ------------------------------------------------------------------ *)
(* Shared fixtures                                                      *)
(* ------------------------------------------------------------------ *)

let registry =
  Demo.fresh_registry
    [ Demo.news_assembly (); Demo.social_assembly (); Demo.trap_assembly () ]

let resolver = Td.registry_resolver registry
let checker = Checker.create ~resolver ()
let cx = Proxy.create_context registry checker
let news_person_cd = Registry.find_exn registry Demo.news_person
let news_desc = Td.of_class news_person_cd
let social_desc = Td.of_class (Registry.find_exn registry Demo.social_person)
let direct_person = Demo.make_news_person registry ~name:"Bench" ~age:33

let identity_proxy =
  Proxy.wrap cx ~interest:Demo.news_person
    ~mapping:
      (Pti_conformance.Mapping.identity_mapping ~interest:Demo.news_person
         ~actual:Demo.news_person)
    direct_person

let translating_proxy =
  let target = Demo.make_social_person registry ~name:"Bench" ~age:33 in
  match Checker.check checker ~actual:social_desc ~interest:news_desc with
  | Checker.Conformant m ->
      Proxy.wrap cx ~interest:Demo.news_person ~mapping:m target
  | Checker.Not_conformant _ -> failwith "fixture: social !<= news"

let sample_person () =
  let p = Demo.make_news_person registry ~name:"Ser" ~age:7 in
  let home =
    Eval.construct registry Demo.news_address
      [ Value.Vstring "1 Main St"; Value.Vstring "Springfield" ]
  in
  ignore (Eval.call registry p "setHome" [ home ]);
  p

(* ------------------------------------------------------------------ *)
(* E1: invocation time (§7.1)                                           *)
(* ------------------------------------------------------------------ *)

let e1 () =
  let results =
    bench_group "E1 (§7.1) invocation time: getName() on a Person"
      [
        ( "direct invocation",
          fun () -> ignore (Eval.call registry direct_person "getName" []) );
        ( "proxy invocation (identity mapping)",
          fun () -> ignore (Eval.call registry identity_proxy "getName" []) );
        ( "proxy invocation (renaming + coercion)",
          fun () -> ignore (Eval.call registry translating_proxy "getName" []) );
      ]
  in
  Printf.printf
    "  proxy/direct ratio: %.1fx (translating), %.1fx (identity)\n"
    (ratio results "proxy invocation (renaming + coercion)"
       "direct invocation")
    (ratio results "proxy invocation (identity mapping)" "direct invocation");
  Printf.printf
    "  paper: direct 0.000142 ms, proxy 0.03 ms  =>  ~211x slower via proxy\n\n";
  results

(* ------------------------------------------------------------------ *)
(* E2: type descriptions (§7.2)                                         *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let xml = Td.to_xml_string news_desc in
  let results =
    bench_group
      "E2 (§7.2) type description of Person: create / serialize / deserialize"
      [
        ("create (introspection)", fun () -> ignore (Td.of_class news_person_cd));
        ( "create + serialize to XML",
          fun () -> ignore (Td.to_xml_string (Td.of_class news_person_cd)) );
        ("deserialize from XML", fun () -> ignore (Td.of_xml_string xml));
      ]
  in
  Printf.printf "  description size on the wire: %d bytes\n"
    (Td.size_bytes news_desc);
  Printf.printf
    "  serialize/deserialize ratio: %.2fx   (paper: 6.14 ms / 2.34 ms = \
     2.6x)\n\n"
    (ratio results "create + serialize to XML" "deserialize from XML");
  results

(* ------------------------------------------------------------------ *)
(* E3: object serialization (§7.3)                                      *)
(* ------------------------------------------------------------------ *)

let e3 () =
  let p = sample_person () in
  let soap_wire = Soap.encode p in
  let bin_wire, _ = Bin.encode p in
  let results =
    bench_group
      "E3 (§7.3) object (de)serialization of a Person (with nested Address)"
      [
        ("SOAP serialize", fun () -> ignore (Soap.encode p));
        ("SOAP deserialize", fun () -> ignore (Soap.decode registry soap_wire));
        ("binary serialize", fun () -> ignore (Bin.encode p));
        ("binary deserialize", fun () -> ignore (Bin.decode registry bin_wire));
      ]
  in
  Printf.printf "  payload sizes: SOAP %d bytes, binary %d bytes\n"
    (String.length soap_wire) (String.length bin_wire);
  Printf.printf
    "  SOAP ser/deser ratio: %.2fx   (paper: 16.68 ms / 1.32 ms = 12.6x)\n\n"
    (ratio results "SOAP serialize" "SOAP deserialize");
  results

(* ------------------------------------------------------------------ *)
(* E4: conformance testing (§7.4)                                       *)
(* ------------------------------------------------------------------ *)

let e4 ~direct_invocation_ns () =
  let results =
    bench_group
      "E4 (§7.4) implicit structural conformance: social.person <= \
       news.Person"
      [
        ( "full check (cold, cache cleared)",
          fun () ->
            Checker.clear_cache checker;
            ignore
              (Checker.check checker ~actual:social_desc ~interest:news_desc) );
        ( "full check (cached verdict)",
          fun () ->
            ignore
              (Checker.check checker ~actual:social_desc ~interest:news_desc) );
        ( "equality shortcut (same GUID)",
          fun () ->
            ignore
              (Checker.check checker ~actual:news_desc ~interest:news_desc) );
      ]
  in
  (match List.assoc_opt "full check (cold, cache cleared)" results with
  | Some cold when direct_invocation_ns > 0. ->
      Printf.printf
        "  cold check costs %.0fx a direct invocation (paper: 12.66 ms vs \
         0.000142 ms => ~89000x)\n"
        (cold /. direct_invocation_ns)
  | _ -> ());
  print_newline ();
  results

(* ------------------------------------------------------------------ *)
(* E5: the optimistic protocol vs the eager baseline                    *)
(* ------------------------------------------------------------------ *)

type protocol_outcome = {
  o_obj : int;
  o_tdesc : int;
  o_asm : int;
  o_total : int;
  o_time : float;
  o_delivered : int;
  o_rejected : int;
  o_reuse : float;
      (* receiver verdict-cache reuse: top_hits / (top_hits + top_computes) *)
  o_tdesc_hit : float;  (* receiver tdesc-cache hit rate *)
  o_evictions : int;  (* receiver verdict-cache evictions *)
}

let receiver_cache_rates receiver =
  let st = Checker.stats (Peer.checker receiver) in
  let tops = st.Checker.top_hits + st.Checker.top_computes in
  let reuse =
    if tops = 0 then 0.
    else float_of_int st.Checker.top_hits /. float_of_int tops
  in
  let td = Peer.tdesc_cache_counters receiver in
  (reuse, Pti_obs.Lru.hit_rate td, st.Checker.cache_evictions)

(* [objects] values are sent from one peer to another; the value types
   rotate over [distinct] synthetic families, of which [nonconf] are
   structurally deficient (rejected by the rules). *)
let run_protocol ?codec ?drop_rate ?reliability ?checker_cache_capacity ~mode
    ~objects ~distinct ~nonconf () =
  let net = Net.create ?drop_rate ?reliability ~seed:17L () in
  let sender = Peer.create ?codec ~mode ~net "sender" in
  let receiver =
    Peer.create ?codec ~mode ~net
      ~shared:(Peer.create_shared ?checker_cache_capacity ())
      "receiver"
  in
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
        ~name:(Printf.sprintf "p%d" n)
        ~age:n
    in
    Peer.send_value sender ~dst:"receiver" v;
    Net.run net
  done;
  let s = Net.stats net in
  let delivered, rejected =
    List.fold_left
      (fun (d, r) ev ->
        match ev with
        | Peer.Delivered _ -> (d + 1, r)
        | Peer.Rejected _ -> (d, r + 1)
        | Peer.Decode_failed _ | Peer.Load_failed _
        | Peer.Corrupt_rejected _ -> (d, r))
      (0, 0) (Peer.events receiver)
  in
  let reuse, tdesc_hit, evictions = receiver_cache_rates receiver in
  {
    o_obj = Stats.bytes s Stats.Object_msg;
    o_tdesc =
      Stats.bytes s Stats.Tdesc_request + Stats.bytes s Stats.Tdesc_reply;
    o_asm = Stats.bytes s Stats.Asm_request + Stats.bytes s Stats.Asm_reply;
    o_total = Stats.total_bytes s;
    o_time = Net.now_ms net;
    o_delivered = delivered;
    o_rejected = rejected;
    o_reuse = reuse;
    o_tdesc_hit = tdesc_hit;
    o_evictions = evictions;
  }

let rec e5 () =
  hr ();
  print_endline "E5 optimistic transport protocol (Figure 1) vs eager baseline";
  hr ();
  let objects = if quick then 20 else 60 in
  Printf.printf
    "\n\
    \  E5a: %d objects, sweeping the number of distinct (conformant) types\n\n"
    objects;
  Printf.printf "  %8s %-11s %10s %10s %10s %12s %10s %7s %7s\n" "distinct"
    "mode" "obj B" "tdesc B" "asm B" "total B" "time ms" "reuse" "td hit";
  let e5a_rows = ref [] in
  List.iter
    (fun distinct ->
      List.iter
        (fun (mode, mode_name) ->
          let o = run_protocol ~mode ~objects ~distinct ~nonconf:0 () in
          Printf.printf
            "  %8d %-11s %10d %10d %10d %12d %10.1f %6.0f%% %6.0f%%\n" distinct
            mode_name o.o_obj o.o_tdesc o.o_asm o.o_total o.o_time
            (100. *. o.o_reuse)
            (100. *. o.o_tdesc_hit);
          let key fmt = Printf.sprintf "k=%d %s %s" distinct mode_name fmt in
          e5a_rows :=
            (key "reuse", o.o_reuse)
            :: (key "total B", float_of_int o.o_total)
            :: !e5a_rows)
        [ (Peer.Optimistic, "optimistic"); (Peer.Eager, "eager") ])
    (if quick then [ 1; 5; 20 ] else [ 1; 5; 10; 20; 60 ]);
  record_group "E5a" (List.rev !e5a_rows);
  Printf.printf
    "\n\
    \  E5b: %d objects over 10 types, sweeping the non-conformant share\n\
    \  (optimistic never downloads code for rejected types)\n\n"
    objects;
  Printf.printf "  %8s %-11s %10s %10s %12s %10s %10s\n" "nonconf" "mode"
    "tdesc B" "asm B" "total B" "deliv" "reject";
  List.iter
    (fun nonconf ->
      List.iter
        (fun (mode, mode_name) ->
          let o = run_protocol ~mode ~objects ~distinct:10 ~nonconf () in
          Printf.printf "  %7d0%% %-11s %10d %10d %12d %10d %10d\n" nonconf
            mode_name o.o_tdesc o.o_asm o.o_total o.o_delivered o.o_rejected)
        [ (Peer.Optimistic, "optimistic"); (Peer.Eager, "eager") ])
    [ 0; 2; 5; 8; 10 ];
  Printf.printf
    "\n  E5c: %d objects over 10 types, payload codec comparison (Figure 3's\n\
    \  two embeddings: readable SOAP vs compact binary)\n\n"
    objects;
  Printf.printf "  %-8s %10s %12s %10s\n" "codec" "obj B" "total B" "time ms";
  List.iter
    (fun (codec, cname) ->
      let o =
        run_protocol ~codec ~mode:Peer.Optimistic ~objects ~distinct:10
          ~nonconf:0 ()
      in
      Printf.printf "  %-8s %10d %12d %10.1f\n" cname o.o_obj o.o_total o.o_time)
    [
      (Pti_serial.Envelope.Binary, "binary");
      (Pti_serial.Envelope.Soap, "soap");
    ];
  Printf.printf
    "\n  E5d: %d objects over 10 types on a lossy link with the ARQ layer\n\
    \  (loss shows up as retransmission bytes and latency, never as missing\n\
    \  deliveries; p95 is the upper bound of the net.latency_ms.object\n\
    \  histogram bucket holding it)\n\n"
    objects;
  Printf.printf "  %8s %10s %12s %10s %10s %10s %10s\n" "loss" "retrans"
    "total B" "sim ms*" "p95 obj ms" "deliv" "lost";
  List.iter
    (fun drop_rate ->
      let net_probe = ref (0, 0) in
      let o =
        let metrics = Metrics.create () in
        let net = Net.create ~drop_rate ~reliability:Net.default_reliability
            ~seed:17L ~metrics () in
        let sender = Peer.create ~net "sender" in
        let receiver = Peer.create ~net "receiver" in
        Peer.install_assembly receiver (Demo.news_assembly ());
        Peer.register_interest receiver ~interest:Demo.news_person
          (fun ~from:_ _ -> ());
        for i = 0 to 9 do
          Peer.publish_assembly sender
            (Workload.family ~index:i ~flavor:Workload.Conformant)
        done;
        for n = 0 to objects - 1 do
          let index = n mod 10 in
          let v =
            Workload.make_person (Peer.registry sender) ~index
              ~flavor:Workload.Conformant
              ~name:(Printf.sprintf "p%d" n) ~age:n
          in
          Peer.send_value sender ~dst:"receiver" v;
          Net.run net
        done;
        net_probe := (Net.retransmissions net, Net.lost_messages net);
        let delivered =
          List.length
            (List.filter
               (function Peer.Delivered _ -> true | _ -> false)
               (Peer.events receiver))
        in
        let p95 =
          match Metrics.find metrics "net.latency_ms.object" with
          | Some (Metrics.Histogram h) ->
              Option.value ~default:0. (Metrics.quantile h 0.95)
          | _ -> 0.
        in
        (Stats.total_bytes (Net.stats net), Net.now_ms net, p95, delivered)
      in
      let total, time, p95, deliv = o in
      let retrans, lost = !net_probe in
      Printf.printf "  %7.0f%% %10d %12d %10.1f %10.1f %10d %10d\n"
        (100. *. drop_rate) retrans total time p95 deliv lost)
    [ 0.0; 0.05; 0.1; 0.25 ];
  print_endline
    "  (*) simulated time runs until the last ARQ timer expires, so it\n\
    \  overstates delivery latency by up to one retransmit interval per\n\
    \  message; compare rows, not against E5a.";
  print_newline ();
  e5e ()

(* E5e: verdict-cache pressure under type churn. The ramp workload makes
   every round introduce one new type family and then repeat one object of
   every earlier family: round i sends i+1 objects, K rounds send
   K(K+1)/2. With keyed invalidation a new type only evicts the verdicts
   that depended on it, so the repeats stay cached and the reuse rate
   approaches (K-1)/(K+1); the pre-refactor code cleared the whole verdict
   cache on every new description, which measures ~0 on exactly this
   interleaving. Shrinking the cache capacity below K re-introduces misses
   as capacity evictions. *)
and run_ramp ~rounds ~checker_cache_capacity () =
  let net = Net.create ~seed:23L () in
  let sender = Peer.create ~net "sender" in
  let receiver =
    Peer.create ~net
      ~shared:(Peer.create_shared ~checker_cache_capacity ())
      "receiver"
  in
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
  let n = ref 0 in
  for i = 0 to rounds - 1 do
    Peer.publish_assembly sender
      (Workload.family ~index:i ~flavor:Workload.Conformant);
    send i !n;
    incr n;
    for j = 0 to i - 1 do
      send j !n;
      incr n
    done
  done;
  let reuse, tdesc_hit, evictions = receiver_cache_rates receiver in
  (reuse, tdesc_hit, evictions, !n)

and e5e () =
  let rounds = if quick then 10 else 25 in
  Printf.printf
    "  E5e: verdict-cache pressure -- %d ramp rounds (each round brings one\n\
    \  new type, then repeats every earlier one), sweeping the cache\n\
    \  capacity. Keyed invalidation keeps repeats cached across new-type\n\
    \  arrivals; wholesale clearing (the pre-refactor behavior) would\n\
    \  measure ~0%% reuse here.\n\n"
    rounds;
  Printf.printf "  %10s %10s %8s %8s %10s\n" "capacity" "objects" "reuse"
    "td hit" "evictions";
  let rows = ref [] in
  List.iter
    (fun capacity ->
      let reuse, tdesc_hit, evictions, sent =
        run_ramp ~rounds ~checker_cache_capacity:capacity ()
      in
      Printf.printf "  %10d %10d %7.0f%% %7.0f%% %10d\n" capacity sent
        (100. *. reuse) (100. *. tdesc_hit) evictions;
      let key fmt = Printf.sprintf "cap=%d K=%d %s" capacity rounds fmt in
      rows :=
        (key "reuse", reuse)
        :: (key "evictions", float_of_int evictions)
        :: !rows)
    (List.sort_uniq compare [ 2; 8; rounds / 2; 2048 ]);
  record_group "E5e" (List.rev !rows);
  Printf.printf
    "\n\
    \  At full capacity the reuse rate is (K-1)/(K+1) = %.2f for K=%d --\n\
    \  the hit-rate the issue's acceptance gate requires (> 0.9 full run).\n\n"
    (float_of_int (rounds - 1) /. float_of_int (rounds + 1))
    rounds

(* ------------------------------------------------------------------ *)
(* E6: rule-weakening ablation (§4.2's safety warning)                  *)
(* ------------------------------------------------------------------ *)

let e6 () =
  hr ();
  print_endline
    "E6 conformance-rule ablation: acceptance, recall and runtime safety";
  hr ();
  let population =
    List.concat
      [
        List.init 10 (fun i -> (i, Workload.Conformant));
        List.init 5 (fun i -> (i, Workload.Trap_missing));
        List.init 5 (fun i -> (i, Workload.Trap_arity));
        List.init 5 (fun i -> (i, Workload.Trap_fieldtype));
        List.init 5 (fun i -> (i, Workload.Typo 1));
        List.init 5 (fun i -> (i, Workload.Typo 2));
      ]
  in
  let good (_, flavor) =
    match flavor with
    | Workload.Conformant | Workload.Typo _ -> true
    | Workload.Trap_missing | Workload.Trap_arity
    | Workload.Trap_fieldtype ->
        false
  in
  let reg = Registry.create () in
  Assembly.load reg (Demo.news_assembly ());
  List.iter
    (fun (index, flavor) -> Assembly.load reg (Workload.family ~index ~flavor))
    population;
  let res = Td.registry_resolver reg in
  let interest = Option.get (res Demo.news_person) in
  let configs =
    [
      ("name-only (weak rule)", Config.name_only);
      ("strict (the paper's rules)", Config.strict);
      ("relaxed, distance 1", Config.relaxed ~distance:1);
      ("relaxed, distance 2", Config.relaxed ~distance:2);
      ("without rule (iv) methods",
       { Config.strict with Config.check_methods = false });
      ("without rule (v) ctors",
       { Config.strict with Config.check_ctors = false });
      ("without rule (ii) fields",
       { Config.strict with Config.check_fields = false });
    ]
  in
  let usable = List.length (List.filter good population) in
  Printf.printf "\n  population: %d types (%d usable, %d traps)\n\n"
    (List.length population) usable
    (List.length population - usable);
  Printf.printf "  %-28s %9s %8s %8s %10s\n" "rule set" "accepted" "recall"
    "unsafe" "fail rate";
  List.iter
    (fun (cname, config) ->
      let ch = Checker.create ~config ~resolver:res () in
      let pcx = Proxy.create_context reg ch in
      let accepted = ref 0 and unsafe = ref 0 and good_accepted = ref 0 in
      List.iter
        (fun ((index, flavor) as member) ->
          let qname = Workload.person_name ~index ~flavor in
          let actual = Option.get (res qname) in
          match Checker.check ch ~actual ~interest with
          | Checker.Not_conformant _ -> ()
          | Checker.Conformant m ->
              incr accepted;
              if good member then incr good_accepted;
              let target =
                Workload.make_person reg ~index ~flavor ~name:"probe" ~age:40
              in
              let proxy =
                Proxy.wrap pcx ~interest:Demo.news_person ~mapping:m target
              in
              let failed =
                List.exists
                  (fun (meth, args) ->
                    match Eval.call reg proxy meth args with
                    | _ -> false
                    | exception Eval.Runtime_error _ -> true)
                  Workload.interest_methods
              in
              if failed then incr unsafe)
        population;
      Printf.printf "  %-28s %9d %7.0f%% %8d %9.0f%%\n" cname !accepted
        (100. *. float_of_int !good_accepted /. float_of_int usable)
        !unsafe
        (if !accepted = 0 then 0.
         else 100. *. float_of_int !unsafe /. float_of_int !accepted))
    configs;
  print_newline ();
  print_endline
    "  The weak name-only rule accepts every trap and pays for it at run\n\
    \  time; the structural aspects keep the failure rate at zero even\n\
    \  when the name rule is relaxed -- the paper's safety argument. The\n\
    \  per-aspect rows locate the safety: for this population it lives in\n\
    \  rule (iv), the method aspect. Note the field-type traps accepted by\n\
    \  name-only do not even raise -- they silently corrupt values, the\n\
    \  failure mode no runtime probe reliably sees and only the static\n\
    \  rules prevent.";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E7: the strong-conformance extension (structural + behavioral)       *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let social_cd = Registry.find_exn registry Demo.social_person in
  let mapping =
    match Checker.check checker ~actual:social_desc ~interest:news_desc with
    | Checker.Conformant m -> m
    | Checker.Not_conformant _ -> failwith "fixture"
  in
  let results =
    bench_group
      "E7 strong implicit conformance (§4.1): structural check + behavioral \
       probe"
      [
        ( "structural check (cold)",
          fun () ->
            Checker.clear_cache checker;
            ignore
              (Checker.check checker ~actual:social_desc ~interest:news_desc)
        );
        ( "behavioral probe (16 samples/method)",
          fun () ->
            ignore
              (Pti_conformance.Behavioral.probe registry ~actual:social_cd
                 ~interest:news_person_cd ~mapping ()) );
        ( "behavioral probe (4 samples/method)",
          fun () ->
            ignore
              (Pti_conformance.Behavioral.probe registry ~samples:4
                 ~actual:social_cd ~interest:news_person_cd ~mapping ()) );
      ]
  in
  Printf.printf
    "  behavioral/structural cost ratio: %.1fx -- affordable, but it needs\n\
    \  the implementation loaded, so it runs as an acceptance test after\n\
    \  the optimistic download, never as a pre-download filter\n\n"
    (ratio results "behavioral probe (16 samples/method)"
       "structural check (cold)");
  results

(* ------------------------------------------------------------------ *)
(* E8: recall against the related-work baselines (§2)                   *)
(* ------------------------------------------------------------------ *)

let e8 () =
  hr ();
  print_endline
    "E8 who can interoperate? nominal (CORBA/RMI) vs Laufer vs implicit \
     rules";
  hr ();
  let module B = Builder in
  let module E = Expr in
  (* The query: an *interface* named person (Laufer requires interfaces). *)
  let iface =
    B.interface_ ~ns:[ "query" ] ~assembly:"query-asm" "person"
    |> B.abstract_method "getName" [] Ty.String
    |> B.abstract_method "getAge" [] Ty.Int
    |> B.abstract_method "greet" [] Ty.String
    |> B.abstract_method "update" [ ("n", Ty.String); ("a", Ty.Int) ] Ty.Void
    |> B.build
  in
  let person_body b =
    b
    |> B.field "name" Ty.String
    |> B.field "age" Ty.Int
    |> B.method_ "getName" [] Ty.String ~body:(E.get "name")
    |> B.method_ "getAge" [] Ty.Int ~body:(E.get "age")
    |> B.method_ "greet" [] Ty.String
         ~body:(E.Binop (E.Concat, E.str "Hello, ", E.get "name"))
    |> B.method_ "update" [ ("n", Ty.String); ("a", Ty.Int) ] Ty.Void
         ~body:(E.Seq [ E.set "name" (E.Var "n"); E.set "age" (E.Var "a"); E.null ])
  in
  let renamed_body b =
    b
    |> B.field "name" Ty.String
    |> B.field "age" Ty.Int
    |> B.method_ "GETNAME" [] Ty.String ~body:(E.get "name")
    |> B.method_ "getage" [] Ty.Int ~body:(E.get "age")
    |> B.method_ "GREET" [] Ty.String
         ~body:(E.Binop (E.Concat, E.str "Hello, ", E.get "name"))
    |> B.method_ "update" [ ("a", Ty.Int); ("n", Ty.String) ] Ty.Void
         ~body:(E.Seq [ E.set "name" (E.Var "n"); E.set "age" (E.Var "a"); E.null ])
  in
  let deficient_body b =
    b
    |> B.field "name" Ty.String
    |> B.method_ "getName" [] Ty.String ~body:(E.get "name")
  in
  let per_kind = 5 in
  let mk kind i =
    match kind with
    | `Declared ->
        person_body
          (B.class_ ~ns:[ Printf.sprintf "decl%d" i ] ~assembly:"e8"
             ~interfaces:[ "query.person" ] "Person")
        |> B.build
    | `Tagged ->
        person_body
          (B.class_ ~ns:[ Printf.sprintf "tag%d" i ] ~assembly:"e8" "person")
        |> B.build
    | `Legacy ->
        person_body
          (B.class_ ~ns:[ Printf.sprintf "leg%d" i ] ~assembly:"e8" "Person")
        |> B.build
    | `Renamed ->
        renamed_body
          (B.class_ ~ns:[ Printf.sprintf "ren%d" i ] ~assembly:"e8" "Person")
        |> B.build
    | `Deficient ->
        deficient_body
          (B.class_ ~ns:[ Printf.sprintf "def%d" i ] ~assembly:"e8" "Person")
        |> B.build
  in
  let kinds =
    [
      (`Declared, "declares query.person (shared hierarchy)");
      (`Tagged, "independent, exact signatures, tagged");
      (`Legacy, "independent, exact signatures, legacy (untagged)");
      (`Renamed, "independent, renamed + permuted members");
      (`Deficient, "missing members (must be rejected)");
    ]
  in
  let reg = Registry.create () in
  Registry.register reg iface;
  List.iter
    (fun (kind, _) ->
      for i = 0 to per_kind - 1 do
        Registry.register reg (mk kind i)
      done)
    kinds;
  let res = Td.registry_resolver reg in
  let ch = Checker.create ~resolver:res () in
  let interest = Td.of_class iface in
  let tagged name =
    (* The opt-in marker of the Laufer proposal: only these namespaces
       chose to participate. *)
    let lname = String.lowercase_ascii name in
    String.length lname >= 3
    && (String.sub lname 0 3 = "tag" || String.sub lname 0 4 = "decl")
  in
  Printf.printf "\n  interest: interface query.person; %d candidates per row\n\n"
    per_kind;
  Printf.printf "  %-44s %8s %8s %9s\n" "candidate population" "nominal"
    "laufer" "implicit";
  List.iter
    (fun (kind, label) ->
      let nominal = ref 0 and laufer = ref 0 and implicit = ref 0 in
      for i = 0 to per_kind - 1 do
        let actual = Td.of_class (mk kind i) in
        if Pti_conformance.Baselines.nominal ch ~actual ~interest then
          incr nominal;
        if
          Pti_conformance.Baselines.laufer ~resolver:res ~tagged ~actual
            ~interest
        then incr laufer;
        if Checker.verdict_ok (Checker.check ch ~actual ~interest) then
          incr implicit
      done;
      Printf.printf "  %-44s %8d %8d %9d\n" label !nominal !laufer !implicit)
    kinds;
  print_newline ();
  print_endline
    "  The implicit structural rules accept every usable population and\n\
    \  nothing else; nominal interoperability needs a shared hierarchy and\n\
    \  Laufer-style conformance additionally needs opt-in tagging and exact\n\
    \  signatures -- the restrictions Sections 2.1-2.4 call out.";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E9: cluster fan-out -- gossip dissemination and mirror failover      *)
(* ------------------------------------------------------------------ *)

type cluster_outcome = {
  c_gossip : int;  (* digest bytes all nodes sent before the transfer *)
  c_tdesc : int;  (* transfer-phase bytes, by category *)
  c_asm : int;
  c_obj : int;
  c_delivered : int;
  c_load_failed : int;
  c_failovers : int;  (* receiver failovers during the transfer *)
  c_td_known : int;  (* descriptions the receiver knows pre-transfer *)
}

(* Shared scenario: an N-peer cluster; the first peer publishes [distinct]
   type families (factor-k replicated) and, after [rounds] anti-entropy
   rounds, [objects] are streamed to a receiver that holds no replica.
   With [via_relay] the stream comes from a relay primed with one object
   per family beforehand, so the publisher can be crashed after the gossip
   phase ([crash_origin]) while traffic keeps flowing; otherwise the
   publisher sends directly. Network stats are reset after the setup
   phase, so the per-row byte columns cover only the transfer hot path;
   gossip bytes are reported separately -- they are off the object
   path. *)
let run_cluster ~mode ~peers ~factor ~rounds ~objects ~distinct ~via_relay
    ~crash_origin () =
  let net = Net.create ~seed:17L () in
  let addrs = List.init peers (fun i -> Printf.sprintf "c%d" (i + 1)) in
  let c =
    Cluster.create ~mode ~factor ~request_timeout_ms:500.
      ~probe_timeout_ms:250. ~transport:(Pti_transport.Transport.of_net net)
      addrs
  in
  let origin = List.hd addrs in
  let origin_node = Cluster.node c origin in
  let families =
    Array.init distinct (fun i ->
        Workload.family ~index:i ~flavor:Workload.Conformant)
  in
  let holders =
    Array.to_list families
    |> List.concat_map (fun asm ->
           Node.placement origin_node ~assembly:asm.Assembly.asm_name
             (factor - 1))
    |> List.sort_uniq compare
  in
  let spare =
    List.filter (fun a -> a <> origin && not (List.mem a holders)) addrs
  in
  let relay, receiver =
    match (spare, List.rev addrs) with
    | a :: b :: _, _ -> (a, b)
    | [ a ], last :: _ when last <> a -> (a, last)
    | _, last :: prev :: _ -> (prev, last)
    | _ -> assert false
  in
  Array.iter (fun asm -> Node.publish origin_node asm) families;
  let sender_peer =
    if not via_relay then Cluster.peer c origin
    else begin
      let relay_peer = Cluster.peer c relay in
      Peer.install_assembly relay_peer (Demo.news_assembly ());
      Peer.register_interest relay_peer ~interest:Demo.news_person
        (fun ~from:_ _ -> ());
      Array.iteri
        (fun i _ ->
          let v =
            Workload.make_person
              (Peer.registry (Cluster.peer c origin))
              ~index:i ~flavor:Workload.Conformant
              ~name:(Printf.sprintf "seed%d" i) ~age:i
          in
          Peer.send_value (Cluster.peer c origin) ~dst:relay v)
        families;
      relay_peer
    end
  in
  Cluster.run c;
  Cluster.run_rounds c rounds;
  if crash_origin then Cluster.crash c origin;
  let receiver_peer = Cluster.peer c receiver in
  Peer.install_assembly receiver_peer (Demo.news_assembly ());
  let delivered = ref 0 in
  Peer.register_interest receiver_peer ~interest:Demo.news_person
    (fun ~from:_ _ -> incr delivered);
  let gossip_bytes =
    List.fold_left (fun acc n -> acc + Node.digest_bytes n) 0 (Cluster.nodes c)
  in
  let td_known = List.length (Peer.known_descriptions receiver_peer) in
  Stats.reset (Net.stats net);
  for n = 0 to objects - 1 do
    let index = n mod distinct in
    let v =
      Workload.make_person (Peer.registry sender_peer) ~index
        ~flavor:Workload.Conformant
        ~name:(Printf.sprintf "p%d" n)
        ~age:n
    in
    Peer.send_value sender_peer ~dst:receiver v;
    Net.run net
  done;
  let s = Net.stats net in
  let load_failed =
    List.length
      (List.filter
         (function Peer.Load_failed _ -> true | _ -> false)
         (Peer.events receiver_peer))
  in
  {
    c_gossip = gossip_bytes;
    c_tdesc =
      Stats.bytes s Stats.Tdesc_request + Stats.bytes s Stats.Tdesc_reply;
    c_asm = Stats.bytes s Stats.Asm_request + Stats.bytes s Stats.Asm_reply;
    c_obj = Stats.bytes s Stats.Object_msg;
    c_delivered = !delivered;
    c_load_failed = load_failed;
    c_failovers = Peer.fetch_failovers receiver_peer;
    c_td_known = td_known;
  }

let e9 () =
  hr ();
  print_endline
    "E9 cluster fan-out: gossip-spread type descriptions and mirror failover";
  hr ();
  let peers = 5 in
  let distinct = if quick then 4 else 8 in
  let objects = if quick then 16 else 48 in
  Printf.printf
    "\n\
    \  E9a: %d peers, %d type families, %d objects; sweeping anti-entropy\n\
    \  rounds before the transfer. Gossip moves type descriptions off the\n\
    \  object hot path: tdesc fetches -- and bytes per delivery -- fall as\n\
    \  rounds increase. Gossip bytes are the off-path dissemination cost.\n\n"
    peers distinct objects;
  Printf.printf "  %8s %-11s %8s %10s %10s %10s %10s %9s\n" "rounds" "mode"
    "td known" "gossip B" "tdesc B" "asm B" "hot B" "B/deliv";
  let e9a_rows = ref [] in
  let row rounds mode mode_name =
    let o =
      run_cluster ~mode ~peers ~factor:1 ~rounds ~objects ~distinct
        ~via_relay:false ~crash_origin:false ()
    in
    let hot = o.c_obj + o.c_tdesc + o.c_asm in
    let per_deliv =
      if o.c_delivered = 0 then 0.
      else float_of_int hot /. float_of_int o.c_delivered
    in
    Printf.printf "  %8d %-11s %8d %10d %10d %10d %10d %9.0f\n" rounds
      mode_name o.c_td_known o.c_gossip o.c_tdesc o.c_asm hot per_deliv;
    let key fmt = Printf.sprintf "rounds=%d %s %s" rounds mode_name fmt in
    e9a_rows :=
      (key "B/deliv", per_deliv)
      :: (key "tdesc B", float_of_int o.c_tdesc)
      :: !e9a_rows
  in
  List.iter
    (fun rounds -> row rounds Peer.Optimistic "optimistic")
    (if quick then [ 0; 1; 3 ] else [ 0; 1; 2; 3; 5 ]);
  row 0 Peer.Eager "eager";
  record_group "E9a" (List.rev !e9a_rows);
  let objects_b = if quick then 10 else 30 in
  let distinct_b = if quick then 2 else 4 in
  Printf.printf
    "\n\
    \  E9b: %d peers, %d families, %d objects, 4 gossip rounds; sweeping\n\
    \  the replication factor with and without crashing the publisher\n\
    \  before the transfer. Unreplicated assemblies die with their\n\
    \  publisher; with k >= 2 the receiver fails over to a gossip-learned\n\
    \  mirror and delivery stays at 100%%.\n\n"
    peers distinct_b objects_b;
  Printf.printf "  %8s %-8s %10s %10s %10s %10s\n" "factor" "crash" "deliv"
    "load-fail" "failovers" "asm B";
  let e9b_rows = ref [] in
  List.iter
    (fun (factor, crash) ->
      let o =
        run_cluster ~mode:Peer.Optimistic ~peers ~factor ~rounds:4
          ~objects:objects_b ~distinct:distinct_b ~via_relay:true
          ~crash_origin:crash ()
      in
      Printf.printf "  %8d %-8s %10d %10d %10d %10d\n" factor
        (if crash then "origin" else "none")
        o.c_delivered o.c_load_failed o.c_failovers o.c_asm;
      let key fmt =
        Printf.sprintf "k=%d crash=%b %s" factor crash fmt
      in
      e9b_rows :=
        (key "delivered", float_of_int o.c_delivered)
        :: (key "failovers", float_of_int o.c_failovers)
        :: !e9b_rows)
    [ (1, false); (1, true); (2, false); (2, true); (3, true) ];
  record_group "E9b" (List.rev !e9b_rows);
  print_newline ();
  print_endline
    "  E9a's eager row is the replicate-everything-inline alternative: no\n\
    \  gossip, no fetches, but every object carries its code. E9b row\n\
    \  (k=1, crash) is the paper's availability argument for mirrors: the\n\
    \  optimistic download has a single point of failure unless the\n\
    \  repository is replicated.";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E10: delivery and traffic under injected faults                      *)
(* ------------------------------------------------------------------ *)

module Sim = Pti_net.Sim
module Splitmix = Pti_util.Splitmix
module Fault_plan = Pti_fault.Fault_plan
module Corruptor = Pti_fault.Corruptor

type e10_out = {
  f_delivered : int;
  f_bytes : int;  (** Total wire bytes, acks included. *)
  f_retx : int;
  f_corrupt_rejects : int;
  f_integrity_drops : int;
}

(* One seeded world under a whole-run fault window: a sender publishes
   three conformant families, a receiver declares the interest, objects
   go out 60 ms apart. Mirrors come from a 4-node factor-2 cluster. *)
let e10_run ~arq ~cluster ~loss_p ~corrupt_p ~objects ~seed =
  let root = Splitmix.create seed in
  let net_seed = Splitmix.next64 root in
  let hook_seed = Splitmix.next64 root in
  let cluster_seed = Splitmix.next64 root in
  let reliability =
    if arq then Some { Net.retransmit_ms = 40.; max_retries = 12; ack_bytes = 16 }
    else None
  in
  let net = Net.create ~jitter_ms:2.0 ?reliability ~seed:net_seed () in
  let sim = Net.sim net in
  let hosts = if cluster then [ "n0"; "n1"; "n2"; "n3" ] else [ "a"; "b" ] in
  let horizon = 10. +. (60. *. float_of_int objects) +. 100. in
  let cl, sender, receiver, peers =
    if cluster then begin
      let cl =
        Cluster.create ~factor:2 ~seed:cluster_seed ~request_timeout_ms:800.
          ~fetch_retries:3 ~fetch_backoff_ms:150. ~probe_timeout_ms:300.
          ~transport:(Pti_transport.Transport.of_net net) hosts
      in
      (Some cl, Cluster.peer cl "n0", Cluster.peer cl "n3",
       List.map (Cluster.peer cl) hosts)
    end
    else begin
      let mk a =
        Peer.create ~request_timeout_ms:800. ~fetch_retries:3
          ~fetch_backoff_ms:150. ~net a
      in
      let s = mk "a" in
      let r = mk "b" in
      (None, s, r, [ s; r ])
    end
  in
  for index = 0 to 2 do
    let asm = Workload.family ~index ~flavor:Workload.Conformant in
    match cl with
    | Some cl -> Node.publish (Cluster.node cl "n0") asm
    | None -> Peer.publish_assembly sender asm
  done;
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  (match cl with
  | None -> ()
  | Some cl ->
      List.iteri
        (fun ni node ->
          for r = 0 to (int_of_float (horizon /. 100.)) + 2 do
            Sim.schedule_at sim
              ~at:(40. +. (100. *. float_of_int r) +. (7. *. float_of_int ni))
              (fun () -> Node.tick node)
          done)
        (Cluster.nodes cl));
  for i = 0 to objects - 1 do
    let v =
      Workload.make_person (Peer.registry sender) ~index:(i mod 3)
        ~flavor:Workload.Conformant
        ~name:(Printf.sprintf "p%d" i)
        ~age:(20 + i)
    in
    Sim.schedule_at sim
      ~at:(10. +. (60. *. float_of_int i))
      (fun () -> Peer.send_value sender ~dst:(Peer.address receiver) v)
  done;
  let windows =
    (if loss_p > 0. then
       [ { Fault_plan.w_start = 0.; w_stop = horizon +. 1000.;
           w_sel = Fault_plan.Any; w_act = Fault_plan.Loss loss_p } ]
     else [])
    @
    if corrupt_p > 0. then
      [ { Fault_plan.w_start = 0.; w_stop = horizon +. 1000.;
          w_sel = Fault_plan.Any; w_act = Fault_plan.Corrupt corrupt_p } ]
    else []
  in
  Net.set_fault_hooks net
    (Some
       (Fault_plan.hooks { Fault_plan.windows }
          ~rng:(Splitmix.create hook_seed)
          ~corrupt:Corruptor.corrupt_message));
  if corrupt_p > 0. && arq then
    Net.set_integrity net (Some Corruptor.frame_intact);
  Net.run net;
  let delivered =
    List.length
      (List.filter
         (function Peer.Delivered _ -> true | _ -> false)
         (Peer.events receiver))
  in
  {
    f_delivered = delivered;
    f_bytes = Stats.total_bytes (Net.stats net);
    f_retx = Net.retransmissions net;
    f_corrupt_rejects =
      List.fold_left (fun acc p -> acc + Peer.corrupt_rejects p) 0 peers;
    f_integrity_drops = Net.integrity_drops net;
  }

let e10 () =
  hr ();
  print_endline
    "E10 fault intensity: delivery rate and wire bytes under injected faults";
  hr ();
  let objects = if quick then 8 else 12 in
  let pct o =
    100. *. float_of_int o.f_delivered /. float_of_int objects
  in
  Printf.printf
    "\n\
    \  E10a: burst loss across the whole run, %d objects. Without ARQ,\n\
    \  delivery decays with loss (and stalled tdesc fetches turn into\n\
    \  rejections); with ARQ (40ms x 12) loss converts into retransmission\n\
    \  bytes instead; mirrors (4-node cluster, factor 2) add failover.\n\n"
    objects;
  Printf.printf "  %7s | %9s %9s | %9s %9s %6s | %9s %9s %6s\n" "loss p"
    "raw del%" "bytes" "arq del%" "bytes" "retx" "clus del%" "bytes" "retx";
  let e10_rows = ref [] in
  let loss_sweep = if quick then [ 0.; 0.4; 0.8 ] else [ 0.; 0.2; 0.4; 0.6; 0.8 ] in
  List.iter
    (fun p ->
      let raw = e10_run ~arq:false ~cluster:false ~loss_p:p ~corrupt_p:0. ~objects ~seed:9L in
      let arq = e10_run ~arq:true ~cluster:false ~loss_p:p ~corrupt_p:0. ~objects ~seed:9L in
      let clu = e10_run ~arq:true ~cluster:true ~loss_p:p ~corrupt_p:0. ~objects ~seed:9L in
      Printf.printf
        "  %7.2f | %8.1f%% %9d | %8.1f%% %9d %6d | %8.1f%% %9d %6d\n" p
        (pct raw) raw.f_bytes (pct arq) arq.f_bytes arq.f_retx (pct clu)
        clu.f_bytes clu.f_retx;
      let key fmt = Printf.sprintf "loss=%.2f %s" p fmt in
      e10_rows :=
        (key "clus del%", pct clu)
        :: (key "arq bytes", float_of_int arq.f_bytes)
        :: (key "arq del%", pct arq)
        :: (key "raw del%", pct raw)
        :: !e10_rows)
    loss_sweep;
  Printf.printf
    "\n\
    \  E10b: wire corruption across the whole run (ARQ + frame integrity\n\
    \  on). Corrupt object frames are dropped pre-ack and retransmitted;\n\
    \  corrupt tdesc/assembly replies are detected by their digests and\n\
    \  re-requested (or failed over to a mirror in the cluster).\n\n";
  Printf.printf "  %9s | %9s %7s %7s %6s | %9s %7s %7s %6s\n" "corrupt p"
    "arq del%" "creject" "idrops" "retx" "clus del%" "creject" "idrops" "retx";
  let corrupt_sweep = if quick then [ 0.2; 0.6 ] else [ 0.1; 0.3; 0.5; 0.7 ] in
  List.iter
    (fun p ->
      let arq = e10_run ~arq:true ~cluster:false ~loss_p:0. ~corrupt_p:p ~objects ~seed:11L in
      let clu = e10_run ~arq:true ~cluster:true ~loss_p:0. ~corrupt_p:p ~objects ~seed:11L in
      Printf.printf "  %9.2f | %8.1f%% %7d %7d %6d | %8.1f%% %7d %7d %6d\n" p
        (pct arq) arq.f_corrupt_rejects arq.f_integrity_drops arq.f_retx
        (pct clu) clu.f_corrupt_rejects clu.f_integrity_drops clu.f_retx;
      let key fmt = Printf.sprintf "corrupt=%.2f %s" p fmt in
      e10_rows :=
        (key "clus del%", pct clu)
        :: (key "arq creject", float_of_int arq.f_corrupt_rejects)
        :: (key "arq del%", pct arq)
        :: !e10_rows)
    corrupt_sweep;
  record_group "E10" (List.rev !e10_rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E11: wire efficiency -- type handles, batching, binary tdescs        *)
(* ------------------------------------------------------------------ *)

type e11_out = {
  w_delivered : int;
  w_obj_bytes : int;  (** Object envelopes (incl. batch frames). *)
  w_ctl_bytes : int;  (** Handle NAK / re-bind control traffic. *)
  w_tdesc_bytes : int;  (** Type-description reply bytes. *)
  w_total_bytes : int;  (** Everything on the wire, acks included. *)
  w_frames : int;  (** Batch frames actually sent. *)
}

(* One seeded world sending [k] same-type objects from "a" to "b",
   scheduled in same-instant groups of [group] (groups 60 ms apart) so
   that intra-tick sends can coalesce when batching is on. K is the
   type-repeat ratio of the workload: every envelope after the first
   carries a type entry the link has already seen. *)
let e11_run ?batch_bytes ~handles ~tdesc_binary ~group ~k ~seed () =
  let net = Net.create ~seed () in
  let sim = Net.sim net in
  let mk a = Peer.create ~handles ?batch_bytes ~tdesc_binary ~net a in
  let sender = mk "a" in
  let receiver = mk "b" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  let delivered = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr delivered);
  for i = 0 to k - 1 do
    let at = 10. +. (60. *. float_of_int (i / group)) in
    Sim.schedule_at sim ~at (fun () ->
        let v =
          Demo.make_social_person (Peer.registry sender)
            ~name:(Printf.sprintf "p%d" i)
            ~age:(20 + i)
        in
        Peer.send_value sender ~dst:"b" v)
  done;
  Net.run net;
  let stats = Net.stats net in
  {
    w_delivered = !delivered;
    w_obj_bytes = Stats.bytes stats Stats.Object_msg;
    w_ctl_bytes = Stats.bytes stats Stats.Handle_ctl;
    w_tdesc_bytes = Stats.bytes stats Stats.Tdesc_reply;
    w_total_bytes = Stats.total_bytes stats;
    w_frames = Peer.batch_messages sender;
  }

let e11 () =
  hr ();
  print_endline
    "E11 wire efficiency: negotiated type handles, envelope batching, binary \
     tdescs";
  hr ();
  let obj_per o =
    if o.w_delivered = 0 then 0.
    else
      float_of_int (o.w_obj_bytes + o.w_ctl_bytes)
      /. float_of_int o.w_delivered
  in
  let total_per o =
    if o.w_delivered = 0 then 0.
    else float_of_int o.w_total_bytes /. float_of_int o.w_delivered
  in
  let e11_rows = ref [] in
  Printf.printf
    "\n\
    \  E11a: wire bytes per completion vs the type-repeat ratio K (K\n\
    \  same-type sends over one link). The first envelope binds the type\n\
    \  entry to a handle; the other K-1 ship only the handle; batching\n\
    \  (groups of 8 per tick) amortises per-message framing; binary\n\
    \  tdescs shrink the one-time conformance probe. [obj] columns count\n\
    \  object+handle-control traffic, [all] counts every wire byte.\n\n";
  Printf.printf "  %5s | %10s %10s | %10s %6s | %10s %10s | %9s\n" "K"
    "base obj" "base all" "h+b obj" "frames" "wire obj" "wire all" "reduction";
  let ks = if quick then [ 2; 10 ] else [ 1; 2; 5; 10; 20 ] in
  List.iter
    (fun k ->
      let base =
        e11_run ~handles:false ~tdesc_binary:false ~group:1 ~k ~seed:13L ()
      in
      let hb =
        e11_run ~batch_bytes:65536 ~handles:true ~tdesc_binary:false ~group:8
          ~k ~seed:13L ()
      in
      let wire =
        e11_run ~batch_bytes:65536 ~handles:true ~tdesc_binary:true ~group:8
          ~k ~seed:13L ()
      in
      assert (base.w_delivered = k && hb.w_delivered = k && wire.w_delivered = k);
      let reduction = 100. *. (1. -. (total_per wire /. total_per base)) in
      Printf.printf
        "  %5d | %10.0f %10.0f | %10.0f %6d | %10.0f %10.0f | %8.1f%%\n" k
        (obj_per base) (total_per base) (obj_per hb) hb.w_frames
        (obj_per wire) (total_per wire) reduction;
      let key fmt = Printf.sprintf "K=%d %s" k fmt in
      e11_rows :=
        (key "reduction%", reduction)
        :: (key "wire all B/obj", total_per wire)
        :: (key "h+b obj B/obj", obj_per hb)
        :: (key "base all B/obj", total_per base)
        :: (key "base obj B/obj", obj_per base)
        :: !e11_rows)
    ks;
  Printf.printf
    "\n\
    \  E11b: batch-size sweep at K=16 (handles on). Larger same-tick\n\
    \  groups mean fewer frames and less per-message framing overhead;\n\
    \  the byte budget caps frame size, so savings flatten once a group\n\
    \  spans several frames.\n\n";
  Printf.printf "  %7s | %6s | %11s\n" "group" "frames" "bytes/obj";
  let groups = if quick then [ 1; 8 ] else [ 1; 2; 4; 8; 16 ] in
  List.iter
    (fun group ->
      let o =
        e11_run ~batch_bytes:4096 ~handles:true ~tdesc_binary:false ~group
          ~k:16 ~seed:17L ()
      in
      Printf.printf "  %7d | %6d | %11.0f\n" group o.w_frames (obj_per o);
      e11_rows :=
        (Printf.sprintf "group=%d bytes/obj" group, obj_per o) :: !e11_rows)
    groups;
  let xml = e11_run ~handles:false ~tdesc_binary:false ~group:1 ~k:1 ~seed:19L () in
  let bin = e11_run ~handles:false ~tdesc_binary:true ~group:1 ~k:1 ~seed:19L () in
  Printf.printf
    "\n\
    \  E11c: type-description codec (one cold send, probe replies only).\n\
    \  XML tdesc replies: %d bytes; binary (negotiated via binary_ok):\n\
    \  %d bytes (%.1f%% smaller).\n" xml.w_tdesc_bytes bin.w_tdesc_bytes
    (100. *. (1. -. (float_of_int bin.w_tdesc_bytes /. float_of_int xml.w_tdesc_bytes)));
  e11_rows :=
    ("tdesc binary bytes", float_of_int bin.w_tdesc_bytes)
    :: ("tdesc xml bytes", float_of_int xml.w_tdesc_bytes)
    :: !e11_rows;
  record_group "E11" (List.rev !e11_rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E12: systematic exploration -- DPOR + state-hash pruning power       *)
(* ------------------------------------------------------------------ *)

module Scenario = Pti_mc.Scenario
module Explore = Pti_mc.Explore

(* One bounded exploration of the two-peer protocol scenario; the
   explorer itself is deterministic, so these are exact schedule counts,
   not measurements. Every configuration must exhaust the same space and
   agree that it is violation-free — a pruning that changed the verdict
   would be unsound. *)
let e12_run ~kind ~objects ~depth ~dpor ~state_hash =
  let spec = Scenario.spec ~objects kind in
  let config =
    { Explore.depth; budget = 500_000; dpor; state_hash; max_seconds = 120. }
  in
  let r = Explore.run ~config (fun () -> Scenario.make spec) in
  assert r.Explore.exhausted;
  assert (r.Explore.violation = None);
  r

let e12 () =
  hr ();
  print_endline
    "E12 systematic exploration: schedules to exhaust the two-peer \
     protocol space";
  hr ();
  Printf.printf
    "\n\
    \  All interleavings of deliveries/local actions up to the depth\n\
    \  bound, naive DFS vs sleep-set DPOR vs visited-state hashing.\n\
    \  Counts are terminal states evaluated; every configuration covers\n\
    \  the same space and agrees it is violation-free.\n\n";
  Printf.printf "  %-22s | %8s | %8s | %8s | %9s | %7s\n" "scenario"
    "naive" "dpor" "hash" "dpor+hash" "factor";
  let e12_rows = ref [] in
  let cases =
    if quick then [ (Scenario.Protocol, 2, 8) ]
    else
      [
        (Scenario.Protocol, 2, 8); (Scenario.Protocol, 3, 10);
        (Scenario.Wire, 2, 8);
      ]
  in
  List.iter
    (fun (kind, objects, depth) ->
      let go ~dpor ~state_hash =
        (e12_run ~kind ~objects ~depth ~dpor ~state_hash).Explore.schedules
      in
      let naive = go ~dpor:false ~state_hash:false in
      let dpor_only = go ~dpor:true ~state_hash:false in
      let hash_only = go ~dpor:false ~state_hash:true in
      let both = go ~dpor:true ~state_hash:true in
      let factor = float_of_int naive /. float_of_int (max 1 both) in
      let label =
        Printf.sprintf "%s n=%d d=%d" (Scenario.kind_name kind) objects depth
      in
      Printf.printf "  %-22s | %8d | %8d | %8d | %9d | %6.1fx\n" label naive
        dpor_only hash_only both factor;
      e12_rows :=
        (label ^ " factor", factor)
        :: (label ^ " dpor+hash", float_of_int both)
        :: (label ^ " naive", float_of_int naive)
        :: !e12_rows)
    cases;
  record_group "E12" (List.rev !e12_rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E13: transport backends -- sim vs unix sockets vs TCP                *)
(* ------------------------------------------------------------------ *)

module Transport = Pti_transport.Transport
module Message_wire = Pti_core.Message_wire

type e13_out = {
  t_delivered : int;
  t_bytes : int;  (** Every byte the fabric charged (framed on streams). *)
  t_wall_ms : float;  (** Wall clock; logical-instant on the sim. *)
}

(* One fabric, both peers in-process: the sender streams [k] same-type
   objects at the receiver and the run ends when the last conformance
   verdict lands. Streams go through real kernel sockets (loopback TCP /
   unix-domain), so wall time includes framing, syscalls and the poll
   loop; the sim charges declared sizes in zero wall time. *)
let e13_run kind ?batch_bytes ~handles ~tdesc_binary ~k ~seed () =
  let tr =
    match kind with
    | Transport.Sim -> Transport.of_net (Net.create ~seed ())
    | Transport.Unix_socket ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "pti-bench-%d" (Unix.getpid ()))
        in
        (try Unix.mkdir dir 0o700
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Transport.create_unix ~dir ~codec:Message_wire.codec ()
    | Transport.Tcp -> Transport.create_tcp ~codec:Message_wire.codec ()
  in
  let mk a = Peer.create ~handles ?batch_bytes ~tdesc_binary ~transport:tr a in
  let receiver = mk "b" in
  let sender = mk "a" in
  Peer.publish_assembly sender (Demo.social_assembly ());
  Peer.publish_assembly receiver (Demo.news_assembly ());
  (match Transport.listen_spec tr "b" with
  | Some spec -> Transport.register_remote tr "b" spec
  | None -> () (* sim: addresses resolve in-memory *));
  let delivered = ref 0 in
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> incr delivered);
  let started = Unix.gettimeofday () in
  for i = 0 to k - 1 do
    let v =
      Demo.make_social_person (Peer.registry sender)
        ~name:(Printf.sprintf "p%d" i)
        ~age:(20 + i)
    in
    Peer.send_value sender ~dst:"b" v;
    ignore (Transport.poll tr ~timeout_ms:0.)
  done;
  ignore
    (Transport.drive_until tr
       ~deadline_ms:(Transport.now_ms tr +. 30_000.)
       (fun () -> !delivered = k));
  let wall_ms = 1000. *. (Unix.gettimeofday () -. started) in
  let bytes =
    Stats.total_bytes (Transport.stats tr)
    + Transport.total_received_bytes tr
  in
  Transport.close tr;
  { t_delivered = !delivered; t_bytes = bytes; t_wall_ms = wall_ms }

let e13 () =
  hr ();
  print_endline
    "E13 transport backends: the protocol stack on sim, unix-domain and \
     TCP sockets";
  hr ();
  let k = if quick then 20 else 100 in
  Printf.printf
    "\n\
    \  %d same-type objects a->b on one fabric, classic wire (XML\n\
    \  envelopes, no handles) vs negotiated wire (handles + 4 KiB\n\
    \  batching + binary tdescs). Stream bytes are actual framed wire\n\
    \  bytes (tx+rx); sim bytes are declared sizes, both directions on\n\
    \  its shared ledger. Sim wall time is the driver loop only -- the\n\
    \  simulator runs in logical time.\n\n" k;
  Printf.printf "  %-6s | %9s %9s %9s | %9s %9s %9s | %9s\n" "" "classic"
    "wall ms" "kobj/s" "wire" "wall ms" "kobj/s" "reduction";
  let e13_rows = ref [] in
  let backends =
    [ ("sim", Transport.Sim); ("unix", Transport.Unix_socket);
      ("tcp", Transport.Tcp) ]
  in
  List.iter
    (fun (name, kind) ->
      let classic =
        e13_run kind ~handles:false ~tdesc_binary:false ~k ~seed:23L ()
      in
      let wire =
        e13_run kind ~batch_bytes:4096 ~handles:true ~tdesc_binary:true ~k
          ~seed:23L ()
      in
      assert (classic.t_delivered = k && wire.t_delivered = k);
      let per o = float_of_int o.t_bytes /. float_of_int k in
      let rate o =
        if o.t_wall_ms <= 0. then 0. else float_of_int k /. o.t_wall_ms
      in
      let reduction = 100. *. (1. -. (per wire /. per classic)) in
      Printf.printf
        "  %-6s | %8.0fB %9.1f %9.1f | %8.0fB %9.1f %9.1f | %8.1f%%\n" name
        (per classic) classic.t_wall_ms (rate classic) (per wire)
        wire.t_wall_ms (rate wire) reduction;
      e13_rows :=
        (name ^ " reduction%", reduction)
        :: (name ^ " wire wall ms", wire.t_wall_ms)
        :: (name ^ " wire B/obj", per wire)
        :: (name ^ " classic wall ms", classic.t_wall_ms)
        :: (name ^ " classic B/obj", per classic)
        :: !e13_rows)
    backends;
  record_group "E13" (List.rev !e13_rows);
  (* Headline transport field: which backends completed the run. *)
  record_group "transport"
    (List.map (fun (name, _) -> (name, 1.)) backends);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E14: population scale -- the million-session flyweight simulator     *)
(* ------------------------------------------------------------------ *)

module Scale = Pti_scale.Driver

let e14 () =
  hr ();
  print_endline
    "E14 population scale: flyweight sessions over the discrete-event \
     simulator";
  hr ();
  let sweep = if quick then [ 1_000; 5_000 ] else [ 1_000; 10_000; 100_000 ] in
  Printf.printf
    "\n\
    \  N zipf(1.1) sessions, churn 0.5, 2 sends each, flash crowd at\n\
    \  30 s: a brand-new hot type hits every live session at once and\n\
    \  the in-flight dedup must hold its fetches at O(shards). All\n\
    \  shards share one Peer flyweight block. Deliveries/sec is\n\
    \  sustained simulated throughput; wall ms is host time for the\n\
    \  whole run.\n\n";
  Printf.printf "  %9s | %9s %7s %7s | %9s %11s | %9s\n" "sessions" "deliv/s"
    "p50 ms" "p99 ms" "tdesc hit" "flash tdesc" "wall ms";
  let e14_rows = ref [] in
  List.iter
    (fun sessions ->
      let cfg =
        { Scale.default_config with Scale.sessions;
          flash_at_ms = Some 30_000. }
      in
      let started = Unix.gettimeofday () in
      let r = Scale.run cfg in
      let wall_ms = 1000. *. (Unix.gettimeofday () -. started) in
      assert (r.Scale.r_undelivered = 0);
      Printf.printf "  %9d | %9.0f %7.2f %7.2f | %9.4f %11d | %9.0f\n" sessions
        r.Scale.r_deliveries_per_sec r.Scale.r_p50_ms r.Scale.r_p99_ms
        r.Scale.r_tdesc_hit_rate r.Scale.r_flash_tdesc_fetches wall_ms;
      let tag fmt = Printf.sprintf ("%d " ^^ fmt) sessions in
      e14_rows :=
        (tag "wall ms", wall_ms)
        :: (tag "flash tdesc", float_of_int r.Scale.r_flash_tdesc_fetches)
        :: (tag "tdesc hit", r.Scale.r_tdesc_hit_rate)
        :: (tag "p99 ms", r.Scale.r_p99_ms)
        :: (tag "p50 ms", r.Scale.r_p50_ms)
        :: (tag "deliv/s", r.Scale.r_deliveries_per_sec)
        :: !e14_rows)
    sweep;
  record_group "E14" (List.rev !e14_rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E16: hub fan-out -- the sharded flyweight block across domains       *)
(* ------------------------------------------------------------------ *)

let e16_shards = 4

(* One logical hub = [e16_shards] endpoints sharing one sharded
   flyweight block, each endpoint on its own simulated network with its
   own slice of the spoke population. Setup (peer construction,
   publishing, send scheduling) happens untimed on the main domain; the
   timed phase runs each endpoint's network to quiescence with D
   domains splitting the endpoints. Per envelope that is the hub hot
   path end to end: envelope decode, GUID lookup, conformance check
   against the slot's verdict cache, payload decode, delivery — with
   writes confined to each domain's own slot, plus the shared
   domain-safe metrics registry. *)
let e16_build ~m ~spokes ~sends ~families =
  let sh = Peer.create_shared ~shards:e16_shards () in
  (* Code loading is single-domain; everything is preloaded here. *)
  let boot_net : Pti_core.Message.t Net.t = Net.create ~seed:1L () in
  let boot = Peer.create ~net:boot_net ~shared:sh "boot" in
  Peer.install_assembly boot (Workload.interest_assembly ());
  for f = 0 to families - 1 do
    Peer.install_assembly boot
      (Workload.family ~index:f ~flavor:Workload.Conformant)
  done;
  (* One hub address per shard slot, found by hashing candidates. *)
  let addrs = Array.make e16_shards "" in
  let picked = ref 0 and j = ref 0 in
  while !picked < e16_shards do
    let a = "hub" ^ string_of_int !j in
    let s = Peer.shard_index sh a in
    if String.equal addrs.(s) "" then begin
      addrs.(s) <- a;
      incr picked
    end;
    incr j
  done;
  let per_slot = spokes / e16_shards in
  let slots =
    Array.mapi
      (fun k addr ->
        let net : Pti_core.Message.t Net.t =
          Net.create ~seed:(Int64.of_int (100 + k)) ()
        in
        let hub = Peer.create ~net ~metrics:m ~shared:sh addr in
        let delivered = ref 0 in
        Peer.register_interest hub ~interest:Workload.interest_person
          (fun ~from:_ _ -> incr delivered);
        for s = 0 to per_slot - 1 do
          let f = s mod families in
          let p = Peer.create ~net (Printf.sprintf "%s.spoke%d" addr s) in
          Peer.publish_assembly p
            (Workload.family ~index:f ~flavor:Workload.Conformant);
          for i = 1 to sends do
            let v =
              Workload.make_person (Peer.registry p) ~index:f
                ~flavor:Workload.Conformant
                ~name:(Printf.sprintf "s%d.%d" s i)
                ~age:i
            in
            Peer.send_value p ~dst:addr v
          done
        done;
        (net, delivered))
      addrs
  in
  (sh, slots, per_slot * e16_shards * sends)

let e16_run_domains ~domains slots =
  let started = Unix.gettimeofday () in
  let doms =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let total = ref 0 in
            Array.iteri
              (fun k (net, delivered) ->
                if k mod domains = d then begin
                  Net.run net;
                  total := !total + !delivered
                end)
              slots;
            !total))
  in
  let delivered = List.fold_left (fun a d -> a + Domain.join d) 0 doms in
  let wall_ms = 1000. *. (Unix.gettimeofday () -. started) in
  (delivered, wall_ms)

let e16 () =
  hr ();
  print_endline
    "E16 hub fan-out: one sharded flyweight block, domains split the \
     shards";
  hr ();
  let spokes = if quick then 200 else 1_000 in
  let sends = if quick then 2 else 4 in
  let families = 8 in
  Printf.printf
    "\n\
    \  1 hub as %d shard endpoints over one flyweight block, %d spokes\n\
    \  sending %d envelopes each (%d type families). D domains each own\n\
    \  shards/D endpoints and run them to quiescence in parallel; the\n\
    \  hot path writes only its own slot's caches. Host has %d core(s)\n\
    \  -- wall-clock speedup is bounded by that; equal walls on one\n\
    \  core mean the block adds no cross-domain contention.\n\n"
    e16_shards spokes sends families (Domain.recommended_domain_count ());
  Printf.printf "  %7s | %9s %9s %9s | %9s %9s\n" "domains" "delivered"
    "wall ms" "kobj/s" "reuse" "speedup";
  let rows = ref [] in
  let base_wall = ref 0. in
  List.iter
    (fun domains ->
      let m = Metrics.create () in
      let sh, slots, expected = e16_build ~m ~spokes ~sends ~families in
      let delivered, wall_ms = e16_run_domains ~domains slots in
      assert (delivered = expected);
      let reuse = Peer.shared_reuse_rate sh in
      let rate = if wall_ms <= 0. then 0. else float_of_int delivered /. wall_ms in
      if domains = 1 then base_wall := wall_ms;
      let speedup = if wall_ms > 0. then !base_wall /. wall_ms else 0. in
      Printf.printf "  %7d | %9d %9.1f %9.1f | %9.4f %8.2fx\n" domains
        delivered wall_ms rate reuse speedup;
      let tag fmt = Printf.sprintf ("%d " ^^ fmt) domains in
      rows :=
        (tag "speedup", speedup)
        :: (tag "reuse", reuse)
        :: (tag "kobj/s", rate)
        :: (tag "wall ms", wall_ms)
        :: (tag "delivered", float_of_int delivered)
        :: !rows)
    [ 1; 2; 4 ];
  record_group "E16" (List.rev !rows);
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "Pragmatic Type Interoperability -- benchmark suite%s\n\n"
    (if quick then " (quick mode)" else "");
  let e1_results = e1 () in
  ignore (e2 ());
  ignore (e3 ());
  let direct =
    Option.value ~default:0. (List.assoc_opt "direct invocation" e1_results)
  in
  ignore (e4 ~direct_invocation_ns:direct ());
  e5 ();
  e6 ();
  ignore (e7 ());
  e8 ();
  e9 ();
  e10 ();
  e11 ();
  e12 ();
  e13 ();
  e14 ();
  e16 ();
  hr ();
  write_json ();
  print_endline "Done. See EXPERIMENTS.md for paper-vs-measured discussion."
