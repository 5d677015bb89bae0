(* cold-churn: the discovery path of Figure 1 on the simulator, which
   costs no transport time, so the type layers are all that is measured.
   Every repetition builds a fresh world (from its own seed, derived from
   the run's) in which sender "a" publishes
   2400 families (at the default 15 s) in a seed-permuted order, a
   seed-chosen 20% of them Trap_missing. Each family gets one first send
   and then three repeats, one at a time, with [Net.run] after each, so
   the median op is a cached repeat and p90 a conformant first send.

   A first send of a conformant family fetches descriptions, runs the
   cold conformance check, downloads, decodes and loads the assembly; a
   trap is rejected before any download. Repeats hit the caches. An op
   is one landed outcome: a delivery or a correct rejection. *)

open Pti_cts
module H = Harness
module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Peer = Pti_core.Peer
module Message = Pti_core.Message
module Metrics = Pti_obs.Metrics
module Workload = Pti_demo.Workload
module Splitmix = Pti_util.Splitmix
module Td = Pti_typedesc.Type_description

let name = "cold-churn"
let repeats = 3
let trap_share = 0.2

(* Sizing only: families put through their four ops per second on the
   reference host, so the repetitions together take about --seconds
   there. Measured on the 2400-family worlds it gives at 15 s: 6800-7500
   op/s, 1700-1900 families/s; an op costs more as the world grows. *)
let nominal_families_per_s = 1600.
let warmup_families = 50

type family = { index : int; trap : bool; obj : Value.obj }

type world = {
  net : Message.t Net.t;
  tr : Message.t Transport.t;
  a : Peer.t;
  b : Peer.t;
  order : family array;
  asms : (string, Assembly.t) Hashtbl.t;  (* by assembly name *)
  ledger : Ledger.t;
  rejected : Metrics.counter;
  mutable next_seq : int;
  mutable delivered_sim_ms : float;
}

let wire net = Peer.create ~handles:true ~batch_bytes:4096 ~tdesc_binary:true ~net

let build ?tr ~seed ~families ~ledger () =
  let net : Message.t Net.t = Net.create ~seed:(Int64.of_int seed) () in
  let b = wire net "b" in
  let a = wire net "a" in
  Peer.install_assembly b (Workload.interest_assembly ());
  let rng = Splitmix.create (Int64.of_int seed) in
  let order = Array.init families (fun i -> i) in
  Splitmix.shuffle rng order;
  let by_trap = Array.init families (fun i -> i) in
  Splitmix.shuffle rng by_trap;
  let traps = Hashtbl.create families in
  let n_traps = int_of_float (Float.round (trap_share *. float_of_int families)) in
  Array.iteri (fun k i -> if k < n_traps then Hashtbl.replace traps i ()) by_trap;
  let asms = Hashtbl.create families in
  let order =
    Array.map
      (fun index ->
        let trap = Hashtbl.mem traps index in
        let flavor = if trap then Workload.Trap_missing else Workload.Conformant in
        let asm = Workload.family ~index ~flavor in
        Hashtbl.replace asms asm.Assembly.asm_name asm;
        Trace.span_opt tr "core.publish_assembly" ~op:(-1) (fun () ->
            Peer.publish_assembly a asm);
        match Workload.make_person (Peer.registry a) ~index ~flavor ~name:"s" ~age:0 with
        | Value.Vobj obj -> { index; trap; obj }
        | _ -> invalid_arg "cold-churn: family constructor did not return an object")
      order
  in
  let w =
    {
      net;
      tr = Peer.transport a;
      a;
      b;
      order;
      asms;
      ledger;
      rejected = Metrics.counter (Peer.metrics b) "peer.b.rejected";
      next_seq = 0;
      delivered_sim_ms = nan;
    }
  in
  Peer.register_interest b ~interest:Workload.interest_person (fun ~from:_ v ->
      let reg = Peer.registry b in
      w.delivered_sim_ms <- Net.now_ms net;
      match (Eval.call reg v "getName" [], Eval.call reg v "getAge" []) with
      | Value.Vstring name, Value.Vint age -> ignore (Ledger.delivered ledger ~name ~age)
      | _ -> Ledger.fail ledger "delivered value does not read back as a person"
      | exception Eval.Runtime_error m -> Ledger.fail ledger ("read-back failed: " ^ m));
  w

(* One op: send, run the simulation to quiescence, judge the outcome.
   Returns the op's wall latency (+infinity when it failed) and, for a
   delivery, its simulated send-to-outcome time. *)
let op ?tr w f =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  Value.set_field f.obj "name" (Value.Vstring ("s" ^ string_of_int seq));
  Value.set_field f.obj "age" (Value.Vint seq);
  let rejected0 = Metrics.counter_value w.rejected in
  if not f.trap then Ledger.sent w.ledger seq;
  let sim0 = Net.now_ms w.net in
  let t0 = Mono.now_ns () in
  Trace.span_opt tr "core.send_value" ~op:seq (fun () ->
      Peer.send_value w.a ~dst:"b" (Value.Vobj f.obj));
  Trace.span_opt tr "net.run" ~op:seq (fun () -> Net.run w.net);
  let ns = Mono.now_ns () - t0 in
  let ok =
    if f.trap then begin
      let rejected = Metrics.counter_value w.rejected - rejected0 in
      Ledger.judge w.ledger (rejected = 1) (fun () ->
          Printf.sprintf "trap family %d: %d rejections for one send" f.index rejected);
      rejected = 1
    end
    else Ledger.is_delivered w.ledger seq
  in
  let sim_ms = if ok && not f.trap then w.delivered_sim_ms -. sim0 else nan in
  ((if ok then Mono.ms_of_ns ns else Stats.failed), sim_ms)

(* Every family in order: a first send, then the repeats. *)
let repetition ?tr w =
  let n = Array.length w.order in
  let lat = H.samples ~capacity:(n * (repeats + 1)) ()
  and cold_sim = H.samples ~capacity:n () in
  let bytes0 = H.wire_bytes w.tr and words0 = Gc.minor_words () in
  let t0 = Mono.now_ns () in
  Array.iter
    (fun f ->
      for k = 0 to repeats do
        let ms, sim = op ?tr w f in
        H.record lat ms;
        if k = 0 && not (Float.is_nan sim) then H.record cold_sim sim
      done)
    w.order;
  let wall_ns = Mono.now_ns () - t0 in
  let minor_words = Gc.minor_words () -. words0 in
  let lat = H.take lat in
  let rep =
    {
      H.ops = Array.fold_left (fun n x -> if Float.is_finite x then n + 1 else n) 0 lat;
      wall_ns;
      lat_ms = lat;
      bytes = H.wire_bytes w.tr - bytes0;
      minor_words;
    }
  in
  (rep, H.take cold_sim)

let check_world w =
  Ledger.settle w.ledger;
  List.iter (Ledger.fail w.ledger) (H.pipeline_faults w.b)

(* Replay the traced world's captured messages (see [Replay]): decoding
   stages in arrival order, then the delivery end per envelope. *)
let replay st w captured =
  let r =
    Replay.receiver ~interest:Workload.interest_person
      ~code:[ Workload.interest_assembly () ]
  in
  let sender_reg = Registry.create () in
  Hashtbl.iter (fun _ a -> Assembly.load sender_reg a) w.asms;
  let envs = ref [] in
  List.iter
    (fun (m : Message.t) ->
      match m with
      | Message.Obj_msg _ | Message.Obj_batch _ ->
          List.iter
            (fun e ->
              Option.iter (fun env -> envs := env :: !envs) (Replay.decode_envelope st r e))
            (Replay.parts st m)
      | Message.Tdesc_request { type_name; binary_ok; _ } ->
          H.time_stage st.Replay.tdesc_encode (fun () ->
              Option.iter
                (fun cd ->
                  let d = Td.of_class cd in
                  ignore
                    (if binary_ok then Td.to_binary_string d else Td.to_xml_string d))
                (Registry.find sender_reg type_name))
      | Message.Tdesc_reply { desc = Some s; _ } -> (
          Replay.note_tdesc_reply r m;
          match H.time_stage st.Replay.tdesc_decode (fun () -> Td.of_wire_string s) with
          | Ok d ->
              Hashtbl.replace r.Replay.tdescs
                (String.lowercase_ascii (Td.qualified_name d))
                d
          | Error _ -> ())
      | Message.Asm_request { path; _ } ->
          H.time_stage st.Replay.asm_encode (fun () ->
              match Pti_core.Repository.parse_path path with
              | Some (_, asm_name) ->
                  Option.iter
                    (fun a -> ignore (Pti_serial.Assembly_xml.to_string a))
                    (Hashtbl.find_opt w.asms asm_name)
              | None -> ())
      | Message.Asm_reply { assembly = Some s; _ } -> (
          match
            H.time_stage st.Replay.asm_decode (fun () -> Pti_serial.Assembly_xml.of_string s)
          with
          | Ok a -> H.time_stage st.Replay.load (fun () -> Assembly.load r.Replay.reg a)
          | Error _ -> ())
      | _ -> ())
    captured;
  List.iter (Replay.deliver st r) (List.rev !envs);
  r

let run (cfg : H.config) =
  let families =
    max 10 (H.count nominal_families_per_s (cfg.seconds /. float_of_int H.reps))
  in
  let ledger = Ledger.create () in
  (* Warm-up: a small world, run and thrown away. *)
  ignore
    (repetition
       (build ~seed:cfg.seed ~families:warmup_families ~ledger:(Ledger.create ()) ()));
  (* Repetition k draws its world from seed [seed * reps + k]. With one
     seed for all, every repetition would allocate alike, and the heap
     peak (the GC's phase when the world peaks) and the throughput of one
     family order would be a single draw per run rather than the worst
     and the median of [reps] draws. The previous world is collected
     before the next is built, so the peak is one world's, not two at
     whatever point the major GC had reached. *)
  let setup_s = ref [] in
  let fresh () =
    H.quiesce ();
    let seed = (cfg.seed * H.reps) + List.length !setup_s in
    let w, ns = H.timed (build ~seed ~families ~ledger) in
    setup_s := Mono.s_of_ns ns :: !setup_s;
    w
  in
  let outs, gc, heap_mb =
    H.repeat ~prepare:fresh ~ops:(fun (rep, _) -> rep.H.ops) (fun w ->
        let out = repetition w in
        check_world w;
        out)
  in
  let reps = List.map fst outs in
  let finish ~layer ~text =
    H.finish ~workload:name cfg ledger ~setup_s:(List.rev !setup_s) ~reps ~heap_mb ~layer
      ~text
  in
  if not cfg.trace then finish ~layer:[] ~text:[]
  else begin
    (* The traced world: spans around every call into the stack, every
       message captured on arrival through an always-true integrity
       predicate. Its set-up is not one of the reported set-ups. *)
    let tr = Trace.create () in
    let w = build ~tr ~seed:cfg.seed ~families ~ledger () in
    let captured = ref [] in
    Net.set_integrity w.net
      (Some
         (fun m ->
           captured := m :: !captured;
           true));
    let before = H.categories w.tr in
    H.quiesce ();
    let traced, cold_sim = repetition ~tr w in
    check_world w;
    let ops = traced.H.ops in
    let ops_f = float_of_int (max 1 ops) in
    let st = Replay.stages () in
    let r = replay st w (List.rev !captured) in
    let wall_us_per_op = H.wall_us_per_op reps in
    let text, attributed =
      H.waterfall ~workload:name ~ops ~wall_us_per_op
        [
          H.span_stage tr "core.send_value" ~label:"core.send_value (live span)";
          st.Replay.batch; st.env_decode; st.tdesc_encode; st.tdesc_decode; st.check_cold;
          st.check_cached; st.asm_encode; st.asm_decode; st.load; st.payload; st.of_class;
          st.wrap; st.invoke;
        ]
    in
    let run_t = Trace.totals tr "net.run" in
    let send_t = Trace.totals tr "core.send_value" in
    let stats = Transport.stats w.tr in
    let msgs = H.Net_stats.total_messages stats in
    let per_family c =
      float_of_int (H.Net_stats.messages stats c) /. float_of_int (Array.length w.order)
    in
    let layer =
      [
        ("transport.frames_per_op", float_of_int msgs /. ops_f);
        ( "transport.frame_bytes",
          float_of_int (H.Net_stats.total_bytes stats) /. float_of_int (max 1 msgs) );
        ("net.run_us_per_op", Mono.us_of_ns run_t.Trace.total_ns /. ops_f);
        ("core.send_us_per_op", Mono.us_of_ns send_t.Trace.total_ns /. ops_f);
        ("core.send_words_per_op", send_t.Trace.words /. ops_f);
        ("core.tdesc_fetches_per_new_type", per_family H.Net_stats.Tdesc_request);
        ("core.asm_fetches_per_new_type", per_family H.Net_stats.Asm_request);
        H.envelopes_per_batch w.a (0, 0);
        ("core.cold_first_delivery_sim_ms", Stats.median cold_sim);
        ("typedesc.reply_bytes", Replay.reply_bytes r);
        ("bench.trace_overhead_pct", H.trace_overhead_pct ~untraced:reps ~traced);
      ]
      @ H.attribution_layer ~attributed ~wall_us_per_op
      @ H.net_layer ~before ~after:(H.categories w.tr) ~ops
      @ H.core_layer ~sender:w.a ~receiver:w.b
      @ H.transport_layer w.tr @ H.span_layer tr @ Replay.layer st
      @ H.tail_layer reps @ gc
      (* No codec or poll loop on the simulator, no paced phase, no
         population. *)
      @ H.not_used
          ([
             "transport.encode_us"; "transport.decode_us"; "transport.poll_us_per_op";
             "transport.empty_polls_per_op"; "bench.gen_late_p99_ms";
           ]
          @ H.names_with_prefix "scale.")
    in
    H.write_trace cfg tr ~workload:name;
    finish ~layer ~text
  end
