(* rpc-tcp: pass-by-reference over loopback TCP. During set-up the server
   exports one object of a seed-chosen family and the client acquires it
   as its own interest type (fetching the description and checking
   conformance). The measured loop is a closed loop with one outstanding
   call, cycling setAge(i), getAge (which must return i) and getName.
   Classic XML envelopes are encoded and decoded on both sides of every
   call, and the transport carries latency-bound request/reply traffic
   rather than a throughput-bound stream, so per-message stalls (Nagle,
   poll wake-ups) show here and not in hot-tcp. An op is one call. *)

open Pti_cts
module H = Harness
module Transport = Pti_transport.Transport
module Peer = Pti_core.Peer
module Message = Pti_core.Message
module Message_wire = Pti_core.Message_wire
module Workload = Pti_demo.Workload
module Splitmix = Pti_util.Splitmix
module Env = Pti_serial.Envelope

let name = "rpc-tcp"
let warmup_cycles = 300

(* Sizing only: calls per second on the reference host, so a repetition
   takes about its share of --seconds there. *)
let nominal_calls_per_s = 40_000.
let person = "rpc"

type world = {
  tr : Message.t Transport.t;
  srv : Peer.t;
  cli : Peer.t;
  index : int;
  proxy : Value.value;
  ledger : Ledger.t;
  lat : H.samples;
  mutable i : int;
}

let family_index seed = 10 + Splitmix.int (Splitmix.create (Int64.of_int seed)) 90

(* One remote call, judged. Returns its wall latency in ms (+infinity
   when it failed). *)
let call ?tr w meth args ~expect =
  let reg = Peer.registry w.cli in
  let t0 = Mono.now_ns () in
  let outcome =
    match
      Trace.span_opt tr "proxy.remote_call" ~op:w.i (fun () ->
          Eval.call reg w.proxy meth args)
    with
    | v -> expect v
    | exception Eval.Runtime_error m -> Error m
  in
  let ns = Mono.now_ns () - t0 in
  Ledger.judge w.ledger (Result.is_ok outcome) (fun () ->
      Printf.sprintf "%s: %s" meth (match outcome with Error m -> m | Ok () -> ""));
  if Result.is_ok outcome then Mono.ms_of_ns ns else Stats.failed

let cycle ?tr w k =
  let i = w.i in
  w.i <- i + 1;
  k (call ?tr w "setAge" [ Value.Vint i ] ~expect:(fun _ -> Ok ()));
  k
    (call ?tr w "getAge" [] ~expect:(function
      | Value.Vint n when n = i -> Ok ()
      | v ->
          Error
            (Printf.sprintf "getAge returned %s after setAge(%d)" (Value.to_string v) i)));
  k
    (call ?tr w "getName" [] ~expect:(function
      | Value.Vstring s when s = person -> Ok ()
      | v -> Error ("getName returned " ^ Value.to_string v)))

let build (cfg : H.config) ~probe () =
  let tr = Transport.create_tcp ~codec:(H.codec_for probe) () in
  let srv = Peer.create ~transport:tr "srv" in
  let cli = Peer.create ~transport:tr "cli" in
  let index = family_index cfg.seed in
  Peer.publish_assembly srv (Workload.family ~index ~flavor:Workload.Conformant);
  let rref =
    Peer.export srv
      (Workload.make_person (Peer.registry srv) ~index ~flavor:Workload.Conformant
         ~name:person ~age:0)
  in
  Peer.install_assembly cli (Workload.interest_assembly ());
  match
    Trace.span_opt (Option.map (fun p -> p.H.tr) probe) "core.acquire" ~op:(-1) (fun () ->
        Peer.acquire cli rref ~interest:Workload.interest_person)
  with
  | Error e -> failwith ("rpc-tcp: acquire failed: " ^ e)
  | Ok proxy ->
      let w =
        { tr; srv; cli; index; proxy; ledger = Ledger.create (); lat = H.samples (); i = 0 }
      in
      for _ = 1 to warmup_cycles do
        cycle w ignore
      done;
      w

let teardown w = Transport.close w.tr

(* Closed loop of [cycles] setAge/getAge/getName cycles. *)
let repetition ?tr w ~cycles =
  let bytes0 = H.wire_bytes w.tr and words0 = Gc.minor_words () in
  let t0 = Mono.now_ns () in
  for _ = 1 to cycles do
    cycle ?tr w (H.record w.lat)
  done;
  let wall_ns = Mono.now_ns () - t0 in
  let minor_words = Gc.minor_words () -. words0 in
  let lat = H.take w.lat in
  {
    H.ops = Array.fold_left (fun n x -> if Float.is_finite x then n + 1 else n) 0 lat;
    wall_ns;
    lat_ms = lat;
    bytes = H.wire_bytes w.tr - bytes0;
    minor_words;
  }

(* Both ends of every call, stage by stage: the client encoding the
   argument envelope, the frame decode, the server decoding the
   arguments and running the method on its own object, the reply
   encode, and the client decoding the result. *)
let replay st w frames =
  let srv_reg = Registry.create () in
  Assembly.load srv_reg (Workload.family ~index:w.index ~flavor:Workload.Conformant);
  let target =
    Workload.make_person srv_reg ~index:w.index ~flavor:Workload.Conformant ~name:person
      ~age:0
  in
  let cli_reg = Registry.create () in
  Assembly.load cli_reg (Workload.interest_assembly ());
  let path ~host ~assembly = Pti_core.Repository.path_for ~host ~assembly in
  let encode reg ~host v =
    H.time_stage st.Replay.env_encode (fun () ->
        Env.to_string
          (Env.make reg ~codec:Env.Binary
             ~download_path:(fun ~assembly -> path ~host ~assembly)
             v))
  in
  let decode reg xml =
    match H.time_stage st.Replay.env_decode (fun () -> Env.of_string xml) with
    | Error _ -> None
    | Ok env -> (
        match H.time_stage st.Replay.payload (fun () -> Env.decode_payload reg env) with
        | Ok v -> Some v
        | Error _ -> None)
  in
  List.iter
    (fun payload ->
      match H.time_stage st.Replay.frame (fun () -> Message_wire.decode payload) with
      | Ok (Message.Invoke_request { meth; args; _ }) -> (
          match decode srv_reg args with
          | Some (Value.Varr a as v) ->
              ignore (encode cli_reg ~host:"cli" v);
              let result =
                H.time_stage st.Replay.direct (fun () ->
                    try Eval.call srv_reg target meth (Array.to_list a.Value.items)
                    with Eval.Runtime_error _ -> Value.Vnull)
              in
              ignore (encode srv_reg ~host:"srv" result)
          | _ -> ())
      | Ok (Message.Invoke_reply { result = Some xml; _ }) -> ignore (decode cli_reg xml)
      | _ -> ())
    frames

let run (cfg : H.config) =
  let probe = if cfg.trace then Some (H.probe (Trace.create ())) else None in
  let w, setup_s = H.repeated_setup ~build:(build cfg ~probe) ~teardown in
  Option.iter (fun p -> p.H.phase <- H.Untraced) probe;
  let calls = H.count nominal_calls_per_s (cfg.seconds /. float_of_int H.reps) in
  let cycles = max 1 (calls / 3) in
  let reps, gc, heap_mb =
    H.repeat ~prepare:ignore ~ops:(fun r -> r.H.ops) (fun () -> repetition w ~cycles)
  in
  let finish ~layer ~text =
    teardown w;
    List.iter (Ledger.fail w.ledger) (H.pipeline_faults w.srv @ H.pipeline_faults w.cli);
    H.finish ~workload:name cfg w.ledger ~setup_s ~reps ~heap_mb ~layer ~text
  in
  match probe with
  | None -> finish ~layer:[] ~text:[]
  | Some p ->
      let tr = p.H.tr in
      let before = H.categories w.tr in
      let stats = Transport.stats w.tr in
      let frames0 = H.Net_stats.total_messages stats in
      let fbytes0 = H.Net_stats.total_bytes stats in
      p.H.phase <- H.Traced;
      H.quiesce ();
      let traced = repetition ~tr w ~cycles in
      p.H.phase <- H.Untraced;
      let ops = traced.H.ops in
      let ops_f = float_of_int (max 1 ops) in
      let frames = H.Net_stats.total_messages stats - frames0 in
      let st = Replay.stages () in
      replay st w
        (List.rev
           (List.filter_map (fun (s, in_window) -> if in_window then Some s else None)
              p.H.captured));
      p.H.captured <- [];
      let wall_us_per_op = H.wall_us_per_op reps in
      let enc = { p.H.enc with H.st_name = "transport.frame_encode (live)" } in
      let text, attributed =
        H.waterfall ~workload:name ~ops ~wall_us_per_op
          [ enc; st.Replay.frame; st.env_encode; st.env_decode; st.payload; st.direct ]
      in
      let call_t = Trace.totals tr "proxy.remote_call" in
      let layer =
        [
          ("transport.encode_us", H.us_per_call p.H.enc);
          ("transport.decode_us", H.us_per_call p.H.dec);
          ("transport.frames_per_op", float_of_int frames /. ops_f);
          ( "transport.frame_bytes",
            float_of_int (H.Net_stats.total_bytes stats - fbytes0)
            /. float_of_int (max 1 frames) );
          ( "proxy.invoke_us",
            Mono.us_of_ns call_t.Trace.total_ns /. float_of_int (max 1 call_t.Trace.count) );
          ("bench.trace_overhead_pct", H.trace_overhead_pct ~untraced:reps ~traced);
        ]
        @ H.attribution_layer ~attributed ~wall_us_per_op
        @ H.net_layer ~before ~after:(H.categories w.tr) ~ops
        @ H.core_layer ~sender:w.cli ~receiver:w.srv
        @ H.transport_layer w.tr @ H.span_layer tr
        @ List.filter (fun (k, _) -> k <> "proxy.invoke_us") (Replay.layer st)
        @ H.tail_layer reps @ gc
        (* Polling happens inside [Peer]; the measured loop sends no
           objects and meets no new type; no simulator, paced phase or
           population. *)
        @ H.not_used
            ([
               "transport.poll_us_per_op"; "transport.empty_polls_per_op";
               "net.run_us_per_op"; "core.send_us_per_op"; "core.send_words_per_op";
               "core.tdesc_fetches_per_new_type"; "core.asm_fetches_per_new_type";
               "core.envelopes_per_batch"; "core.cold_first_delivery_sim_ms";
               "typedesc.reply_bytes"; "bench.gen_late_p99_ms";
             ]
            @ H.names_with_prefix "scale.")
      in
      H.write_trace cfg tr ~workload:name;
      finish ~layer ~text
