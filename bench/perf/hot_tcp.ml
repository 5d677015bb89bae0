(* hot-tcp: the steady fast path over loopback TCP with the negotiated
   wire (handles, 4 KiB batches, binary tdescs). Sender "a" streams to
   receiver "b"; eight conformant families, chosen by the seed, are
   picked zipf(1.1) per send and every type is cached during set-up, so
   the measured time goes to framing and the poll loop, handle-envelope
   decode, payload decode, the cached verdict and the proxy — never to
   fetching, cold checks or code loading.

   Each repetition has two phases of equal nominal length: capacity, a
   closed loop of one client with windows of 64 objects in flight, for a
   fixed number of deliveries (ops/s, bytes and words per op), and paced, an
   open loop at 8000 objects/s timed from each object's due instant (the
   latency percentiles). The work is fixed, not the time, so a faster
   build finishes sooner and memory does not grow with speed. *)

open Pti_cts
module H = Harness
module Transport = Pti_transport.Transport
module Peer = Pti_core.Peer
module Workload = Pti_demo.Workload
module Zipf = Pti_scale.Zipf
module Splitmix = Pti_util.Splitmix

let name = "hot-tcp"
let families = 8
let window = 64
let rate_per_s = 8000

(* Sizing only: deliveries per second of capacity on the reference host,
   so a phase takes about its share of --seconds there. *)
let nominal_capacity_per_s = 40_000.
let warmup_sends = 2000
let drain_ms = 5_000.

type world = {
  tr : Harness.Message.t Transport.t;
  a : Peer.t;
  b : Peer.t;
  families : int array;  (* family indices *)
  objs : Value.obj array;  (* one reusable sender object per family *)
  zipf : Zipf.t;
  rng : Splitmix.t;
  ledger : Ledger.t;
  mutable next_seq : int;
  mutable paced_base : int;
  mutable paced_done : int array;  (* delivery instant per paced op, 0 = none *)
  mutable empty_polls : int;
}

let wire = Peer.create ~handles:true ~batch_bytes:4096 ~tdesc_binary:true

(* Eight distinct family indices with two-digit names, so the wire size
   of a type name does not depend on which families the seed picked. *)
let pick_families rng =
  let pool = Array.init 90 (fun i -> i + 10) in
  Splitmix.shuffle rng pool;
  Array.sub pool 0 families

let on_delivery w ~from:_ v =
  let reg = Peer.registry w.b in
  match (Eval.call reg v "getName" [], Eval.call reg v "getAge" []) with
  | Value.Vstring name, Value.Vint age ->
      if Ledger.delivered w.ledger ~name ~age then begin
        let i = age - w.paced_base in
        if i >= 0 && i < Array.length w.paced_done then w.paced_done.(i) <- Mono.now_ns ()
      end
  | _ -> Ledger.fail w.ledger "delivered value does not read back as a person"
  | exception Eval.Runtime_error m -> Ledger.fail w.ledger ("read-back failed: " ^ m)

let send_family ?tr w k =
  let seq = w.next_seq in
  w.next_seq <- seq + 1;
  let o = w.objs.(k) in
  Value.set_field o "name" (Value.Vstring ("s" ^ string_of_int seq));
  Value.set_field o "age" (Value.Vint seq);
  Ledger.sent w.ledger seq;
  Trace.span_opt tr "core.send_value" ~op:seq (fun () ->
      Peer.send_value w.a ~dst:"b" (Value.Vobj o))

let send ?tr w = send_family ?tr w (Zipf.sample w.zipf w.rng)

let poll ?tr w ~timeout_ms =
  let busy =
    Trace.span_opt tr "transport.poll" ~op:(-1) (fun () -> Transport.poll w.tr ~timeout_ms)
  in
  if not busy then w.empty_polls <- w.empty_polls + 1

(* Wait until every object in flight has landed. A lost object would
   hold every later window for the whole [drain_ms], so the first
   timeout ends the run with the outstanding objects as failures. *)
let drain ?tr w =
  let deadline = Transport.now_ms w.tr +. drain_ms in
  while Ledger.in_flight w.ledger > 0 && Transport.now_ms w.tr < deadline do
    poll ?tr w ~timeout_ms:1.
  done;
  if Ledger.in_flight w.ledger > 0 then
    H.abort ~workload:name w.ledger
      (Printf.sprintf "%d objects still in flight after %.0f ms" (Ledger.in_flight w.ledger)
         drain_ms)

(* Closed loop in windows: send [window] objects, wait until every one
   is delivered, repeat until [n] have been sent. Ops are the deliveries
   that landed in the phase. Whole windows (rather than topping up after
   every poll) make the batches, and so the frames, the same on every
   run: a sliding window cut batches wherever a poll happened to return,
   and its repetitions varied twice as much. *)
let capacity ?tr w ~n =
  let l = w.ledger in
  let correct0 = l.Ledger.correct and bytes0 = H.wire_bytes w.tr in
  let words0 = Gc.minor_words () in
  let t0 = Mono.now_ns () in
  let last = w.next_seq + n in
  while w.next_seq < last do
    for _ = 1 to min window (last - w.next_seq) do
      send ?tr w
    done;
    drain ?tr w
  done;
  let wall_ns = Mono.now_ns () - t0 in
  {
    H.ops = l.Ledger.correct - correct0;
    wall_ns;
    lat_ms = [||];
    bytes = H.wire_bytes w.tr - bytes0;
    minor_words = Gc.minor_words () -. words0;
  }

let build (cfg : H.config) ~probe () =
  let tr = Transport.create_tcp ~codec:(H.codec_for probe) () in
  let b = wire ~transport:tr "b" in
  let a = wire ~transport:tr "a" in
  let rng = Splitmix.create (Int64.of_int cfg.seed) in
  let idx = pick_families rng in
  Array.iter
    (fun i ->
      let asm = Workload.family ~index:i ~flavor:Workload.Conformant in
      Trace.span_opt (Option.map (fun p -> p.H.tr) probe) "core.publish_assembly" ~op:(-1)
        (fun () -> Peer.publish_assembly a asm))
    idx;
  Peer.install_assembly b (Workload.interest_assembly ());
  let objs =
    Array.map
      (fun i ->
        match
          Workload.make_person (Peer.registry a) ~index:i ~flavor:Workload.Conformant
            ~name:"s" ~age:0
        with
        | Value.Vobj o -> o
        | _ -> invalid_arg "hot-tcp: family constructor did not return an object")
      idx
  in
  let w =
    {
      tr;
      a;
      b;
      families = idx;
      objs;
      zipf = Zipf.create ~n:families ~s:1.1;
      rng;
      ledger = Ledger.create ();
      next_seq = 0;
      paced_base = 0;
      paced_done = [||];
      empty_polls = 0;
    }
  in
  Peer.register_interest b ~interest:Workload.interest_person (on_delivery w);
  (* First contact per family (fetch, check, download, load), then a
     fixed capacity run so caches, handles and the heap are warm. *)
  Array.iteri
    (fun k _ ->
      send_family w k;
      drain w)
    idx;
  ignore (capacity w ~n:warmup_sends);
  w

let teardown w = Transport.close w.tr

(* Open loop: [n] objects at [rate_per_s]; latencies from due instants,
   and how late the generator itself was. *)
let paced w ~n =
  let period_ns = 1_000_000_000 / rate_per_s in
  w.paced_base <- w.next_seq;
  w.paced_done <- Array.make n 0;
  let late = Array.make n 0. in
  let start_ns = Mono.now_ns () + 1_000_000 in
  for i = 0 to n - 1 do
    let due_ns = Stats.due_ns ~start_ns ~period_ns i in
    while Mono.now_ns () < due_ns do
      poll w ~timeout_ms:0.
    done;
    late.(i) <- Mono.ms_of_ns (Stats.lateness_ns ~due_ns ~sent_ns:(Mono.now_ns ()));
    send w;
    poll w ~timeout_ms:0.
  done;
  drain w;
  let lat =
    Array.mapi
      (fun i d ->
        let due_ns = Stats.due_ns ~start_ns ~period_ns i in
        Stats.latency_ms ~due_ns (if d = 0 then None else Some d))
      w.paced_done
  in
  w.paced_done <- [||];
  (lat, late)

type rep_out = { rep : H.rep; late_ms : float array }

let repetition w ~phase_s =
  let cap = capacity w ~n:(H.count nominal_capacity_per_s phase_s) in
  let lat, late = paced w ~n:(H.count (float_of_int rate_per_s) phase_s) in
  { rep = { cap with H.lat_ms = lat }; late_ms = late }

let run (cfg : H.config) =
  let probe = if cfg.trace then Some (H.probe (Trace.create ())) else None in
  let w, setup_s = H.repeated_setup ~build:(build cfg ~probe) ~teardown in
  Option.iter (fun p -> p.H.phase <- H.Untraced) probe;
  (* Each repetition splits its share of the measured time evenly
     between the two phases. *)
  let phase_s = cfg.seconds /. float_of_int (2 * H.reps) in
  let outs, gc, heap_mb =
    H.repeat ~prepare:ignore ~ops:(fun o -> o.rep.H.ops) (fun () -> repetition w ~phase_s)
  in
  let reps = List.map (fun o -> o.rep) outs in
  let finish ~layer ~text =
    teardown w;
    Ledger.settle w.ledger;
    List.iter (Ledger.fail w.ledger) (H.pipeline_faults w.b);
    H.finish ~workload:name cfg w.ledger ~setup_s ~reps ~heap_mb ~layer ~text
  in
  match probe with
  | None -> finish ~layer:[] ~text:[]
  | Some p ->
      let tr = p.H.tr in
      let stats = Transport.stats w.tr in
      let before = H.categories w.tr and batches = H.batch_mark w.a in
      let frames0 = H.Net_stats.total_messages stats in
      let bytes0 = H.Net_stats.total_bytes stats in
      w.empty_polls <- 0;
      p.H.phase <- H.Traced;
      H.quiesce ();
      let traced = capacity ~tr w ~n:(H.count nominal_capacity_per_s phase_s) in
      p.H.phase <- H.Untraced;
      let ops = traced.H.ops in
      let frames = H.Net_stats.total_messages stats - frames0 in
      let frame_bytes = H.Net_stats.total_bytes stats - bytes0 in
      let st = Replay.stages () in
      let r =
        Replay.receiver ~interest:Workload.interest_person
          ~code:
            (Workload.interest_assembly ()
            :: List.map
                 (fun index -> Workload.family ~index ~flavor:Workload.Conformant)
                 (Array.to_list w.families))
      in
      let msgs = Replay.decode_frames st r (List.rev p.H.captured) in
      p.H.captured <- [];
      let sender = Pti_serial.Handle_table.create_sender () in
      (* The first envelopes also time a cold check: a counterfactual, as
         the steady state being measured never checks cold. *)
      let cold_samples = ref 200 in
      List.iter
        (fun m ->
          List.iter
            (fun env_s ->
              match Replay.decode_envelope st r env_s with
              | None -> ()
              | Some env ->
                  Replay.deliver ~cold_sample:(!cold_samples > 0) st r env;
                  decr cold_samples;
                  Replay.encode_like_sender st r ~host:"a" sender env)
            (Replay.parts st m))
        msgs;
      let wall_us_per_op = H.wall_us_per_op reps in
      let text, attributed =
        H.waterfall ~workload:name ~ops ~wall_us_per_op
          [
            H.span_stage tr "core.send_value" ~label:"core.send_value (live span)";
            st.Replay.frame; st.batch; st.env_decode; st.payload; st.of_class;
            st.check_cached; st.wrap; st.invoke;
          ]
      in
      let off_path, _ =
        H.stage_rows ~ops ~wall_us_per_op
          [ st.Replay.check_cold; st.direct; st.env_encode ]
      in
      let ops_f = float_of_int (max 1 ops) in
      let poll_t = Trace.totals tr "transport.poll" in
      let send_t = Trace.totals tr "core.send_value" in
      let late = Array.concat (List.map (fun o -> o.late_ms) outs) in
      let per_family c =
        float_of_int (H.Net_stats.messages stats c) /. float_of_int families
      in
      let layer =
        [
          ("transport.encode_us", H.us_per_call p.H.enc);
          ("transport.decode_us", H.us_per_call p.H.dec);
          ("transport.frames_per_op", float_of_int frames /. ops_f);
          ( "transport.frame_bytes",
            float_of_int frame_bytes /. float_of_int (max 1 frames) );
          ("transport.poll_us_per_op", Mono.us_of_ns poll_t.Trace.total_ns /. ops_f);
          ("transport.empty_polls_per_op", float_of_int w.empty_polls /. ops_f);
          ("core.send_us_per_op", Mono.us_of_ns send_t.Trace.total_ns /. ops_f);
          ("core.send_words_per_op", send_t.Trace.words /. ops_f);
          ("core.tdesc_fetches_per_new_type", per_family H.Net_stats.Tdesc_request);
          ("core.asm_fetches_per_new_type", per_family H.Net_stats.Asm_request);
          H.envelopes_per_batch w.a batches;
          ("typedesc.reply_bytes", Replay.reply_bytes r);
          ("bench.gen_late_p99_ms", Stats.percentile late 0.99);
          ("bench.trace_overhead_pct", H.trace_overhead_pct ~untraced:reps ~traced);
        ]
        @ H.attribution_layer ~attributed ~wall_us_per_op
        @ H.net_layer ~before ~after:(H.categories w.tr) ~ops
        @ H.core_layer ~sender:w.a ~receiver:w.b
        @ H.transport_layer w.tr @ H.span_layer tr @ Replay.layer st
        @ H.tail_layer reps @ gc
        (* Simulator and population names. *)
        @ H.not_used
            ("net.run_us_per_op" :: "core.cold_first_delivery_sim_ms"
            :: H.names_with_prefix "scale.")
      in
      let text =
        text
        @ ("  off the hot path (cold-check counterfactual, direct call, send encode):"
          :: off_path)
      in
      H.write_trace cfg tr ~workload:name;
      finish ~layer ~text
