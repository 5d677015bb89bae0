(* population: [Pti_scale.Driver.run] — 15 000 sessions at the default
   15 s, 16 families (2 traps), 2 sends each, zipf 1.1, churn 0.5, a
   flash crowd at 30 s and a CAS upgrade of the hottest family at 40 s,
   one shard, a 60 s simulated horizon. Each repetition is a fresh run
   with the same seed, so every repetition must reproduce the same trace
   hash. It works the shared flyweight caches under session churn: the
   handle-table pool, in-flight fetch dedup, and verdict invalidation
   (the upgrade) beside cached reads.

   An op is a landed outcome (a delivery or a trap rejection). The run
   is a batch simulation, so an op has no wall latency of its own: the
   latency metrics of this workload are the repetition's wall time per
   op. *)

module H = Harness
module Driver = Pti_scale.Driver
module Metrics = Pti_obs.Metrics

let name = "population"
let sessions_per_second = 1000

let config ~seed ~sessions =
  {
    Driver.default_config with
    Driver.sessions;
    seed = Int64.of_int seed;
    flash_at_ms = Some 30_000.;
    upgrade_at_ms = Some 40_000.;
  }

let gauge m key =
  match Metrics.find m key with
  | Some (Metrics.Gauge g) -> g
  | Some (Metrics.Counter n) -> float_of_int n
  | _ -> 0.

let net_bytes m =
  List.fold_left
    (fun acc c -> acc +. gauge m ("net.bytes." ^ c))
    0. Catalogue.net_categories

type run_out = { rep : H.rep; report : Driver.report; metrics : Metrics.t }

let repetition ?tr cfg =
  let m = Metrics.create () in
  let words0 = Gc.minor_words () in
  let report, wall_ns =
    H.timed (fun () ->
        Trace.span_opt tr "scale.driver_run" ~op:(-1) (fun () -> Driver.run ~metrics:m cfg))
  in
  let minor_words = Gc.minor_words () -. words0 in
  let ops = report.Driver.r_deliveries + report.Driver.r_rejections in
  let rep =
    {
      H.ops;
      wall_ns;
      lat_ms = [| Mono.ms_of_ns wall_ns /. float_of_int (max 1 ops) |];
      bytes = int_of_float (net_bytes m);
      minor_words;
    }
  in
  { rep; report; metrics = m }

(* Every send lands (a delivery or a trap rejection), nothing stays in
   flight, no pipeline fault, and the run reproduces [hash]. *)
let judge ledger ~hash o =
  let r = o.report in
  let outcomes = r.Driver.r_deliveries + r.Driver.r_rejections in
  Ledger.outcomes ledger ~attempted:r.Driver.r_sends ~correct:outcomes;
  if r.Driver.r_undelivered <> 0 then
    Ledger.fail ledger (Printf.sprintf "%d sends undelivered" r.Driver.r_undelivered);
  if outcomes <> r.Driver.r_sends then
    Ledger.fail ledger
      (Printf.sprintf "%d sends but %d deliveries + %d rejections" r.Driver.r_sends
         r.Driver.r_deliveries r.Driver.r_rejections);
  List.iter
    (fun k ->
      let n = gauge o.metrics ("peer.shard0." ^ k) in
      if n > 0. then Ledger.fail ledger (Printf.sprintf "shard0 %s = %.0f" k n))
    [ "decode_failed"; "load_failed"; "corrupt_rejects" ];
  match hash with
  | Some h when not (Int64.equal h r.Driver.r_trace_hash) ->
      Ledger.fail ledger
        (Printf.sprintf "trace hash %Lx differs from the first repetition's %Lx"
           r.Driver.r_trace_hash h)
  | _ -> ()

let layer_of o ~untraced ~tr =
  let r = o.report and m = o.metrics in
  let f = float_of_int in
  let ops = f (max 1 o.rep.H.ops) in
  let run_t = Trace.totals tr "scale.driver_run" in
  (* The families, the flash-crowd type and the upgraded revision. *)
  let new_types = f (r.Driver.r_config.Driver.families + 2) in
  let net =
    List.concat_map
      (fun c ->
        [
          ("net.msgs_per_op." ^ c, gauge m ("net.messages." ^ c) /. ops);
          ("net.bytes_per_op." ^ c, gauge m ("net.bytes." ^ c) /. ops);
        ])
      Catalogue.net_categories
  in
  let shard k = gauge m ("peer.shard0." ^ k) in
  (* Handles are assigned by the senders: sum over every publisher. *)
  let publishers suffix =
    List.fold_left
      (fun acc (k, v) ->
        match v with
        | Metrics.Counter n
          when String.starts_with ~prefix:"serial.pub" k && String.ends_with ~suffix k ->
            acc +. f n
        | _ -> acc)
      0. (Metrics.snapshot m)
  in
  net
  @ [
      ("net.run_us_per_op", Mono.us_of_ns run_t.Trace.total_ns /. ops);
      ("core.tdesc_fetches_per_new_type", f r.Driver.r_tdesc_fetches /. new_types);
      ("core.asm_fetches_per_new_type", f r.Driver.r_asm_fetches /. new_types);
      ("core.fetch_attempts", shard "fetch.attempts");
      ("core.fetch_retries", shard "fetch.retries");
      ("core.fetch_failovers", shard "fetch.failovers");
      ("core.renegotiations", gauge m "serial.shard0.handle.renegotiations");
      ( "core.handle_hit_rate",
        H.ratio (publishers ".handle.hits") (publishers ".handle.misses") );
      ("core.tdesc_cache_hit_rate", r.Driver.r_tdesc_hit_rate);
      ("core.rejected", f r.Driver.r_rejections);
      ("core.decode_failed", shard "decode_failed");
      ("core.load_failed", shard "load_failed");
      ("core.corrupt_rejected", shard "corrupt_rejects");
      ("core.events_dropped", shard "events.dropped");
      ("conformance.verdict_reuse", r.Driver.r_verdict_reuse_rate);
      ("conformance.evictions", shard "checker.cache_evictions");
      ("conformance.invalidated", shard "checker.invalidated");
      ("scale.tdesc_fetches", f r.Driver.r_tdesc_fetches);
      ("scale.asm_fetches", f r.Driver.r_asm_fetches);
      ("scale.flash_tdesc_fetches", f r.Driver.r_flash_tdesc_fetches);
      ("scale.flash_asm_fetches", f r.Driver.r_flash_asm_fetches);
      ("scale.tdesc_hit_rate", r.Driver.r_tdesc_hit_rate);
      ("scale.verdict_reuse", r.Driver.r_verdict_reuse_rate);
      ("scale.pool_recycled", f r.Driver.r_pool_recycled);
      ("scale.upgrade_sends", f r.Driver.r_upgrade_sends);
      ("scale.latency_p50_sim_ms", r.Driver.r_p50_ms);
      ("scale.latency_p99_sim_ms", r.Driver.r_p99_ms);
      ("bench.op_samples", ops);
      ("bench.trace_overhead_pct", H.trace_overhead_pct ~untraced ~traced:o.rep);
    ]
  (* The driver runs in-process on the simulator: no sockets, no spans
     inside it, no stage replay, and no op latency of its own to take a
     tail or a waterfall of. *)
  @ H.not_used
      (H.names_with_prefix "transport."
      @ [
          "core.send_us_per_op"; "core.send_words_per_op"; "core.publish_us";
          "core.acquire_ms"; "core.envelopes_per_batch"; "core.cold_first_delivery_sim_ms";
          "typedesc.reply_bytes"; "cts.registry_classes"; "bench.op_p75_ms";
          "bench.op_p90_ms"; "bench.op_p99_ms"; "bench.op_p999_ms"; "bench.gen_late_p99_ms";
          "bench.attributed_share"; "bench.unattributed_us";
        ]
      @ List.map fst (Replay.layer (Replay.stages ())))

let run (cfg : H.config) =
  let sessions = max 200 (H.count (float_of_int sessions_per_second) cfg.seconds) in
  let dcfg = config ~seed:cfg.seed ~sessions in
  let ledger = Ledger.create () in
  (* Set-up is the population without traffic: sessions arrive, churn
     and leave, shard and publisher peers are built. *)
  let setup_s =
    List.init H.setups (fun _ ->
        let _, ns =
          H.timed (fun () ->
              Driver.run
                {
                  dcfg with
                  Driver.sends_per_session = 0;
                  flash_at_ms = None;
                  upgrade_at_ms = None;
                })
        in
        Mono.s_of_ns ns)
  in
  let hash = ref None in
  let measured ?tr () =
    let o = repetition ?tr dcfg in
    judge ledger ~hash:!hash o;
    if !hash = None then hash := Some o.report.Driver.r_trace_hash;
    o
  in
  let outs, gc, heap_mb =
    H.repeat ~prepare:ignore ~ops:(fun o -> o.rep.H.ops) (fun () -> measured ())
  in
  let reps = List.map (fun o -> o.rep) outs in
  let finish ~layer ~text =
    H.finish ~workload:name cfg ledger ~setup_s ~reps ~heap_mb ~layer ~text
  in
  if not cfg.trace then finish ~layer:[] ~text:[]
  else begin
    let tr = Trace.create () in
    H.quiesce ();
    let traced = measured ~tr () in
    H.write_trace cfg tr ~workload:name;
    let text =
      [
        Printf.sprintf
          "population: %d sessions, trace hash %Lx; no stage replay (the driver runs \
           in-process)"
          sessions traced.report.Driver.r_trace_hash;
      ]
    in
    finish ~layer:(layer_of traced ~untraced:reps ~tr @ gc) ~text
  end
