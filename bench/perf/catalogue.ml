(* The metric catalogue. BENCHMARK.json lists exactly these names, units,
   directions and bounds; a unit test holds the two together.

   End-to-end metrics are what a user of the middleware sees and are
   measured with tracing off. Every workload reports every one of them;
   what an "op" is differs per workload (see README.md). Per-layer
   metrics come from the separate traced run and carry no bound. *)

type e2e = {
  name : string;
  unit_ : string;
  better : Stats.better;
  bound : float;  (** Allowed worsening, as a share of the base median. *)
  floor : float;  (** Absolute slack under which no change counts. *)
}

let e2e ?(floor = 0.) name unit_ better bound = { name; unit_; better; bound; floor }

let end_to_end =
  Stats.
    [
      e2e ~floor:0.05 "setup_s" "s" Lower 0.25;
      e2e "ops_per_s" "op/s" Higher 0.25;
      e2e "op_p50_ms" "ms" Lower 0.25;
      e2e "wire_bytes_per_op" "B" Lower 0.03;
      e2e "minor_words_per_op" "words" Lower 0.02;
      e2e "heap_peak_mb" "MB" Lower 0.25;
    ]

(* Stream categories, in the order [Pti_net.Stats.category_name] gives. *)
let net_categories =
  [
    "object"; "tdesc-req"; "tdesc-reply"; "asm-req"; "asm-reply"; "invoke-req";
    "invoke-reply"; "handle-ctl";
  ]

(* Per-layer metrics: name, unit, and which way is better. Every workload
   reports every name, 0 for a layer it does not exercise. *)
let per_layer =
  Stats.(
  [
    ("transport.encode_us", "us", Lower);
    ("transport.decode_us", "us", Lower);
    ("transport.frames_per_op", "frames/op", Lower);
    ("transport.frame_bytes", "B", Lower);
    ("transport.poll_us_per_op", "us/op", Lower);
    ("transport.empty_polls_per_op", "polls/op", Lower);
    ("transport.reconnects", "count", Lower);
    ("transport.integrity_drops", "count", Lower);
    ("transport.lost", "count", Lower);
  ]
  @ List.map (fun c -> ("net.msgs_per_op." ^ c, "msgs/op", Lower)) net_categories
  @ List.map (fun c -> ("net.bytes_per_op." ^ c, "B/op", Lower)) net_categories
  @ [
      ("net.run_us_per_op", "us/op", Lower);
      ("core.send_us_per_op", "us/op", Lower);
      ("core.send_words_per_op", "words/op", Lower);
      ("core.publish_us", "us", Lower);
      ("core.acquire_ms", "ms", Lower);
      ("core.tdesc_fetches_per_new_type", "fetches", Lower);
      ("core.asm_fetches_per_new_type", "fetches", Lower);
      ("core.fetch_attempts", "count", Lower);
      ("core.fetch_retries", "count", Lower);
      ("core.fetch_failovers", "count", Lower);
      ("core.handle_hit_rate", "ratio", Higher);
      ("core.renegotiations", "count", Lower);
      ("core.envelopes_per_batch", "envelopes", Higher);
      ("core.tdesc_cache_hit_rate", "ratio", Higher);
      ("core.rejected", "count", Lower);
      ("core.decode_failed", "count", Lower);
      ("core.load_failed", "count", Lower);
      ("core.corrupt_rejected", "count", Lower);
      ("core.events_dropped", "count", Lower);
      ("core.cold_first_delivery_sim_ms", "sim_ms", Lower);
      ("serial.batch_decode_us", "us", Lower);
      ("serial.batch_decode_words", "words", Lower);
      ("serial.envelope_decode_us", "us", Lower);
      ("serial.envelope_decode_words", "words", Lower);
      ("serial.envelope_encode_us", "us", Lower);
      ("serial.envelope_encode_words", "words", Lower);
      ("serial.payload_decode_us", "us", Lower);
      ("serial.payload_decode_words", "words", Lower);
      ("serial.assembly_decode_us", "us", Lower);
      ("typedesc.decode_us", "us", Lower);
      ("typedesc.reply_bytes", "B", Lower);
      ("typedesc.of_class_us", "us", Lower);
      ("typedesc.of_class_words", "words", Lower);
      ("conformance.check_cold_us", "us", Lower);
      ("conformance.check_cold_words", "words", Lower);
      ("conformance.check_cached_us", "us", Lower);
      ("conformance.check_cached_words", "words", Lower);
      ("conformance.verdict_reuse", "ratio", Higher);
      ("conformance.evictions", "count", Lower);
      ("conformance.invalidated", "count", Lower);
      ("cts.load_us", "us", Lower);
      ("cts.registry_classes", "count", Lower);
      ("cts.direct_call_us", "us", Lower);
      ("proxy.wrap_us", "us", Lower);
      ("proxy.invoke_us", "us", Lower);
      ("scale.tdesc_fetches", "count", Lower);
      ("scale.asm_fetches", "count", Lower);
      ("scale.flash_tdesc_fetches", "count", Lower);
      ("scale.flash_asm_fetches", "count", Lower);
      ("scale.tdesc_hit_rate", "ratio", Higher);
      ("scale.verdict_reuse", "ratio", Higher);
      ("scale.pool_recycled", "count", Higher);
      ("scale.upgrade_sends", "count", Higher);
      ("scale.latency_p50_sim_ms", "sim_ms", Lower);
      ("scale.latency_p99_sim_ms", "sim_ms", Lower);
      ("gc.minor_collections_per_kop", "1/kop", Lower);
      ("gc.major_collections", "count", Lower);
      ("gc.promoted_words_per_op", "words/op", Lower);
      ("bench.op_p75_ms", "ms", Lower);
      ("bench.op_p90_ms", "ms", Lower);
      ("bench.op_p99_ms", "ms", Lower);
      ("bench.op_p999_ms", "ms", Lower);
      ("bench.op_samples", "count", Higher);
      ("bench.gen_late_p99_ms", "ms", Lower);
      ("bench.attributed_share", "ratio", Higher);
      ("bench.unattributed_us", "us/op", Lower);
      ("bench.trace_overhead_pct", "%", Lower);
    ])
