(* What every workload shares: its settings, the shape of a measured
   repetition, GC accounting, the per-stage timer the replay uses, and
   the timed codec wrapper that stream workloads hand to
   [Transport.create_tcp] in the traced run. *)

module Transport = Pti_transport.Transport
module Message = Pti_core.Message
module Message_wire = Pti_core.Message_wire

type config = {
  seed : int;
  seconds : float;
      (** Sizes the measured work: about this many seconds, all
          repetitions together, on the reference host. *)
  trace : bool;
  out_dir : string;  (** Where the traced run writes its span file. *)
}

let reps = 10
let setups = 5

(* Ops in a phase of [seconds] at a nominal rate: work is sized from
   --seconds once and then fixed. *)
let count rate seconds = max 1 (int_of_float (Float.round (rate *. seconds)))

(* One measured repetition. [lat_ms] holds one sample per op that has a
   latency (failures as +infinity); the other fields are totals. *)
type rep = {
  ops : int;
  wall_ns : int;
  lat_ms : float array;
  bytes : int;
  minor_words : float;
}

let rep_values r =
  let per x = x /. float_of_int (max 1 r.ops) in
  [
    ("ops_per_s", float_of_int r.ops /. Mono.s_of_ns (max 1 r.wall_ns));
    ("op_p50_ms", Stats.percentile r.lat_ms 0.5);
    ("wire_bytes_per_op", per (float_of_int r.bytes));
    ("minor_words_per_op", per r.minor_words);
  ]

type result = {
  workload : string;
  seed : int;
  attempted : int;
  failed : int;
  notes : string list;
  samples : (string * float list) list;
      (** Per end-to-end metric, every repetition's value (every set-up,
          for [setup_s]); the reported value is their median. *)
  layer : (string * float) list;  (** Per-layer metrics (traced run). *)
  text : string list;  (** Human-readable report lines (waterfall). *)
}

(* Per-op samples in an unboxed buffer: recording allocates nothing, so
   the harness adds no words to an op. *)
type samples = { mutable buf : Float.Array.t; mutable n : int }

let samples ?(capacity = 1 lsl 18) () =
  { buf = Float.Array.make (max 1 capacity) 0.; n = 0 }

let record s x =
  if s.n = Float.Array.length s.buf then begin
    let grown = Float.Array.make (2 * s.n) 0. in
    Float.Array.blit s.buf 0 grown 0 s.n;
    s.buf <- grown
  end;
  Float.Array.unsafe_set s.buf s.n x;
  s.n <- s.n + 1

(* The recorded samples, leaving the buffer empty for the next phase. *)
let take s =
  let a = Array.init s.n (Float.Array.get s.buf) in
  s.n <- 0;
  a

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* End-to-end samples from the repetitions, the set-up times and the
   process's heap peak. *)
let samples_of ~setup_s ~reps ~heap_mb =
  let per_rep = List.map rep_values reps in
  let column name = List.map (fun vs -> List.assoc name vs) per_rep in
  [ ("setup_s", setup_s) ]
  @ List.map
      (fun n -> (n, column n))
      [ "ops_per_s"; "op_p50_ms"; "wire_bytes_per_op"; "minor_words_per_op" ]
  @ [ ("heap_peak_mb", [ heap_mb ]) ]

let finish ~workload (cfg : config) ledger ~setup_s ~reps ~heap_mb ~layer ~text =
  {
    workload;
    seed = cfg.seed;
    attempted = ledger.Ledger.attempted;
    failed = Ledger.failed ledger;
    notes = Ledger.notes ledger;
    samples = samples_of ~setup_s ~reps ~heap_mb;
    layer;
    text;
  }

(* End the run at once on a failure that would stall every later op (a
   lost message holding a closed loop's window): the outstanding ops are
   failures, the reasons go to stderr, and no result is printed. *)
let abort ~workload ledger reason =
  Ledger.settle ledger;
  List.iter (Printf.eprintf "%s: FAIL %s\n" workload) (Ledger.notes ledger);
  Printf.eprintf "%s: aborted: %s\n" workload reason;
  exit 1

let write_trace (cfg : config) tr ~workload =
  Json.write_file
    (Filename.concat cfg.out_dir (Printf.sprintf "trace-%s.json" workload))
    (Trace.to_json tr ~workload)

(* Collect the garbage of set-up and earlier repetitions before a measured
   phase, so no repetition pays for another's heap. *)
let quiesce () = Gc.full_major ()

let timed f =
  let t0 = Mono.now_ns () in
  let v = f () in
  (v, Mono.now_ns () - t0)

(* Median-of-[setups] set-up: build [setups] worlds, time each, keep the
   last and tear the others down. *)
let repeated_setup ~build ~teardown =
  let rec go k acc =
    let w, ns = timed build in
    let acc = Mono.s_of_ns ns :: acc in
    if k = 1 then (w, List.rev acc)
    else begin
      teardown w;
      go (k - 1) acc
    end
  in
  go setups []

(* The measured repetitions: [prepare] (untimed: a fresh world, or
   nothing), a [quiesce], then the repetition itself. The GC work done
   inside the repetitions (not the collections forced between them) is
   summed into the gc.* layer metrics. The heap peak is read right after
   them, before a traced run adds its captures and spans. *)
let repeat ~prepare ~ops f =
  let minor_gcs = ref 0 and major_gcs = ref 0 and promoted = ref 0. and total = ref 0 in
  let reps =
    List.init reps (fun _ ->
        let world = prepare () in
        quiesce ();
        let g0 = Gc.quick_stat () in
        let r = f world in
        let g1 = Gc.quick_stat () in
        minor_gcs := !minor_gcs + g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_gcs := !major_gcs + g1.Gc.major_collections - g0.Gc.major_collections;
        promoted := !promoted +. g1.Gc.promoted_words -. g0.Gc.promoted_words;
        total := !total + ops r;
        r)
  in
  let n = float_of_int (max 1 !total) in
  ( reps,
    [
      ("gc.minor_collections_per_kop", 1000. *. float_of_int !minor_gcs /. n);
      ("gc.major_collections", float_of_int !major_gcs);
      ("gc.promoted_words_per_op", !promoted /. n);
    ],
    heap_peak_mb () )

(* The latency tail over every repetition's samples (ungated). *)
let tail_layer reps =
  let lat = Stats.sorted (Array.concat (List.map (fun r -> r.lat_ms) reps)) in
  [
    ("bench.op_p75_ms", Stats.percentile_sorted lat 0.75);
    ("bench.op_p90_ms", Stats.percentile_sorted lat 0.9);
    ("bench.op_p99_ms", Stats.percentile_sorted lat 0.99);
    ("bench.op_p999_ms", Stats.percentile_sorted lat 0.999);
    ("bench.op_samples", float_of_int (Array.length lat));
  ]

let us_per_op r = Mono.us_of_ns r.wall_ns /. float_of_int (max 1 r.ops)

(* The untraced reference the traced run is set against: the last
   untraced repetition, the one run just before the traced one, so that
   host load drifting over the run moves both alike. *)
let wall_us_per_op reps = us_per_op (List.nth reps (List.length reps - 1))

(* How much slower the traced repetition ran, in percent of ops/s. *)
let trace_overhead_pct ~untraced ~traced =
  100. *. (1. -. (wall_us_per_op untraced /. us_per_op traced))

(* ---- stage timing for the replay ----------------------------------- *)

type stage = {
  st_name : string;
  mutable calls : int;
  mutable ns : int;
  mutable words : float;
}

let stage st_name = { st_name; calls = 0; ns = 0; words = 0. }

let time_stage st f =
  let w0 = Gc.minor_words () in
  let t0 = Mono.now_ns () in
  let v = f () in
  st.ns <- st.ns + (Mono.now_ns () - t0);
  st.words <- st.words +. (Gc.minor_words () -. w0);
  st.calls <- st.calls + 1;
  v

let per_call st x = if st.calls = 0 then 0. else x /. float_of_int st.calls
let us_per_call st = per_call st (Mono.us_of_ns st.ns)
let words_per_call st = per_call st st.words

(* ---- the timed codec wrapper ---------------------------------------- *)

(* Wraps [Message_wire.codec] for the traced run. During set-up it only
   captures received payloads (they prime the replay's handle table);
   during the untraced repetitions it is the bare codec; during the
   traced repetition it times every frame encode and decode as a child
   span of whatever harness span is open, and captures every received
   payload for the stage replay. *)
type phase = Setup | Untraced | Traced

type probe = {
  tr : Trace.t;
  enc : stage;
  dec : stage;
  mutable phase : phase;
  mutable captured : (string * bool) list;  (* newest first; in window? *)
}

let probe tr =
  { tr; enc = stage "encode"; dec = stage "decode"; phase = Setup; captured = [] }

let timed_codec p : Message.t Transport.codec =
  {
    c_encode =
      (fun m ->
        match p.phase with
        | Traced ->
            Trace.span p.tr "transport.encode" (fun () ->
                time_stage p.enc (fun () -> Message_wire.encode m))
        | Setup | Untraced -> Message_wire.encode m);
    c_decode =
      (fun s ->
        match p.phase with
        | Untraced -> Message_wire.decode s
        | Setup ->
            p.captured <- (s, false) :: p.captured;
            Message_wire.decode s
        | Traced ->
            p.captured <- (s, true) :: p.captured;
            Trace.span p.tr "transport.decode" (fun () ->
                time_stage p.dec (fun () -> Message_wire.decode s)));
  }

(* The codec for a new world; a traced world starts a fresh capture, so
   only the world that is measured is kept for the replay. *)
let codec_for = function
  | Some p ->
      p.captured <- [];
      timed_codec p
  | None -> Message_wire.codec

(* ---- observers ------------------------------------------------------ *)

module Net_stats = Pti_net.Stats
module Peer = Pti_core.Peer
module Metrics = Pti_obs.Metrics

(* Bytes on the fabric in both directions: streams charge framed bytes at
   send and again at receipt; the sim's single ledger already sees every
   message once, which is both ends of it. *)
let wire_bytes tr =
  Net_stats.total_bytes (Transport.stats tr) + Transport.total_received_bytes tr

(* (messages sent, bytes both ways) per category name. *)
let categories tr =
  let st = Transport.stats tr in
  List.map
    (fun c ->
      ( Net_stats.category_name c,
        (Net_stats.messages st c, Net_stats.bytes st c + Transport.received_bytes tr c) ))
    Net_stats.all_categories

let net_layer ~before ~after ~ops =
  let ops = float_of_int (max 1 ops) in
  List.concat_map
    (fun name ->
      let m0, b0 = Option.value ~default:(0, 0) (List.assoc_opt name before)
      and m1, b1 = Option.value ~default:(0, 0) (List.assoc_opt name after) in
      [
        ("net.msgs_per_op." ^ name, float_of_int (m1 - m0) /. ops);
        ("net.bytes_per_op." ^ name, float_of_int (b1 - b0) /. ops);
      ])
    Catalogue.net_categories

let peer_metric p name =
  let key = Printf.sprintf "peer.%s.%s" (Peer.address p) name in
  match Metrics.find (Peer.metrics p) key with
  | Some (Metrics.Counter n) -> float_of_int n
  | Some (Metrics.Gauge g) -> g
  | _ -> 0.

let ratio a b = if a +. b = 0. then 0. else a /. (a +. b)

(* Counters of the receiving peer (and the sender's wire counters). *)
let core_layer ~sender ~receiver =
  let module Checker = Pti_conformance.Checker in
  let f = float_of_int in
  let tc = Peer.tdesc_cache_counters receiver in
  let ck = Checker.stats (Peer.checker receiver) in
  [
    ("core.fetch_attempts", f (Peer.fetch_attempts receiver));
    ("core.fetch_retries", f (Peer.fetch_retries receiver));
    ("core.fetch_failovers", f (Peer.fetch_failovers receiver));
    ( "core.handle_hit_rate",
      ratio (f (Peer.handle_hits sender)) (f (Peer.handle_misses sender)) );
    ("core.renegotiations", f (Peer.renegotiations receiver));
    ( "core.tdesc_cache_hit_rate",
      ratio (f tc.Pti_obs.Lru.hits) (f tc.Pti_obs.Lru.misses) );
    ("core.rejected", peer_metric receiver "rejected");
    ("core.decode_failed", peer_metric receiver "decode_failed");
    ("core.load_failed", peer_metric receiver "load_failed");
    ("core.corrupt_rejected", f (Peer.corrupt_rejects receiver));
    ("core.events_dropped", f (Peer.events_dropped receiver));
    ("conformance.verdict_reuse", Checker.reuse_rate (Peer.checker receiver));
    ("conformance.evictions", f ck.Checker.cache_evictions);
    ("conformance.invalidated", f ck.Checker.invalidated);
    ("cts.registry_classes", f (Pti_cts.Registry.cardinal (Peer.registry receiver)));
  ]

(* Batching over a window: envelopes per batch frame the sender shipped
   since [batch_mark]. *)
let batch_mark p = (Peer.batch_messages p, Peer.batch_envelopes p)

let envelopes_per_batch p (m0, e0) =
  ( "core.envelopes_per_batch",
    float_of_int (Peer.batch_envelopes p - e0)
    /. float_of_int (max 1 (Peer.batch_messages p - m0)) )

(* Outcomes the receiver must never produce on a healthy run. *)
let pipeline_faults p =
  List.filter_map
    (fun name ->
      let n = peer_metric p name in
      if n > 0. then Some (Printf.sprintf "%s: %s = %.0f" (Peer.address p) name n)
      else None)
    [ "decode_failed"; "load_failed"; "corrupt_rejects" ]

let transport_layer tr =
  [
    ("transport.reconnects", float_of_int (Transport.retransmissions tr));
    ("transport.integrity_drops", float_of_int (Transport.integrity_drops tr));
    ("transport.lost", float_of_int (Transport.lost_messages tr));
  ]

let span_layer tr =
  let per name f =
    let t = Trace.totals tr name in
    if t.Trace.count = 0 then 0. else f t /. float_of_int t.Trace.count
  in
  [
    ( "core.publish_us",
      per "core.publish_assembly" (fun t -> Mono.us_of_ns t.Trace.total_ns) );
    ("core.acquire_ms", per "core.acquire" (fun t -> Mono.ms_of_ns t.Trace.total_ns));
  ]

(* Per-layer names a workload has no layer for, reported as an explicit
   0: a name missing from a traced result is then always a harness bug. *)
let not_used names = List.map (fun n -> (n, 0.)) names

let names_with_prefix prefix =
  List.filter_map
    (fun (n, _, _) -> if String.starts_with ~prefix n then Some n else None)
    Catalogue.per_layer

(* A live span's totals as a waterfall row. *)
let span_stage tr name ~label =
  let t = Trace.totals tr name in
  { st_name = label; calls = t.Trace.count; ns = t.Trace.total_ns; words = t.Trace.words }

(* Loopback TCP needs a working AF_INET; sandboxes without it skip the
   stream workloads in smoke mode instead of failing. *)
let tcp_available () =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | fd ->
      let ok =
        match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0)) with
        | () -> true
        | exception Unix.Unix_error _ -> false
      in
      Unix.close fd;
      ok
  | exception Unix.Unix_error _ -> false

(* One line per stage that ran: calls, us per call, us and minor words
   per op, and its share of the untraced wall per op. Also returns the
   stages' summed us per op. *)
let stage_rows ~ops ~wall_us_per_op stages =
  let ops_f = float_of_int (max 1 ops) in
  let ran = List.filter (fun st -> st.calls > 0) stages in
  let us_op st = Mono.us_of_ns st.ns /. ops_f in
  ( List.map
      (fun st ->
        Printf.sprintf "  %-30s %8d %10.3f %10.3f %10.1f %7.1f%%" st.st_name st.calls
          (us_per_call st) (us_op st) (st.words /. ops_f)
          (100. *. us_op st /. wall_us_per_op))
      ran,
    List.fold_left (fun acc st -> acc +. us_op st) 0. ran )

(* The waterfall of a traced run: the stages on the op's path, set
   against the untraced wall per op. Returns the report lines and the
   attributed us per op. *)
let waterfall ~workload ~ops ~wall_us_per_op stages =
  let rows, attributed = stage_rows ~ops ~wall_us_per_op stages in
  ( [
      Printf.sprintf "waterfall %s: %d traced ops, untraced wall %.3f us/op" workload ops
        wall_us_per_op;
      Printf.sprintf "  %-30s %8s %10s %10s %10s %8s" "stage" "calls" "us/call" "us/op"
        "words/op" "share";
    ]
    @ rows
    @ [
        Printf.sprintf "  attributed %.3f us/op = %.1f%% of the untraced wall" attributed
          (100. *. attributed /. wall_us_per_op);
      ],
    attributed )

let attribution_layer ~attributed ~wall_us_per_op =
  [
    ("bench.attributed_share", attributed /. wall_us_per_op);
    ("bench.unattributed_us", wall_us_per_op -. attributed);
  ]
