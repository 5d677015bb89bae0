module Splitmix = Pti_util.Splitmix
module Net = Pti_net.Net
module Sim = Pti_net.Sim
module Transport = Pti_transport.Transport
module Stats = Pti_net.Stats
module Trace = Pti_net.Trace
module Metrics = Pti_obs.Metrics
module Peer = Pti_core.Peer
module Checker = Pti_conformance.Checker
module Workload = Pti_demo.Workload
module Value = Pti_cts.Value
module Cluster = Pti_cluster.Cluster
module Node = Pti_cluster.Node

type config = {
  c_profile : Fault_plan.profile;
  c_cluster : bool;
  c_objects : int;
  c_frame_integrity : bool;
  c_wire : bool;
  c_upgrade : bool;
}

let default_config =
  {
    c_profile = Fault_plan.Lossy;
    c_cluster = false;
    c_objects = 8;
    c_frame_integrity = true;
    c_wire = false;
    c_upgrade = false;
  }

type run_result = {
  r_seed : int64;
  r_plan : Fault_plan.t;
  r_sent : int;
  r_delivered : int;
  r_rejected : int;
  r_failed : int;
  r_corrupt_rejects : int;
  r_net_lost : int;
  r_retransmissions : int;
  r_injected_drops : int;
  r_corrupted_frames : int;
  r_integrity_drops : int;
  r_renegotiations : int;
  r_violations : Invariant.violation list;
}

(* The ARQ span (retransmit_ms * max_retries = 480 ms) deliberately
   exceeds the longest fault window any profile generates, so a retried
   message always gets attempts outside the window. *)
let chaos_reliability =
  { Net.retransmit_ms = 40.; max_retries = 12; ack_bytes = 16 }

let send_spacing_ms = 60.
let first_send_ms = 10.

(* One family per index; the last one is a trap (non-conformant), so
   every run exercises the reject path too. *)
let families =
  [
    (0, Workload.Conformant);
    (1, Workload.Conformant);
    (2, Workload.Conformant);
    (3, Workload.Trap_missing);
  ]

let rec obj_of = function
  | Value.Vobj o -> Some o
  | Value.Vproxy p -> obj_of p.Value.px_target
  | _ -> None

let unextractable v = "<unextractable:" ^ Value.type_name v ^ ">"

(* A corrupt batch frame loses the (single, at chaos pacing) envelope it
   carried, so it is terminal like a corrupt envelope. A corrupt
   handle-bind frame is NOT: the parked envelope it was meant to revive
   accounts for itself (renegotiation timeout -> [Decode_failed]). *)
let is_terminal_failure = function
  | Peer.Decode_failed _ | Peer.Load_failed _ -> true
  | Peer.Corrupt_rejected { what = "envelope" | "payload" | "batch"; _ } ->
      true
  | _ -> false

let delivered_values receiver =
  List.filter_map
    (function Peer.Delivered { value; _ } -> Some value | _ -> None)
    (Peer.events receiver)

(* Which schema revision did each delivery actually decode against?
   The v2-only [email] field (with its initializer) is the witness:
   present iff the value was built from the v2 description. *)
let decoded_revisions receiver =
  List.filter_map
    (fun v ->
      match obj_of v with
      | None -> None
      | Some o ->
          let key =
            match Value.get_field o "name" with
            | Some (Value.Vstring n) -> n
            | _ -> unextractable v
          in
          Some (key, if Value.get_field o "email" = None then 1 else 2))
    (delivered_values receiver)

let membership cl hosts =
  Invariant.membership_converged
    (List.map
       (fun a ->
         ( a,
           List.filter_map
             (fun (m, st) ->
               if List.mem m hosts then Some (m, Node.status_name st)
               else None)
             (Node.members (Cluster.node cl a)) ))
       hosts)

type judgement = {
  j_delivered : int;
  j_rejected : int;
  j_failed : int;
  j_net_lost : int;
  j_violations : Invariant.violation list;
}

let judge ~net ~trace ~receiver ~families ~sent ~expected ~trap_keys =
  let events = Peer.events receiver in
  let delivered_vals = delivered_values receiver in
  let delivered = List.length delivered_vals in
  let rejected =
    List.length
      (List.filter (function Peer.Rejected _ -> true | _ -> false) events)
  in
  let failed = List.length (List.filter is_terminal_failure events) in
  (* Payload identity: the (name, age) a delivered person carries,
     keyed by name. *)
  let got =
    List.map
      (fun v ->
        let fields =
          Option.bind (obj_of v) (fun o ->
              match (Value.get_field o "name", Value.get_field o "age") with
              | Some (Value.Vstring n), Some (Value.Vint a) -> Some (n, a)
              | _ -> None)
        in
        match fields with
        | Some (n, a) -> (n, (n, a))
        | None -> (unextractable v, ("?", -1)))
      delivered_vals
  in
  let delivered_keys = List.map fst got in
  (* Verdict stability: re-checking after a cache clear must agree. *)
  let checker = Peer.checker receiver in
  let verdict_str v =
    if Checker.verdict_ok v then "conformant" else "not-conformant"
  in
  let triples =
    List.filter_map
      (fun (index, flavor) ->
        let tn = Workload.person_name ~index ~flavor in
        match
          ( Peer.local_description receiver tn,
            Peer.local_description receiver Workload.interest_person )
        with
        | Some actual, Some interest ->
            let before = verdict_str (Checker.check checker ~actual ~interest) in
            Checker.clear_cache checker;
            let after = verdict_str (Checker.check checker ~actual ~interest) in
            Some (tn, before, after)
        | _ -> None)
      families
  in
  (* Metrics-vs-trace: the stats registry and the trace recorder watched
     the same wire. Control is excluded: acks are charged, not traced. *)
  let stats = Net.stats net in
  let count_pairs =
    List.filter_map
      (fun c ->
        if c = Stats.Control then None
        else
          Some
            ( Stats.category_name c,
              Stats.messages stats c,
              Trace.count trace ~category:c () ))
      Stats.all_categories
  in
  let net_lost = Net.lost_for net Stats.Object_msg in
  {
    j_delivered = delivered;
    j_rejected = rejected;
    j_failed = failed;
    j_net_lost = net_lost;
    j_violations =
      Invariant.conservation ~sent ~delivered ~rejected ~failed ~net_lost
      @ Invariant.exactly_once ~delivered_keys
      @ Invariant.no_mangle ~expected ~got
      @ Invariant.trap_never_delivered ~trap_keys ~delivered_keys
      @ Invariant.verdict_stability triples
      @ Invariant.metrics_match_trace count_pairs;
  }

let run_one ?plan config ~seed =
  let root = Splitmix.create seed in
  let net_seed = Splitmix.next64 root in
  let plan_seed = Splitmix.next64 root in
  let hook_seed = Splitmix.next64 root in
  let cluster_seed = Splitmix.next64 root in
  let metrics = Metrics.create () in
  let net =
    Net.create ~jitter_ms:2.0 ~reliability:chaos_reliability ~seed:net_seed
      ~metrics ()
  in
  let sim = Net.sim net in
  (* One shared facade over the sim: peers attach to it, and the fault
     hooks arm through it — the same middleware seam the socket
     backends use. The mc/trace machinery stays on the raw net
     (sim-only escape hatch). *)
  let tr = Transport.of_net net in
  let trace = Trace.attach net in
  let hosts =
    if config.c_cluster then [ "n0"; "n1"; "n2"; "n3" ] else [ "alice"; "bob" ]
  in
  let horizon_ms =
    first_send_ms +. (send_spacing_ms *. float_of_int config.c_objects) +. 100.
  in
  let plan =
    match plan with
    | Some p -> p
    | None ->
        Fault_plan.random ~profile:config.c_profile ~hosts ~horizon_ms
          (Splitmix.create plan_seed)
  in
  (* Wire mode turns on every wire-efficiency feature at once: handle
     negotiation, envelope batching and the binary tdesc codec, all
     under the same faults as the classic path. *)
  let handles = config.c_wire in
  let batch_bytes = if config.c_wire then Some 4096 else None in
  let tdesc_binary = config.c_wire in
  let cluster, sender, receiver, peers =
    if config.c_cluster then begin
      let cl =
        Cluster.create ~factor:2 ~seed:cluster_seed ~request_timeout_ms:800.
          ~fetch_retries:3 ~fetch_backoff_ms:150. ~probe_timeout_ms:300.
          ~handles ?batch_bytes ~tdesc_binary ~transport:tr hosts
      in
      ( Some cl,
        Cluster.peer cl "n0",
        Cluster.peer cl "n3",
        List.map (Cluster.peer cl) hosts )
    end
    else begin
      let mk a =
        Peer.create ~metrics ~request_timeout_ms:800. ~fetch_retries:3
          ~fetch_backoff_ms:150. ~handles ?batch_bytes ~tdesc_binary
          ~transport:tr a
      in
      let alice = mk "alice" in
      let bob = mk "bob" in
      (None, alice, bob, [ alice; bob ])
    end
  in
  let receiver_addr = Peer.address receiver in
  (* Publish the workload families on the sender (replicated to mirrors
     in cluster mode); the receiver only knows the interest type. *)
  List.iter
    (fun (index, flavor) ->
      let asm = Workload.family ~index ~flavor in
      match cluster with
      | Some cl -> Node.publish (Cluster.node cl "n0") asm
      | None -> Peer.publish_assembly sender asm)
    families;
  Peer.install_assembly receiver (Workload.interest_assembly ());
  Peer.register_interest receiver ~interest:Workload.interest_person
    (fun ~from:_ _ -> ());
  (* Pace the sends across the fault horizon. Values are constructed at
     send time, not schedule time: under [c_upgrade] the hottest family
     changes schema mid-window, and sends after the flip must carry v2
     instances built from the then-live class definition. *)
  let expected = ref [] in
  let trap_keys = ref [] in
  let negotiated = ref [] in
  let family_version = ref 1 in
  for i = 0 to config.c_objects - 1 do
    let index = i mod List.length families in
    let _, flavor = List.nth families index in
    let name = Printf.sprintf "p%d" i in
    let age = 20 + i in
    (match flavor with
    | Workload.Conformant -> expected := (name, (name, age)) :: !expected
    | _ -> trap_keys := name :: !trap_keys);
    Sim.schedule_at sim
      ~at:(first_send_ms +. (send_spacing_ms *. float_of_int i))
      (fun () ->
        let v =
          Workload.make_person (Peer.registry sender) ~index ~flavor ~name ~age
        in
        (match flavor with
        | Workload.Conformant ->
            let ver = if index = 0 then !family_version else 1 in
            negotiated := (name, ver) :: !negotiated
        | _ -> ());
        Peer.send_value sender ~dst:receiver_addr v)
  done;
  (* Live upgrade: halfway through the send window, CAS family 0 onto
     its version chain (seeding v1 first) and republish it at v2. Sends
     already in flight stay pinned to v1; later sends travel at v2. *)
  if config.c_upgrade then
    Sim.schedule_at sim
      ~at:
        (first_send_ms
        +. (send_spacing_ms *. float_of_int (config.c_objects / 2))
        -. 25.)
      (fun () ->
        let publish ?expect asm =
          match cluster with
          | Some cl -> Node.publish_cas ?expect (Cluster.node cl "n0") asm
          | None -> Peer.publish_assembly_cas ?expect sender asm
        in
        let v1 = Workload.family ~index:0 ~flavor:Workload.Conformant in
        match publish v1 with
        | Error _ -> ()
        | Ok ve1 -> (
            let v2 =
              Workload.family_v ~version:2 ~index:0
                ~flavor:Workload.Conformant
            in
            match publish ~expect:ve1.Pti_core.Repository.ve_digest v2 with
            | Error _ -> ()
            | Ok ve2 -> family_version := ve2.Pti_core.Repository.ve_version));
  (* Wire mode: lose the receiver's learned handle bindings shortly
     before the last send, so refs still in flight (and the final send)
     arrive against a cold table and must renegotiate. *)
  let tables_dropped = config.c_wire && config.c_objects >= 5 in
  if tables_dropped then
    Sim.schedule_at sim
      ~at:
        (first_send_ms
        +. (send_spacing_ms *. float_of_int (config.c_objects - 1))
        -. 30.)
      (fun () -> Peer.drop_handle_tables receiver);
  (* Cluster mode: gossip keeps ticking through the fault horizon, so
     crash windows are noticed (suspect/dead) and healed ones re-adopted. *)
  (match cluster with
  | None -> ()
  | Some cl ->
      List.iteri
        (fun ni node ->
          let rounds = int_of_float (horizon_ms /. 100.) + 4 in
          for r = 0 to rounds - 1 do
            Sim.schedule_at sim
              ~at:(40. +. (100. *. float_of_int r) +. (7. *. float_of_int ni))
              (fun () -> Node.tick node)
          done)
        (Cluster.nodes cl));
  (* Arm the faults and run the world. *)
  let hook_rng = Splitmix.create hook_seed in
  Transport.set_fault_hooks tr
    (Some (Fault_plan.hooks plan ~rng:hook_rng ~corrupt:Corruptor.corrupt_message));
  if config.c_frame_integrity then
    Transport.set_integrity tr (Some Corruptor.frame_intact);
  Transport.run tr;
  (* Heal: all windows are behind us once the run quiesces; give gossip
     a few quiet rounds to re-converge, then snapshot membership. *)
  let membership_violations =
    match cluster with
    | None -> []
    | Some cl ->
        Cluster.run_rounds cl 6;
        membership cl hosts
  in
  let j =
    judge ~net ~trace ~receiver ~families ~sent:config.c_objects
      ~expected:!expected ~trap_keys:!trap_keys
  in
  {
    r_seed = seed;
    r_plan = plan;
    r_sent = config.c_objects;
    r_delivered = j.j_delivered;
    r_rejected = j.j_rejected;
    r_failed = j.j_failed;
    r_corrupt_rejects =
      List.fold_left (fun acc p -> acc + Peer.corrupt_rejects p) 0 peers;
    r_net_lost = j.j_net_lost;
    r_retransmissions = Transport.retransmissions tr;
    r_injected_drops = Transport.injected_drops tr;
    r_corrupted_frames = Transport.corrupted_frames tr;
    r_integrity_drops = Transport.integrity_drops tr;
    r_renegotiations = Peer.renegotiations receiver;
    r_violations =
      j.j_violations
      @ Invariant.upgrade_safety ~negotiated:!negotiated
          ~decoded:(decoded_revisions receiver)
      @ membership_violations
      @ Invariant.handle_degradation ~tables_dropped
          ~renegotiations:(Peer.renegotiations receiver);
  }

let shrink config ~seed plan0 =
  Fault_plan.shrink
    ~fails:(fun plan -> (run_one ~plan config ~seed).r_violations <> [])
    plan0

type summary = {
  s_runs : int;
  s_sent : int;
  s_delivered : int;
  s_rejected : int;
  s_failed : int;
  s_net_lost : int;
  s_corrupt_rejects : int;
  s_retransmissions : int;
  s_failures : run_result list;
  s_shrunk : (run_result * run_result) option;
}

let run_many config ~runs ~seed =
  let root = Splitmix.create seed in
  let results = ref [] in
  for _ = 1 to runs do
    let s = Splitmix.next64 root in
    results := run_one config ~seed:s :: !results
  done;
  let results = List.rev !results in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let failures = List.filter (fun r -> r.r_violations <> []) results in
  let shrunk =
    match failures with
    | [] -> None
    | f :: _ ->
        let minimal = shrink config ~seed:f.r_seed f.r_plan in
        Some (f, run_one ~plan:minimal config ~seed:f.r_seed)
  in
  {
    s_runs = runs;
    s_sent = sum (fun r -> r.r_sent);
    s_delivered = sum (fun r -> r.r_delivered);
    s_rejected = sum (fun r -> r.r_rejected);
    s_failed = sum (fun r -> r.r_failed);
    s_net_lost = sum (fun r -> r.r_net_lost);
    s_corrupt_rejects = sum (fun r -> r.r_corrupt_rejects);
    s_retransmissions = sum (fun r -> r.r_retransmissions);
    s_failures = failures;
    s_shrunk = shrunk;
  }

let pp_run ppf r =
  Format.fprintf ppf
    "@[<v>seed %Ld: sent %d, delivered %d, rejected %d, failed %d, net-lost \
     %d@,\
     retransmissions %d, injected drops %d, corrupted frames %d, integrity \
     drops %d, corrupt rejects %d, renegotiations %d@,\
     plan:@,\
     %a@]"
    r.r_seed r.r_sent r.r_delivered r.r_rejected r.r_failed r.r_net_lost
    r.r_retransmissions r.r_injected_drops r.r_corrupted_frames
    r.r_integrity_drops r.r_corrupt_rejects r.r_renegotiations Fault_plan.pp
    r.r_plan;
  if r.r_violations <> [] then begin
    Format.fprintf ppf "@\nviolations:";
    List.iter
      (fun v -> Format.fprintf ppf "@\n  %a" Invariant.pp_violation v)
      r.r_violations
  end

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d runs: sent %d, delivered %d (%.1f%%), rejected %d, failed %d, \
     net-lost %d@,\
     corrupt rejects %d, retransmissions %d, invariant failures %d@]"
    s.s_runs s.s_sent s.s_delivered
    (if s.s_sent = 0 then 100.
     else 100. *. float_of_int s.s_delivered /. float_of_int s.s_sent)
    s.s_rejected s.s_failed s.s_net_lost s.s_corrupt_rejects
    s.s_retransmissions
    (List.length s.s_failures);
  match s.s_shrunk with
  | None -> ()
  | Some (orig, min_rerun) ->
      Format.fprintf ppf
        "@\n@\nfirst failure (reproduce with --seed %Ld):@\n%a" orig.r_seed
        pp_run orig;
      Format.fprintf ppf "@\n@\nminimal reproducing plan (same seed):@\n%a"
        pp_run min_rerun
