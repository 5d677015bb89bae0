module Net = Pti_net.Net
module Transport = Pti_transport.Transport
module Sim = Pti_net.Sim
module Stats = Pti_net.Stats
module Trace = Pti_net.Trace
module Peer = Pti_core.Peer
module Message = Pti_core.Message
module Workload = Pti_demo.Workload
module Invariant = Pti_fault.Invariant
module Chaos = Pti_fault.Chaos
module Cl = Pti_cluster.Cluster
module Node = Pti_cluster.Node
module Fnv = Pti_util.Fnv
module Repository = Pti_core.Repository

(* Closed worlds for the model checker. Unlike the chaos harness these
   are entirely fault-free and jitter-free: the only nondeterminism left
   is the delivery/action order, which is exactly what the explorer
   enumerates. Nothing here draws ambient randomness, so re-executing a
   prefix always reproduces the same state. *)

type kind = Protocol | Cluster | Wire | Evolution

let kind_name = function
  | Protocol -> "protocol"
  | Cluster -> "cluster"
  | Wire -> "wire"
  | Evolution -> "evolution"

let kind_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "protocol" -> Some Protocol
  | "cluster" -> Some Cluster
  | "wire" -> Some Wire
  | "evolution" -> Some Evolution
  | _ -> None

type spec = {
  s_kind : kind;
  s_peers : int;
  s_objects : int;
  s_fanout_bug : bool;
  s_cas_bug : bool;
}

let spec ?(peers = 3) ?(objects = 2) ?(fanout_bug = false) ?(cas_bug = false)
    kind =
  {
    s_kind = kind;
    s_peers = max 2 peers;
    s_objects = max 1 objects;
    s_fanout_bug = fanout_bug;
    s_cas_bug = cas_bug;
  }

type instance = {
  i_net : Message.t Net.t;
  i_check : unit -> Invariant.violation list;
  i_fingerprint : unit -> int64;
}

(* Object [i]'s workload family: everything shares family 0 (conformant)
   — same-typed bursts are what the in-flight dedup guards protect — and
   with three or more objects the last one is a trap, so the reject path
   is part of the explored space too. *)
let family_of ~objects i =
  if objects >= 3 && i = objects - 1 then (1, Workload.Trap_missing)
  else (0, Workload.Conformant)

let families_used ~objects =
  List.init objects (family_of ~objects) |> List.sort_uniq compare

(* The invariant set shared by every scenario, evaluated at a terminal
   (quiescent) state. [receiver] is the peer whose interest pipeline the
   objects ran through. On a fault-free net nothing may be lost, mangled
   or double-applied, verdicts must be schedule-independent
   ({!Chaos.judge}), and the subprotocol traffic must stay within what
   the in-flight dedup guarantees — however the deliveries were
   interleaved. *)
let check_common ?(revisions = 1) ~net ~trace ~receiver ~objects ~expected
    ~trap_keys () =
  let families = families_used ~objects in
  let j =
    Chaos.judge ~net ~trace ~receiver ~families ~sent:objects ~expected
      ~trap_keys
  in
  let stats = Net.stats net in
  let distinct = List.length families in
  let conformant_distinct =
    List.length (List.filter (fun (_, f) -> f = Workload.Conformant) families)
  in
  j.Chaos.j_violations
  (* Each family needs at most its Person + Address descriptions and
     (when conformant, hence downloaded) one assembly — whatever the
     interleaving, thanks to the shared in-flight exchanges. A live
     upgrade multiplies the need by the number of [revisions] on the
     chain: each revision's descriptions and assembly are distinct. *)
  @ Invariant.fetch_economy ~label:"tdesc requests"
      ~actual:(Stats.messages stats Stats.Tdesc_request)
      ~allowed:(2 * distinct * revisions)
  @ Invariant.fetch_economy ~label:"assembly requests"
      ~actual:(Stats.messages stats Stats.Asm_request)
      ~allowed:(conformant_distinct * revisions)

(* Publish the used families on [sender], register the news interest on
   [receiver], and issue the object sends; returns (expected, traps). *)
let setup_workload ~publish ~sender ~receiver ~objects ~send =
  List.iter
    (fun (index, flavor) -> publish (Workload.family ~index ~flavor))
    (families_used ~objects);
  Peer.install_assembly receiver (Workload.interest_assembly ());
  Peer.register_interest receiver ~interest:Workload.interest_person
    (fun ~from:_ _ -> ());
  let expected = ref [] and trap_keys = ref [] in
  for i = 0 to objects - 1 do
    let index, flavor = family_of ~objects i in
    let name = Printf.sprintf "p%d" i in
    let age = 20 + i in
    let v =
      Workload.make_person (Peer.registry sender) ~index ~flavor ~name ~age
    in
    (match flavor with
    | Workload.Conformant -> expected := (name, (name, age)) :: !expected
    | _ -> trap_keys := name :: !trap_keys);
    send i v
  done;
  (!expected, !trap_keys)

let combine_fingerprints fps =
  let buf = Buffer.create 64 in
  List.iter (fun fp -> Buffer.add_string buf (Printf.sprintf "%Lx " fp)) fps;
  Fnv.hash64 (Buffer.contents buf)

(* The historical fetch fan-out, replayed on the wire: without the
   in-flight dedup guards a same-typed burst sent one tdesc probe and
   one code download per envelope. Duplicating every frame on the
   receiver's request link ([bob -> alice] carries only tdesc and
   assembly requests here) puts exactly that extra traffic on the
   wire, with no bug switch in [Peer]. *)
let fanout_shim net =
  Net.set_fault_hooks net
    (Some
       {
         Net.no_faults with
         Net.fh_duplicates =
           (fun ~now:_ ~src ~dst ->
             if String.equal src "bob" && String.equal dst "alice" then 1
             else 0);
       })

(* Two peers, classic wire. All sends are issued at setup, so the
   initial enabled set is the burst of concurrent object deliveries —
   the exact situation the in-flight fetch guards exist for. With
   [s_fanout_bug] the receiver's requests fan out as if unguarded. *)
let make_two_peer ~wire spec =
  let net = Net.create ~jitter_ms:0. () in
  let trace = Trace.attach net in
  if spec.s_fanout_bug then fanout_shim net;
  let handles = wire in
  let batch_bytes = if wire then Some 4096 else None in
  let tdesc_binary = wire in
  let mk addr = Peer.create ~handles ?batch_bytes ~tdesc_binary ~net addr in
  let alice = mk "alice" in
  let bob = mk "bob" in
  let objects = spec.s_objects in
  let sim = Net.sim net in
  let send i v =
    if (not wire) || i = 0 then Peer.send_value alice ~dst:"bob" v
    else
      (* Wire scenario: later sends are explorable local actions, so the
         explorer can order them against batch flushes and the handle
         table drop below. *)
      Sim.schedule sim
        ~label:(Sim.Act { owner = "alice"; info = Printf.sprintf "send p%d" i })
        ~delay:0.
        (fun () -> Peer.send_value alice ~dst:"bob" v)
  in
  let expected, trap_keys =
    setup_workload ~publish:(Peer.publish_assembly alice) ~sender:alice
      ~receiver:bob ~objects ~send
  in
  if wire && objects >= 2 then
    (* Losing bob's learned bindings is another explorable action: fired
       before the first delivery it is a no-op, between deliveries it
       forces a NAK/re-bind round — all orders must stay invariant. *)
    Sim.schedule sim
      ~label:(Sim.Act { owner = "bob"; info = "drop-handle-tables" })
      ~delay:0.
      (fun () -> Peer.drop_handle_tables bob);
  {
    i_net = net;
    i_check =
      check_common ~net ~trace ~receiver:bob ~objects ~expected ~trap_keys;
    i_fingerprint =
      (fun () ->
        combine_fingerprints [ Peer.fingerprint alice; Peer.fingerprint bob ]);
  }

(* A small replicated cluster: publication pushes replicas, gossip
   rounds are explorable actions, and one object burst crosses the
   cluster. Membership must converge to all-alive under every
   interleaving (there are no faults to observe). *)
let make_cluster spec =
  let net = Net.create ~jitter_ms:0. () in
  let trace = Trace.attach net in
  let hosts = List.init spec.s_peers (Printf.sprintf "n%d") in
  let cl =
    Cl.create ~factor:2 ~seed:17L ~transport:(Transport.of_net net) hosts
  in
  let sender = Cl.peer cl (List.hd hosts) in
  let receiver_addr = List.nth hosts (List.length hosts - 1) in
  let receiver = Cl.peer cl receiver_addr in
  let objects = spec.s_objects in
  let sim = Net.sim net in
  let send _i v = Peer.send_value sender ~dst:receiver_addr v in
  let expected, trap_keys =
    setup_workload
      ~publish:(fun asm -> Node.publish (Cl.node cl (List.hd hosts)) asm)
      ~sender ~receiver ~objects ~send
  in
  (* Two anti-entropy rounds per node, as choosable actions. *)
  List.iteri
    (fun ni addr ->
      let node = Cl.node cl addr in
      for r = 0 to 1 do
        Sim.schedule_at sim
          ~label:
            (Sim.Act { owner = addr; info = Printf.sprintf "gossip-tick %d" r })
          ~at:(1. +. float_of_int ((r * spec.s_peers) + ni))
          (fun () -> Node.tick node)
      done)
    hosts;
  let check () =
    check_common ~net ~trace ~receiver ~objects ~expected ~trap_keys ()
    @ Chaos.membership cl hosts
  in
  {
    i_net = net;
    i_check = check;
    i_fingerprint =
      (fun () ->
        combine_fingerprints
          (List.concat_map
             (fun a ->
               [ Node.fingerprint (Cl.node cl a); Peer.fingerprint (Cl.peer cl a) ])
             hosts));
  }

(* Live schema evolution racing the type subprotocols: every object is
   the evolving family, the v2 CAS publication is an explorable action,
   and the explorer orders it against sends, description fetches and
   conformance probes. Each send records the chain-head revision it
   negotiated; {!Invariant.upgrade_safety} demands every delivery decode
   against exactly that revision, whatever the interleaving.

   With [s_cas_bug] the publication reverts to the historical torn
   publish: the chain head is advanced directly ([learn_version], the
   mirror-replica primitive) without the atomic registry upgrade that
   [publish_assembly_cas] performs. Schedules that send after the torn
   flip then negotiate v2 while the publisher still builds v1 payloads
   — the cross-decode the invariant exists to catch. *)
let make_evolution spec =
  let net = Net.create ~jitter_ms:0. () in
  let trace = Trace.attach net in
  let alice = Peer.create ~net "alice" in
  let bob = Peer.create ~net "bob" in
  let objects = spec.s_objects in
  let sim = Net.sim net in
  let v1 = Workload.family ~index:0 ~flavor:Workload.Conformant in
  let asm_name = v1.Pti_cts.Assembly.asm_name in
  (match Peer.publish_assembly_cas alice v1 with
  | Ok _ -> ()
  | Error _ -> invalid_arg "Scenario.make_evolution: seed CAS failed");
  Peer.install_assembly bob (Workload.interest_assembly ());
  Peer.register_interest bob ~interest:Workload.interest_person (fun ~from:_ _ -> ());
  let head_version () =
    match Repository.resolve (Peer.repository alice) asm_name with
    | Some ve -> ve.Repository.ve_version
    | None -> 1
  in
  let expected = ref [] and negotiated = ref [] in
  for i = 0 to objects - 1 do
    let name = Printf.sprintf "p%d" i in
    let age = 20 + i in
    expected := (name, (name, age)) :: !expected;
    let send () =
      let v =
        Workload.make_person (Peer.registry alice) ~index:0
          ~flavor:Workload.Conformant ~name ~age
      in
      negotiated := (name, head_version ()) :: !negotiated;
      Peer.send_value alice ~dst:"bob" v
    in
    if i = 0 then send ()
    else
      Sim.schedule sim
        ~label:(Sim.Act { owner = "alice"; info = Printf.sprintf "send p%d" i })
        ~delay:0. send
  done;
  Sim.schedule sim
    ~label:(Sim.Act { owner = "alice"; info = "publish-v2" })
    ~delay:0.
    (fun () ->
      let v2 =
        Workload.family_v ~version:2 ~index:0 ~flavor:Workload.Conformant
      in
      if spec.s_cas_bug then
        ignore
          (Repository.learn_version (Peer.repository alice) ~version:2
             ~path:
               (Repository.path_for_version ~host:"alice" ~assembly:asm_name
                  ~version:2)
             v2)
      else
        match Repository.resolve (Peer.repository alice) asm_name with
        | None -> ()
        | Some head -> (
            match
              Peer.publish_assembly_cas ~expect:head.Repository.ve_digest alice
                v2
            with
            | Ok _ | Error _ -> ()));
  let check () =
    check_common ~revisions:2 ~net ~trace ~receiver:bob ~objects
      ~expected:!expected ~trap_keys:[] ()
    @ Invariant.upgrade_safety ~negotiated:!negotiated
        ~decoded:(Chaos.decoded_revisions bob)
  in
  {
    i_net = net;
    i_check = check;
    i_fingerprint =
      (fun () ->
        combine_fingerprints [ Peer.fingerprint alice; Peer.fingerprint bob ]);
  }

let make spec =
  match spec.s_kind with
  | Protocol -> make_two_peer ~wire:false spec
  | Wire -> make_two_peer ~wire:true spec
  | Cluster -> make_cluster spec
  | Evolution -> make_evolution spec
