module Metrics = Pti_obs.Metrics
module Splitmix = Pti_util.Splitmix
module Guid = Pti_util.Guid
module S = Pti_util.Strutil
module Td = Pti_typedesc.Type_description
module Assembly = Pti_cts.Assembly
module Assembly_xml = Pti_serial.Assembly_xml
module Peer = Pti_core.Peer
module Repository = Pti_core.Repository

let log_src = Logs.Src.create "pti.cluster" ~doc:"Cluster membership and gossip"

module Log = (val Logs.src_log log_src : Logs.LOG)

type status = Alive | Suspect | Dead

let status_name = function
  | Alive -> "alive"
  | Suspect -> "suspect"
  | Dead -> "dead"

type member = { mutable m_status : status }

type t = {
  peer : Peer.t;
  addr : string;
  factor : int;
  probe_timeout_ms : float;
  rng : Splitmix.t;
  (* Per-peer round-trip EWMA from completed gossip exchanges: this
     node's own observation, local the way it would be on a real
     network; the mirror ranking orders download candidates by it. *)
  rtts : (string, float) Hashtbl.t;
  members : (string, member) Hashtbl.t;
  mirrors : (string, string) Hashtbl.t;  (* download path -> assembly *)
  inflight : (int, float * string) Hashtbl.t;  (* token -> sent_at, partner *)
  mutable next_token : int;
  (* Free-rider gossip: when the peer flushes an object batch to a
     member, an anti-entropy digest rides along — throttled per
     destination (last ride, by address) so hot links do not turn into
     digest firehoses. *)
  piggy_last : (string, float) Hashtbl.t;
  mc_rounds : Metrics.counter;
  mc_digest_bytes : Metrics.counter;
  mc_piggybacked : Metrics.counter;
}

let peer t = t.peer
let address t = t.addr
let replication_factor t = t.factor
let rtt t addr = Hashtbl.find_opt t.rtts addr

(* EWMA smoothing for RTT observations: heavy enough that one slow
   round-trip does not reorder mirrors, light enough to track drift. *)
let rtt_alpha = 0.3

let record_rtt t addr ~ms =
  Hashtbl.replace t.rtts addr
    (match Hashtbl.find_opt t.rtts addr with
    | None -> ms
    | Some old -> ((1. -. rtt_alpha) *. old) +. (rtt_alpha *. ms))

let status t addr =
  Option.map (fun m -> m.m_status) (Hashtbl.find_opt t.members addr)

let members t =
  Hashtbl.fold (fun a m acc -> (a, m.m_status) :: acc) t.members []
  |> List.sort compare

let alive t =
  Hashtbl.fold
    (fun a m acc -> if m.m_status = Alive then a :: acc else acc)
    t.members []
  |> List.sort compare

let mark t addr st =
  if addr <> t.addr then
    match Hashtbl.find_opt t.members addr with
    | Some m -> m.m_status <- st
    | None -> Hashtbl.replace t.members addr { m_status = st }

let join t addrs = List.iter (fun a -> mark t a Alive) addrs

(* Direct contact is the only resurrection: gossip *about* a peer never
   overrides what this node observed itself, or a crashed peer would be
   talked back to life by second-hand rumours. *)
let saw_traffic_from t addr = mark t addr Alive

let note_member t addr =
  if addr <> t.addr && not (Hashtbl.mem t.members addr) then
    Hashtbl.replace t.members addr { m_status = Alive }

let degrade t addr =
  match Hashtbl.find_opt t.members addr with
  | None -> ()
  | Some m -> (
      match m.m_status with
      | Alive ->
          Log.debug (fun f -> f "[%s] suspects %s" t.addr addr);
          m.m_status <- Suspect
      | Suspect ->
          Log.debug (fun f -> f "[%s] declares %s dead" t.addr addr);
          m.m_status <- Dead
      | Dead -> ())

(* ---------------------------------------------------------------- *)
(* Mirror knowledge                                                   *)
(* ---------------------------------------------------------------- *)

let learn_path t ~path ~asm =
  if not (Hashtbl.mem t.mirrors path) then Hashtbl.replace t.mirrors path asm

(* Everything this node serves itself is mirror knowledge too. *)
let sync_own_paths t =
  List.iter
    (fun (path, asm) -> learn_path t ~path ~asm)
    (Repository.entries (Peer.repository t.peer))

let known_mirrors t asm =
  sync_own_paths t;
  Hashtbl.fold
    (fun p a acc -> if S.equal_ci a asm then p :: acc else acc)
    t.mirrors []
  |> List.sort compare

let mirror_table t =
  sync_own_paths t;
  Hashtbl.fold (fun p a acc -> (p, a) :: acc) t.mirrors []
  |> List.sort compare

let path_universe t = mirror_table t

(* Candidate ranking for the peer's failover pipeline. The advertised
   path leads as long as its host is not known to be in trouble (so the
   default topology behaves exactly as before the cluster existed), and
   drops to last resort once it is; every other known mirror is ranked
   by membership status, then observed RTT, then path order. *)
let rank t ~assembly ~advertised =
  (* A versioned advertised path ([…/name@vN]) pins the fetch to that
     chain revision: every candidate mirror is re-pathed to its own
     versioned form (a mirror that has converged on the chain serves it;
     one that has not simply misses and the pipeline fails over). An
     unversioned fetch conversely never falls over to a versioned path —
     that could silently hand out a superseded revision. *)
  let pin_version =
    match Repository.parse_versioned_path advertised with
    | Some (_, _, (Some _ as v)) -> v
    | _ -> None
  in
  let is_versioned p =
    match Repository.parse_versioned_path p with
    | Some (_, _, Some _) -> true
    | _ -> false
  in
  let reversion v p =
    match Repository.parse_path p with
    | Some (host, _) -> Repository.path_for_version ~host ~assembly ~version:v
    | None -> p
  in
  let weight p =
    match Repository.parse_path p with
    | None -> (2, infinity, p)
    | Some (host, _) ->
        let sw =
          match status t host with
          | Some Alive | None -> 0
          | Some Suspect -> 1
          | Some Dead -> 2
        in
        let ms =
          match rtt t host with
          | Some ms -> ms
          | None -> infinity
        in
        (sw, ms, p)
  in
  let others =
    (match pin_version with
    | None ->
        known_mirrors t assembly |> List.filter (fun p -> not (is_versioned p))
    | Some v ->
        known_mirrors t assembly |> List.map (reversion v)
        |> List.sort_uniq compare)
    |> List.filter (fun p -> not (String.equal p advertised))
    |> List.map weight |> List.sort compare
    |> List.map (fun (_, _, p) -> p)
  in
  let advertised_host_ok =
    match Repository.parse_path advertised with
    | None -> true
    | Some (host, _) -> (
        match status t host with
        | Some Suspect | Some Dead -> false
        | Some Alive | None -> true)
  in
  if advertised_host_ok then advertised :: others else others @ [ advertised ]

(* ---------------------------------------------------------------- *)
(* Anti-entropy exchange                                              *)
(* ---------------------------------------------------------------- *)

let lc = String.lowercase_ascii

let own_summary t ~token ~descs =
  {
    Digest.g_token = token;
    g_types =
      List.map
        (fun (n, g) -> (n, Guid.to_string g))
        (Peer.known_descriptions t.peer);
    g_paths = path_universe t;
    g_chains = Repository.chain_digests (Peer.repository t.peer);
    g_members =
      t.addr
      :: (Hashtbl.fold
            (fun a m acc -> if m.m_status <> Dead then a :: acc else acc)
            t.members []
         |> List.sort compare);
    g_descs = descs;
  }

(* Descriptions we can serve that the other side's digest does not
   mention. *)
let descs_missing_from t (their_types : (string * string) list) =
  let theirs = Hashtbl.create 32 in
  List.iter (fun (n, _) -> Hashtbl.replace theirs (lc n) ()) their_types;
  Peer.known_descriptions t.peer
  |> List.filter_map (fun (n, _) ->
         if Hashtbl.mem theirs (lc n) then None
         else
           Option.map Td.to_xml_string (Peer.local_description t.peer n))

let absorb_summary t (m : Digest.msg) =
  List.iter (fun a -> note_member t a) m.Digest.g_members;
  List.iter (fun (path, asm) -> learn_path t ~path ~asm) m.Digest.g_paths;
  List.iter
    (fun xml ->
      match Td.of_xml_string xml with
      | Ok d -> Peer.learn_description t.peer d
      | Error _ -> ())
    m.Digest.g_descs

(* Chain entries we hold that the other side's digest does not mention —
   the revisions to push back so anti-entropy converges every node on
   the newest chain. *)
let chain_entries_missing_from t (their_chains : (string * (int * string) list) list) =
  let theirs name v d =
    match
      List.find_opt (fun (n, _) -> S.equal_ci n name) their_chains
    with
    | None -> false
    | Some (_, entries) ->
        List.exists (fun (v', d') -> v' = v && String.equal d' d) entries
  in
  let repo = Peer.repository t.peer in
  Repository.chain_digests repo
  |> List.concat_map (fun (name, entries) ->
         List.filter_map
           (fun (v, d) ->
             if theirs name v d then None
             else
               Option.map
                 (fun ve -> ve.Repository.ve_assembly)
                 (Repository.resolve repo ~pin:(Repository.Version v) name))
           entries)

let push_missing_chain_entries t ~dst (m : Digest.msg) =
  List.iter
    (fun asm ->
      Peer.send_gossip t.peer ~dst ~kind:"chain-replica"
        ~body:(Assembly_xml.to_string asm))
    (chain_entries_missing_from t m.Digest.g_chains)

let send_gossip t ~dst ~kind body =
  Metrics.incr ~by:(String.length body) t.mc_digest_bytes;
  Peer.send_gossip t.peer ~dst ~kind ~body

let on_gossip t ~src ~kind ~body =
  saw_traffic_from t src;
  match kind with
  | "digest" -> (
      match Digest.decode body with
      | Error e -> Log.warn (fun f -> f "[%s] bad digest from %s: %s" t.addr src e)
      | Ok m ->
          absorb_summary t m;
          let reply =
            own_summary t ~token:m.Digest.g_token
              ~descs:(descs_missing_from t m.Digest.g_types)
          in
          send_gossip t ~dst:src ~kind:"digest-reply" (Digest.encode reply);
          push_missing_chain_entries t ~dst:src m)
  | "digest-reply" -> (
      match Digest.decode body with
      | Error e ->
          Log.warn (fun f -> f "[%s] bad digest-reply from %s: %s" t.addr src e)
      | Ok m ->
          (match Hashtbl.find_opt t.inflight m.Digest.g_token with
          | Some (sent_at, partner) when String.equal partner src ->
              Hashtbl.remove t.inflight m.Digest.g_token;
              record_rtt t src ~ms:(Peer.now_ms t.peer -. sent_at)
          | _ -> ());
          absorb_summary t m;
          (* Third leg: push back whatever the responder still lacks. *)
          let delta = descs_missing_from t m.Digest.g_types in
          if delta <> [] then
            send_gossip t ~dst:src ~kind:"delta"
              (Digest.encode
                 { Digest.empty with g_token = m.Digest.g_token; g_descs = delta });
          push_missing_chain_entries t ~dst:src m)
  | "delta" -> (
      match Digest.decode body with
      | Error e -> Log.warn (fun f -> f "[%s] bad delta from %s: %s" t.addr src e)
      | Ok m -> absorb_summary t m)
  | "replica" -> (
      (* A factor-k placement push: serve the bytes under our own path
         (we need not load the code to mirror it). *)
      match Assembly_xml.of_string body with
      | Error e -> Log.warn (fun f -> f "[%s] bad replica from %s: %s" t.addr src e)
      | Ok asm ->
          let name = asm.Assembly.asm_name in
          let path = Repository.path_for ~host:t.addr ~assembly:name in
          Peer.serve_assembly t.peer ~path asm;
          learn_path t ~path ~asm:name)
  | "chain-replica" -> (
      (* A chain revision push: fold it into our repository's version
         chain under our own versioned path. [learn_version] dedupes by
         content digest, so replays and races converge. The chain merge
         is order-free — entries arrive newest-first or oldest-first
         yield the same chain. *)
      match Assembly_xml.of_string body with
      | Error e ->
          Log.warn (fun f -> f "[%s] bad chain-replica from %s: %s" t.addr src e)
      | Ok asm ->
          let name = asm.Assembly.asm_name in
          let version = asm.Assembly.asm_version in
          if version > 0 then begin
            let path =
              Repository.path_for_version ~host:t.addr ~assembly:name ~version
            in
            if
              Repository.learn_version (Peer.repository t.peer) ~version ~path
                asm
            then learn_path t ~path ~asm:name
          end)
  | other -> Log.warn (fun f -> f "[%s] unknown gossip kind %S from %s" t.addr other src)

let fresh_token t =
  let k = t.next_token in
  t.next_token <- k + 1;
  k

let tick t =
  Metrics.incr t.mc_rounds;
  let partners =
    Hashtbl.fold
      (fun a m acc -> if m.m_status <> Dead then a :: acc else acc)
      t.members []
    |> List.sort compare
  in
  (* A node that believes everyone dead has nothing better to do than
     keep probing them — that is also how a healed partition is
     rediscovered (direct traffic is the only resurrection). *)
  let partners =
    match partners with
    | [] ->
        Hashtbl.fold (fun a _ acc -> a :: acc) t.members []
        |> List.sort compare
    | ps -> ps
  in
  match partners with
  | [] -> ()
  | _ ->
      let partner = Splitmix.pick t.rng (Array.of_list partners) in
      let token = fresh_token t in
      Hashtbl.replace t.inflight token (Peer.now_ms t.peer, partner);
      let digest = own_summary t ~token ~descs:[] in
      send_gossip t ~dst:partner ~kind:"digest" (Digest.encode digest);
      (* Failure detection: an exchange that never completes degrades the
         partner (alive -> suspect -> dead). One-shot timer (on the
         transport clock), so the simulation still quiesces between
         rounds. *)
      Peer.schedule_timer t.peer
        ~info:(Printf.sprintf "probe-timeout#%d" token)
        ~delay_ms:t.probe_timeout_ms
        (fun () ->
          if Hashtbl.mem t.inflight token then begin
            Hashtbl.remove t.inflight token;
            degrade t partner
          end);
      (* Rediscovery: one dead-marked member still gets a probe each
         round (rotating, no timer — it cannot get any deader). Direct
         traffic is the only resurrection, so without this a healed
         partition stays dead until the other side's random picks happen
         to land on us. *)
      let dead =
        Hashtbl.fold
          (fun a m acc -> if m.m_status = Dead then a :: acc else acc)
          t.members []
        |> List.sort compare
      in
      (match dead with
      | [] -> ()
      | _ ->
          let d = List.nth dead (token mod List.length dead) in
          let dt = fresh_token t in
          send_gossip t ~dst:d ~kind:"digest"
            (Digest.encode (own_summary t ~token:dt ~descs:[])))

(* ---------------------------------------------------------------- *)
(* Replicated publication                                             *)
(* ---------------------------------------------------------------- *)

(* Rendezvous (highest-random-weight) hashing: every node computes the
   same deterministic preference order for an assembly's replicas, with
   no coordination and minimal reshuffling on membership change. *)
let placement t ~assembly k =
  Hashtbl.fold
    (fun a m acc -> if m.m_status <> Dead then a :: acc else acc)
    t.members []
  |> List.map (fun a -> (Guid.hash (Guid.of_name (a ^ "|" ^ assembly)), a))
  |> List.sort (fun (sa, aa) (sb, ab) -> compare (sb, ab) (sa, aa))
  |> List.filteri (fun i _ -> i < k)
  |> List.map snd

let publish t asm =
  Peer.publish_assembly t.peer asm;
  let name = asm.Assembly.asm_name in
  learn_path t ~path:(Repository.path_for ~host:t.addr ~assembly:name)
    ~asm:name;
  let replicas = placement t ~assembly:name (t.factor - 1) in
  List.iter
    (fun dst ->
      Log.debug (fun f -> f "[%s] replicating %s to %s" t.addr name dst);
      Peer.send_gossip t.peer ~dst ~kind:"replica"
        ~body:(Assembly_xml.to_string asm);
      (* The push is assumed to land; gossip repairs the record if the
         mirror never materialises. *)
      learn_path t ~path:(Repository.path_for ~host:dst ~assembly:name)
        ~asm:name)
    replicas

(* CAS publication: the versioned analogue of [publish]. The revision
   lands on the local chain first (conflict = somebody else won the
   race; nothing is replicated), then the stamped revision is pushed to
   the factor-k placement as chain entries — mirrors fold it into their
   own chains and serve both the versioned path and, once converged, the
   new head. *)
let publish_cas ?expect t asm =
  match Peer.publish_assembly_cas ?expect t.peer asm with
  | Error _ as e -> e
  | Ok ve ->
      let name = asm.Assembly.asm_name in
      learn_path t ~path:ve.Repository.ve_path ~asm:name;
      learn_path t
        ~path:(Repository.path_for ~host:t.addr ~assembly:name)
        ~asm:name;
      let replicas = placement t ~assembly:name (t.factor - 1) in
      List.iter
        (fun dst ->
          Log.debug (fun f ->
              f "[%s] replicating %s v%d to %s" t.addr name
                ve.Repository.ve_version dst);
          Peer.send_gossip t.peer ~dst ~kind:"chain-replica"
            ~body:(Assembly_xml.to_string ve.Repository.ve_assembly))
        replicas;
      Ok ve

(* ---------------------------------------------------------------- *)
(* Introspection                                                      *)
(* ---------------------------------------------------------------- *)

let gossip_rounds t = Metrics.counter_value t.mc_rounds
let digest_bytes t = Metrics.counter_value t.mc_digest_bytes
let piggybacked_digests t = Metrics.counter_value t.mc_piggybacked

(* FNV-1a digest of this node's cluster-visible state (membership view,
   mirror knowledge, probes in flight, token counter), rendered sorted —
   independent of Hashtbl bucket layout. The model checker combines it
   with {!Peer.fingerprint} for state-hash pruning. *)
let fingerprint t =
  let buf = Buffer.create 256 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  add "node %s next=%d" t.addr t.next_token;
  List.iter
    (fun (a, st) -> add "member %s %s" a (status_name st))
    (members t);
  List.iter (fun (p, a) -> add "mirror %s %s" p a) (mirror_table t);
  Hashtbl.fold (fun tok (_, partner) acc -> (tok, partner) :: acc) t.inflight []
  |> List.sort compare
  |> List.iter (fun (tok, partner) -> add "probe %d %s" tok partner);
  Pti_util.Fnv.hash64 (Buffer.contents buf)

(* ---------------------------------------------------------------- *)
(* Piggybacked gossip                                                 *)
(* ---------------------------------------------------------------- *)

(* Digest to ride on an outgoing object batch. No inflight entry and no
   probe timer: piggybacked digests are opportunistic, so they feed
   dissemination but not failure detection (a missing reply must not
   degrade a partner that simply had nothing to say). *)
let piggyback_interval_ms = 1_000.

let piggyback_for t ~dst =
  if not (Hashtbl.mem t.members dst) then []
  else begin
    let now = Peer.now_ms t.peer in
    let due =
      match Hashtbl.find_opt t.piggy_last dst with
      | Some last -> now -. last >= piggyback_interval_ms
      | None -> true
    in
    if not due then []
    else begin
      Hashtbl.replace t.piggy_last dst now;
      let token = fresh_token t in
      let body = Digest.encode (own_summary t ~token ~descs:[]) in
      Metrics.incr ~by:(String.length body) t.mc_digest_bytes;
      Metrics.incr t.mc_piggybacked;
      [ ("digest", body) ]
    end
  end

(* ---------------------------------------------------------------- *)
(* Construction                                                       *)
(* ---------------------------------------------------------------- *)

let create ?(factor = 2) ?(seed = 17L) ?(probe_timeout_ms = 5_000.) peer =
  if factor < 1 then invalid_arg "Node.create: factor must be >= 1";
  let addr = Peer.address peer in
  let m = Peer.metrics peer in
  let pfx name = Printf.sprintf "cluster.%s.%s" addr name in
  let t =
    {
      peer;
      addr;
      factor;
      probe_timeout_ms;
      rng = Splitmix.create seed;
      rtts = Hashtbl.create 8;
      members = Hashtbl.create 8;
      mirrors = Hashtbl.create 16;
      inflight = Hashtbl.create 8;
      next_token = 0;
      piggy_last = Hashtbl.create 8;
      mc_rounds = Metrics.counter m (pfx "gossip.rounds");
      mc_digest_bytes = Metrics.counter m (pfx "digest.bytes");
      mc_piggybacked = Metrics.counter m (pfx "gossip.piggybacked");
    }
  in
  Metrics.gauge_fn m (pfx "members.alive") (fun () ->
      float_of_int (List.length (alive t)));
  Metrics.gauge_fn m (pfx "members.total") (fun () ->
      float_of_int (Hashtbl.length t.members));
  Metrics.gauge_fn m (pfx "mirrors.known") (fun () ->
      sync_own_paths t;
      float_of_int (Hashtbl.length t.mirrors));
  Metrics.gauge_fn m (pfx "replication.factor") (fun () ->
      float_of_int t.factor);
  Metrics.gauge_fn m (pfx "fetch.failovers") (fun () ->
      float_of_int (Peer.fetch_failovers peer));
  Peer.set_gossip_handler peer (fun ~src ~kind ~body ->
      on_gossip t ~src ~kind ~body);
  Peer.set_mirror_provider peer (fun ~assembly ~advertised ->
      rank t ~assembly ~advertised);
  Peer.set_piggyback_provider peer (fun ~dst -> piggyback_for t ~dst);
  sync_own_paths t;
  t
