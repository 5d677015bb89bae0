(* Socket-backed transport fabric: Unix-domain and TCP byte streams.

   One [t] is a process's view of the network for one family: a set of
   local endpoints (each with a listening socket), the connections they
   hold, and a monotonic [Clock] whose timers fire from the poll loop.
   Everything is nonblocking and select-driven; nothing spawns threads.

   Wire format: each message is a [Framing] length-prefixed frame whose
   payload is either a hello ([0x48] + sender address, the first frame
   on every dialed connection, so the acceptor learns the dialer's
   logical address and replies can reuse the inbound connection — only
   dialers ever need the peer to be resolvable) or data ([0x44] +
   category byte + f64 wall-clock send stamp + codec payload). The
   stamp is absolute wall milliseconds, not fabric-relative, so
   cross-process latency measurement works without clock negotiation
   (both ends sit on the same machine's clock).

   Reliability: TCP/Unix streams do not lose frames, so there is no
   per-message ARQ; the failure mode is the connection, and the ARQ
   policy knobs drive reconnect-with-backoff instead — a failed dial
   retries on an exponential [Arq.backoff_ms] schedule until
   [max_retries] is exhausted, with frames buffered while dialing and
   counted lost when the link is abandoned.

   Fault injection: the fabric embeds the simulator's fault model
   ([Faults]) and consults it in the simulator's per-copy order —
   duplicates once per send, then per copy lose (severed or injected
   drop), corrupt, delay — with its integrity screen applied to decoded
   values on arrival. So the chaos harness's vocabulary works, and
   counts the same, over real kernel sockets. Partitions are a filter
   checked at send and at dispatch; the file descriptors stay open, the
   bytes stop. *)

module Framing = Pti_serial.Framing
module R = Pti_serial.Bytes_io.Reader
module Faults = Pti_net.Faults
module Sim = Pti_net.Sim
module Arq = Pti_net.Arq
module Clock = Pti_net.Clock
module Stats = Pti_net.Stats

type address = string

type 'a codec = {
  c_encode : 'a -> string;
  c_decode : string -> ('a, string) result;
}

type family = Unix_socket | Tcp

type conn_event =
  | Connected of { local : address; peer : address }
  | Disconnected of { local : address; peer : address }

let wall_ms () = Unix.gettimeofday () *. 1000.

type conn = {
  fd : Unix.file_descr;
  cn_local : address;
  mutable cn_peer : address option;  (* None until the hello arrives *)
  cn_dec : Framing.Decoder.t;
  cn_out : string Queue.t;
  mutable cn_off : int;  (* partial-write offset into the queue head *)
  mutable cn_alive : bool;
}

type pending = {
  pd_frames : (Stats.category * string) Queue.t;
  mutable pd_attempt : int;
  mutable pd_timer : bool;  (* a reconnect timer is armed *)
}

type bind_spec = Bind_spec of string | Bind_fd of Unix.file_descr

type 'a t = {
  family : family;
  mutable codec : 'a codec;
  clock : Clock.t;
  stats : Stats.t;
  policy : Arq.policy;
  unix_dir : string;  (* socket directory (unix family) *)
  tcp_host : string;  (* bind/dial host (tcp family) *)
  endpoints : (address, 'a endpoint) Hashtbl.t;
  mutable conns : conn list;
  (* The select set, rebuilt only after an endpoint or a connection came
     or went: the read descriptors (listeners, then connections), and
     the endpoints and connections they belong to, by position. *)
  mutable sel_stale : bool;
  mutable sel_fds : Unix.file_descr list;
  mutable sel_eps : 'a endpoint array;
  mutable sel_conns : conn array;
  remotes : (address, string) Hashtbl.t;  (* logical addr -> dial spec *)
  binds : (address, bind_spec) Hashtbl.t;  (* pre-registered listeners *)
  pendings : (address * address, pending) Hashtbl.t;
  faults : 'a Faults.t;
  mutable listeners : (conn_event -> unit) list;
  rx_bytes : int array;  (* receive-side accounting, by category index *)
  mutable lost : int;
  mutable reconnects : int;
  mutable closed : bool;
}

and 'a endpoint = {
  ep_addr : address;
  ep_handler : src:address -> 'a -> unit;
  ep_listen : Unix.file_descr;
  ep_spec : string;  (* what a dialer would use to reach this endpoint *)
  ep_owner : 'a t;
}

let ncat = List.length Stats.all_categories

(* A burst write into a half-closed socket must surface as EPIPE, not
   kill the process. Global and idempotent. *)
let ignore_sigpipe =
  lazy (if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

let create ~family ?(policy = Arq.default) ?(unix_dir = "") ?(tcp_host = "127.0.0.1")
    ?metrics () =
  Lazy.force ignore_sigpipe;
  let unix_dir =
    if unix_dir <> "" then unix_dir
    else Filename.concat (Filename.get_temp_dir_name ()) "pti-sockets"
  in
  {
    family;
    codec =
      (* installed by the facade right after create; never used before *)
      { c_encode = (fun _ -> assert false); c_decode = (fun _ -> assert false) };
    clock = Clock.monotonic ~now:wall_ms ();
    stats = Stats.create ?metrics ();
    policy;
    unix_dir;
    tcp_host;
    endpoints = Hashtbl.create 8;
    conns = [];
    sel_stale = true;
    sel_fds = [];
    sel_eps = [||];
    sel_conns = [||];
    remotes = Hashtbl.create 8;
    binds = Hashtbl.create 4;
    pendings = Hashtbl.create 8;
    faults = Faults.create ();
    listeners = [];
    rx_bytes = Array.make ncat 0;
    lost = 0;
    reconnects = 0;
    closed = false;
  }

let set_codec t codec = t.codec <- codec

let emit t ev = List.iter (fun f -> f ev) (List.rev t.listeners)
let on_conn_event t f = t.listeners <- f :: t.listeners

(* ---- address resolution ----------------------------------------------- *)

let sanitize addr =
  String.map (fun c -> if c = '/' || c = '\\' || c = ':' then '_' else c) addr

let unix_path t addr = Filename.concat t.unix_dir (sanitize addr ^ ".sock")

let parse_tcp_spec spec =
  match String.rindex_opt spec ':' with
  | None -> None
  | Some i ->
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      (match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 ->
          Some ((if host = "" then "127.0.0.1" else host), p)
      | _ -> None)

let sockaddr_of_spec t spec =
  match t.family with
  | Unix_socket -> Some (Unix.ADDR_UNIX spec)
  | Tcp -> (
      match parse_tcp_spec spec with
      | None -> None
      | Some (host, port) ->
          (try
             let ip = Unix.inet_addr_of_string host in
             Some (Unix.ADDR_INET (ip, port))
           with _ -> (
             match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
             | { Unix.ai_addr; _ } :: _ -> Some ai_addr
             | [] -> None)))

let spec_of_sockaddr = function
  | Unix.ADDR_UNIX p -> p
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

let register_remote t addr spec = Hashtbl.replace t.remotes addr spec
let set_bind t addr spec = Hashtbl.replace t.binds addr (Bind_spec spec)
let set_bind_fd t addr fd = Hashtbl.replace t.binds addr (Bind_fd fd)

let resolve t addr =
  match Hashtbl.find_opt t.endpoints addr with
  | Some ep -> Some ep.ep_spec
  | None -> Hashtbl.find_opt t.remotes addr

(* ---- endpoints -------------------------------------------------------- *)

let socket_domain t =
  match t.family with Unix_socket -> Unix.PF_UNIX | Tcp -> Unix.PF_INET

(* A connection carries small frames, each written whole. Under Nagle's
   algorithm a frame written while the previous one is unacknowledged
   waits for that ACK, which the receiver delays: tens of milliseconds
   per exchange. Only latency is at stake, so a refusal is ignored. *)
let set_nodelay t fd =
  match t.family with
  | Tcp -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true
      with Unix.Unix_error _ -> ())
  | Unix_socket -> ()

let ensure_dir d = try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let make_listener t addr =
  match Hashtbl.find_opt t.binds addr with
  | Some (Bind_fd fd) -> fd  (* pre-opened (inherited across fork) *)
  | other ->
      let sockaddr =
        match (other, t.family) with
        | Some (Bind_fd _), _ -> assert false  (* handled above *)
        | Some (Bind_spec spec), _ -> (
            match sockaddr_of_spec t spec with
            | Some sa -> sa
            | None -> invalid_arg (Printf.sprintf "bad bind spec %S" spec))
        | None, Unix_socket ->
            ensure_dir t.unix_dir;
            let path = unix_path t addr in
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            Unix.ADDR_UNIX path
        | None, Tcp ->
            Unix.ADDR_INET (Unix.inet_addr_of_string t.tcp_host, 0)
      in
      let fd = Unix.socket (socket_domain t) Unix.SOCK_STREAM 0 in
      (match t.family with
      | Tcp -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix_socket -> ());
      Unix.bind fd sockaddr;
      Unix.listen fd 16;
      fd

let add_endpoint t addr ~handler =
  if Hashtbl.mem t.endpoints addr then
    invalid_arg (Printf.sprintf "Transport.add_endpoint: duplicate address %S" addr);
  let fd = make_listener t addr in
  Unix.set_nonblock fd;
  let spec = spec_of_sockaddr (Unix.getsockname fd) in
  let ep = { ep_addr = addr; ep_handler = handler; ep_listen = fd; ep_spec = spec; ep_owner = t } in
  Hashtbl.replace t.endpoints addr ep;
  t.sel_stale <- true;
  ep

let listen_spec t addr =
  Option.map (fun ep -> ep.ep_spec) (Hashtbl.find_opt t.endpoints addr)

(* ---- connections ------------------------------------------------------ *)

let hello_frame addr = Framing.encode ("\x48" ^ addr)

(* Tag, category, send stamp. *)
let data_header = 10

(* The whole frame in one exact-size string: the payload is copied
   once, behind the prefix and the header. *)
let data_frame ~category payload =
  let n = String.length payload in
  let len = data_header + n in
  let b = Framing.alloc len in
  let at = Framing.frame_overhead len in
  Bytes.unsafe_set b at '\x44';
  Bytes.unsafe_set b (at + 1) (Char.unsafe_chr (Stats.index category));
  Bytes.set_int64_le b (at + 2) (Int64.bits_of_float (wall_ms ()));
  Bytes.blit_string payload 0 b (at + data_header) n;
  Bytes.unsafe_to_string b

let find_conn t ~local ~peer =
  List.find_opt
    (fun c -> c.cn_alive && c.cn_local = local && c.cn_peer = Some peer)
    t.conns

(* Frames still queued on a dying connection, a partly written head
   included, never reach the peer: they count as lost. *)
let kill_conn t c =
  if c.cn_alive then begin
    c.cn_alive <- false;
    t.lost <- t.lost + Queue.length c.cn_out;
    Queue.clear c.cn_out;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    t.sel_stale <- true;
    match c.cn_peer with
    | Some peer -> emit t (Disconnected { local = c.cn_local; peer })
    | None -> ()
  end

let enqueue c frame = Queue.push frame c.cn_out

let flush_conn t c =
  try
    while c.cn_alive && not (Queue.is_empty c.cn_out) do
      let head = Queue.peek c.cn_out in
      let n =
        Unix.write_substring c.fd head c.cn_off (String.length head - c.cn_off)
      in
      c.cn_off <- c.cn_off + n;
      if c.cn_off >= String.length head then begin
        ignore (Queue.pop c.cn_out);
        c.cn_off <- 0
      end
    done
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error _ -> kill_conn t c

let pending_for t ~src ~dst =
  match Hashtbl.find_opt t.pendings (src, dst) with
  | Some p -> p
  | None ->
      let p = { pd_frames = Queue.create (); pd_attempt = 0; pd_timer = false } in
      Hashtbl.replace t.pendings (src, dst) p;
      p

(* Dial [dst] from [src]: blocking connect (instant or refused on
   loopback), then nonblocking forever after. On success the hello goes
   out first, then everything buffered while we were dialing. *)
let rec try_dial t ~src ~dst =
  if t.closed then ()
  else
    let p = pending_for t ~src ~dst in
    if p.pd_timer then ()
      (* A backoff timer owns the retry: sends arriving meanwhile just
         queue, they must not burn through the attempt budget. *)
    else
      match find_conn t ~local:src ~peer:dst with
    | Some c ->
        Queue.iter (fun (_, f) -> enqueue c f) p.pd_frames;
        Queue.clear p.pd_frames;
        flush_conn t c
    | None -> (
        match resolve t dst with
        | None ->
            invalid_arg
              (Printf.sprintf "Transport.send: unknown host %S (no endpoint, no registered remote)" dst)
        | Some spec -> (
            match sockaddr_of_spec t spec with
            | None -> invalid_arg (Printf.sprintf "bad dial spec %S for %S" spec dst)
            | Some sa -> (
                match
                  let fd = Unix.socket (socket_domain t) Unix.SOCK_STREAM 0 in
                  (try Unix.connect fd sa
                   with e ->
                     (try Unix.close fd with Unix.Unix_error _ -> ());
                     raise e);
                  fd
                with
                | fd ->
                    Unix.set_nonblock fd;
                    set_nodelay t fd;
                    let c =
                      {
                        fd;
                        cn_local = src;
                        cn_peer = Some dst;
                        cn_dec = Framing.Decoder.create ();
                        cn_out = Queue.create ();
                        cn_off = 0;
                        cn_alive = true;
                      }
                    in
                    t.conns <- c :: t.conns;
                    t.sel_stale <- true;
                    enqueue c (hello_frame src);
                    Queue.iter (fun (_, f) -> enqueue c f) p.pd_frames;
                    Queue.clear p.pd_frames;
                    p.pd_attempt <- 0;
                    emit t (Connected { local = src; peer = dst });
                    flush_conn t c
                | exception Unix.Unix_error _ ->
                    let attempt = p.pd_attempt in
                    p.pd_attempt <- attempt + 1;
                    if Arq.give_up t.policy ~attempt:(attempt + 1) then begin
                      (* Link abandoned: everything buffered for it is lost. *)
                      t.lost <- t.lost + Queue.length p.pd_frames;
                      Queue.clear p.pd_frames;
                      p.pd_attempt <- 0
                    end
                    else if not p.pd_timer then begin
                      p.pd_timer <- true;
                      t.reconnects <- t.reconnects + 1;
                      Clock.schedule t.clock
                        ~label:
                          (Sim.Timer
                             {
                               owner = src;
                               info = Printf.sprintf "reconnect#%d %s" attempt dst;
                             })
                        ~delay_ms:(Arq.backoff_ms t.policy ~attempt)
                        (fun () ->
                          p.pd_timer <- false;
                          if not (Queue.is_empty p.pd_frames) then
                            try_dial t ~src ~dst)
                    end)))

(* ---- send: the fault model, copy by copy ------------------------------ *)

let send_frame t ~src ~dst ~category frame =
  match find_conn t ~local:src ~peer:dst with
  | Some c ->
      enqueue c frame;
      flush_conn t c
  | None ->
      Queue.push (category, frame) (pending_for t ~src ~dst).pd_frames;
      try_dial t ~src ~dst

let send t ep ?info:_ ~dst ~category ~size:_ payload =
  let src = ep.ep_addr in
  let f = t.faults in
  let now = Clock.now_ms t.clock in
  for _copy = 1 to Faults.copies f ~now ~src ~dst do
    (* The sim's per-copy order: lose, then corrupt a survivor, then
       delay it. Every copy is charged (dropped or not, as the sim does)
       by its actual framed wire size, not the caller's estimate. *)
    let lost =
      Faults.severed f ~now ~src ~dst || Faults.injected_drop f ~now ~src ~dst
    in
    let payload =
      if lost then payload else Faults.corrupt f ~now ~src ~dst payload
    in
    let frame = data_frame ~category (t.codec.c_encode payload) in
    Stats.record t.stats category ~bytes:(String.length frame);
    if lost then Faults.drop f
    else
      let delay = Faults.delay f ~now ~src ~dst in
      if delay > 0. then
        Clock.schedule t.clock
          ~label:(Sim.Act { owner = src; info = "delayed-send " ^ dst })
          ~delay_ms:delay
          (fun () -> send_frame t ~src ~dst ~category frame)
      else send_frame t ~src ~dst ~category frame
  done

(* ---- receive path ----------------------------------------------------- *)

let dispatch t c frame_len payload =
  let r = R.create payload in
  try
    match R.u8 r with
    | 0x48 ->
      (* hello: the dialer identifies itself *)
        let peer =
          String.sub payload (R.pos r) (String.length payload - R.pos r)
        in
        c.cn_peer <- Some peer;
        emit t (Connected { local = c.cn_local; peer })
    | 0x44 -> (
        match c.cn_peer with
        | None -> Faults.drop t.faults  (* data before hello *)
        | Some peer ->
            let cat_idx = R.u8 r in
            let stamp = R.f64 r in
            let body =
              String.sub payload (R.pos r) (String.length payload - R.pos r)
            in
            let category =
              if cat_idx < ncat then Stats.of_index cat_idx else Stats.Control
            in
            t.rx_bytes.(Stats.index category) <-
              t.rx_bytes.(Stats.index category) + frame_len;
            if
              Faults.severed t.faults ~now:(Clock.now_ms t.clock) ~src:peer
                ~dst:c.cn_local
            then
              (* A partition cut while the frame sat in kernel buffers
                 kills it on arrival, mirroring the sim's in-flight cut. *)
              Faults.drop t.faults
            else (
              match t.codec.c_decode body with
              | Error _ -> Faults.reject t.faults
              | Ok v when Faults.admit t.faults v -> (
                  Stats.record_latency t.stats category
                    ~ms:(Float.max 0. (wall_ms () -. stamp));
                  match Hashtbl.find_opt t.endpoints c.cn_local with
                  | None -> Faults.drop t.faults
                  | Some ep -> ep.ep_handler ~src:peer v)
              | Ok _ -> ()))
    | _ -> Faults.reject t.faults
  with R.Underflow _ -> Faults.reject t.faults

let read_chunk = Bytes.create 65536

let service_read t c =
  match Unix.read c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 -> kill_conn t c
  | n ->
      Framing.Decoder.feed c.cn_dec ~len:n (Bytes.unsafe_to_string read_chunk);
      let rec drain () =
        if c.cn_alive then
          match Framing.Decoder.pop c.cn_dec with
          | Ok (Some frame) ->
              dispatch t c
                (String.length frame + Framing.frame_overhead (String.length frame))
                frame;
              drain ()
          | Ok None -> ()
          | Error _ ->
              (* Unframeable garbage: the stream is unrecoverable. *)
              Faults.reject t.faults;
              kill_conn t c
      in
      drain ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> kill_conn t c

let service_accept t ep =
  let rec go () =
    match Unix.accept ep.ep_listen with
    | fd, _ ->
        Unix.set_nonblock fd;
        set_nodelay t fd;
        let c =
          {
            fd;
            cn_local = ep.ep_addr;
            cn_peer = None;
            cn_dec = Framing.Decoder.create ();
            cn_out = Queue.create ();
            cn_off = 0;
            cn_alive = true;
          }
        in
        t.conns <- c :: t.conns;
        t.sel_stale <- true;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* ---- the poll loop ---------------------------------------------------- *)

let has_buffered_out t =
  List.exists (fun c -> c.cn_alive && not (Queue.is_empty c.cn_out)) t.conns

let rebuild_select t =
  t.sel_stale <- false;
  t.sel_eps <-
    Array.of_list (Hashtbl.fold (fun _ ep acc -> ep :: acc) t.endpoints []);
  t.sel_conns <- Array.of_list t.conns;
  t.sel_fds <-
    Array.fold_right
      (fun ep fds -> ep.ep_listen :: fds)
      t.sel_eps
      (List.map (fun c -> c.fd) t.conns)

(* The descriptors of the connections with output queued: usually
   none, and then nothing is allocated. *)
let rec queued_writes conns i acc =
  if i < 0 then acc
  else
    let c = conns.(i) in
    queued_writes conns (i - 1)
      (if c.cn_alive && not (Queue.is_empty c.cn_out) then c.fd :: acc
       else acc)

let poll t ~timeout_ms =
  if t.closed then false
  else begin
    if t.sel_stale then rebuild_select t;
    (* Servicing can add or kill connections: this poll walks the set it
       selected on, the next one rebuilds it. *)
    let eps = t.sel_eps and conns = t.sel_conns in
    let wrs = queued_writes conns (Array.length conns - 1) [] in
    let timeout =
      let t_io = Float.max 0. timeout_ms in
      match Clock.next_due_ms t.clock with
      | Some due -> Float.min t_io due /. 1000.
      | None -> t_io /. 1000.
    in
    let r, w, _ =
      try Unix.select t.sel_fds wrs [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if r <> [] then begin
      for i = 0 to Array.length eps - 1 do
        if List.memq eps.(i).ep_listen r then service_accept t eps.(i)
      done;
      for i = 0 to Array.length conns - 1 do
        let c = conns.(i) in
        if c.cn_alive && List.memq c.fd r then service_read t c
      done
    end;
    if w <> [] then
      for i = 0 to Array.length conns - 1 do
        let c = conns.(i) in
        if c.cn_alive && List.memq c.fd w then flush_conn t c
      done;
    let fired = Clock.tick t.clock in
    r <> [] || w <> [] || fired > 0
  end

(* Run "to quiescence": until a few consecutive polls see no I/O, no
   fired timer, nothing buffered and no timer due soon. A stream fabric
   has no global done-signal the way the sim's empty event queue is, so
   this is a heuristic — protocol drivers should prefer [drive_until]
   with a real predicate. *)
let run t =
  let deadline = Clock.now_ms t.clock +. 30_000. in
  let rec go idle =
    if idle >= 3 || Clock.now_ms t.clock > deadline then ()
    else
      let active = poll t ~timeout_ms:20. in
      let due_soon =
        match Clock.next_due_ms t.clock with Some d -> d <= 100. | None -> false
      in
      if active || has_buffered_out t || due_soon then go 0 else go (idle + 1)
  in
  go 0

let drive_until t ?deadline_ms pred =
  let deadline =
    match deadline_ms with
    | Some d -> d
    | None -> Clock.now_ms t.clock +. 30_000.
  in
  let rec go () =
    if pred () then true
    else if Clock.now_ms t.clock >= deadline then pred ()
    else begin
      let budget = Float.min 20. (deadline -. Clock.now_ms t.clock) in
      ignore (poll t ~timeout_ms:budget);
      go ()
    end
  in
  go ()

(* ---- accounting, teardown --------------------------------------------- *)

let clock t = t.clock
let stats t = t.stats
let faults t = t.faults
let lost t = t.lost
let reconnects t = t.reconnects
let received_bytes t c = t.rx_bytes.(Stats.index c)
let total_received_bytes t = Array.fold_left ( + ) 0 t.rx_bytes

let close t =
  if not t.closed then begin
    (* Give buffered output one last chance to leave. *)
    List.iter (fun c -> flush_conn t c) t.conns;
    List.iter (fun c -> kill_conn t c) t.conns;
    Hashtbl.iter
      (fun addr ep ->
        (try Unix.close ep.ep_listen with Unix.Unix_error _ -> ());
        if t.family = Unix_socket then
          try Unix.unlink (unix_path t addr) with Unix.Unix_error _ -> ())
      t.endpoints;
    Hashtbl.reset t.endpoints;
    t.closed <- true
  end
