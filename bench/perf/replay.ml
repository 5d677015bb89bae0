(* Stage replay for the traced run. The messages a receiver got during
   the run go back, one stage at a time, through each layer's public
   function, against state shaped like the receiver's: a registry with
   the interest and the code it had loaded, a description table, a
   checker, a proxy context and a handle table. Each stage accumulates
   its calls, nanoseconds and minor words, which the waterfall divides
   per op and sets against the untraced per-op wall time.

   The replay times stages in isolation; it does not re-run the
   protocol. Cold conformance is a check against a freshly cleared
   verdict cache; cached conformance a check that hits. *)

open Pti_cts
module H = Harness
module Message = Pti_core.Message
module Message_wire = Pti_core.Message_wire
module Repository = Pti_core.Repository
module Env = Pti_serial.Envelope
module Bf = Pti_serial.Batch_frame
module Ht = Pti_serial.Handle_table
module Assembly_xml = Pti_serial.Assembly_xml
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Mapping = Pti_conformance.Mapping
module Proxy = Pti_proxy.Dynamic_proxy

type stages = {
  frame : H.stage;
  batch : H.stage;
  env_decode : H.stage;
  tdesc_encode : H.stage;
  tdesc_decode : H.stage;
  check_cold : H.stage;
  check_cached : H.stage;
  asm_encode : H.stage;
  asm_decode : H.stage;
  load : H.stage;
  payload : H.stage;
  of_class : H.stage;
  wrap : H.stage;
  invoke : H.stage;
  direct : H.stage;
  env_encode : H.stage;
}

let stages () =
  {
    frame = H.stage "transport.frame_decode";
    batch = H.stage "serial.batch_decode";
    env_decode = H.stage "serial.envelope_decode";
    tdesc_encode = H.stage "typedesc.encode (sender)";
    tdesc_decode = H.stage "typedesc.decode";
    check_cold = H.stage "conformance.check_cold";
    check_cached = H.stage "conformance.check_cached";
    asm_encode = H.stage "serial.assembly_encode (sender)";
    asm_decode = H.stage "serial.assembly_decode";
    load = H.stage "cts.load";
    payload = H.stage "serial.payload_decode";
    of_class = H.stage "typedesc.of_class";
    wrap = H.stage "proxy.wrap";
    invoke = H.stage "proxy.invoke";
    direct = H.stage "cts.direct_call";
    env_encode = H.stage "serial.envelope_encode";
  }

(* Per-layer metrics read off the stages (per call of the stage). *)
let layer s =
  let us = H.us_per_call and w = H.words_per_call in
  [
    ("serial.batch_decode_us", us s.batch);
    ("serial.batch_decode_words", w s.batch);
    ("serial.envelope_decode_us", us s.env_decode);
    ("serial.envelope_decode_words", w s.env_decode);
    ("serial.envelope_encode_us", us s.env_encode);
    ("serial.envelope_encode_words", w s.env_encode);
    ("serial.payload_decode_us", us s.payload);
    ("serial.payload_decode_words", w s.payload);
    ("serial.assembly_decode_us", us s.asm_decode);
    ("typedesc.decode_us", us s.tdesc_decode);
    ("typedesc.of_class_us", us s.of_class);
    ("typedesc.of_class_words", w s.of_class);
    ("conformance.check_cold_us", us s.check_cold);
    ("conformance.check_cold_words", w s.check_cold);
    ("conformance.check_cached_us", us s.check_cached);
    ("conformance.check_cached_words", w s.check_cached);
    ("cts.load_us", us s.load);
    ("cts.direct_call_us", us s.direct);
    ("proxy.wrap_us", us s.wrap);
    ("proxy.invoke_us", us s.invoke);
  ]

let lc = String.lowercase_ascii

(* Receiver-shaped state. *)
type receiver = {
  reg : Registry.t;
  tdescs : (string, Td.t) Hashtbl.t;  (* fetched descriptions, by lc name *)
  checker : Checker.t;
  px : Proxy.context;
  table : Ht.receiver;
  interest : string;
  seen_roots : (string, unit) Hashtbl.t;
  mutable tdesc_replies : int;
  mutable tdesc_bytes : int;
}

let note_tdesc_reply r = function
  | Message.Tdesc_reply { desc = Some d; _ } ->
      r.tdesc_replies <- r.tdesc_replies + 1;
      r.tdesc_bytes <- r.tdesc_bytes + String.length d
  | _ -> ()

let reply_bytes r =
  if r.tdesc_replies = 0 then 0.
  else float_of_int r.tdesc_bytes /. float_of_int r.tdesc_replies

let receiver ~interest ~code =
  let reg = Registry.create () in
  List.iter (Assembly.load reg) code;
  let tdescs = Hashtbl.create 64 in
  let resolver =
    Td.chain (Td.registry_resolver reg) (fun n -> Hashtbl.find_opt tdescs (lc n))
  in
  let checker = Checker.create ~resolver () in
  {
    reg;
    tdescs;
    checker;
    px = Proxy.create_context reg checker;
    table = Ht.create_receiver ~capacity:512;
    interest;
    seen_roots = Hashtbl.create 64;
    tdesc_replies = 0;
    tdesc_bytes = 0;
  }

(* Envelope parts of an object message, decoding batch frames. *)
let parts s (m : Message.t) =
  match m with
  | Message.Obj_msg { envelope; _ } -> [ envelope ]
  | Message.Obj_batch { frame } -> (
      match H.time_stage s.batch (fun () -> Bf.decode frame) with
      | Ok b -> List.map (fun (p : Bf.part) -> p.Bf.p_envelope) b.Bf.parts
      | Error _ -> [])
  | _ -> []

let decode_envelope s r env_s =
  match
    H.time_stage s.env_decode (fun () ->
        Env.of_string_h ~resolve:(Ht.resolve r.table) env_s)
  with
  | Ok (env, binds) ->
      List.iter (fun (h, e) -> Ht.install r.table h e) binds;
      Some env
  | Error _ -> None

(* The root description the way the peer's pipeline computes it: loaded
   code by GUID, else a fetched description; plus the interest's. *)
let descriptions s r (env : Env.t) =
  match env.Env.env_types with
  | [] -> None
  | root :: _ -> (
      let actual =
        H.time_stage s.of_class (fun () ->
            match Registry.find_by_guid r.reg root.Env.te_guid with
            | Some cd -> Some (Td.of_class cd)
            | None -> Hashtbl.find_opt r.tdescs (lc root.Env.te_name))
      in
      let interest =
        H.time_stage s.of_class (fun () ->
            Option.map Td.of_class (Registry.find r.reg r.interest))
      in
      match (actual, interest) with
      | Some a, Some i -> Some (root.Env.te_name, a, i)
      | _ -> None)

let check s r ~cold ~actual ~interest =
  if cold then begin
    Checker.clear_cache r.checker;
    H.time_stage s.check_cold (fun () -> Checker.check r.checker ~actual ~interest)
  end
  else H.time_stage s.check_cached (fun () -> Checker.check r.checker ~actual ~interest)

(* The delivery end of the pipeline for one object envelope: root and
   interest descriptions, the conformance check (cold on a root's first
   appearance), and for a conformant root the payload
   decode, the proxy wrap and the two reads the harness makes through
   the proxy, next to the same read called directly on the object.
   [cold_sample] additionally times a cold check on roots already seen
   (a counterfactual for workloads whose steady state never checks
   cold). *)
let deliver ?(cold_sample = false) s r (env : Env.t) =
  match descriptions s r env with
  | None -> ()
  | Some (root_name, actual, interest) -> (
      let key = lc root_name in
      let first = not (Hashtbl.mem r.seen_roots key) in
      if first then Hashtbl.add r.seen_roots key ();
      if cold_sample && not first then ignore (check s r ~cold:true ~actual ~interest);
      match check s r ~cold:first ~actual ~interest with
      | Checker.Not_conformant _ ->
          (* The peer checks again to word the rejection. *)
          ignore (check s r ~cold:false ~actual ~interest)
      | Checker.Conformant m -> (
          match H.time_stage s.payload (fun () -> Env.decode_payload r.reg env) with
          | Error _ -> ()
          | Ok value ->
              let px =
                H.time_stage s.wrap (fun () ->
                    Proxy.wrap r.px ~interest:r.interest ~mapping:m value)
              in
              let call v name =
                try ignore (Eval.call r.reg v name []) with Eval.Runtime_error _ -> ()
              in
              H.time_stage s.invoke (fun () -> call px "getAge");
              H.time_stage s.invoke (fun () -> call px "getName");
              let direct =
                match Mapping.find m ~name:"getAge" ~arity:0 with
                | Some mm -> mm.Mapping.mm_actual_name
                | None -> "getAge"
              in
              H.time_stage s.direct (fun () -> call value direct)))

(* Sender-side encoding of a decoded envelope's value, as [send_value]
   does it on a negotiated link: [Envelope.make] plus the handle form. *)
let encode_like_sender s r ~host (sender : Ht.sender) (env : Env.t) =
  match Env.decode_payload r.reg env with
  | Error _ -> ()
  | Ok value ->
      H.time_stage s.env_encode (fun () ->
          let e =
            Env.make r.reg ~codec:Env.Binary
              ~download_path:(fun ~assembly -> Repository.path_for ~host ~assembly)
              value
          in
          ignore
            (Env.to_string_h e ~form:(fun te ->
                 match Ht.obtain sender te with
                 | `Known h -> `Ref h
                 | `Fresh h -> `Bind h)))

(* Stream capture: decode each payload. Those from before the window
   are replayed untimed, only to prime the handle table the window's
   refs resolve against. Returns the in-window messages. *)
let decode_frames s r captured =
  let untimed = stages () in
  List.filter_map
    (fun (payload, in_window) ->
      if in_window then
        match H.time_stage s.frame (fun () -> Message_wire.decode payload) with
        | Ok m -> Some m
        | Error _ -> None
      else begin
        (match Message_wire.decode payload with
        | Ok m ->
            note_tdesc_reply r m;
            List.iter (fun e -> ignore (decode_envelope untimed r e)) (parts untimed m)
        | Error _ -> ());
        None
      end)
    captured
