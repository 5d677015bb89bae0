type category =
  | Object_msg
  | Tdesc_request
  | Tdesc_reply
  | Asm_request
  | Asm_reply
  | Invoke_request
  | Invoke_reply
  | Gossip
  | Handle_ctl
  | Control

let all_categories =
  [
    Object_msg; Tdesc_request; Tdesc_reply; Asm_request; Asm_reply;
    Invoke_request; Invoke_reply; Gossip; Handle_ctl; Control;
  ]

let category_name = function
  | Object_msg -> "object"
  | Tdesc_request -> "tdesc-req"
  | Tdesc_reply -> "tdesc-reply"
  | Asm_request -> "asm-req"
  | Asm_reply -> "asm-reply"
  | Invoke_request -> "invoke-req"
  | Invoke_reply -> "invoke-reply"
  | Gossip -> "gossip"
  | Handle_ctl -> "handle-ctl"
  | Control -> "control"

let index = function
  | Object_msg -> 0
  | Tdesc_request -> 1
  | Tdesc_reply -> 2
  | Asm_request -> 3
  | Asm_reply -> 4
  | Invoke_request -> 5
  | Invoke_reply -> 6
  | Gossip -> 7
  | Handle_ctl -> 8
  | Control -> 9

let ncat = List.length all_categories

let of_index i =
  if i < 0 || i >= ncat then invalid_arg "Stats.of_index"
  else List.nth all_categories i

module Metrics = Pti_obs.Metrics

type t = {
  bytes : int array;
  messages : int array;
  hists : Metrics.histogram array option;  (* net.latency_ms.<category> *)
}

let create ?metrics () =
  let hists =
    Option.map
      (fun m ->
        Array.init ncat (fun i ->
            let c = List.nth all_categories i in
            Metrics.histogram m ("net.latency_ms." ^ category_name c)))
      metrics
  in
  let t = { bytes = Array.make ncat 0; messages = Array.make ncat 0; hists } in
  (match metrics with
  | None -> ()
  | Some m ->
      List.iter
        (fun c ->
          let i = index c in
          Metrics.gauge_fn m
            ("net.bytes." ^ category_name c)
            (fun () -> float_of_int t.bytes.(i));
          Metrics.gauge_fn m
            ("net.messages." ^ category_name c)
            (fun () -> float_of_int t.messages.(i)))
        all_categories;
      Metrics.gauge_fn m "net.bytes.total" (fun () ->
          float_of_int (Array.fold_left ( + ) 0 t.bytes));
      Metrics.gauge_fn m "net.messages.total" (fun () ->
          float_of_int (Array.fold_left ( + ) 0 t.messages)));
  t

let record t c ~bytes =
  let i = index c in
  t.bytes.(i) <- t.bytes.(i) + bytes;
  t.messages.(i) <- t.messages.(i) + 1

let bytes t c = t.bytes.(index c)
let messages t c = t.messages.(index c)
let total_bytes t = Array.fold_left ( + ) 0 t.bytes
let total_messages t = Array.fold_left ( + ) 0 t.messages

let reset t =
  Array.fill t.bytes 0 ncat 0;
  Array.fill t.messages 0 ncat 0

let record_latency t c ~ms =
  match t.hists with
  | Some hs -> Metrics.observe hs.(index c) ms
  | None -> ()

let pp ppf t =
  Format.fprintf ppf "@[<v>%-14s %10s %12s@," "category" "messages" "bytes";
  List.iter
    (fun c ->
      if messages t c > 0 then
        Format.fprintf ppf "%-14s %10d %12d@," (category_name c)
          (messages t c) (bytes t c))
    all_categories;
  Format.fprintf ppf "%-14s %10d %12d@]" "total" (total_messages t)
    (total_bytes t)
