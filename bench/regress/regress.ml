(* The count-regression gate behind `dune build @bench-regress`.

     regress.exe --perf PERF_EXE --baseline FILE [--update]

   Runs every benchmark workload once, untraced, at a small fixed size
   (--seed 42 --seconds 0.3), and reads wire_bytes_per_op and
   minor_words_per_op from the JSON summary on the last line of its
   stdout. Both count the program's own work and repeat exactly from run
   to run, so they can gate a build; no wall-clock metric is read. A
   workload fails when either count exceeds its value in FILE by more
   than the metric's end-to-end bound in the benchmark catalogue, or
   when the run is incorrect. The loopback-TCP workloads are skipped,
   with a message, where the host has no TCP.

   --update measures every workload and writes the counts to FILE
   instead of checking them. Exit status: 0 pass, 1 a workload failed,
   2 a usage error or an unreadable baseline. *)

module Json = Pti_perf.Json
module Catalogue = Pti_perf.Catalogue

let seed = "42"
let seconds = "0.3"
let gated = [ "wire_bytes_per_op"; "minor_words_per_op" ]

let workloads =
  Pti_perf.[ Hot_tcp.name; Cold_churn.name; Population.name; Rpc_tcp.name ]

let tcp_workloads = Pti_perf.[ Hot_tcp.name; Rpc_tcp.name ]

let usage () =
  prerr_endline "usage: regress.exe --perf PERF_EXE --baseline FILE [--update]";
  exit 2

let bound metric =
  match
    List.find_opt (fun (m : Catalogue.e2e) -> m.Catalogue.name = metric)
      Catalogue.end_to_end
  with
  | Some m -> m.Catalogue.bound
  | None -> failwith ("no end-to-end metric " ^ metric)

(* The number at [keys] under [j]. *)
let num j keys =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys
  |> Fun.flip Option.bind Json.to_num

(* One run of [workload]: its gated counts, or why it has none. perf.exe
   exits non-zero on any incorrect outcome. *)
let measure perf workload =
  let args =
    [| perf; "--workload"; workload; "--seed"; seed; "--seconds"; seconds;
       "--trace"; "0" |]
  in
  let ic = Unix.open_process_args_in perf args in
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match Json.of_string last with
      | Error e -> Error ("unreadable summary: " ^ e)
      | Ok j -> (
          let counts =
            List.map (fun m -> (m, num j [ "metrics"; m; "value" ])) gated
          in
          match List.find_opt (fun (_, v) -> v = None) counts with
          | Some (m, _) -> Error ("summary lacks " ^ m)
          | None -> Ok (List.map (fun (m, v) -> (m, Option.get v)) counts)))
  | Unix.WEXITED 0, [] -> Error "no output"
  | (Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n), _ ->
      Error (Printf.sprintf "perf.exe exited with status %d" n)

(* Every gated count of [workload] against [baseline]; true if all hold. *)
let check baseline workload counts =
  List.map
    (fun (metric, v) ->
      let b = bound metric in
      match num baseline [ workload; metric ] with
      | None ->
          Printf.printf "%-10s %-18s %10.2f  no baseline  FAIL\n" workload
            metric v;
          false
      | Some base ->
          let ok = v <= base *. (1. +. b) in
          Printf.printf "%-10s %-18s %10.2f  baseline %10.2f (%+.1f%%, bound +%.0f%%)  %s\n"
            workload metric v base
            (100. *. (v -. base) /. base)
            (100. *. b)
            (if ok then "ok" else "FAIL");
          ok)
    counts
  |> List.for_all Fun.id

let () =
  let perf = ref None and baseline = ref None and update = ref false in
  let rec parse = function
    | [] -> ()
    | "--perf" :: p :: r ->
        perf := Some p;
        parse r
    | "--baseline" :: f :: r ->
        baseline := Some f;
        parse r
    | "--update" :: r ->
        update := true;
        parse r
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let perf, file =
    match (!perf, !baseline) with
    | Some p, Some f -> (p, f)
    | _ -> usage ()
  in
  let tcp = Pti_perf.Harness.tcp_available () in
  if !update then begin
    if not tcp then begin
      prerr_endline "regress: no loopback TCP here; cannot measure every workload";
      exit 2
    end;
    let entry w =
      match measure perf w with
      | Ok counts -> (w, Json.Obj (List.map (fun (m, v) -> (m, Json.Num v)) counts))
      | Error e ->
          Printf.eprintf "regress: %s: %s\n" w e;
          exit 1
    in
    Json.write_file file (Json.Obj (List.map entry workloads));
    Printf.printf "regress: wrote %s\n" file
  end
  else begin
    let baseline =
      match Json.read_file file with
      | Ok j -> j
      | Error e ->
          Printf.eprintf "regress: %s: %s\n" file e;
          exit 2
    in
    let results =
      List.map
        (fun w ->
          if (not tcp) && List.mem w tcp_workloads then begin
            Printf.printf "%-10s skipped (no loopback TCP here)\n" w;
            true
          end
          else
            match measure perf w with
            | Ok counts -> check baseline w counts
            | Error e ->
                Printf.printf "%-10s FAIL: %s\n" w e;
                false)
        workloads
    in
    if not (List.for_all Fun.id results) then exit 1
  end
