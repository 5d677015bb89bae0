(* The repository benchmark. See README.md in this directory.

     perf.exe --workload W --seed N --seconds S --trace 0|1
         one workload in this process; the last line of stdout is a JSON
         summary {correct, attempted, failed, metrics}
     perf.exe --seed N --json OUT.json [--trace] [--seconds S]
         every workload, each in its own process; writes OUT.json
     perf.exe --smoke
         every workload at 1/50 scale, untraced and traced; fails unless
         every catalogue metric is present and finite and nothing failed
     perf.exe --compare A.json B.json
         per (workload, end-to-end metric) medians, quartiles, delta and
         verdict (ok / worse / unresolved)

   Exit status 1 on any incorrect outcome, a traced run that lacks a
   catalogue metric, or a comparison that is not ok; 2 on a usage
   error. *)

module H = Pti_perf.Harness
module Report = Pti_perf.Report
module Json = Pti_perf.Json

let workloads =
  [
    (Pti_perf.Hot_tcp.name, Pti_perf.Hot_tcp.run);
    (Pti_perf.Cold_churn.name, Pti_perf.Cold_churn.run);
    (Pti_perf.Population.name, Pti_perf.Population.run);
    (Pti_perf.Rpc_tcp.name, Pti_perf.Rpc_tcp.run);
  ]

let stream_workloads = [ Pti_perf.Hot_tcp.name; Pti_perf.Rpc_tcp.name ]

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable json : string option;
  mutable smoke : bool;
  mutable compare : (string * string) option;
  mutable report : string option;
  mutable out : string;
}

let usage () =
  prerr_endline
    "usage: perf.exe [--workload W] [--seed N] [--seconds S] [--trace [0|1]]\n\
    \                [--json OUT] [--out DIR] [--smoke] [--compare A.json B.json]";
  exit 2

let parse argv =
  let o =
    {
      workload = None;
      seed = 42;
      seconds = 15.;
      trace = false;
      json = None;
      smoke = false;
      compare = None;
      report = None;
      out = Filename.concat "bench" (Filename.concat "perf" "out");
    }
  in
  let num f s = match f s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: r ->
        o.workload <- Some w;
        go r
    | "--seed" :: n :: r ->
        o.seed <- num int_of_string_opt n;
        go r
    | "--seconds" :: s :: r ->
        o.seconds <- num float_of_string_opt s;
        go r
    | "--trace" :: (("0" | "1") as v) :: r ->
        o.trace <- v = "1";
        go r
    | "--trace" :: r ->
        o.trace <- true;
        go r
    | "--json" :: f :: r ->
        o.json <- Some f;
        go r
    | "--smoke" :: r ->
        o.smoke <- true;
        go r
    | "--compare" :: a :: b :: r ->
        o.compare <- Some (a, b);
        go r
    | "--report" :: f :: r ->
        o.report <- Some f;
        go r
    | "--out" :: d :: r ->
        o.out <- d;
        go r
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if o.seconds <= 0. then usage ();
  o

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let config o = { H.seed = o.seed; seconds = o.seconds; trace = o.trace; out_dir = o.out }

let run_single o name =
  match List.assoc_opt name workloads with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some run ->
      if o.trace then mkdir_p o.out;
      let r = run (config o) in
      let problems = if o.trace then Report.layer_problems r else [] in
      if problems <> [] then begin
        List.iter (Printf.eprintf "%s: %s\n" name) problems;
        exit 1
      end;
      Report.print_result ~trace:o.trace r;
      Option.iter (fun f -> Json.write_file f (Report.result_to_json r)) o.report;
      print_endline (Report.summary_line ~trace:o.trace r);
      exit (if r.H.failed = 0 then 0 else 1)

(* One child process per workload; each writes its full result to a
   report file the parent reads back. [quiet] drops the child's report
   text (the smoke pass prints only problems). *)
let run_child ?(quiet = false) o name ~trace =
  mkdir_p o.out;
  let report =
    Filename.concat o.out
      (Printf.sprintf "result-%s%s.json" name (if trace then "-trace" else ""))
  in
  let args =
    [
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0");
      "--out"; o.out; "--report"; report;
    ]
  in
  flush stdout;
  let out =
    if quiet then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stdout
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin out Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  if quiet then Unix.close out;
  match (status, Json.read_file report) with
  | _, Ok j -> (
      Sys.remove report;
      match Report.result_of_json j with
      | Ok r -> Ok r
      | Error e -> Error (Printf.sprintf "%s: bad report: %s" name e))
  | Unix.WEXITED c, Error e ->
      Error (Printf.sprintf "%s: exit %d, no report (%s)" name c e)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ ->
      Error (Printf.sprintf "%s: killed by signal %d" name s)

let meta o =
  [
    ("seed", Json.Num (float_of_int o.seed));
    ("seconds", Json.Num o.seconds);
    ("trace", Json.Bool o.trace);
    ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", Json.Str Sys.ocaml_version);
  ]

let run_set o =
  let results =
    List.map
      (fun (name, _) ->
        match run_child o name ~trace:o.trace with
        | Ok r -> r
        | Error e ->
            Printf.eprintf "%s\n" e;
            exit 1)
      workloads
  in
  print_endline "\n== summary";
  List.iter (Report.print_result ~trace:false) results;
  Option.iter
    (fun f -> Json.write_file f (Report.set_to_json ~meta:(meta o) results))
    o.json;
  exit (if List.for_all (fun r -> r.H.failed = 0) results then 0 else 1)

(* 1/50 of the default measured time; both the untraced and the traced
   run of every workload must produce every catalogue metric, finite,
   with no failed op. A traced child that lacks a per-layer name exits 1
   without a report (see [run_single]), which fails the smoke here. *)
let run_smoke o =
  let o = { o with seconds = 0.3 } in
  let tcp = H.tcp_available () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (name, _) ->
      if (not tcp) && List.mem name stream_workloads then
        Printf.printf "smoke: %s skipped (no loopback TCP here)\n" name
      else
        List.iter
          (fun trace ->
            match run_child ~quiet:true o name ~trace with
            | Error e -> problem "%s" e
            | Ok r ->
                if r.H.failed <> 0 then problem "%s: %d failed ops" name r.H.failed;
                List.iter
                  (fun (metric, _, v) ->
                    if not (Float.is_finite v) then problem "%s: %s = %f" name metric v)
                  (Report.metrics ~trace r))
          [ false; true ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter (Printf.printf "smoke: %s\n") ps;
      exit 1

let run_compare (a, b) =
  let load f =
    match Json.read_file f with
    | Error e ->
        Printf.eprintf "%s: %s\n" f e;
        exit 2
    | Ok j -> (
        match Report.set_of_json j with
        | Ok rs -> rs
        | Error e ->
            Printf.eprintf "%s: %s\n" f e;
            exit 2)
  in
  exit (if Report.compare ~base:(load a) ~cand:(load b) then 0 else 1)

let () =
  let o = parse Sys.argv in
  match (o.compare, o.smoke, o.workload) with
  | Some files, _, _ -> run_compare files
  | None, true, _ -> run_smoke o
  | None, false, Some name -> run_single o name
  | None, false, None -> run_set o
