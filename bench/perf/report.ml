(* Results in and out: the one-line summary a run prints last, the full
   result file (every repetition, quartiles, per-layer metrics), reading
   result files back, and the side-by-side comparison of two of them. *)

module H = Harness

(* One end-to-end metric's per-repetition values, and the run's value. *)
let samples (r : H.result) name =
  Array.of_list (Option.value ~default:[] (List.assoc_opt name r.H.samples))

let value_of r name = Stats.median (samples r name)

(* What is wrong with a traced run's per-layer metrics: a catalogue name
   it did not report, one it reported twice, or one outside the
   catalogue. A workload writes an explicit 0 for a layer it does not
   use, so a missing name is a harness bug, never a quiet 0. *)
let layer_problems (r : H.result) =
  let times name = List.length (List.filter (fun (m, _) -> m = name) r.H.layer) in
  List.filter_map
    (fun (name, _, _) ->
      match times name with
      | 1 -> None
      | 0 -> Some (name ^ " is missing")
      | n -> Some (Printf.sprintf "%s reported %d times" name n))
    Catalogue.per_layer
  @ List.filter_map
      (fun (name, _) ->
        if List.exists (fun (m, _, _) -> m = name) Catalogue.per_layer then None
        else Some (name ^ " is not in the catalogue"))
      r.H.layer

(* Every catalogue metric of the run: end-to-end from the untraced
   repetitions, or per-layer from the traced run (NaN, printed as null,
   for a name the run lacks; [layer_problems] reports it). *)
let metrics ~trace (r : H.result) =
  if trace then
    List.map
      (fun (name, unit_, _) ->
        (name, unit_, Option.value ~default:nan (List.assoc_opt name r.H.layer)))
      Catalogue.per_layer
  else
    List.map
      (fun (m : Catalogue.e2e) ->
        (m.Catalogue.name, m.Catalogue.unit_, value_of r m.Catalogue.name))
      Catalogue.end_to_end

let summary_line ~trace (r : H.result) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.H.failed = 0));
         ("attempted", Json.Num (float_of_int r.H.attempted));
         ("failed", Json.Num (float_of_int r.H.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit_, v) ->
                  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
                (metrics ~trace r)) );
       ])

let result_to_json (r : H.result) =
  let e2e =
    List.map
      (fun (m : Catalogue.e2e) ->
        let a = samples r m.Catalogue.name in
        let q1, q3 = Stats.quartiles a in
        ( m.Catalogue.name,
          Json.Obj
            [
              ("unit", Json.Str m.Catalogue.unit_);
              ("median", Json.Num (Stats.median a));
              ("q1", Json.Num q1);
              ("q3", Json.Num q3);
              ("samples", Json.nums (Array.to_list a));
            ] ))
      Catalogue.end_to_end
  in
  Json.Obj
    [
      ("workload", Json.Str r.H.workload);
      ("seed", Json.Num (float_of_int r.H.seed));
      ("attempted", Json.Num (float_of_int r.H.attempted));
      ("failed", Json.Num (float_of_int r.H.failed));
      ("notes", Json.Arr (List.map (fun s -> Json.Str s) r.H.notes));
      ("metrics", Json.Obj e2e);
      ("layer", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.H.layer));
      ("text", Json.Arr (List.map (fun s -> Json.Str s) r.H.text));
    ]

let result_of_json j =
  let num k = Option.bind (Json.member k j) Json.to_num in
  let str k = Option.bind (Json.member k j) Json.to_str in
  let list k o = Json.to_list (Option.value ~default:Json.Null (Json.member k o)) in
  match (str "workload", num "seed", num "attempted", num "failed") with
  | Some workload, Some seed, Some attempted, Some failed ->
      let obj k = match Json.member k j with Some (Json.Obj l) -> l | _ -> [] in
      let samples =
        List.map
          (fun (k, v) ->
            (k, List.filter_map Json.to_num (list "samples" v)))
          (obj "metrics")
      in
      let strings k = List.filter_map Json.to_str (list k j) in
      Ok
        {
          H.workload;
          seed = int_of_float seed;
          attempted = int_of_float attempted;
          failed = int_of_float failed;
          notes = strings "notes";
          samples;
          layer =
            List.filter_map
              (fun (k, v) -> Option.map (fun x -> (k, x)) (Json.to_num v))
              (obj "layer");
          text = strings "text";
        }
  | _ -> Error "not a workload result"

(* A result file: metadata plus one result per workload. *)
let set_to_json ~meta results =
  Json.Obj
    [ ("meta", Json.Obj meta); ("workloads", Json.Arr (List.map result_to_json results)) ]

let set_of_json j =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match result_of_json x with Ok r -> collect (r :: acc) rest | Error _ as e -> e)
  in
  collect [] (Json.to_list (Option.value ~default:Json.Null (Json.member "workloads" j)))

let print_result ~trace (r : H.result) =
  Printf.printf "== %s (seed %d): %d ops attempted, %d failed\n" r.H.workload r.H.seed
    r.H.attempted r.H.failed;
  List.iter (fun n -> Printf.printf "  FAIL %s\n" n) r.H.notes;
  if trace then begin
    List.iter print_endline r.H.text;
    List.iter
      (fun (name, unit_, v) -> Printf.printf "  %-36s %14.4f %s\n" name v unit_)
      (metrics ~trace r)
  end
  else
    List.iter
      (fun (m : Catalogue.e2e) ->
        let a = samples r m.Catalogue.name in
        let q1, q3 = Stats.quartiles a in
        Printf.printf "  %-20s %14.4f %-6s (q1 %.4f, q3 %.4f, n=%d)\n" m.Catalogue.name
          (Stats.median a) m.Catalogue.unit_ q1 q3 (Array.length a))
      Catalogue.end_to_end

(* Per (workload, end-to-end metric): both medians and quartiles, the
   delta, and a verdict against the metric's bound. Returns whether
   every verdict was ok. *)
let compare ~base ~cand =
  Printf.printf "%-11s %-20s %12s %23s %12s %23s %8s  %s\n" "workload" "metric" "A median"
    "A q1..q3" "B median" "B q1..q3" "delta" "verdict";
  let all_ok = ref true in
  List.iter
    (fun (a : H.result) ->
      match List.find_opt (fun (b : H.result) -> b.H.workload = a.H.workload) cand with
      | None ->
          all_ok := false;
          Printf.printf "%-11s missing from B\n" a.H.workload
      | Some b ->
          List.iter
            (fun (m : Catalogue.e2e) ->
              let xa = samples a m.Catalogue.name and xb = samples b m.Catalogue.name in
              let ma = Stats.median xa and mb = Stats.median xb in
              let qa1, qa3 = Stats.quartiles xa and qb1, qb3 = Stats.quartiles xb in
              let v =
                Stats.verdict ~better:m.Catalogue.better ~bound:m.Catalogue.bound
                  ~floor:m.Catalogue.floor ~base:xa ~cand:xb
              in
              if v <> Stats.Ok_ then all_ok := false;
              Printf.printf
                "%-11s %-20s %12.4f %11.4f..%-11.4f %12.4f %11.4f..%-11.4f %+7.2f%%  %s\n"
                a.H.workload m.Catalogue.name ma qa1 qa3 mb qb1 qb3
                (100. *. (mb -. ma) /. Float.abs ma)
                (Stats.verdict_name v))
            Catalogue.end_to_end)
    base;
  !all_ok
