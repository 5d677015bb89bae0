(* Unit tests for the benchmark's own arithmetic and bookkeeping: the
   numbers it reports are only as good as these. *)

open Pti_perf

let feq = Alcotest.float 1e-9

let test_percentiles () =
  let one = [| 7. |] in
  List.iter
    (fun p -> Alcotest.check feq "1 sample" 7. (Stats.percentile one p))
    [ 0.; 0.5; 0.9; 1. ];
  let two = [| 2.; 1. |] in
  Alcotest.check feq "2 samples p0" 1. (Stats.percentile two 0.);
  Alcotest.check feq "2 samples p50" 1. (Stats.percentile two 0.5);
  Alcotest.check feq "2 samples p51" 2. (Stats.percentile two 0.51);
  Alcotest.check feq "2 samples p100" 2. (Stats.percentile two 1.);
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check feq "100 p0.1" 1. (Stats.percentile hundred 0.001);
  Alcotest.check feq "100 p50" 50. (Stats.percentile hundred 0.5);
  Alcotest.check feq "100 p90" 90. (Stats.percentile hundred 0.9);
  Alcotest.check feq "100 p99" 99. (Stats.percentile hundred 0.99);
  Alcotest.check feq "100 p100" 100. (Stats.percentile hundred 1.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 0.5))

let test_failures_infinite () =
  let lat = [| 1.; 2.; Stats.latency_ms ~due_ns:0 None |] in
  Alcotest.check feq "failure is +inf" infinity lat.(2);
  Alcotest.check feq "p50 unaffected" 2. (Stats.percentile lat 0.5);
  Alcotest.check feq "p90 is the failure" infinity (Stats.percentile lat 0.9);
  Alcotest.(check bool) "spread of failures is not finite" false
    (Float.is_finite (Stats.spread [| 1.; infinity; infinity; infinity |]))

let test_open_loop () =
  let due i = Stats.due_ns ~start_ns:1_000 ~period_ns:125_000 i in
  Alcotest.(check int) "due of op 0" 1_000 (due 0);
  Alcotest.(check int) "due of op 8" 1_001_000 (due 8);
  let late ~sent = Stats.lateness_ns ~due_ns:(due 3) ~sent_ns:sent in
  Alcotest.(check int) "late sender" 25 (late ~sent:(due 3 + 25));
  Alcotest.(check int) "early sender is not late" 0 (late ~sent:(due 2));
  (* A stall is charged from the due instant, not from the late send. *)
  Alcotest.check feq "latency from due" 2.5
    (Stats.latency_ms ~due_ns:(due 0) (Some (due 0 + 2_500_000)))

let test_median_quartiles () =
  Alcotest.check feq "odd median" 3. (Stats.median [| 5.; 1.; 3.; 2.; 4. |]);
  Alcotest.check feq "even median" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  (* Reference values: Python's statistics.quantiles(xs, n=4). *)
  let q xs = Stats.quartiles xs in
  let pair = Alcotest.(pair (float 1e-9) (float 1e-9)) in
  Alcotest.check pair "1..5" (1.5, 4.5) (q [| 1.; 2.; 3.; 4.; 5. |]);
  let one_to_ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check pair "1..10" (2.75, 8.25) (q one_to_ten);
  Alcotest.check pair "two samples" (0.5, 3.5) (q [| 3.; 1. |]);
  Alcotest.check pair "three samples" (2., 9.) (q [| 2.; 9.; 4. |]);
  Alcotest.check pair "one sample" (4., 4.) (q [| 4. |]);
  Alcotest.check feq "spread" ((8.25 -. 2.75) /. 5.5) (Stats.spread one_to_ten)

let test_bounds () =
  let v ?(floor = 0.) better bound base cand =
    Stats.verdict_name (Stats.verdict ~better ~bound ~floor ~base ~cand)
  in
  let flat x = Array.make 5 x in
  let s = Alcotest.string in
  Alcotest.check s "within bound" "ok" (v Stats.Lower 0.1 (flat 10.) (flat 10.9));
  Alcotest.check s "over bound" "worse" (v Stats.Lower 0.1 (flat 10.) (flat 11.1));
  Alcotest.check s "better is ok" "ok" (v Stats.Lower 0.1 (flat 10.) (flat 5.));
  Alcotest.check s "throughput drop" "worse" (v Stats.Higher 0.1 (flat 100.) (flat 85.));
  Alcotest.check s "throughput noise" "ok" (v Stats.Higher 0.1 (flat 100.) (flat 95.));
  (* The absolute floor: 40 ms on a 10 ms set-up is +400% but under 50 ms. *)
  Alcotest.check s "under the floor" "ok"
    (v ~floor:0.05 Stats.Lower 0.2 (flat 0.01) (flat 0.05));
  Alcotest.check s "over the floor" "worse"
    (v ~floor:0.05 Stats.Lower 0.2 (flat 0.01) (flat 0.07));
  Alcotest.check s "noisy base" "unresolved"
    (v Stats.Lower 0.1 [| 1.; 5.; 10.; 20.; 40. |] (flat 10.));
  Alcotest.check s "noisy candidate" "unresolved"
    (v Stats.Higher 0.1 (flat 10.) [| 1.; 5.; 10.; 20.; 40. |])

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "quote \" backslash \\ newline \n tab \t ctl \001");
        ("n", Json.nums [ 0.1; 1. /. 3.; 1e-7; 123456.789; -3.; 4e20; 0. ]);
        ("b", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("o", Json.Obj [ ("empty", Json.Obj []); ("list", Json.Arr []) ]);
      ]
  in
  let parses s = Result.is_ok (Json.of_string s) in
  Alcotest.(check bool) "parse (print v) = v" true (Json.of_string (Json.to_string v) = Ok v);
  Alcotest.(check string) "shortest digits" "0.1" (Json.to_string (Json.Num 0.1));
  Alcotest.(check bool) "trailing comma rejected" false (parses "{\"a\":1,}");
  Alcotest.(check bool) "bad escape rejected" false (parses "\"\\uZZZZ\"");
  let r =
    {
      Harness.workload = "hot-tcp";
      seed = 7;
      attempted = 10;
      failed = 1;
      notes = [ "seq 3 delivered with age 4" ];
      samples =
        List.map
          (fun (m : Catalogue.e2e) -> (m.Catalogue.name, [ 1.5; 2.25; 0.1 ]))
          Catalogue.end_to_end;
      layer = [ ("core.rejected", 2.) ];
      text = [ "line" ];
    }
  in
  match Report.set_of_json (Report.set_to_json ~meta:[] [ r ]) with
  | Ok [ r' ] -> Alcotest.(check bool) "result file round trip" true (r = r')
  | _ -> Alcotest.fail "result file did not read back"

let test_planted_wrong_age () =
  let l = Ledger.create () in
  for seq = 0 to 3 do
    Ledger.sent l seq
  done;
  Alcotest.(check bool) "correct delivery" true (Ledger.delivered l ~name:"s0" ~age:0);
  Alcotest.(check bool) "planted wrong age" false (Ledger.delivered l ~name:"s1" ~age:2);
  Alcotest.(check bool) "duplicate" false (Ledger.delivered l ~name:"s0" ~age:0);
  Alcotest.(check bool) "never sent" false (Ledger.delivered l ~name:"s9" ~age:9);
  Alcotest.(check bool) "correct delivery" true (Ledger.delivered l ~name:"s2" ~age:2);
  Ledger.settle l;
  (* s1 (wrong age) and s3 (never delivered) never landed correctly;
     the duplicate and the unsent delivery are failures of their own. *)
  Alcotest.(check int) "failed" 4 (Ledger.failed l);
  Alcotest.(check bool) "run is incorrect" false (Ledger.ok l);
  let clean = Ledger.create () in
  Ledger.sent clean 0;
  ignore (Ledger.delivered clean ~name:"s0" ~age:0);
  Ledger.settle clean;
  Alcotest.(check bool) "clean run" true (Ledger.ok clean)

(* A traced run must report every per-layer name once; a missing one is
   an error, not a 0. *)
let test_layer_completeness () =
  let result layer =
    {
      Harness.workload = "w";
      seed = 1;
      attempted = 1;
      failed = 0;
      notes = [];
      samples = [];
      layer;
      text = [];
    }
  in
  let full = List.map (fun (n, _, _) -> (n, 0.)) Catalogue.per_layer in
  let problems layer = Report.layer_problems (result layer) in
  let check = Alcotest.(check (list string)) in
  check "complete" [] (problems full);
  check "missing" [ "core.rejected is missing" ]
    (problems (List.remove_assoc "core.rejected" full));
  check "twice" [ "core.rejected reported 2 times" ] (problems (("core.rejected", 1.) :: full));
  check "outside" [ "core.x is not in the catalogue" ] (problems (full @ [ ("core.x", 1.) ]))

(* BENCHMARK.json at the repository root must describe exactly the
   catalogue the program reports. *)
let test_catalogue_matches_benchmark_json () =
  match Json.read_file "../../BENCHMARK.json" with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let field k o = Option.value ~default:Json.Null (Json.member k o) in
      let str k o = Option.value ~default:"" (Json.to_str (field k o)) in
      let bound o = Option.value ~default:nan (Json.to_num (field "bound" o)) in
      let e2e =
        List.map
          (fun o -> ((str "name" o, str "unit" o), (str "better" o, bound o)))
          (Json.to_list (field "end_to_end" j))
      in
      let expect =
        List.map
          (fun (m : Catalogue.e2e) ->
            ( (m.Catalogue.name, m.Catalogue.unit_),
              (Stats.better_name m.Catalogue.better, m.Catalogue.bound) ))
          Catalogue.end_to_end
      in
      Alcotest.(check (list (pair (pair string string) (pair string (float 1e-12)))))
        "end_to_end" expect e2e;
      let layer =
        List.map
          (fun o -> (str "name" o, str "unit" o, str "better" o))
          (Json.to_list (field "per_layer" j))
      in
      Alcotest.(check (list (triple string string string)))
        "per_layer"
        (List.map (fun (n, u, b) -> (n, u, Stats.better_name b)) Catalogue.per_layer)
        layer

let () =
  Alcotest.run "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "failures count as +inf" `Quick test_failures_infinite;
          Alcotest.test_case "open-loop lateness" `Quick test_open_loop;
          Alcotest.test_case "median and quartiles" `Quick test_median_quartiles;
          Alcotest.test_case "bound check with floors" `Quick test_bounds;
        ] );
      ( "io",
        [
          Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "every per-layer name reported" `Quick test_layer_completeness;
          Alcotest.test_case "catalogue = BENCHMARK.json" `Quick
            test_catalogue_matches_benchmark_json;
        ] );
      ( "correctness",
        [ Alcotest.test_case "planted wrong age fails" `Quick test_planted_wrong_age ] );
    ]
