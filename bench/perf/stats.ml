(* Order statistics behind every reported number.

   - Op latencies use the nearest-rank percentile. A failed op is
     recorded as +infinity, so it misses every latency limit instead of
     silently vanishing from the sample.
   - A metric's value for one run is the median over its repetitions;
     the spread is the interquartile distance over the median, with
     quartiles by the "exclusive" method (Python's
     [statistics.quantiles(values, n=4)]), so the spreads printed here
     are the ones an external check of the same values computes. *)

let failed = infinity

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* The ceil(p*n)-th smallest sample, rank clamped to [1, n]: p = 0 is the
   minimum, p = 1 the maximum, on any sample size. *)
let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 1 (min n rank) - 1)

let percentile a p = percentile_sorted (sorted a) p

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let quartiles a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, nan)
  else if n = 1 then (s.(0), s.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread a =
  let q1, q3 = quartiles a in
  let m = median a in
  if m = 0. then if q3 -. q1 = 0. then 0. else infinity
  else (q3 -. q1) /. Float.abs m

(* Open loop: op [i] is due at [start + i * period] whether or not the
   generator kept up. Latency is measured from the due instant, so a
   stall is charged to every op queued behind it; how late the generator
   itself sent the op is reported separately. *)
let due_ns ~start_ns ~period_ns i = start_ns + (i * period_ns)
let lateness_ns ~due_ns ~sent_ns = max 0 (sent_ns - due_ns)

(* Latency of an op in ms from its due instant; [None] (never completed)
   is a failure. *)
let latency_ms ~due_ns = function
  | Some done_ns -> Mono.ms_of_ns (done_ns - due_ns)
  | None -> failed

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type verdict = Ok_ | Worse | Unresolved

let verdict_name = function
  | Ok_ -> "ok"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Compare one metric's per-run values between a base and a candidate.
   The allowed worsening is [bound] of the base median, but never less
   than the absolute [floor] (tiny set-up times). A side whose own spread
   is wider than the bound cannot resolve a difference that small. *)
let verdict ~better ~bound ~floor ~base ~cand =
  if spread base > bound || spread cand > bound then Unresolved
  else
    let mb = median base and mc = median cand in
    let allowed = Float.max (bound *. Float.abs mb) floor in
    let worse_by = match better with Lower -> mc -. mb | Higher -> mb -. mc in
    if worse_by > allowed then Worse else Ok_
