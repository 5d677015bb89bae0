(* Boundary spans for the traced run, recorded from outside the program:
   the harness wraps its own calls into each layer. Every span has a
   name, start and end (monotonic ns), the span that was open when it
   started, and the op it served. Spans are kept in memory and written
   out when the run ends; storage is capped, but every span, stored or
   not, feeds the per-name totals of time and minor words allocated. *)

type totals = {
  mutable count : int;
  mutable total_ns : int;
  mutable words : float;
}

type frame = {
  f_name : string;
  f_idx : int;  (* stored index, -1 when over the cap *)
  f_op : int;
  f_start : int;
  f_words : float;
}

(* Spans stored per run; later ones only feed the totals. *)
let cap = 20_000

type t = {
  names : string array;
  starts : int array;
  ends : int array;
  parents : int array;
  ops : int array;
  mutable stored : int;
  mutable dropped : int;
  mutable stack : frame list;
  by_name : (string, totals) Hashtbl.t;
}

let create () =
  {
    names = Array.make cap "";
    starts = Array.make cap 0;
    ends = Array.make cap 0;
    parents = Array.make cap (-1);
    ops = Array.make cap (-1);
    stored = 0;
    dropped = 0;
    stack = [];
    by_name = Hashtbl.create 16;
  }

(* A span without an op of its own belongs to the op of the span it
   opened in (or to none, -1). *)
let enter t name ?op () =
  let parent, op =
    match t.stack with
    | f :: _ -> (f.f_idx, Option.value op ~default:f.f_op)
    | [] -> (-1, Option.value op ~default:(-1))
  in
  let idx =
    if t.stored < cap then begin
      let i = t.stored in
      t.stored <- i + 1;
      t.names.(i) <- name;
      t.parents.(i) <- parent;
      t.ops.(i) <- op;
      i
    end
    else begin
      t.dropped <- t.dropped + 1;
      -1
    end
  in
  let f_words = Gc.minor_words () in
  let f_start = Mono.now_ns () in
  let f = { f_name = name; f_idx = idx; f_op = op; f_start; f_words } in
  if idx >= 0 then t.starts.(idx) <- f.f_start;
  t.stack <- f :: t.stack

let leave t =
  let stop = Mono.now_ns () in
  match t.stack with
  | [] -> invalid_arg "Trace.leave: no open span"
  | f :: rest ->
      t.stack <- rest;
      if f.f_idx >= 0 then t.ends.(f.f_idx) <- stop;
      let dur = stop - f.f_start in
      let tot =
        match Hashtbl.find_opt t.by_name f.f_name with
        | Some x -> x
        | None ->
            let x = { count = 0; total_ns = 0; words = 0. } in
            Hashtbl.add t.by_name f.f_name x;
            x
      in
      tot.count <- tot.count + 1;
      tot.total_ns <- tot.total_ns + dur;
      tot.words <- tot.words +. (Gc.minor_words () -. f.f_words)

let span t name ?op f =
  enter t name ?op ();
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

(* The untraced path is a direct call. [op] is not optional here: an
   optional argument would box it on every untraced call too; -1 is no
   op. *)
let span_opt tr name ~op f =
  match tr with None -> f () | Some t -> span t name ~op f

let totals t name =
  match Hashtbl.find_opt t.by_name name with
  | Some x -> x
  | None -> { count = 0; total_ns = 0; words = 0. }

let to_json t ~workload =
  let spans =
    List.init t.stored (fun i ->
        Json.Obj
          [
            ("name", Json.Str t.names.(i));
            ("start_ns", Json.Num (float_of_int t.starts.(i)));
            ("end_ns", Json.Num (float_of_int t.ends.(i)));
            ("parent", Json.Num (float_of_int t.parents.(i)));
            ("op", Json.Num (float_of_int t.ops.(i)));
          ])
  in
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("dropped", Json.Num (float_of_int t.dropped));
      ("spans", Json.Arr spans);
    ]
