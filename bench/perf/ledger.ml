(* Correctness bookkeeping for one workload process. Every op the
   harness attempts ends either as a correct outcome or as a failure; the
   failures are what the result's [failed] count (and the failed share)
   is computed from, so a run can never report a speed while quietly
   losing or mangling values.

   Sequence-numbered deliveries carry their number twice: in the name
   ("s<seq>") and in the age field. The receiver reads both back through
   the proxy it was handed; a delivery counts only if the name names a
   number that was sent and not yet delivered, and the age equals it. *)

type t = {
  mutable attempted : int;
  mutable correct : int;
  mutable failures : int;
  mutable notes : string list;  (* the first few failure reasons *)
  mutable state : Bytes.t;  (* per seq: 0 unsent, 1 in flight, 2 delivered *)
  mutable in_flight : int;
}

let max_notes = 8

let create () =
  {
    attempted = 0;
    correct = 0;
    failures = 0;
    notes = [];
    state = Bytes.make 1024 '\000';
    in_flight = 0;
  }

let fail t msg =
  t.failures <- t.failures + 1;
  if List.length t.notes < max_notes then t.notes <- msg :: t.notes

(* An op with no sequence number (a remote call, a rejection) whose
   outcome the caller has already judged. *)
let judge t ok msg =
  t.attempted <- t.attempted + 1;
  if ok then t.correct <- t.correct + 1 else fail t (msg ())

let state t seq = if seq < Bytes.length t.state then Bytes.get t.state seq else '\000'

let sent t seq =
  if seq >= Bytes.length t.state then begin
    let grown = Bytes.make (max (seq + 1) (2 * Bytes.length t.state)) '\000' in
    Bytes.blit t.state 0 grown 0 (Bytes.length t.state);
    t.state <- grown
  end;
  Bytes.set t.state seq '\001';
  t.attempted <- t.attempted + 1;
  t.in_flight <- t.in_flight + 1

let seq_of_name name =
  let n = String.length name in
  if n < 2 || name.[0] <> 's' then None
  else int_of_string_opt (String.sub name 1 (n - 1))

(* Returns whether the delivery was correct. *)
let delivered t ~name ~age =
  match seq_of_name name with
  | None ->
      fail t (Printf.sprintf "delivery with unexpected name %S" name);
      false
  | Some seq -> (
      match state t seq with
      | '\001' when age = seq ->
          Bytes.set t.state seq '\002';
          t.in_flight <- t.in_flight - 1;
          t.correct <- t.correct + 1;
          true
      | '\001' ->
          fail t (Printf.sprintf "seq %d delivered with age %d" seq age);
          false
      | '\002' ->
          fail t (Printf.sprintf "seq %d delivered twice" seq);
          false
      | _ ->
          fail t (Printf.sprintf "seq %d delivered but never sent" seq);
          false)

let in_flight t = t.in_flight
let is_delivered t seq = state t seq = '\002'

(* A batch of ops judged elsewhere (a whole simulated population). *)
let outcomes t ~attempted ~correct =
  t.attempted <- t.attempted + attempted;
  t.correct <- t.correct + min attempted correct

(* Close the books: anything still in flight was lost. *)
let settle t =
  if t.in_flight > 0 then begin
    fail t (Printf.sprintf "%d sent values never delivered" t.in_flight);
    t.in_flight <- 0
  end

(* Ops that never reached a correct outcome: explicit failures count
   once each, and so does every attempt left without an outcome. *)
let failed t = max t.failures (t.attempted - t.correct)
let ok t = failed t = 0
let notes t = List.rev t.notes
