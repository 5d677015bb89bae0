(* Unit and property tests for the pti_util substrate. *)

module Lev = Pti_util.Levenshtein
module Guid = Pti_util.Guid
module B64 = Pti_util.Base64
module Pq = Pti_util.Pqueue
module S = Pti_util.Strutil
module Sm = Pti_util.Splitmix
module Fnv = Pti_util.Fnv

(* Minor-heap words [f] allocates, after one warm-up call. *)
let minor_words_of f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* ------------------------------- levenshtein ---------------------- *)

let test_lev_basics () =
  Alcotest.(check int) "identical" 0 (Lev.distance "kitten" "kitten");
  Alcotest.(check int) "kitten/sitting" 3 (Lev.distance "kitten" "sitting");
  Alcotest.(check int) "empty left" 3 (Lev.distance "" "abc");
  Alcotest.(check int) "empty right" 3 (Lev.distance "abc" "");
  Alcotest.(check int) "case matters" 1 (Lev.distance "Person" "person");
  Alcotest.(check int) "ci" 0 (Lev.distance_ci "Person" "pERSON")

let test_lev_within () =
  Alcotest.(check bool) "exact within 0" true (Lev.within ~limit:0 "abc" "ABC");
  Alcotest.(check bool) "distance 1 not within 0" false
    (Lev.within ~limit:0 "abc" "abd");
  Alcotest.(check bool) "distance 1 within 1" true
    (Lev.within ~limit:1 "Person" "Persom");
  Alcotest.(check bool) "length gap prunes" false
    (Lev.within ~limit:2 "a" "aaaa");
  Alcotest.(check bool) "negative limit rejected" true
    (try
       ignore (Lev.within ~limit:(-1) "a" "b");
       false
     with Invalid_argument _ -> true)

let test_similarity () =
  Alcotest.(check (float 1e-9)) "equal" 1. (Lev.similarity "abc" "ABC");
  Alcotest.(check (float 1e-9)) "empty pair" 1. (Lev.similarity "" "");
  Alcotest.(check bool) "different lower" true (Lev.similarity "abc" "xyz" < 0.5)

let test_wildcards () =
  Alcotest.(check bool) "star" true (Lev.wildcard_match ~pattern:"Pers*" "Person");
  Alcotest.(check bool) "star empty" true (Lev.wildcard_match ~pattern:"Person*" "person");
  Alcotest.(check bool) "question" true (Lev.wildcard_match ~pattern:"Pers?n" "person");
  Alcotest.(check bool) "question strict" false
    (Lev.wildcard_match ~pattern:"Pers?n" "persoon");
  Alcotest.(check bool) "inner star" true
    (Lev.wildcard_match ~pattern:"get*name" "getPersonName");
  Alcotest.(check bool) "no match" false
    (Lev.wildcard_match ~pattern:"set*" "getName");
  Alcotest.(check bool) "all-star" true (Lev.wildcard_match ~pattern:"*" "")

let prop_lev_metric =
  QCheck.Test.make ~name:"levenshtein is a metric" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 12))
              (string_of_size (QCheck.Gen.int_bound 12)))
    (fun (a, b) ->
      let d = Lev.distance a b in
      d = Lev.distance b a
      && (d = 0) = (a = b)
      && d <= max (String.length a) (String.length b))

let prop_lev_triangle =
  QCheck.Test.make ~name:"levenshtein triangle inequality" ~count:200
    QCheck.(triple (string_of_size (QCheck.Gen.int_bound 8))
              (string_of_size (QCheck.Gen.int_bound 8))
              (string_of_size (QCheck.Gen.int_bound 8)))
    (fun (a, b, c) ->
      Lev.distance a c <= Lev.distance a b + Lev.distance b c)

let prop_within_agrees =
  QCheck.Test.make ~name:"within agrees with distance_ci" ~count:300
    QCheck.(triple (string_of_size (QCheck.Gen.int_bound 10))
              (string_of_size (QCheck.Gen.int_bound 10))
              (int_bound 4))
    (fun (a, b, limit) ->
      Lev.within ~limit a b = (Lev.distance_ci a b <= limit))

(* ------------------------------- guid ----------------------------- *)

let test_guid_roundtrip () =
  let rng = Sm.create 99L in
  for _ = 1 to 50 do
    let g = Guid.make rng in
    let s = Guid.to_string g in
    Alcotest.(check int) "canonical length" 36 (String.length s);
    match Guid.of_string s with
    | Some g' -> Alcotest.(check bool) "roundtrip" true (Guid.equal g g')
    | None -> Alcotest.fail "parse of rendered guid failed"
  done

let test_guid_of_name_deterministic () =
  let a = Guid.of_name "demo.Person" and b = Guid.of_name "demo.Person" in
  Alcotest.(check bool) "equal" true (Guid.equal a b);
  let c = Guid.of_name "demo.person" in
  Alcotest.(check bool) "case-sensitive input differs" false (Guid.equal a c)

let test_guid_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Guid.of_string s = None))
    [
      ""; "xyz"; "00000000000000000000000000000000";
      "0000000-00000-0000-0000-000000000000";
      "gggggggg-0000-0000-0000-000000000000";
    ]

let test_guid_nil () =
  Alcotest.(check string) "nil rendering"
    "00000000-0000-0000-0000-000000000000" (Guid.to_string Guid.nil)

(* The pin was rendered by an independent implementation, one
   [sprintf "%02x"] per byte. *)
let test_guid_rendering () =
  let g = Guid.of_name "demo.Person" in
  Alcotest.(check string) "pinned rendering"
    "67060154-9d9f-838d-dd11-d32c17f3c8a3" (Guid.to_string g);
  let words = minor_words_of (fun () -> Guid.to_string g) in
  Alcotest.(check bool)
    (Printf.sprintf "to_string allocates %.0f words (at most 16)" words)
    true (words <= 16.)

(* ------------------------------- fnv ------------------------------ *)

let test_fnv_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (Printf.sprintf "%S" input) expected
        (Fnv.hash_hex input))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8") ]

let test_fnv_chaining () =
  let a = "type-description:" and b = "demo.Person@v3" in
  Alcotest.(check int64) "init chains fragments" (Fnv.hash64 (a ^ b))
    (Fnv.hash64 ~init:(Fnv.hash64 a) b)

let test_fnv_allocation () =
  let s = String.init 4096 (fun i -> Char.chr (i * 7 land 0xff)) in
  let words = minor_words_of (fun () -> Fnv.hash64 s) in
  Alcotest.(check bool)
    (Printf.sprintf "hash64 of 4 KiB allocates %.0f words (< 16)" words)
    true (words < 16.)

(* ------------------------------- base64 --------------------------- *)

let test_base64_vectors () =
  (* RFC 4648 test vectors. *)
  List.iter
    (fun (plain, enc) ->
      Alcotest.(check string) ("encode " ^ plain) enc (B64.encode plain);
      Alcotest.(check string) ("decode " ^ enc) plain (B64.decode_exn enc))
    [
      ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v");
      ("foob", "Zm9vYg=="); ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy");
    ]

let test_base64_whitespace () =
  Alcotest.(check string) "wrapped input" "foobar"
    (B64.decode_exn "Zm9v\nYmFy")

let test_base64_malformed () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (B64.decode s = None))
    [ "Zg="; "Z"; "Zm9v!"; "====" ]

let prop_base64_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip" ~count:300
    QCheck.(string_of_size (QCheck.Gen.int_bound 64))
    (fun s -> B64.decode (B64.encode s) = Some s)

(* Roundtrip must survive whitespace injected at arbitrary positions in
   the encoded form (the decoder skips blanks, as wrapped MIME bodies
   require). *)
let prop_base64_whitespace_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip with embedded whitespace"
    ~count:300
    QCheck.(
      triple
        (string_of_size (QCheck.Gen.int_bound 48))
        (small_list (pair small_nat (oneofl [ ' '; '\n'; '\t'; '\r' ])))
        unit)
    (fun (s, blanks, ()) ->
      let enc = B64.encode s in
      let enc =
        List.fold_left
          (fun acc (pos, c) ->
            let pos = if String.length acc = 0 then 0
              else pos mod (String.length acc + 1) in
            String.sub acc 0 pos ^ String.make 1 c
            ^ String.sub acc pos (String.length acc - pos))
          enc blanks
      in
      B64.decode enc = Some s)

(* Inputs of length 0/1/2 mod 3 exercise every padding width (0, "==",
   "="); the encoded form must always be a multiple of four and decode
   back exactly. *)
let prop_base64_padding_lengths =
  QCheck.Test.make ~name:"base64 all padding lengths" ~count:300
    QCheck.(pair (int_bound 63) (string_of_size (QCheck.Gen.return 0)))
    (fun (n, _) ->
      List.for_all
        (fun len ->
          let s = String.init len (fun i -> Char.chr ((i * 7 + n) land 0xff)) in
          let enc = B64.encode s in
          String.length enc mod 4 = 0 && B64.decode enc = Some s)
        [ n; n + 1; n + 2 ])

(* Anything after the first '=' other than more padding (or blanks) must
   be rejected: "Zg==Zg==" style concatenations are not valid base64. *)
let prop_base64_reject_after_pad =
  QCheck.Test.make ~name:"base64 rejects data after padding" ~count:300
    QCheck.(pair (string_of_size QCheck.Gen.(1 -- 24)) (int_bound 63))
    (fun (s, n) ->
      QCheck.assume (String.length s mod 3 <> 0);
      let enc = B64.encode s in
      (* enc ends in at least one '='; graft a valid alphabet char on. *)
      let alphabet =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
      in
      let c = alphabet.[n mod 64] in
      B64.decode (enc ^ String.make 1 c) = None
      && B64.decode (enc ^ String.make 1 c ^ "===") = None)

(* ------------------------------- pqueue --------------------------- *)

let test_pqueue_orders () =
  let q = Pq.create ~cmp:compare () in
  List.iter (Pq.push q) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Pq.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_pqueue_empty () =
  let q = Pq.create ~cmp:compare () in
  Alcotest.(check bool) "is_empty" true (Pq.is_empty q);
  Alcotest.(check (option int)) "pop" None (Pq.pop q);
  Alcotest.(check (option int)) "peek" None (Pq.peek q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains sorted" ~count:200
    QCheck.(list int)
    (fun l ->
      let q = Pq.create ~cmp:compare () in
      List.iter (Pq.push q) l;
      let rec drain acc =
        match Pq.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare l)

(* Regression: the old implementation seeded empty slots with
   [Obj.magic 0], which is unsound for float elements under the
   flat-float-array representation (a forged immediate in a float array
   is a crash or a garbage read on access). Exercise floats through
   create/push/grow/pop/clear. *)
let test_pqueue_floats () =
  let q = Pq.create ~initial_capacity:1 ~cmp:compare () in
  List.iter (Pq.push q) [ 5.5; 1.25; -3.0; 9.75; 0.0; 2.5 ];
  Alcotest.(check (option (float 0.))) "peek min" (Some (-3.0)) (Pq.peek q);
  let rec drain acc =
    match Pq.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list (float 0.)))
    "floats drain sorted"
    [ -3.0; 0.0; 1.25; 2.5; 5.5; 9.75 ]
    (drain []);
  (* Reuse after full drain, then clear mid-fill, then fill again. *)
  List.iter (Pq.push q) [ 2.0; 1.0 ];
  Pq.clear q;
  Alcotest.(check bool) "empty after clear" true (Pq.is_empty q);
  List.iter (Pq.push q) [ 4.0; 3.0 ];
  Alcotest.(check (list (float 0.))) "post-clear drain" [ 3.0; 4.0 ] (drain [])

let prop_pqueue_sorts_floats =
  QCheck.Test.make ~name:"pqueue drains floats sorted" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun l ->
      let q = Pq.create ~initial_capacity:1 ~cmp:compare () in
      List.iter (Pq.push q) l;
      let rec drain acc =
        match Pq.pop q with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare l)

(* ------------------------------- strutil --------------------------- *)

let test_strutil () =
  Alcotest.(check bool) "starts_with" true (S.starts_with ~prefix:"asm" "asm://x");
  Alcotest.(check bool) "starts_with no" false (S.starts_with ~prefix:"x" "asm");
  Alcotest.(check (list string)) "split" [ "a"; "b"; "" ] (S.split_on '.' "a.b.");
  Alcotest.(check string) "join" "a.b" (S.join "." [ "a"; "b" ]);
  Alcotest.(check bool) "equal_ci" true (S.equal_ci "ABC" "abc");
  Alcotest.(check bool) "identifier" true (S.is_identifier "get_Name2");
  Alcotest.(check bool) "identifier no" false (S.is_identifier "2abc");
  Alcotest.(check bool) "identifier empty" false (S.is_identifier "");
  Alcotest.(check int) "common prefix" 3 (S.common_prefix_length "abcde" "abcx");
  Alcotest.(check string) "truncate short" "abc" (S.truncate_middle ~max:10 "abc");
  let t = S.truncate_middle ~max:9 "abcdefghijklmno" in
  Alcotest.(check int) "truncate length" 9 (String.length t);
  Alcotest.(check bool) "truncate ellipsis" true
    (String.length t >= 3 && String.sub t 3 3 = "...")

(* ------------------------------- splitmix --------------------------- *)

let test_splitmix_deterministic () =
  let a = Sm.create 7L and b = Sm.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "streams agree" (Sm.next64 a) (Sm.next64 b)
  done

let test_splitmix_ranges () =
  let rng = Sm.create 11L in
  for _ = 1 to 1000 do
    let v = Sm.int rng 10 in
    Alcotest.(check bool) "0<=v<10" true (v >= 0 && v < 10);
    let f = Sm.float rng in
    Alcotest.(check bool) "0<=f<1" true (f >= 0. && f < 1.)
  done

let test_splitmix_split_diverges () =
  let parent = Sm.create 5L in
  let child = Sm.split parent in
  (* The child stream is not a shifted copy of the parent's. *)
  let a = List.init 20 (fun _ -> Sm.next64 parent) in
  let b = List.init 20 (fun _ -> Sm.next64 child) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let prop_guid_string_roundtrip =
  QCheck.Test.make ~name:"guid of_string/to_string roundtrip" ~count:200
    QCheck.(pair int int)
    (fun (a, b) ->
      let rng = Sm.create (Int64.of_int ((a * 65599) + b)) in
      let g = Guid.make rng in
      match Guid.of_string (String.uppercase_ascii (Guid.to_string g)) with
      | Some g' -> Guid.equal g g'
      | None -> false)

let test_splitmix_shuffle_permutes () =
  let rng = Sm.create 3L in
  let arr = Array.init 50 (fun i -> i) in
  Sm.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let () =
  Alcotest.run "util"
    [
      ( "levenshtein",
        [
          Alcotest.test_case "basics" `Quick test_lev_basics;
          Alcotest.test_case "within" `Quick test_lev_within;
          Alcotest.test_case "similarity" `Quick test_similarity;
          Alcotest.test_case "wildcards" `Quick test_wildcards;
          QCheck_alcotest.to_alcotest prop_lev_metric;
          QCheck_alcotest.to_alcotest prop_lev_triangle;
          QCheck_alcotest.to_alcotest prop_within_agrees;
        ] );
      ( "guid",
        [
          Alcotest.test_case "roundtrip" `Quick test_guid_roundtrip;
          Alcotest.test_case "of_name deterministic" `Quick
            test_guid_of_name_deterministic;
          Alcotest.test_case "malformed" `Quick test_guid_malformed;
          Alcotest.test_case "nil" `Quick test_guid_nil;
          Alcotest.test_case "rendering" `Quick test_guid_rendering;
        ] );
      ( "fnv",
        [
          Alcotest.test_case "reference vectors" `Quick test_fnv_vectors;
          Alcotest.test_case "chaining" `Quick test_fnv_chaining;
          Alcotest.test_case "allocation" `Quick test_fnv_allocation;
        ] );
      ( "base64",
        [
          Alcotest.test_case "rfc vectors" `Quick test_base64_vectors;
          Alcotest.test_case "whitespace" `Quick test_base64_whitespace;
          Alcotest.test_case "malformed" `Quick test_base64_malformed;
          QCheck_alcotest.to_alcotest prop_base64_roundtrip;
          QCheck_alcotest.to_alcotest prop_base64_whitespace_roundtrip;
          QCheck_alcotest.to_alcotest prop_base64_padding_lengths;
          QCheck_alcotest.to_alcotest prop_base64_reject_after_pad;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "orders" `Quick test_pqueue_orders;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "floats" `Quick test_pqueue_floats;
          QCheck_alcotest.to_alcotest prop_pqueue_sorts;
          QCheck_alcotest.to_alcotest prop_pqueue_sorts_floats;
        ] );
      ("strutil", [ Alcotest.test_case "helpers" `Quick test_strutil ]);
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "ranges" `Quick test_splitmix_ranges;
          Alcotest.test_case "shuffle" `Quick test_splitmix_shuffle_permutes;
          Alcotest.test_case "split diverges" `Quick
            test_splitmix_split_diverges;
          QCheck_alcotest.to_alcotest prop_guid_string_roundtrip;
        ] );
    ]
