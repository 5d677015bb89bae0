(* Cross-cutting property and fuzz tests: parsers never crash on junk,
   conformance is deterministic and complete, the protocol conserves
   objects, whole-system determinism. *)

open Pti_cts
module Td = Pti_typedesc.Type_description
module Checker = Pti_conformance.Checker
module Mapping = Pti_conformance.Mapping
module Xml = Pti_xml.Xml
module Bin = Pti_serial.Bin_ser
module Soap = Pti_serial.Soap_ser
module Env = Pti_serial.Envelope
module Idl = Pti_idl.Idl
module Peer = Pti_core.Peer
module Net = Pti_net.Net
module Stats = Pti_net.Stats
module Demo = Pti_demo.Demo_types
module Workload = Pti_demo.Workload

(* ----------------------------- fuzzing ----------------------------- *)

let junk_gen = QCheck.string_of_size (QCheck.Gen.int_bound 200)

let prop_xml_parser_total =
  QCheck.Test.make ~name:"xml parser never raises on junk" ~count:500 junk_gen
    (fun s ->
      match Xml.parse s with Ok _ -> true | Error _ -> true)

let prop_xml_parser_on_mutated_document =
  (* Take a real document, flip one byte: must still return, and parse
     failures must carry a position within the input. *)
  let doc =
    Td.to_xml_string
      (Td.of_class
         (Registry.find_exn
            (Demo.fresh_registry [ Demo.news_assembly () ])
            Demo.news_person))
  in
  QCheck.Test.make ~name:"xml parser total on mutated documents" ~count:300
    QCheck.(pair (int_bound (String.length doc - 1)) (int_bound 255))
    (fun (pos, byte) ->
      let b = Bytes.of_string doc in
      Bytes.set b pos (Char.chr byte);
      match Xml.parse (Bytes.to_string b) with
      | Ok _ -> true
      | Error e -> e.Xml.position >= 0 && e.Xml.position <= String.length doc)

let prop_bin_decoder_total =
  let reg = Demo.fresh_registry [ Demo.news_assembly () ] in
  QCheck.Test.make ~name:"binary decoder never raises on junk" ~count:500
    junk_gen
    (fun s ->
      match Bin.decode reg ("PTIB\x02" ^ s) with
      | Ok _ | Error _ -> true)

let prop_tdesc_decoder_total =
  QCheck.Test.make ~name:"type-description decoder total on junk" ~count:300
    junk_gen
    (fun s -> match Td.of_xml_string s with Ok _ | Error _ -> true)

let prop_idl_parser_total =
  QCheck.Test.make ~name:"idl parser never raises on junk" ~count:500 junk_gen
    (fun s -> match Idl.parse_classes s with Ok _ | Error _ -> true)

let prop_idl_parser_total_on_mutations =
  let src =
    "assembly \"a\";\nnamespace n;\nclass Person { field name : string; \
     method getName() : string { return name; } }"
  in
  QCheck.Test.make ~name:"idl parser total on mutated source" ~count:300
    QCheck.(pair (int_bound (String.length src - 1)) printable_char)
    (fun (pos, c) ->
      let b = Bytes.of_string src in
      Bytes.set b pos c;
      match Idl.parse_classes (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

(* ----------------------- conformance properties -------------------- *)

let population_registry =
  let reg = Registry.create () in
  Assembly.load reg (Demo.news_assembly ());
  for i = 0 to 9 do
    Assembly.load reg (Workload.family ~index:i ~flavor:Workload.Conformant)
  done;
  reg

let pop_resolver = Td.registry_resolver population_registry

let prop_conformant_families_conform =
  QCheck.Test.make ~name:"every conformant family conforms to the interest"
    ~count:10
    QCheck.(int_bound 9)
    (fun i ->
      let checker = Checker.create ~resolver:pop_resolver () in
      let actual =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:i ~flavor:Workload.Conformant))
      in
      let interest = Option.get (pop_resolver Demo.news_person) in
      Checker.verdict_ok (Checker.check checker ~actual ~interest))

let prop_conformance_deterministic =
  QCheck.Test.make ~name:"conformance verdict independent of checker instance"
    ~count:20
    QCheck.(pair (int_bound 9) (int_bound 9))
    (fun (i, j) ->
      let actual =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:i ~flavor:Workload.Conformant))
      in
      let interest =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:j ~flavor:Workload.Conformant))
      in
      let v1 =
        Checker.verdict_ok
          (Checker.check (Checker.create ~resolver:pop_resolver ()) ~actual
             ~interest)
      in
      let v2 =
        Checker.verdict_ok
          (Checker.check (Checker.create ~resolver:pop_resolver ()) ~actual
             ~interest)
      in
      v1 = v2)

let prop_family_pairs_transitive_instance =
  (* family_i <= news.Person and news.Person <= family_j, so family_i <=
     family_j must hold too (sampled transitivity of the relation on this
     population). *)
  QCheck.Test.make ~name:"transitivity instances across the population"
    ~count:25
    QCheck.(pair (int_bound 9) (int_bound 9))
    (fun (i, j) ->
      let checker = Checker.create ~resolver:pop_resolver () in
      let d k =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:k ~flavor:Workload.Conformant))
      in
      let news = Option.get (pop_resolver Demo.news_person) in
      let ( <= ) a b = Checker.verdict_ok (Checker.check checker ~actual:a ~interest:b) in
      (* Premises hold by construction; the conclusion must. *)
      if d i <= news && news <= d j then d i <= d j else QCheck.assume_fail ())

let prop_mapping_complete =
  QCheck.Test.make ~name:"conformant mapping covers every interest method"
    ~count:10
    QCheck.(int_bound 9)
    (fun i ->
      let checker = Checker.create ~resolver:pop_resolver () in
      let actual =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:i ~flavor:Workload.Conformant))
      in
      let interest = Option.get (pop_resolver Demo.news_person) in
      match Checker.check checker ~actual ~interest with
      | Checker.Not_conformant _ -> false
      | Checker.Conformant m ->
          m.Mapping.identity
          || List.for_all
               (fun (md : Td.method_desc) ->
                 Mapping.find m ~name:md.Td.md_name
                   ~arity:(Td.method_arity md)
                 <> None)
               interest.Td.ty_methods)

let prop_permutations_are_bijections =
  QCheck.Test.make ~name:"every mapping permutation is a bijection" ~count:10
    QCheck.(int_bound 9)
    (fun i ->
      let checker = Checker.create ~resolver:pop_resolver () in
      let actual =
        Option.get
          (pop_resolver
             (Workload.person_name ~index:i ~flavor:Workload.Conformant))
      in
      let interest = Option.get (pop_resolver Demo.news_person) in
      match Checker.check checker ~actual ~interest with
      | Checker.Not_conformant _ -> false
      | Checker.Conformant m ->
          List.for_all
            (fun mm ->
              let p = mm.Mapping.mm_perm in
              let n = Array.length p in
              let seen = Array.make n false in
              Array.for_all
                (fun i ->
                  i >= 0 && i < n
                  &&
                  if seen.(i) then false
                  else begin
                    seen.(i) <- true;
                    true
                  end)
                p)
            m.Mapping.methods)

(* ------------------------- protocol properties --------------------- *)

let run_protocol ~objects ~distinct ~nonconf ~seed =
  let net = Net.create ~seed () in
  let sender = Peer.create ~net "sender" in
  let receiver = Peer.create ~net "receiver" in
  Peer.install_assembly receiver (Demo.news_assembly ());
  Peer.register_interest receiver ~interest:Demo.news_person
    (fun ~from:_ _ -> ());
  let flavors =
    Array.init distinct (fun i ->
        if i < nonconf then Workload.Trap_missing else Workload.Conformant)
  in
  Array.iteri
    (fun i flavor ->
      Peer.publish_assembly sender (Workload.family ~index:i ~flavor))
    flavors;
  for n = 0 to objects - 1 do
    let index = n mod distinct in
    let v =
      Workload.make_person (Peer.registry sender) ~index
        ~flavor:flavors.(index)
        ~name:(Printf.sprintf "p%d" n) ~age:n
    in
    Peer.send_value sender ~dst:"receiver" v;
    Net.run net
  done;
  let delivered, rejected, failed =
    List.fold_left
      (fun (d, r, f) ev ->
        match ev with
        | Peer.Delivered _ -> (d + 1, r, f)
        | Peer.Rejected _ -> (d, r + 1, f)
        | Peer.Decode_failed _ | Peer.Load_failed _
        | Peer.Corrupt_rejected _ -> (d, r, f + 1))
      (0, 0, 0) (Peer.events receiver)
  in
  (delivered, rejected, failed, Stats.total_bytes (Net.stats net))

let protocol_params =
  QCheck.make
    QCheck.Gen.(
      let* distinct = int_range 1 8 in
      let* nonconf = int_bound distinct in
      let* objects = int_range 1 25 in
      return (objects, distinct, nonconf))

let prop_protocol_conserves_objects =
  QCheck.Test.make ~name:"delivered + rejected = objects sent" ~count:25
    protocol_params
    (fun (objects, distinct, nonconf) ->
      let delivered, rejected, failed, _ =
        run_protocol ~objects ~distinct ~nonconf ~seed:3L
      in
      failed = 0 && delivered + rejected = objects)

let prop_protocol_deterministic =
  QCheck.Test.make ~name:"identical runs transfer identical bytes" ~count:10
    protocol_params
    (fun (objects, distinct, nonconf) ->
      let r1 = run_protocol ~objects ~distinct ~nonconf ~seed:11L in
      let r2 = run_protocol ~objects ~distinct ~nonconf ~seed:11L in
      r1 = r2)

let prop_protocol_delivery_counts_match_conformance =
  QCheck.Test.make ~name:"exactly the conformant objects are delivered"
    ~count:20 protocol_params
    (fun (objects, distinct, nonconf) ->
      let delivered, rejected, _, _ =
        run_protocol ~objects ~distinct ~nonconf ~seed:7L
      in
      let expected_rejected =
        (* objects whose index mod distinct < nonconf *)
        let count = ref 0 in
        for n = 0 to objects - 1 do
          if n mod distinct < nonconf then incr count
        done;
        !count
      in
      rejected = expected_rejected && delivered = objects - expected_rejected)

(* --------------------------- envelope walk ------------------------- *)

(* The distinct classes of a value graph in first-visit order, as a
   walk separate from either codec once listed them for the envelope. *)
let graph_classes v =
  let seen_obj = Hashtbl.create 16 in
  let found = ref [] in
  let rec go v =
    match v with
    | Value.Vnull | Value.Vbool _ | Value.Vint _ | Value.Vfloat _
    | Value.Vstring _ | Value.Vchar _ ->
        ()
    | Value.Vproxy p -> go p.Value.px_target
    | Value.Varr a -> Array.iter go a.Value.items
    | Value.Vobj o ->
        if not (Hashtbl.mem seen_obj o.Value.oid) then begin
          Hashtbl.add seen_obj o.Value.oid ();
          if not (List.exists (Pti_util.Strutil.equal_ci o.Value.cls) !found)
          then found := o.Value.cls :: !found;
          Array.iter go o.Value.slots
        end
  in
  go v;
  List.rev !found

(* Three classes whose fields cover every primitive type, arrays of
   primitives and of classes, a self reference, a declared name in mixed
   case, and a subclass that inherits its base's fields and redeclares
   one of them. *)
let walk_classes =
  let module B = Builder in
  [
    B.class_ ~ns:[ "walk" ] "Alpha"
    |> B.field "i" Ty.Int |> B.field "f" Ty.Float |> B.field "c" Ty.Char
    |> B.field "t" Ty.Bool |> B.field "s" Ty.String
    |> B.field "Zeta" (Ty.Named "walk.Alpha")
    |> B.field "ints" (Ty.Array Ty.Int)
    |> B.build;
    B.class_ ~ns:[ "walk" ] "Beta"
    |> B.field "b" Ty.String
    |> B.field "m" (Ty.Array (Ty.Named "walk.Beta"))
    |> B.field "a2" Ty.Float
    |> B.build;
    B.class_ ~ns:[ "walk" ] "Gamma" ~super:"walk.Beta"
    |> B.field "a10" (Ty.Array Ty.Char)
    |> B.field "B" Ty.String
    |> B.build;
  ]

let walk_registry =
  let r = Registry.create () in
  List.iter (Registry.register r) walk_classes;
  r

(* Each class's fields, declared and inherited, by lowercased key. *)
let walk_fields =
  Array.map
    (fun cd ->
      let ly = Registry.layout walk_registry cd in
      Array.to_list
        (Array.map2 (fun k ty -> (k, ty)) ly.Registry.ly_keys ly.Registry.ly_tys))
    (Array.of_list walk_classes)

(* A random graph over up to six objects: shared references, cycles,
   proxies (possibly of proxies), every primitive (floats and chars
   included), arrays of primitives and of objects, and each class
   spelled in three cases. Each object sets a random subset of the
   fields its class declares or inherits, now and then in another case,
   each holding a value of its declared type seven times in eight and
   anything otherwise, and carries up to two undeclared fields. Field
   names are not in insertion order. An object holds the fields it is
   built with, and values point at objects: the fields are drawn twice
   from one state, first to learn each object's keys, then to set
   them. *)
let random_graph seed =
  let rng = ref (Random.State.make [| seed |]) in
  let int n = Random.State.int !rng n in
  let pick a = a.(int (Array.length a)) in
  let spellings =
    [|
      [| "walk.Alpha"; "WALK.ALPHA"; "walk.alpha" |];
      [| "walk.Beta"; "Walk.BETA"; "walk.beta" |];
      [| "walk.Gamma"; "walk.GAMMA"; "wALK.gamma" |];
    |]
  in
  let n = 1 + int 6 in
  let kinds = Array.init n (fun _ -> int 3) in
  let objs =
    Array.map (fun k -> Value.make_obj (pick spellings.(k)) []) kinds
  in
  let obj () = Value.Vobj objs.(int n) in
  let rec proxy_to depth target =
    Value.Vproxy
      { Value.px_interface = "walk.I";
        px_target =
          (if depth > 0 && int 2 = 0 then proxy_to (depth - 1) target
           else target);
        px_invoke = (fun _ _ -> Value.Vnull) }
  in
  let proxy depth = proxy_to depth (obj ()) in
  let objects () =
    Value.Varr
      { Value.elem_ty = Ty.Named "object";
        items =
          Array.init (int 4) (fun _ -> if int 4 = 0 then proxy 1 else obj ()) }
  in
  let prim ty =
    match ty with
    | Ty.Int -> Value.Vint (int 200 - 100)
    | Ty.Float ->
        Value.Vfloat (pick [| 0.; -0.; 1.5; -2.25e10; infinity; neg_infinity |])
    | Ty.Char -> Value.Vchar (Char.chr (int 256))
    | Ty.Bool -> Value.Vbool (int 2 = 0)
    | _ -> Value.Vstring (pick [| ""; "x"; "h\xc3\xa9llo"; "a\000b" |])
  in
  let prim_ty () = pick [| Ty.Int; Ty.Float; Ty.Char; Ty.Bool; Ty.String |] in
  let prim_array () =
    let ty = prim_ty () in
    Value.Varr { Value.elem_ty = ty; items = Array.init (int 4) (fun _ -> prim ty) }
  in
  let any () =
    match int 7 with
    | 0 | 1 -> prim (prim_ty ())
    | 2 -> Value.Vnull
    | 3 -> obj ()
    | 4 -> proxy 2
    | 5 -> objects ()
    | _ -> prim_array ()
  in
  (* An object of class [kind] or of a subclass (a Gamma is a Beta), or
     null when the graph has none. *)
  let instance kind =
    let fits k = kinds.(k) = kind || (kind = 1 && kinds.(k) = 2) in
    match List.filter fits (List.init n Fun.id) with
    | [] -> Value.Vnull
    | ks ->
        let o = Value.Vobj objs.(List.nth ks (int (List.length ks))) in
        if int 6 = 0 then proxy_to 1 o else o
  in
  let rec typed ty =
    match ty with
    | Ty.Named n when int 5 > 0 ->
        instance (if Pti_util.Strutil.equal_ci n "walk.Alpha" then 0 else 1)
    | Ty.Named _ | Ty.Void -> Value.Vnull
    | Ty.Array e ->
        Value.Varr { Value.elem_ty = e; items = Array.init (int 4) (fun _ -> typed e) }
    | _ -> prim ty
  in
  let fill set =
    Array.iteri
      (fun k _ ->
        List.iter
          (fun (key, ty) ->
            if int 3 > 0 then
              set k
                (if int 6 = 0 then String.uppercase_ascii key else key)
                (if int 8 = 0 then any () else typed ty))
          walk_fields.(kinds.(k));
        for _ = 1 to int 3 do
          set k (pick [| "zz"; "extra"; "q1" |]) (any ())
        done)
      objs
  in
  let start = Random.State.copy !rng in
  let keys = Array.map (fun _ -> ref []) objs in
  fill (fun k key _ ->
      if not (List.mem key !(keys.(k))) then keys.(k) := key :: !(keys.(k)));
  Array.iteri
    (fun k o ->
      objs.(k) <-
        Value.make_obj o.Value.cls
          (List.map (fun key -> (key, Value.Vnull)) !(keys.(k))))
    objs;
  rng := start;
  fill (fun k key v -> Value.set_field objs.(k) key v);
  match int 5 with
  | 0 -> objects ()
  | 1 -> proxy 2
  | 2 -> prim_array ()
  | _ -> Value.Vobj objs.(0)

let prop_envelope_lists_walk_classes =
  QCheck.Test.make ~name:"envelope lists the payload walk's classes" ~count:300
    QCheck.int
    (fun seed ->
      let v = random_graph seed in
      let reference = graph_classes v in
      let expected =
        match
          List.map
            (fun c -> Meta.qualified_name (Registry.find_exn walk_registry c))
            reference
        with
        | root :: rest -> root :: List.sort String.compare rest
        | [] -> []
      in
      let entries codec =
        let env =
          Env.make walk_registry ~codec
            ~download_path:(fun ~assembly -> assembly)
            v
        in
        List.map (fun e -> e.Env.te_name) env.Env.env_types
      in
      snd (Bin.encode v) = reference
      && snd (Soap.encode_xml v) = reference
      && entries Env.Binary = expected
      && entries Env.Soap = expected)

(* ---------------------- the codecs this replaced ------------------- *)

(* The binary payload codec and the envelope digest as they were before
   compiled layouts and the streamed digest, kept verbatim (with the
   sealed frame and the byte reader and writer they used), and the XML
   readers of assemblies, classes and envelopes as they were before they
   raised inside, kept verbatim too: the reference the differential
   properties below hold the rewrites to. The same bytes, the same
   digests, a payload decoder that accepts nothing the reference
   rejects, and XML readers that accept and refuse what the reference
   does. Only helpers nothing here calls are left out. *)
module Reference = struct
  module Fnv = Pti_util.Fnv
  module Guid = Pti_util.Guid
  module Xml = Pti_xml.Xml

  module Bytes_io = struct
    let seal ~magic body = String.concat "" [ magic; Fnv.hash_bytes body; body ]

    (* Whether [s] holds [sub] at [off], compared in place. *)
    let rec holds s ~off sub i =
      i >= String.length sub
      || (Char.equal s.[off + i] sub.[i] && holds s ~off sub (i + 1))

    let unseal ~magic s =
      let m = String.length magic in
      let header = m + 8 in
      if String.length s < header then Error `Short
      else if not (holds s ~off:0 magic 0) then Error `Bad_magic
      else
        let body = String.sub s header (String.length s - header) in
        if holds s ~off:m (Fnv.hash_bytes body) 0 then Ok body
        else Error `Bad_checksum

    module Writer = struct
      type t = Buffer.t

      let create ?(initial = 256) () = Buffer.create initial
      let contents = Buffer.contents
      let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

      let varint t v =
        if v < 0 then invalid_arg "Writer.varint: negative";
        let rec go v =
          if v < 0x80 then u8 t v
          else begin
            u8 t (0x80 lor (v land 0x7f));
            go (v lsr 7)
          end
        in
        go v

      let zigzag t v =
        let encoded = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
        (* The shift may overflow for extreme values; mask to a non-negative
           encoding domain by using Int64 when needed is overkill here — object
           graphs carry human-scale integers. Guard anyway. *)
        if encoded < 0 then invalid_arg "Writer.zigzag: magnitude too large"
        else varint t encoded

      let f64 t v =
        let bits = Int64.bits_of_float v in
        for i = 0 to 7 do
          u8 t (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff)
        done

      let string t s =
        varint t (String.length s);
        Buffer.add_string t s

      let bool t b = u8 t (if b then 1 else 0)
    end

    module Reader = struct
      type t = { src : string; mutable pos : int }

      exception Underflow of string

      let create src = { src; pos = 0 }
      let at_end t = t.pos >= String.length t.src
      let remaining t = String.length t.src - t.pos

      let u8 t =
        if at_end t then raise (Underflow "u8 past end");
        let v = Char.code t.src.[t.pos] in
        t.pos <- t.pos + 1;
        v

      let varint t =
        let rec go shift acc =
          if shift > Sys.int_size then raise (Underflow "varint too long");
          let b = u8 t in
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b land 0x80 = 0 then acc else go (shift + 7) acc
        in
        go 0 0

      let zigzag t =
        let v = varint t in
        (v lsr 1) lxor (-(v land 1))

      let f64 t =
        let bits = ref 0L in
        for i = 0 to 7 do
          bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (u8 t)) (i * 8))
        done;
        Int64.float_of_bits !bits

      let string t =
        let n = varint t in
        (* A hostile length can read as negative, or overflow [pos + n]. *)
        if n < 0 || n > remaining t then raise (Underflow "string past end");
        let s = String.sub t.src t.pos n in
        t.pos <- t.pos + n;
        s

      let bool t = u8 t <> 0
    end
  end

  module Bin_ser = struct
    module W = Bytes_io.Writer
    module R = Bytes_io.Reader

    type error = Malformed of string | Unknown_type of string | Corrupt of string

    let magic = "PTIB\x02"

    (* Wire layout: a sealed frame ([Bytes_io.seal]). The checksum
       distinguishes wire corruption ([Corrupt]) from structural nonsense
       ([Malformed]) before any value is materialized. *)
    let unseal_error = function
      | `Short -> Malformed "truncated header"
      | `Bad_magic -> Malformed "bad magic"
      | `Bad_checksum -> Corrupt "checksum mismatch"

    (* Value tags. *)
    let t_null = 0
    and t_bool = 1
    and t_int = 2
    and t_float = 3
    and t_string = 4
    and t_char = 5
    and t_obj = 6
    and t_ref = 7
    and t_arr = 8

    type intern = {
      w : W.t;
      names : (string, int) Hashtbl.t;
      mutable next_name : int;
      seen : (int, int) Hashtbl.t;  (* oid -> wire id *)
      mutable next_id : int;
      mutable classes : string list;  (* distinct, case-insensitively; reversed *)
    }

    let intern_name st s =
      match Hashtbl.find_opt st.names s with
      | Some i -> W.varint st.w i
      | None ->
          let i = st.next_name in
          st.next_name <- i + 1;
          Hashtbl.add st.names s i;
          W.varint st.w i;
          (* First occurrence carries the text inline. *)
          W.string st.w s

    let rec strip = function Value.Vproxy p -> strip p.Value.px_target | v -> v

    let rec write st v =
      match strip v with
      | Value.Vnull -> W.u8 st.w t_null
      | Value.Vbool b ->
          W.u8 st.w t_bool;
          W.bool st.w b
      | Value.Vint i ->
          W.u8 st.w t_int;
          W.zigzag st.w i
      | Value.Vfloat f ->
          W.u8 st.w t_float;
          W.f64 st.w f
      | Value.Vstring s ->
          W.u8 st.w t_string;
          W.string st.w s
      | Value.Vchar c ->
          W.u8 st.w t_char;
          W.u8 st.w (Char.code c)
      | Value.Varr a ->
          W.u8 st.w t_arr;
          W.string st.w (Ty.to_string a.Value.elem_ty);
          W.varint st.w (Array.length a.Value.items);
          Array.iter (write st) a.Value.items
      | Value.Vobj o -> (
          match Hashtbl.find_opt st.seen o.Value.oid with
          | Some id ->
              W.u8 st.w t_ref;
              W.varint st.w id
          | None ->
              let id = st.next_id in
              st.next_id <- id + 1;
              Hashtbl.add st.seen o.Value.oid id;
              if not (Pti_util.Strutil.mem_ci o.Value.cls st.classes) then
                st.classes <- o.Value.cls :: st.classes;
              W.u8 st.w t_obj;
              W.varint st.w id;
              intern_name st o.Value.cls;
              let bindings =
                List.combine (Array.to_list o.Value.keys)
                  (Array.to_list o.Value.slots)
                |> List.sort (fun (a, _) (b, _) -> String.compare a b)
              in
              W.varint st.w (List.length bindings);
              List.iter
                (fun (k, v) ->
                  intern_name st k;
                  write st v)
                bindings)
      | Value.Vproxy _ -> assert false

    let encode v =
      let st =
        {
          w = W.create ();
          names = Hashtbl.create 16;
          next_name = 0;
          seen = Hashtbl.create 16;
          next_id = 0;
          classes = [];
        }
      in
      write st v;
      (Bytes_io.seal ~magic (W.contents st.w), List.rev st.classes)

    type outern = {
      r : R.t;
      rev_names : (int, string) Hashtbl.t;
      objects : (int, Value.obj) Hashtbl.t;
    }

    let read_name st =
      let i = R.varint st.r in
      match Hashtbl.find_opt st.rev_names i with
      | Some s -> s
      | None ->
          let s = R.string st.r in
          Hashtbl.add st.rev_names i s;
          s

    (* [Value.update_field], which only this decoder called. *)
    let update_field o name v =
      if Value.get_field o name <> None then Value.set_field o name v

    exception Unknown of string

    let rec read ?resolve reg st =
      let resolve =
        match resolve with Some f -> f | None -> Registry.find reg
      in
      let tag = R.u8 st.r in
      if tag = t_null then Value.Vnull
      else if tag = t_bool then Value.Vbool (R.bool st.r)
      else if tag = t_int then Value.Vint (R.zigzag st.r)
      else if tag = t_float then Value.Vfloat (R.f64 st.r)
      else if tag = t_string then Value.Vstring (R.string st.r)
      else if tag = t_char then Value.Vchar (Char.chr (R.u8 st.r land 0xff))
      else if tag = t_arr then begin
        let ty_s = R.string st.r in
        let elem_ty =
          match Ty.of_string ty_s with
          | Some ty -> ty
          | None -> raise (R.Underflow (Printf.sprintf "bad type %S" ty_s))
        in
        let n = R.varint st.r in
        if n < 0 || n > 10_000_000 then raise (R.Underflow "absurd array length");
        (* Every element takes at least one byte: a longer declared length
           is a lie, caught before the array is allocated. *)
        if n > R.remaining st.r then raise (R.Underflow "array length past end");
        let items = Array.init n (fun _ -> read ~resolve reg st) in
        Value.Varr { Value.elem_ty; items }
      end
      else if tag = t_ref then begin
        let id = R.varint st.r in
        match Hashtbl.find_opt st.objects id with
        | Some o -> Value.Vobj o
        | None -> raise (R.Underflow (Printf.sprintf "dangling object ref %d" id))
      end
      else if tag = t_obj then begin
        let id = R.varint st.r in
        let cls = read_name st in
        let cd =
          match resolve cls with
          | Some cd -> cd
          | None -> raise (Unknown cls)
        in
        (* Declared defaults first, so missing payload fields are sane and
           undeclared ones are dropped. *)
        let o, _ = Registry.fresh_object reg cd in
        Hashtbl.add st.objects id o;
        let n = R.varint st.r in
        for _ = 1 to n do
          let fname = read_name st in
          let v = read ~resolve reg st in
          update_field o fname v
        done;
        Value.Vobj o
      end
      else raise (R.Underflow (Printf.sprintf "unknown tag %d" tag))

    let decode ?resolve reg s =
      match Bytes_io.unseal ~magic s with
      | Error e -> Error (unseal_error e)
      | Ok body -> (
          let st =
            { r = R.create body; rev_names = Hashtbl.create 16;
              objects = Hashtbl.create 16 }
          in
          try
            let v = read ?resolve reg st in
            if not (R.at_end st.r) then Error (Malformed "trailing bytes")
            else Ok v
          with
          | R.Underflow m -> Error (Malformed m)
          | Unknown cls -> Error (Unknown_type cls))
  end

  let canonical (t : Env.t) =
    let b = Buffer.create 256 in
    let field s =
      Buffer.add_string b (string_of_int (String.length s));
      Buffer.add_char b ':';
      Buffer.add_string b s
    in
    List.iter
      (fun e ->
        field e.Env.te_name;
        field (Guid.to_string e.Env.te_guid);
        field e.Env.te_assembly;
        field e.Env.te_download_path;
        (* Versioned entries fold the version into the digest; version 0
           stays absent so pre-evolution envelopes keep their digests. *)
        if e.Env.te_version > 0 then field ("v" ^ string_of_int e.Env.te_version))
      t.Env.env_types;
    (match t.Env.env_payload with
    | Env.Psoap x ->
        field "soap";
        field (Xml.to_string x)
    | Env.Pbinary p ->
        field "binary";
        field p);
    Buffer.contents b

  let digest t = Pti_util.Fnv.hash_hex (canonical t)

  let digest_raw t = Pti_util.Fnv.hash_bytes (canonical t)

  (* The XML readers before they raised inside and answered once: the
     assembly and class readers, whose class reader also reads type
     descriptions, and the classic envelope reader. *)
  module Assembly_xml = struct
    module Guid = Pti_util.Guid
    module S = Pti_util.Strutil

    let ( let* ) = Result.bind

    let binop_of_string s =
      List.find_opt
        (fun op -> String.equal (Expr.binop_name op) s)
        [
          Expr.Add; Expr.Sub; Expr.Mul; Expr.Div; Expr.Mod; Expr.Eq; Expr.Neq;
          Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge; Expr.And; Expr.Or; Expr.Concat;
        ]

    let unop_of_string s =
      List.find_opt
        (fun op -> String.equal (Expr.unop_name op) s)
        [ Expr.Neg; Expr.Not ]

    let attr name x =
      match Xml.attr name x with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing attribute %S" name)

    let elements x =
      List.filter (function Xml.Element _ -> true | _ -> false) (Xml.children x)

    let rec map_result f = function
      | [] -> Ok []
      | x :: rest ->
          let* y = f x in
          let* ys = map_result f rest in
          Ok (y :: ys)

    let rec expr_of_xml x =
      let kids () = map_result expr_of_xml (elements x) in
      match Xml.tag x with
      | Some "null" -> Ok Expr.null
      | Some "bool" ->
          let* v = attr "v" x in
          (match bool_of_string_opt v with
          | Some b -> Ok (Expr.bool b)
          | None -> Error "bad bool")
      | Some "int" ->
          let* v = attr "v" x in
          (match int_of_string_opt v with
          | Some i -> Ok (Expr.int i)
          | None -> Error "bad int")
      | Some "float" ->
          let* v = attr "v" x in
          (match float_of_string_opt v with
          | Some f -> Ok (Expr.Const (Expr.Cfloat f))
          | None -> Error "bad float")
      | Some "str" ->
          let* v = attr "v" x in
          Ok (Expr.str v)
      | Some "chr" ->
          let* v = attr "v" x in
          (match int_of_string_opt v with
          | Some c when c >= 0 && c < 256 -> Ok (Expr.Const (Expr.Cchar (Char.chr c)))
          | _ -> Error "bad chr")
      | Some "this" -> Ok Expr.This
      | Some "var" ->
          let* name = attr "name" x in
          Ok (Expr.Var name)
      | Some "let" -> (
          let* name = attr "name" x in
          let* ks = kids () in
          match ks with
          | [ e1; e2 ] -> Ok (Expr.Let (name, e1, e2))
          | _ -> Error "let expects 2 children")
      | Some "assign" -> (
          let* name = attr "name" x in
          let* ks = kids () in
          match ks with
          | [ e1 ] -> Ok (Expr.Assign (name, e1))
          | _ -> Error "assign expects 1 child")
      | Some "fget" -> (
          let* field = attr "field" x in
          let* ks = kids () in
          match ks with
          | [ o ] -> Ok (Expr.Field_get (o, field))
          | _ -> Error "fget expects 1 child")
      | Some "fset" -> (
          let* field = attr "field" x in
          let* ks = kids () in
          match ks with
          | [ o; v ] -> Ok (Expr.Field_set (o, field, v))
          | _ -> Error "fset expects 2 children")
      | Some "call" -> (
          let* name = attr "name" x in
          let* ks = kids () in
          match ks with
          | recv :: args -> Ok (Expr.Call (recv, name, args))
          | [] -> Error "call expects a receiver")
      | Some "scall" ->
          let* cls = attr "class" x in
          let* name = attr "name" x in
          let* args = kids () in
          Ok (Expr.Static_call (cls, name, args))
      | Some "new" ->
          let* cls = attr "class" x in
          let* args = kids () in
          Ok (Expr.New (cls, args))
      | Some "newarr" -> (
          let* ty_s = attr "type" x in
          match Ty.of_string ty_s with
          | None -> Error "bad array type"
          | Some ty ->
              let* items = kids () in
              Ok (Expr.New_array (ty, items)))
      | Some "aget" -> (
          let* ks = kids () in
          match ks with
          | [ a; i ] -> Ok (Expr.Index_get (a, i))
          | _ -> Error "aget expects 2 children")
      | Some "aset" -> (
          let* ks = kids () in
          match ks with
          | [ a; i; v ] -> Ok (Expr.Index_set (a, i, v))
          | _ -> Error "aset expects 3 children")
      | Some "alen" -> (
          let* ks = kids () in
          match ks with
          | [ a ] -> Ok (Expr.Array_length a)
          | _ -> Error "alen expects 1 child")
      | Some "if" -> (
          let* ks = kids () in
          match ks with
          | [ c; t; e ] -> Ok (Expr.If (c, t, e))
          | _ -> Error "if expects 3 children")
      | Some "while" -> (
          let* ks = kids () in
          match ks with
          | [ c; b ] -> Ok (Expr.While (c, b))
          | _ -> Error "while expects 2 children")
      | Some "seq" ->
          let* ks = kids () in
          Ok (Expr.Seq ks)
      | Some "binop" -> (
          let* op_s = attr "op" x in
          match binop_of_string op_s with
          | None -> Error (Printf.sprintf "bad binop %S" op_s)
          | Some op -> (
              let* ks = kids () in
              match ks with
              | [ a; b ] -> Ok (Expr.Binop (op, a, b))
              | _ -> Error "binop expects 2 children"))
      | Some "unop" -> (
          let* op_s = attr "op" x in
          match unop_of_string op_s with
          | None -> Error (Printf.sprintf "bad unop %S" op_s)
          | Some op -> (
              let* ks = kids () in
              match ks with
              | [ a ] -> Ok (Expr.Unop (op, a))
              | _ -> Error "unop expects 1 child"))
      | Some "throw" -> (
          let* ks = kids () in
          match ks with
          | [ a ] -> Ok (Expr.Throw a)
          | _ -> Error "throw expects 1 child")
      | Some "try" -> (
          let* var = attr "var" x in
          let* ks = kids () in
          match ks with
          | [ b; h ] -> Ok (Expr.Try (b, var, h))
          | _ -> Error "try expects 2 children")
      | Some other -> Error (Printf.sprintf "unknown expression tag <%s>" other)
      | None -> Error "expected an element"

    let mods_of_xml x =
      let* vis_s = attr "visibility" x in
      let* visibility =
        match Meta.visibility_of_string vis_s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "bad visibility %S" vis_s)
      in
      let* st_s = attr "static" x in
      let* vt_s = attr "virtual" x in
      match bool_of_string_opt st_s, bool_of_string_opt vt_s with
      | Some static, Some virtual_ -> Ok { Meta.visibility; static; virtual_ }
      | _ -> Error "bad modifier booleans"

    let params_of_xml x =
      map_result
        (fun p ->
          let* name = attr "name" p in
          let* ty_s = attr "type" p in
          match Ty.of_string ty_s with
          | Some ty -> Ok { Meta.param_name = name; param_ty = ty }
          | None -> Error (Printf.sprintf "bad param type %S" ty_s))
        (Xml.childs "param" x)

    let body_of_xml tag x =
      match Xml.child tag x with
      | None -> Ok None
      | Some b -> (
          match elements b with
          | [ e ] ->
              let* expr = expr_of_xml e in
              Ok (Some expr)
          | _ -> Error (Printf.sprintf "<%s> expects one child" tag))

    let class_of_xml ?(root = "class") x =
      match Xml.tag x with
      | Some tag when String.equal tag root ->
          let* name = attr "name" x in
          let* ns_s = attr "namespace" x in
          let td_namespace = if ns_s = "" then [] else S.split_on '.' ns_s in
          let* guid_s = attr "guid" x in
          let* td_guid =
            match Guid.of_string guid_s with
            | Some g -> Ok g
            | None -> Error (Printf.sprintf "bad guid %S" guid_s)
          in
          let* kind_s = attr "kind" x in
          let* td_kind =
            match Meta.kind_of_string kind_s with
            | Some k -> Ok k
            | None -> Error (Printf.sprintf "bad kind %S" kind_s)
          in
          let* td_assembly = attr "assembly" x in
          let* td_super =
            match Xml.child "super" x with
            | None -> Ok None
            | Some s ->
                let* n = attr "name" s in
                Ok (Some n)
          in
          let* td_interfaces =
            map_result (attr "name") (Xml.childs "interface" x)
          in
          let* td_fields =
            map_result
              (fun f ->
                let* f_name = attr "name" f in
                let* ty_s = attr "type" f in
                let* f_ty =
                  match Ty.of_string ty_s with
                  | Some ty -> Ok ty
                  | None -> Error (Printf.sprintf "bad field type %S" ty_s)
                in
                let* f_mods = mods_of_xml f in
                let* f_init = body_of_xml "init" f in
                Ok { Meta.f_name; f_ty; f_mods; f_init })
              (Xml.childs "field" x)
          in
          let* td_ctors =
            map_result
              (fun c ->
                let* c_params = params_of_xml c in
                let* c_mods = mods_of_xml c in
                let* c_body = body_of_xml "body" c in
                Ok { Meta.c_params; c_mods; c_body })
              (Xml.childs "constructor" x)
          in
          let* td_methods =
            map_result
              (fun m ->
                let* m_name = attr "name" m in
                let* ret_s = attr "return" m in
                let* m_return =
                  match Ty.of_string ret_s with
                  | Some ty -> Ok ty
                  | None -> Error (Printf.sprintf "bad return type %S" ret_s)
                in
                let* m_params = params_of_xml m in
                let* m_mods = mods_of_xml m in
                let* m_body = body_of_xml "body" m in
                Ok { Meta.m_name; m_params; m_return; m_mods; m_body })
              (Xml.childs "method" x)
          in
          Ok
            {
              Meta.td_name = name;
              td_namespace;
              td_guid;
              td_kind;
              td_super;
              td_interfaces;
              td_fields;
              td_ctors;
              td_methods;
              td_assembly;
            }
      | Some other -> Error (Printf.sprintf "expected <%s>, got <%s>" root other)
      | None -> Error "expected an element"

    let of_xml x =
      match Xml.tag x with
      | Some "assembly" ->
          let* name = attr "name" x in
          let* version_s = attr "version" x in
          let* version =
            match int_of_string_opt version_s with
            | Some v -> Ok v
            | None -> Error "bad version"
          in
          let* requires = map_result (attr "name") (Xml.childs "requires" x) in
          let* classes = map_result class_of_xml (Xml.childs "class" x) in
          Ok
            {
              Assembly.asm_name = name;
              asm_version = version;
              asm_classes = classes;
              asm_requires = requires;
            }
      | Some other -> Error (Printf.sprintf "expected <assembly>, got <%s>" other)
      | None -> Error "expected an element"

    let of_string s =
      match Pti_xml.Digest_attr.of_string s with
      | Error (`Syntax e) -> Error (Format.asprintf "%a" Xml.pp_error e)
      | Error `Mismatch -> Error "corrupt assembly: digest mismatch"
      | Ok x -> of_xml x
  end

  module Envelope = struct
    open Env
    module B64 = Pti_util.Base64

    let attr name x =
      match Xml.attr name x with
      | Some v -> Ok v
      | None -> Error (Malformed (Printf.sprintf "missing attribute %S" name))

    let ( let* ) = Result.bind

    let rec map_result f = function
      | [] -> Ok []
      | x :: rest ->
          let* y = f x in
          let* ys = map_result f rest in
          Ok (y :: ys)

    let entry_of_elt e =
      let* te_name = attr "name" e in
      let* guid_s = attr "guid" e in
      let* te_guid =
        match Guid.of_string guid_s with
        | Some g -> Ok g
        | None -> Error (Malformed (Printf.sprintf "bad guid %S" guid_s))
      in
      let* te_assembly = attr "assembly" e in
      let* te_download_path = attr "downloadPath" e in
      (* Optional: absent on envelopes from pre-evolution senders. *)
      let* te_version =
        match Xml.attr "version" e with
        | None -> Ok 0
        | Some s -> (
            match int_of_string_opt s with
            | Some v when v >= 0 -> Ok v
            | _ -> Error (Malformed (Printf.sprintf "bad version %S" s)))
      in
      Ok { te_name; te_guid; te_assembly; te_download_path; te_version }

    let payload_of_xml x =
      let* payload_elt =
        match Xml.child "payload" x with
        | Some p -> Ok p
        | None -> Error (Malformed "missing <payload>")
      in
      let* encoding = attr "encoding" payload_elt in
      match encoding with
      | "soap" -> (
          match
            List.filter
              (function Xml.Element _ -> true | _ -> false)
              (Xml.children payload_elt)
          with
          | [ inner ] -> Ok (Psoap inner)
          | _ -> Error (Malformed "soap payload expects one element"))
      | "binary" -> (
          match B64.decode (Xml.text_content payload_elt) with
          | Some b -> Ok (Pbinary b)
          | None -> Error (Malformed "bad base64 payload"))
      | other -> Error (Malformed (Printf.sprintf "unknown encoding %S" other))

    let of_xml x =
      match Xml.tag x with
      | Some "envelope" ->
          let* env_types = map_result entry_of_elt (Xml.childs "type" x) in
          let* env_payload = payload_of_xml x in
          let t = { env_types; env_payload } in
          (* An envelope written before digests existed (no attribute) is
             accepted as-is; a present digest must match the recomputed one. *)
          let* () =
            match Xml.attr "digest" x with
            | None -> Ok ()
            | Some d when String.equal d (digest t) -> Ok ()
            | Some _ -> Error (Corrupt "envelope digest mismatch")
          in
          Ok t
      | Some other ->
          Error (Malformed (Printf.sprintf "expected <envelope>, got <%s>" other))
      | None -> Error (Malformed "expected an element")

    let of_string s =
      match Xml.parse s with
      | Error e -> Error (Malformed (Format.asprintf "%a" Xml.pp_error e))
      | Ok x -> of_xml x
  end

  let td_of_xml_string s =
    match Pti_xml.Digest_attr.of_string s with
    | Error (`Syntax e) -> Error (Format.asprintf "%a" Xml.pp_error e)
    | Error `Mismatch -> Error "corrupt type description: digest mismatch"
    | Ok x ->
        Result.map Td.of_class
          (Assembly_xml.class_of_xml ~root:"typeDescription" x)

  (* The type-reference parser as it was before it read in one scan. *)
  let rec ty_of_string s =
    let s = String.trim s in
    let n = String.length s in
    if n = 0 then None
    else if n >= 2 && String.sub s (n - 2) 2 = "[]" then
      match ty_of_string (String.sub s 0 (n - 2)) with
      | Some e -> Some (Ty.Array e)
      | None -> None
    else
      match String.lowercase_ascii s with
      | "void" -> Some Ty.Void
      | "bool" | "boolean" -> Some Ty.Bool
      | "int" | "int32" | "int64" -> Some Ty.Int
      | "float" | "double" -> Some Ty.Float
      | "string" -> Some Ty.String
      | "char" -> Some Ty.Char
      | _ -> Some (Ty.Named s)
end

(* Strings over [int], [Foo], blanks and brackets, ending in up to 1 000
   "[]" pairs: at most 1 024 brackets, so every rank the reference reads
   is within the bound. *)
let type_string_gen =
  let open QCheck.Gen in
  let token = oneofl [ "int"; "Foo"; "INT"; " "; "\t"; "["; "]"; "[]" ] in
  let pair = oneofl [ "[]"; "[] "; " []" ] in
  map2
    (fun prefix pairs -> String.concat "" (prefix @ pairs))
    (list_size (int_bound 12) token)
    (frequency
       [
         (4, list_size (int_bound 4) pair);
         (1, list_size (int_bound 1000) pair);
       ])

let prop_ty_of_string_unchanged =
  QCheck.Test.make ~name:"type strings read as before" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") type_string_gen)
    (fun s -> Ty.of_string s = Reference.ty_of_string s)

(* Encoding a graph writes the bytes the reference writes and lists the
   same classes; every envelope over it, binary or SOAP, versioned or
   not, carries the reference's digest, in the XML attribute and raw in
   the PTIE frame. *)
let prop_encodings_and_digests_unchanged =
  QCheck.Test.make ~name:"payloads and digests unchanged" ~count:500 QCheck.int
    (fun seed ->
      let v = random_graph seed in
      let version = seed land 3 in
      let envelope codec =
        Env.make walk_registry ~codec
          ~version_of:(fun ~assembly:_ -> version)
          ~download_path:(fun ~assembly -> "asm://h/" ^ assembly)
          v
      in
      Bin.encode v = Reference.Bin_ser.encode v
      && List.for_all
           (fun codec ->
             let env = envelope codec in
             let frame = Env.to_string_h env ~form:(fun _ -> `Ref 1) in
             String.equal (Env.digest env) (Reference.digest env)
             && String.equal (String.sub frame 13 8) (Reference.digest_raw env))
           [ Env.Binary; Env.Soap ])

(* What the rewritten decoder may newly reject where the reference
   accepted: a value that does not inhabit its declared type (reported
   as [Corrupt]), or names and objects not numbered in the order they
   first appear. *)
let newly_rejected = function
  | Bin.Corrupt _ -> true
  | Bin.Malformed m ->
      String.length m >= 14 && String.equal (String.sub m 0 14) "non-sequential"
  | Bin.Unknown_type _ -> false

(* Equal graphs, or graphs that encode to the same bytes: a flipped
   float can read as nan, which [equal_deep] finds unequal to itself. *)
let same_graph a b =
  Value.equal_deep a b
  || String.equal (fst (Reference.Bin_ser.encode a))
       (fst (Reference.Bin_ser.encode b))

let decode_agrees reference fresh =
  match (reference, fresh) with
  | Ok a, Ok b -> same_graph a b
  | Ok _, Error e -> newly_rejected e
  | Error _, Error _ -> true
  | Error _, Ok _ -> false

(* Unmutated encodings of the random graphs: the two decoders agree, and
   both outcomes the rewrite allows occur. *)
let test_decoding_matches_reference () =
  let ok = ref 0 and mistyped = ref 0 in
  for seed = 0 to 299 do
    let s = fst (Reference.Bin_ser.encode (random_graph seed)) in
    let reference = Reference.Bin_ser.decode walk_registry s in
    let fresh = Bin.decode walk_registry s in
    if not (decode_agrees reference fresh) then
      Alcotest.failf "seed %d: the decoders disagree" seed;
    match fresh with
    | Ok _ -> incr ok
    | Error (Bin.Corrupt _) -> incr mistyped
    | Error _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d of 300 graphs decode, %d are mistyped" !ok !mistyped)
    true
    (!ok >= 100 && !mistyped >= 10)

(* Truncated and flipped encodings, resealed with a valid checksum as a
   hostile sender would (or now and then not): where the reference
   decodes, the rewrite gives an equal value or a newly rejected class;
   where the reference fails, so does the rewrite; nothing raises. *)
let prop_decoding_under_mutation =
  QCheck.Test.make ~name:"decoding under mutation accepts no more" ~count:2000
    QCheck.(pair int int)
    (fun (seed, mseed) ->
      let s = fst (Reference.Bin_ser.encode (random_graph seed)) in
      let rng = Random.State.make [| mseed |] in
      let header = String.length Reference.Bin_ser.magic + 8 in
      let body = Bytes.of_string (String.sub s header (String.length s - header)) in
      let body =
        if Bytes.length body > 0 && Random.State.bool rng then
          Bytes.sub body 0 (Random.State.int rng (Bytes.length body))
        else body
      in
      if Bytes.length body > 0 then
        for _ = 0 to Random.State.int rng 3 do
          let i = Random.State.int rng (Bytes.length body) in
          Bytes.set body i
            (Char.chr
               (Char.code (Bytes.get body i) lxor (1 + Random.State.int rng 255)))
        done;
      let mutated =
        if Random.State.int rng 8 = 0 then
          String.sub s 0 header ^ Bytes.to_string body
        else
          Reference.Bytes_io.seal ~magic:Reference.Bin_ser.magic
            (Bytes.to_string body)
      in
      decode_agrees
        (Reference.Bin_ser.decode walk_registry mutated)
        (Bin.decode walk_registry mutated))

(* ------------- the XML readers under structural mutation ----------- *)

(* An assembly whose code holds every expression form, every member
   kind and every declared type form the class codec writes. *)
let every_form =
  let open Expr in
  let body =
    Seq
      [
        null; int 42; str "a<b&c"; bool true; Const (Cfloat 2.5);
        Const (Cchar 'q'); This; Var "x";
        Let ("t", int 1, Binop (Add, Var "t", int 2)); Assign ("x", int 9);
        Field_get (This, "name"); Field_set (This, "name", str "n");
        Call (This, "m", [ int 1; str "s" ]);
        Static_call ("f.C", "m", [ int 1 ]); New ("f.C", [ null ]);
        New_array (Ty.Int, [ int 1; int 2 ]); Index_get (Var "a", int 0);
        Index_set (Var "a", int 0, int 5); Array_length (Var "a");
        If (bool true, int 1, int 2); While (bool false, null);
        Unop (Not, bool false); Unop (Neg, int 3); Throw (str "boom");
        Try (Throw (int 1), "e", Var "e");
      ]
  in
  Assembly.make ~version:3 ~requires:[ "base" ] ~name:"forms"
    [
      Builder.interface_ ~ns:[ "f" ] "I"
      |> Builder.abstract_method "m" [ ("x", Ty.Int) ] Ty.Int
      |> Builder.build;
      Builder.class_ ~ns:[ "f" ] ~super:"f.B" ~interfaces:[ "f.I" ] "C"
      |> Builder.field "name" Ty.String ~init:(str "n")
      |> Builder.field "a" (Ty.Array Ty.Int)
      |> Builder.ctor [ ("n", Ty.String) ]
           ~body:(Field_set (This, "name", Var "n"))
      |> Builder.method_ "m" [ ("x", Ty.Int) ] Ty.Int ~body
      |> Builder.build;
      Builder.class_ ~ns:[ "f" ] "B" |> Builder.build;
    ]

(* A parsed document without the digest attribute on its root, which
   these readers accept unchecked: a mutation then reaches the reader
   instead of failing the digest. *)
let parsed_doc s =
  match Xml.parse s with
  | Ok (Xml.Element (tag, attrs, cs)) ->
      Xml.Element (tag, List.filter (fun (k, _) -> k <> "digest") attrs, cs)
  | Ok x -> x
  | Error e -> Format.kasprintf failwith "%a" Xml.pp_error e

(* The documents mutated, by reader: the every-form assembly first,
   then workload and demo assemblies; the type descriptions of their
   classes; envelopes of both codecs, versioned. *)
let mutation_docs =
  let asms =
    [
      every_form;
      Workload.family ~index:3 ~flavor:Workload.Trap_arity;
      Workload.family ~index:7 ~flavor:Workload.Conformant;
      Demo.news_assembly ();
    ]
  in
  let envelope codec =
    Env.make walk_registry ~codec
      ~version_of:(fun ~assembly:_ -> 2)
      ~download_path:(fun ~assembly -> "asm://h/" ^ assembly)
      (random_graph 7)
  in
  [
    ( `Assembly,
      List.map (fun a -> parsed_doc (Pti_serial.Assembly_xml.to_string a)) asms
    );
    ( `Tdesc,
      List.concat_map
        (fun a ->
          List.map
            (fun cd -> parsed_doc (Td.to_xml_string (Td.of_class cd)))
            a.Assembly.asm_classes)
        asms );
    ( `Envelope,
      List.map
        (fun codec -> parsed_doc (Env.to_string (envelope codec)))
        [ Env.Binary; Env.Soap ] );
  ]

(* Both refuse, or both read equal values ([compare], so a nan read
   from a corrupted float equals itself). *)
let readers_agree reference fresh =
  match (reference, fresh) with
  | Ok a, Ok b -> compare a b = 0
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

(* Whether the reference and the rewrite read the document [s] to the
   same outcome, and whether the rewrite reads a value. A reader that
   raises fails the test that called it. *)
let read_both kind s =
  let agree reference fresh =
    (readers_agree reference fresh, Result.is_ok fresh)
  in
  match kind with
  | `Assembly ->
      agree
        (Reference.Assembly_xml.of_string s)
        (Pti_serial.Assembly_xml.of_string s)
  | `Tdesc -> agree (Reference.td_of_xml_string s) (Td.of_xml_string s)
  | `Envelope -> agree (Reference.Envelope.of_string s) (Env.of_string s)

(* The elements of a document, in document order. *)
let rec elements_of = function
  | Xml.Element (_, _, cs) as x -> x :: List.concat_map elements_of cs
  | _ -> []

(* The document with [f] applied to its [k]th element. *)
let at_nth k f x =
  let n = ref (-1) in
  let rec go = function
    | Xml.Element (tag, attrs, cs) ->
        incr n;
        if !n = k then f tag attrs cs
        else Xml.Element (tag, attrs, List.map go cs)
    | other -> other
  in
  go x

(* Attribute values of every kind the readers parse. *)
let values =
  [| ""; "x"; "0"; "1"; "-1"; "-7"; "256"; "true"; "false"; "nan";
     "0x1p+1"; "int"; "string"; "object"; "int[]"; "a.B"; "public";
     "private"; "class"; "interface"; "+"; "!"; "99999999999999999999";
     "00000000-0000-0000-0000-000000000000"; "soap"; "binary"; "AAAA" |]

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* One structural mutation of the element [tag attrs cs]: drop or
   rename an attribute, corrupt its value, delete, duplicate or reorder
   a child, or rename the tag. Names are drawn from the document's own
   [tags] and attribute [names], so a renamed tag or attribute is often
   one the reader knows. An element without attributes gets its tag
   renamed instead, one without children an attribute added. *)
let mutate_element rng ~tags ~names tag attrs cs =
  let either name f = if Random.State.bool rng then f () else name ^ "x" in
  let some_value () = pick rng (Array.to_list values) in
  let on_attr f =
    match attrs with
    | [] -> Xml.Element (either tag (fun () -> pick rng tags), attrs, cs)
    | _ ->
        let k = Random.State.int rng (List.length attrs) in
        let edit i a = if i = k then f a else [ a ] in
        Xml.Element (tag, List.concat (List.mapi edit attrs), cs)
  in
  let on_child f =
    match cs with
    | [] -> Xml.Element (tag, (pick rng names, some_value ()) :: attrs, cs)
    | _ ->
        let i = Random.State.int rng (List.length cs) in
        Xml.Element (tag, attrs, f i (List.nth cs i))
  in
  match Random.State.int rng 7 with
  | 0 -> on_attr (fun _ -> [])
  | 1 -> on_attr (fun (k, v) -> [ (either k (fun () -> pick rng names), v) ])
  | 2 -> on_attr (fun (k, v) -> [ (k, either v some_value) ])
  | 3 -> on_child (fun i _ -> List.filteri (fun j _ -> j <> i) cs)
  | 4 ->
      let twice i j d = if j = i then [ d; d ] else [ d ] in
      on_child (fun i _ -> List.concat (List.mapi (twice i) cs))
  | 5 ->
      on_child (fun i c ->
          let j = Random.State.int rng (List.length cs) in
          let d = List.nth cs j in
          List.mapi (fun k e -> if k = i then d else if k = j then c else e) cs)
  | _ -> Xml.Element (either tag (fun () -> pick rng tags), attrs, cs)

(* The [seed]th mutated document, of one to three mutations, read by
   both: its kind and {!read_both}'s answer. *)
let mutated_read seed =
  let rng = Random.State.make [| seed |] in
  let kind, docs = pick rng mutation_docs in
  let doc = pick rng docs in
  let elements = elements_of doc in
  let names_of f = List.sort_uniq compare (List.concat_map f elements) in
  let tags = names_of (function Xml.Element (t, _, _) -> [ t ] | _ -> [])
  and names =
    names_of (function Xml.Element (_, a, _) -> List.map fst a | _ -> [])
  in
  let mutated = ref doc in
  for _ = 0 to Random.State.int rng 2 do
    mutated :=
      at_nth
        (Random.State.int rng (List.length (elements_of !mutated)))
        (mutate_element rng ~tags ~names)
        !mutated
  done;
  (kind, read_both kind (Xml.to_string !mutated))

let prop_xml_readers_under_mutation =
  QCheck.Test.make ~name:"xml readers under mutation agree with the reference"
    ~count:20_000 QCheck.int
    (fun seed -> fst (snd (mutated_read seed)))

(* The mutations reach the readers: of each kind of document, some
   mutated copies still read and some are refused. *)
let test_xml_mutations_reach_readers () =
  let outcomes = Hashtbl.create 6 in
  let count key = Option.value ~default:0 (Hashtbl.find_opt outcomes key) in
  for seed = 0 to 599 do
    let kind, (_, ok) = mutated_read seed in
    Hashtbl.replace outcomes (kind, ok) (1 + count (kind, ok))
  done;
  List.iter
    (fun (kind, what) ->
      let read = count (kind, true) and refused = count (kind, false) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d read, %d refused" what read refused)
        true
        (read >= 30 && refused >= 30))
    [ (`Assembly, "assemblies"); (`Tdesc, "type descriptions");
      (`Envelope, "envelopes") ]

(* Every attribute of the every-form assembly, of its classes' type
   descriptions and of both envelopes set to each of [values], one at
   a time: the rewrite reads each copy as the reference does. *)
let test_xml_readers_every_value () =
  let first kind n =
    List.filteri (fun i _ -> i < n) (List.assoc kind mutation_docs)
    |> List.map (fun d -> (kind, d))
  in
  let docs =
    first `Assembly 1
    @ first `Tdesc (List.length every_form.Assembly.asm_classes)
    @ first `Envelope 2
  in
  let reads = ref 0 in
  let set j v tag attrs cs =
    let edit i (n, old) = (n, if i = j then v else old) in
    Xml.Element (tag, List.mapi edit attrs, cs)
  in
  List.iter
    (fun (kind, doc) ->
      List.iteri
        (fun k e ->
          let attrs = match e with Xml.Element (_, a, _) -> a | _ -> [] in
          List.iteri
            (fun j _ ->
              Array.iter
                (fun v ->
                  incr reads;
                  let s = Xml.to_string (at_nth k (set j v) doc) in
                  if not (fst (read_both kind s)) then
                    Alcotest.failf
                      "element %d, attribute %d = %S: the readers disagree" k
                      j v)
                values)
            attrs)
        (elements_of doc))
    docs;
  Alcotest.(check bool)
    (Printf.sprintf "%d documents read" !reads)
    true (!reads > 1000)

(* ------------------ sealed binary frames, hostile edits ------------- *)

module Bio = Pti_serial.Bytes_io
module Abin = Pti_serial.Assembly_bin

(* Every flavor of workload family at both schema revisions, the
   interest assembly and [every_form]. *)
let frame_assemblies =
  every_form :: Workload.interest_assembly ()
  :: List.concat_map
       (fun flavor ->
         List.map
           (fun version -> Workload.family_v ~version ~index:3 ~flavor)
           [ 1; 2 ])
       Workload.[ Conformant; Trap_missing; Trap_arity; Trap_fieldtype; Typo 2 ]

(* The layout of a class as PTID writes it and, with [bodies], as PTIA
   does: [str] steps over a length-prefixed string, [list] over a
   counted list. *)
let walk_class ~bodies r ~str ~list =
  let module R = Bio.Reader in
  let byte () = ignore (R.u8 r) in
  let mods () = str (); byte (); byte () in
  let params () = list (fun () -> str (); str ()) in
  let rec expr tag =
    let e () = expr (R.u8 r) in
    match tag with
    | 1 | 7 -> ()
    | 2 | 6 -> byte ()
    | 3 -> ignore (R.zigzag r)
    | 4 -> ignore (R.f64 r)
    | 5 | 8 -> str ()
    | 9 -> str (); e (); e ()
    | 10 -> str (); e ()
    | 11 -> e (); str ()
    | 12 | 26 -> e (); str (); e ()
    | 13 -> e (); str (); list e
    | 14 -> str (); str (); list e
    | 15 | 16 -> str (); list e
    | 17 | 21 -> e (); e ()
    | 18 | 20 -> e (); e (); e ()
    | 19 | 25 -> e ()
    | 22 -> list e
    | 23 -> byte (); e (); e ()
    | 24 -> byte (); e ()
    | t -> Alcotest.failf "walker: tag %d" t
  in
  let body () = if bodies then match R.u8 r with 0 -> () | t -> expr t in
  str (); list str; str (); str (); str ();
  if R.bool r then str ();
  list str;
  list (fun () -> str (); str (); mods (); body ());
  list (fun () -> params (); mods (); body ());
  list (fun () -> str (); params (); str (); mods (); body ())

let walk_assembly r ~str ~list =
  str ();
  ignore (Bio.Reader.zigzag r);
  list str;
  list (fun () -> walk_class ~bodies:true r ~str ~list)

(* A PTIB payload: [str] steps over a length-prefixed string, [list]
   over an object's fields or an array's items. A name's first use
   carries its text. *)
let walk_payload r ~str ~list =
  let module R = Bio.Reader in
  let names = ref 0 in
  let name () =
    if R.varint r = !names then begin
      incr names;
      str ()
    end
  in
  let rec value () =
    match R.u8 r with
    | 0 -> ()
    | 1 | 5 -> ignore (R.u8 r)
    | 2 -> ignore (R.zigzag r)
    | 3 -> ignore (R.f64 r)
    | 4 -> str ()
    | 6 ->
        ignore (R.varint r);
        name ();
        list (fun () -> name (); value ())
    | 7 -> ignore (R.varint r)
    | 8 -> str (); list value
    | t -> Alcotest.failf "walker: tag %d" t
  in
  value ()

(* The body offset of every count and length in a frame's body. *)
let count_offsets walk body =
  let r = Bio.Reader.create body in
  let marks = ref [] in
  let mark () = marks := Bio.Reader.pos r :: !marks in
  let str () = mark (); ignore (Bio.Reader.skip_string r) in
  let list f = mark (); for _ = 1 to Bio.Reader.varint r do f () done in
  walk r ~str ~list;
  if not (Bio.Reader.at_end r) then Alcotest.fail "walker stopped short";
  List.rev !marks

(* Each kind of hostile edit of a sealed frame: every truncation and
   every count or length raised past the bytes left, both resealed, and
   every single-byte flip left unsealed. *)
let hostile_edits ~magic ~walk frame =
  let header = String.length magic + 8 in
  let body = String.sub frame header (String.length frame - header) in
  let n = String.length body in
  let inflate at =
    let r = Bio.Reader.create ~pos:at body in
    ignore (Bio.Reader.varint r);
    let w = Bio.Writer.create () in
    Bio.Writer.varint w (n + 1);
    let rest = Bio.Reader.pos r in
    Bio.seal ~magic
      (String.concat ""
         [ String.sub body 0 at; Bio.Writer.contents w;
           String.sub body rest (n - rest) ])
  in
  let flip i mask =
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code frame.[i] lxor mask));
    Bytes.to_string b
  in
  [
    ( "truncation",
      List.init n (fun k -> Bio.seal ~magic (String.sub body 0 k)) );
    ("inflated count", List.map inflate (count_offsets walk body));
    ( "byte flip",
      List.concat_map
        (fun mask -> List.init (String.length frame) (fun i -> flip i mask))
        [ 0x01; 0x80; 0xff ] );
  ]

(* Every edit is an [Error], none raises, and each decode allocates at
   most 16 words per input byte. *)
let refuses_hostile_edits ~what ~magic ~walk decode frame =
  if Result.is_error (decode frame) then Alcotest.failf "%s: not decoded" what;
  List.iter
    (fun (kind, edits) ->
      if edits = [] then Alcotest.failf "%s: no %s" what kind;
      List.iteri
        (fun i edited ->
          let before = Gc.minor_words () in
          let result =
            try decode edited
            with e ->
              Alcotest.failf "%s, %s %d raised %s" what kind i
                (Printexc.to_string e)
          in
          let words = Gc.minor_words () -. before in
          if Result.is_ok result then
            Alcotest.failf "%s, %s %d decoded" what kind i;
          if words > 16. *. float (String.length edited) then
            Alcotest.failf "%s, %s %d: %.0f words for %d bytes" what kind i
              words (String.length edited))
        edits)
    (hostile_edits ~magic ~walk frame)

(* Random byte replacements inside [every_form]'s frame, resealed: the
   tags, operators, counts and type strings they garble reach the
   decoder, which may read a different assembly but never raises and
   stays within 16 words per input byte. *)
let prop_resealed_assembly_mutations =
  let magic = "PTIA\x01" in
  let frame = Abin.to_string every_form in
  let header = String.length magic + 8 in
  let body = String.sub frame header (String.length frame - header) in
  QCheck.Test.make ~name:"resealed assembly mutations never raise" ~count:2000
    QCheck.(
      list_of_size Gen.(1 -- 3)
        (pair (int_bound (String.length body - 1)) (int_bound 255)))
    (fun edits ->
      let b = Bytes.of_string body in
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) edits;
      let s = Bio.seal ~magic (Bytes.to_string b) in
      let before = Gc.minor_words () in
      match Abin.of_string s with
      | Ok _ | Error _ ->
          Gc.minor_words () -. before <= 16. *. float (String.length s)
      | exception _ -> false)

let test_hostile_assembly_frames () =
  List.iter
    (fun (a : Assembly.t) ->
      let frame = Abin.to_string a in
      (match Abin.of_string frame with
      | Ok a' when compare a a' = 0 -> ()
      | _ -> Alcotest.failf "%s: no round trip" a.asm_name);
      refuses_hostile_edits ~what:a.asm_name ~magic:"PTIA\x01"
        ~walk:walk_assembly Abin.of_string frame)
    frame_assemblies

let test_hostile_description_frames () =
  List.iter
    (fun (a : Assembly.t) ->
      List.iter
        (fun cd ->
          let d = Td.of_class cd in
          refuses_hostile_edits ~what:(Td.qualified_name d) ~magic:"PTID\x01"
            ~walk:(walk_class ~bodies:false)
            Td.of_binary_string (Td.to_binary_string d))
        a.asm_classes)
    frame_assemblies

(* Each family's Person with its home Address and itself as its spouse,
   so the graph holds a reference back to an object already read,
   decoded through a layout cache as a peer decodes. *)
let test_hostile_payload_frames () =
  List.iter
    (fun (version, flavor) ->
      let r = Registry.create () in
      Assembly.load r (Workload.family_v ~version ~index:3 ~flavor);
      let name = Workload.person_name ~index:3 ~flavor in
      let home =
        Eval.construct r
          (String.sub name 0 (String.rindex name '.') ^ ".Address")
          [ Value.Vstring "Main St"; Value.Vstring "Springfield" ]
      in
      let p =
        Workload.make_person r ~index:3 ~flavor ~name:"Ann" ~age:41
      in
      (match p with
      | Value.Vobj o ->
          Value.set_field o "home" home;
          Value.set_field o "spouse" p
      | _ -> Alcotest.fail "not an object");
      let layouts = Hashtbl.create 4 in
      let layout cd =
        match Hashtbl.find_opt layouts cd.Meta.td_guid with
        | Some ly -> ly
        | None ->
            let ly = Registry.layout r cd in
            Hashtbl.add layouts cd.Meta.td_guid ly;
            ly
      in
      let frame = fst (Bin.encode p) in
      (match Bin.decode ~layout r frame with
      | Ok v when Value.equal_deep v p -> ()
      | _ -> Alcotest.failf "%s v%d: no round trip" name version);
      refuses_hostile_edits
        ~what:(Printf.sprintf "%s v%d" name version)
        ~magic:"PTIB\x02" ~walk:walk_payload (Bin.decode ~layout r) frame)
    (List.concat_map
       (fun flavor -> [ (1, flavor); (2, flavor) ])
       Workload.
         [ Conformant; Trap_missing; Trap_arity; Trap_fieldtype; Typo 2 ])

let () =
  Alcotest.run "properties"
    [
      ( "fuzz",
        [
          QCheck_alcotest.to_alcotest prop_ty_of_string_unchanged;
          QCheck_alcotest.to_alcotest prop_xml_parser_total;
          QCheck_alcotest.to_alcotest prop_xml_parser_on_mutated_document;
          QCheck_alcotest.to_alcotest prop_bin_decoder_total;
          QCheck_alcotest.to_alcotest prop_tdesc_decoder_total;
          QCheck_alcotest.to_alcotest prop_idl_parser_total;
          QCheck_alcotest.to_alcotest prop_idl_parser_total_on_mutations;
        ] );
      ( "envelope",
        [ QCheck_alcotest.to_alcotest prop_envelope_lists_walk_classes ] );
      ( "frames",
        [
          Alcotest.test_case "PTIA edits refused" `Quick
            test_hostile_assembly_frames;
          Alcotest.test_case "PTID edits refused" `Quick
            test_hostile_description_frames;
          Alcotest.test_case "PTIB edits refused" `Quick
            test_hostile_payload_frames;
          QCheck_alcotest.to_alcotest prop_resealed_assembly_mutations;
        ] );
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_encodings_and_digests_unchanged;
          Alcotest.test_case "decoding matches the reference" `Quick
            test_decoding_matches_reference;
          QCheck_alcotest.to_alcotest prop_decoding_under_mutation;
          QCheck_alcotest.to_alcotest prop_xml_readers_under_mutation;
          Alcotest.test_case "xml mutations reach the readers" `Quick
            test_xml_mutations_reach_readers;
          Alcotest.test_case "every attribute value read as before" `Quick
            test_xml_readers_every_value;
        ] );
      ( "conformance",
        [
          QCheck_alcotest.to_alcotest prop_conformant_families_conform;
          QCheck_alcotest.to_alcotest prop_conformance_deterministic;
          QCheck_alcotest.to_alcotest prop_family_pairs_transitive_instance;
          QCheck_alcotest.to_alcotest prop_mapping_complete;
          QCheck_alcotest.to_alcotest prop_permutations_are_bijections;
        ] );
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest prop_protocol_conserves_objects;
          QCheck_alcotest.to_alcotest prop_protocol_deterministic;
          QCheck_alcotest.to_alcotest
            prop_protocol_delivery_counts_match_conformance;
        ] );
    ]
