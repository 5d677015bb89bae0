(* Tests for the XML substrate: printing, parsing, escaping, queries. *)

module Xml = Pti_xml.Xml
module Digest_attr = Pti_xml.Digest_attr

(* The parser and printer this module replaced, kept verbatim as the
   reference the differential properties below hold the rewrite to:
   the same bytes out of the printer, and from the parser the same
   trees and the same errors, at the same positions. *)
module Reference = struct
  open Xml

  type error = Xml.error = { position : int; message : string }

  let escape_with escape_quotes s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '<' -> Buffer.add_string b "&lt;"
        | '>' -> Buffer.add_string b "&gt;"
        | '&' -> Buffer.add_string b "&amp;"
        | '"' when escape_quotes -> Buffer.add_string b "&quot;"
        | '\'' when escape_quotes -> Buffer.add_string b "&apos;"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let escape_text s = escape_with false s
  let escape_attr s = escape_with true s

  let add_attrs b attrs =
    List.iter
      (fun (k, v) ->
        Buffer.add_char b ' ';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        Buffer.add_string b (escape_attr v);
        Buffer.add_char b '"')
      attrs

  let rec add_compact b = function
    | Text s -> Buffer.add_string b (escape_text s)
    | Cdata s ->
        Buffer.add_string b "<![CDATA[";
        Buffer.add_string b s;
        Buffer.add_string b "]]>"
    | Comment s ->
        Buffer.add_string b "<!--";
        Buffer.add_string b s;
        Buffer.add_string b "-->"
    | Element (tag, attrs, cs) ->
        Buffer.add_char b '<';
        Buffer.add_string b tag;
        add_attrs b attrs;
        if cs = [] then Buffer.add_string b "/>"
        else begin
          Buffer.add_char b '>';
          List.iter (add_compact b) cs;
          Buffer.add_string b "</";
          Buffer.add_string b tag;
          Buffer.add_char b '>'
        end

  let decl_string = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"

  let to_string ?(decl = false) x =
    let b = Buffer.create 256 in
    if decl then Buffer.add_string b decl_string;
    add_compact b x;
    Buffer.contents b

  let to_string_pretty ?(decl = false) ?(indent = 2) x =
    let b = Buffer.create 256 in
    if decl then begin
      Buffer.add_string b decl_string;
      Buffer.add_char b '\n'
    end;
    let pad depth = Buffer.add_string b (String.make (depth * indent) ' ') in
    (* An element renders inline when all its children are character data. *)
    let inline_children cs =
      List.for_all (function Text _ | Cdata _ -> true | _ -> false) cs
    in
    let rec go depth node =
      match node with
      | Text s ->
          pad depth;
          Buffer.add_string b (escape_text s);
          Buffer.add_char b '\n'
      | Cdata s ->
          pad depth;
          Buffer.add_string b "<![CDATA[";
          Buffer.add_string b s;
          Buffer.add_string b "]]>\n"
      | Comment s ->
          pad depth;
          Buffer.add_string b "<!--";
          Buffer.add_string b s;
          Buffer.add_string b "-->\n"
      | Element (tag, attrs, []) ->
          pad depth;
          Buffer.add_char b '<';
          Buffer.add_string b tag;
          add_attrs b attrs;
          Buffer.add_string b "/>\n"
      | Element (tag, attrs, cs) when inline_children cs ->
          pad depth;
          Buffer.add_char b '<';
          Buffer.add_string b tag;
          add_attrs b attrs;
          Buffer.add_char b '>';
          List.iter (add_compact b) cs;
          Buffer.add_string b "</";
          Buffer.add_string b tag;
          Buffer.add_string b ">\n"
      | Element (tag, attrs, cs) ->
          pad depth;
          Buffer.add_char b '<';
          Buffer.add_string b tag;
          add_attrs b attrs;
          Buffer.add_string b ">\n";
          List.iter (go (depth + 1)) cs;
          pad depth;
          Buffer.add_string b "</";
          Buffer.add_string b tag;
          Buffer.add_string b ">\n"
    in
    go 0 x;
    Buffer.contents b

  exception Err of error

  type state = { src : string; mutable pos : int }

  let fail st message = raise (Err { position = st.pos; message })
  let eof st = st.pos >= String.length st.src
  let peek_char st = if eof st then '\000' else st.src.[st.pos]
  let advance st = st.pos <- st.pos + 1

  let looking_at st s =
    let n = String.length s in
    st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

  let expect st s =
    if looking_at st s then st.pos <- st.pos + String.length s
    else fail st (Printf.sprintf "expected %S" s)

  let skip_ws st =
    while
      (not (eof st))
      && match peek_char st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance st
    done

  let is_name_start = function
    | 'A' .. 'Z' | 'a' .. 'z' | '_' | ':' -> true
    | _ -> false

  let is_name_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | ':' | '-' | '.' -> true
    | _ -> false

  let parse_name st =
    if not (is_name_start (peek_char st)) then fail st "expected a name";
    let start = st.pos in
    while (not (eof st)) && is_name_char (peek_char st) do
      advance st
    done;
    String.sub st.src start (st.pos - start)

  let parse_reference st =
    (* Called on '&'. *)
    advance st;
    let start = st.pos in
    while (not (eof st)) && peek_char st <> ';' do
      advance st
    done;
    if eof st then fail st "unterminated entity reference";
    let name = String.sub st.src start (st.pos - start) in
    advance st;
    match name with
    | "lt" -> "<"
    | "gt" -> ">"
    | "amp" -> "&"
    | "quot" -> "\""
    | "apos" -> "'"
    | _ ->
        if String.length name > 1 && name.[0] = '#' then begin
          let code =
            try
              if name.[1] = 'x' || name.[1] = 'X' then
                int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
              else int_of_string (String.sub name 1 (String.length name - 1))
            with Failure _ -> fail st "bad character reference"
          in
          if code < 0 || code > 0x10FFFF then fail st "character out of range";
          (* Encode as UTF-8. *)
          let b = Buffer.create 4 in
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else if code < 0x10000 then begin
            Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
          end;
          Buffer.contents b
        end
        else fail st (Printf.sprintf "unknown entity &%s;" name)

  let parse_attr_value st =
    let quote = peek_char st in
    if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
    advance st;
    let b = Buffer.create 16 in
    let rec go () =
      if eof st then fail st "unterminated attribute value"
      else
        let c = peek_char st in
        if c = quote then advance st
        else if c = '&' then begin
          Buffer.add_string b (parse_reference st);
          go ()
        end
        else begin
          Buffer.add_char b c;
          advance st;
          go ()
        end
    in
    go ();
    Buffer.contents b

  let parse_attrs st =
    let rec go acc =
      skip_ws st;
      if is_name_start (peek_char st) then begin
        let name = parse_name st in
        skip_ws st;
        expect st "=";
        skip_ws st;
        let value = parse_attr_value st in
        go ((name, value) :: acc)
      end
      else List.rev acc
    in
    go []

  let skip_until st marker =
    let n = String.length st.src in
    let rec go () =
      if st.pos >= n then fail st (Printf.sprintf "expected %S" marker)
      else if looking_at st marker then st.pos <- st.pos + String.length marker
      else begin
        advance st;
        go ()
      end
    in
    go ()

  let parse_cdata st =
    expect st "<![CDATA[";
    let start = st.pos in
    skip_until st "]]>";
    Cdata (String.sub st.src start (st.pos - 3 - start))

  let parse_comment st =
    expect st "<!--";
    let start = st.pos in
    skip_until st "-->";
    Comment (String.sub st.src start (st.pos - 3 - start))

  let rec parse_element st =
    expect st "<";
    let name = parse_name st in
    let attrs = parse_attrs st in
    skip_ws st;
    if looking_at st "/>" then begin
      expect st "/>";
      Element (name, attrs, [])
    end
    else begin
      expect st ">";
      let children = parse_content st in
      expect st "</";
      let close = parse_name st in
      if not (String.equal close name) then
        fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" close name);
      skip_ws st;
      expect st ">";
      Element (name, attrs, children)
    end

  and parse_content st =
    let items = ref [] in
    let buf = Buffer.create 16 in
    let flush_text () =
      if Buffer.length buf > 0 then begin
        items := Text (Buffer.contents buf) :: !items;
        Buffer.clear buf
      end
    in
    let rec go () =
      if eof st then fail st "unterminated element"
      else if looking_at st "</" then flush_text ()
      else if looking_at st "<![CDATA[" then begin
        flush_text ();
        items := parse_cdata st :: !items;
        go ()
      end
      else if looking_at st "<!--" then begin
        flush_text ();
        items := parse_comment st :: !items;
        go ()
      end
      else if looking_at st "<?" then begin
        flush_text ();
        skip_until st "?>";
        go ()
      end
      else if peek_char st = '<' then begin
        flush_text ();
        items := parse_element st :: !items;
        go ()
      end
      else if peek_char st = '&' then begin
        Buffer.add_string buf (parse_reference st);
        go ()
      end
      else begin
        Buffer.add_char buf (peek_char st);
        advance st;
        go ()
      end
    in
    go ();
    List.rev !items

  let parse_prolog st =
    let rec go () =
      skip_ws st;
      if looking_at st "<?" then begin
        skip_until st "?>";
        go ()
      end
      else if looking_at st "<!--" then begin
        ignore (parse_comment st);
        go ()
      end
      else if looking_at st "<!DOCTYPE" then begin
        skip_until st ">";
        go ()
      end
    in
    go ()

  let parse s =
    let st = { src = s; pos = 0 } in
    try
      parse_prolog st;
      if eof st then Error { position = st.pos; message = "empty document" }
      else begin
        let root = parse_element st in
        (* Trailing comments / whitespace are allowed. *)
        let rec tail () =
          skip_ws st;
          if looking_at st "<!--" then begin
            ignore (parse_comment st);
            tail ()
          end
        in
        tail ();
        if not (eof st) then
          Error { position = st.pos; message = "trailing content after root" }
        else Ok root
      end
    with Err e -> Error e
end

let test_print_compact () =
  let doc =
    Xml.elt "root"
      ~attrs:[ ("a", "1"); ("b", "x&y") ]
      [ Xml.leaf "child" "hi"; Xml.elt "empty" [] ]
  in
  Alcotest.(check string) "compact"
    "<root a=\"1\" b=\"x&amp;y\"><child>hi</child><empty/></root>"
    (Xml.to_string doc)

let test_escaping () =
  Alcotest.(check string) "text" "a&lt;b&gt;c&amp;d"
    (Xml.escape_text "a<b>c&d");
  Alcotest.(check string) "attr quotes" "&quot;&apos;"
    (Xml.escape_attr "\"'")

let test_parse_simple () =
  let x = Xml.parse_exn "<a p=\"1\"><b>text</b><c/></a>" in
  Alcotest.(check (option string)) "tag" (Some "a") (Xml.tag x);
  Alcotest.(check (option string)) "attr" (Some "1") (Xml.attr "p" x);
  Alcotest.(check string) "text" "text"
    (Xml.text_content (Xml.child_exn "b" x));
  Alcotest.(check int) "children" 2 (List.length (Xml.children x))

let test_parse_entities () =
  let x = Xml.parse_exn "<a>&lt;tag&gt; &amp; &quot;quotes&quot; &#65;&#x42;</a>" in
  Alcotest.(check string) "entities" "<tag> & \"quotes\" AB" (Xml.text_content x)

let test_parse_cdata_comment () =
  let x = Xml.parse_exn "<a><!-- note --><![CDATA[<raw&stuff>]]></a>" in
  Alcotest.(check string) "cdata preserved" "<raw&stuff>" (Xml.text_content x)

let test_parse_prolog_doctype () =
  let x =
    Xml.parse_exn
      "<?xml version=\"1.0\"?><!DOCTYPE a><!-- hello --><a/><!-- bye -->"
  in
  Alcotest.(check (option string)) "root" (Some "a") (Xml.tag x)

let test_parse_errors () =
  List.iter
    (fun s ->
      match Xml.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should not parse: %s" s)
    [
      ""; "<a>"; "<a></b>"; "<a attr></a>"; "text only"; "<a/><b/>";
      "<a>&unknown;</a>"; "<a><![CDATA[open</a>";
    ]

let test_path_and_childs () =
  let x = Xml.parse_exn "<a><b><c k=\"v\"/></b><b/><d/></a>" in
  (match Xml.path [ "b"; "c" ] x with
  | Some c -> Alcotest.(check (option string)) "path attr" (Some "v") (Xml.attr "k" c)
  | None -> Alcotest.fail "path failed");
  Alcotest.(check int) "childs count" 2 (List.length (Xml.childs "b" x));
  Alcotest.(check bool) "path miss" true (Xml.path [ "z" ] x = None)

let test_pretty_roundtrip () =
  let doc =
    Xml.elt "envelope"
      [
        Xml.elt "type" ~attrs:[ ("name", "Person") ] [];
        Xml.elt "payload" [ Xml.leaf "obj" "data" ];
      ]
  in
  let pretty = Xml.to_string_pretty doc in
  Alcotest.(check bool) "has newlines" true (String.contains pretty '\n');
  let reparsed = Xml.parse_exn pretty in
  (* The pretty form adds whitespace text nodes; compare structure by
     element tags only. *)
  let rec tags x =
    match x with
    | Xml.Element (t, _, cs) -> t :: List.concat_map tags cs
    | _ -> []
  in
  Alcotest.(check (list string)) "structure preserved" (tags doc) (tags reparsed)

let test_attr_escaping_roundtrip () =
  let doc =
    Xml.elt "a" ~attrs:[ ("k", "quotes \" ' and <tags> & amps") ] []
  in
  let reparsed = Xml.parse_exn (Xml.to_string doc) in
  Alcotest.(check (option string)) "attribute survives"
    (Some "quotes \" ' and <tags> & amps")
    (Xml.attr "k" reparsed)

let test_size_bytes () =
  let doc = Xml.leaf "a" "xyz" in
  Alcotest.(check int) "size" (String.length "<a>xyz</a>") (Xml.size_bytes doc)

(* Generator for random XML trees with printable text. *)
let gen_xml =
  let open QCheck.Gen in
  let tag_g = oneofl [ "a"; "b"; "item"; "node"; "x1" ] in
  let text_g =
    map
      (fun s -> String.concat "" (List.map (String.make 1) s))
      (small_list (oneofl [ 'a'; 'z'; '<'; '&'; '>'; '"'; ' '; '\'' ]))
  in
  let attr_g = pair (oneofl [ "k"; "key"; "n" ]) text_g in
  (* Attributes need distinct names within an element. *)
  let attrs_g =
    map
      (fun l ->
        let seen = Hashtbl.create 4 in
        List.filter
          (fun (k, _) ->
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          l)
      (small_list attr_g)
  in
  fix
    (fun self depth ->
      if depth = 0 then
        map2 (fun t s -> Xml.leaf t s) tag_g text_g
      else
        map3
          (fun t attrs kids -> Xml.elt t ~attrs kids)
          tag_g attrs_g
          (list_size (int_bound 3) (self (depth - 1))))
    2

(* Adjacent text nodes merge on reparse; normalize before comparing. *)
let rec normalize x =
  match x with
  | Xml.Element (t, attrs, cs) ->
      let cs = List.filter_map normalize_child cs in
      let rec merge = function
        | Xml.Text a :: Xml.Text b :: rest -> merge (Xml.Text (a ^ b) :: rest)
        | c :: rest -> c :: merge rest
        | [] -> []
      in
      Xml.Element (t, attrs, merge cs)
  | other -> other

and normalize_child c =
  match c with
  | Xml.Text "" -> None
  | Xml.Cdata s -> Some (Xml.Text s)  (* cdata and text are equivalent *)
  | Xml.Comment _ -> None
  | _ -> Some (normalize c)

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300
    (QCheck.make gen_xml) (fun doc ->
      match Xml.parse (Xml.to_string doc) with
      | Error _ -> false
      | Ok parsed -> normalize parsed = normalize doc)


(* ------------------------- differential ------------------------- *)

(* Character data holding everything the printer escapes, plus bytes it
   passes through untouched. *)
let gen_chars =
  QCheck.Gen.(
    string_size
      ~gen:(oneofl [ 'a'; 'Z'; ' '; '<'; '>'; '&'; '"'; '\''; '\n'; ']'; '-';
                     '?'; '\xc3' ])
      (int_bound 12))

let gen_name = QCheck.Gen.oneofl [ "a"; "b"; "item"; "x1"; "n:s"; "_u"; "a-b.c" ]

let gen_element self depth =
  QCheck.Gen.(
    map3
      (fun tag attrs cs -> Xml.Element (tag, attrs, cs))
      gen_name
      (small_list (pair gen_name gen_chars))
      (list_size (int_bound 4) (self (depth - 1))))

(* Random trees: every node kind, attributes and text needing escapes. *)
let gen_node =
  QCheck.Gen.(
    fix (fun self depth ->
        if depth = 0 then map Xml.text gen_chars
        else
          frequency
            [
              (2, map Xml.text gen_chars);
              (1, map (fun s -> Xml.Cdata s) gen_chars);
              (1, map (fun s -> Xml.Comment s) gen_chars);
              (4, gen_element self depth);
            ]))

let gen_tree = QCheck.Gen.(int_bound 4 >>= fun d -> gen_element gen_node (d + 1))

(* Documents written by hand rather than by the printer: named and
   numeric entity references (good and bad), CDATA, comments, processing
   instructions, a prolog with a declaration and a DOCTYPE, whitespace
   inside tags, both quote styles. *)
let gen_document =
  let open QCheck.Gen in
  let reference =
    oneofl
      [ "&lt;"; "&gt;"; "&amp;"; "&quot;"; "&apos;"; "&#65;"; "&#x42;";
        "&#X4E2D;"; "&#128512;"; "&#0;"; "&#x;"; "&#;"; "&nbsp;";
        "&#1114112;"; "&#-1;"; "&#1_0;"; "&#0x41;" ]
  in
  let plain =
    oneofl [ "a"; "text"; " "; "\n"; ">"; "\""; "'"; "]]"; "\xc3\xa9" ]
  in
  let run =
    map (String.concat "")
      (list_size (int_bound 4) (frequency [ (3, plain); (1, reference) ]))
  in
  let ws = oneofl [ ""; " "; "\n  "; "\t" ] in
  let ws1 = oneofl [ " "; "\n  "; "\t" ] in
  let attr =
    let* q = oneofl [ '"'; '\'' ] in
    let* v = run in
    let v = String.map (fun c -> if c = q then 'q' else c) v in
    map3
      (fun w1 n w2 -> Printf.sprintf "%s%s%s=%s%c%s%c" w1 n w2 w2 q v q)
      ws1 gen_name ws
  in
  let misc =
    oneof
      [
        map (Printf.sprintf "<![CDATA[%s]]>") run;
        map (Printf.sprintf "<!--%s-->") run;
        map (Printf.sprintf "<?pi %s?>") run;
      ]
  in
  let element =
    fix (fun self depth ->
        let* tag = gen_name in
        let* attrs = map (String.concat "") (list_size (int_bound 3) attr) in
        let* w = ws in
        let* content =
          if depth = 0 then run
          else
            map (String.concat "")
              (list_size (int_bound 4)
                 (frequency [ (3, run); (2, self (depth - 1)); (1, misc) ]))
        in
        oneofl
          [
            Printf.sprintf "<%s%s%s/>" tag attrs w;
            Printf.sprintf "<%s%s%s>%s</%s%s>" tag attrs w content tag w;
          ])
  in
  let prolog =
    map (String.concat "")
      (small_list
         (oneofl
            [ " "; "\n"; "<?xml version=\"1.0\"?>"; "<!DOCTYPE a>";
              "<!-- c -->"; "<?x y?>" ]))
  in
  let tail =
    map (String.concat "") (small_list (oneofl [ " "; "\n"; "<!-- t -->" ]))
  in
  map3 (fun p e t -> p ^ e ^ t) prolog (int_bound 3 >>= element) tail

(* A document, or its truncation, or one of its bytes replaced. *)
let gen_damaged doc =
  QCheck.Gen.(
    let* s = doc in
    let n = String.length s in
    frequency
      [
        (1, return s);
        (1, map (fun k -> String.sub s 0 (k mod (n + 1))) nat);
        ( 2,
          map2
            (fun k c ->
              if n = 0 then s
              else
                let b = Bytes.of_string s in
                Bytes.set b (k mod n) c;
                Bytes.to_string b)
            nat char );
      ])

let renderings =
  QCheck.Gen.(
    let* x = gen_tree in
    oneofl
      [ Reference.to_string x; Reference.to_string ~decl:true x;
        Reference.to_string_pretty x; Reference.to_string_pretty ~decl:true x ])

let same_parse s = Xml.parse s = Reference.parse s

let prop_parse_matches_reference_on_renderings =
  QCheck.Test.make ~name:"parser = reference on renderings" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_damaged renderings))
    same_parse

let prop_parse_matches_reference_on_documents =
  QCheck.Test.make ~name:"parser = reference on documents" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_damaged gen_document))
    same_parse

let prop_printer_matches_reference =
  QCheck.Test.make ~name:"printer = reference, byte for byte" ~count:1000
    (QCheck.make QCheck.Gen.(int_bound 4 >>= gen_node)) (fun x ->
      String.equal (Xml.to_string x) (Reference.to_string x)
      && String.equal (Xml.to_string ~decl:true x)
           (Reference.to_string ~decl:true x)
      && String.equal (Xml.to_string_pretty x) (Reference.to_string_pretty x)
      && Xml.size_bytes x = String.length (Reference.to_string x))

let prop_escapes_match_reference =
  QCheck.Test.make ~name:"escapes = reference" ~count:500
    (QCheck.make gen_chars) (fun s ->
      String.equal (Xml.escape_text s) (Reference.escape_text s)
      && String.equal (Xml.escape_attr s) (Reference.escape_attr s))

(* ------------------------- depth limit -------------------------- *)

(* [n] elements, each nested in the one before. *)
let nested n =
  let b = Buffer.create (7 * n) in
  for _ = 1 to n do Buffer.add_string b "<a>" done;
  for _ = 1 to n do Buffer.add_string b "</a>" done;
  Buffer.contents b

let test_depth_limit () =
  (match Xml.parse (nested Xml.max_depth) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "at the limit: %a" Xml.pp_error e);
  let deep = nested 1_000_000 in
  let t0 = Unix.gettimeofday () in
  let r = Xml.parse deep in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match r with
  | Ok _ -> Alcotest.fail "10^6 nested elements parsed"
  | Error e ->
      (* The first element past the limit starts at byte 3 * max_depth. *)
      Alcotest.(check int) "error position" (3 * Xml.max_depth) e.Xml.position);
  Alcotest.(check bool)
    (Printf.sprintf "rejected in %.1f ms (under 50)" ms)
    true (ms < 50.)

(* ------------------------- allocation --------------------------- *)

let minor_words_of f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

(* The parser allocates little more than the tree: on workload family
   7's 4 179-byte assembly document, at most 1.25 words per byte. *)
let test_parse_allocation () =
  let s =
    Pti_serial.Assembly_xml.to_string
      (Pti_demo.Workload.family ~index:7 ~flavor:Pti_demo.Workload.Conformant)
  in
  let per_byte =
    minor_words_of (fun () -> Xml.parse s) /. float_of_int (String.length s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "parse allocates %.2f words per byte (at most 1.25)"
       per_byte)
    true (per_byte <= 1.25)

(* ------------------------- digests ------------------------------ *)

let digested =
  Xml.elt "doc" ~attrs:[ ("name", "n"); ("v", "a<b") ] [ Xml.leaf "c" "x & y" ]

let test_digest_roundtrip () =
  let s = Digest_attr.to_string digested in
  Alcotest.(check string) "digest first, after the tag name"
    (Printf.sprintf "<doc digest=\"%s\"%s"
       (Pti_util.Fnv.hash_hex (Xml.to_string digested))
       (String.sub (Xml.to_string digested) 4
          (String.length (Xml.to_string digested) - 4)))
    s;
  (match Digest_attr.of_string s with
  | Ok x ->
      Alcotest.(check (option string)) "parsed" (Some "n") (Xml.attr "name" x)
  | Error _ -> Alcotest.fail "own rendering rejected");
  match Digest_attr.of_string (Xml.to_string digested) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "a document without a digest is accepted unchecked"

(* The digest covers the bytes as sent with the attribute cut out, so
   it is checked wherever it sits in the root's start tag. *)
let test_digest_position () =
  let d = Pti_util.Fnv.hash_hex (Xml.to_string digested) in
  let with_digest at value =
    let attrs = Xml.(match digested with Element (_, a, _) -> a | _ -> []) in
    let attrs =
      List.filteri (fun i _ -> i < at) attrs
      @ [ ("digest", value) ]
      @ List.filteri (fun i _ -> i >= at) attrs
    in
    Xml.to_string (Xml.Element ("doc", attrs, Xml.children digested))
  in
  List.iter
    (fun at ->
      (match Digest_attr.of_string (with_digest at d) with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "digest at attribute %d rejected" at);
      let wrong = String.map (fun c -> if c = '0' then '1' else '0') d in
      match Digest_attr.of_string (with_digest at wrong) with
      | Error `Mismatch -> ()
      | _ -> Alcotest.failf "wrong digest at attribute %d accepted" at)
    [ 0; 1; 2 ];
  (* Whitespace around the attribute belongs to the cut. *)
  let spaced =
    Printf.sprintf
      "<doc name=\"n\"\n  digest = '%s' v=\"a&lt;b\"><c>x &amp; y</c></doc>" d
  in
  match Digest_attr.of_string spaced with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "digest with surrounding whitespace rejected"

let () =
  Alcotest.run "xml"
    [
      ( "print",
        [
          Alcotest.test_case "compact" `Quick test_print_compact;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "pretty" `Quick test_pretty_roundtrip;
          Alcotest.test_case "size" `Quick test_size_bytes;
          Alcotest.test_case "attr escaping" `Quick
            test_attr_escaping_roundtrip;
        ] );
      ( "parse",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata+comments" `Quick test_parse_cdata_comment;
          Alcotest.test_case "prolog" `Quick test_parse_prolog_doctype;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "queries" `Quick test_path_and_childs;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ]);
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_parse_matches_reference_on_renderings;
          QCheck_alcotest.to_alcotest prop_parse_matches_reference_on_documents;
          QCheck_alcotest.to_alcotest prop_printer_matches_reference;
          QCheck_alcotest.to_alcotest prop_escapes_match_reference;
        ] );
      ( "limits",
        [
          Alcotest.test_case "depth limit" `Quick test_depth_limit;
          Alcotest.test_case "parse allocation" `Quick test_parse_allocation;
        ] );
      ( "digest",
        [
          Alcotest.test_case "roundtrip" `Quick test_digest_roundtrip;
          Alcotest.test_case "position" `Quick test_digest_position;
        ] );
    ]
