type t =
  | Element of string * (string * string) list * t list
  | Text of string
  | Cdata of string
  | Comment of string

let elt ?(attrs = []) tag children = Element (tag, attrs, children)
let text s = Text s
let leaf ?attrs tag s = elt ?attrs tag [ Text s ]

let tag = function Element (n, _, _) -> Some n | Text _ | Cdata _ | Comment _ -> None

let attr name = function
  | Element (_, attrs, _) -> List.assoc_opt name attrs
  | Text _ | Cdata _ | Comment _ -> None

let attr_exn name x =
  match attr name x with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Xml.attr_exn: no attribute %S" name)

let children = function
  | Element (_, _, cs) -> cs
  | Text _ | Cdata _ | Comment _ -> []

let child name x =
  List.find_opt
    (function Element (n, _, _) -> String.equal n name | _ -> false)
    (children x)

let child_exn name x =
  match child name x with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Xml.child_exn: no child %S" name)

let childs name x =
  List.filter
    (function Element (n, _, _) -> String.equal n name | _ -> false)
    (children x)

let rec text_content = function
  | Text s | Cdata s -> s
  | Comment _ -> ""
  | Element (_, _, cs) -> String.concat "" (List.map text_content cs)

let rec path names x =
  match names with
  | [] -> Some x
  | n :: rest -> ( match child n x with None -> None | Some c -> path rest c)

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

(* The compact rendering is measured first and then written into a
   string of exactly that size: no buffer grows, and an escaped value
   is copied run by run, with no intermediate string per attribute or
   text node. Quotes are escaped in attribute values only. *)

let entity quotes = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | '"' when quotes -> "&quot;"
  | '\'' when quotes -> "&apos;"
  | _ -> ""

let escaped_length quotes s =
  let n = ref (String.length s) in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('<' | '>' | '&' | '"' | '\'') as c ->
        let e = String.length (entity quotes c) in
        if e > 0 then n := !n + e - 1
    | _ -> ()
  done;
  !n

let put b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let put_char b pos c =
  Bytes.set b pos c;
  pos + 1

(* Writes [s] escaped at [pos]; returns the position after it. *)
let put_escaped quotes b pos s =
  let pos = ref pos and run = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | ('<' | '>' | '&' | '"' | '\'') as c ->
        let e = entity quotes c in
        if String.length e > 0 then begin
          Bytes.blit_string s !run b !pos (i - !run);
          pos := put b (!pos + i - !run) e;
          run := i + 1
        end
    | _ -> ()
  done;
  Bytes.blit_string s !run b !pos (String.length s - !run);
  !pos + String.length s - !run

let escape quotes s =
  let n = escaped_length quotes s in
  if n = String.length s then s
  else begin
    let b = Bytes.create n in
    ignore (put_escaped quotes b 0 s);
    Bytes.unsafe_to_string b
  end

let escape_text s = escape false s
let escape_attr s = escape true s

(* [ k="v"] per attribute. *)
let rec attrs_length acc = function
  | [] -> acc
  | (k, v) :: rest ->
      attrs_length (acc + String.length k + 4 + escaped_length true v) rest

let rec measure = function
  | Text s -> escaped_length false s
  | Cdata s -> String.length s + 12
  | Comment s -> String.length s + 7
  | Element (tag, attrs, cs) -> (
      let open_ = attrs_length (1 + String.length tag) attrs in
      match cs with
      | [] -> open_ + 2
      | _ -> children_length (open_ + 1) cs + String.length tag + 3)

and children_length acc = function
  | [] -> acc
  | c :: rest -> children_length (acc + measure c) rest

let rec put_attrs b pos = function
  | [] -> pos
  | (k, v) :: rest ->
      let pos = put b (put_char b pos ' ') k in
      let pos = put_char b (put_char b pos '=') '"' in
      put_attrs b (put_char b (put_escaped true b pos v) '"') rest

let rec put_node b pos = function
  | Text s -> put_escaped false b pos s
  | Cdata s -> put b (put b (put b pos "<![CDATA[") s) "]]>"
  | Comment s -> put b (put b (put b pos "<!--") s) "-->"
  | Element (tag, attrs, cs) -> (
      let pos = put_attrs b (put b (put_char b pos '<') tag) attrs in
      match cs with
      | [] -> put_char b (put_char b pos '/') '>'
      | _ ->
          let pos = put_children b (put_char b pos '>') cs in
          put_char b (put b (put_char b (put_char b pos '<') '/') tag) '>')

and put_children b pos = function
  | [] -> pos
  | c :: rest -> put_children b (put_node b pos c) rest

let decl_string = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"

let to_string ?(decl = false) x =
  let prefix = if decl then decl_string else "" in
  let b = Bytes.create (String.length prefix + measure x) in
  ignore (put_node b (put b 0 prefix) x);
  Bytes.unsafe_to_string b

let add_attrs b attrs =
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ' ';
      Buffer.add_string b k;
      Buffer.add_string b "=\"";
      Buffer.add_string b (escape_attr v);
      Buffer.add_char b '"')
    attrs

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
        List.iter (fun c -> Buffer.add_string b (to_string c)) cs;
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

let size_bytes = measure

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* One pass over the input. Look-ahead compares in place; a name, an
   attribute value or a text run without entity references is cut with
   one [String.sub], and only a run that holds a reference is decoded
   through the state's one buffer. The element recursion is bounded by
   [max_depth]. *)

type error = { position : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "XML parse error at byte %d: %s" e.position e.message

let max_depth = 1024

exception Err of error

type state = {
  src : string;
  mutable pos : int;
  buf : Buffer.t;  (* decodes runs that hold entity references *)
  span_attr : string;  (* the root attribute whose span is recorded *)
  mutable span : (int * int) option;
}

let fail st message = raise (Err { position = st.pos; message })
let eof st = st.pos >= String.length st.src
let peek_char st = if eof st then '\000' else String.unsafe_get st.src st.pos
let advance st = st.pos <- st.pos + 1

let rec matches_at src pos s i =
  i >= String.length s
  || Char.equal (String.unsafe_get src (pos + i)) (String.unsafe_get s i)
     && matches_at src pos s (i + 1)

let looking_at st s =
  st.pos + String.length s <= String.length st.src
  && matches_at st.src st.pos s 0

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

(* The scans below run over the source with the index in hand and store
   the position once, at the end of the run. *)

(* The first index from [i] that holds no byte satisfying [p], or the
   end of input. *)
let rec scan p src i =
  if i < String.length src && p (String.unsafe_get src i) then
    scan p src (i + 1)
  else i

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let skip_ws st = st.pos <- scan is_ws st.src st.pos

let is_name_start = function
  | 'A' .. 'Z' | 'a' .. 'z' | '_' | ':' -> true
  | _ -> false

let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | ':' | '-' | '.' -> true
  | _ -> false

let parse_name st =
  if not (is_name_start (peek_char st)) then fail st "expected a name";
  let start = st.pos in
  st.pos <- scan is_name_char st.src start;
  String.sub st.src start (st.pos - start)

let add_utf8 b code =
  let add k = Buffer.add_char b (Char.unsafe_chr k) in
  if code < 0x80 then add code
  else if code < 0x800 then begin
    add (0xC0 lor (code lsr 6));
    add (0x80 lor (code land 0x3F))
  end
  else if code < 0x10000 then begin
    add (0xE0 lor (code lsr 12));
    add (0x80 lor ((code lsr 6) land 0x3F));
    add (0x80 lor (code land 0x3F))
  end
  else begin
    add (0xF0 lor (code lsr 18));
    add (0x80 lor ((code lsr 12) land 0x3F));
    add (0x80 lor ((code lsr 6) land 0x3F));
    add (0x80 lor (code land 0x3F))
  end

let named src start len s = len = String.length s && matches_at src start s 0
let not_semicolon c = c <> ';'

(* Called on '&': decodes the reference onto [st.buf]. *)
let add_reference st =
  advance st;
  let start = st.pos in
  st.pos <- scan not_semicolon st.src start;
  if eof st then fail st "unterminated entity reference";
  let len = st.pos - start in
  advance st;
  if named st.src start len "lt" then Buffer.add_char st.buf '<'
  else if named st.src start len "gt" then Buffer.add_char st.buf '>'
  else if named st.src start len "amp" then Buffer.add_char st.buf '&'
  else if named st.src start len "quot" then Buffer.add_char st.buf '"'
  else if named st.src start len "apos" then Buffer.add_char st.buf '\''
  else begin
    let name = String.sub st.src start len in
    if len > 1 && name.[0] = '#' then begin
      let code =
        try
          if name.[1] = 'x' || name.[1] = 'X' then
            int_of_string ("0x" ^ String.sub name 2 (len - 2))
          else int_of_string (String.sub name 1 (len - 1))
        with Failure _ -> fail st "bad character reference"
      in
      if code < 0 || code > 0x10FFFF then fail st "character out of range";
      add_utf8 st.buf code
    end
    else fail st (Printf.sprintf "unknown entity &%s;" name)
  end

(* The rest of a run from [start], stopping at [stop] (not consumed) or
   at the end of input, decoded through [st.buf]. *)
let decoded_run st start stop =
  Buffer.clear st.buf;
  Buffer.add_substring st.buf st.src start (st.pos - start);
  while (not (eof st)) && peek_char st <> stop do
    if peek_char st = '&' then add_reference st
    else begin
      Buffer.add_char st.buf (peek_char st);
      advance st
    end
  done;
  Buffer.contents st.buf

(* The run from here up to [stop] (not consumed) or the end of input. *)
let rec run_end src stop i =
  if i >= String.length src then i
  else
    let c = String.unsafe_get src i in
    if c = stop || c = '&' then i else run_end src stop (i + 1)

let run_until st stop =
  let start = st.pos in
  st.pos <- run_end st.src stop start;
  if peek_char st = '&' then decoded_run st start stop
  else String.sub st.src start (st.pos - start)

let parse_attr_value st =
  let quote = peek_char st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted value";
  advance st;
  let v = run_until st quote in
  if eof st then fail st "unterminated attribute value";
  advance st;
  v

let rec parse_attrs st depth acc =
  let ws_start = st.pos in
  skip_ws st;
  if is_name_start (peek_char st) then begin
    let name = parse_name st in
    skip_ws st;
    expect st "=";
    skip_ws st;
    let value = parse_attr_value st in
    if depth = 1 && Option.is_none st.span && String.equal name st.span_attr
    then st.span <- Some (ws_start, st.pos);
    parse_attrs st depth ((name, value) :: acc)
  end
  else List.rev acc

(* Moves past the next [marker]. *)
let skip_until st marker =
  while (not (eof st)) && not (looking_at st marker) do
    advance st
  done;
  if eof st then fail st (Printf.sprintf "expected %S" marker);
  st.pos <- st.pos + String.length marker

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

(* [depth] counts the element being opened: the root is at depth 1. *)
let rec parse_element st depth =
  if depth > max_depth then
    fail st (Printf.sprintf "elements nested deeper than %d" max_depth);
  expect st "<";
  let name = parse_name st in
  let attrs = parse_attrs st depth [] in
  skip_ws st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Element (name, attrs, [])
  end
  else begin
    expect st ">";
    let children = parse_content st depth [] in
    expect st "</";
    let close = parse_name st in
    if not (String.equal close name) then
      fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" close name);
    skip_ws st;
    expect st ">";
    Element (name, attrs, children)
  end

(* The children of an element at [depth], up to its closing tag. *)
and parse_content st depth acc =
  if eof st then fail st "unterminated element"
  else if peek_char st <> '<' then
    parse_content st depth (Text (run_until st '<') :: acc)
  else if looking_at st "</" then List.rev acc
  else if looking_at st "<![CDATA[" then
    parse_content st depth (parse_cdata st :: acc)
  else if looking_at st "<!--" then
    parse_content st depth (parse_comment st :: acc)
  else if looking_at st "<?" then begin
    skip_until st "?>";
    parse_content st depth acc
  end
  else parse_content st depth (parse_element st (depth + 1) :: acc)

let rec skip_prolog st =
  skip_ws st;
  if looking_at st "<?" then begin
    skip_until st "?>";
    skip_prolog st
  end
  else if looking_at st "<!--" then begin
    ignore (parse_comment st);
    skip_prolog st
  end
  else if looking_at st "<!DOCTYPE" then begin
    skip_until st ">";
    skip_prolog st
  end

(* Trailing comments and whitespace are allowed. *)
let rec skip_tail st =
  skip_ws st;
  if looking_at st "<!--" then begin
    ignore (parse_comment st);
    skip_tail st
  end

let parse_document st =
  try
    skip_prolog st;
    if eof st then Error { position = st.pos; message = "empty document" }
    else begin
      let root = parse_element st 1 in
      skip_tail st;
      if not (eof st) then
        Error { position = st.pos; message = "trailing content after root" }
      else Ok root
    end
  with Err e -> Error e

let state ~span_attr s =
  { src = s; pos = 0; buf = Buffer.create 16; span_attr; span = None }

let parse s = parse_document (state ~span_attr:"" s)

let parse_locating ~attr s =
  let st = state ~span_attr:attr s in
  Result.map (fun root -> (root, st.span)) (parse_document st)

let parse_exn s =
  match parse s with
  | Ok x -> x
  | Error e -> invalid_arg (Format.asprintf "%a" pp_error e)
