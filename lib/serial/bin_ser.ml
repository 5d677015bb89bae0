open Pti_cts
module W = Bytes_io.Writer
module R = Bytes_io.Reader

type error = Payload.error =
  | Malformed of string
  | Unknown_type of string
  | Corrupt of string

let pp_error = Payload.pp_error "binary"

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

(* ------------------------------ encode ----------------------------- *)

(* One encode's working state: the writer and the intern tables, kept
   per domain and reset at the start of every encode, so an encode that
   raised leaves nothing behind. *)
type scratch = {
  mutable w : W.t;
  names : (string, int) Hashtbl.t;  (* interned name -> wire id *)
  seen : (int, int) Hashtbl.t;  (* oid -> wire id *)
  mutable classes : string list;  (* distinct, case-insensitively; reversed *)
}

(* Tables grown past this are dropped at the next reset. *)
let max_kept = 1024

let writer = W.scratch ()

let scratch =
  Domain.DLS.new_key (fun () ->
      { w = writer (); names = Hashtbl.create 16; seen = Hashtbl.create 16;
        classes = [] })

let reset st =
  st.w <- writer ();
  W.begin_seal st.w ~magic;
  if Hashtbl.length st.names > max_kept then Hashtbl.reset st.names
  else Hashtbl.clear st.names;
  if Hashtbl.length st.seen > max_kept then Hashtbl.reset st.seen
  else Hashtbl.clear st.seen;
  st.classes <- []

let intern_name st s =
  match Hashtbl.find st.names s with
  | i -> W.varint st.w i
  | exception Not_found ->
      let i = Hashtbl.length st.names in
      Hashtbl.add st.names s i;
      W.varint st.w i;
      (* First occurrence carries the text inline. *)
      W.string st.w s

let rec write st v =
  match Payload.strip v with
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
      for i = 0 to Array.length a.Value.items - 1 do
        write st a.Value.items.(i)
      done
  | Value.Vobj o -> (
      match Hashtbl.find st.seen o.Value.oid with
      | id ->
          W.u8 st.w t_ref;
          W.varint st.w id
      | exception Not_found ->
          let id = Hashtbl.length st.seen in
          Hashtbl.add st.seen o.Value.oid id;
          if not (Pti_util.Strutil.mem_ci o.Value.cls st.classes) then
            st.classes <- o.Value.cls :: st.classes;
          W.u8 st.w t_obj;
          W.varint st.w id;
          intern_name st o.Value.cls;
          write_fields st o)
  | Value.Vproxy _ -> assert false

(* The fields, in key order already. *)
and write_fields st o =
  let n = Array.length o.Value.keys in
  W.varint st.w n;
  for i = 0 to n - 1 do
    intern_name st o.Value.keys.(i);
    write st o.Value.slots.(i)
  done

let encode v =
  let st = Domain.DLS.get scratch in
  reset st;
  write st v;
  (W.seal st.w, List.rev st.classes)

(* ------------------------------ decode ----------------------------- *)

module P = Payload

(* A name id: an earlier name's, or the next one's, whose text follows
   inline. *)
let read_name b r =
  let i = R.varint r in
  if i = b.P.nnames then
    let pos = R.skip_string r in
    P.add_name b ~pos ~len:(R.pos r - pos)
  else if i >= 0 && i < b.P.nnames then i
  else P.malformed "non-sequential name id %d" i

(* A value where [ty] is declared, checked as soon as its outer shape
   is known: an object before its fields are read, an array before its
   items, each item against the array's own element type. *)
let rec read b r ty =
  let tag = R.u8 r in
  if tag = t_obj then read_object b r ty
  else if tag = t_arr then read_array b r ty
  else if tag = t_ref then P.ref_ b ty (R.varint r)
  else
    P.value b ty
      (if tag = t_null then Value.Vnull
       else if tag = t_bool then Value.Vbool (R.bool r)
       else if tag = t_int then Value.Vint (R.zigzag r)
       else if tag = t_float then Value.Vfloat (R.f64 r)
       else if tag = t_string then Value.Vstring (R.string r)
       else if tag = t_char then Value.Vchar (Char.chr (R.u8 r land 0xff))
       else P.malformed "unknown tag %d" tag)

and read_array b r ty =
  let ty_s = R.string r in
  let elem_ty =
    match Ty.of_string ty_s with
    | Some ty -> ty
    | None -> P.malformed "bad type %S" ty_s
  in
  let n = R.varint r in
  if n < 0 || n > 10_000_000 then P.malformed "absurd array length";
  (* Every element takes at least one byte: a longer declared length
     is a lie, caught before the array is allocated. *)
  if n > R.remaining r then P.malformed "array length past end";
  let items = Array.make n Value.Vnull in
  let v = P.array b ty elem_ty items in
  for i = 0 to n - 1 do
    items.(i) <- read b r elem_ty
  done;
  P.ascend b;
  v

and read_object b r ty =
  let id = R.varint r in
  let cls = read_name b r in
  let src = R.source r and names = b.P.names in
  let o, ly =
    P.obj b ~id ty src ~pos:names.(2 * cls) ~len:names.((2 * cls) + 1)
  in
  (* The encoder writes fields in key order: each is found at the slot
     after the last. *)
  let hint = ref 0 in
  for _ = 1 to R.varint r do
    let f = read_name b r in
    let names = b.P.names in
    let s =
      Registry.slot ly src ~pos:names.(2 * f) ~len:names.((2 * f) + 1)
        ~hint:!hint
    in
    P.set o s (read b r (P.declared ly s));
    if s >= 0 then hint := s + 1
  done;
  P.ascend b;
  Value.Vobj o

let decode ?resolve ?layout reg s =
  match Bytes_io.unseal ~magic s with
  | Error e -> Error (unseal_error e)
  | Ok r ->
      P.decode ?resolve ?layout reg (fun b ->
          let v = read b r P.any in
          if not (R.at_end r) then P.malformed "trailing bytes";
          v)
