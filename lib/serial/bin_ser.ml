open Pti_cts
module W = Bytes_io.Writer
module R = Bytes_io.Reader

type error = Malformed of string | Unknown_type of string | Corrupt of string

let pp_error ppf = function
  | Malformed m -> Format.fprintf ppf "malformed binary payload: %s" m
  | Unknown_type t -> Format.fprintf ppf "unknown type %S" t
  | Corrupt m -> Format.fprintf ppf "corrupt binary payload: %s" m

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
  match Hashtbl.find_opt st.names s with
  | Some i -> W.varint st.w i
  | None ->
      let i = Hashtbl.length st.names in
      Hashtbl.add st.names s i;
      W.varint st.w i;
      (* First occurrence carries the text inline. *)
      W.string st.w s

(* The key order of [keys] as a permutation: a stable insertion sort
   (an object holds a handful of fields) that moves ints, not keys. *)
let key_order keys =
  let n = Array.length keys in
  let order = Array.make n 0 in
  for i = 0 to n - 1 do
    let k = keys.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && String.compare keys.(order.(!j)) k > 0 do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- i
  done;
  order

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
      for i = 0 to Array.length a.Value.items - 1 do
        write st a.Value.items.(i)
      done
  | Value.Vobj o -> (
      match Hashtbl.find_opt st.seen o.Value.oid with
      | Some id ->
          W.u8 st.w t_ref;
          W.varint st.w id
      | None ->
          let id = Hashtbl.length st.seen in
          Hashtbl.add st.seen o.Value.oid id;
          if not (Pti_util.Strutil.mem_ci o.Value.cls st.classes) then
            st.classes <- o.Value.cls :: st.classes;
          W.u8 st.w t_obj;
          W.varint st.w id;
          intern_name st o.Value.cls;
          write_fields st o)
  | Value.Vproxy _ -> assert false

(* The fields in key order. They are gathered last slot first, so
   bindings of one key (a table filled with [Hashtbl.add]) keep the
   order a fold consing them onto a list gives, and the sort is
   stable. *)
and write_fields st o =
  let n = Hashtbl.length o.Value.fields in
  let keys = Array.make n "" and vals = Array.make n Value.Vnull in
  ignore
    (Hashtbl.fold
       (fun k v i ->
         keys.(i) <- k;
         vals.(i) <- v;
         i - 1)
       o.Value.fields (n - 1));
  let order = key_order keys in
  W.varint st.w n;
  for i = 0 to n - 1 do
    intern_name st keys.(order.(i));
    write st vals.(order.(i))
  done

let encode v =
  let st = Domain.DLS.get scratch in
  reset st;
  write st v;
  (W.seal st.w, List.rev st.classes)

(* ------------------------------ decode ----------------------------- *)

(* The declared type of a value nothing declares: the root, and a field
   its class does not declare. *)
let any = Ty.Named "object"

exception Unknown of string
exception Mistyped of Ty.t * Value.value

(* One decode's state. Names and objects are numbered in the order they
   first appear, so both tables are arrays indexed by wire id. A name
   stays in the input, where field names are compared in place; a name
   met as a class is resolved to its layout once. *)
type outern = {
  r : R.t;
  reg : Registry.t;
  resolve : string -> Meta.class_def option;
  layout_of : Meta.class_def -> Registry.layout;
  mutable name_at : int array;  (* offset of name i at 2i, length at 2i+1 *)
  mutable name_cls : Registry.layout option array;
  mutable names : int;
  mutable objects : Value.obj array;
  mutable nobjects : int;
}

let no_object = { Value.oid = -1; cls = ""; fields = Hashtbl.create 1 }

let read_name st =
  let i = R.varint st.r in
  if i >= 0 && i < st.names then i
  else if i = st.names then begin
    let at = R.skip_string st.r in
    if 2 * i + 1 >= Array.length st.name_at then begin
      let cap = 2 * Array.length st.name_cls in
      let name_at = Array.make (2 * cap) 0 and name_cls = Array.make cap None in
      Array.blit st.name_at 0 name_at 0 (2 * i);
      Array.blit st.name_cls 0 name_cls 0 i;
      st.name_at <- name_at;
      st.name_cls <- name_cls
    end;
    st.name_at.(2 * i) <- at;
    st.name_at.((2 * i) + 1) <- R.pos st.r - at;
    st.names <- i + 1;
    i
  end
  else raise (R.Underflow (Printf.sprintf "non-sequential name id %d" i))

let class_layout st i =
  match st.name_cls.(i) with
  | Some ly -> ly
  | None ->
      let cls =
        String.sub (R.source st.r) st.name_at.(2 * i) st.name_at.((2 * i) + 1)
      in
      let cd =
        match st.resolve cls with Some cd -> cd | None -> raise (Unknown cls)
      in
      let ly = st.layout_of cd in
      st.name_cls.(i) <- Some ly;
      ly

(* The slot of name [i] in the layout, or -1. *)
let find_slot st ly i hint =
  Registry.slot ly (R.source st.r) ~pos:st.name_at.(2 * i)
    ~len:st.name_at.((2 * i) + 1) ~hint

let check st ty v =
  if not (Registry.admits st.reg ty v) then raise (Mistyped (ty, v))

(* A value where [ty] is declared, checked as soon as its outer shape
   is known: an object before its fields are read, an array before its
   items, each item against the array's own element type. *)
let rec read st ty =
  let tag = R.u8 st.r in
  if tag = t_obj then read_object st ty
  else if tag = t_arr then read_array st ty
  else begin
    let v =
      if tag = t_null then Value.Vnull
      else if tag = t_bool then Value.Vbool (R.bool st.r)
      else if tag = t_int then Value.Vint (R.zigzag st.r)
      else if tag = t_float then Value.Vfloat (R.f64 st.r)
      else if tag = t_string then Value.Vstring (R.string st.r)
      else if tag = t_char then Value.Vchar (Char.chr (R.u8 st.r land 0xff))
      else if tag = t_ref then begin
        let id = R.varint st.r in
        if id >= 0 && id < st.nobjects then Value.Vobj st.objects.(id)
        else raise (R.Underflow (Printf.sprintf "dangling object ref %d" id))
      end
      else raise (R.Underflow (Printf.sprintf "unknown tag %d" tag))
    in
    check st ty v;
    v
  end

and read_array st ty =
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
  let items = Array.make n Value.Vnull in
  let v = Value.Varr { Value.elem_ty; items } in
  check st ty v;
  for i = 0 to n - 1 do
    items.(i) <- read st elem_ty
  done;
  v

and read_object st ty =
  let id = R.varint st.r in
  if id <> st.nobjects then
    raise (R.Underflow (Printf.sprintf "non-sequential object id %d" id));
  let ly = class_layout st (read_name st) in
  (* Declared defaults first, so missing payload fields are sane and
     undeclared ones are dropped. *)
  let o = Registry.instantiate ly in
  if id >= Array.length st.objects then begin
    let objects = Array.make (2 * Array.length st.objects) no_object in
    Array.blit st.objects 0 objects 0 id;
    st.objects <- objects
  end;
  st.objects.(id) <- o;
  st.nobjects <- id + 1;
  let v = Value.Vobj o in
  if not (Registry.admits_instance ly ty) then raise (Mistyped (ty, v));
  (* The encoder writes fields in key order: each is found at the slot
     after the last. *)
  let hint = ref 0 in
  for _ = 1 to R.varint st.r do
    let s = find_slot st ly (read_name st) !hint in
    if s < 0 then ignore (read st any)
    else begin
      Hashtbl.replace o.Value.fields ly.Registry.ly_keys.(s)
        (read st ly.Registry.ly_tys.(s));
      hint := s + 1
    end
  done;
  v

let decode ?resolve ?layout reg s =
  match Bytes_io.unseal ~magic s with
  | Error e -> Error (unseal_error e)
  | Ok r -> (
      let st =
        { r; reg;
          resolve =
            (match resolve with Some f -> f | None -> Registry.find reg);
          layout_of =
            (match layout with Some f -> f | None -> Registry.layout reg);
          name_at = Array.make 16 0; name_cls = Array.make 8 None; names = 0;
          objects = Array.make 8 no_object; nobjects = 0 }
      in
      try
        let v = read st any in
        if not (R.at_end st.r) then Error (Malformed "trailing bytes")
        else Ok v
      with
      | R.Underflow m -> Error (Malformed m)
      | Unknown cls -> Error (Unknown_type cls)
      | Mistyped (ty, v) ->
          Error
            (Corrupt
               (Printf.sprintf "a %s value where %s is declared"
                  (Value.type_name v) (Ty.to_string ty))))
