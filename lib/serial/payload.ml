(* The one builder of decoded object graphs, shared by both payload
   codecs (PTIB in {!Bin_ser}, SOAP in {!Soap_ser}). A codec reads its
   own syntax; the builder owns everything a decoded graph is made of
   and checked against: the error, the objects numbered by sequential
   id, each class's layout resolved once, the instance built from it
   and admitted where it stands, the slot writes, and the nesting bound.
   As the paper's receiver does (§3, §6), it builds values only of
   classes it holds and checks each value against the type its place
   declares, as soon as the value's outer shape is known.

   A codec raises inside ([malformed], or [Bytes_io.Reader.Underflow])
   and {!decode} answers once. *)

open Pti_cts
module S = Pti_util.Strutil

type error = Malformed of string | Unknown_type of string | Corrupt of string

let pp_error codec ppf = function
  | Malformed m -> Format.fprintf ppf "malformed %s payload: %s" codec m
  | Unknown_type t -> Format.fprintf ppf "unknown type %S" t
  | Corrupt m -> Format.fprintf ppf "corrupt %s payload: %s" codec m

exception Fail of error

let malformed fmt = Printf.ksprintf (fun m -> raise (Fail (Malformed m))) fmt

(* How deeply arrays and objects may nest, the root counting as 1, as
   [Xml.max_depth] bounds elements: far above any workload, and low
   enough that a hostile frame is refused before it costs anything. *)
let max_depth = 1024

(* A proxy is a local artifact; what travels is its target. *)
let rec strip = function Value.Vproxy p -> strip p.Value.px_target | v -> v

(* The declared type of a value nothing declares: the root, and a field
   its class does not declare. *)
let any = Ty.Named "object"

(* One decode's state, kept per domain and released by every decode,
   failed ones included. Objects are numbered in the order they first
   appear, from [first]; names, for a codec that interns them (PTIB),
   likewise from 0, each kept as its span in the input. *)
type t = {
  mutable reg : Registry.t;
  mutable resolve : string -> Meta.class_def option;
  mutable layout_of : Meta.class_def -> Registry.layout;
  mutable first : int;
  mutable classes : (string * Registry.layout) list;  (* resolved so far *)
  mutable objects : Value.obj array;
  mutable nobjects : int;
  mutable names : int array;  (* name i at [2i], its length at [2i + 1] *)
  mutable nnames : int;
  mutable depth : int;
  mutable busy : bool;
}

(* What a released state points to, so that it keeps nothing of its
   last decode: no object, and no registry, resolver or layout cache,
   which would hold their peer. *)
let no_object = { Value.oid = -1; cls = ""; keys = [||]; slots = [||] }
let nowhere = Registry.create ()
let unresolved _ = None
let no_layout = Registry.layout nowhere

let fresh () =
  { reg = nowhere; resolve = unresolved; layout_of = no_layout; first = 0;
    classes = []; objects = [||]; nobjects = 0; names = [||]; nnames = 0;
    depth = 0; busy = false }

let scratch = Domain.DLS.new_key fresh

(* Tables grown past this are dropped at release. *)
let max_kept = 1024

let release b =
  if b.nobjects > max_kept then b.objects <- [||]
  else Array.fill b.objects 0 b.nobjects no_object;
  if b.nnames > max_kept then b.names <- [||];
  b.nobjects <- 0;
  b.nnames <- 0;
  b.classes <- [];
  b.reg <- nowhere;
  b.resolve <- unresolved;
  b.layout_of <- no_layout;
  b.busy <- false

(* [read b] over a released state, answered once. A decode that a
   resolver re-enters on the same domain gets a state of its own. *)
let decode ?resolve ?layout ?(first = 0) reg read =
  let b = Domain.DLS.get scratch in
  let b = if b.busy then fresh () else b in
  b.busy <- true;
  b.reg <- reg;
  b.resolve <- (match resolve with Some f -> f | None -> Registry.find reg);
  b.layout_of <- (match layout with Some f -> f | None -> Registry.layout reg);
  b.first <- first;
  b.depth <- 0;
  match read b with
  | v ->
      release b;
      Ok v
  | exception Fail e ->
      release b;
      Error e
  | exception Bytes_io.Reader.Underflow m ->
      release b;
      Error (Malformed m)
  | exception e ->
      release b;
      raise e

let mistyped ty v =
  raise
    (Fail
       (Corrupt
          (Printf.sprintf "a %s value where %s is declared"
             (Value.type_name v) (Ty.to_string ty))))

(* A scalar or a reference where [ty] is declared. *)
let value b ty v =
  if not (Registry.admits b.reg ty v) then mistyped ty v;
  v

(* One level down, into an array's items or an object's fields; the
   codec comes back up with [ascend] once they are read. *)
let descend b =
  if b.depth >= max_depth then malformed "nested deeper than %d" max_depth;
  b.depth <- b.depth + 1

let ascend b = b.depth <- b.depth - 1

(* An array of [items] where [ty] is declared, checked before the codec
   reads its items into [items]. *)
let array b ty elem_ty items =
  let v = value b ty (Value.Varr { Value.elem_ty; items }) in
  descend b;
  v

(* The object numbered [id] earlier in the input, where [ty] is
   declared. *)
let ref_ b ty id =
  let i = id - b.first in
  if i < 0 || i >= b.nobjects then malformed "dangling object ref %d" id;
  value b ty (Value.Vobj b.objects.(i))

(* The layout of the class named by the [len] bytes of [src] from [pos]:
   resolved at its first mention, then found by comparing names
   (case-insensitively, as classes are named) where they lie. *)
let rec layout b src pos len = function
  | (name, ly) :: _
    when String.length name = len && S.equal_ci_sub name 0 src pos len ->
      ly
  | _ :: rest -> layout b src pos len rest
  | [] -> (
      let name = String.sub src pos len in
      match b.resolve name with
      | None -> raise (Fail (Unknown_type name))
      | Some cd ->
          let ly = b.layout_of cd in
          b.classes <- (name, ly) :: b.classes;
          ly)

(* Object number [id], of the class named by the [len] bytes of [src]
   from [pos], where [ty] is declared: it holds its class's declared
   defaults, so missing payload fields are sane and undeclared ones are
   dropped, and it is admitted before its fields are read. The codec
   fills its slots ([set]), then ascends. *)
let obj b ~id ty src ~pos ~len =
  let i = b.nobjects in
  if id - b.first <> i then malformed "non-sequential object id %d" id;
  let ly = layout b src pos len b.classes in
  let o = Registry.instantiate ly in
  if i = Array.length b.objects then begin
    let objects = Array.make (max 8 (2 * i)) no_object in
    Array.blit b.objects 0 objects 0 i;
    b.objects <- objects
  end;
  b.objects.(i) <- o;
  b.nobjects <- i + 1;
  if not (Registry.admits_instance ly ty) then mistyped ty (Value.Vobj o);
  descend b;
  (o, ly)

(* The type slot [s] declares ([Registry.slot], -1 for a field the
   class does not declare), and the write of its value into the object
   built from that layout: a field the class does not declare is read
   and dropped. *)
let declared ly s = if s < 0 then any else ly.Registry.ly_tys.(s)

let set o s v = if s >= 0 then o.Value.slots.(s) <- v

(* The next name, whose text lies in the input at [pos] for [len]
   bytes: its id. *)
let add_name b ~pos ~len =
  let i = b.nnames in
  if 2 * i = Array.length b.names then begin
    let names = Array.make (max 32 (4 * i)) 0 in
    Array.blit b.names 0 names 0 (2 * i);
    b.names <- names
  end;
  b.names.(2 * i) <- pos;
  b.names.((2 * i) + 1) <- len;
  b.nnames <- i + 1;
  i
