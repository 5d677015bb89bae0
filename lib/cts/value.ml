type value =
  | Vnull
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vchar of char
  | Vobj of obj
  | Varr of arr
  | Vproxy of proxy

and obj = {
  oid : int;
  cls : string;
  keys : string array;
  slots : value array;
}

and arr = { elem_ty : Ty.t; items : value array }

and proxy = {
  px_interface : string;
  px_target : value;
  px_invoke : string -> value list -> value;
}

let oid_counter = ref 0

let fresh_oid () =
  incr oid_counter;
  !oid_counter

let default_of = function
  | Ty.Void -> Vnull
  | Ty.Bool -> Vbool false
  | Ty.Int -> Vint 0
  | Ty.Float -> Vfloat 0.
  | Ty.String -> Vstring ""
  | Ty.Char -> Vchar '\000'
  | Ty.Named _ | Ty.Array _ -> Vnull

let type_name = function
  | Vnull -> "null"
  | Vbool _ -> "bool"
  | Vint _ -> "int"
  | Vfloat _ -> "float"
  | Vstring _ -> "string"
  | Vchar _ -> "char"
  | Vobj o -> o.cls
  | Varr a -> Ty.to_string (Ty.Array a.elem_ty)
  | Vproxy p -> Printf.sprintf "proxy<%s>" p.px_interface

let make_obj cls fields =
  let fields = List.sort (fun (a, _) (b, _) -> String.compare a b) fields in
  let keys = List.map fst fields in
  if List.length (List.sort_uniq String.compare keys) < List.length keys then
    invalid_arg "Value.make_obj: a field appears twice";
  { oid = fresh_oid (); cls; keys = Array.of_list keys;
    slots = Array.of_list (List.map snd fields) }

let rec find keys name i =
  if i = Array.length keys then -1
  else if Pti_util.Strutil.equal_ci keys.(i) name then i
  else find keys name (i + 1)

let slot_of o name = find o.keys name 0

let get_field o name =
  match slot_of o name with -1 -> None | i -> Some o.slots.(i)

let set_field o name v =
  match slot_of o name with
  | -1 -> invalid_arg ("Value.set_field: no field " ^ name ^ " on " ^ o.cls)
  | i -> o.slots.(i) <- v

let equal_shallow a b =
  match a, b with
  | Vnull, Vnull -> true
  | Vbool x, Vbool y -> x = y
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Vstring x, Vstring y -> String.equal x y
  | Vchar x, Vchar y -> x = y
  | Vobj x, Vobj y -> x == y
  | Varr x, Varr y -> x == y
  | Vproxy x, Vproxy y -> x == y
  | ( ( Vnull | Vbool _ | Vint _ | Vfloat _ | Vstring _ | Vchar _ | Vobj _
      | Varr _ | Vproxy _ ),
      _ ) ->
      false

let rec strip_proxy = function Vproxy p -> strip_proxy p.px_target | v -> v

let equal_deep a b =
  let visited = Hashtbl.create 16 in
  let rec go a b =
    let a = strip_proxy a and b = strip_proxy b in
    match a, b with
    | Vobj x, Vobj y ->
        if Hashtbl.mem visited (x.oid, y.oid) then true
        else begin
          Hashtbl.add visited (x.oid, y.oid) ();
          (* Both key arrays are sorted and hold each key once: equal
             key sets are equal arrays. *)
          Pti_util.Strutil.equal_ci x.cls y.cls
          && Array.length x.keys = Array.length y.keys
          && Array.for_all2 String.equal x.keys y.keys
          && Array.for_all2 go x.slots y.slots
        end
    | Varr x, Varr y ->
        Ty.equal x.elem_ty y.elem_ty
        && Array.length x.items = Array.length y.items
        && begin
             let ok = ref true in
             Array.iteri
               (fun i v -> if !ok then ok := go v y.items.(i))
               x.items;
             !ok
           end
    | a, b -> equal_shallow a b
  in
  go a b

let pp ppf v =
  let rec go depth ppf v =
    if depth > 4 then Format.pp_print_string ppf "..."
    else
      match v with
      | Vnull -> Format.pp_print_string ppf "null"
      | Vbool b -> Format.pp_print_bool ppf b
      | Vint i -> Format.pp_print_int ppf i
      | Vfloat f -> Format.fprintf ppf "%g" f
      | Vstring s -> Format.fprintf ppf "%S" s
      | Vchar c -> Format.fprintf ppf "'%c'" c
      | Vobj o ->
          Format.fprintf ppf "%s#%d{" o.cls o.oid;
          Array.iteri
            (fun i k ->
              if i > 0 then Format.pp_print_string ppf "; ";
              Format.fprintf ppf "%s=%a" k (go (depth + 1)) o.slots.(i))
            o.keys;
          Format.pp_print_string ppf "}"
      | Varr a ->
          Format.fprintf ppf "[|";
          Array.iteri
            (fun i v ->
              if i > 0 then Format.pp_print_string ppf "; ";
              go (depth + 1) ppf v)
            a.items;
          Format.fprintf ppf "|]"
      | Vproxy p ->
          Format.fprintf ppf "proxy<%s>(%a)" p.px_interface (go (depth + 1))
            p.px_target
  in
  go 0 ppf v

let to_string v = Format.asprintf "%a" pp v
