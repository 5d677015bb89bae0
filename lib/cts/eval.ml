module S = Pti_util.Strutil

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type env = {
  reg : Registry.t;
  this : Value.value option;
  mutable locals : (string * Value.value ref) list;
}

let lookup env name =
  match
    List.find_opt (fun (n, _) -> S.equal_ci n name) env.locals
  with
  | Some (_, r) -> r
  | None -> fail "unbound variable %S" name

let as_obj = function
  | Value.Vobj o -> o
  | Value.Vnull -> fail "null dereference"
  | v -> fail "expected an object, got %s" (Value.type_name v)

let as_arr = function
  | Value.Varr a -> a
  | Value.Vnull -> fail "null dereference (array)"
  | v -> fail "expected an array, got %s" (Value.type_name v)

let truthy_rt = function
  | Value.Vbool b -> b
  | v -> fail "condition evaluated to %s, expected bool" (Value.type_name v)

let as_int = function
  | Value.Vint i -> i
  | v -> fail "expected int, got %s" (Value.type_name v)

let binop op a b =
  let open Value in
  match op, a, b with
  | Expr.Add, Vint x, Vint y -> Vint (x + y)
  | Expr.Add, Vfloat x, Vfloat y -> Vfloat (x +. y)
  | Expr.Sub, Vint x, Vint y -> Vint (x - y)
  | Expr.Sub, Vfloat x, Vfloat y -> Vfloat (x -. y)
  | Expr.Mul, Vint x, Vint y -> Vint (x * y)
  | Expr.Mul, Vfloat x, Vfloat y -> Vfloat (x *. y)
  | Expr.Div, Vint _, Vint 0 -> fail "division by zero"
  | Expr.Div, Vint x, Vint y -> Vint (x / y)
  | Expr.Div, Vfloat x, Vfloat y -> Vfloat (x /. y)
  | Expr.Mod, Vint _, Vint 0 -> fail "modulo by zero"
  | Expr.Mod, Vint x, Vint y -> Vint (x mod y)
  | Expr.Eq, a, b -> Vbool (Value.equal_shallow a b)
  | Expr.Neq, a, b -> Vbool (not (Value.equal_shallow a b))
  | Expr.Lt, Vint x, Vint y -> Vbool (x < y)
  | Expr.Lt, Vfloat x, Vfloat y -> Vbool (x < y)
  | Expr.Lt, Vstring x, Vstring y -> Vbool (String.compare x y < 0)
  | Expr.Le, Vint x, Vint y -> Vbool (x <= y)
  | Expr.Le, Vfloat x, Vfloat y -> Vbool (x <= y)
  | Expr.Le, Vstring x, Vstring y -> Vbool (String.compare x y <= 0)
  | Expr.Gt, Vint x, Vint y -> Vbool (x > y)
  | Expr.Gt, Vfloat x, Vfloat y -> Vbool (x > y)
  | Expr.Gt, Vstring x, Vstring y -> Vbool (String.compare x y > 0)
  | Expr.Ge, Vint x, Vint y -> Vbool (x >= y)
  | Expr.Ge, Vfloat x, Vfloat y -> Vbool (x >= y)
  | Expr.Ge, Vstring x, Vstring y -> Vbool (String.compare x y >= 0)
  | Expr.And, Vbool x, Vbool y -> Vbool (x && y)
  | Expr.Or, Vbool x, Vbool y -> Vbool (x || y)
  | Expr.Concat, Vstring x, Vstring y -> Vstring (x ^ y)
  | Expr.Concat, x, Vstring y -> Vstring (Value.to_string x ^ y)
  | Expr.Concat, Vstring x, y -> Vstring (x ^ Value.to_string y)
  | op, a, b ->
      fail "bad operands for %s: %s, %s" (Expr.binop_name op)
        (Value.type_name a) (Value.type_name b)

let unop op a =
  let open Value in
  match op, a with
  | Expr.Neg, Vint x -> Vint (-x)
  | Expr.Neg, Vfloat x -> Vfloat (-.x)
  | Expr.Not, Vbool b -> Vbool (not b)
  | op, a ->
      fail "bad operand for %s: %s" (Expr.unop_name op) (Value.type_name a)

(* Built-in methods on primitive receivers; a stand-in for the platform's
   base class library. *)
let builtin_call recv name args =
  let open Value in
  match recv, String.lowercase_ascii name, args with
  | Vstring s, "length", [] -> Some (Vint (String.length s))
  | Vstring s, "toupper", [] -> Some (Vstring (String.uppercase_ascii s))
  | Vstring s, "tolower", [] -> Some (Vstring (String.lowercase_ascii s))
  | Vstring s, "substring", [ Vint start; Vint len ] ->
      if start < 0 || len < 0 || start + len > String.length s then
        fail "substring out of range"
      else Some (Vstring (String.sub s start len))
  | Vstring s, "contains", [ Vstring sub ] ->
      let contains () =
        let ls = String.length s and lsub = String.length sub in
        if lsub = 0 then true
        else begin
          let found = ref false in
          for i = 0 to ls - lsub do
            if (not !found) && String.sub s i lsub = sub then found := true
          done;
          !found
        end
      in
      Some (Vbool (contains ()))
  | Vstring s, "tostring", [] -> Some (Vstring s)
  | Vint i, "tostring", [] -> Some (Vstring (string_of_int i))
  | Vfloat f, "tostring", [] -> Some (Vstring (Printf.sprintf "%g" f))
  | Vbool b, "tostring", [] -> Some (Vstring (string_of_bool b))
  | Varr a, "length", [] -> Some (Vint (Array.length a.items))
  | _ -> None

exception User_throw of Value.value

let rec construct_impl reg qname args =
  let cd =
    match Registry.find reg qname with
    | Some cd -> cd
    | None -> fail "unknown class %S" qname
  in
  if cd.Meta.td_kind = Meta.Interface then
    fail "cannot instantiate interface %s" qname;
  let o, chain = Registry.fresh_object reg cd in
  let self = Value.Vobj o in
  (* Field initializers, base class first, over the defaults. *)
  List.iter
    (fun c ->
      List.iter
        (fun f ->
          match f.Meta.f_init with
          | None -> ()
          | Some init ->
              let v = eval_impl reg ~this:(Some self) ~locals:[] init in
              Value.set_field o f.Meta.f_name v)
        c.Meta.td_fields)
    chain;
  (* Constructor by arity. *)
  let nargs = List.length args in
  (match
     List.find_opt
       (fun c -> List.length c.Meta.c_params = nargs)
       cd.Meta.td_ctors
   with
  | None ->
      if nargs = 0 && cd.Meta.td_ctors = [] then ()
      else fail "no constructor of arity %d on %s" nargs qname
  | Some ctor -> (
      match ctor.Meta.c_body with
      | None -> ()
      | Some body ->
          let locals =
            List.map2
              (fun p v -> (p.Meta.param_name, v))
              ctor.Meta.c_params args
          in
          ignore (eval_impl reg ~this:(Some self) ~locals body)));
  self

and call_impl reg recv name args =
  match recv with
  | Value.Vproxy p -> p.Value.px_invoke name args
  | Value.Vobj o -> (
      let cd =
        match Registry.find reg o.Value.cls with
        | Some cd -> cd
        | None -> fail "receiver class %S not loaded" o.Value.cls
      in
      match Registry.find_method reg cd name (List.length args) with
      | Some (_, m) -> (
          match m.Meta.m_body with
          | None ->
              fail "method %s.%s has no body" o.Value.cls m.Meta.m_name
          | Some body ->
              let locals =
                List.map2
                  (fun p v -> (p.Meta.param_name, v))
                  m.Meta.m_params args
              in
              eval_impl reg ~this:(Some recv) ~locals body)
      | None -> (
          match builtin_call recv name args with
          | Some v -> v
          | None ->
              fail "no method %s/%d on %s" name (List.length args)
                o.Value.cls))
  | recv -> (
      match builtin_call recv name args with
      | Some v -> v
      | None ->
          fail "no method %s/%d on %s" name (List.length args)
            (Value.type_name recv))

and call_static_impl reg qname name args =
  let cd =
    match Registry.find reg qname with
    | Some cd -> cd
    | None -> fail "unknown class %S" qname
  in
  let matches m =
    S.equal_ci m.Meta.m_name name
    && Meta.arity m = List.length args
    && m.Meta.m_mods.Meta.static
  in
  match List.find_opt matches cd.Meta.td_methods with
  | None -> fail "no static method %s/%d on %s" name (List.length args) qname
  | Some m -> (
      match m.Meta.m_body with
      | None -> fail "static method %s.%s has no body" qname name
      | Some body ->
          let locals =
            List.map2 (fun p v -> (p.Meta.param_name, v)) m.Meta.m_params args
          in
          eval_impl reg ~this:None ~locals body)

and eval_impl reg ~this ~locals expr =
  let env = { reg; this; locals = List.map (fun (n, v) -> (n, ref v)) locals } in
  eval_in env expr

and eval_in env expr =
  let open Value in
  match expr with
  | Expr.Const Expr.Cnull -> Vnull
  | Expr.Const (Expr.Cbool b) -> Vbool b
  | Expr.Const (Expr.Cint i) -> Vint i
  | Expr.Const (Expr.Cfloat f) -> Vfloat f
  | Expr.Const (Expr.Cstring s) -> Vstring s
  | Expr.Const (Expr.Cchar c) -> Vchar c
  | Expr.This -> (
      match env.this with
      | Some v -> v
      | None -> fail "no `this` in a static context")
  | Expr.Var v -> !(lookup env v)
  | Expr.Let (v, e1, e2) ->
      let bound = eval_in env e1 in
      let saved = env.locals in
      env.locals <- (v, ref bound) :: env.locals;
      let result = eval_in env e2 in
      env.locals <- saved;
      result
  | Expr.Assign (v, e1) ->
      let value = eval_in env e1 in
      lookup env v := value;
      value
  | Expr.Field_get (oe, f) -> (
      let o = as_obj (eval_in env oe) in
      match Value.get_field o f with
      | Some v -> v
      | None -> fail "no field %S on %s" f o.cls)
  | Expr.Field_set (oe, f, ve) ->
      let o = as_obj (eval_in env oe) in
      let v = eval_in env ve in
      if Value.get_field o f = None then fail "no field %S on %s" f o.cls;
      Value.set_field o f v;
      v
  | Expr.Call (oe, m, args) ->
      let recv = eval_in env oe in
      let args = List.map (eval_in env) args in
      call_impl env.reg recv m args
  | Expr.Static_call (c, m, args) ->
      let args = List.map (eval_in env) args in
      call_static_impl env.reg c m args
  | Expr.New (c, args) ->
      let args = List.map (eval_in env) args in
      construct_impl env.reg c args
  | Expr.New_array (ty, items) ->
      let items = List.map (eval_in env) items in
      Varr { elem_ty = ty; items = Array.of_list items }
  | Expr.Index_get (ae, ie) ->
      let a = as_arr (eval_in env ae) in
      let i = as_int (eval_in env ie) in
      if i < 0 || i >= Array.length a.items then
        fail "array index %d out of bounds (length %d)" i
          (Array.length a.items)
      else a.items.(i)
  | Expr.Index_set (ae, ie, ve) ->
      let a = as_arr (eval_in env ae) in
      let i = as_int (eval_in env ie) in
      let v = eval_in env ve in
      if i < 0 || i >= Array.length a.items then
        fail "array index %d out of bounds (length %d)" i
          (Array.length a.items)
      else begin
        a.items.(i) <- v;
        v
      end
  | Expr.Array_length ae -> Vint (Array.length (as_arr (eval_in env ae)).items)
  | Expr.If (c, t, e) ->
      if truthy_rt (eval_in env c) then eval_in env t else eval_in env e
  | Expr.While (c, b) ->
      while truthy_rt (eval_in env c) do
        ignore (eval_in env b)
      done;
      Vnull
  | Expr.Seq es ->
      List.fold_left (fun _ e -> eval_in env e) Vnull es
  | Expr.Binop (op, a, b) ->
      let va = eval_in env a in
      (* Short-circuit boolean operators. *)
      (match op, va with
      | Expr.And, Vbool false -> Vbool false
      | Expr.Or, Vbool true -> Vbool true
      | _ -> binop op va (eval_in env b))
  | Expr.Unop (op, a) -> unop op (eval_in env a)
  | Expr.Throw e -> raise (User_throw (eval_in env e))
  | Expr.Try (body, var, handler) -> (
      let run_handler v =
        let saved = env.locals in
        env.locals <- (var, ref v) :: env.locals;
        let result = eval_in env handler in
        env.locals <- saved;
        result
      in
      try eval_in env body with
      | User_throw v -> run_handler v
      | Runtime_error msg -> run_handler (Value.Vstring msg))


(* Public boundary: an uncaught user throw becomes a runtime error, the
   way an unhandled exception crosses out of the platform. *)
let convert_throws f =
  try f ()
  with User_throw v ->
    fail "unhandled exception: %s" (Value.to_string v)

let construct reg qname args = convert_throws (fun () -> construct_impl reg qname args)
let call reg recv name args = convert_throws (fun () -> call_impl reg recv name args)

let call_static reg qname name args =
  convert_throws (fun () -> call_static_impl reg qname name args)

let eval reg ~this ~locals expr =
  convert_throws (fun () -> eval_impl reg ~this ~locals expr)
