(** The CTS interpreter: runs method and constructor bodies.

    Invocation here is the baseline cost the paper measures in §7.1: a
    direct call resolves the method on the receiver's runtime class and
    evaluates its body; a proxied call additionally goes through the proxy's
    dispatch closure. A call looks its class and method up by name and a
    body reads and writes fields by name, all compared in place: a call
    allocates its environment, the option {!Registry.find_method}
    returns, and one mutable binding per parameter or local. *)

exception Runtime_error of string
(** Any dynamic failure: unknown method/field, arity mismatch, type error in
    a primitive operation, division by zero, null dereference. This is
    precisely the failure mode the paper warns about for weakened
    conformance rules (§4.2) and that experiment E6 counts. *)

val construct : Registry.t -> string -> Value.value list -> Value.value
(** [construct reg qname args] instantiates a class: allocates the object,
    installs field defaults and initializers (base-first), then runs the
    matching constructor (by arity). A class with no declared constructor
    has an implicit zero-argument one.
    @raise Runtime_error *)

val call : Registry.t -> Value.value -> string -> Value.value list ->
  Value.value
(** [call reg recv name args] — virtual dispatch on the receiver's runtime
    class; on a proxy, forwards through the proxy dispatch closure.
    Built-in receivers (strings, arrays) support a small method set
    ([length], [substring], [toString], ...).
    @raise Runtime_error *)

val call_static : Registry.t -> string -> string -> Value.value list ->
  Value.value
(** [call_static reg qname meth args].
    @raise Runtime_error *)

val eval : Registry.t -> this:Value.value option ->
  locals:(string * Value.value) list -> Expr.t -> Value.value
(** Evaluate an expression with the given receiver and local bindings;
    exposed for tests and for field initializers in custom tooling. *)
