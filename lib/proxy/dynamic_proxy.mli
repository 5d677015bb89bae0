(** Dynamic proxies: the interposition layer of §6.

    A proxy wraps a conformant object so callers can invoke it through the
    type of interest's vocabulary. Invocation translates the method name,
    permutes arguments (rule iv), and recursively wraps argument and return
    objects whose static types differ between the two sides — the
    "mismatch increases with the depth of the matching" remark of §6.2.

    Dispatch policy: an invocation found in the conformance mapping is
    translated; anything else is {e forwarded optimistically} under its own
    name and argument order. With the full rules every interest-type method
    is in the mapping, so optimistic forwarding is only exercised by
    identity mappings — or by proxies built from weakened rules, where it
    is exactly the unsafe behaviour experiment E6 quantifies. *)

open Pti_cts

type context
(** Shared machinery for a family of proxies: the registry that runs
    invocations and the checker that derives nested mappings on demand. *)

val create_context : Registry.t -> Pti_conformance.Checker.t -> context

val wrap : context -> interest:string -> mapping:Pti_conformance.Mapping.t ->
  Value.value -> Value.value
(** [wrap cx ~interest ~mapping v] presents [v] as [interest]. Identity
    mappings still produce a proxy (uniform invocation path — this is the
    indirection §7.1 measures), but no translation happens inside. *)

val wrap_compound : context ->
  interests:(string * Pti_conformance.Mapping.t) list -> Value.value ->
  Value.value
(** A proxy answering the union of several interests' vocabularies
    (compound types, §2.2 of the paper): an invocation is translated by
    the first mapping that knows the method, and forwarded optimistically
    when none does. The advertised interface is the compound notation
    [\[A, B\]].
    @raise Invalid_argument on an empty list. *)

val coerce : context -> interest:string -> Value.value -> Value.value
(** [coerce cx ~interest v]: [v] unchanged when it is not an object or
    already of type [interest]; otherwise checks conformance of [v]'s
    runtime type against [interest] and wraps.
    @raise Pti_cts.Eval.Runtime_error when the check fails. *)

val construct_as : context -> interest:string -> actual:string ->
  Value.value list -> Value.value
(** [construct_as cx ~interest ~actual args] instantiates the (loaded)
    class [actual] through the {e interest} type's constructor signature:
    the rule (v) witness permutes [args] into the actual constructor's
    order, and the fresh instance comes back wrapped as [interest]. This
    is how a receiver creates objects of a downloaded conformant type in
    its own vocabulary.
    @raise Pti_cts.Eval.Runtime_error when the types do not conform or no
    constructor of that arity was matched. *)

val unwrap : Value.value -> Value.value
(** Strips proxy layers down to the underlying value. *)

val is_proxy : Value.value -> bool

val invoke : Registry.t -> Value.value -> string -> Value.value list ->
  Value.value
(** Uniform invocation: {!Pti_cts.Eval.call}, re-exported so applications
    need not know whether they hold a proxy or a direct object. *)
