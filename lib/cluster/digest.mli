(** Wire codec of the anti-entropy gossip exchange.

    One message shape serves all three legs of the push-pull protocol
    (see {!Node}): the opening {e digest} summarises what the sender
    knows ([g_types], [g_paths], [g_members], no [g_descs]); the
    {e digest-reply} repeats the responder's own summary and attaches
    the full type descriptions the initiator reported missing; the
    closing {e delta} carries only descriptions. The [kind] field of
    {!Pti_core.Message.Gossip} tells the legs apart. *)

type msg = {
  g_token : int;
      (** Exchange correlator: the initiator stamps its send time under
          this token and turns the reply into an RTT observation. *)
  g_types : (string * string) list;
      (** Known type descriptions: (qualified name, GUID rendering). *)
  g_paths : (string * string) list;
      (** Known download paths: (path, assembly name). *)
  g_chains : (string * (int * string) list) list;
      (** Per-assembly version chains: (assembly name, entries), each
          entry a (version, content digest) pair ascending by version —
          what anti-entropy compares to converge every node on the
          newest chain. *)
  g_members : string list;  (** Known cluster member addresses. *)
  g_descs : string list;  (** Full type-description XML documents. *)
}

val empty : msg

val encode : msg -> string
(** The body is prefixed with an FNV-1a checksum line so wire damage is
    detected rather than absorbed into cluster state (a flipped byte in
    a member address would otherwise become a phantom peer).
    @raise Invalid_argument when an atom contains a tab or newline. *)

val decode : string -> (msg, string) result
(** Total: malformed or corrupt input yields [Error];
    [decode (encode m) = Ok m]. A body without its checksum line is
    rejected. *)
