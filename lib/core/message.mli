(** Wire messages of the type-interoperability protocol (Figure 1).

    Every payload travels in its actual wire rendering (XML text or a
    sealed binary frame), so the [size] charged to the network simulator
    is the honest byte count. *)

type t =
  | Obj_msg of {
      envelope : string;  (** Hybrid envelope XML (Figure 3). *)
      tdescs : string list;
          (** Inlined type descriptions — empty under the optimistic
              protocol, populated by the eager baseline. *)
      assemblies : string list;
          (** Inlined code as [PTIA] frames — eager baseline only. *)
    }
  | Obj_batch of { frame : string }
      (** Several coalesced [Obj_msg] payloads (plus opportunistic
          gossip piggyback) in one checksummed {!Pti_serial.Batch_frame},
          amortising per-message framing and ack overhead. *)
  | Tdesc_request of {
      type_name : string;
      token : int;
      binary_ok : bool;
      version : int;
          (** Pin to this chain version of the type's assembly; [0] = the
              responder's latest (pre-evolution behavior, absent on the
              wire). *)
    }
      (** [binary_ok] advertises that the requester accepts the compact
          binary type-description codec in the reply; responders fall
          back to XML for peers that do not. *)
  | Tdesc_reply of { type_name : string; desc : string option; token : int }
      (** [None]: the queried host does not know the type either. *)
  | Asm_request of { path : string; token : int }
  | Asm_reply of { path : string; assembly : string option; token : int }
      (** [assembly]: the code as a sealed [PTIA] frame
          ({!Pti_serial.Assembly_bin}); [None] when the host does not
          serve [path]. *)
  | Invoke_request of {
      target : int;  (** Exported object id on the destination host. *)
      meth : string;  (** Actual-side method name (translated by caller). *)
      args : string;
          (** The argument values' envelope (an object array), as a sealed
              [PTIE] frame ({!Pti_serial.Envelope.to_string_h}) whose type
              entries are all bound inside the frame: it needs no link
              handle table, and a ref slot is refused. A classic XML
              envelope, as older peers send, is still accepted. *)
      token : int;
    }
  | Invoke_reply of {
      token : int;
      result : string option;
          (** The return value's envelope, in the same form as [args]. *)
      error : string option;
    }
  | Gossip of { kind : string; body : string }
      (** Cluster background traffic ([pti_cluster]): membership
          announcements, anti-entropy digests, replica pushes. [kind]
          discriminates; [body] is the codec-specific payload. The core
          peer only routes these — semantics live in the cluster layer. *)
  | Handle_nak of { handles : int list }
      (** The receiver could not resolve these negotiated type handles
          (cold cache, restart, eviction): ask the sender to re-bind. *)
  | Handle_bind of { frame : string }
      (** Renegotiated handle bindings in a checksummed
          {!Pti_serial.Handle_table} bind frame. *)

val category : t -> Pti_net.Stats.category

val size : t -> int
(** Payload bytes plus a small fixed framing overhead. *)

val describe : t -> string
(** One-line rendering for logs. *)
