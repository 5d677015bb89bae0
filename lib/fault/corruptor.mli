(** Byte-level corruption of protocol messages.

    Only payload-bearing fields are mangled — object envelopes, batch
    frames, handle-bind frames, type description replies (XML or PTID),
    assembly replies (PTIA frames) and gossip bodies (digests and
    replica pushes). Requests carry no integrity digest;
    flipping a [type_name] in flight would manifest as an undetectable
    failed lookup rather than a detectable corruption, which is not the
    property under test. *)

module Splitmix = Pti_util.Splitmix

val flip_byte : Splitmix.t -> string -> string
(** Flip one random byte (XOR with a random non-zero value). The result
    always differs from the input; empty strings come back unchanged. *)

val corrupt_message : Splitmix.t -> Pti_core.Message.t -> Pti_core.Message.t option
(** [Some] with one payload byte flipped for payload-bearing messages;
    [None] for requests, acks and other non-payload traffic. *)

val frame_intact : Pti_core.Message.t -> bool
(** Integrity predicate for {!Pti_net.Net.set_integrity}: an [Obj_msg]
    whose envelope fails its wire digest, an [Obj_batch] whose frame
    checksum mismatches, or a [Handle_bind] with a damaged bind frame is
    rejected at the frame level (so ARQ retransmits it); every other
    message is waved through to the peer, whose digest checks classify
    and count it. A handle-encoded envelope with merely {e unresolvable}
    handles is wire-intact and passes — renegotiation, not
    retransmission, is the cure for that. *)
