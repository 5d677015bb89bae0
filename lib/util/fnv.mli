(** FNV-1a 64-bit checksum.

    Used as the integrity digest on serialized envelopes and binary
    payloads. Not cryptographic — it guards against wire corruption, not
    adversaries. Every absorption step [h <- (h lxor byte) * prime] is a
    bijection of the 64-bit accumulator, so any single-byte substitution
    (and any single bit flip) changes the final hash: a flipped byte is
    always detected. *)

val hash64 : ?init:int64 -> string -> int64
(** FNV-1a over the bytes of the string. [init] defaults to the standard
    offset basis; pass a previous result to chain several fragments.
    Allocates only its boxed result, whatever the length. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits, zero padded. *)

val hash_hex : string -> string
(** [to_hex (hash64 s)]. *)

val hash_bytes : string -> string
(** The hash as 8 raw bytes, big-endian — for binary codecs. *)
