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

val hash64_sub : ?init:int64 -> string -> pos:int -> len:int -> int64
(** FNV-1a over the [len] bytes of the string from [pos], read in place:
    [hash64_sub s ~pos ~len] is [hash64 (String.sub s pos len)] without
    the copy, and chaining two slices with [init] hashes their
    concatenation. Allocates only its boxed result.
    @raise Invalid_argument if the range is not within the string. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits, zero padded. Allocates only the string. *)

val hash_hex : string -> string
(** [to_hex (hash64 s)]. *)

val hash_bytes : string -> string
(** The hash as 8 raw bytes, big-endian — for binary codecs. *)

(** {2 Streaming}

    A running hash fed fragment by fragment: feeding [a] then [b] leaves
    the value {!hash64}[ (a ^ b)] without building the concatenation. *)

type state
(** The accumulator, held in 8 bytes and updated in place: feeding
    allocates nothing. *)

val init : unit -> state
(** A fresh state at the offset basis (one 8-byte block). *)

val feed_sub : state -> string -> pos:int -> len:int -> unit
(** Absorb [len] bytes of the string from [pos], read in place.
    @raise Invalid_argument if the range is not within the string. *)

val feed_string : state -> string -> unit
val feed_char : state -> char -> unit

val feed_int : state -> int -> unit
(** Absorb the decimal digits {!string_of_int} would write; for a
    non-negative int without building them. *)

val value : state -> int64
(** The hash of everything fed so far. *)

val equal_be : state -> string -> pos:int -> bool
(** Whether the 8 bytes of the string at [pos] hold {!value}, big-endian
    (the layout of {!hash_bytes}), compared in place. *)
