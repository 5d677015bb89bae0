(** Primitive binary readers/writers shared by the binary serializer,
    and the sealed frame every binary wire format travels in.

    Integers use LEB128 varints (zigzag for signed), floats are IEEE-754
    little-endian, strings are length-prefixed. *)

(** {2 Sealed frames}

    Five binary formats share one outer layout:

    {v magic | 8-byte FNV-1a of body (big-endian) | body v}

    PTIE (handle-encoded envelopes), PTIF (batch frames), PTIH
    (handle-bind frames), PTID (binary type descriptions) and PTIB
    (binary payloads). The checksum covers the literal body, so wire
    damage is caught before any structure is parsed. *)

val seal : magic:string -> string -> string
(** [seal ~magic body] renders the frame. *)

type unseal_error = [ `Short | `Bad_magic | `Bad_checksum ]

val unseal : magic:string -> string -> (string, unseal_error) result
(** Returns the body of a frame, checking in this order: the input holds
    at least the magic and the checksum ([`Short]), starts with [magic]
    ([`Bad_magic]), and the checksum matches the body ([`Bad_checksum]).
    Each format maps these to its own error constructor. *)

module Writer : sig
  type t

  val create : ?initial:int -> unit -> t
  val contents : t -> string
  val length : t -> int
  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  (** Unsigned LEB128; value must be >= 0. *)

  val zigzag : t -> int -> unit
  (** Signed (zigzag) LEB128. *)

  val f64 : t -> float -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit

  val raw : t -> string -> unit
  (** Append bytes verbatim (magic headers). *)
end

module Reader : sig
  type t

  exception Underflow of string
  (** Raised on truncated or malformed input. *)

  val create : string -> t
  val pos : t -> int
  val at_end : t -> bool

  val remaining : t -> int
  (** Bytes left to read — an upper bound on how many more encoded
      items (each at least one byte) the input can hold. *)

  val u8 : t -> int
  val varint : t -> int
  val zigzag : t -> int
  val f64 : t -> float
  val string : t -> string
  (** A length-prefixed string. A length that is negative or longer than
      the bytes left raises [Underflow], never [Invalid_argument]. *)

  val bool : t -> bool
  val expect_magic : t -> string -> unit
end
