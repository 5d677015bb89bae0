(** Primitive binary readers/writers shared by the binary serializer,
    and the sealed frame every binary wire format travels in.

    Integers use LEB128 varints (zigzag for signed), floats are IEEE-754
    little-endian, strings are length-prefixed. *)

(** {2 Sealed frames}

    Six binary formats share one outer layout:

    {v magic | 8-byte FNV-1a of body (big-endian) | body v}

    PTIE (handle-encoded envelopes), PTIF (batch frames), PTIH
    (handle-bind frames), PTID (binary type descriptions), PTIA
    (assemblies: code with its bodies) and PTIB (binary payloads). The
    checksum covers the literal body, so wire damage is caught before
    any structure is parsed. *)

val seal : magic:string -> string -> string
(** [seal ~magic body] renders the frame, writing its bytes once. An
    encoder that builds its body in a {!Writer} seals it in place
    instead ({!Writer.sealed}, {!Writer.seal}). *)

type unseal_error = [ `Short | `Bad_magic | `Bad_checksum ]

module Writer : sig
  type t
  (** A growable byte buffer. Writing allocates only when the buffer
      grows: a varint, a float or a string's length costs no heap
      words. *)

  val create : ?initial:int -> unit -> t
  val contents : t -> string
  val length : t -> int

  val reset : t -> unit
  (** Empty the writer for reuse, keeping its buffer (a buffer grown
      past 64 KiB is dropped for a small one). *)

  val scratch : unit -> unit -> t
  (** [scratch ()] is one encoder's source of scratch writers, one per
      domain: each call of the function it returns gives the calling
      domain's writer, {!reset} first. Nothing a previous use wrote
      survives the reset, so an encoder that raised leaves nothing
      behind, and a 64 KiB frame does not pin its buffer. The writer is
      the encoder's until it next calls that function on the same
      domain: it copies its frame out ({!contents}, {!seal}) before
      returning, and each encoder makes its own source, so encoders that
      run inside one another ({!Envelope.to_string_h} after
      {!Bin_ser.encode}) never share a writer. *)

  val u8 : t -> int -> unit
  val varint : t -> int -> unit
  (** Unsigned LEB128; value must be >= 0. *)

  val zigzag : t -> int -> unit
  (** Signed (zigzag) LEB128, for every [int]. *)

  val f64 : t -> float -> unit
  val string : t -> string -> unit
  val bool : t -> bool -> unit

  val raw : t -> string -> unit
  (** Append bytes verbatim (magic headers). *)

  (** {3 Sealing in place} *)

  val begin_seal : t -> magic:string -> unit
  (** On an empty writer: write [magic] and leave room for the checksum;
      the body follows.
      @raise Invalid_argument if the writer is not empty. *)

  val sealed : ?initial:int -> magic:string -> unit -> t
  (** A fresh writer after {!begin_seal}. *)

  val seal : t -> string
  (** The frame {!Bytes_io.seal} would render for the bytes written
      after {!begin_seal}: the checksum is computed over the buffer in
      place and written into its room, and the frame is copied out
      once.
      @raise Invalid_argument on a writer that was not begun sealed. *)
end

module Reader : sig
  type t

  exception Underflow of string
  (** Raised on truncated or malformed input. *)

  val create : ?pos:int -> string -> t
  (** A reader of the string from [pos] (default 0) to its end.
      @raise Invalid_argument if [pos] is outside the string. *)

  val pos : t -> int
  val source : t -> string
  (** The whole string read, of which {!pos} is the cursor. *)

  val at_end : t -> bool

  val remaining : t -> int
  (** Bytes left to read — an upper bound on how many more encoded
      items (each at least one byte) the input can hold. *)

  val u8 : t -> int
  val varint : t -> int
  (** Unsigned LEB128, read without allocating. *)

  val zigzag : t -> int
  val f64 : t -> float
  val string : t -> string
  (** A length-prefixed string. A length that is negative or longer than
      the bytes left raises [Underflow], never [Invalid_argument]. *)

  val skip_string : t -> int
  (** Step over a length-prefixed string, checked as {!string} checks
      it, and return the position of its first byte: the bytes stay in
      {!source}, where a caller can compare them in place. *)

  val bool : t -> bool
  val expect_magic : t -> string -> unit
end

val unseal : magic:string -> string -> (Reader.t, unseal_error) result
(** Checks a frame in place, in this order: the input holds at least the
    magic and the checksum ([`Short]), starts with [magic]
    ([`Bad_magic]), and the checksum matches the body ([`Bad_checksum]).
    On success the result reads the body where it lies, from just after
    the checksum to the end of the input: nothing is copied. Each format
    maps the errors to its own constructor. *)
