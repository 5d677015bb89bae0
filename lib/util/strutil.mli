(** Small string helpers shared across the middleware. *)

val starts_with : prefix:string -> string -> bool
val split_on : char -> string -> string list

val join : string -> string list -> string
(** [join sep parts] concatenates with [sep] between elements. *)

val equal_ci : string -> string -> bool
(** ASCII case-insensitive equality; identifier comparison in the CTS is
    case-insensitive, mirroring the paper's name rule. Compares folded
    bytes in place and allocates nothing. *)

val equal_ci_sub : string -> int -> string -> int -> int -> bool
(** [equal_ci_sub a i b j n]: the [n] bytes of [a] from [i] are
    {!equal_ci} to the [n] bytes of [b] from [j]. In place, allocation
    free. @raise Invalid_argument if a range is not within its string. *)

val compare_ci : string -> string -> int
(** The order of the ASCII-lowercased strings ([String.compare] of both
    folded), computed in place without allocating. *)

val mem_ci : string -> string list -> bool
(** Whether the list holds a string {!equal_ci} to the first. *)

val hash_ci : string -> int
(** A non-negative hash of the ASCII-lowercased string, computed in
    place: {!equal_ci} strings hash equal. Allocates nothing. *)

val hex_digit : int -> char
(** The lowercase hex digit of a nibble ([0 <= n < 16]). *)

val hex_value : char -> int
(** The nibble a hex digit (either case) stands for; [-1] for any other
    character. *)

val is_identifier : string -> bool
(** True for [\[A-Za-z_\]\[A-Za-z0-9_\]*] — validity check used by the class
    builder DSL. *)

val common_prefix_length : string -> string -> int

val truncate_middle : max:int -> string -> string
(** Shortens long strings for log and diagnostic output, keeping both ends. *)
