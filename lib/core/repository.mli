(** Assembly repository: the store behind download paths.

    Each peer publishes the assemblies it authored under paths of the form
    [asm://<host>/<assembly-name>]; envelope type entries carry these paths
    so any receiver knows where to fetch code (§6.1).

    The store is {e versioned and content-addressed}: every assembly a
    name has ever resolved to lives on that name's version chain, keyed by
    the FNV-1a digest of its canonical XML bytes. {!publish_cas} extends a
    chain by compare-and-set over the head digest — concurrent publishers
    cannot silently lose each other's update — and {!resolve} answers a
    pinned ([Version]/[Digest]) or [Latest] lookup, so mirrors can serve
    any version a receiver negotiated while new senders pick up the head. *)

type t

val create : unit -> t

val add : t -> path:string -> Pti_cts.Assembly.t -> unit
(** Replaces an existing binding (a newer version). Mirror-side learning:
    when [path] carries a [@v<N>] version suffix, the assembly is also
    folded into its name's version chain, keyed by content digest, so a
    mirror that learned v1 and v2 in either order converges on the same
    chain. Unversioned adds keep their legacy semantics untouched. *)

val find : t -> path:string -> Pti_cts.Assembly.t option
(** Exact path lookup. A versioned path [asm://h/name@v<N>] that has no
    direct binding falls back to the name's chain entry for version [N] —
    a mirror serves any version it has, whatever path it learned it
    under. *)

val find_by_name : t -> string -> (string * Pti_cts.Assembly.t) option
(** Path and assembly for an assembly name (case-insensitive). A name
    with a version chain resolves to the chain head (latest version);
    otherwise, when the assembly is registered under several paths
    (mirrors), the lexicographically smallest path wins —
    deterministically, independent of hash order. *)

(** {1 Version chains} *)

type version_entry = {
  ve_version : int;  (** Position on the chain, 1-based. *)
  ve_digest : string;  (** FNV-1a hex of the canonical assembly bytes. *)
  ve_path : string;  (** Download path the entry was published under. *)
  ve_assembly : Pti_cts.Assembly.t;
}

type pin =
  | Latest
  | Version of int
  | Digest of string
      (** Content-addressed: exactly the bytes with this digest. *)

type cas_error =
  | Conflict of { expected : string option; head : string option }
      (** The chain head moved: [expected] is what the caller believed,
          [head] is the digest actually at the head ([None] = empty). *)

val digest_of : Pti_cts.Assembly.t -> string
(** FNV-1a 64-bit hex over the canonical XML serialization — the content
    address used everywhere a version is named. Injective on canonical
    bytes up to hash collision; the chain additionally stores the bytes,
    so equal digests with different content would be caught on merge. *)

val publish_cas :
  t ->
  host:string ->
  expect:string option ->
  Pti_cts.Assembly.t ->
  (version_entry, cas_error) result
(** Compare-and-set publish. [expect] must equal the current head digest
    of the assembly's name chain ([None] for a first publish). On success
    the assembly is stamped with the next version number, appended to the
    chain, and bound under both its versioned path
    [asm://host/name@v<N>] and the canonical unversioned path (which thus
    always serves the head). Republishing bytes already on the chain is
    idempotent and returns the existing entry regardless of [expect].
    Subscribers are notified after the chain is extended. *)

val resolve : t -> ?pin:pin -> string -> version_entry option
(** Resolve a name (case-insensitive) against its version chain. [Latest]
    (default) returns the head. Names without a chain resolve to [None] —
    use {!find_by_name} for the legacy path-scan fallback. *)

val chain : t -> string -> version_entry list
(** The full chain for a name, ascending by version ([] if none). *)

val chain_digests : t -> (string * (int * string) list) list
(** Every chain as [(name, [(version, digest); ...])], names sorted,
    versions ascending — the raw material of an anti-entropy chain
    digest. Names are the lowercased assembly names. *)

val learn_version :
  t -> version:int -> path:string -> Pti_cts.Assembly.t -> bool
(** Mirror-side chain merge: insert the assembly at [version] on its
    name's chain, keyed by content digest. Returns [true] if the entry
    was new. Merging the same set of (version, assembly) pairs in any
    order yields the same chain, so gossip convergence is order-free.
    Also binds [path] so the mirror can serve the bytes. Subscribers are
    notified of genuinely new entries. *)

val subscribe : t -> (name:string -> version:int -> digest:string -> unit) -> unit
(** Change notification: called after every chain extension (local CAS
    publish or mirror merge), with the assembly's name as published. *)

val mirror_paths : t -> string -> string list
(** Every path the named assembly (case-insensitive) is registered
    under, sorted. An assembly replicated across hosts has one entry per
    mirror. *)

val entries : t -> (string * string) list
(** All [(path, assembly-name)] bindings, sorted by path — the raw
    material of an anti-entropy digest. *)

val paths : t -> string list
val cardinal : t -> int

val path_for : host:string -> assembly:string -> string
(** The canonical [asm://host/assembly] download path. *)

val path_for_version : host:string -> assembly:string -> version:int -> string
(** The versioned [asm://host/assembly@v<N>] download path. *)

val parse_path : string -> (string * string) option
(** [Some (host, assembly)] for a canonical path; a versioned path parses
    to its unversioned assembly name plus suffix (use
    {!parse_versioned_path} to split the version out). *)

val parse_versioned_path : string -> (string * string * int option) option
(** [Some (host, assembly, Some v)] for [asm://host/assembly@v<N>],
    [Some (host, assembly, None)] for the canonical form. *)
