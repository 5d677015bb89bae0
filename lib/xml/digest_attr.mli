(** Integrity digests for XML wire documents.

    A digested document carries a [digest] attribute on its root
    element, holding the FNV-1a hash of the bytes as sent with that
    attribute cut out. The writer renders once: it hashes the compact,
    digest-free rendering and splices [ digest="…"] in after the root
    tag name. The reader checks the bytes it received: it hashes the
    input around the attribute's span, in place, so any byte changed
    outside the span mismatches. A digest anywhere in the root's start
    tag is checked, wherever it sits among the other attributes.
    Documents without the attribute are accepted unchecked (pre-digest
    writers, pretty-printed display output). *)

val attr_name : string
(** ["digest"]. *)

val to_string : Xml.t -> string
(** The compact rendering of an element with a [digest] attribute
    spliced in first on its root, holding the hash of the rendering
    without it. A non-element renders as {!Xml.to_string}. *)

val of_string : string -> (Xml.t, [ `Syntax of Xml.error | `Mismatch ]) result
(** Parses a document and checks its digest, if its root carries one.
    The tree is returned as parsed, attribute included. *)
