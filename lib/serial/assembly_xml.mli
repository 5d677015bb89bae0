(** XML codec for assemblies — the bytes that travel when a receiver
    downloads code (Figure 1, step 5).

    An assembly is a list of [<class>] elements carrying full class
    definitions, interpreted method bodies included, which is what makes
    it an order of magnitude heavier on the wire than a type description.
    The class codec is also the type-description codec: a description is
    its body-less class rendered under its own root element
    ([Pti_typedesc.Type_description.to_xml]). *)

open Pti_cts

val expr_to_xml : Expr.t -> Pti_xml.Xml.t
val expr_of_xml : Pti_xml.Xml.t -> (Expr.t, string) result

val class_to_xml : ?root:string -> Meta.class_def -> Pti_xml.Xml.t
(** The class under the element [root] (default ["class"]): identity and
    kind as attributes, then [<super>], [<interface>], [<field>],
    [<constructor>] and [<method>] children. Field initializers and
    bodies, when present, render as [<init>]/[<body>] children. *)

val class_of_xml :
  ?root:string -> Pti_xml.Xml.t -> (Meta.class_def, string) result
(** Inverse of {!class_to_xml}; rejects any other root element. *)

val to_xml : Assembly.t -> Pti_xml.Xml.t
val of_xml : Pti_xml.Xml.t -> (Assembly.t, string) result

val to_string : Assembly.t -> string
val of_string : string -> (Assembly.t, string) result
