module Fnv = Pti_util.Fnv

let attr_name = "digest"

(* [ digest="<16 hex digits>"], spliced in after the root tag name. *)
let prefix = " " ^ attr_name ^ "=\""
let attr_length = String.length prefix + 16 + 1

let to_string x =
  let body = Xml.to_string x in
  match x with
  | Xml.Element (tag, _, _) ->
      let at = 1 + String.length tag in
      let b = Bytes.create (String.length body + attr_length) in
      Bytes.blit_string body 0 b 0 at;
      Bytes.blit_string prefix 0 b at (String.length prefix);
      Bytes.blit_string (Fnv.hash_hex body) 0 b (at + String.length prefix) 16;
      Bytes.set b (at + attr_length - 1) '"';
      Bytes.blit_string body at b (at + attr_length) (String.length body - at);
      Bytes.unsafe_to_string b
  | Xml.Text _ | Xml.Cdata _ | Xml.Comment _ -> body

let of_string s =
  match Xml.parse_locating ~attr:attr_name s with
  | Error e -> Error (`Syntax e)
  | Ok (x, None) -> Ok x
  | Ok (x, Some (start, stop)) ->
      let h =
        Fnv.hash64_sub
          ~init:(Fnv.hash64_sub s ~pos:0 ~len:start)
          s ~pos:stop
          ~len:(String.length s - stop)
      in
      match Xml.attr attr_name x with
      | Some d when String.equal d (Fnv.to_hex h) -> Ok x
      | _ -> Error `Mismatch
