(* One wire shape covers the whole anti-entropy exchange: a digest is a
   message with empty [g_descs]; a digest-reply adds the descriptions the
   other side was missing; the closing delta carries only descriptions.
   Line-based with tab separators — none of the encoded atoms (qualified
   type names, asm:// paths, GUIDs, addresses) may contain tabs or
   newlines — except type-description XML, which is length-prefixed so
   its free-form body never confuses the scanner. *)

type msg = {
  g_token : int;
  g_types : (string * string) list;
  g_paths : (string * string) list;
  g_chains : (string * (int * string) list) list;
  g_members : string list;
  g_descs : string list;
}

let empty =
  { g_token = 0; g_types = []; g_paths = []; g_chains = []; g_members = [];
    g_descs = [] }

let no_tabs what s =
  if String.contains s '\t' || String.contains s '\n' then
    invalid_arg (Printf.sprintf "Digest.encode: %s contains a separator" what)

(* A flipped byte in a gossip body must not smuggle a mangled member
   address or download path into cluster state (a later probe of a
   never-registered address is a hard failure), so the body is guarded
   by a leading checksum line, which [encode] always writes and
   [decode] requires. *)
let sum_tag = "sum"

let encode m =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "token\t%d\n" m.g_token);
  List.iter
    (fun (name, guid) ->
      no_tabs "type name" name;
      no_tabs "guid" guid;
      Buffer.add_string b (Printf.sprintf "type\t%s\t%s\n" name guid))
    m.g_types;
  List.iter
    (fun (path, asm) ->
      no_tabs "path" path;
      no_tabs "assembly name" asm;
      Buffer.add_string b (Printf.sprintf "path\t%s\t%s\n" path asm))
    m.g_paths;
  List.iter
    (fun (name, entries) ->
      no_tabs "chain assembly" name;
      let rendered =
        String.concat ","
          (List.map (fun (v, d) -> Printf.sprintf "%d:%s" v d) entries)
      in
      no_tabs "chain entries" rendered;
      Buffer.add_string b (Printf.sprintf "chain\t%s\t%s\n" name rendered))
    m.g_chains;
  List.iter
    (fun addr ->
      no_tabs "member" addr;
      Buffer.add_string b (Printf.sprintf "member\t%s\n" addr))
    m.g_members;
  List.iter
    (fun xml ->
      Buffer.add_string b (Printf.sprintf "desc\t%d\n" (String.length xml));
      Buffer.add_string b xml;
      Buffer.add_char b '\n')
    m.g_descs;
  let body = Buffer.contents b in
  Printf.sprintf "%s\t%s\n%s" sum_tag (Pti_util.Fnv.hash_hex body) body

(* Peel and verify the checksum line before the scanner sees the body. *)
let verified_body s =
  match String.index_opt s '\n' with
  | Some i when i > 4 && String.sub s 0 4 = sum_tag ^ "\t" ->
      let declared = String.sub s 4 (i - 4) in
      let body = String.sub s (i + 1) (String.length s - i - 1) in
      if String.equal declared (Pti_util.Fnv.hash_hex body) then Ok body
      else Error "digest: checksum mismatch"
  | _ -> Error "digest: missing checksum line"

let decode s =
  match verified_body s with
  | Error _ as e -> e
  | Ok s ->
  let len = String.length s in
  let pos = ref 0 in
  let err fmt = Printf.ksprintf (fun e -> Error e) fmt in
  let line () =
    if !pos >= len then None
    else
      let stop =
        match String.index_from_opt s !pos '\n' with
        | Some i -> i
        | None -> len
      in
      let l = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      Some l
  in
  let fields l = String.split_on_char '\t' l in
  let rec loop acc =
    match line () with
    | None -> Ok acc
    | Some "" -> loop acc
    | Some l -> (
        match fields l with
        | [ "token"; v ] -> (
            match int_of_string_opt v with
            | Some tok -> loop { acc with g_token = tok }
            | None -> err "digest: bad token %S" v)
        | [ "type"; name; guid ] ->
            loop { acc with g_types = (name, guid) :: acc.g_types }
        | [ "path"; path; asm ] ->
            loop { acc with g_paths = (path, asm) :: acc.g_paths }
        | [ "chain"; name; entries ] -> (
            let parse_entry e =
              match String.index_opt e ':' with
              | None -> None
              | Some i -> (
                  let v = String.sub e 0 i in
                  let d = String.sub e (i + 1) (String.length e - i - 1) in
                  match int_of_string_opt v with
                  | Some v when v > 0 && d <> "" -> Some (v, d)
                  | _ -> None)
            in
            let parsed =
              if entries = "" then Some []
              else
                let rec all acc = function
                  | [] -> Some (List.rev acc)
                  | e :: rest -> (
                      match parse_entry e with
                      | Some p -> all (p :: acc) rest
                      | None -> None)
                in
                all [] (String.split_on_char ',' entries)
            in
            match parsed with
            | Some entries ->
                loop { acc with g_chains = (name, entries) :: acc.g_chains }
            | None -> err "digest: bad chain entries for %S" name)
        | [ "member"; addr ] ->
            loop { acc with g_members = addr :: acc.g_members }
        | [ "desc"; v ] -> (
            match int_of_string_opt v with
            | Some n when n >= 0 && !pos + n <= len ->
                let xml = String.sub s !pos n in
                (* skip the payload and its trailing newline *)
                pos := !pos + n + 1;
                loop { acc with g_descs = xml :: acc.g_descs }
            | _ -> err "digest: bad desc length %S" v)
        | tag :: _ -> err "digest: unknown tag %S" tag
        | [] -> loop acc)
  in
  match loop empty with
  | Error _ as e -> e
  | Ok m ->
      Ok
        {
          m with
          g_types = List.rev m.g_types;
          g_paths = List.rev m.g_paths;
          g_chains = List.rev m.g_chains;
          g_members = List.rev m.g_members;
          g_descs = List.rev m.g_descs;
        }
