module S = Pti_util.Strutil
module Fnv = Pti_util.Fnv

type version_entry = {
  ve_version : int;
  ve_digest : string;
  ve_path : string;
  ve_assembly : Pti_cts.Assembly.t;
}

type pin = Latest | Version of int | Digest of string

type cas_error =
  | Conflict of { expected : string option; head : string option }

type t = {
  by_path : (string, Pti_cts.Assembly.t) Hashtbl.t;
  (* Per-name version chains, keyed by lowercased assembly name, kept
     ascending by (version, digest) and deduplicated by digest — so two
     mirrors that learned the same entries in different orders hold
     byte-identical chains. *)
  chains : (string, version_entry list) Hashtbl.t;
  mutable subs : (name:string -> version:int -> digest:string -> unit) list;
}

let create () =
  { by_path = Hashtbl.create 8; chains = Hashtbl.create 8; subs = [] }

let digest_of asm = Fnv.hash_hex (Pti_serial.Assembly_bin.to_string asm)

let path_for ~host ~assembly = Printf.sprintf "asm://%s/%s" host assembly

let path_for_version ~host ~assembly ~version =
  Printf.sprintf "asm://%s/%s@v%d" host assembly version

let parse_path p =
  if S.starts_with ~prefix:"asm://" p then
    let rest = String.sub p 6 (String.length p - 6) in
    match String.index_opt rest '/' with
    | Some i ->
        Some
          ( String.sub rest 0 i,
            String.sub rest (i + 1) (String.length rest - i - 1) )
    | None -> None
  else None

let split_version assembly =
  match String.rindex_opt assembly '@' with
  | Some i
    when i + 1 < String.length assembly && assembly.[i + 1] = 'v' -> (
      let n = String.sub assembly (i + 2) (String.length assembly - i - 2) in
      match int_of_string_opt n with
      | Some v when v > 0 -> (String.sub assembly 0 i, Some v)
      | _ -> (assembly, None))
  | _ -> (assembly, None)

let parse_versioned_path p =
  match parse_path p with
  | None -> None
  | Some (host, assembly) ->
      let name, v = split_version assembly in
      Some (host, name, v)

let chain_key name = String.lowercase_ascii name
let chain t name = Option.value ~default:[] (Hashtbl.find_opt t.chains (chain_key name))

let chain_head t name =
  match chain t name with [] -> None | es -> Some (List.nth es (List.length es - 1))

let notify t ~name ~version ~digest =
  List.iter (fun f -> f ~name ~version ~digest) (List.rev t.subs)

let subscribe t f = t.subs <- f :: t.subs

(* Insert an entry keeping the chain ascending by (version, digest) and
   deduplicated by digest. Returns [true] when the entry was new. *)
let chain_insert t name entry =
  let key = chain_key name in
  let es = chain t key in
  if List.exists (fun e -> String.equal e.ve_digest entry.ve_digest) es then
    false
  else begin
    let es =
      List.merge
        (fun a b -> compare (a.ve_version, a.ve_digest) (b.ve_version, b.ve_digest))
        es [ entry ]
    in
    Hashtbl.replace t.chains key es;
    true
  end

let add t ~path asm =
  Hashtbl.replace t.by_path path asm;
  (* Mirror-side learning: an explicitly versioned path folds the bytes
     into the name's chain (content addressing dedupes re-learns).
     Unversioned adds keep their legacy replace-the-binding semantics
     untouched — only evolution-aware flows produce [@v] paths. *)
  match parse_versioned_path path with
  | Some (_, _, Some version) ->
      let name = asm.Pti_cts.Assembly.asm_name in
      let digest = digest_of asm in
      let entry =
        { ve_version = version; ve_digest = digest; ve_path = path;
          ve_assembly = asm }
      in
      if chain_insert t name entry then notify t ~name ~version ~digest
  | _ -> ()

let learn_version t ~version ~path asm =
  let name = asm.Pti_cts.Assembly.asm_name in
  let digest = digest_of asm in
  let entry =
    { ve_version = version; ve_digest = digest; ve_path = path;
      ve_assembly = asm }
  in
  let fresh = chain_insert t name entry in
  if fresh then begin
    Hashtbl.replace t.by_path path asm;
    notify t ~name ~version ~digest
  end;
  fresh

let publish_cas t ~host ~expect asm =
  let name = asm.Pti_cts.Assembly.asm_name in
  let head = chain_head t name in
  let head_digest = Option.map (fun e -> e.ve_digest) head in
  (* Idempotence: bytes already on the chain succeed regardless of
     [expect] — a retried publish must not conflict with itself. An
     entry holds those bytes when its assembly is [asm], as given or
     re-versioned to the entry's version. The rendering is a function of
     the assembly, and the codec reads back what it renders, so
     comparing the assemblies themselves finds the entry without
     rendering one candidate per entry ([compare], not [=], so a float
     literal that is nan matches itself as its rendering does). *)
  let holds e =
    let a = e.ve_assembly in
    compare a asm = 0
    || a.Pti_cts.Assembly.asm_version = e.ve_version
       && compare a { asm with Pti_cts.Assembly.asm_version = e.ve_version }
          = 0
  in
  let existing = List.find_opt holds (chain t name) in
  match existing with
  | Some e -> Ok e
  | None ->
      if not (Option.equal String.equal expect head_digest) then
        Error (Conflict { expected = expect; head = head_digest })
      else begin
        let version =
          match head with None -> 1 | Some h -> h.ve_version + 1
        in
        let asm = { asm with Pti_cts.Assembly.asm_version = version } in
        let digest = digest_of asm in
        let path = path_for_version ~host ~assembly:name ~version in
        let entry =
          { ve_version = version; ve_digest = digest; ve_path = path;
            ve_assembly = asm }
        in
        ignore (chain_insert t name entry);
        Hashtbl.replace t.by_path path asm;
        (* The canonical unversioned path always serves the head, so
           pre-evolution senders and fetches keep working untouched. *)
        Hashtbl.replace t.by_path (path_for ~host ~assembly:name) asm;
        notify t ~name ~version ~digest;
        Ok entry
      end

let resolve t ?(pin = Latest) name =
  match pin with
  | Latest -> chain_head t name
  | Version v -> List.find_opt (fun e -> e.ve_version = v) (chain t name)
  | Digest d ->
      List.find_opt (fun e -> String.equal e.ve_digest d) (chain t name)

let chain_digests t =
  Hashtbl.fold
    (fun name es acc ->
      (name, List.map (fun e -> (e.ve_version, e.ve_digest)) es) :: acc)
    t.chains []
  |> List.sort compare

let find t ~path =
  match Hashtbl.find_opt t.by_path path with
  | Some asm -> Some asm
  | None -> (
      (* A versioned path with no direct binding is served from the
         chain: any mirror holding the bytes answers, whatever path it
         learned them under. *)
      match parse_versioned_path path with
      | Some (_, name, Some v) ->
          Option.map (fun e -> e.ve_assembly) (resolve t ~pin:(Version v) name)
      | _ -> None)

let find_by_name t name =
  (* A version chain is authoritative: its head is the latest published
     version, wherever older versions are still bound. *)
  match chain_head t name with
  | Some e -> Some (e.ve_path, e.ve_assembly)
  | None ->
      (* Deterministic winner: the lexicographically smallest path, not
         whatever hash order yields first — mirror selection and tests
         must be reproducible across runs. *)
      Hashtbl.fold
        (fun path asm acc ->
          if S.equal_ci asm.Pti_cts.Assembly.asm_name name then
            match acc with
            | Some (best, _) when best <= path -> acc
            | _ -> Some (path, asm)
          else acc)
        t.by_path None

let mirror_paths t name =
  Hashtbl.fold
    (fun path asm acc ->
      if S.equal_ci asm.Pti_cts.Assembly.asm_name name then path :: acc
      else acc)
    t.by_path []
  |> List.sort compare

let entries t =
  Hashtbl.fold
    (fun path asm acc -> (path, asm.Pti_cts.Assembly.asm_name) :: acc)
    t.by_path []
  |> List.sort compare

let paths t = Hashtbl.fold (fun p _ acc -> p :: acc) t.by_path []
let cardinal t = Hashtbl.length t.by_path
