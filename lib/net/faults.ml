type address = string

type 'a hooks = {
  fh_down : now:float -> src:address -> dst:address -> bool;
  fh_drop : now:float -> src:address -> dst:address -> bool;
  fh_duplicates : now:float -> src:address -> dst:address -> int;
  fh_delay : now:float -> src:address -> dst:address -> float;
  fh_corrupt : now:float -> src:address -> dst:address -> 'a -> 'a option;
}

let no_hooks =
  {
    fh_down = (fun ~now:_ ~src:_ ~dst:_ -> false);
    fh_drop = (fun ~now:_ ~src:_ ~dst:_ -> false);
    fh_duplicates = (fun ~now:_ ~src:_ ~dst:_ -> 0);
    fh_delay = (fun ~now:_ ~src:_ ~dst:_ -> 0.);
    fh_corrupt = (fun ~now:_ ~src:_ ~dst:_ _ -> None);
  }

type 'a t = {
  partitions : (string, unit) Hashtbl.t;
  mutable hooks : 'a hooks option;
  mutable integrity : ('a -> bool) option;
  mutable dropped : int;
  mutable injected_drops : int;
  mutable injected_duplicates : int;
  mutable corrupted_frames : int;
  mutable integrity_drops : int;
}

let create () =
  {
    partitions = Hashtbl.create 4;
    hooks = None;
    integrity = None;
    dropped = 0;
    injected_drops = 0;
    injected_duplicates = 0;
    corrupted_frames = 0;
    integrity_drops = 0;
  }

let link_key a b = if a <= b then a ^ "|" ^ b else b ^ "|" ^ a
let partition t a b = Hashtbl.replace t.partitions (link_key a b) ()
let heal t a b = Hashtbl.remove t.partitions (link_key a b)
let set_hooks t h = t.hooks <- h
let set_integrity t f = t.integrity <- f
let drop t = t.dropped <- t.dropped + 1
let reject t = t.integrity_drops <- t.integrity_drops + 1

let copies t ~now ~src ~dst =
  match t.hooks with
  | None -> 1
  | Some f ->
      let extra = max 0 (f.fh_duplicates ~now ~src ~dst) in
      t.injected_duplicates <- t.injected_duplicates + extra;
      1 + extra

let severed t ~now ~src ~dst =
  Hashtbl.mem t.partitions (link_key src dst)
  || match t.hooks with None -> false | Some f -> f.fh_down ~now ~src ~dst

let injected_drop t ~now ~src ~dst =
  match t.hooks with
  | None -> false
  | Some f ->
      let hit = f.fh_drop ~now ~src ~dst in
      if hit then t.injected_drops <- t.injected_drops + 1;
      hit

let corrupt t ~now ~src ~dst payload =
  match t.hooks with
  | None -> payload
  | Some f -> (
      match f.fh_corrupt ~now ~src ~dst payload with
      | None -> payload
      | Some p ->
          t.corrupted_frames <- t.corrupted_frames + 1;
          p)

let delay t ~now ~src ~dst =
  match t.hooks with
  | None -> 0.
  | Some f -> Float.max 0. (f.fh_delay ~now ~src ~dst)

let admit t payload =
  match t.integrity with
  | Some chk when not (chk payload) ->
      reject t;
      false
  | _ -> true
