module Splitmix = Pti_util.Splitmix

type selector =
  | Any
  | Between of string * string
  | From_host of string
  | To_host of string
  | Touching of string

type action =
  | Loss of float
  | Duplicate of float
  | Reorder of float
  | Corrupt of float
  | Down

type window = {
  w_start : float;
  w_stop : float;
  w_sel : selector;
  w_act : action;
}

type t = { windows : window list }

let selector_matches sel ~src ~dst =
  match sel with
  | Any -> true
  | Between (a, b) -> (src = a && dst = b) || (src = b && dst = a)
  | From_host h -> src = h
  | To_host h -> dst = h
  | Touching h -> src = h || dst = h

let window_active w ~now ~src ~dst =
  now >= w.w_start && now < w.w_stop && selector_matches w.w_sel ~src ~dst

let horizon t = List.fold_left (fun acc w -> Float.max acc w.w_stop) 0. t.windows

let coin rng p = Splitmix.float rng < p
let uniform rng x = Splitmix.float rng *. x

let hooks plan ~rng ~corrupt =
  let active ~now ~src ~dst =
    List.filter (fun w -> window_active w ~now ~src ~dst) plan.windows
  in
  {
    Pti_net.Faults.fh_down =
      (fun ~now ~src ~dst ->
        List.exists
          (fun w -> match w.w_act with Down -> true | _ -> false)
          (active ~now ~src ~dst));
    fh_drop =
      (fun ~now ~src ~dst ->
        List.exists
          (fun w -> match w.w_act with Loss p -> coin rng p | _ -> false)
          (active ~now ~src ~dst));
    fh_duplicates =
      (fun ~now ~src ~dst ->
        List.fold_left
          (fun acc w ->
            match w.w_act with
            | Duplicate p when coin rng p -> acc + 1
            | _ -> acc)
          0
          (active ~now ~src ~dst));
    fh_delay =
      (fun ~now ~src ~dst ->
        List.fold_left
          (fun acc w ->
            match w.w_act with
            | Reorder ms -> acc +. uniform rng ms
            | _ -> acc)
          0.
          (active ~now ~src ~dst));
    fh_corrupt =
      (fun ~now ~src ~dst payload ->
        if
          List.exists
            (fun w -> match w.w_act with Corrupt p -> coin rng p | _ -> false)
            (active ~now ~src ~dst)
        then corrupt rng payload
        else None);
  }

(* Profiles *)

type profile = Lossy | Flaky | Byzantine_wire

let profile_name = function
  | Lossy -> "lossy"
  | Flaky -> "flaky"
  | Byzantine_wire -> "byzantine-wire"

let profile_of_string = function
  | "lossy" -> Some Lossy
  | "flaky" -> Some Flaky
  | "byzantine-wire" | "byzantine_wire" | "byzantine" -> Some Byzantine_wire
  | _ -> None

let pick rng xs = List.nth xs (Splitmix.int rng (List.length xs))

let pick_selector rng hosts =
  let h () = pick rng hosts in
  match Splitmix.int rng 5 with
  | 0 -> Any
  | 1 ->
      let a = h () in
      let b = h () in
      if a = b then Touching a else Between (a, b)
  | 2 -> From_host (h ())
  | 3 -> To_host (h ())
  | _ -> Touching (h ())

(* Window starts are confined to the first ~70% of the horizon and
   durations stay far below the chaos ARQ retry span (12 x 40 ms), so a
   retried message always gets attempts outside any single window. *)
let start_in rng horizon_ms =
  (0.05 *. horizon_ms) +. uniform rng (0.65 *. horizon_ms)

let window rng hosts horizon_ms ~min_len ~max_len act =
  let s = start_in rng horizon_ms in
  let len = min_len +. uniform rng (max_len -. min_len) in
  { w_start = s; w_stop = s +. len; w_sel = pick_selector rng hosts; w_act = act }

let random ~profile ~hosts ~horizon_ms rng =
  let n lo hi = lo + Splitmix.int rng (hi - lo + 1) in
  let windows =
    match profile with
    | Lossy ->
        let losses =
          List.init (n 2 4) (fun _ ->
              window rng hosts horizon_ms ~min_len:40. ~max_len:140.
                (Loss (0.4 +. uniform rng 0.55)))
        in
        let extras =
          [
            window rng hosts horizon_ms ~min_len:40. ~max_len:120.
              (Reorder (10. +. uniform rng 70.));
            window rng hosts horizon_ms ~min_len:40. ~max_len:120.
              (Duplicate (0.3 +. uniform rng 0.5));
          ]
        in
        losses @ extras
    | Flaky ->
        let downs =
          List.init (n 1 2) (fun _ ->
              let sel =
                let h () = pick rng hosts in
                if Splitmix.bool rng then Touching (h ())
                else
                  let a = h () and b = h () in
                  if a = b then Touching a else Between (a, b)
              in
              let s = start_in rng horizon_ms in
              let len = 60. +. uniform rng 180. in
              { w_start = s; w_stop = s +. len; w_sel = sel; w_act = Down })
        in
        downs
        @ [
            window rng hosts horizon_ms ~min_len:40. ~max_len:120.
              (Loss (0.3 +. uniform rng 0.5));
            window rng hosts horizon_ms ~min_len:40. ~max_len:120.
              (Duplicate (0.3 +. uniform rng 0.4));
          ]
    | Byzantine_wire ->
        let corrupts =
          List.init (n 2 3) (fun _ ->
              window rng hosts horizon_ms ~min_len:60. ~max_len:120.
                (Corrupt (0.5 +. uniform rng 0.45)))
        in
        let extras =
          (if Splitmix.bool rng then
             [
               window rng hosts horizon_ms ~min_len:40. ~max_len:100.
                 (Duplicate (0.3 +. uniform rng 0.4));
             ]
           else [])
          @
          if Splitmix.bool rng then
            [
              window rng hosts horizon_ms ~min_len:40. ~max_len:100.
                (Reorder (10. +. uniform rng 50.));
            ]
          else []
        in
        corrupts @ extras
  in
  { windows }

(* Shrinking delegates to the generic ddmin over the window list. *)
let shrink_candidates t =
  List.map (fun windows -> { windows }) (Shrink.candidates t.windows)

let shrink ~fails plan =
  { windows = Shrink.ddmin ~fails:(fun ws -> fails { windows = ws }) plan.windows }

let pp_selector ppf = function
  | Any -> Format.fprintf ppf "*->*"
  | Between (a, b) -> Format.fprintf ppf "%s<->%s" a b
  | From_host h -> Format.fprintf ppf "%s->*" h
  | To_host h -> Format.fprintf ppf "*->%s" h
  | Touching h -> Format.fprintf ppf "*%s*" h

let pp_action ppf = function
  | Loss p -> Format.fprintf ppf "loss(%.2f)" p
  | Duplicate p -> Format.fprintf ppf "dup(%.2f)" p
  | Reorder ms -> Format.fprintf ppf "reorder(+%.0fms)" ms
  | Corrupt p -> Format.fprintf ppf "corrupt(%.2f)" p
  | Down -> Format.fprintf ppf "down"

let pp ppf t =
  if t.windows = [] then Format.fprintf ppf "  (no fault windows)"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf "@\n")
      (fun ppf w ->
        Format.fprintf ppf "  %6.1f..%6.1fms %a on %a" w.w_start w.w_stop
          pp_action w.w_act pp_selector w.w_sel)
      ppf t.windows
