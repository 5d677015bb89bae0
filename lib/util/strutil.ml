let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let split_on c s = String.split_on_char c s

let join sep parts = String.concat sep parts

(* The case-insensitive comparisons fold bytes in place: no lowercased
   copies. *)
let rec equal_ci_at a i b j n =
  n = 0
  || Char.equal
       (Char.lowercase_ascii (String.unsafe_get a i))
       (Char.lowercase_ascii (String.unsafe_get b j))
     && equal_ci_at a (i + 1) b (j + 1) (n - 1)

let equal_ci a b =
  String.length a = String.length b && equal_ci_at a 0 b 0 (String.length a)

let equal_ci_sub a i b j n =
  if
    i < 0 || j < 0 || n < 0
    || i > String.length a - n
    || j > String.length b - n
  then invalid_arg "Strutil.equal_ci_sub";
  equal_ci_at a i b j n

let rec compare_ci_from a b i =
  if i >= String.length a || i >= String.length b then
    Int.compare (String.length a) (String.length b)
  else
    let c =
      Int.compare
        (Char.code (Char.lowercase_ascii (String.unsafe_get a i)))
        (Char.code (Char.lowercase_ascii (String.unsafe_get b i)))
    in
    if c <> 0 then c else compare_ci_from a b (i + 1)

let compare_ci a b = compare_ci_from a b 0

let mem_ci s l = List.exists (equal_ci s) l

let hash_ci s =
  let h = ref 0 in
  for i = 0 to String.length s - 1 do
    h := (!h * 31) + Char.code (Char.lowercase_ascii (String.unsafe_get s i))
  done;
  !h land max_int

let hex_digits = "0123456789abcdef"
let hex_digit n = hex_digits.[n]

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let is_identifier s =
  let ok_first = function 'A' .. 'Z' | 'a' .. 'z' | '_' -> true | _ -> false in
  let ok_rest = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  String.length s > 0
  && ok_first s.[0]
  && String.for_all ok_rest (String.sub s 1 (String.length s - 1))

let common_prefix_length a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let truncate_middle ~max s =
  if max < 5 then invalid_arg "Strutil.truncate_middle: max too small";
  let n = String.length s in
  if n <= max then s
  else
    let keep = max - 3 in
    let left = (keep + 1) / 2 and right = keep / 2 in
    String.sub s 0 left ^ "..." ^ String.sub s (n - right) right
