(* Monotonic time for the benchmark: nanoseconds as a native int, read
   without allocating (the clock stub is [@@noalloc] and unboxed), so a
   timing read inside a hot loop costs a vDSO call and nothing else. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns /. 1e9
let ms_of_ns ns = float_of_int ns /. 1e6
let us_of_ns ns = float_of_int ns /. 1e3
