(* Monotonic wall clock (CLOCK_MONOTONIC via bechamel's stub). The
   repository's own [Ipa_support.Timer] reads [gettimeofday], which can
   step; every duration in this benchmark comes from here instead. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
