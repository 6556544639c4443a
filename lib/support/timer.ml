(* CLOCK_MONOTONIC through bechamel's stub: unlike [Unix.gettimeofday] it
   never steps, so a difference of two readings is always a duration. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let start = now () in
  let result = f () in
  (result, now () -. start)
