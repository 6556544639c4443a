(* Order statistics over latency samples. Percentiles are nearest-rank:
   the q-th percentile of n sorted samples is the sample at 1-based rank
   ceil(q * n), so it is always a measured value. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let rank ~n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n -. 1e-9))))
let percentile s q = s.(rank ~n:(Array.length s) q - 1)

let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Samples strictly above the percentile's rank. *)
let beyond ~n q = n - rank ~n q

(* The tail percentile: the highest of p99/p90/p75 that still has at least
   ten samples beyond it, so a tail never rests on a handful of ops. [None]
   below 40 samples, where not even p75 qualifies. *)
let tail_ladder = [ ("p99", 0.99); ("p90", 0.90); ("p75", 0.75) ]
let min_beyond = 10

let tail_choice ~n =
  List.find_opt (fun (_, q) -> beyond ~n q >= min_beyond) tail_ladder

let tail s =
  Option.map (fun (name, q) -> (name, percentile s q)) (tail_choice ~n:(Array.length s))

(* The tail of a population split into consecutive time windows: each
   window's tail percentile, then the median over the windows. [None]
   unless every window qualifies for the same percentile. A burst of host
   time that slows a minority of the windows leaves the median window's
   tail where it was; a slowdown in most windows still moves it. *)
let windowed_tail windows =
  let tails = List.map (fun w -> tail (sorted w)) windows in
  match tails with
  | Some (name, _) :: _ when List.for_all (function Some (m, _) -> m = name | None -> false) tails ->
    Some (name, median (Array.of_list (List.filter_map (Option.map snd) tails)))
  | _ -> None
