(** Monotonic wall-clock timing for the experiment harness. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    wall-clock seconds. *)

val now : unit -> float
(** Current monotonic clock reading in seconds, from an arbitrary epoch:
    meaningful only as the difference of two readings. *)
