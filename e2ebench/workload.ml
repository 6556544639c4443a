(* What every workload hands back to [Main]. *)

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  run_dir : string;  (** run-private scratch directory, removed at exit *)
  introspect : string;  (** path of the built introspect CLI *)
}

type result = {
  setups : float array;  (** seconds of each repeated set-up *)
  latencies : float array;  (** seconds per measured op (latency population) *)
  tail_windows : float array list;
      (** the same population split into consecutive time windows, when the
          tail is taken per window ({!Stats.windowed_tail}); [[]] takes it
          over the whole run *)
  phase_s : float;  (** wall time of the measured phase *)
  completed : int;  (** ops completed in the phase (loads included for serve) *)
  attempted : int;
  failed : int;
  peak_rss_kb : int;
  diag : Host.diag;
  notes : string list;  (** human-readable lines printed before the result *)
  layers : (string * float) list;  (** per-layer metrics (traced run only) *)
  trace_keep : Trace.span -> bool;  (** which spans the trace file keeps *)
}

let keep_all (_ : Trace.span) = true

(* Size a fixed-work phase from --seconds: [rate] ops per second on the
   reference host, never fewer than [min_ops]. The op count depends only on
   --seconds, so every run of a workload measures the same population. *)
let ops_for ~seconds ~rate ~min_ops = max min_ops (int_of_float (Float.round (seconds *. rate)))

(* Set up [k] times and return every duration, keeping the last set-up's
   value for the phase. [release] disposes of each earlier value, untimed,
   before the next set-up starts. *)
let repeated_setup ~release k f =
  let times = Array.make k 0.0 in
  let rec go i =
    let v, dt = Clock.time f in
    times.(i) <- dt;
    if i = k - 1 then v
    else begin
      release v;
      go (i + 1)
    end
  in
  let v = go 0 in
  (v, times)

(* Set up [k] times: the first [k - 1] each in a forked child that only
   reports its duration, the last in this process, whose value the phase
   uses. Every set-up starts from the same heap, and the phase's process
   holds one set-up's heap, not [k]. *)
let isolated_setup k f =
  let earlier =
    Array.init (k - 1) (fun _ ->
        Gc.compact ();
        Host.in_child_exn (fun () -> snd (Clock.time (fun () -> ignore (f ())))))
  in
  Gc.compact ();
  let v, last = Clock.time f in
  (v, Array.append earlier [| last |])

(* ---------- per-layer helpers over trace spans ---------- *)

let ms_of (s : Trace.span) = Trace.duration_ms s
let mb_of_words w = w *. 8.0 /. 1048576.0

let median_ms name spans =
  match Trace.by_name name spans with
  | [] -> 0.0
  | l -> Stats.median (Array.of_list (List.map ms_of l))

let total_s name spans =
  List.fold_left (fun a s -> a +. (ms_of s /. 1e3)) 0.0 (Trace.by_name name spans)

let mean_alloc_mb name spans =
  match Trace.by_name name spans with
  | [] -> 0.0
  | l ->
    mb_of_words (List.fold_left (fun a s -> a +. Trace.alloc_words s) 0.0 l)
    /. float_of_int (List.length l)

let rate ~num ~den = if den > 0.0 then num /. den else 0.0

(* Traced wall of the op roots over the same ops untraced, as a percentage
   overhead. *)
let overhead_pct ~untraced ~traced = if untraced > 0.0 then 100.0 *. ((traced /. untraced) -. 1.0) else 0.0

(* The smallest share of an op's traced wall that its child spans cover. *)
let min_cover_pct ~root spans =
  let kids = Trace.children_of spans in
  List.fold_left
    (fun acc (s : Trace.span) ->
      let d = Int64.to_float (Trace.duration_ns s) in
      if d <= 0.0 then acc
      else Float.min acc (100.0 *. (1.0 -. (Int64.to_float (Trace.self_ns s (kids s)) /. d))))
    100.0 (Trace.by_name root spans)
