(* Host-noise diagnostics and process plumbing.

   [calib_ms] and [steal_pct] exist to tell host drift from program drift
   when two runs disagree: a slower calibration loop or a burst of steal
   points at the machine, not the code. They are reported next to the
   end-to-end numbers and never used to scale them. *)

let calib_loop n =
  let r = ref 0 in
  for i = 1 to n do
    r := ((!r * 31) + i) land 0xFFFFFF
  done;
  !r

(* Median of five timings of a fixed integer loop (25-40 ms each on the
   reference 2-vCPU Xeon, depending on its drift). *)
let calib_ms () =
  let one () =
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity (calib_loop 20_000_000));
    (Clock.now () -. t0) *. 1e3
  in
  Stats.median (Array.init 5 (fun _ -> one ()))

(* Aggregate jiffies from the first line of /proc/stat: (steal, total). *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.map int_of_string fields in
      let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
      (steal, List.fold_left ( + ) 0 v)
    | _ -> (0, 0))
  | None | (exception _) -> (0, 0)

let steal_pct ~before:(s0, t0) ~after:(s1, t1) =
  if t1 <= t0 then 0.0 else 100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)

type diag = { calib_before_ms : float; calib_after_ms : float; steal : float }

(* Run [f] as the measured phase, with the diagnostics taken around it. *)
let around_phase f =
  let calib_before_ms = calib_ms () in
  let j0 = cpu_jiffies () in
  let r = f () in
  let j1 = cpu_jiffies () in
  let calib_after_ms = calib_ms () in
  (r, { calib_before_ms; calib_after_ms; steal = steal_pct ~before:j0 ~after:j1 })

let calib_of d = (d.calib_before_ms +. d.calib_after_ms) /. 2.0

(* ---------- peak resident set ---------- *)

let proc_file pid name =
  Printf.sprintf "/proc/%s/%s" (match pid with None -> "self" | Some p -> string_of_int p) name

(* VmHWM in kB, or 0 when the status file is unreadable. *)
let vm_hwm_kb ?pid () =
  match In_channel.with_open_text (proc_file pid "status") In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
          | n :: _ -> ( match int_of_string_opt n with Some k -> k | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)

(* Writing 5 to clear_refs resets VmHWM to the current RSS, so the peak
   read afterwards excludes set-up. *)
let reset_hwm ?pid () =
  match Out_channel.with_open_text (proc_file pid "clear_refs") (fun oc -> output_string oc "5") with
  | () -> true
  | exception Sys_error _ -> false

(* ---------- forked children ---------- *)

(* Run each function in a forked child, all at once, and return in order
   what each marshals back: its value, or the exception it raised, or a
   note that it died. What a child allocates goes with it, so the caller's
   heap (and peak RSS) never holds it: OCaml 5.1's Gc.compact does not
   shrink the major heap, so a big computation done in-process would stay
   in every later figure. Values must be plain data (no closures). *)
let in_children (fs : (unit -> 'a) list) : ('a, string) result list =
  flush_all ();
  let spawn f =
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      (try Marshal.to_channel oc r [] with _ -> ());
      (try close_out oc with _ -> ());
      Unix._exit 0
    | pid ->
      Unix.close wr;
      (pid, rd)
  in
  (* Every child is started before any is read, so they run at once; a
     child whose result fills its pipe just waits until its turn. *)
  let started = List.map spawn fs in
  List.map
    (fun (pid, rd) ->
      let ic = Unix.in_channel_of_descr rd in
      let r =
        try (Marshal.from_channel ic : ('a, string) result)
        with End_of_file | Failure _ -> Error "child process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      r)
    started

(* One such child. *)
let in_child f = List.hd (in_children [ f ])

let in_child_exn f = match in_child f with Ok v -> v | Error m -> failwith m

(* Run [argv] to completion with its standard output discarded; fails
   unless it exits 0. *)
let run_quiet argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
        Unix.create_process argv.(0) argv devnull devnull Unix.stderr)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith (String.concat " " (Array.to_list argv) ^ ": failed")

(* ---------- run-private directories ---------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (try Sys.readdir path with Sys_error _ -> [||]);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh directory [<root>/<tag>-<pid>]. Relative paths stay relative,
   which keeps Unix socket paths under their 108-byte limit however deep
   the checkout is. It is removed at exit, signals included. *)
let private_dir ~root ~tag =
  let d = Filename.concat root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  at_exit (fun () -> rm_rf d);
  d

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
