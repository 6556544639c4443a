(* Entry point of the end-to-end benchmark (see README.md):

     main.exe --workload intro|serve|edit|demand --seed N --seconds S
              --trace 0|1 [--introspect PATH]

   Prints diagnostic lines, then, as its last line, one JSON object with
   the keys correct, attempted, failed and metrics: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

open E2ebench

let usage () =
  prerr_endline
    "usage: main.exe --workload intro|serve|edit|demand --seed N --seconds S --trace 0|1 \
     [--introspect PATH]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let introspect = ref "_build/default/bin/introspect.exe" in
  let rec parse = function
    | "--workload" :: w :: tl -> workload := w; parse tl
    | "--seed" :: s :: tl -> seed := int_of_string_opt s; parse tl
    | "--seconds" :: s :: tl -> seconds := float_of_string_opt s; parse tl
    | "--trace" :: ("0" | "1" as t) :: tl -> trace := Some (t = "1"); parse tl
    | "--introspect" :: p :: tl -> introspect := p; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match !workload with
    | "intro" -> Intro.run
    | "serve" -> Serve.run
    | "edit" -> Edit.run
    | "demand" -> Demand.run
    | _ -> usage ()
  in
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0.0 -> (s, t, tr)
    | _ -> usage ()
  in
  (* Signals end the run through [exit], so the at_exit clean-up (private
     directories, the server subprocess) always runs. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  let run_dir = Host.private_dir ~root:"e2ebench/_run" ~tag:!workload in
  let ctx = { Workload.seed; seconds; trace; run_dir; introspect = !introspect } in
  let r =
    try run ctx
    with e ->
      Printf.eprintf "%s: %s\n" !workload (Printexc.to_string e);
      exit 1
  in
  if trace then begin
    let dir = "e2ebench/traces" in
    Host.mkdir_p dir;
    let file = Filename.concat dir (Printf.sprintf "%s-seed%d.json" !workload seed) in
    let spans = Trace.all () in
    let kept = List.filter r.trace_keep spans in
    Host.write_file file (Trace.to_chrome_json kept);
    Printf.printf "# trace: %s (%d of %d spans)\n" file (List.length kept) (List.length spans)
  end;
  Report.print ~workload:!workload ~seed ~trace r
