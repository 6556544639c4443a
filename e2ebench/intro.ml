(* intro: batch introspective analysis, as `introspect analyze -a 2objH -i
   A|B` runs it. Both solver passes do most of the work; no query, server
   or summary code runs. One op goes from .jir text to the printed report:
   parse, insens pre-pass, the six metrics, heuristic selection, the
   refined 2objH pass, then solution stats and precision. *)

module A = Ipa_core.Analysis
module Solution = Ipa_core.Solution
module Precision = Ipa_core.Precision
module Heuristics = Ipa_core.Heuristics

let flavor = Ipa_core.Flavors.Object_sens { depth = 2; heap = 1 }

(* Ops per measured second on the reference host (2 vCPU Xeon): sizes the
   fixed-work phase from --seconds. *)
let rate = 2.1
let min_ops = 40

type out = {
  base : A.result;
  refine : Ipa_core.Refine.t;
  refined : A.result;
  precision : Precision.t;
}

(* One op, through the public functions the CLI calls, in its
   order. Each call is a span when tracing is on. *)
let run_op (o : Gen.intro_op) =
  let p =
    Trace.span "frontend.parse" (fun () ->
        match Ipa_frontend.Jir.parse_string o.jir with
        | Ok p -> p
        | Error e -> failwith (Ipa_frontend.Jir.error_to_string e))
  in
  let base = Trace.span "prepass.solve" (fun () -> A.run_plain p Ipa_core.Flavors.Insensitive) in
  let metrics =
    Trace.span "introspection.metrics" (fun () -> Ipa_core.Introspection.compute base.solution)
  in
  let refine =
    Trace.span "heuristic.select" (fun () -> Heuristics.select base.solution metrics o.heuristic)
  in
  let refined =
    Trace.span "refined.solve" (fun () ->
        let label = Ipa_core.Flavors.to_string flavor ^ "-" ^ Heuristics.name o.heuristic in
        A.run_config p ~label (A.second_pass_config p flavor refine))
  in
  ignore (Trace.span "report.stats" (fun () -> Solution.stats refined.solution));
  let precision = Trace.span "report.precision" (fun () -> Precision.compute refined.solution) in
  { base; refine; refined; precision }

(* The op's output checks: both passes self-check clean, and the refined
   pass is at least as precise as the pre-pass on the paper's three
   metrics. Returns the first violation. *)
let check o =
  let sc name (r : A.result) =
    match Solution.self_check r.solution with
    | [] -> None
    | v :: _ -> Some (Printf.sprintf "%s self-check: %s" name v)
  in
  let pre = Precision.compute o.base.solution and post = o.precision in
  let mono name a b = if b > a then Some (Printf.sprintf "%s rose %d -> %d" name a b) else None in
  List.find_map Fun.id
    [
      sc "pre-pass" o.base;
      sc "refined" o.refined;
      mono "poly v-calls" pre.poly_vcalls post.poly_vcalls;
      mono "may-fail casts" pre.may_fail_casts post.may_fail_casts;
      mono "reachable methods" pre.reachable_methods post.reachable_methods;
    ]

(* Set-up: what `introspect analyze` pays before its pre-pass starts —
   starting the CLI and loading one input with [Jir.parse_file] — timed as
   `introspect check` on antlr, a mid-size corpus entry, [k] times. The
   file is the same at every seed, so the figure does not move with the
   op order. *)
let setup (ctx : Workload.ctx) =
  let spec = Option.get (Ipa_synthetic.Dacapo.find "antlr") in
  let file = Filename.concat ctx.run_dir "antlr.jir" in
  Host.in_child_exn (fun () ->
      Host.write_file file (Ipa_ir.Pretty.program (Ipa_synthetic.Dacapo.build ~scale:1.0 spec)));
  Array.init 9 (fun _ ->
      let (), dt = Clock.time (fun () -> Host.run_quiet [| ctx.introspect; "check"; file |]) in
      dt)

(* What an op's process reports back. *)
type report = {
  latency : float;
  failure : string option;
  hwm_kb : int;  (** the op process's VmHWM, read before the checks *)
  spans : Trace.span list;  (** traced ops only *)
  selection : Heuristics.stats option;
  derivations : int * int;  (** pre-pass, refined *)
  budget_hit : bool;
  top_heap_words : int;
}

let one_op ~traced i (o : Gen.intro_op) () =
  ignore (Host.reset_hwm ());
  if traced then begin
    Trace.reset ();
    Trace.next_id := i * 1000;
    Trace.enabled := true
  end;
  let t0 = Clock.now () in
  let r =
    try Ok (if traced then Trace.op ~op:i "op" (fun () -> run_op o) else run_op o)
    with e -> Error (Printexc.to_string e)
  in
  let latency = Clock.now () -. t0 in
  let hwm_kb = Host.vm_hwm_kb () in
  Trace.enabled := false;
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  let none =
    {
      latency; failure = None; hwm_kb; spans = Trace.all (); selection = None; derivations = (0, 0);
      budget_hit = false; top_heap_words;
    }
  in
  match r with
  | Error e -> { none with failure = Some e }
  | Ok out ->
    {
      none with
      failure = check out;
      selection = (if traced then Some (Heuristics.selection_stats out.base.solution out.refine) else None);
      derivations = (out.base.solution.derivations, out.refined.solution.derivations);
      budget_hit = out.refined.timed_out;
    }

(* Run every op, each in its own process; the Gc.compact before each fork
   is untimed, so every op starts from the same compacted heap. *)
let run_ops ops ~traced =
  List.mapi
    (fun i o ->
      Gc.compact ();
      (* Each op in its own forked child: every op then starts from the
         same heap, like a fresh CLI process, whatever ran before it. In one
         process a big op leaves a big major heap behind and the ops after
         it run measurably faster. *)
      match Host.in_child (one_op ~traced i o) with
      | Ok r -> r
      | Error m ->
        {
          latency = 0.0; failure = Some m; hwm_kb = 0; spans = []; selection = None;
          derivations = (0, 0); budget_hit = false; top_heap_words = 0;
        })
    ops

let run (ctx : Workload.ctx) : Workload.result =
  let n = Workload.ops_for ~seconds:ctx.seconds ~rate ~min_ops in
  (* The .jir texts are generated in a child, so the op processes forked
     from this one never inherit the generator's heap. *)
  let ops = Host.in_child_exn (fun () -> Gen.intro_ops ~seed:ctx.seed ~n ()) in
  let setups = setup ctx in
  let results, diag = Host.around_phase (fun () -> run_ops ops ~traced:false) in
  let peak_rss_kb = List.fold_left (fun m r -> max m r.hwm_kb) 0 results in
  let latencies = Array.of_list (List.map (fun r -> r.latency) results) in
  let notes =
    List.concat
      (List.mapi
         (fun i (r, o) ->
           match r.failure with
           | Some m -> [ Printf.sprintf "op %d %s: %s" i (Gen.intro_label o) m ]
           | None -> [])
         (List.combine results ops))
  in
  let failed = List.length notes in
  let phase_s = Array.fold_left ( +. ) 0.0 latencies in
  let layers =
    if not ctx.trace then []
    else begin
      let traced = run_ops ops ~traced:true in
      Trace.spans := List.concat_map (fun r -> r.spans) traced;
      let spans = Trace.all () in
      let nops = float_of_int (List.length ops) in
      let sum f = List.fold_left (fun a r -> a + f r) 0 traced in
      let pre_deriv = sum (fun r -> fst r.derivations) and ref_deriv = sum (fun r -> snd r.derivations) in
      let mean_pct skipped total =
        List.fold_left
          (fun a r ->
            match r.selection with
            | Some s -> a +. (100.0 *. float_of_int (total s - skipped s) /. float_of_int (max 1 (total s)))
            | None -> a)
          0.0 traced
        /. nops
      in
      let parse_bytes = List.fold_left (fun a (o : Gen.intro_op) -> a + String.length o.jir) 0 ops in
      let mderiv d name = Workload.rate ~num:(float_of_int d /. 1e6) ~den:(Workload.total_s name spans) in
      let traced_wall = List.fold_left (fun a r -> a +. r.latency) 0.0 traced in
      [
        ("frontend.parse_ms", Workload.median_ms "frontend.parse" spans);
        ( "frontend.mb_per_s",
          Workload.rate ~num:(float_of_int parse_bytes /. 1e6)
            ~den:(Workload.total_s "frontend.parse" spans) );
        ("prepass.solve_ms", Workload.median_ms "prepass.solve" spans);
        ("prepass.derivations", float_of_int pre_deriv /. nops);
        ("prepass.mderiv_per_s", mderiv pre_deriv "prepass.solve");
        ("prepass.alloc_mb", Workload.mean_alloc_mb "prepass.solve" spans);
        ("introspection.metrics_ms", Workload.median_ms "introspection.metrics" spans);
        ("heuristic.select_ms", Workload.median_ms "heuristic.select" spans);
        ( "heuristic.sites_refined_pct",
          mean_pct (fun (s : Heuristics.stats) -> s.sites_skipped) (fun s -> s.sites_total) );
        ( "heuristic.objects_refined_pct",
          mean_pct (fun (s : Heuristics.stats) -> s.objects_skipped) (fun s -> s.objects_total) );
        ("refined.solve_ms", Workload.median_ms "refined.solve" spans);
        ("refined.derivations", float_of_int ref_deriv /. nops);
        ("refined.mderiv_per_s", mderiv ref_deriv "refined.solve");
        ("refined.alloc_mb", Workload.mean_alloc_mb "refined.solve" spans);
        ("refined.budget_hits", float_of_int (sum (fun r -> Bool.to_int r.budget_hit)));
        ("report.precision_ms", Workload.median_ms "report.precision" spans);
        ( "gc.top_heap_mb",
          Workload.mb_of_words (float_of_int (List.fold_left (fun m r -> max m r.top_heap_words) 0 traced)) );
        ("trace.layer_cover_pct", Workload.min_cover_pct ~root:"op" spans);
        ("trace.overhead_pct", Workload.overhead_pct ~untraced:phase_s ~traced:traced_wall);
      ]
    end
  in
  {
    Workload.setups;
    latencies;
    tail_windows = [];
    phase_s;
    completed = List.length ops - failed;
    attempted = List.length ops;
    failed;
    peak_rss_kb;
    diag;
    notes;
    layers;
    trace_keep = Workload.keep_all;
  }
