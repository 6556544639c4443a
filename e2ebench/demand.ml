(* demand: points-to queries on a budget-blown analysis. antlr at scale
   1.0 under 2objH with the budget at a tenth of the full solve's
   derivations, as `introspect query --budget B --demand auto` serves it.
   Backward slicing and many small slice solves do the work; no other
   workload touches that layer. Set-up is what that user pays before the
   first answer: parse, the budgeted solve, and the demand evaluator. *)

module A = Ipa_core.Analysis
module Solution = Ipa_core.Solution
module Engine = Ipa_query.Engine
module D = Ipa_query.Demand
module DS = Ipa_core.Demand_solver

let flavor = Ipa_core.Flavors.Object_sens { depth = 2; heap = 1 }
let rate = 8.0
let min_ops = 80

let setup ~jir ~budget =
  let p = Result.get_ok (Ipa_frontend.Jir.parse_string jir) in
  let truncated = A.run_plain ~budget p flavor in
  if truncated.solution.outcome <> Solution.Budget_exceeded then
    failwith "demand: the budgeted solve completed; the workload needs a blown budget";
  let config = Ipa_core.Solver.plain p (Ipa_core.Flavors.strategy p flavor) in
  (p, D.create ~program:p ~label:(Ipa_core.Flavors.to_string flavor) config)

let eval d q =
  match D.eval d q with
  | Some s -> Engine.render_text q s.result
  | None -> failwith ("demand: not demand-eligible: " ^ Ipa_query.Query.to_string q)

let run_ops d queries ~traced =
  List.mapi
    (fun i (q, _) ->
      let t0 = Clock.now () in
      let r =
        try Ok (if traced then Trace.op ~op:i "op" (fun () -> Trace.span "demand.eval" (fun () -> eval d q)) else eval d q)
        with e -> Error (Printexc.to_string e)
      in
      (Clock.now () -. t0, r))
    queries

(* Everything the checks need, computed in a forked child so that the
   measured process never holds the reference solve: the program text, the
   budget (a tenth of the unbudgeted full solve's derivations), the
   queries, and the full solve's answer to each. *)
type reference = {
  jir : string;
  full_derivations : int;
  queries : (Ipa_query.Query.t * DS.roots) list;
  expected : string array;
}

let reference ~seed ~n =
  let spec = Option.get (Ipa_synthetic.Dacapo.find "antlr") in
  let program = Ipa_synthetic.Dacapo.build ~scale:1.0 { spec with seed = spec.seed + seed } in
  let jir = Ipa_ir.Pretty.program program in
  let p = Result.get_ok (Ipa_frontend.Jir.parse_string jir) in
  let full = A.run_plain p flavor in
  let queries = Gen.demand_queries ~seed ~n p in
  let engine = Engine.create full.solution in
  let expected =
    Array.of_list (List.map (fun (q, _) -> Engine.render_text q (Engine.eval engine q)) queries)
  in
  { jir; full_derivations = full.solution.derivations; queries; expected }

let run (ctx : Workload.ctx) : Workload.result =
  let n = Workload.ops_for ~seconds:ctx.seconds ~rate ~min_ops in
  let { jir; full_derivations; queries; expected } =
    Host.in_child_exn (fun () -> reference ~seed:ctx.seed ~n)
  in
  let budget = max 1 (full_derivations / 10) in
  let (p, d), setups = Workload.isolated_setup 3 (fun () -> setup ~jir ~budget) in
  ignore (Host.reset_hwm ());
  let results, diag = Host.around_phase (fun () -> run_ops d queries ~traced:false) in
  let peak_rss_kb = Host.vm_hwm_kb () in
  let phase_s = List.fold_left (fun a (dt, _) -> a +. dt) 0.0 results in
  (* Every answer must equal the unbudgeted full solve's. *)
  let got = Array.of_list (List.map (function _, Ok a -> a | _, Error e -> "error: " ^ e) results) in
  let bad = Check.mismatches ~expected ~got in
  let failed = List.length bad in
  let notes =
    List.filteri (fun j _ -> j < 3) bad
    |> List.map (fun i -> Printf.sprintf "answer differs from the full solve:\n  want %s\n  got  %s" expected.(i) got.(i))
  in
  let layers =
    if not ctx.trace then []
    else begin
      Gc.compact ();
      let d = D.create ~program:p ~label:(Ipa_core.Flavors.to_string flavor)
          (Ipa_core.Solver.plain p (Ipa_core.Flavors.strategy p flavor)) in
      let config = Ipa_core.Solver.plain p (Ipa_core.Flavors.strategy p flavor) in
      Trace.enabled := true;
      let traced = run_ops d queries ~traced:true in
      (* The two steps of a fresh slice solve, alone, per query. *)
      List.iter
        (fun (_, roots) ->
          let sl = Trace.span "demand.slice" (fun () -> DS.slice p roots) in
          ignore (Trace.span "demand.slice_solve" (fun () -> DS.run sl config)))
        queries;
      Trace.enabled := false;
      let spans = Trace.all () in
      let st = D.stats d in
      let fresh = float_of_int (max 1 (st.demand_queries - st.slice_hits)) in
      let traced_wall = List.fold_left (fun a (dt, _) -> a +. dt) 0.0 traced in
      [
        ("demand.slice_ms", Workload.median_ms "demand.slice" spans);
        ("demand.slice_nodes", float_of_int st.slice_nodes /. fresh);
        ("demand.slice_solve_ms", Workload.median_ms "demand.slice_solve" spans);
        ("demand.slice_derivations", float_of_int st.slice_derivations /. fresh);
        ( "demand.slice_share",
          float_of_int st.slice_derivations /. fresh /. float_of_int full_derivations );
        ("demand.memo_hits", float_of_int st.slice_hits);
        ("trace.layer_cover_pct", Workload.min_cover_pct ~root:"op" spans);
        ("trace.overhead_pct", Workload.overhead_pct ~untraced:phase_s ~traced:traced_wall);
      ]
    end
  in
  {
    Workload.setups;
    latencies = Array.of_list (List.map fst results);
    tail_windows = [];
    phase_s;
    completed = List.length queries - failed;
    attempted = List.length queries;
    failed;
    peak_rss_kb;
    diag;
    notes;
    layers;
    trace_keep = Workload.keep_all;
  }
