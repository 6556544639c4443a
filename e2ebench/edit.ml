(* edit: the edit loop on antlr at scale 1.0. Summary condensation and
   digests, the compositional and incremental solvers, and summary-cache
   writes do the work; no frontend, query or server code runs. Set-up is a
   cold compositional solve; its summaries are then published, untimed, to
   a run-private disk store. Each op applies the next edit of a seeded
   chain and re-solves it from the previous state with
   [Analysis.run_incremental], reading and writing that store. *)

module A = Ipa_core.Analysis
module Solution = Ipa_core.Solution
module Summary = Ipa_core.Summary
module Solver = Ipa_core.Solver
module Edits = Ipa_synthetic.Edits
module Cache = Ipa_harness.Cache

let flavor = Ipa_core.Flavors.Insensitive
(* Ops per measured second on the reference host. About two thirds of the
   ops are warm and a third cold fallbacks, so the median op is the lower
   quarter of the warm ones; a short run with a fast stretch of host time
   pulls it down. 60 ops spread it over more of the host's drift. *)
let rate = 2.6
let min_ops = 60

let program ~seed =
  let s = Option.get (Ipa_synthetic.Dacapo.find "antlr") in
  Ipa_synthetic.Dacapo.build ~scale:1.0 { s with seed = s.seed + seed }

(* The bytes a solution is judged by: its snapshot encoding with the
   derivation count and counters zeroed (a warm solve counts only what the
   edit enabled). *)
let digest p (s : Solution.t) =
  let module S = Ipa_core.Snapshot in
  Digest.string
    (S.encode
       {
         S.key = "edit";
         program_digest = S.digest_program p;
         label = "edit";
         seconds = 0.0;
         solution = { s with derivations = 0; counters = Solution.zero_counters };
         metrics = None;
       })

(* A cold compositional solve, its summaries published to an in-memory
   store: the timed set-up. Writing the ~1450 summary files to disk took
   0.07-0.5 s on the reference host depending on the file system's recent
   history, not on the program, so that part is timed apart ([publish]). *)
let setup p =
  let blobs = Hashtbl.create 2048 in
  let store =
    { Ipa_core.Compositional_solver.find_bytes = Hashtbl.find_opt blobs; put_bytes = Hashtbl.replace blobs }
  in
  let r, _ = A.run_compositional ~store p flavor in
  (blobs, r.solution)

(* Publish the set-up's summaries to a fresh run-private disk store, which
   the edit chain then reads and writes. *)
let publish ~dir blobs =
  Host.rm_rf dir;
  let cache = Cache.create ~dir () in
  let store = Cache.summary_store cache in
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) blobs []) in
  List.iter (fun k -> store.put_bytes k (Hashtbl.find blobs k)) keys;
  (cache, store)

type step = {
  edited : Ipa_ir.Program.t;
  solution : Solution.t;
  report : Ipa_core.Compositional_solver.report;
}

let run_op ~store (prev_p, prev_sol) e =
  let edited = Trace.span "edits.apply" (fun () -> Edits.apply prev_p e) in
  let r, report =
    Trace.span "incr.run_incremental" (fun () ->
        A.run_incremental ~store edited ~base_program:prev_p ~base_solution:prev_sol flavor)
  in
  { edited; solution = r.solution; report }

(* The solver step of a warm op, alone: [Solver.run_incremental] with the
   dirty mask [Compositional_solver] derives (members of digest-changed
   components, plus methods new to the program). *)
let warm_solver_only ~prev_p ~prev_sol p =
  let cfg = Solver.plain p (Ipa_core.Flavors.strategy p flavor) in
  let cond = Summary.condense p and old_cond = Summary.condense prev_p in
  let old = Hashtbl.create 256 in
  Array.iteri (fun sid _ -> Hashtbl.replace old (Summary.digest prev_p old_cond sid) ()) old_cond.sccs;
  let defer = Array.make (Ipa_ir.Program.n_meths p) false in
  Array.iteri
    (fun sid (scc : Summary.scc) ->
      if not (Hashtbl.mem old (Summary.digest p cond sid)) then
        Array.iter (fun m -> defer.(m) <- true) scc.members)
    cond.sccs;
  for m = Ipa_ir.Program.n_meths prev_p to Ipa_ir.Program.n_meths p - 1 do
    defer.(m) <- true
  done;
  let replay = Summary.compile p in
  Trace.span "incr.solve" (fun () ->
      ignore (Solver.run_incremental ~replay ~seed:{ Solver.base = prev_sol; defer } p cfg))

(* The per-layer probes of one op, run after it (outside its span): the
   summary steps [Analysis.run_incremental] runs internally, the solver step alone, and a
   cold solve of the same edited program. Returns the cold solve's
   seconds. *)
let probes ~prev_p ~prev_sol (s : step) =
  let p = s.edited in
  let cond = Trace.span "summary.condense" (fun () -> Summary.condense p) in
  Trace.span "summary.digest" (fun () ->
      Array.iteri (fun sid _ -> ignore (Summary.digest p cond sid)) cond.sccs);
  let extends = Trace.span "summary.extends" (fun () -> Summary.extends ~old_p:prev_p ~new_p:p) in
  ignore (Trace.span "summary.align" (fun () -> Summary.align ~old_p:prev_p ~new_p:p));
  if extends && s.report.incremental then warm_solver_only ~prev_p ~prev_sol p;
  let cfg = Solver.plain p (Ipa_core.Flavors.strategy p flavor) in
  snd (Clock.time (fun () -> Trace.span "incr.cold_solve" (fun () -> ignore (Solver.run p cfg))))

(* Check a chain's answers: each warm solution's digest must equal that of
   a cold Solver.run of the same edited program. The cold solves are
   shared out over two forked children, which run at once (nothing is
   timed by then). A share whose child dies counts as failed. Returns the
   failed count and a note per failure, in chain order. *)
let verify ~p0 edits answers =
  let share k () =
    let p = ref p0 in
    List.concat
      (List.mapi
         (fun i (e, r) ->
           p := Edits.apply !p e;
           if i mod 2 <> k then []
           else
             let bad m = [ (i, Printf.sprintf "edit %d (%s): %s" i (Edits.describe p0 e) m) ] in
             match r with
             | Error m -> bad m
             | Ok d ->
               let cold = Solver.run !p (Solver.plain !p (Ipa_core.Flavors.strategy !p flavor)) in
               if String.equal d (digest !p cold) then [] else bad "warm solution differs from the cold solve")
         (List.combine edits answers))
  in
  let bad =
    List.concat
      (List.mapi
         (fun k r ->
           match r with
           | Ok l -> l
           | Error m ->
             List.filter_map
               (fun i -> if i mod 2 = k then Some (i, Printf.sprintf "edit %d: check failed: %s" i m) else None)
               (List.init (List.length edits) Fun.id))
         (Host.in_children [ share 0; share 1 ]))
  in
  (List.length bad, List.map snd (List.sort compare bad))

(* Walk the chain from [sol0]; [each] sees every step, untimed. *)
let run_chain ~store ~p0 ~sol0 edits ~traced ~each =
  let state = ref (p0, sol0) in
  List.mapi
    (fun i e ->
      let prev_p, prev_sol = !state in
      let t0 = Clock.now () in
      let r =
        try
          Ok
            (if traced then Trace.op ~op:i "op" (fun () -> run_op ~store !state e)
             else run_op ~store !state e)
        with ex -> Error (Printexc.to_string ex)
      in
      let dt = Clock.now () -. t0 in
      match r with
      | Ok s ->
        state := (s.edited, s.solution);
        (dt, each i ~prev_p ~prev_sol s)
      | Error m -> (dt, Error m))
    edits

let run (ctx : Workload.ctx) : Workload.result =
  let p0 = program ~seed:ctx.seed in
  let n = Workload.ops_for ~seconds:ctx.seconds ~rate ~min_ops in
  let edits = Gen.edit_chain ~seed:ctx.seed ~n p0 in
  let (blobs, sol0), setups = Workload.isolated_setup 7 (fun () -> setup p0) in
  let (_, store), publish_s =
    Clock.time (fun () -> publish ~dir:(Filename.concat ctx.run_dir "cache") blobs)
  in
  ignore (Host.reset_hwm ());
  let results, diag =
    Host.around_phase (fun () ->
        run_chain ~store ~p0 ~sol0 edits ~traced:false ~each:(fun _ ~prev_p:_ ~prev_sol:_ s ->
            Ok (digest s.edited s.solution)))
  in
  let peak_rss_kb = Host.vm_hwm_kb () in
  let failed, notes = verify ~p0 edits (List.map snd results) in
  let latencies = Array.of_list (List.map fst results) in
  let phase_s = Array.fold_left ( +. ) 0.0 latencies in
  let layers =
    if not ctx.trace then []
    else begin
      let blobs, sol0 = setup p0 in
      let cache, store = publish ~dir:(Filename.concat ctx.run_dir "cache-traced") blobs in
      let writes0 = (Cache.stats cache).writes in
      let ratios = ref [] and steps = ref [] in
      Trace.enabled := true;
      let traced =
        run_chain ~store ~p0 ~sol0 edits ~traced:true ~each:(fun i ~prev_p ~prev_sol s ->
            let op_s =
              match List.filter (fun (x : Trace.span) -> x.op = i && x.name = "incr.run_incremental") !Trace.spans with
              | x :: _ -> Workload.ms_of x /. 1e3
              | [] -> 0.0
            in
            let cold_s = probes ~prev_p ~prev_sol s in
            if cold_s > 0.0 then ratios := (op_s /. cold_s) :: !ratios;
            steps := s :: !steps;
            Ok "")
      in
      Trace.enabled := false;
      let spans = Trace.all () in
      let nops = float_of_int (List.length !steps) in
      let mean f = float_of_int (List.fold_left (fun a s -> a + f s) 0 !steps) /. nops in
      let traced_wall = List.fold_left (fun a (d, _) -> a +. d) 0.0 traced in
      [
        ("edits.apply_ms", Workload.median_ms "edits.apply" spans);
        ("summary.condense_ms", Workload.median_ms "summary.condense" spans);
        ("summary.digest_ms", Workload.median_ms "summary.digest" spans);
        ("summary.extends_ms", Workload.median_ms "summary.extends" spans);
        ("summary.align_ms", Workload.median_ms "summary.align" spans);
        ("incr.solve_ms", Workload.median_ms "incr.solve" spans);
        ("incr.run_incremental_ms", Workload.median_ms "incr.run_incremental" spans);
        ("incr.derivations", mean (fun s -> s.solution.derivations));
        ("incr.dirty_sccs", mean (fun s -> List.length s.report.dirty_sccs));
        ( "incr.fallbacks",
          float_of_int (List.length (List.filter (fun s -> s.report.fallback <> None) !steps)) );
        ("incr.summaries_reused", mean (fun s -> s.report.summaries_reused));
        ("cache.summary_writes", float_of_int ((Cache.stats cache).writes - writes0));
        ("cache.summary_publish_ms", publish_s *. 1e3);
        ("incr.warm_over_cold", Stats.median (Array.of_list !ratios));
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
    completed = List.length edits - failed;
    attempted = List.length edits;
    failed;
    peak_rss_kb;
    diag;
    notes;
    layers;
    trace_keep = Workload.keep_all;
  }
