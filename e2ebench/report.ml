(* The result line, and the diagnostic lines above it. *)

let units =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("latency_p50_ms", "ms"); ("latency_tail_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* Every per-layer metric of every workload, with its unit. A traced run
   prints them all; a layer its workload does not call reads 0. *)
let per_layer =
  [
    (* intro *)
    ("frontend.parse_ms", "ms"); ("frontend.mb_per_s", "MB/s"); ("prepass.solve_ms", "ms");
    ("prepass.derivations", "count"); ("prepass.mderiv_per_s", "M/s"); ("prepass.alloc_mb", "MB");
    ("introspection.metrics_ms", "ms"); ("heuristic.select_ms", "ms");
    ("heuristic.sites_refined_pct", "%"); ("heuristic.objects_refined_pct", "%");
    ("refined.solve_ms", "ms"); ("refined.derivations", "count"); ("refined.mderiv_per_s", "M/s");
    ("refined.alloc_mb", "MB"); ("refined.budget_hits", "count"); ("report.precision_ms", "ms");
    ("gc.top_heap_mb", "MB");
    (* serve *)
    ("engine.eval_us", "us"); ("engine.eval_tail_us", "us"); ("engine.eval_us.reach", "us");
    ("engine.eval_us.pointed-by", "us"); ("engine.eval_us.taint", "us");
    ("server.overhead_us", "us"); ("serve.load_ms", "ms"); ("snapshot.decode_ms", "ms");
    ("snapshot.bytes", "bytes"); ("engine.warm_ms", "ms"); ("cache.find_ms", "ms");
    ("cache.evictions", "count"); ("cache.disk_hits", "count");
    (* edit *)
    ("edits.apply_ms", "ms"); ("summary.condense_ms", "ms"); ("summary.digest_ms", "ms");
    ("summary.extends_ms", "ms"); ("summary.align_ms", "ms"); ("incr.solve_ms", "ms");
    ("incr.run_incremental_ms", "ms"); ("incr.derivations", "count"); ("incr.dirty_sccs", "count");
    ("incr.fallbacks", "count"); ("incr.summaries_reused", "count");
    ("cache.summary_writes", "count"); ("cache.summary_publish_ms", "ms");
    ("incr.warm_over_cold", "ratio");
    (* demand *)
    ("demand.slice_ms", "ms"); ("demand.slice_nodes", "count"); ("demand.slice_solve_ms", "ms");
    ("demand.slice_derivations", "count"); ("demand.slice_share", "ratio");
    ("demand.memo_hits", "count");
    (* every workload *)
    ("host.calib_ms", "ms"); ("host.steal_pct", "%"); ("trace.overhead_pct", "%");
    ("trace.layer_cover_pct", "%");
  ]

let unit_of name =
  match List.assoc_opt name units with
  | Some u -> u
  | None -> Option.value ~default:"count" (List.assoc_opt name per_layer)

let print ~workload ~seed ~trace (r : Workload.result) =
  List.iter (fun l -> Printf.printf "# note: %s\n" l) r.notes;
  let n = Array.length r.latencies in
  let sorted = Stats.sorted r.latencies in
  let tail =
    match r.tail_windows with [] -> Stats.tail sorted | ws -> Stats.windowed_tail ws
  in
  let setup_s = Stats.median r.setups in
  Printf.printf "# %s seed=%d: %d attempted, %d failed, phase %.3f s, setups [%s] s\n" workload
    seed r.attempted r.failed r.phase_s
    (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.4f") r.setups)));
  Printf.printf "# host: calib %.2f ms before, %.2f ms after; steal %.2f%% over the phase\n"
    r.diag.calib_before_ms r.diag.calib_after_ms r.diag.steal;
  let metrics =
    if trace then begin
      let known = r.layers @ [ ("host.calib_ms", Host.calib_of r.diag); ("host.steal_pct", r.diag.steal) ] in
      List.map
        (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name known)))
        per_layer
    end
    else begin
      match tail with
      | None ->
        Printf.eprintf "%s: %d latency samples, too few for a tail percentile\n" workload n;
        exit 1
      | Some (pname, tail_s) ->
        let q = List.assoc pname Stats.tail_ladder in
        (match r.tail_windows with
        | [] ->
          Printf.printf "# latency: N=%d, p50 %.4f ms, tail %s %.4f ms (%d samples beyond)\n" n
            (Stats.percentile sorted 0.5 *. 1e3) pname (tail_s *. 1e3) (Stats.beyond ~n q)
        | ws ->
          let least = List.fold_left (fun m w -> min m (Array.length w)) max_int ws in
          Printf.printf
            "# latency: N=%d, p50 %.4f ms, tail %s %.4f ms (median over %d windows of >= %d samples, \
             >= %d samples beyond in each)\n"
            n (Stats.percentile sorted 0.5 *. 1e3) pname (tail_s *. 1e3) (List.length ws) least
            (Stats.beyond ~n:least q));
        [
          ("setup_s", setup_s);
          ("ops_per_s", float_of_int r.completed /. r.phase_s);
          ("latency_p50_ms", Stats.percentile sorted 0.5 *. 1e3);
          ("latency_tail_ms", tail_s *. 1e3);
          ("peak_rss_mb", float_of_int r.peak_rss_kb /. 1024.0);
        ]
    end
  in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let correct = r.failed = 0 && r.attempted > 0 && finite in
  let metrics = List.map (fun (k, v) -> (k, if Float.is_finite v then v else 0.0)) metrics in
  let body =
    String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} k (json_number v) (unit_of k))
         metrics)
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    r.attempted r.failed body;
  print_newline ()
