(* serve: query serving as an IDE client sees it. An `introspect serve
   --socket --cache-dir --mem-budget --jobs 2 --json` subprocess answers two
   closed-loop connections from this process over two snapshots of eclipse
   (2objH-IntroA and 2objH-IntroB). The engine, the server's I/O, snapshot
   decode and cache reads do the work; the solver does none after set-up.
   The memory budget holds one snapshot, so a [load key] swap re-reads and
   decodes a snapshot and warms a fresh engine. *)

module A = Ipa_core.Analysis
module Engine = Ipa_query.Engine
module Q = Ipa_query.Query
module Cache = Ipa_harness.Cache
module Snapshot = Ipa_core.Snapshot

let flavor = Ipa_core.Flavors.Object_sens { depth = 2; heap = 1 }
let heuristics = [| Ipa_core.Heuristics.default_a; Ipa_core.Heuristics.default_b |]
let labels = Array.map (fun h -> "2objH-" ^ Ipa_core.Heuristics.name h) heuristics

(* Query lines per client per measured second on the reference host, and
   swaps per client per run: few enough that loads stay a minority of the
   wall time (each costs ~0.1-0.5 s against ~15 us for a query). *)
let rate = 26000.0
let loads_per_client = 4
let clients = 2

(* Query lines per tail window of one client: ~0.8 s of its traffic. The
   p99 of a whole run of µs round trips follows host steal (0.080-0.090 ms
   at under 1 % steal, 0.110-0.122 ms at 5-9 %, a 34 % quartile spread
   over ten seeds); per-window p99s show the same bursts on both clients
   at once. *)
let window = 20_000

(* A client's query latencies in script order, cut into windows of
   [window] lines; the remainder joins the last window. *)
let windows_of times =
  let n = Array.length times in
  let k = max 1 (n / window) in
  List.init k (fun j ->
      let lo = j * window in
      Array.sub times lo (if j = k - 1 then n - lo else window))

type server = { pid : int; sock : string }

let connect ~deadline sock =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception (Unix.Unix_error (e, _, _) as ex) ->
      Unix.close fd;
      if (e = Unix.ENOENT || e = Unix.ECONNREFUSED) && Clock.now () < deadline then begin
        Unix.sleepf 0.005;
        go ()
      end
      else raise ex
  in
  go ()

let channels fd = (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

(* One request on a short-lived connection. *)
let request ?(wait = 60.0) ~sock line =
  let fd = connect ~deadline:(Clock.now () +. wait) sock in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ic, oc = channels fd in
  send_line oc line;
  let r = input_line ic in
  (try send_line oc "quit" with Sys_error _ -> ());
  r

let live : server list ref = ref []

(* Ask the server to stop; if it cannot be reached, signal it. Either way
   wait for it to end, killing it after a grace period. *)
let stop_server s =
  (match request ~wait:1.0 ~sock:s.sock "stop" with
  | _ -> ()
  | exception _ -> ( try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let deadline = Clock.now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Clock.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  live := List.filter (fun x -> x.pid <> s.pid) !live

let () = at_exit (fun () -> List.iter stop_server !live)

(* Spawn the server and wait for its first answer: what a user pays before
   the first query. *)
let start ~ctx ~jir_file ~cache_dir ~mem_budget ~log =
  let sock = Filename.concat ctx.Workload.run_dir "serve.sock" in
  let args =
    [|
      ctx.introspect; "serve"; jir_file; "-a"; "2objH"; "-i"; "A"; "--socket"; sock;
      "--cache-dir"; cache_dir; "--mem-budget"; string_of_int mem_budget; "--jobs"; "2"; "--json";
    |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process ctx.introspect args devnull err err in
  Unix.close devnull;
  Unix.close err;
  let s = { pid; sock } in
  live := s :: !live;
  let first = request ~sock "stats" in
  if not (String.starts_with ~prefix:{|{"q":"stats","ok":true|} first) then
    failwith ("serve: unexpected first answer: " ^ first);
  s

(* A client's closed loop: send a line, wait for its answer, next. Returns
   each line's round trip in seconds and each answer; answers are checked
   after the phase. An answer equal to the expected one is stored as that
   very string, so the stored answers cost no memory of their own. A
   connection the server drops leaves the rest of the answers missing, and
   so failed. *)
let client ~sock ~lines ~expected =
  let fd = connect ~deadline:(Clock.now () +. 60.0) sock in
  let ic, oc = channels fd in
  let n = Array.length lines in
  let times = Array.make n 0.0 and answers = Array.make n "" in
  (try
     Array.iteri
       (fun i line ->
         let t0 = Clock.now () in
         send_line oc line;
         let a = input_line ic in
         times.(i) <- Clock.now () -. t0;
         answers.(i) <- (if String.equal a expected.(i) then expected.(i) else a))
       lines;
     send_line oc "quit"
   with End_of_file | Sys_error _ -> ());
  Unix.close fd;
  (times, answers)

let load_answer ~keys i =
  let q = "load key " ^ Q.quote keys.(i) in
  Printf.sprintf {|{"q":%s,"ok":true,"kind":"load","label":%s}|} (Engine.json_string q)
    (Engine.json_string labels.(i))

(* Expected answers: a sequential Engine replay over the same snapshots,
   following each client's own swaps. *)
let expected_answers ~engines ~keys script =
  let memo = Hashtbl.create 4096 in
  let cur = ref 0 in
  Array.of_list
    (List.map
       (function
         | Gen.Load i ->
           cur := i;
           load_answer ~keys i
         | Gen.Query line -> (
           match Hashtbl.find_opt memo (!cur, line) with
           | Some a -> a
           | None ->
             let a =
               match Q.parse line with
               | Ok q -> Engine.render_json q (Engine.eval engines.(!cur) q)
               | Error e -> Engine.render_error ~json:true ~q:line e
             in
             Hashtbl.add memo (!cur, line) a;
             a))
       script)

let form_of line = match String.index_opt line ' ' with Some i -> String.sub line 0 i | None -> line

(* Each form's share of the query lines, in percent, largest first. *)
let form_shares scripts =
  let counts = Hashtbl.create 16 and total = ref 0 in
  List.iter
    (List.iter (function
      | Gen.Query l ->
        incr total;
        let f = form_of l in
        Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
      | Gen.Load _ -> ()))
    scripts;
  Hashtbl.fold (fun f k acc -> (f, k) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map (fun (f, k) -> Printf.sprintf "%s %.3g%%" f (100.0 *. float_of_int k /. float_of_int (max 1 !total)))
  |> String.concat ", "

let op_id c i = (c * 1_000_000) + i

(* Lines per client that get spans in a traced replay (swaps always do):
   the trace file keeps no more, and a span per line of a whole run would
   not fit in memory. *)
let spanned_lines = 5000

(* In-process replay of the scripts for the per-layer numbers: every query
   through [Engine.eval], every swap through the cache, the decoder and an
   engine warm, as the server does them. With [evals], every eval's time
   in microseconds is added to its form's list. *)
let replay ?evals ~program ~cache_dir ~mem_budget ~keys ~engines scripts =
  let cache = Cache.create ~dir:cache_dir ~mem_budget () in
  let tracing = !Trace.enabled in
  List.iteri
    (fun c script ->
      let engine = ref engines.(0) and pinned = ref None in
      List.iteri
        (fun i line ->
          Trace.enabled := tracing && (i < spanned_lines || match line with Gen.Load _ -> true | Gen.Query _ -> false);
          Trace.op ~op:(op_id c i) "op" (fun () ->
              match line with
              | Gen.Query l -> (
                let q = Trace.span "query.parse" (fun () -> Result.get_ok (Q.parse l)) in
                let form = form_of l in
                let eval () = ignore (Trace.span ("engine.eval:" ^ form) (fun () -> Engine.eval !engine q)) in
                match evals with
                | None -> eval ()
                | Some tbl ->
                  let (), dt = Clock.time eval in
                  let l = match Hashtbl.find_opt tbl form with Some l -> l | None -> [] in
                  Hashtbl.replace tbl form ((dt *. 1e6) :: l))
              | Gen.Load k ->
                let key = keys.(k) in
                let bytes =
                  Trace.span "cache.find" (fun () -> Option.get (Cache.find_bytes cache ~key))
                in
                let snap =
                  Trace.span "snapshot.decode" (fun () ->
                      Result.get_ok (Snapshot.decode ~program ~expect_key:key bytes))
                in
                engine :=
                  Trace.span "engine.warm" (fun () ->
                      let e = Engine.create snap.solution in
                      Engine.warm e;
                      e);
                Option.iter (fun key -> Cache.unpin cache ~key) !pinned;
                pinned := if Cache.pin cache ~key then Some key else None))
        script)
    scripts;
  Trace.enabled := tracing;
  cache

let run (ctx : Workload.ctx) : Workload.result =
  if not (Sys.file_exists ctx.introspect) then failwith ("serve: no binary at " ^ ctx.introspect);
  let spec = Option.get (Ipa_synthetic.Dacapo.find "eclipse") in
  let jir = Ipa_ir.Pretty.program (Ipa_synthetic.Dacapo.build ~scale:1.0 { spec with seed = spec.seed + ctx.seed }) in
  let jir_file = Filename.concat ctx.run_dir "program.jir" in
  Host.write_file jir_file jir;
  let program = Result.get_ok (Ipa_frontend.Jir.parse_string jir) in
  (* Inputs: both snapshots solved once and published to the run's cache
     directory, keyed exactly as the server keys them. *)
  let cache_dir = Filename.concat ctx.run_dir "cache" in
  let keys, sizes, engines =
    let cache = Cache.create ~dir:cache_dir () in
    let base, metrics = Cache.base_pass cache ~budget:0 program in
    let digest = Snapshot.digest_program program in
    let solved =
      Array.mapi
        (fun i h ->
          let refine = Ipa_core.Heuristics.select base.solution metrics h in
          let config = A.second_pass_config ~budget:0 program flavor refine in
          ignore (Cache.solve cache program ~label:labels.(i) config);
          let key = Snapshot.config_key ~program_digest:digest config in
          let bytes = Option.get (Cache.find_bytes cache ~key) in
          let snap = Result.get_ok (Snapshot.decode ~program ~expect_key:key bytes) in
          let e = Engine.create snap.solution in
          Engine.warm e;
          (key, String.length bytes, e))
        heuristics
    in
    (Array.map (fun (k, _, _) -> k) solved, Array.map (fun (_, s, _) -> s) solved, Array.map (fun (_, _, e) -> e) solved)
  in
  let mem_budget = Array.fold_left max 0 sizes + (Array.fold_left min max_int sizes / 4) in
  let n = int_of_float (Float.round (ctx.seconds *. rate)) in
  let corpus = Gen.query_corpus program in
  let scripts =
    List.init clients (fun c -> Gen.serve_script ~seed:ctx.seed ~corpus ~n ~loads:loads_per_client c)
  in
  let lines = List.map (fun s -> Array.of_list (List.map (Gen.line_text ~keys) s)) scripts in
  let expected = List.map (expected_answers ~engines ~keys) scripts in
  let log = Filename.concat ctx.run_dir "server.log" in
  (* Set-up five times; the last server stays up for the phase. *)
  let server, setups =
    Workload.repeated_setup ~release:stop_server 5 (fun () ->
        start ~ctx ~jir_file ~cache_dir ~mem_budget ~log)
  in
  ignore (Host.reset_hwm ~pid:server.pid ());
  let (results, wall), diag =
    Host.around_phase (fun () ->
        Clock.time (fun () ->
            let doms =
              List.map2
                (fun lines expected ->
                  Domain.spawn (fun () -> client ~sock:server.sock ~lines ~expected))
                lines expected
            in
            List.map Domain.join doms))
  in
  let peak_rss_kb = Host.vm_hwm_kb ~pid:server.pid () in
  let metrics_line = try request ~sock:server.sock "metrics" with _ -> "" in
  stop_server server;
  let notes = ref [] in
  let failed = ref 0 in
  let load_lat = ref [] and per_client = ref [] in
  List.iteri
    (fun c (((times, got), script), expected) ->
      let queries =
        List.concat
          (List.mapi
             (fun i line ->
               match line with
               | Gen.Query _ -> [ times.(i) ]
               | Gen.Load _ ->
                 load_lat := times.(i) :: !load_lat;
                 [])
             script)
      in
      per_client := !per_client @ [ Array.of_list queries ];
      let bad = Check.mismatches ~expected ~got in
      failed := !failed + List.length bad;
      List.iteri
        (fun j i ->
          if j < 3 then
            notes := Printf.sprintf "client %d line %d: want %s\n  got %s" c i expected.(i) got.(i) :: !notes)
        bad)
    (List.combine (List.combine results scripts) expected);
  let latencies = Array.concat !per_client in
  let load_s = List.fold_left ( +. ) 0.0 !load_lat in
  let attempted = List.fold_left (fun a l -> a + Array.length l) 0 lines in
  notes :=
    Printf.sprintf "%d query lines, %d loads; loads took %.1f%% of the client time"
      (Array.length latencies) (List.length !load_lat)
      (100.0 *. load_s /. (float_of_int clients *. wall))
    :: !notes;
  notes := Printf.sprintf "query forms: %s" (form_shares scripts) :: !notes;
  if metrics_line <> "" then notes := ("server metrics: " ^ metrics_line) :: !notes;
  let layers =
    if not ctx.trace then []
    else begin
      let replay_wall () =
        Trace.reset ();
        snd (Clock.time (fun () -> replay ~program ~cache_dir ~mem_budget ~keys ~engines scripts))
      in
      let untraced = replay_wall () in
      Trace.enabled := true;
      Trace.reset ();
      let t0 = Clock.now () in
      let by_form = Hashtbl.create 16 in
      let cache = replay ~evals:by_form ~program ~cache_dir ~mem_budget ~keys ~engines scripts in
      let traced = Clock.now () -. t0 in
      Trace.enabled := false;
      let spans = Trace.all () in
      let evals = Stats.sorted (Array.of_list (List.concat (Hashtbl.fold (fun _ l acc -> l :: acc) by_form []))) in
      let eval_p50 = Stats.percentile evals 0.5 in
      let form f =
        match Hashtbl.find_opt by_form f with Some l -> Stats.median (Array.of_list l) | None -> 0.0
      in
      let rtt_p50_us = Stats.percentile (Stats.sorted latencies) 0.5 *. 1e6 in
      let st = Cache.stats cache in
      let evictions =
        match
          List.find_map
            (fun kv ->
              match String.split_on_char ':' kv with
              | [ k; v ] when String.trim k = {|"evictions"|} -> float_of_string_opt (String.trim v)
              | _ -> None)
            (String.split_on_char ',' metrics_line)
        with
        | Some e -> e
        | None -> float_of_int st.evictions
      in
      [
        ("engine.eval_us", eval_p50);
        ("engine.eval_tail_us", Option.fold ~none:0.0 ~some:snd (Stats.tail evals));
        ("engine.eval_us.reach", form "reach");
        ("engine.eval_us.pointed-by", form "pointed-by");
        ("engine.eval_us.taint", form "taint");
        ("server.overhead_us", rtt_p50_us -. eval_p50);
        ("serve.load_ms", Stats.median (Array.of_list !load_lat) *. 1e3);
        ("snapshot.decode_ms", Workload.median_ms "snapshot.decode" spans);
        ( "snapshot.bytes",
          float_of_int (Array.fold_left ( + ) 0 sizes) /. float_of_int (Array.length sizes) );
        ("engine.warm_ms", Workload.median_ms "engine.warm" spans);
        ("cache.find_ms", Workload.median_ms "cache.find" spans);
        ("cache.evictions", evictions);
        ("cache.disk_hits", float_of_int st.disk_hits);
        ("trace.overhead_pct", Workload.overhead_pct ~untraced ~traced);
      ]
    end
  in
  {
    Workload.setups;
    latencies;
    tail_windows = List.concat_map windows_of !per_client;
    phase_s = wall;
    completed = attempted - !failed;
    attempted;
    failed = !failed;
    peak_rss_kb;
    diag;
    notes = List.rev !notes;
    layers;
    trace_keep = Workload.keep_all;
  }
