(* The benchmark's own tests: the tail ladder, seeded input generation,
   span self-time arithmetic, the trace file, and failure accounting. *)

open E2ebench

(* ---------- tail ladder ---------- *)

let ladder () =
  let pick n = Option.map fst (Stats.tail_choice ~n) in
  let check n want = Alcotest.(check (option string)) (Printf.sprintf "N=%d" n) want (pick n) in
  check 11 None;
  check 39 None;
  check 40 (Some "p75");
  check 99 (Some "p75");
  check 100 (Some "p90");
  check 1000 (Some "p99");
  (* the chosen percentile always leaves at least ten samples beyond it *)
  List.iter
    (fun n ->
      match Stats.tail_choice ~n with
      | Some (_, q) -> Alcotest.(check bool) "ten beyond" true (Stats.beyond ~n q >= 10)
      | None -> ())
    (List.init 2000 (fun i -> i + 1))

let percentiles () =
  let s = Stats.sorted (Array.init 40 (fun i -> float_of_int (40 - i))) in
  Alcotest.(check (float 0.0)) "p50 is rank 20" 20.0 (Stats.percentile s 0.5);
  Alcotest.(check (float 0.0)) "p75 is rank 30" 30.0 (Stats.percentile s 0.75);
  Alcotest.(check (option (pair string (float 0.0)))) "tail" (Some ("p75", 30.0)) (Stats.tail s);
  Alcotest.(check (float 0.0)) "median, even n" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let windowed () =
  let w top = Array.init 40 (fun i -> if i = 39 then top else float_of_int (i + 1)) in
  (* p75 of 1..40 is 30 whatever the top sample; the median window wins *)
  Alcotest.(check (option (pair string (float 0.0)))) "median of window tails" (Some ("p75", 30.0))
    (Stats.windowed_tail [ w 1000.0; w 40.0; w 50.0 ]);
  let slow = Array.map (fun x -> 10.0 *. x) (w 40.0) in
  Alcotest.(check (option (pair string (float 0.0)))) "a minority of slow windows" (Some ("p75", 30.0))
    (Stats.windowed_tail [ slow; w 40.0; w 40.0 ]);
  Alcotest.(check (option (pair string (float 0.0)))) "a majority of slow windows" (Some ("p75", 300.0))
    (Stats.windowed_tail [ slow; slow; w 40.0 ]);
  Alcotest.(check bool) "windows must share a percentile" true
    (Stats.windowed_tail [ w 40.0; Array.init 100 float_of_int ] = None);
  let ws = Serve.windows_of (Array.init ((2 * Serve.window) + 7) float_of_int) in
  Alcotest.(check (list int)) "remainder joins the last window" [ Serve.window; Serve.window + 7 ]
    (List.map Array.length ws)

(* ---------- seeded inputs ---------- *)

let small = Ipa_synthetic.Dacapo.build ~scale:0.05 (Option.get (Ipa_synthetic.Dacapo.find "antlr"))
let mix = [ ("antlr", 0.02); ("lusearch", 0.02); ("chart", 0.02) ]

let intro_list seed =
  List.map
    (fun (o : Gen.intro_op) -> (Gen.intro_label o, o.jir))
    (Gen.intro_ops ~mix ~seed ~n:18 ())

let serve_list seed =
  let corpus = Gen.query_corpus small in
  List.concat_map
    (fun c ->
      List.map
        (Gen.line_text ~keys:[| "k0"; "k1" |])
        (Gen.serve_script ~seed ~corpus ~n:300 ~loads:3 c))
    [ 0; 1 ]

let edit_list seed = List.map (Ipa_synthetic.Edits.describe small) (Gen.edit_chain ~seed ~n:12 small)

let demand_list seed =
  List.map (fun (q, _) -> Ipa_query.Query.to_string q) (Gen.demand_queries ~seed ~n:20 small)

let seeded name gen () =
  let a = gen 1 and b = gen 1 and c = gen 2 in
  Alcotest.(check bool) (name ^ ": same seed, identical") true (a = b);
  Alcotest.(check bool) (name ^ ": other seed, different") false (a = c)

let intro_shape () =
  let ops = Gen.intro_ops ~mix ~seed:3 ~n:7 () in
  Alcotest.(check int) "whole cycles" (2 * Gen.cycle_len ~mix ()) (List.length ops);
  let count spec = List.length (List.filter (fun (o : Gen.intro_op) -> o.spec = spec) ops) in
  Alcotest.(check (list int)) "each spec under both heuristics, per cycle" [ 4; 4; 4 ]
    (List.map (fun (s, _) -> count s) mix)

let serve_shape () =
  let script = Gen.serve_script ~seed:4 ~corpus:(Gen.query_corpus small) ~n:500 ~loads:4 0 in
  let loads = List.filter (function Gen.Load _ -> true | Gen.Query _ -> false) script in
  Alcotest.(check int) "queries" 500 (List.length script - List.length loads);
  Alcotest.(check int) "loads" 4 (List.length loads);
  Alcotest.(check bool) "swaps alternate" true
    (List.filteri (fun i _ -> i < 2) loads = [ Gen.Load 1; Gen.Load 0 ])

let serve_corpus () =
  let corpus = Gen.query_corpus small in
  let forms = List.sort_uniq compare (Array.to_list (Array.map Serve.form_of corpus)) in
  Alcotest.(check (list string)) "every form"
    [ "alias"; "callees"; "callers"; "fieldpts"; "pointed-by"; "pts"; "reach"; "stats"; "taint" ]
    forms;
  let n = Array.length corpus in
  Alcotest.(check (list string)) "taint and stats last" [ "taint"; "stats" ]
    [ corpus.(n - 2); corpus.(n - 1) ];
  Alcotest.(check bool) "pts ranks first" true (String.starts_with ~prefix:"pts " corpus.(0))

let edit_shape () =
  let edits = Gen.edit_chain ~seed:5 ~n:12 small in
  let of_kind k = List.length (List.filter (fun (e : Ipa_synthetic.Edits.t) -> e.kind = k) edits) in
  Alcotest.(check (list int)) "a third of each kind" [ 4; 4; 4 ]
    (List.map of_kind Ipa_synthetic.Edits.all_kinds)

let demand_roots () =
  let qs = Gen.demand_queries ~seed:6 ~n:20 small in
  let keys = List.map (fun (_, r) -> Ipa_core.Demand_solver.root_key r) qs in
  Alcotest.(check int) "every root set distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* ---------- spans ---------- *)

let mk id ~parent t0 t1 =
  {
    Trace.id; name = "s"; op = 0; parent; t0 = Int64.of_int t0; t1 = Int64.of_int t1;
    alloc0 = 0.0; alloc1 = 0.0; minor0 = 0; minor1 = 0; major0 = 0; major1 = 0;
  }

let self_time () =
  let root = mk 0 ~parent:(-1) 0 100 in
  let self kids = Int64.to_int (Trace.self_ns root kids) in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "disjoint children" 60 (self [ mk 1 ~parent:0 10 20; mk 2 ~parent:0 40 70 ]);
  Alcotest.(check int) "overlap counted once" 60 (self [ mk 1 ~parent:0 10 30; mk 2 ~parent:0 20 50 ]);
  Alcotest.(check int) "clipped to the parent" 90 (self [ mk 1 ~parent:0 90 130 ]);
  Alcotest.(check int) "fully covered" 0 (self [ mk 1 ~parent:0 0 100; mk 2 ~parent:0 30 40 ])

let trace_file () =
  Trace.reset ();
  Trace.enabled := true;
  Trace.op ~op:7 "op" (fun () ->
      Trace.span "outer \"quoted\"" (fun () -> ignore (Trace.span "inner" (fun () -> Sys.opaque_identity (List.init 100 Fun.id)))));
  Trace.enabled := false;
  let spans = Trace.all () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  let nested = List.find (fun (s : Trace.span) -> s.name = "inner") spans in
  let outer = List.find (fun (s : Trace.span) -> s.name <> "inner" && s.name <> "op") spans in
  Alcotest.(check int) "parent link" outer.id nested.parent;
  Alcotest.(check int) "op id" 7 nested.op;
  match Ipa_support.Json.of_string (Trace.to_chrome_json spans) with
  | Error e -> Alcotest.fail ("trace is not JSON: " ^ e)
  | Ok j -> (
    match Option.bind (Ipa_support.Json.member "traceEvents" j) Ipa_support.Json.to_list with
    | Some events -> Alcotest.(check int) "one event per span" 3 (List.length events)
    | None -> Alcotest.fail "no traceEvents")

(* ---------- failure accounting ---------- *)

let corrupted_answer () =
  let expected = [| "a"; "b"; "c" |] in
  Alcotest.(check (list int)) "clean" [] (Check.mismatches ~expected ~got:(Array.copy expected));
  Alcotest.(check (list int)) "one corrupted byte" [ 1 ] (Check.mismatches ~expected ~got:[| "a"; "B"; "c" |]);
  Alcotest.(check (list int)) "missing answers" [ 2 ] (Check.mismatches ~expected ~got:[| "a"; "b" |])

let corrupted_intro () =
  let op = List.hd (Gen.intro_ops ~mix:[ ("antlr", 0.05) ] ~seed:1 ~n:1 ()) in
  let out = Intro.run_op op in
  Alcotest.(check (option string)) "a real op passes" None (Intro.check out);
  let worse = { out.precision with poly_vcalls = out.precision.poly_vcalls + 1_000_000 } in
  Alcotest.(check bool) "a less precise refined pass fails" true
    (Intro.check { out with precision = worse } <> None)

let corrupted_edit () =
  let edits = Gen.edit_chain ~seed:5 ~n:4 small in
  let cold p = Ipa_core.Solver.run p (Ipa_core.Solver.plain p (Ipa_core.Flavors.strategy p Edit.flavor)) in
  let _, digests =
    List.fold_left_map
      (fun p e ->
        let p = Ipa_synthetic.Edits.apply p e in
        (p, Edit.digest p (cold p)))
      small edits
  in
  let answers = List.mapi (fun i d -> match i with 1 -> Ok "bogus" | 2 -> Error "boom" | _ -> Ok d) digests in
  let failed, notes = Edit.verify ~p0:small edits answers in
  Alcotest.(check int) "a wrong and a missing solution fail" 2 failed;
  Alcotest.(check (list bool)) "notes in chain order" [ true; true ]
    (List.map2 (fun n i -> String.starts_with ~prefix:(Printf.sprintf "edit %d " i) n) notes [ 1; 2 ]);
  Alcotest.(check (pair int (list string))) "cold digests pass" (0, [])
    (Edit.verify ~p0:small edits (List.map Result.ok digests))

(* ---------- forked children ---------- *)

let child () =
  Alcotest.(check (result (list int) string)) "value marshalled back" (Ok [ 1; 2; 3 ])
    (Host.in_child (fun () -> [ 1; 2; 3 ]));
  (match Host.in_child (fun () -> failwith "boom") with
  | Error m -> Alcotest.(check bool) "exception reported" true (String.ends_with ~suffix:"boom\")" m)
  | Ok () -> Alcotest.fail "a raising child returned a value");
  (match Host.in_children [ (fun () -> 1); (fun () -> failwith "two"); (fun () -> 3) ] with
  | [ Ok 1; Error _; Ok 3 ] -> ()
  | _ -> Alcotest.fail "concurrent children: results out of order or a failure spread");
  let calls = ref 0 in
  let v, times = Workload.isolated_setup 4 (fun () -> incr calls; !calls) in
  Alcotest.(check int) "one set-up per duration" 4 (Array.length times);
  Alcotest.(check int) "only the last ran in this process" 1 v

let () =
  Alcotest.run "e2ebench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail ladder" `Quick ladder;
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "windowed tail" `Quick windowed;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "intro texts seeded" `Quick (seeded "intro" intro_list);
          Alcotest.test_case "serve scripts seeded" `Quick (seeded "serve" serve_list);
          Alcotest.test_case "edit lists seeded" `Quick (seeded "edit" edit_list);
          Alcotest.test_case "demand queries seeded" `Quick (seeded "demand" demand_list);
          Alcotest.test_case "intro cycles" `Quick intro_shape;
          Alcotest.test_case "serve script shape" `Quick serve_shape;
          Alcotest.test_case "serve corpus" `Quick serve_corpus;
          Alcotest.test_case "edit kinds" `Quick edit_shape;
          Alcotest.test_case "demand root sets" `Quick demand_roots;
        ] );
      ("host", [ Alcotest.test_case "forked children" `Quick child ]);
      ("trace", [ Alcotest.test_case "self time" `Quick self_time; Alcotest.test_case "chrome json" `Quick trace_file ]);
      ( "checks",
        [ Alcotest.test_case "corrupted answer" `Quick corrupted_answer; Alcotest.test_case "corrupted intro op" `Quick corrupted_intro;
          Alcotest.test_case "corrupted edit solution" `Quick corrupted_edit;
        ] );
    ]
