(* Differential tests for compositional and incremental solving:
   - a cold compositional solve (summary extraction + replay) must be
     byte-identical to the monolithic solve, for an exact flavor and under
     context-sensitivity, at any extraction parallelism;
   - a warm re-solve chained across random monotone edits must be
     byte-identical to a cold solve of the final program (modulo the phase
     accounting: counters and the derivation count measure the edit);
   - the dirty set after an edit is exactly the edited component plus its
     transitive callers — siblings keep their summaries;
   - edit picking is deterministic in its seed (the CLI's --seed). *)

module B = Ipa_ir.Builder
module Program = Ipa_ir.Program
module Solution = Ipa_core.Solution
module Solver = Ipa_core.Solver
module Snapshot = Ipa_core.Snapshot
module Summary = Ipa_core.Summary
module Comp = Ipa_core.Compositional_solver
module Flavors = Ipa_core.Flavors
module Edits = Ipa_synthetic.Edits

let check = Alcotest.check

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mem_store () =
  let tbl = Hashtbl.create 32 in
  {
    Comp.find_bytes = (fun key -> Hashtbl.find_opt tbl key);
    put_bytes = (fun key bytes -> if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key bytes);
  }

(* Snapshot bytes with the propagation counters zeroed: what "identical
   solution" means when one side carries compositional counters the other
   cannot. The warm variant additionally zeroes the derivation count —
   a seeded solve re-asserts the baseline without counting it. *)
let cold_bytes p (s : Solution.t) =
  Snapshot.encode
    {
      Snapshot.key = "incr-test";
      program_digest = Snapshot.digest_program p;
      label = "incr-test";
      seconds = 0.0;
      solution = { s with Solution.counters = Solution.zero_counters };
      metrics = None;
    }

let warm_bytes p (s : Solution.t) = cold_bytes p { s with Solution.derivations = 0 }

let config p flavor = Solver.plain p (Flavors.strategy p flavor)

let flavors =
  [ Flavors.Insensitive; Flavors.Type_sens { depth = 2; heap = 1 } ]

(* The warm chain also runs under heap and call-site contexts: settled
   seeds are re-interned from the base, so their context elements must
   stay stable across every edit. *)
let warm_flavors =
  flavors
  @ [ Flavors.Object_sens { depth = 2; heap = 1 }; Flavors.Call_site { depth = 2; heap = 1 } ]

(* ---------- cold compositional == monolithic ---------- *)

let prop_compositional_identity seed =
  let p = Ipa_testlib.random_program seed in
  List.iter
    (fun flavor ->
      let name = Flavors.to_string flavor in
      let cfg = config p flavor in
      let mono = Solver.run p cfg in
      let store = mem_store () in
      let comp, report = Comp.solve ~store p cfg in
      if comp.Solution.derivations <> mono.Solution.derivations then
        QCheck2.Test.fail_reportf "%s: derivations %d (compositional) vs %d (monolithic)"
          name comp.Solution.derivations mono.Solution.derivations;
      if not (String.equal (cold_bytes p comp) (cold_bytes p mono)) then
        QCheck2.Test.fail_reportf "%s: compositional solve changed the snapshot bytes" name;
      if report.Comp.sccs_summarized <> report.Comp.n_sccs then
        QCheck2.Test.fail_reportf "%s: %d of %d components summarized" name
          report.Comp.sccs_summarized report.Comp.n_sccs;
      (* Second solve over the same store: every summary must hit. *)
      let again, report2 = Comp.solve ~store p cfg in
      if report2.Comp.summaries_reused <> report2.Comp.n_sccs then
        QCheck2.Test.fail_reportf "%s: %d of %d summaries reused on the second solve" name
          report2.Comp.summaries_reused report2.Comp.n_sccs;
      if not (String.equal (cold_bytes p again) (cold_bytes p mono)) then
        QCheck2.Test.fail_reportf "%s: store round-trip changed the snapshot bytes" name)
    flavors;
  true

let test_compositional_identity =
  qtest "compositional == monolithic (insens, 2typeH)"
    (QCheck2.Gen.int_range 100 299)
    prop_compositional_identity

(* Extraction parallelism must not change anything: store probes stay
   sequential, so even the reuse accounting is identical. *)
let prop_jobs_independent seed =
  let p = Ipa_testlib.random_program seed in
  let cfg = config p Flavors.Insensitive in
  let s1, r1 = Comp.solve ~store:(mem_store ()) ~jobs:1 p cfg in
  let s4, r4 = Comp.solve ~store:(mem_store ()) ~jobs:4 p cfg in
  if not (String.equal (cold_bytes p s1) (cold_bytes p s4)) then
    QCheck2.Test.fail_reportf "jobs 4 changed the snapshot bytes";
  if r1 <> r4 then QCheck2.Test.fail_reportf "jobs 4 changed the report";
  true

let test_jobs_independent =
  qtest ~count:15 "extraction jobs 1 == jobs 4"
    (QCheck2.Gen.int_range 300 399)
    prop_jobs_independent

(* ---------- warm chain over monotone edits == cold ---------- *)

let prop_warm_chain (seed, n_edits) =
  let p0 = Ipa_testlib.random_program seed in
  let edits = Edits.pick ~kinds:Edits.monotone_kinds ~seed ~n:n_edits p0 in
  List.iter
    (fun flavor ->
      let name = Flavors.to_string flavor in
      let store = mem_store () in
      let s0, _ = Comp.solve ~store p0 (config p0 flavor) in
      let pf, sf =
        List.fold_left
          (fun (p, s) e ->
            let p' = Edits.apply p e in
            let s', report =
              Comp.solve_incremental ~store ~base_program:p ~base_solution:s p'
                (config p' flavor)
            in
            (match report.Comp.fallback with
            | None -> ()
            | Some reason ->
              QCheck2.Test.fail_reportf "%s: %s fell back cold: %s" name
                (Edits.describe p e) reason);
            (p', s'))
          (p0, s0) edits
      in
      let cold = Solver.run pf (config pf flavor) in
      if not (String.equal (warm_bytes pf sf) (warm_bytes pf cold)) then
        QCheck2.Test.fail_reportf
          "%s: warm solve after %d edit(s) differs from the cold solve" name
          (List.length edits))
    warm_flavors;
  true

let test_warm_chain =
  qtest ~count:20 "warm re-solve chain == cold (insens, 2typeH, 2objH, 2callH)"
    QCheck2.Gen.(pair (int_range 400 599) (int_range 1 3))
    prop_warm_chain

(* Seeds are settled facts: re-solving an unchanged program queues no
   batch and derives nothing — the base fixpoint is not re-propagated. *)
let test_unchanged_settled () =
  List.iter
    (fun seed ->
      let p = Ipa_testlib.random_program seed in
      List.iter
        (fun flavor ->
          let name = Printf.sprintf "seed %d %s" seed (Flavors.to_string flavor) in
          let store = mem_store () in
          let s0, _ = Comp.solve ~store p (config p flavor) in
          let warm, report =
            Comp.solve_incremental ~store ~base_program:p ~base_solution:s0 p (config p flavor)
          in
          check Alcotest.bool (name ^ ": incremental") true report.Comp.incremental;
          check Alcotest.int (name ^ ": batch objects") 0
            warm.Solution.counters.Solution.batch_objs;
          check Alcotest.int (name ^ ": derivations") 0 warm.Solution.derivations;
          check Alcotest.bool (name ^ ": warm == cold") true
            (String.equal (warm_bytes p warm) (warm_bytes p s0)))
        warm_flavors)
    [ 11; 12; 13 ]

(* ---------- dirty-set minimality ---------- *)

(* main -> a -> b -> c plus main -> d: editing c must dirty exactly the
   call chain above it ({c, b, a, main}); the sibling d keeps its summary
   and stays out of the re-solved set. *)
let test_dirty_minimality () =
  let b = B.create () in
  let obj = B.add_class b "Object" in
  let cls = B.add_class b ~super:obj "K" in
  let mk name = B.add_method b ~owner:cls ~name ~static:true ~params:[] () in
  let main = mk "main" in
  let am = mk "a" in
  let bm = mk "b" in
  let cm = mk "c" in
  let dm = mk "d" in
  ignore (B.scall b main ~callee:am ~actuals:[] ());
  ignore (B.scall b main ~callee:dm ~actuals:[] ());
  ignore (B.scall b am ~callee:bm ~actuals:[] ());
  ignore (B.scall b bm ~callee:cm ~actuals:[] ());
  let cv = B.add_var b cm "x" in
  ignore (B.alloc b cm ~target:cv ~cls);
  B.return_ b cm cv;
  let dv = B.add_var b dm "x" in
  ignore (B.alloc b dm ~target:dv ~cls);
  B.add_entry b main;
  let base = B.finish b in
  let edited = Edits.apply base { Edits.kind = Edits.Add_alloc; meth = cm; salt = 0 } in
  let store = mem_store () in
  let s0, cold_report = Comp.solve ~store base (config base Flavors.Insensitive) in
  check Alcotest.int "five components" 5 cold_report.Comp.n_sccs;
  let warm, report =
    Comp.solve_incremental ~store ~base_program:base ~base_solution:s0 edited
      (config edited Flavors.Insensitive)
  in
  check Alcotest.bool "incremental" true report.Comp.incremental;
  let cond = Summary.condense edited in
  let scc_of m = cond.Summary.scc_of_meth.(m) in
  let expected = List.sort compare [ scc_of main; scc_of am; scc_of bm; scc_of cm ] in
  check (Alcotest.list Alcotest.int) "dirty = edited chain" expected report.Comp.dirty_sccs;
  check Alcotest.bool "sibling d stays clean" false
    (List.mem (scc_of dm) report.Comp.dirty_sccs);
  check Alcotest.int "resolved = dirty closure" 4 report.Comp.sccs_resolved;
  (* Every unchanged component's summary hits the store: only c changed. *)
  check Alcotest.int "summaries reused" 4 report.Comp.summaries_reused;
  let cold = Solver.run edited (config edited Flavors.Insensitive) in
  check Alcotest.bool "warm == cold" true
    (String.equal (warm_bytes edited warm) (warm_bytes edited cold))

(* ---------- monotone-extension check ---------- *)

(* A declares m(); B extends A and inherits it; the unrelated C declares
   k(); main calls m() on a B. [extra] then declares one more method in B,
   after everything else so every old id stays put: [`Override] is m(),
   which redirects the old (B, m) dispatch; [`Adopt] is k(), which gives
   the old pair (B, k) an entry it never had; [`Fresh_sig] is n(), which
   touches no old pair. *)
let hierarchy extra =
  let b = B.create () in
  let obj = B.add_class b "Object" in
  let a = B.add_class b ~super:obj "A" in
  let bc = B.add_class b ~super:a "B" in
  let c = B.add_class b ~super:obj "C" in
  ignore (B.add_method b ~owner:a ~name:"m" ~params:[] ());
  ignore (B.add_method b ~owner:c ~name:"k" ~params:[] ());
  let main = B.add_method b ~owner:a ~name:"main" ~static:true ~params:[] () in
  let x = B.add_var b main "x" in
  ignore (B.alloc b main ~target:x ~cls:bc);
  ignore (B.vcall b main ~base:x ~name:"m" ~actuals:[] ());
  B.add_entry b main;
  (match extra with
  | `None -> ()
  | `Override -> ignore (B.add_method b ~owner:bc ~name:"m" ~params:[] ())
  | `Adopt -> ignore (B.add_method b ~owner:bc ~name:"k" ~params:[] ())
  | `Fresh_sig -> ignore (B.add_method b ~owner:bc ~name:"n" ~params:[] ()));
  B.finish b

(* [p] with [return ret] appended to the body of [meth], which did not
   return; [fresh] makes [ret] a new variable, otherwise it is [reuse]. *)
let with_return p meth ~fresh ~reuse =
  let meths = Array.init (Program.n_meths p) (Program.meth_info p) in
  let vars = Array.init (Program.n_vars p) (Program.var_info p) in
  let vars, ret =
    if fresh then
      (Array.append vars [| { Program.var_name = "$ret"; var_owner = meth } |], Array.length vars)
    else (vars, reuse)
  in
  let mi = meths.(meth) in
  meths.(meth) <-
    {
      mi with
      Program.ret_var = Some ret;
      body = Array.append mi.body [| Program.Return { source = reuse } |];
    };
  Program.make
    ~classes:(Array.init (Program.n_classes p) (Program.class_info p))
    ~fields:(Array.init (Program.n_fields p) (Program.field_info p))
    ~sigs:(Array.init (Program.n_sigs p) (Program.sig_info p))
    ~meths ~vars
    ~heaps:(Array.init (Program.n_heaps p) (Program.heap_info p))
    ~invos:(Array.init (Program.n_invos p) (Program.invo_info p))
    ~entries:(Program.entries p) ()

let test_extends () =
  let p = Ipa_testlib.random_program 21 in
  let extends_by kind =
    match Edits.pick ~kinds:[ kind ] ~seed:5 ~n:1 p with
    | [ e ] -> Summary.extends ~old_p:p ~new_p:(Edits.apply p e)
    | _ -> Alcotest.fail "no edit picked"
  in
  check Alcotest.bool "identical program" true (Summary.extends ~old_p:p ~new_p:p);
  check Alcotest.bool "add-alloc" true (extends_by Edits.Add_alloc);
  check Alcotest.bool "add-call" true (extends_by Edits.Add_call);
  check Alcotest.bool "rewrite-body" false (extends_by Edits.Rewrite_body);
  let base = hierarchy `None in
  check Alcotest.bool "new method, new signature" true
    (Summary.extends ~old_p:base ~new_p:(hierarchy `Fresh_sig));
  check Alcotest.bool "new method overriding an inherited signature" false
    (Summary.extends ~old_p:base ~new_p:(hierarchy `Override));
  check Alcotest.bool "new method giving an old pair its first entry" false
    (Summary.extends ~old_p:base ~new_p:(hierarchy `Adopt));
  (* The converse drops an entry the old table had. *)
  check Alcotest.bool "override removed" false
    (Summary.extends ~old_p:(hierarchy `Override) ~new_p:base);
  (* A return variable may appear only as a fresh variable: an old one
     could carry base facts that no seeded return edge would flush. *)
  let main = List.hd (Program.entries base) in
  let x = Program.n_vars base - 1 in
  check Alcotest.bool "fresh return variable" true
    (Summary.extends ~old_p:base ~new_p:(with_return base main ~fresh:true ~reuse:x));
  check Alcotest.bool "old variable as return variable" false
    (Summary.extends ~old_p:base ~new_p:(with_return base main ~fresh:false ~reuse:x))

(* ---------- seeded edit picking ---------- *)

let test_pick_deterministic () =
  let p = Ipa_testlib.random_program 7 in
  let d es = List.map (Edits.describe p) es in
  let a = d (Edits.pick ~seed:42 ~n:4 p) in
  let b = d (Edits.pick ~seed:42 ~n:4 p) in
  check (Alcotest.list Alcotest.string) "same seed, same edits" a b;
  (* Pinned: the CLI's --seed must keep meaning the same edit script. *)
  let monotone = d (Edits.pick ~kinds:Edits.monotone_kinds ~seed:42 ~n:2 p) in
  check (Alcotest.list Alcotest.string) "pinned seed-42 picks"
    [ "add-call C2::m1/1"; "add-call C4::m2/2" ]
    monotone;
  List.iter
    (fun e ->
      match e.Edits.kind with
      | Edits.Add_alloc | Edits.Add_call -> ()
      | Edits.Rewrite_body -> Alcotest.fail "monotone pick returned rewrite-body")
    (Edits.pick ~kinds:Edits.monotone_kinds ~seed:42 ~n:8 p)

let () =
  Alcotest.run "incremental"
    [
      ( "compositional",
        [ test_compositional_identity; test_jobs_independent ] );
      ( "warm",
        [
          test_warm_chain;
          Alcotest.test_case "unchanged re-solve is settled" `Quick test_unchanged_settled;
        ] );
      ( "dirty",
        [ Alcotest.test_case "minimal dirty set" `Quick test_dirty_minimality ] );
      ("extends", [ Alcotest.test_case "monotone-extension check" `Quick test_extends ]);
      ( "edits",
        [ Alcotest.test_case "seeded picking pinned" `Quick test_pick_deterministic ] );
    ]
