(* Seeded inputs. Everything a run feeds the program is derived here from
   the workload seed, so one seed always yields byte-identical op lists
   (.jir texts, query scripts, edit lists) and another seed different ones.
   The program under test only ever sees the generated inputs. *)

module P = Ipa_ir.Program
module Q = Ipa_query.Query
module Splitmix = Ipa_support.Splitmix

(* An independent stream per (seed, purpose). *)
let rng ~seed tag = Splitmix.create ((seed * 1_000_003) + Hashtbl.hash tag)

let shuffle rng l =
  let a = Array.of_list l in
  Splitmix.shuffle rng a;
  Array.to_list a

(* ---------- intro: .jir texts ---------- *)

type intro_op = {
  spec : string;
  scale : float;
  heuristic : Ipa_core.Heuristics.t;
  jir : string;
}

let intro_label o =
  Printf.sprintf "%s@%g/%s" o.spec o.scale (Ipa_core.Heuristics.name o.heuristic)

(* One cycle of the corpus: the DaCapo-like specs, each once, under both
   heuristics. Scale 1.0 wherever one op stays near a tenth of the measured
   phase or less; hsqldb and jython run reduced (at 1.0 one op takes
   3-8 s), and bloat stands in for the slow insens path that bloat and
   xalan share (at 1.0 its pre-pass alone takes ~20 s). *)
let intro_mix =
  [
    ("antlr", 1.0); ("lusearch", 1.0); ("chart", 1.0); ("eclipse", 1.0); ("pmd", 1.0);
    ("hsqldb", 0.2); ("jython", 0.2); ("bloat", 0.1);
  ]

let cycle_len ?(mix = intro_mix) () = 2 * List.length mix

(* At least [n] ops, in whole cycles of [mix] x {IntroA, IntroB} so that
   every run measures the same population: each cycle in its own seeded
   order, each entry with its own generator seed ({spec with seed}; the
   motif generators currently ignore it, so the texts repeat across seeds
   and only the order moves). *)
let intro_ops ?(mix = intro_mix) ~seed ~n () =
  let texts = Hashtbl.create 16 in
  let text spec scale gen_seed =
    let key = (spec, scale, gen_seed) in
    match Hashtbl.find_opt texts key with
    | Some t -> t
    | None ->
      let s = Option.get (Ipa_synthetic.Dacapo.find spec) in
      let t =
        Ipa_ir.Pretty.program (Ipa_synthetic.Dacapo.build ~scale { s with seed = gen_seed })
      in
      Hashtbl.add texts key t;
      t
  in
  let cycle_len = cycle_len ~mix () in
  let cycles = (n + cycle_len - 1) / cycle_len in
  let r = rng ~seed "intro" in
  List.concat
    (List.init cycles (fun c ->
         let ops =
           List.concat_map
             (fun (j, (spec, scale)) ->
               let base = (Option.get (Ipa_synthetic.Dacapo.find spec)).seed in
               let gen_seed = base + (seed * 7919) + (c * 101) + j in
               List.map
                 (fun heuristic -> { spec; scale; heuristic; jir = text spec scale gen_seed })
                 [ Ipa_core.Heuristics.default_a; Ipa_core.Heuristics.default_b ])
             (List.mapi (fun j m -> (j, m)) mix)
         in
         shuffle r ops))

(* ---------- entity tables ---------- *)

let instance_fields p =
  List.filter (fun f -> not (P.field_info p f).is_static_field) (List.init (P.n_fields p) Fun.id)

(* [k] indices out of [0, n), one per equal stratum at a seeded offset:
   a stratified sample, so the latency population of a run moves little
   from seed to seed while every entity stays reachable. *)
let stratified rng ~n k =
  if n = 0 then [||]
  else
    let k = min k n in
    Array.init k (fun i ->
        let lo = i * n / k and hi = ((i + 1) * n / k) - 1 in
        Splitmix.int_in rng lo (max lo hi))

(* ---------- serve: query scripts ---------- *)

(* The query corpus of the repository's own serve load test (`query_mix`
   in bench/main.ml), rebuilt here: every form, one query per entity in
   the program's table order, capped at 250 per form, then one taint and
   one stats query. A script draws from it by a zipf over corpus rank, as
   that test does, so the form shares follow from the corpus: on eclipse
   about three quarters of the traffic is pts, and taint and stats are
   rare. *)
let query_corpus p =
  let cap = 250 in
  let take n of_i = List.init (min n cap) of_i in
  let var v = P.var_full_name p v and heap h = P.heap_full_name p h in
  let meth m = P.meth_full_name p m and invo i = (P.invo_info p i).invo_name in
  let nv = P.n_vars p and nh = P.n_heaps p and nm = P.n_meths p in
  Array.of_list
    (List.map Q.to_string
       (List.concat
          [
            take nv (fun v -> Q.Pts (var v));
            take nh (fun h -> Q.Pointed_by (heap h));
            take (max 0 (nv - 1)) (fun v -> Q.Alias (var v, var (v + 1)));
            take (P.n_invos p) (fun i -> Q.Callees (invo i));
            take nm (fun m -> Q.Callers (meth m));
            take (max 0 (nm - 7)) (fun m -> Q.Reach (meth m, meth (m + 7)));
            (match Array.of_list (instance_fields p) with
            | [||] -> []
            | fields ->
              take nh (fun h ->
                  Q.Fieldpts (heap h, P.field_full_name p fields.(h mod Array.length fields))));
            [ Q.Taint None; Q.Stats ];
          ]))

(* Zipf over ranks 1..n (weight ~ 1/rank), by bisection on the cumulative
   weights. *)
let zipf_sampler n =
  let cum = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + (1_000_000 / (i + 1));
    cum.(i) <- !total
  done;
  fun r ->
    let x = Splitmix.int r !total in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) > x then go lo mid else go (mid + 1) hi
    in
    go 0 (n - 1)

type line = Query of string | Load of int  (** index of the snapshot key *)

(* Client [c]'s script: [n] queries drawn from [corpus] by a seeded zipf
   over rank, with [loads] [load key] swaps spread evenly through it,
   alternating between the two snapshots (client 0 starts by swapping to
   snapshot 1, client 1 to snapshot 0, so swaps interleave). *)
let serve_script ~seed ~corpus ~n ~loads c =
  let r = rng ~seed (Printf.sprintf "serve-client-%d" c) in
  let z = zipf_sampler (Array.length corpus) in
  let every = max 1 (n / (loads + 1)) in
  let out = ref [] and swaps = ref 0 in
  for i = 1 to n do
    out := Query corpus.(z r) :: !out;
    if i mod every = 0 && !swaps < loads then begin
      incr swaps;
      out := Load ((c + !swaps) mod 2) :: !out
    end
  done;
  List.rev !out

let line_text ~keys = function
  | Query q -> q
  | Load i -> "load key " ^ keys.(i)

(* ---------- edit: the edit chain ---------- *)

(* [n] edits with fixed shares of the three kinds (a third each, so about a
   third take the cold fallback), each kind drawn by [Edits.pick] with its
   own seed, interleaved in a seeded order. Edits name methods of the base
   program, so the list stays valid through sequential application. *)
let edit_chain ~seed ~n p =
  let module E = Ipa_synthetic.Edits in
  let kinds = E.all_kinds in
  let k = List.length kinds in
  let per = List.mapi (fun i kind -> (kind, (n / k) + if i < n mod k then 1 else 0)) kinds in
  let edits =
    List.concat_map
      (fun (kind, m) ->
        E.pick ~kinds:[ kind ] ~seed:((seed * 31) + Hashtbl.hash (E.kind_name kind)) ~n:m p)
      per
  in
  shuffle (rng ~seed "edit-order") edits

(* ---------- demand: queries with distinct root sets ---------- *)

(* [n] demand queries, every one with its own root set so that none is
   served from the slice memo: pts over a stratified sample of variables,
   alias over disjoint variable pairs, fieldpts over distinct fields, and
   a single callees query (every callees query shares the empty root set).
   Each query comes with the root set it slices from. *)
let demand_queries ~seed ~n p =
  let r = rng ~seed "demand" in
  let roots root_vars root_fields = { Ipa_core.Demand_solver.root_vars; root_fields } in
  let nv = P.n_vars p in
  let fields = Array.of_list (instance_fields p) in
  let var v = P.var_full_name p v in
  let n_field = min (Array.length fields) (n / 5) in
  let n_alias = n / 5 in
  let n_pts = n - n_field - n_alias - 1 in
  let pts_vars = stratified r ~n:nv n_pts in
  let alias_vars = stratified (rng ~seed "demand-alias") ~n:nv (2 * n_alias) in
  let used = Hashtbl.create 64 in
  Array.iter (fun v -> Hashtbl.replace used [ v ] ()) pts_vars;
  let alias =
    List.filter_map
      (fun i ->
        let a = alias_vars.(2 * i) and b = alias_vars.((2 * i) + 1) in
        let key = List.sort_uniq compare [ a; b ] in
        if Hashtbl.mem used key then None
        else begin
          Hashtbl.replace used key ();
          Some (Q.Alias (var a, var b), roots [ a; b ] [])
        end)
      (List.init (Array.length alias_vars / 2) Fun.id)
  in
  let field_idx = stratified (rng ~seed "demand-fields") ~n:(Array.length fields) n_field in
  let fieldpts =
    List.sort_uniq compare (Array.to_list field_idx)
    |> List.map (fun i ->
           let f = fields.(i) in
           let h = Splitmix.int r (P.n_heaps p) in
           (Q.Fieldpts (P.heap_full_name p h, P.field_full_name p f), roots [] [ f ]))
  in
  let invo = Splitmix.int r (P.n_invos p) in
  shuffle r
    (List.concat
       [
         List.map (fun v -> (Q.Pts (var v), roots [ v ] [])) (Array.to_list pts_vars);
         alias;
         fieldpts;
         [ (Q.Callees (P.invo_info p invo).invo_name, Ipa_core.Demand_solver.no_roots) ];
       ])
