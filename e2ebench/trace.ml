(* In-memory spans around calls into the program's layers.

   A span records its name, the op it belongs to, its parent, monotonic
   start and end, and the GC counters at both boundaries. Spans are kept in
   memory and written out at exit as Chrome trace-event JSON. With tracing
   off, [span] is a plain call, so the untraced run times the same code. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** id of the enclosing span, -1 for a root *)
  t0 : int64;  (** ns, monotonic *)
  mutable t1 : int64;
  alloc0 : float;  (** words allocated so far (minor + major - promoted) *)
  mutable alloc1 : float;
  minor0 : int;
  mutable minor1 : int;
  major0 : int;
  mutable major1 : int;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let current_op = ref (-1)

let reset () =
  spans := [];
  next_id := 0;
  stack := [];
  current_op := -1

let gc_now () =
  let s = Gc.quick_stat () in
  (s.minor_words +. s.major_words -. s.promoted_words, s.minor_collections, s.major_collections)

let span name f =
  if not !enabled then f ()
  else begin
    let alloc0, minor0, major0 = gc_now () in
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s =
      {
        id; name; op = !current_op; parent; t0 = Clock.now_ns (); t1 = 0L;
        alloc0; alloc1 = alloc0; minor0; minor1 = minor0; major0; major1 = major0;
      }
    in
    stack := id :: !stack;
    let finish () =
      s.t1 <- Clock.now_ns ();
      let a, mi, ma = gc_now () in
      s.alloc1 <- a;
      s.minor1 <- mi;
      s.major1 <- ma;
      stack := (match !stack with _ :: tl -> tl | [] -> []);
      spans := s :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* Run [f] as op [op]: a root span named [name] that its calls nest in. *)
let op ~op name f =
  current_op := op;
  Fun.protect ~finally:(fun () -> current_op := -1) (fun () -> span name f)

let all () = List.sort (fun a b -> compare a.id b.id) !spans
let duration_ns s = Int64.sub s.t1 s.t0
let duration_ms s = Int64.to_float (duration_ns s) *. 1e-6
let alloc_words s = s.alloc1 -. s.alloc0

(* Self time: the span's duration minus the part of it that its children
   cover (their intervals merged and clipped to the span). *)
let self_ns (s : span) (children : span list) =
  let ivs =
    List.filter_map
      (fun (c : span) ->
        let a = max c.t0 s.t0 and b = min c.t1 s.t1 in
        if Int64.compare b a > 0 then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, hi) (a, b) ->
        let a = max a hi in
        if Int64.compare b a > 0 then (Int64.add acc (Int64.sub b a), b) else (acc, hi))
      (0L, s.t0) ivs
  in
  Int64.sub (duration_ns s) covered

let children_of spans =
  let tbl = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s) spans;
  fun (s : span) -> Hashtbl.find_all tbl s.id

(* Chrome trace-event JSON ("X" complete events, microseconds). Load it in
   chrome://tracing or https://ui.perfetto.dev. *)
let to_chrome_json spans =
  let kids = children_of spans in
  let base = match spans with [] -> 0L | s :: _ -> List.fold_left (fun m x -> min m x.t0) s.t0 spans in
  let us ns = Int64.to_float ns /. 1e3 in
  let event s =
    Printf.sprintf
      {|{"name":%s,"cat":"layer","ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d,"self_us":%.3f,"alloc_words":%.0f,"minor_gcs":%d,"major_gcs":%d}}|}
      (Ipa_query.Engine.json_string s.name)
      (us (Int64.sub s.t0 base))
      (us (duration_ns s))
      s.id s.parent s.op
      (us (self_ns s (kids s)))
      (alloc_words s) (s.minor1 - s.minor0) (s.major1 - s.major0)
  in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
  ^ String.concat ",\n" (List.map event spans)
  ^ "\n]}\n"

let by_name name spans = List.filter (fun s -> s.name = name) spans
