(* Failure accounting shared by the workloads: an op whose answer differs
   from the reference answer counts as failed. *)

(* Indices at which [got] differs from [expected] (byte comparison); a
   missing answer counts as a difference. *)
let mismatches ~expected ~got =
  let n = max (Array.length expected) (Array.length got) in
  List.filter
    (fun i ->
      i >= Array.length expected || i >= Array.length got || not (String.equal expected.(i) got.(i)))
    (List.init n Fun.id)
