(** Per-SCC method summaries for compositional and incremental solving.

    The call graph is over-approximated by CHA (a static call targets its
    declared callee, a virtual call every concrete implementation of its
    signature), condensed with Tarjan into strongly connected components
    emitted bottom-up (callees before callers). Each component gets:

    - a {e content digest} over the names (never the raw ids) of its entity
      slice — methods, bodies, referenced classes/fields/heaps/callees — so
      an edit dirties exactly the components whose slice changed;
    - a {e boundary abstraction} counting the flows that cross the
      component's interface (formals, returns, escaping throws, heap
      operations on possibly-non-local bases, dispatch sites), backed by a
      small intra-component may-escape fixpoint; and
    - a {e compiled constraint module} ([ops]) whose replay emits the exact
      constraint stream of [Solver.process_body], which is what lets the
      compositional solve certify byte-identity with the monolithic one.

    Summaries are content-addressed: [Harness.Cache] stores the encoded
    boundary under a key derived from the digest and the configuration
    fingerprint ([summary-v1]). *)

module Program := Ipa_ir.Program

(** {1 Condensation} *)

type scc = {
  scc_id : int;
  members : int array;  (** meth ids, ascending *)
  callees : int array;  (** callee scc ids, ascending, self excluded *)
}

type condensation = {
  sccs : scc array;
      (** bottom-up topological order: a component precedes its callers *)
  scc_of_meth : int array;
}

val condense : Program.t -> condensation

val dirty_closure : condensation -> int list -> bool array
(** [dirty_closure cond seeds] marks the seed components plus every
    transitive caller — the components whose facts may depend on a change
    inside a seed. *)

(** {1 Content digests} *)

val digest : Program.t -> condensation -> int -> string
(** [digest p cond scc_id] is a hex digest of the component's entity slice,
    computed over entity names so it is stable across id renumberings. *)

(** {1 Boundary abstraction} *)

type boundary = {
  b_formals : int;
  b_returns : int;
  b_catches : int;
  b_escaping_throws : int;
  b_escaping_loads : int;
  b_escaping_stores : int;
  b_local_loads : int;
  b_local_stores : int;
  b_allocs : int;
  b_virtual_sites : int;
  b_external_calls : int;
}

val boundary : Program.t -> condensation -> int -> boundary
(** The component's boundary effect; see the module docstring. *)

type t = { summary_scc : int; summary_digest : string; summary_boundary : boundary }

(** {1 Cache blob codec} *)

val blob_magic : string
(** ["IPSM"] — distinct from snapshot framing, so [Harness.Cache] can
    classify entries without decoding them. *)

val encode_blob : digest:string -> string list -> boundary -> string
(** [encode_blob ~digest member_names boundary] frames a summary for the
    content-addressed cache. *)

val decode_blob : string -> (string * string list * boundary) option
(** Inverse of {!encode_blob}; [None] on foreign or corrupt bytes. *)

(** {1 Compiled constraint modules} *)

type op =
  | O_alloc of { target : int; heap : int }
  | O_copy of { target : int; source : int }
  | O_cast of { target : int; source : int; cast_to : int }
  | O_load_static of { target : int; field : int }
  | O_store_static of { field : int; source : int }
  | O_scall of { invo : int; callee : int }
  | O_throw of { source : int }

type ops = op array array
(** One module per method, indexed by meth id. *)

val compile : Program.t -> ops
(** Compile every method body. Loads, stores and virtual calls compile to
    nothing (the solver drives them from base-variable points-to growth);
    [Return] compiles to the copy onto the canonical return variable. *)

(** {1 Monotone extension} *)

val extends : old_p:Program.t -> new_p:Program.t -> bool
(** Whether [new_p] is a structural, id-stable superset of [old_p]: old
    entity arrays are identical prefixes (method bodies may gain appended
    instructions; an absent return variable may appear as a fresh
    variable), dispatch is preserved on every old (class, signature) pair,
    and entries only grow.
    This is the soundness precondition for seeding a solve of [new_p] with
    a fixpoint of [old_p]. *)

val align : old_p:Program.t -> new_p:Program.t -> Program.t option
(** Renumber [new_p] so entities sharing a name with [old_p] keep the old
    ids, with genuinely new entities packed after them (in their original
    relative order). Frontend-assigned ids are file-order artifacts — an
    instruction inserted mid-file shifts every later id — but names are
    program-unique and stable, so alignment recovers the id-stability that
    {!extends} (and therefore warm seeding) requires. Returns [new_p]
    itself when the maps are already the identity; [None] when names are
    not unique or an [old_p] name has no counterpart (a deletion — not a
    monotone extension anyway). The aligned program drops source
    locations. *)
