(** Resilient supervision of the failure-prone pipeline stages.

    The paper's phase two is explicitly fallible — "FF" (formal-tool
    timeout) is a first-class outcome in Table 4 — and the ROADMAP's
    production setting makes three demands the bare workflow does not meet:

    - {b per-work-item budget governance}: a shared conflict/wall-clock
      {!Budget.t} is carved into per-pair slices, so one pathologically
      hard pair exhausts {e its slice}, gets parked, and only re-runs with
      an escalated slice after every pair has had a first pass — it can
      never starve the pairs behind it;
    - {b a degradation ladder}: a pair still FF after its formal passes
      falls back to seeded random search over size-matched suites
      ({!Testgen} generation, {!Lift.detected_cases} on the 64-lane fast
      path), splitting Table 4's FF bucket into "covered by fallback"
      vs. "exhausted";
    - {b checkpoint/resume}: every completed work item is snapshotted as an
      atomically-written (tmp + rename) JSON file keyed by a
      config/netlist digest, so a killed run resumes exactly where it
      stopped — byte-identical results, enforced by the QCheck resume
      property and the CI kill-and-resume smoke. *)

(** Shared effort budget: solver conflicts (the deterministic currency)
    plus an optional wall-clock deadline (only consulted between escalation
    passes, so it never makes results input-dependent mid-item). *)
module Budget : sig
  type t

  val create : ?wall_clock_s:float -> conflicts:int -> unit -> t
  (** [wall_clock_s] is a soft deadline measured from [create]. *)

  val total : t -> int
  val spent : t -> int
  val remaining : t -> int
  val charge : t -> int -> unit
  val deadline_passed : t -> bool
end

val digest_of_strings : string list -> string
(** Hex MD5 over the rendered configuration tokens — the staleness key of a
    checkpoint. *)

val netlist_digest : Netlist.t -> string
(** Digest of the netlist's Verilog rendering: any structural change
    invalidates checkpoints made against it. *)

(** Incremental checkpoint store: a directory holding [meta.json]
    (format/version/digest) plus one [items/<name>.json] per completed
    work item.  All writes go through a temp file and [rename], so a
    crash can never leave a torn item — at worst a stale [*.tmp] that the
    next open sweeps away. *)
module Checkpoint : sig
  type t

  val open_dir : ?resume:bool -> dir:string -> digest:string -> unit -> (t, string) result
  (** Create or reopen the store.  A fresh directory is initialized either
      way.  An existing populated directory is an error unless [resume]
      (default false) is set — pointing a new run at old state must be
      explicit.  A digest mismatch against [meta.json] is always a
      readable error naming both digests.  Unparseable item files (a crash
      cannot cause one, but a truncated copy can) are deleted and their
      items recomputed. *)

  val dir : t -> string
  val digest : t -> string
  val load : t -> string -> Json.t option
  (** Completed-item snapshot under this key, if any. *)

  val store : t -> string -> Json.t -> unit
  (** Atomically persist one item (tmp + rename) and update the in-memory
      view. *)

  val keys : t -> string list
  val item_count : t -> int

  (** {2 Per-domain shards}

      A sharded store is one checkpoint directory holding a root
      [meta.json] plus [shard-<k>/] subdirectories, each itself a full
      single-writer store.  In a fleet run, worker domain [k] writes only
      to shard [k] (so no lock sits on the store path), while reads go
      through a merged view built once at open time.  Opening re-runs the
      torn-tmp sweep and the stale-digest check inside {e every} shard on
      disk — one stale shard refuses the whole resume — and merges
      whatever shards exist regardless of the current shard count, so a
      run killed at [--domains 4] resumes correctly at [--domains 1] and
      vice versa (the digest deliberately excludes the domain count). *)

  type sharded

  val open_sharded :
    ?resume:bool -> dir:string -> digest:string -> shards:int -> unit -> (sharded, string) result
  (** Create or reopen a sharded store with [shards] writable shards
      (>= 1, one per worker domain).  Same refusal rules as {!open_dir}:
      populated-without-[resume] and digest mismatches (root or any
      shard) are readable errors.
      @raise Invalid_argument if [shards < 1]. *)

  val shard : sharded -> int -> t
  (** The writable store of worker [k].  Each shard must be written by at
      most one domain at a time; the merged read view is not updated by
      writes (it is fixed at open). *)

  val shard_count : sharded -> int
  val sharded_dir : sharded -> string
  val sharded_digest : sharded -> string

  val sharded_load : sharded -> string -> Json.t option
  (** Look up a key in the merged view of all shards found at open time
      (ascending shard order, first shard holding the key wins).  Safe to
      call concurrently from any domain. *)

  val sharded_keys : sharded -> string list
  val sharded_item_count : sharded -> int
end

(** {1 The lifting supervisor} *)

(** Structured disposition of one supervised work item. *)
type outcome =
  | Proved  (** formal search concluded within budget (S, UR or FC) *)
  | Found_by_fallback
      (** formally FF, but seeded random search found a detecting case *)
  | Exhausted  (** FF and the fallback found nothing (or was disabled) *)
  | Failed of string  (** the item raised; isolated, not fatal to the run *)

val outcome_name : outcome -> string

(** Degradation-ladder knobs. *)
type ladder = {
  ld_fallback : bool;  (** run the random-search rung at all *)
  ld_suites : int;  (** random suites tried per timed-out variant *)
  ld_cases : int;  (** cases per suite (size-match of the Table-7 baseline) *)
  ld_seed : int;  (** base seed; per-item seeds derive deterministically *)
}

val default_ladder : ladder

type supervisor = {
  sv_budget_conflicts : int;  (** shared conflict budget across all items *)
  sv_wall_clock_s : float option;
  sv_slice : int;  (** first-pass per-pair conflict slice *)
  sv_escalation : int;  (** slice multiplier per escalation pass *)
  sv_max_passes : int;  (** formal passes, first pass included *)
  sv_ladder : ladder;
}

val default_supervisor : ?pairs:int -> Lift.config -> supervisor
(** Slice = the config's per-variant [max_conflicts]; total budget =
    slice x max(pairs, 1) (default [pairs] = 1); escalation x4, up to 3
    passes, default ladder. *)

(** One supervised work item: a unique violating register pair. *)
type item = {
  it_key : string;  (** stable identity, the checkpoint key *)
  it_start : string;  (** launching DFF instance name *)
  it_end : string;  (** capturing DFF instance name *)
  it_violation : Fault.violation_kind;
}

val items_of_pairs :
  Netlist.t -> (Sta.startpoint * Sta.endpoint * Sta.check * float) list -> item list
(** One item per {!Lift.register_pairs} entry of a violating-pairs
    listing, in order. *)

type item_report = {
  ir_item : item;
  ir_outcome : outcome;
  ir_result : Lift.pair_result option;
      (** the formal verdict; [None] only for an unattempted or [Failed]
          item *)
  ir_fallback_cases : Lift.test_case list;
      (** detecting cases recovered by the ladder (empty unless
          [Found_by_fallback]) *)
  ir_passes : int;  (** formal passes attempted *)
  ir_pass_conflicts : int list;  (** conflicts spent, one entry per pass *)
  ir_conflicts : int;  (** total conflicts spent on the item *)
  ir_bounds : (Fault.spec * int) list;
      (** deepest BMC bound proven per variant — the resume hints *)
}

type report = {
  rp_items : item_report list;  (** in input-item order *)
  rp_budget_total : int;
  rp_budget_spent : int;
  rp_escalations : int;  (** escalated re-runs performed *)
}

val supervised_lift :
  ?config:Lift.config ->
  ?supervisor:supervisor ->
  ?checkpoint:Checkpoint.t ->
  ?on_item:(int -> item_report -> unit) ->
  Lift.target ->
  item list ->
  report
(** Run Error Lifting over the items under supervision.

    Pass 1 gives every item a slice of [min sv_slice remaining] conflicts
    (via {!Lift.lift_pair_stats}'s whole-pair budget, so no item can spend
    more than its slice).  Items still FF are parked; escalation passes
    re-run parked items with slice x escalation^(pass-1) and the recorded
    BMC bounds as resume hints, while budget remains and the wall-clock
    deadline has not passed.  Items FF after the last pass go to the
    degradation ladder.  Every state change is checkpointed (when
    [checkpoint] is given) and [on_item] is called after each freshly
    computed item event — items satisfied from the checkpoint are silent,
    which is what makes resume-after-kill replay byte-identical.

    Determinism: with equal config, supervisor, items and checkpoint state,
    the report is a pure function — the wall-clock deadline is only
    consulted before starting an escalated re-run, never mid-item. *)

(** {1 Table-4-style accounting} *)

(** Classification refined by the supervisor outcome: the paper's FF bucket
    splits into fallback-covered vs. exhausted. *)
type split_class = R_S | R_UR | R_FF_covered | R_FF_exhausted | R_FC | R_failed

val split_classification : item_report -> split_class
val split_name : split_class -> string
val all_split_classes : split_class list

val split_counts : report -> (split_class * int) list
(** Tally over all items, in {!all_split_classes} order. *)

val render_report : report -> string
(** Deterministic text rendering: one line per item (classification,
    passes, conflicts, case count) plus the split tally and budget
    summary — the artifact diffed by the CI kill-and-resume job. *)

val suite_of_report : Lift.target -> report -> Lift.suite
(** All executable cases the supervised run produced — formally
    constructed ones first (in item order), then fallback-recovered
    ones. *)

(** {1 Checkpoint codecs} (exposed for {!Experiments} campaign rows) *)

val item_report_to_json : item_report -> Json.t
val item_report_of_json : item : item -> Json.t -> (item_report, string) result
(** The item identity is not trusted from the file: the caller supplies the
    [item] it expects under this key. *)
