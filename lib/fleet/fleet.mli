(** Fault-tolerant parallel execution over OCaml 5 domains.

    The fleet engine runs a list of keyed work items through a pool of
    domains and guarantees two properties that usually pull against each
    other:

    - {b scheduling independence}: every item carries its own seed,
      derived deterministically from the run seed and the item key, and
      the item function is required to be a pure function of (seed,
      payload).  Results are therefore bit-identical regardless of the
      domain count, work-stealing order, straggler re-dispatches, or
      kill/resume points — the QCheck property [--domains 1] ≡
      [--domains 8] in [test_fleet];
    - {b robustness}: a raising item is retried with exponential backoff
      and quarantined (not fatal) after the attempt budget; an item
      running past the soft timeout is re-dispatched to an idle worker
      (first writer wins); a failed [Domain.spawn] degrades the pool to
      fewer workers, down to serial execution in the calling domain.
      The run itself never crashes because of an item.

    Work distribution is a set of per-worker deques filled round-robin:
    a worker pops from the front of its own deque and steals from the
    back of the others when empty.  Completed items are persisted to a
    per-domain shard of a {!Resilience.Checkpoint.sharded} store (atomic
    tmp+rename discipline), so a SIGKILL at any point resumes with the
    same results; quarantine dispositions are checkpointed too, so a
    resume does not re-burn attempts on a poisoned item.

    Wall-clock-dependent facts (steal counts, re-dispatches, retry
    sleeps) are health metadata: they are reported in {!stats} and as
    merged {!Telemetry.Counter.snapshot}s, and deliberately kept out of
    the deterministic result array. *)

type config = {
  fl_domains : int;  (** worker domains (>= 1); 1 = serial in the caller *)
  fl_max_attempts : int;  (** attempts per item before quarantine (>= 1) *)
  fl_backoff_s : float;  (** first retry backoff; doubles per attempt *)
  fl_timeout_s : float option;
      (** soft per-item timeout: past it, idle workers re-dispatch a
          fresh execution of the item ([None] = never) *)
}

val default_config : config
(** 1 domain, 3 attempts, 0.05 s backoff, no timeout. *)

(** One work item: a stable key (the checkpoint identity) plus a
    payload. *)
type 'a task = { tk_key : string; tk_payload : 'a }

(** Structured disposition of one item.  Never an exception. *)
type outcome =
  | Completed  (** first execution (or checkpoint restore) succeeded *)
  | Retried of int  (** succeeded after this many failed attempts *)
  | Timed_out of int
      (** succeeded, but only after this many straggler re-dispatches *)
  | Quarantined of string
      (** every attempt raised; the final error, item value absent *)

val outcome_name : outcome -> string

type 'r item_result = {
  fr_key : string;
  fr_seed : int;  (** the derived per-item seed the run used *)
  fr_outcome : outcome;
  fr_value : 'r option;  (** [None] iff quarantined *)
  fr_attempts : int;  (** executions by the recording worker (0 = restored) *)
  fr_from_checkpoint : bool;
}

(** Pool health counters.  [st_items .. st_checkpoint_hits] are
    deterministic; [st_steals .. st_retry_sleeps] depend on wall-clock
    scheduling and must stay out of diffed output. *)
type stats = {
  st_domains : int;  (** workers actually running (after spawn failures) *)
  st_items : int;
  st_completed : int;
  st_retried : int;
  st_timed_out : int;
  st_quarantined : int;
  st_checkpoint_hits : int;
  st_steals : int;
  st_redispatches : int;
  st_retry_sleeps : int;
}

val derive_seed : int -> string -> int
(** [derive_seed run_seed key]: a stable nonnegative seed, a pure
    function of both arguments (digest-based, independent of the OCaml
    hash function's word size). *)

val run :
  ?config:config ->
  ?checkpoint:Resilience.Checkpoint.sharded ->
  ?log:(string -> unit) ->
  seed:int ->
  f:(seed:int -> 'a -> 'r) ->
  encode:('r -> Json.t) ->
  decode:(Json.t -> ('r, string) result) ->
  'a task list ->
  'r item_result array * stats
(** Execute every task; the result array is in task order.

    [f ~seed payload] must be a pure function of its arguments (that is
    the whole determinism argument) and must terminate; it may raise,
    which counts as a failed attempt.  [encode]/[decode] are the
    checkpoint codec for item values (a value that fails to decode on
    resume is treated as a miss and recomputed).  [log] receives
    human-readable health lines (quarantines, spawn degradation) and may
    be called from any worker; calls are serialized internally.

    Task keys must be unique. @raise Invalid_argument on a duplicate.

    When [checkpoint] is given, worker [k] persists its completions into
    shard [k mod shard_count]; restored items (including restored
    quarantine dispositions) are not re-executed. *)

val all_restored :
  Resilience.Checkpoint.sharded -> decode:(Json.t -> ('r, string) result) -> 'a task list -> bool
(** Whether {!run} with this checkpoint and codec would restore every task
    (a stored quarantine counts), so that it would execute none. *)

val tally_to_counters : stats -> Telemetry.Counter.snapshot list
(** The health counters as telemetry snapshots (name-sorted), the form
    in which per-run tallies aggregate across runs or machines with
    {!Telemetry.Counter.merge}. *)
