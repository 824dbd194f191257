(** The Vega workflow: the paper's three phases, end to end.

    {ol
    {- {!aging_analysis} — profile signal probabilities by running a
       representative workload on a CPU whose analyzed unit is the
       gate-level netlist, build the aging-aware timing library, run
       aging-aware STA at the unit's target clock (derived so the fresh
       design meets timing with a small margin, as a signed-off design
       would), and collect the violating paths and per-cell degradation.}
    {- {!error_lifting} — take the unique violating register pairs
       ({!Lift.register_pairs}) and run the formal construction of test
       cases for each ({!Lift.lift_violating_pairs}).}
    {- {!test_integration} — splice the resulting suite into an
       application with the profile-guided pass, or package it as the
       software aging library ({!Integrate}).}}

    {!run_workflow} chains all three for one functional unit. *)

type phase1_config = {
  years : float;  (** assumed service life (10, per the paper) *)
  clock_margin : float;
      (** target period = fresh critical path x this margin; below the
          minimum aging degradation so that aging can break timing *)
  derate : float;  (** pessimistic-corner multiplier on max delays *)
  clock_tree : Clock_tree.t;
  sp_fallback : float;  (** SP for units the workload never exercised *)
  max_violating_paths : int;
}

val default_phase1 : phase1_config
(** 10 years, 1.5 % margin, no extra derate, the two-domain gated clock
    tree (gated segment parked at SP 0.05, i.e. idling low and aging
    fastest), fallback SP 0.5. *)

(** {1 The phase-1 hand-off}

    Phase 1 hands phase 2 a target clock and, with static pruning, the
    {!Spbound} triage at its aging corner.  These are their only
    definitions: every command and campaign that times a unit "as phase 1
    would" calls them. *)

type clock = {
  fresh_timing : Sta.timing_source;
      (** unaged library delays at the configuration's [derate] and
          [clock_tree] *)
  critical_path_ps : float;  (** {!Sta.critical_path_ps} under [fresh_timing] *)
  period_ps : float;  (** the target clock: [critical_path_ps *. clock_margin] *)
}

val phase1_clock : phase1_config -> Netlist.t -> clock
(** The target clock {!aging_analysis} runs at, bit for bit
    ([analysis.clock_period_ps]); no simulation runs. *)

val static_triage :
  ?aglib:Aging.Timing_library.t ->
  phase1_config ->
  clock_period_ps:float ->
  Netlist.t ->
  Spbound.t * Spbound.pair_verdict list
(** {!Spbound.analyze} under the sound default assumptions, then
    {!Spbound.classify} at the configuration's aged corner ([years],
    [derate], [clock_tree]) and [clock_period_ps].  [aglib] defaults to
    the aging library of {!Cell.Library.c28}. *)

type analysis = {
  target : Lift.target;
  clock_period_ps : float;
  fresh_report : Sta.report;
  phase1 : phase1_config;  (** the configuration phase 1 ran with *)
  aged_timing : Sta.timing_source;
      (** the aged corner ([years], [derate], [clock_tree], profiled SP)
          the pair sweep timed *)
  violating_pairs : (Sta.startpoint * Sta.endpoint * Sta.check * float) list;
      (** exact violating register pairs ({!Sta.violating_pairs}),
          worst-slack first *)
  sp_of_net : Netlist.net -> float;
  cell_degradation : (string * float) list;
      (** per combinational cell: 10-year max-delay factor (Fig. 8 data) *)
  sp_samples : int;  (** profiling samples behind the SP data *)
  static_verdicts : Spbound.pair_verdict list option;
      (** the static triage that pruned this analysis ([Some] exactly when
          phase 1 ran with [~static_prune:true]): one {!Spbound} verdict
          per register pair and check.  [Safe] pairs were skipped by the
          sweep — soundness guarantees they cannot appear in
          [violating_pairs] — and [Critical] pairs are ordered first by
          {!lifting_items}/{!error_lifting}. *)
}

val aging_analysis :
  ?config:phase1_config ->
  ?static_prune:bool ->
  Lift.target ->
  workload:(Machine.t -> unit) ->
  analysis
(** Phase one.  [workload] drives a machine whose analyzed unit is the
    profiled gate-level netlist (e.g. run the minver kernel); the machine's
    other unit is functional.  The profile is read from that unit's
    {!Simc} simulator, pinned to lane 0, so it sees every unit cycle
    (inter-unit bubbles and drains included) exactly as a scalar {!Sim}
    would.
    The aged corner is swept pair by pair ({!Sta.violating_pairs}, the
    [vega.aged_sta] span); the capped path enumeration is not run here,
    since only its readers need it: see {!aged_report}.
    The target netlist is linted first ({!Check.lint_netlist});
    @raise Invalid_argument with the rendered report if it carries
    error-class defects.

    The target clock is {!phase1_clock}.
    With [static_prune] (default [false]), {!static_triage} triages every
    register pair before the aged sweep under the sound default
    assumptions (any workload): pairs it proves [Safe] are skipped by the
    pair sweep — which cannot change [violating_pairs], only the work to
    compute it — and verdict counts land on the [vega.spbound.*]
    telemetry counters.  The verdicts persist in
    {!analysis.static_verdicts}. *)

val aged_report : ?max_violating_paths:int -> analysis -> Sta.report
(** The aged STA report at the analysis's clock and aged corner
    ({!Sta.analyze} with {!analysis.aged_timing}), computed on demand
    under the [vega.aged_paths] span: endpoint slacks, WNS and up to
    [max_violating_paths] (default [phase1.max_violating_paths])
    enumerated violating paths.  Each call recomputes it; pass
    [~max_violating_paths:0] when only the slacks and WNS are read. *)

val recorded_unit_ops :
  Lift.target -> workload:(Machine.t -> unit) -> (string * Bitvec.t) list array
(** The per-operation input assignments the workload feeds the target unit
    (one entry per operation, in program order), recorded from a functional
    run via the machine's operation hooks — the stream {!replay_sp}
    consumes.  Exposed for differential testing and custom sweeps. *)

val replay_sp :
  Lift.target ->
  (string * Bitvec.t) list array ->
  (int * (Netlist.net -> float)) option
(** Replay an operation stream (recorded by {!recorded_unit_ops} or
    synthesized, e.g. by the adversarial stress search) into the target
    netlist and return [(samples, sp)] — the per-net signal probability
    the stream induces.  The stream is split across {!Simc}'s lanes, each
    lane warmed up for the unit's pipeline latency, so ones-counts are
    exact w.r.t. a sequential back-to-back replay; bubbles between unit
    operations are not modeled.  [None] on an empty stream.
    Deterministic: same stream, same profile. *)

val profile_sp :
  Lift.target -> workload:(Machine.t -> unit) -> (int * (Netlist.net -> float)) option
(** [profile_sp target ~workload] is
    [replay_sp target (recorded_unit_ops target ~workload)], bit for bit,
    without the per-operation lists: the operations are recorded straight
    into blocks of ints, so profiling a kernel of hundreds of thousands of
    unit operations holds a few words per operation. *)

val run_minver_workload : Machine.t -> unit
(** The default representative workload: the minver-style kernel is not
    available here (it lives in [vega_workload], which depends on this
    library's clients, not on it), so this drives the unit with a mixed
    arithmetic sweep approximating embench's operation mix.  Prefer passing
    a real {!Workload} kernel. *)

val error_lifting : ?config:Lift.config -> analysis -> Lift.pair_result list
(** Phase two, over the unique pairs of the aged STA report's violations,
    ordered hardest-to-test first by SCOAP testability
    ({!Testgen.scoap_ranked_pairs}) so the formal budget is spent on the
    paths random search cannot reach.  When the analysis carries static
    verdicts, statically-[Critical] pairs are front-loaded (SCOAP-ranked
    within each group, same pair set). *)

val lifting_items : analysis -> Resilience.item list
(** The phase-two work list (unique violating pairs, SCOAP-ranked,
    [Critical]-first when static verdicts are present) as supervisor
    items. *)

val error_lifting_supervised :
  ?config:Lift.config ->
  ?supervisor:Resilience.supervisor ->
  ?checkpoint:Resilience.Checkpoint.t ->
  ?on_item:(int -> Resilience.item_report -> unit) ->
  analysis ->
  Resilience.report
(** Phase two under {!Resilience.supervised_lift}: per-pair budget slices
    with adaptive escalation, the random-search degradation ladder for
    formally-FF pairs, and optional one-item-granular checkpoint/resume. *)

type workflow_report = {
  analysis : analysis;
  pair_results : Lift.pair_result list;
  suite : Lift.suite;
  suite_cycles : int;  (** healthy execution time of the full suite *)
}

val run_workflow :
  ?phase1:phase1_config ->
  ?phase2:Lift.config ->
  Lift.target ->
  workload:(Machine.t -> unit) ->
  workflow_report
(** Phases one and two plus suite assembly and timing: {!aging_analysis}
    then {!workflow_of_analysis}.  Phase three is application-specific:
    feed [report.suite] to {!Integrate}. *)

val workflow_of_analysis : ?phase2:Lift.config -> analysis -> workflow_report
(** The phase-2 half of {!run_workflow} on an existing phase-1 analysis:
    {!error_lifting}, the suite of its results and {!suite_cycles}.  One
    analysis can feed several phase-2 configurations. *)

val unit_config : Lift.module_kind -> Machine.config
(** The machine configuration for a unit: an ALU's word width is its own
    (binary16 FP format from 16 bits up, else the tiny one); an FPU's is
    at least 16 bits with the unit's format.  Every machine that runs a
    unit or its suite is configured here. *)

val machine_for : ?profile_units:bool -> ?rng_seed:int -> Lift.target -> Machine.t
(** A machine whose analyzed unit is the target's netlist (other unit
    functional), configured by {!unit_config}; [rng_seed] (default
    {!Machine.default_config}'s) drives C_random failing netlists. *)

val suite_cycles : Lift.suite -> int
(** Cycle count of one sequential execution of the suite on a healthy
    functional machine (Table 5's "Cycles"). *)

val classification_counts : Lift.pair_result list -> (Lift.classification * int) list
(** Tally of S/UR/FF/FC over pairs (Table 4's rows). *)

(** {1 Aging-aware netlist repair}

    Phase 1 evidence in, repaired netlist out: {!repair} runs
    {!aging_analysis} with static pruning, hands the violating pairs to
    {!Repair.run} (the CEC/STA-verified rewrite ladder), then re-scores
    the repaired netlist through both aged STA (with the repair pass's
    provenance-tracked SP view) and {!static_triage}, so the report
    can state the before/after violating-pair and verdict counts. *)

type repair_report = {
  rr_analysis : analysis;  (** the phase-1 run the repair consumed *)
  rr_result : Repair.result;
  rr_verdicts_before : int * int * int;
      (** {!Spbound} (safe, critical, unknown) on the original netlist *)
  rr_verdicts_after : int * int * int;  (** same triage, repaired netlist *)
  rr_violating_before : int;  (** aged violating pairs before repair *)
  rr_violating_after : int;  (** and on the repaired netlist *)
}

val repair :
  ?config:phase1_config ->
  ?repair_config:Repair.config ->
  ?checkpoint:Resilience.Checkpoint.t ->
  ?log:(string -> unit) ->
  Lift.target ->
  workload:(Machine.t -> unit) ->
  repair_report
(** End-to-end repair of one functional unit.  Deterministic for a fixed
    target, workload and configuration.  The checkpoint digest should be
    {!Repair.digest} of the repair configuration and target netlist.
    @raise Invalid_argument if the netlist fails error-class lint. *)

val render_repair : repair_report -> string
(** Deterministic, golden-diffable report: phase-1 header, before/after
    violating-pair and {!Spbound} verdict counts, then {!Repair.render}. *)
