(** One driver per table and figure of the paper's evaluation.

    Every experiment returns structured rows plus a paper-style textual
    rendering; [bench/main.exe] prints them all.  The heavyweight shared
    state (the full ALU and FPU workflow runs) lives in a {!context},
    computed once and reused by Tables 3–7 and Fig. 9.

    Expected fidelity is *shape*, not absolute numbers (see DESIGN.md and
    EXPERIMENTS.md): who wins, rough magnitudes, where the crossovers are. *)

type config = {
  alu_width : int;
  fpu_fmt : Fpu_format.fmt;
  alu_margin : float;  (** phase-1 clock margin for the ALU *)
  fpu_margin : float;
  path_cap : int;  (** violating-path enumeration cap for Table 3 *)
  table7_runs : int;  (** random-suite repetitions (the paper uses 10) *)
  fig9_threshold : float;  (** overhead budget of profile-guided integration *)
  lift_max_conflicts : int;
}

val default_config : config
(** ALU32 @ 1.005 margin, binary16 FPU @ 1.046, 50k path cap, 10 runs. *)

val quick_config : config
(** A reduced configuration for fast smoke runs (fewer Table 7 runs, lower
    path cap). *)

type context

val make_context : ?config:config -> ?log:(string -> unit) -> unit -> context
(** Runs phases one and two for both units (with and without the §3.3.4
    mitigation).  [log] receives progress lines. *)

val context_config : context -> config
val alu_report : context -> Vega.workflow_report
val fpu_report : context -> Vega.workflow_report
val alu_report_mitigated : context -> Vega.workflow_report
val fpu_report_mitigated : context -> Vega.workflow_report

(** {1 Figure 4 — delay degradation of a XOR cell vs SP over 10 years} *)

type fig4 = { sp_series : (float * (float * float) list) list }
(** Per SP value: (years, % max-delay increase) samples. *)

val fig4 : unit -> fig4
val render_fig4 : fig4 -> string

(** {1 Table 1 — SP profile of the Section-3 example adder} *)

val table1 : unit -> (string * float) list
val render_table1 : (string * float) list -> string

(** {1 Table 2 — formal trace for the example's instrumented failure} *)

val table2 : unit -> Formal.Trace.t
val render_table2 : Formal.Trace.t -> string

(** {1 Figure 8 — distribution of aging-induced delay increase} *)

type fig8_bucket = { lo_pct : float; hi_pct : float; alu_frac : float; fpu_frac : float }

val fig8 : context -> fig8_bucket list
val render_fig8 : fig8_bucket list -> string

(** {1 Table 3 — aging-aware STA results} *)

type table3_row = {
  t3_unit : string;
  setup_wns_ps : float;
  setup_paths : int;
  setup_paths_capped : bool;
  hold_wns_ps : float;
  hold_paths : int;
  unique_pairs : int;
}

val table3 : context -> table3_row list
val render_table3 : table3_row list -> string

(** {1 Table 4 — test-case construction outcomes} *)

type table4_row = {
  t4_unit : string;
  without : (Lift.classification * float) list;  (** percentages over pairs *)
  with_mitigation : (Lift.classification * float) list;
}

val table4 : context -> table4_row list
val render_table4 : table4_row list -> string

(** Table 4 under the {!Resilience} supervisor: lifting re-run with a
    deliberately small per-pair conflict slice, so the FF bucket the paper
    reports appears and the degradation ladder splits it into
    fallback-covered vs. truly exhausted pairs. *)
type table4s_row = {
  t4s_unit : string;
  t4s_counts : (Resilience.split_class * int) list;
  t4s_budget_spent : int;
  t4s_escalations : int;
}

val table4_resilient : ?slice:int -> context -> table4s_row list
(** [slice] (default 2 conflicts — starvation level, so the FF bucket
    actually appears) is the first-pass per-pair budget. *)

val render_table4_resilient : table4s_row list -> string

(** {1 Table 5 — suite sizes and execution cycles} *)

type table5_row = {
  t5_unit : string;
  cases_without : int;
  cycles_without : int;
  cases_with : int;
  cycles_with : int;
}

val table5 : context -> table5_row list
val render_table5 : table5_row list -> string

(** {1 Table 6 — detection quality against failing netlists} *)

type fm = FM0 | FM1 | FMR

val fm_name : fm -> string

type table6_row = {
  t6_unit : string;
  t6_fm : fm;
  t6_mitigated : bool;
  detected_pct : float;
  before_pct : float;  (** "B": found by an earlier test than its own *)
  late_pct : float;  (** "L": missed by its own test, found later *)
  stall_pct : float;  (** "S": detected as a CPU stall *)
}

val table6 : context -> table6_row list
val render_table6 : table6_row list -> string

(** {1 Table 7 — Vega vs random test suites} *)

type table7_row = { t7_unit : string; t7_fm : fm; vega_pct : float; random_pct : float }

val table7 : context -> table7_row list
val render_table7 : table7_row list -> string

(** {1 Figure 9 — overhead of profile-guided test integration} *)

type fig9_row = {
  bench_name : string;
  baseline_cycles : int;
  overhead_without_pct : float;  (** "-N": suite built without mitigation *)
  overhead_with_pct : float;  (** "-M": suite built with mitigation *)
  chosen_block : string;
  gated : bool;
}

val fig9 : context -> fig9_row list
val render_fig9 : fig9_row list -> string

val fig9_mean_overheads : fig9_row list -> float * float
(** Mean (-N, -M) overhead percentages across benchmarks. *)

(** {1 Guard campaign — runtime fault-injection under the closed loop}

    The runtime extension of Table 6: each selected phase-2 fault spec is
    injected {e mid-run} ({!Guard.Injector}) into kernels executing under
    {!Guard.Monitor}, once per recovery policy plus an unguarded baseline,
    tabulating detection latency, SDC escape rate, recovery success, and
    guard overhead.  Fully deterministic for a fixed seed.

    The guard and the attack campaign share one fault-injection driver.
    Per kernel it makes the golden functional run (checksum, fault onset,
    fuel); per (kernel, spec, constant) item it runs the kernel unguarded
    and then once per {e mode} — a row label and a {!Guard.Monitor.config}
    — each on a fresh machine with the fault injected at onset.  The
    guard campaign's modes are its three recovery policies; the attack
    campaign's are ["sw-only"] and ["sw+canary"], which differ only in
    [canary_poll].  Items run through {!Fleet.run} on one domain with one
    attempt, so an item that raises makes the campaign raise [Failure]
    naming the item.

    Both campaigns checkpoint into a {!Resilience.Checkpoint.sharded}
    store (one shard suffices): one entry per item, plus the single values
    each campaign computes once (the lifting selections, the attack
    corner) in shard 0. *)

type campaign_config = {
  cg_width : int;
  cg_fmt : Fpu_format.fmt;
  cg_kernels : string list;  (** [[]] = every [Workload.all] kernel *)
  cg_specs_per_unit : int;
      (** lift worst-slack violating pairs until this many yield cases *)
  cg_constants : Fault.constant list;  (** failure models per spec *)
  cg_onset_frac : float;
      (** fault onset as a fraction of the kernel's golden instruction
          count *)
  cg_seed : int;  (** machine RNG seed (C_random faults, shuffles) *)
  cg_guard : Guard.Monitor.config;  (** policy field overridden per mode *)
  cg_checkpoint_every : int;
  cg_max_retries : int;
}

val default_campaign : campaign_config
(** Every kernel, every phase-2 spec, all three failure models — the full
    sweep (slow). *)

val quick_campaign : campaign_config
(** crc + nbody, two specs per unit, C=0 and C=1 — the CI smoke
    configuration (C=0 faults tend to corrupt silently, C=1 faults tend
    to hang loops). *)

type campaign_row = {
  cr_kernel : string;
  cr_unit : string;
  cr_spec : string;
  cr_mode : string;
      (** "unguarded" or the mode: "abort", "failover", "rollback" (guard
          campaign), "sw-only", "sw+canary" (attack campaign) *)
  cr_outcome : string;
  cr_detected : bool;
  cr_detected_by : string;
      (** channel of the first detection: "canary", "test", "watchdog" or
          "-" *)
  cr_latency : (int * int) option;
      (** (instructions, cycles) from fault onset to first detection *)
  cr_checksum_ok : bool;  (** final checksum matches the golden run *)
  cr_escape : bool;
      (** silent corruption: clean exit, checksum mismatch, no detection *)
  cr_recovered : bool;
  cr_retries : int;
  cr_polls : int;  (** canary trip-port reads the guard performed *)
  cr_overhead_pct : float;  (** guard cycles as % of app cycles *)
}
(** One run of the fault-injection driver, in either campaign.  Each
    renderer prints only its own campaign's columns. *)

val campaign_digest : campaign_config -> string
(** Staleness key for campaign checkpoints: any knob that changes the rows
    changes the digest. *)

val campaign_row_to_json : campaign_row -> Json.t
val campaign_row_of_json : Json.t -> (campaign_row, string) result

val campaign :
  ?config:campaign_config ->
  ?log:(string -> unit) ->
  ?checkpoint:Resilience.Checkpoint.sharded ->
  unit ->
  campaign_row list
(** [checkpoint] (opened against {!campaign_digest}) makes the sweep
    resumable at two granularities: each unit's error-lifting selection
    (["lift~ALU"], ["lift~FPU"]), and each fault spec's four runs
    (unguarded + three policies) per kernel.  Completed items are
    restored instead of re-executed; the row list is identical either
    way. *)

type campaign_summary = {
  cs_rows : int;
  cs_unguarded_rows : int;
  cs_unguarded_escapes : int;
  cs_guarded_rows : int;
  cs_guarded_escapes : int;
  cs_guarded_detected : int;
  cs_rollback_rows : int;
  cs_rollback_checksum_ok : int;
}

val campaign_summary : campaign_row list -> campaign_summary
val render_campaign : campaign_row list -> string

(** {1 Adversarial wearout campaign — attack-aged corners and canary monitors}

    The robustness counterpart of the guard campaign: an adversarial
    workload ({!Attack.search}) ages the ALU's worst paths past the
    violating corner early, and the guard's canary poll channel
    ({!Canary}, {!Guard.Monitor}) is measured against the software-only
    test schedule at the resulting attack-aged corner.  Fully
    deterministic for a fixed configuration. *)

type attack_campaign_config = {
  ak_width : int;  (** ALU width; the campaign's single target unit *)
  ak_kernels : string list;  (** [[]] = every [Workload.all] kernel *)
  ak_specs : int;  (** fault specs lifted from the attack-aged corner *)
  ak_constants : Fault.constant list;
  ak_onset_frac : float;
  ak_seed : int;  (** machine RNG seed for the guard phase *)
  ak_attack : Attack.config;  (** search budget and seed *)
  ak_cells : string list;  (** [[]] = {!Attack.default_targets} *)
  ak_years_max : float;  (** TTV bisection horizon *)
  ak_ttv_precision : float;
  ak_canary_count : int;
  ak_canary_pessimism : float;  (** canary guardband (see {!Canary.plan}) *)
  ak_canary_poll : int;  (** trip-port poll cadence (app instructions) *)
  ak_guard : Guard.Monitor.config;
}

val default_attack_campaign : attack_campaign_config
(** Width-16 ALU, every kernel, two specs, C=0 and C=1, a 48-op/24-iter
    search — the full sweep. *)

val quick_attack_campaign : attack_campaign_config
(** crc only, one spec, C=0, a 32-op/12-iter search — the CI smoke
    configuration. *)

val attack_campaign_cells : ?netlist:Netlist.t -> attack_campaign_config -> string list
(** The resolved victim-cell set ([ak_cells], or {!Attack.default_targets}
    of the configured ALU — or of [netlist] when given — when empty) —
    the set the digest commits to. *)

val attack_campaign_digest : ?netlist:Netlist.t -> attack_campaign_config -> string
(** Staleness key for attack-campaign checkpoints.  Commits to the
    resolved target-cell set, the search seed and budget, the corner
    parameters (horizon, precision, canary guardband and poll cadence),
    the guard knobs and the substituted [netlist] (e.g. a
    {!Repair}-hardened ALU) when given — any change invalidates a
    resume. *)

type attack_corner = {
  ac_ops : (string * Bitvec.t) list array;  (** the winning attack stream *)
  ac_cells : Attack.cell_stress list;  (** per-victim SP shift *)
  ac_baseline_obj : float;  (** stress-duty objective, random baseline *)
  ac_attacked_obj : float;  (** stress-duty objective, winning stream *)
  ac_evals : int;
  ac_sat_patterns : int;
  ac_samples : int;
  ac_fresh_crit_ps : float;
  ac_clock_period_ps : float;
      (** guard clock: halfway between the fresh critical path and the
          fully-attacked arrival, so fresh timing closes and the attacked
          corner violates within the horizon *)
  ac_ttv_nominal : float option;  (** [None]: clean at the horizon *)
  ac_ttv_attack : float option;
  ac_acceleration : float option;  (** ttv nominal / ttv attack *)
}
(** The attack corner: the stress search and the time-to-violation
    bisections, checkpointed as one value. *)

type attack_report = {
  ap_corner : attack_corner;
  ap_canaries : Canary.canary list;
  ap_rows : campaign_row list;  (** [cr_unit] is always ["ALU"] *)
}

val attack_campaign :
  ?config:attack_campaign_config ->
  ?netlist:Netlist.t ->
  ?log:(string -> unit) ->
  ?checkpoint:Resilience.Checkpoint.sharded ->
  unit ->
  attack_report
(** Run the campaign: search, TTV bisection under the attacked and the
    nominal (minver-workload) corners, canary insertion
    (CEC-proved inert via {!Canary.verify} — the campaign aborts on a
    failing proof), error lifting at the attack-aged corner, then the
    guard comparison (unguarded / software-tests-only / software+canary)
    per kernel and fault spec.  [checkpoint] (opened against
    {!attack_campaign_digest}) makes it resumable at three granularities:
    the attack corner (["corner"]: search + bisections), the lifting
    selection (["lift"]), and each fault spec's three runs per kernel.
    @raise Failure if a golden kernel run or the canary proof fails. *)

type attack_summary = {
  as_unguarded_rows : int;
  as_unguarded_escapes : int;
  as_sw_rows : int;
  as_sw_detected : int;
  as_sw_escapes : int;
  as_canary_rows : int;
  as_canary_detected : int;
  as_canary_escapes : int;
  as_canary_first : int;
      (** sw+canary rows whose first detection was the trip port *)
  as_latency_pairs : int;
      (** (kernel, spec) pairs with a latency in both guarded modes *)
  as_canary_wins : int;
      (** pairs where the canary latency <= the software-test latency *)
}

val attack_summary : campaign_row list -> attack_summary

val render_attack_campaign : ?years_max:float -> attack_report -> string
(** Deterministic table (the CI-diffed artifact); [years_max] (default
    30) only affects how a clean-at-horizon TTV prints. *)

(** {1 Fleet campaign — a device population through the domain pool}

    N devices, each with a seeded (temperature, Vdd, workload-kernel)
    aging corner, all shipping the one deployed test suite — lifted at
    the worst fleet corner (hottest, highest Vdd, full service life),
    because a fleet ships one test binary.  Per device: find the lifetime-grid onset of timing
    violations under its corner, inject the capture faults at the onset
    pair, and check detection by the deployed suite.  Devices run
    through {!Fleet.run}, so rows are bit-identical across domain
    counts and kill/resume, and a persistently failing device is
    quarantined rather than fatal. *)

type fleet_config = {
  fd_width : int;  (** ALU width of the analyzed unit *)
  fd_devices : int;  (** population size *)
  fd_seed : int;  (** master seed: corners and per-device item seeds *)
  fd_margin : float;  (** clock margin of the shared phase-1 analysis *)
  fd_specs : int;  (** violating pairs lifted into the deployed suite *)
  fd_constants : Fault.constant list;  (** capture constants injected *)
  fd_years_max : float;
  fd_year_steps : int;  (** lifetime grid: step i = i/steps * years_max *)
  fd_temp_min_k : float;  (** corner distribution bounds *)
  fd_temp_max_k : float;
  fd_vdd_min : float;
  fd_vdd_max : float;
  fd_kernels : string list;  (** workload pool ([[]] = all benchmarks) *)
  fd_poison : int list;  (** device ids forced to fail (quarantine drill) *)
  fd_max_attempts : int;  (** fleet retry budget per device *)
  fd_timeout_s : float option;  (** fleet soft per-device timeout *)
}

val default_fleet : fleet_config
(** 64 devices, alu16, 4 specs, 10 lifetime steps over 10
    years, T in 330..420 K, Vdd in 0.9..1.1, all kernels. *)

val quick_fleet : fleet_config
(** 24 devices, alu8, 2 specs, 8 steps, 3 kernels — the CI smoke size. *)

type device_corner = {
  dc_device : int;
  dc_temp_k : float;
  dc_vdd : float;
  dc_kernel : string;
}

val fleet_corners : fleet_config -> device_corner list
(** The seeded corner draw: deterministic in (seed, device id),
    independent of the device count. *)

type fleet_row = {
  dv_device : int;
  dv_temp_k : float;
  dv_vdd : float;
  dv_kernel : string;
  dv_onset_idx : int option;
      (** first violating lifetime-grid index (1-based); [None] = clean
          at horizon *)
  dv_worst_pair : string;  (** "start~end~violation", or "-" *)
  dv_specs : int;  (** fault specs injected at the onset pair *)
  dv_detected : int;  (** specs the deployed suite detects *)
  dv_escape : bool;  (** some injected corruption escapes the suite *)
  dv_latency_cycles : int option;
      (** worst detection latency over detected specs, in deployed-suite
          cycles from suite start *)
}

val fleet_years : fleet_config -> int -> float
(** Years at lifetime-grid index [i]. *)

val fleet_digest : ?netlist:Netlist.t -> fleet_config -> string
(** Checkpoint digest; deliberately excludes the domain count and the
    retry/timeout knobs, so a run killed at [--domains 4] resumes at
    [--domains 1].  Commits to the substituted [netlist] when given. *)

val fleet_row_to_json : fleet_row -> Json.t
val fleet_row_of_json : Json.t -> (fleet_row, string) result

val fleet_eval :
  config:fleet_config ->
  clock_period_ps:float ->
  nl:Netlist.t ->
  sp_by_kernel:(string * (Netlist.net -> float)) list ->
  suite:Lift.suite ->
  case_prefix_cycles:int array ->
  seed:int ->
  device_corner ->
  fleet_row
(** One device's evaluation — a pure function of (seed, corner) and the
    shared read-only context; raises on a poisoned device.  Exposed for
    the determinism tests. *)

type fleet_point = {
  fp_years : float;
  fp_violated : int;  (** devices whose onset is at or before this year *)
  fp_detected : int;  (** of those, fully detected by the suite *)
  fp_escaped : int;
  fp_mean_latency : float option;  (** mean latency over detected devices *)
}

type fleet_report = {
  fe_config : fleet_config;
  fe_clock_period_ps : float;
  fe_suite_cases : int;
  fe_results : (device_corner * (fleet_row, string) result) list;
      (** device order; [Error] is the quarantine message *)
  fe_curve : fleet_point list;  (** one point per lifetime-grid step *)
  fe_stats : Fleet.stats;
}

val fleet_campaign :
  ?config:fleet_config ->
  ?netlist:Netlist.t ->
  ?domains:int ->
  ?log:(string -> unit) ->
  ?checkpoint:Resilience.Checkpoint.sharded ->
  unit ->
  fleet_report
(** Run the population.  Rows and curve are bit-identical for any
    [domains] >= 1 and across kill/resume against the same sharded
    checkpoint (open it with {!fleet_digest}); only [fe_stats] may
    differ.  The deployed suite is checkpointed in shard 0 under
    ["fleet~lift"].  [netlist] substitutes a pre-repaired ALU netlist
    (see {!Vega.repair}) for the stock one — ports and register names
    must match the configured width. *)

val render_fleet : fleet_report -> string
(** Deterministic rendering (per-device rows, population curve,
    summary).  Wall-clock health — steals, re-dispatches, checkpoint
    hits — is deliberately absent: CI diffs this output across domain
    counts and kill/resume. *)

(** {1 Everything} *)

val run_all : ?config:config -> ?log:(string -> unit) -> unit -> string
(** Regenerate every table and figure; returns the full report text. *)
