(** Error Lifting: from aging-prone paths to software test cases
    (the paper's phase two, Sections 3.3.3–3.3.5).

    For a violating (startpoint, endpoint) register pair in the ALU or FPU,
    the lifter instruments the failure model and shadow replica
    ({!Fault.instrument_shadow}), runs the formal engine on the cover
    property, and translates each returned module-level waveform into a
    sequence of instructions — one operation per trace cycle, with golden
    expected results attached — via the per-module lookup tables that embody
    the "expert knowledge of the CPU's microarchitecture".

    Outcomes reproduce the paper's Table 4 taxonomy:
    - [S]: at least one executable test case was constructed;
    - [UR]: every variant was formally proven unable to cause an
      observable error (including faults that cannot reach any output);
    - [FF]: the formal tool exhausted its conflict budget;
    - [FC]: a waveform exists but is not convertible — the only observable
      divergence is a sticky status flag that the test's own earlier
      operations already raise, so no comparison can witness it
      (Section 5.2.2's FPU-only failure mode).

    Without the §3.3.4 mitigation, up to two variants are explored per pair
    (C = 0 and C = 1); with it, up to four (C x rising/falling edge). *)

type module_kind = Alu_module of { width : int } | Fpu_module of { fmt : Fpu_format.fmt }

type target = { kind : module_kind; netlist : Netlist.t }

val alu_target : ?width:int -> unit -> target
val fpu_target : ?fmt:Fpu_format.fmt -> unit -> target
val target_of_netlist : module_kind -> Netlist.t -> target
(** Wrap an existing (e.g. profiled) netlist of the right shape. *)

(** One operation of a test case, with its golden expectation. *)
type alu_step = { a_op : Alu.op; a_lhs : int; a_rhs : int; a_expected : int }

type fpu_step = {
  f_op : Fpu_format.op;
  f_lhs : int;
  f_rhs : int;
  f_expected : int;
  f_flags : Fpu_format.flags;
}

type body = Alu_test of alu_step list | Fpu_test of fpu_step list

type test_case = {
  tc_id : string;
  tc_spec : Fault.spec;
  tc_body : body;
  tc_may_stall : bool;
      (** the covered divergence includes the valid handshake: detection
          manifests as a CPU stall rather than a wrong value *)
  tc_checks_flags : bool;  (** the test compares the accumulated fflags CSR *)
}

val steps : test_case -> int

type variant_outcome =
  | Constructed of test_case
  | Proved_unreachable
  | Formal_timeout
  | Conversion_failed

type classification = S | UR | FF | FC

val classification_name : classification -> string

type pair_result = {
  start_dff : string;
  end_dff : string;
  violation : Fault.violation_kind;
  variants : (Fault.spec * variant_outcome) list;
  classification : classification;
  cases : test_case list;
}

type config = {
  mitigation : bool;  (** §3.3.4: edge-restricted activation variants *)
  max_conflicts : int;  (** formal budget per variant (the "FF" knob) *)
  max_cycles : int option;  (** BMC bound override *)
}

val default_config : config
(** mitigation off, 200_000 conflicts, automatic bound. *)

val assumes_for : target -> Netlist.t -> Formal.expr list
(** The input constraints every cover check of the target's instrumented
    netlists runs under: valid opcodes for the ALU, a valid-input handshake
    for the FPU. *)

val observed_divergences : Fault.instrumented -> Formal.Trace.t -> (string * int * int) list
(** [(port, bit, cycle)] for every output-port bit whose original and
    shadow values differ at a cycle of the trace, cycle by cycle, in
    [shadow_of] order.  Read from the trace's [observed] values, so the
    trace must come from a check with [~watch:inst.watch].  Exact: every
    net at every cycle of a trace is a function of its inputs and the reset
    state, and the check encoded all of them.  The test cases of
    {!lift_pair} are built from it. *)

val lift_pair :
  ?config:config ->
  target ->
  start_dff:string ->
  end_dff:string ->
  violation:Fault.violation_kind ->
  pair_result
(** Run Error Lifting for one unique endpoint pair. *)

(** Per-variant formal effort, for budget accounting and resume. *)
type variant_stats = {
  vs_spec : Fault.spec;
  vs_solver : Sat.stats;  (** solver effort actually spent on this variant *)
  vs_calls : int;  (** BMC bounds queried *)
  vs_deepest_bound : int;
      (** deepest bound proven unreachable — feed back via [resume] *)
}

type pair_stats = {
  p_variants : variant_stats list;  (** in variant order *)
  p_conflicts : int;  (** total conflicts spent on the pair *)
}

val lift_pair_stats :
  ?config:config ->
  ?budget:int ->
  ?resume:(Fault.spec * int) list ->
  target ->
  start_dff:string ->
  end_dff:string ->
  violation:Fault.violation_kind ->
  pair_result * pair_stats
(** Like {!lift_pair}, with effort reporting and supervisor hooks.

    [budget], when given, is a conflict cap for the {e whole pair} — each
    variant draws from what the previous ones left over — instead of the
    per-variant [config.max_conflicts].  The pair can never spend more than
    [budget] conflicts (the per-pair slice isolation of {!Resilience}).

    [resume] maps variant specs to the deepest BMC bound already proven
    unreachable for them (from [vs_deepest_bound] of an earlier timed-out
    attempt); those variants restart at bound+1 instead of bound 0. *)

(** {1 Fuzzing-based generation (the paper's §6.3 alternative)} *)

type fuzz_config = {
  budget_cycles : int;  (** random-stimulus budget per variant *)
  seed : int;
  fuzz_mitigation : bool;
}

val default_fuzz_config : fuzz_config
(** 2000 cycles, mitigation off. *)

val fuzz_pair :
  ?fuzz:fuzz_config ->
  target ->
  start_dff:string ->
  end_dff:string ->
  violation:Fault.violation_kind ->
  pair_result
(** Like {!lift_pair} but with random valid stimulus on the
    shadow-instrumented netlist instead of formal search, followed by a
    greedy trace shrink.  Fuzzing can never prove unreachability: a pair
    whose faults cannot influence any output still classifies [UR], but an
    exhausted budget classifies [FF] even when a formal proof would say
    [UR] — exactly the fuzzing/formal trade-off the paper discusses. *)

val decode_pair :
  Netlist.t ->
  Sta.startpoint * Sta.endpoint * Sta.check * float ->
  (string * string * Fault.violation_kind) option
(** One {!Sta.violating_pairs} entry as the fault model's
    [(start_dff, end_dff, violation)]; [None] for an input-launched entry,
    which has no register startpoint. *)

val register_pairs :
  Netlist.t ->
  (Sta.startpoint * Sta.endpoint * Sta.check * float) list ->
  (string * string * Fault.violation_kind) list
(** {!decode_pair} over a violating-pairs listing, keeping the first
    entry of each (startpoint, endpoint, check) — the worst, in a
    worst-first listing — and the listing's order. *)

val lift_violating_pairs :
  ?config:config ->
  target ->
  (Sta.startpoint * Sta.endpoint * Sta.check * float) list ->
  pair_result list
(** Lift each of the {!register_pairs} of a {!Sta.violating_pairs}
    listing. *)

(** {1 Rendering to instructions} *)

val case_instrs : fail_label:string -> test_case -> Isa.instr list
(** Instruction sequence for one test case: load operands, execute the
    steps back to back, then compare every result (and, when
    [tc_checks_flags], the accumulated fflags CSR) against the golden
    expectations, branching to [fail_label] on mismatch.  Uses registers
    x5-x31 / f0-f31; the caller provides the fail label. *)

type suite = { suite_target : module_kind; suite_cases : test_case list }

val suite_of_results : module_kind -> pair_result list -> suite

val suite_program : ?order:int list -> suite -> Isa.program
(** A standalone program running the whole suite (optionally in a custom
    order), exiting with {!Isa.exit_ok} or, on any detection,
    {!Isa.exit_sdc}. *)

val suite_instrs : ?order:int list -> ?label_prefix:string -> fail_label:string -> suite -> Isa.instr list
(** The suite as an embeddable instruction block (no ecalls), for Test
    Integration. *)

(** {1 Word-parallel netlist-level evaluation}

    Detection-rate evaluation on the unit netlist itself, without the
    instruction-set machine: each test case occupies one {!Sim64} lane,
    its operation stream replays back-to-back into the (failing) netlist,
    and every retired result is compared against the case's golden
    expectations — up to [Sim64.lanes] cases per sweep.  FPU cases
    additionally watch the valid handshake (a missing token is the stall
    the machine's watchdog would catch) and, when [tc_checks_flags], the
    accumulated sticky flags.  The machine-based run remains the reference
    semantics (it also sees inter-unit bubbles and branch-comparison
    corruption); this path is for large detection sweeps such as the
    random-suite baselines.

    Sweeps run on {!Sim64}: every sweep builds a simulator for a fresh
    faulty netlist and runs it for a few cycles, so the cheap compile
    matters more than {!Simc}'s faster dispatch. *)

val detected_cases : ?seed:int -> suite -> Netlist.t -> bool array
(** Per-case detection verdicts against [netlist] (typically a
    {!Fault.failing_netlist} of the suite's target).  [seed] drives the
    {!Fault.random_port} input when the netlist has one ([C_random]
    faults).
    @raise Invalid_argument if a case's body does not match the suite
    target or the netlist lacks the target's ports. *)

val detects : ?seed:int -> suite -> Netlist.t -> bool
(** Whether any case of the suite detects the fault. *)

val detection_rate : ?seed:int -> suite -> Netlist.t list -> float
(** Fraction of the given failing netlists detected by the suite.
    @raise Invalid_argument on an empty list. *)
