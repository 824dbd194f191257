(** Test Integration (the paper's phase three, Section 3.4).

    Two integration styles are provided, as in the paper:

    - {!Runner} and {!emit_c_library}: the *software aging library* — the
      generated test cases packaged for explicit invocation, with
      sequential or randomized scheduling, an exception-raising mode for
      languages with structured error handling, and a C-source rendering of
      the suite (inline-assembly style) as the distributable artifact;

    - {!profile}/{!plan_integration}/{!instrument}: *profile-guided test
      integration* — basic-block execution counts are collected on
      representative inputs, an integration point that is routinely but not
      hotly executed is chosen under an overhead budget (with
      every-Nth-invocation gating when even the coldest routine block would
      blow the budget), and the test cases are spliced into the compiled
      program with full register save/restore. *)

(** {1 Profiling} *)

type profile = (string * int) list
(** Basic-block label to invocation count, in block order. *)

val profile : Machine.t -> Minic.compiled -> profile
(** Run the program once on the given machine (reset first) with a
    block-entry counter attached to every basic block.
    @raise Invalid_argument if the program does not exit cleanly. *)

val dynamic_instructions : Minic.compiled -> profile -> int
(** Total dynamic instruction estimate: sum over blocks of
    [count * static size]. *)

(** {1 Planning} *)

type plan = {
  chosen_block : string;
  block_count : int;  (** invocations of the chosen block in the profile *)
  gate : int option;  (** run the tests every [2^k]-th invocation *)
  test_static_size : int;  (** instructions added, including save/restore *)
  estimated_overhead : float;
      (** predicted dynamic-instruction overhead fraction (the IR-count
          comparison of Section 3.4.2) *)
}

val plan_integration :
  ?overhead_threshold:float ->
  compiled:Minic.compiled ->
  profile:profile ->
  suite:Lift.suite ->
  unit ->
  plan
(** Choose the integration point: the most frequently invoked block whose
    estimated overhead stays below [overhead_threshold] (default 0.02);
    when every block is too hot, the coldest routinely-executed block is
    gated to every Nth invocation to meet the budget.
    @raise Invalid_argument if the profile has no executed block or the
    suite is empty. *)

(** {1 Instrumentation} *)

val instrument : compiled:Minic.compiled -> suite:Lift.suite -> plan:plan -> Isa.instr list
(** The program with the suite spliced in after the chosen block's label:
    registers used by the tests are saved to the reserved save area and
    restored afterwards; with [plan.gate], a counter in the reserved
    counter area skips all but every Nth invocation.  A detection handler
    ([ecall exit_sdc]) is appended. *)

(** {1 The software aging library} *)

val emit_c_library : ?name:string -> Lift.suite -> string
(** C source for the suite: one [static inline] function per test case in
    inline-assembly style with registers as named operands, plus
    [<name>_run_all] / [<name>_run_random] drivers and an optional
    exception-trampoline hook — the library artifact of Section 3.4.1. *)

module Runner : sig
  type strategy =
    | Sequential
    | Random_order of int  (** shuffle seed *)

  exception Sdc_detected of string
  (** Argument is the detecting test case's id. *)

  val run_case : Machine.t -> Lift.test_case -> (unit, Machine.outcome) result
  (** The one verdict of a test case, shared by every suite driver here,
      the guard's test excursions and the detection tables: reset the
      machine, run the case's standalone program (its instructions,
      [ecall exit_ok] on pass, [ecall exit_sdc] at the fail label) and
      pass on [exit_ok].  Any other outcome is a detection: another exit
      code is a caught SDC, [Stalled] or [Out_of_fuel] a stalled CPU.
      Neither snapshots nor restores the machine. *)

  val detection_id : Lift.test_case -> Machine.outcome -> string
  (** The id reported for a detection: the case's id, suffixed
      [" (stall)"] for [Stalled] and [" (no progress)"] for
      [Out_of_fuel]. *)

  val run_tests : Machine.t -> Lift.suite -> strategy -> (unit, string) result
  (** Execute the suite case by case on the machine; [Error id] identifies
      the first detecting case.  A stalled CPU also counts as a detection
      ([Error "<id> (stall)"]).  The machine's pre-existing architectural
      state (registers, memory, counters, unit pipelines) is snapshotted on
      entry and restored on exit, so a suite run is transparent to an
      application executing on the same machine.  If the pre-test drain
      itself wedges the FPU, that is reported as
      [Error "__pre-test drain (stall)"]. *)

  val run_tests_exn : Machine.t -> Lift.suite -> strategy -> unit
  (** Like {!run_tests} but raises {!Sdc_detected} — the exception-based
      reporting mode. *)

  val run_slice : Machine.t -> Lift.suite -> index:int -> (unit, string) result
  (** Run only the [index mod length]-th case — the rotating schedule for
      callers that amortize one case per invocation (keep a counter, call
      with [index], [index+1], ...; a full rotation covers the suite).
      State-preserving like {!run_tests}. *)
end
