(** The closed-loop runtime guard.

    The static pipeline (phases one and two) produces an aging-test suite
    for a functional unit and {!Integrate} splices it into an application.
    This module closes the loop at runtime:

    - {!Injector} models *mid-life fault onset*: the unit starts healthy
      and a fault-instrumented replica is swapped in once a scheduled
      retired-instruction count is reached (optionally intermittently,
      with a duty knob).  Aging faults appear gradually in the field —
      they are not present at reset — so detection latency has to be
      measured from an onset that the application does not observe.

    - {!Monitor} executes the application in bounded slices, interleaves
      test cases at an adaptive cadence (exponential backoff while
      healthy, burst re-testing after a hit), and applies a recovery
      policy on detection: failover to the golden backend,
      checkpoint/rollback with bounded retries, or abort.  A test case
      that stalls the machine ({!Machine.Stalled}) counts as a detection.

    Runs are deterministic given the machine's RNG seed — the property the
    fault-injection campaign in {!Experiments} relies on. *)

module Injector : sig
  type slot = Alu_slot | Fpu_slot

  type schedule = {
    onset_instr : int;
        (** retired-instruction count at which the fault appears *)
    duty : (int * int) option;
        (** [Some (on, period)]: after onset, active for [on] instructions
            out of every [period] (an intermittent fault); [None]:
            permanent once it appears *)
  }

  val permanent : int -> schedule
  (** [permanent n] — the fault appears at instruction [n] and stays. *)

  type t

  val create :
    machine:Machine.t ->
    slot:slot ->
    spec:Fault.spec ->
    schedule ->
    t
  (** Build the fault-instrumented replica of the targeted unit's netlist
      ({!Fault.failing_netlist}) without installing it.  If the unit
      carries canary monitors ({!Canary.has_canaries}), the replica is
      built from the {e armed} netlist: swapping it in is the moment the
      unit ages past the canary guardband, so the hardware trip channel
      and the functional fault onset coincide.  The replica is
      statically vetted before it can ever be armed: with its fault lines
      tied inactive ({!Fault.select_cells}, plus the canary arm cell when
      present) it must be CEC-equivalent to the golden netlist
      ({!Cec.check}), proving the instrumentation is inert while dormant.
      @raise Invalid_argument if the targeted unit runs on a functional
      backend (there is no netlist to instrument), or if the replica fails
      the equivalence gate. *)

  val tick : t -> unit
  (** Advance the schedule; swaps the faulty replica in or out when a
      transition is due.  Intended as (part of) the machine's [on_instr]
      hook.  Cheap when no transition is due. *)

  val disable : t -> unit
  (** Permanently retire the suspect unit onto the functional golden
      backend — the failover action.  Subsequent {!tick}s do nothing. *)

  val active : t -> bool
  (** The faulty replica is currently installed. *)

  val disabled : t -> bool

  val onset : t -> (int * int) option
  (** [(instructions, cycles)] of the first activation, once it happened. *)

  val spec : t -> Fault.spec
end

module Monitor : sig
  type policy =
    | Abort  (** stop the application on a confirmed detection *)
    | Failover
        (** swap the suspect unit to its functional golden backend and
            continue *)
    | Rollback_retry of { checkpoint_every : int; max_retries : int }
        (** checkpoint every [checkpoint_every] instructions (verified by a
            full-suite pass before being trusted); on detection, restore
            the last checkpoint and re-execute on the golden backend, at
            most [max_retries] times *)

  val policy_name : policy -> string

  type config = {
    cadence : int;  (** initial app instructions between test slices *)
    backoff : float;  (** cadence multiplier after each healthy slice *)
    max_cadence : int;
    burst : int;  (** full-suite confirmation sweeps after a first hit *)
    policy : policy;
    max_instructions : int;  (** forward-progress budget for the app *)
    final_sweep : bool;  (** run the full suite once more at app exit *)
    canary_poll : int option;
        (** [Some n]: poll the monitored unit's {!Canary.trip_port} every
            [n] app instructions — the hardware detection channel, live
            when the unit's netlist carries canaries ({!Canary.insert}).
            A poll is a register read (no test excursion, no machine-state
            change), so [n] is typically far below [cadence].  A trip is
            recorded as a ["__canary (trip 0x..)"] detection and feeds the
            same burst-confirmation and recovery path as a failing test.
            [None] (the default): channel off. *)
  }

  val default_config : config
  (** cadence 200, backoff 1.5, max_cadence 5000, burst 1, Failover,
      5M instructions, final sweep on, canary polling off. *)

  type detection = {
    det_id : string;  (** test-case id, with [" (stall)"] for watchdog hits *)
    det_instr : int;  (** app instructions retired at detection *)
    det_cycle : int;
    det_slice : int;  (** guard slices run before this detection *)
  }

  type verdict =
    | App_completed of Machine.outcome
        (** the app ran to its own end (possibly after recovery) *)
    | Guard_aborted of string
        (** the Abort policy, retry exhaustion, or an unrecoverable stall *)

  type report = {
    r_verdict : verdict;
    r_detections : detection list;  (** chronological *)
    r_onset : (int * int) option;  (** from the injector, when attached *)
    r_latency : (int * int) option;
        (** (instructions, cycles) from onset to first detection *)
    r_retries : int;  (** rollbacks performed *)
    r_recovered : bool;  (** a recovery action ran and the app continued *)
    r_app_instructions : int;
    r_app_cycles : int;
    r_guard_cycles : int;  (** cycles spent executing interleaved tests *)
    r_guard_slices : int;
    r_lost_cycles : int;  (** app cycles discarded by rollbacks *)
    r_lost_instructions : int;
    r_checkpoints : int;
    r_final_cadence : int;
    r_canary_polls : int;  (** trip-port reads performed *)
  }

  val run :
    ?config:config ->
    ?injector:Injector.t ->
    suite:Lift.suite ->
    Machine.t ->
    Isa.program ->
    report
  (** Execute [prog] from pc 0 under the guard loop.  The caller resets
      the machine (or not — execution is reset-free, like {!Machine.run}).
      With an [injector], its {!Injector.tick} runs on every retired app
      instruction (test-case excursions do not tick the schedule), and
      recovery retires the injected unit via {!Injector.disable}; without
      one, failover swaps the unit named by [suite]'s target to its
      functional backend.
      @raise Invalid_argument if [config] is degenerate: non-positive test
      cadence, canary poll cadence, instruction budget, or checkpoint
      interval (each would loop or re-fire on every instruction). *)

  val detected : report -> bool

  val render : report -> string
  (** Multi-line human-readable report. *)
end
