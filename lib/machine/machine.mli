(** The instruction-set simulator (ISS) of the analyzed CPU.

    Executes {!Isa.program}s on a machine whose ALU and FPU are pluggable:

    - *functional* backends compute with the golden models ({!Alu.golden},
      {!Softfloat}) — the reference CPU;
    - *netlist* backends drive gate-level netlists (healthy or
      fault-instrumented) through the compiled {!Simc} simulator, exactly
      as the paper swaps the placed-and-routed ALU/FPU into the Verilator
      model.

    Netlist units are modeled as genuine 2-stage pipelines with interlocks:
    issuing an operation steps the netlist once (retiring the previous
    operation at the same clock edge), and a bubble is inserted only on a
    register hazard or when a non-unit instruction needs the result.  This
    preserves the cycle-adjacent input transitions that Eq. (2)/(3) failure
    models key on, so generated test cases observe faults just as they
    would on real pipelined hardware.  A watchdog detects the
    valid-handshake stalls of Table 6's "S" outcomes.

    Cycle accounting uses a fixed per-instruction cost model (independent
    of backend) so that overhead comparisons are deterministic. *)

type alu_backend = Alu_functional | Alu_netlist of Netlist.t
type fpu_backend = Fpu_functional | Fpu_netlist of Netlist.t

val make_unit_sim : ?profile:bool -> Netlist.t -> Simc.t
(** The simulator behind a netlist unit.  A unit drives the same stimulus
    on every lane, reads lane 0 and pins its profile mask to lane 0, so it
    is observationally a scalar {!Sim}: same values, and with [profile]
    (default false) the same SP/toggle counters.  The runtime guard builds
    its fault-instrumented replicas with this. *)

type config = {
  width : int;  (** integer register width; must match the ALU netlist *)
  fmt : Fpu_format.fmt;  (** FP format; width must not exceed [width] *)
  mem_words : int;
  fpu_watchdog : int;
      (** extra cycles to wait for the FPU valid handshake before declaring
          a stall *)
  rng_seed : int;  (** drives the [c_fault] port of C_random failing netlists *)
}

val default_config : config
(** width 16, binary16, 4096 memory words, watchdog 64. *)

type outcome =
  | Exited of int  (** [Ecall code] reached *)
  | Stalled  (** FPU handshake never became valid (watchdog expired) *)
  | Out_of_fuel  (** instruction budget exhausted *)

val pp_outcome : Format.formatter -> outcome -> unit

exception Stall_detected
(** Raised out of {!snapshot} and the backend-swap functions when draining
    an in-flight FPU operation trips the watchdog (the unit is wedged).
    {!run} and {!run_slice} catch it internally and report [Stalled]. *)

type t

val create :
  ?config:config ->
  ?profile_units:bool ->
  ?on_alu_op:(Alu.op -> Bitvec.t -> Bitvec.t -> unit) ->
  ?on_fpu_op:(Fpu_format.op -> Bitvec.t -> Bitvec.t -> unit) ->
  alu:alu_backend ->
  fpu:fpu_backend ->
  unit ->
  t
(** @raise Invalid_argument if a netlist backend's ports do not match the
    configured width/format.  With [profile_units], netlist units carry
    signal-probability counters (see {!alu_sim}/{!fpu_sim}) — the Signal
    Probability Simulation hookup of phase one.

    [on_alu_op]/[on_fpu_op] observe every operation entering the
    corresponding unit — including the branch comparisons the machine
    routes through the ALU — regardless of backend.  They let a functional
    run record the exact unit operation stream that a netlist-backed run
    would execute ({!Vega.recorded_unit_ops}). *)

val config : t -> config

val reset : t -> unit
(** Clear registers, memory, flags, cycle counters, and reset the netlist
    units. *)

val run : ?max_instructions:int -> ?on_instr:(int -> unit) -> t -> Isa.program -> outcome
(** Reset-free execution from instruction 0 (call {!reset} first for a cold
    start); [max_instructions] defaults to 1_000_000.  [on_instr] observes
    every executed instruction index (the hook behind basic-block
    profiling). *)

val cycles : t -> int
val instructions_retired : t -> int

(** Retired-instruction mix, for workload characterization (which
    operations the representative workload exercises — the context behind
    a unit's SP profile). *)
type op_stats = {
  alu_ops : (Alu.op * int) list;  (** only ops that occurred *)
  fpu_ops : (Fpu_format.op * int) list;
  loads : int;
  stores : int;
  branches : int;
  branches_taken : int;
  jumps : int;
  moves : int;
  other : int;
}

val op_stats : t -> op_stats

val reg : t -> int -> Bitvec.t
val set_reg : t -> int -> Bitvec.t -> unit
val freg : t -> int -> Bitvec.t
val set_freg : t -> int -> Bitvec.t -> unit
val fflags : t -> Fpu_format.flags
val mem : t -> int -> Bitvec.t
val set_mem : t -> int -> Bitvec.t -> unit

val alu_sim : t -> Simc.t option
(** The simulator behind a netlist ALU backend (for SP profiling, canary
    polling and replica swaps); [None] for the functional backend. *)

val fpu_sim : t -> Simc.t option

val alu_functional : t -> bool
(** Whether the ALU currently runs on the functional golden backend. *)

val fpu_functional : t -> bool

(** {1 Sliced execution}

    The runtime guard executes an application in bounded slices so test
    cases can be interleaved at a configurable cadence, then resumes the
    program exactly where it paused. *)

type slice_outcome =
  | Paused of int
      (** budget exhausted; resume from this pc.  In-flight unit operations
          are drained, so the machine state at the pause is architectural. *)
  | Completed of outcome

val run_slice :
  ?on_instr:(int -> unit) -> pc:int -> budget:int -> t -> Isa.program -> slice_outcome
(** Execute at most [budget] instructions starting at [pc].  A drain that
    wedges at the pause point surfaces as [Completed Stalled] (the
    watchdog outcome).  [run] is equivalent to [run_slice ~pc:0] with
    [Paused _] mapped to [Out_of_fuel]. *)

(** {1 Mid-run backend swapping}

    Support for mid-life fault onset and failover recovery: the guard flips
    a unit between a golden and a fault-instrumented replica while the
    application is running. *)

val swap_alu_unit : t -> Simc.t option -> Simc.t option
(** [swap_alu_unit t sim] installs [sim] as the ALU backend ([None] =
    functional golden backend) and returns the displaced simulator with its
    state intact, so it can be re-installed later without a recompile.
    The in-flight operation is drained first (which may raise
    [Stall_detected]), keeping the architectural state consistent.
    @raise Invalid_argument if the new netlist's width does not match. *)

val swap_fpu_unit : t -> Simc.t option -> Simc.t option

(** {1 Architectural snapshots}

    Checkpoint/rollback support for the recovery policies of the runtime
    guard. *)

type snapshot

val snapshot : t -> snapshot
(** Drain in-flight unit operations (may raise [Stall_detected]), then
    capture the complete machine state: registers, memory, flags,
    cycle/instruction/op-mix counters, RNG state, and the gate-level state
    of any netlist units. *)

val restore : t -> snapshot -> unit
(** Rewind to a snapshot.  Execution after [restore] is bit-identical to
    execution after the snapshot was taken.  If a unit backend was swapped
    since the snapshot (recovery onto a golden unit), the architectural
    state is still restored exactly and the incompatible unit simulator is
    reset instead. *)
