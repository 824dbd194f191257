(** Cycle-accurate two-valued gate-level simulation.

    The simulator evaluates a {!Netlist.t} one clock cycle at a time:
    combinational cells settle in topological order, then the clock edge
    samples every DFF's [D] pin.  It is the reference model: the
    differential tests check {!Sim64} and {!Simc} against it, and formal
    counterexample traces replay on it.  Production runs use {!Simc}
    (machine units, SP profiles) and {!Sim64} (detection sweeps).

    Signal-probability counters can be attached to every cell output — the
    instrumentation of Section 3.2.1.  The counters are sampled once per
    {!step}, after combinational settling and before the clock edge, i.e.
    they observe the value each net holds during the cycle (the counters'
    "free-running clock" keeps sampling even when {!hold_clock} suppresses
    the circuit's own edge). *)

type t

val create : ?profile:bool -> Netlist.t -> t
(** Fresh simulator in the reset state.  With [profile] (default false), SP
    counters are attached to every net. *)

val netlist : t -> Netlist.t

val reset : t -> unit
(** Reset: every DFF returns to its reset value, the cycle counter and SP
    counters restart, inputs are cleared to zero. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Drive a primary input port.  Width must match the port.
    @raise Invalid_argument otherwise. *)

val set_input_bit : t -> string -> int -> bool -> unit

val settle : t -> unit
(** Propagate the current input and register values through the
    combinational logic (no clock edge). *)

val step : ?sample:bool -> t -> unit
(** One full clock cycle: settle, sample SP counters, clock edge (DFFs
    capture), settle again so outputs reflect the post-edge state.
    [~sample:false] suppresses the SP/toggle sampling for this cycle (the
    cycle neither counts toward the totals nor updates the toggle-reference
    values) — used for pipeline warm-up cycles that should not pollute a
    profile. *)

val hold_clock : t -> unit
(** Like {!step} but with the circuit clock gated off: combinational logic
    settles, SP counters sample, no DFF captures.  Models profiling during
    clock-gated periods. *)

val cycle : t -> int
(** Number of clock edges since the last reset. *)

val net : t -> Netlist.net -> bool
(** Current value of a net (after the last settle). *)

val output : t -> string -> Bitvec.t
(** Current value of an output port. *)

val input_value : t -> string -> Bitvec.t
(** Value currently driven on an input port. *)

val peek_cell : t -> string -> bool
(** Current output value of the named cell. *)

(** {1 Signal-probability profiling} *)

val sp : t -> Netlist.net -> float
(** Fraction of sampled cycles in which the net held logical "1".
    @raise Invalid_argument if the simulator was created without
    [~profile:true] or no cycle has been sampled yet. *)

val sp_of_cell : t -> string -> float
(** SP of the named cell's output. *)

val sp_profile : t -> (string * float) list
(** SP of every cell output, by instance name, in cell order. *)

val toggle_rate : t -> Netlist.net -> float
(** Transitions per sampled cycle of the net, in [[0, 1]] — the switching
    activity that drives interconnect current density in the
    electromigration extension.
    @raise Invalid_argument without [~profile:true] or before any sample. *)

val samples : t -> int

(** {1 State snapshots} *)

type snapshot
(** A full copy of the simulator's state: every net value, the cycle
    counter, and (when profiling) the SP/toggle counters.  Backs the
    machine-level checkpoint/rollback API of the runtime guard. *)

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Rewind the simulator to a previously captured snapshot.  Execution
    after [restore t s] is bit-identical to execution after [snapshot t]
    returned [s].
    @raise Invalid_argument if the snapshot was taken on a netlist with a
    different net count. *)

(** {1 Batch driving} *)

val run :
  t -> cycles:int -> stimulus:(int -> (string * Bitvec.t) list) -> unit
(** [run t ~cycles ~stimulus] applies [stimulus cycle] to the inputs and
    {!step}s, for [cycles] cycles starting at the current cycle count. *)

val run_random : ?seed:int -> t -> cycles:int -> unit
(** Drive all primary inputs with uniform random values for [cycles]
    cycles. *)
