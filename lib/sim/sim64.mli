(** Word-parallel ("64-lane") gate-level simulation for detection sweeps.

    A parallel-pattern simulator in the PPSFP tradition: every net holds one
    native [int] whose bits are {!lanes} independent simulation lanes, so a
    single bitwise operation evaluates {!lanes} patterns per gate.  On a
    64-bit platform [lanes = Sys.int_size = 63].

    Its one job is the short detection sweep ({!Lift.detected_cases},
    repair's approximate differential): build a fresh faulty netlist, run
    it for a few cycles, compare outputs.  [create] only copies the topo
    order into opcode arrays, several times cheaper than {!Simc.create},
    and for runs this short the compile dominates.  Long runs and every SP
    profile belong to {!Simc}.

    Lane [k] of a [Sim64] run behaves exactly like a scalar {!Sim} fed lane
    [k]'s stimulus ([test/test_sim64.ml] checks it on random netlists).
    All lanes share the one clock. *)

type t

val lanes : int
(** Number of independent simulation lanes per word ([Sys.int_size]; 63 on
    64-bit platforms). *)

val all_lanes : int
(** The lane mask with every lane set (as a bit pattern). *)

val popcount : int -> int
(** Number of set bits in a native word (table-driven). *)

val random_word : Random.State.t -> int
(** A word with {!lanes} independent uniform random bits. *)

val create : Netlist.t -> t
(** Fresh simulator in the reset state.  The combinational topo order is
    compiled once into a flat opcode program, so every {!settle} is a
    single tight pass. *)

val reset : t -> unit
(** Every DFF returns to its reset value in every lane; inputs clear to
    zero. *)

val set_input_words : t -> string -> int array -> unit
(** Drive a port from per-bit lane words, LSB first — [words.(i)] is the
    word for port bit [i], lane [k] in bit [k].
    @raise Invalid_argument if the array length differs from the port
    width. *)

val settle : t -> unit
(** Propagate inputs and register values through the combinational logic in
    all lanes (no clock edge). *)

val step : t -> unit
(** One full clock cycle in all lanes: settle, two-phase clock edge,
    settle again. *)

val net_word : t -> Netlist.net -> int
(** Lane word of a net (after the last settle). *)

val output_words : t -> string -> int array
(** Per-bit lane words of an output port, LSB first. *)
