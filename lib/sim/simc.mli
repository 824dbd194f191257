(** Compiled word-parallel ("parallel-pattern") gate-level simulation.

    [Simc] is the compiled sibling of {!Sim64}: identical lane conventions
    (bit [k] of every word is simulation lane [k], {!lanes} lanes per
    word), identical observable values, but the netlist is translated
    once at construction into a flat superop program — one contiguous
    [int array] of (opcode, dst, src0, src1) quadruples over a
    preallocated word-per-net state array — executed by a tight
    threaded-dispatch loop with no graph traversal and zero per-cycle
    allocation.  Registers commit through a double-buffered swap.

    Construction ranks the combinational cells by topological level in
    one pass over {!Netlist.topo_order}, drops logic
    outside the fanin cone of the output ports and register D pins,
    collapses Buf/Not/Tie cells into read descriptors, and absorbs operand
    inversions into complementing opcodes.  Eliminated nets remain
    observable: {!net_word} falls back to an on-demand interpretation of
    the original netlist, memoized per settle.

    Settling is lazy and change-gated.  Driving an input or clocking an
    edge compares each written word with the one it replaces, and only a
    changed word that some compiled op reads makes the program stale; the
    program then runs at most once per observation point.  A write-only
    [set_inputs; step] loop executes at most one program pass per cycle
    where {!Sim64.step} settles twice, and none when the words the logic
    reads did not move: a unit that registers its inputs and outputs
    re-runs its logic only on the edge after an input register changed,
    and its outputs read without a settle.  {!reset} and {!restore}
    always re-run the program.  Values, SP and toggle counters are the
    same as with an eager settle, because a skipped pass would have
    rewritten the same words.

    With [~profile:true] the compiler is conservative (every cell emitted,
    no aliasing or elimination), so the SP/toggle counters observe every
    net: lane [k]'s counts equal those of a scalar {!Sim} fed lane [k]'s
    stimulus.  This is the engine behind every machine unit and every SP
    profile. *)

val lanes : int
(** Number of parallel simulation lanes per word ([= Sim64.lanes]). *)

val all_lanes : int
(** Word with every lane bit set. *)

(** {1 Construction} *)

type t

val create : ?profile:bool -> Netlist.t -> t
(** Compile the netlist and return a fresh simulator in the reset state.
    With [profile] (default false), SP counters are attached to every net
    and the compile is conservative so the counters cover every net. *)

val netlist : t -> Netlist.t

val program_length : t -> int
(** Number of superops in the compiled program (after dead-code
    elimination and wire folding; equals the combinational cell count for
    a profiling simulator). *)

val reset : t -> unit

(** {1 Driving inputs} *)

val set_input_words : t -> string -> int array -> unit
(** Drive a port with one word per port bit, LSB first.
    @raise Invalid_argument on width mismatch. *)

val set_input_all : t -> string -> Bitvec.t -> unit
(** Drive the same value on every lane. *)

val set_input : t -> lane:int -> string -> Bitvec.t -> unit
val set_input_bit : t -> lane:int -> string -> int -> bool -> unit

val set_active_mask : t -> int -> unit
(** Restrict profile sampling to the lanes set in the mask. *)

val active_mask : t -> int

(** {1 The clock} *)

val settle : t -> unit
(** Ensure every net reflects the current inputs and register values.
    Idempotent; a no-op unless a word the program reads changed since
    the last pass. *)

val step : ?sample:bool -> t -> unit
(** One full clock cycle on all lanes: settle, sample the SP counters
    (unless [~sample:false]), clock edge.  The post-edge settle is lazy. *)

val hold_clock : t -> unit
(** Settle and sample without a clock edge (clock-gated cycle). *)

val cycle : t -> int

(** {1 Observation} *)

val net_word : t -> Netlist.net -> int
(** Current word of a net: bit [k] is the net's value in lane [k].  Exact
    for every net, including nets the optimizer eliminated. *)

val net : t -> lane:int -> Netlist.net -> bool
val output_words : t -> string -> int array
val output : t -> lane:int -> string -> Bitvec.t
val input_value : t -> lane:int -> string -> Bitvec.t
val peek_cell_word : t -> string -> int

(** {1 Signal-probability profiling}

    Aggregated over all active lanes: {!samples} counts (lane, cycle)
    observations and {!sp} is ones over that total.  A unit pinned to lane
    0 (the machine's units) therefore reports exactly a scalar {!Sim}'s
    profile. *)

val sp : t -> Netlist.net -> float
val sp_of_cell : t -> string -> float
val toggle_rate : t -> Netlist.net -> float
val samples : t -> int
val cycles_sampled : t -> int
val ones_count : t -> Netlist.net -> int
val toggles_count : t -> Netlist.net -> int

(** {1 State snapshots} *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** @raise Invalid_argument if the snapshot was taken on a netlist with a
    different net count. *)

(** {1 Batch driving} *)

val run_random : ?seed:int -> t -> cycles:int -> unit
(** Drive every primary input with independent random words for [cycles]
    cycles. *)

(** {1 The single-lane engine view} *)

module Lane : Sim_intf.S
(** One lane of a [Simc], satisfying the shared engine signature, so
    engine-generic consumers ({!Vcd.of_engine_run}, {!Power.analyze_engine})
    can drive it.  Inputs and reads touch only the viewed lane; clocking
    and reset act on the whole engine; profile queries report the
    aggregate over the active lanes. *)

val lane_view : t -> int -> Lane.t
