(** The engine signature shared by the scalar reference simulator ({!Sim})
    and the per-lane view of the compiled simulator ({!Simc.Lane}).

    Engine-generic consumers — {!Vcd.of_engine_run}, {!Power.analyze_engine} —
    take a first-class [(module S with type t = 'a)] witness, so any engine
    that can present a single-pattern, cycle-accurate view plugs in without
    functorising the whole call graph. *)

module type S = sig
  type t

  val netlist : t -> Netlist.t
  val reset : t -> unit

  val set_input : t -> string -> Bitvec.t -> unit
  (** Drive a primary input port.  Width must match the port.
      @raise Invalid_argument otherwise. *)

  val set_input_bit : t -> string -> int -> bool -> unit

  val settle : t -> unit
  (** Propagate inputs and register values through the combinational logic
      (no clock edge). *)

  val step : ?sample:bool -> t -> unit
  (** One full clock cycle: settle, sample the profile counters (unless
      [~sample:false]), clock edge, settle again. *)

  val hold_clock : t -> unit
  (** Settle and sample without a clock edge (clock-gated cycle). *)

  val cycle : t -> int
  val net : t -> Netlist.net -> bool
  val output : t -> string -> Bitvec.t

  val sp : t -> Netlist.net -> float
  (** Fraction of sampled (net, cycle) observations holding logical "1".
      @raise Invalid_argument without profiling or before any sample. *)

  val sp_of_cell : t -> string -> float

  val toggle_rate : t -> Netlist.net -> float
  (** Transitions per sampled slot of the net, in [[0, 1]]. *)

  val samples : t -> int
end
