(** Value Change Dump (IEEE 1364 VCD) waveform export.

    The textual waveform format every hardware debugging tool reads
    (GTKWave, commercial simulators).  Used to dump gate-level simulation
    runs and the formal engine's counterexample traces so they can be
    inspected alongside the paper's own waveforms.

    A {!t} is an append-only builder: declare signals, then alternate
    {!set}/{!set_bit} with {!advance}.  Values are recorded only when they
    change, per the format's semantics. *)

type t
type signal

val create : ?timescale:string -> ?design:string -> unit -> t
(** Fresh dump starting at time 0 ([timescale] defaults to ["1ps"]). *)

val add_signal : t -> ?width:int -> string -> signal
(** Declare a signal (default 1 bit wide).  All declarations must precede
    the first {!set}/{!advance}.
    @raise Invalid_argument on duplicate names, widths outside
    [[1, Bitvec.max_width]], or late declarations. *)

val set : t -> signal -> Bitvec.t -> unit
(** Record the signal's value at the current time.
    @raise Invalid_argument on width mismatch. *)

val set_bit : t -> signal -> bool -> unit
(** Shorthand for 1-bit signals. *)

val advance : t -> int -> unit
(** Move time forward by [n > 0] units. *)

val now : t -> int

val to_string : t -> string
(** Render the complete VCD document. *)

(** {1 Convenience} *)

val of_sim_run :
  ?nets:(string * Netlist.net list) list ->
  Sim.t ->
  cycles:int ->
  stimulus:(int -> (string * Bitvec.t) list) ->
  string
(** Drive a simulator like {!Sim.run} while dumping the listed net groups
    (default: every input and output port) one time-unit per cycle. *)

val of_engine_run :
  (module Sim_intf.S with type t = 's) ->
  ?nets:(string * Netlist.net list) list ->
  's ->
  cycles:int ->
  stimulus:(int -> (string * Bitvec.t) list) ->
  string
(** Engine-generic {!of_sim_run}: same dump over any engine satisfying the
    shared signature — e.g. [(module Simc.Lane)] with a {!Simc.lane_view}
    to dump one lane of a parallel-pattern run. *)
