(** Area and power reporting from a profiled simulation.

    The classic signoff companion to timing: static (leakage) power is
    state-dependent, so it is weighted by each cell's signal probability;
    dynamic power follows the switching-activity model
    [P = toggle_rate * Cload * Vdd^2 * f] per cell.  Both reuse exactly the
    SP/toggle profile the aging analysis already collects, which is also
    why the paper's phase one gets these analyses "for free" from the same
    instrumented simulation. *)

type kind_row = {
  kind : Cell.Kind.t;
  count : int;
  area_um2 : float;
  leakage_nw : float;
}

type report = {
  cell_count : int;
  total_area_um2 : float;
  total_leakage_nw : float;  (** SP-weighted static power *)
  total_dynamic_nw : float;  (** activity-based switching power at the given clock *)
  clock_mhz : float;
  by_kind : kind_row list;  (** kinds that occur, in {!Cell.Kind.all} order *)
}

val analyze : Cell.Library.t -> Sim.t -> clock_mhz:float -> report
(** Analyze the simulator's netlist with its collected profile.
    @raise Invalid_argument if the simulator was not created with
    [~profile:true] or has no samples. *)

val analyze_engine :
  (module Sim_intf.S with type t = 's) -> Cell.Library.t -> 's -> clock_mhz:float -> report
(** Engine-generic {!analyze}: works over any simulator satisfying the
    shared engine signature, e.g. a {!Simc.Lane} view, whose profile
    queries aggregate over all lanes of a parallel-pattern run. *)

val render : report -> string
