(** Netlist optimization: the cleanup passes a synthesizer runs.

    Instrumentation transforms (failure models, shadow replicas) and
    generator output can leave constant-fed gates, buffer chains,
    degenerate muxes and unread logic behind.  {!optimize} applies, to a
    fixpoint:

    - constant folding through every combinational cell kind (e.g.
      [AND(x,0) = 0], [MUX(a,b,1) = b], [XOR(x,x) = 0]), demoting foldable
      gates to aliases or to shared tie cells;
    - buffer/alias elimination (readers are rewired to the source net);
    - dead-cell elimination: combinational cells and registers that cannot
      reach any output port are dropped.

    The result is functionally equivalent cycle-by-cycle on the same
    interface, and surviving registers keep their names — checkable with
    register-correspondence CEC ({!Cec.check}), which is exactly how the
    test suite and [vega optimize --verify] validate the pass. *)

type stats = {
  cells_before : int;
  cells_after : int;
  folded : int;  (** cells demoted to constants or aliases *)
  dead_removed : int;  (** live-but-unreachable cells dropped *)
}

val optimize : Netlist.t -> Netlist.t * stats
(** Optimize.  Ports are preserved exactly; surviving cells keep their
    instance names. *)
