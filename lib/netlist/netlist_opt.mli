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
    test suite and [vega optimize --verify] validate the pass.

    This module is the one owner of the folding table ({!fold}), of
    liveness ({!live_cells}) and of the dead-cell rebuild ({!sweep}):
    repair's cofactor copies and its candidate sweep call them. *)

type stats = {
  cells_before : int;
  cells_after : int;
  folded : int;  (** cells demoted to constants or aliases (tie cells not counted) *)
  dead_removed : int;  (** live-but-unreachable cells dropped *)
}

type value = Const of bool | Same of Netlist.net  (** a constant, or the value of a net *)

val fold : Cell.Kind.t -> value array -> value option
(** [fold kind inputs] is the value of a [kind] gate over abstract input
    values when it needs no gate of its own: a constant, or one of its
    inputs (e.g. [AND(x,1) = x], [XOR(x,x) = 0], [MUX(a,a,s) = a]); tie
    cells fold to their constant.  [None] when the gate must be kept —
    always for a DFF, and wherever only an inverter would do
    ([NAND(x,x)], [XOR(x,1)]). *)

val live_cells : Netlist.t -> bool array
(** By cell id: whether the cell reaches an output port, walking back
    through combinational logic and registers. *)

val sweep : Netlist.t -> Netlist.t
(** The netlist without its dead cells, folding nothing.  Cell ids and
    nets are renumbered (registers first, then combinational cells in
    topological order); instance names, kinds, connections, clock domains,
    reset values and ports are kept.  No net is left over, except one
    undriven, unread net when registers survive in a netlist without
    input ports.  When every cell is live the input comes back unchanged
    (physically the same value). *)

val optimize : Netlist.t -> Netlist.t * stats
(** Optimize.  Ports are preserved exactly; surviving cells keep their
    instance names.  The rebuild is {!sweep}'s, with references resolved
    through the folded values. *)
