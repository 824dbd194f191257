(** SAT-based combinational equivalence checking (CEC) with register
    correspondence.

    Instead of unrolling the transition relation cycle by cycle as bounded
    model checking ({!Formal}) does, the checker matches the two netlists' registers {e by instance name}, treats each
    matched register's [Q] as a shared free variable, and builds a miter
    proving that (a) every matched output-port bit and (b) every matched
    register's next-state function compute the same combinational function
    of the shared inputs and register states.  If all comparison points are
    equal for {e every} assignment — including unreachable register states —
    the netlists are sequentially equivalent by induction, so [Equivalent]
    is a sound proof (matched registers must also agree on reset values,
    which is checked).  The price is possible incompleteness: a
    counterexample may start from an unreachable state.

    Both netlists are encoded into one hash-consed AIG-style CNF (constant
    folding, commutative normalization, structural sharing across the two
    designs), so structurally similar designs — an optimizer's output, a
    fault-instrumented replica with its fault lines tied inactive — reduce
    to identical literals and prove [Equivalent] with {e zero} SAT search,
    while a mutated gate feeding a comparison point collapses to a
    constant-true difference that is likewise caught structurally. *)

type cex = {
  cex_inputs : (string * Bitvec.t) list;
      (** one entry per input-port chunk of at most [Bitvec.max_width] bits
          (wide ports are split as ["name[hi:lo]"]), LSB first *)
  cex_states : (string * bool) list;
      (** matched registers' [Q] values in the distinguishing assignment *)
  cex_site : string;  (** the comparison point that differs *)
}

type verdict = Equivalent | Inequivalent of cex | Unknown

val check :
  ?free_inputs:bool -> ?tie_low:string list -> ?max_conflicts:int ->
  Netlist.t -> Netlist.t -> verdict
(** [check a b] proves or refutes equivalence of all shared comparison
    points.

    [free_inputs] (default [false]): when set, input ports present in only
    one netlist are allowed and become free variables, and output ports
    present in only one netlist are ignored — the mode used to compare a
    golden netlist against a {!Fault}-instrumented copy, whose [c_fault]
    port and shadow outputs have no golden counterpart.  When unset, the
    two interfaces must coincide.

    [tie_low] names cells whose outputs are encoded as constant 0 — e.g.
    {!Fault.select_cells}, forcing the instrumented netlist's corruption
    muxes inactive so the un-faulted behaviour is compared.

    [max_conflicts] bounds SAT effort; exhausting it yields [Unknown].

    @raise Invalid_argument when a port exists in both netlists with
    different widths, or (without [free_inputs]) when the interfaces
    differ. *)

val describe : verdict -> string
(** One-paragraph human-readable rendering, stable across runs for
    [Equivalent]/[Unknown]. *)
