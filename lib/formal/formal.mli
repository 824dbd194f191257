(** Hardware formal verification by bounded model checking.

    This is the JasperGold substitute of the Error Lifting phase: given a
    netlist (typically one instrumented with a failure model and a shadow
    replica), a [cover] property, and optional [assume] constraints on the
    module inputs, the engine unrolls the netlist's transition relation
    cycle by cycle into CNF (Tseitin encoding), asks the CDCL solver for a
    satisfying assignment, and reconstructs a cycle-accurate input {!Trace.t}
    when one exists.

    Completeness: for pipelines whose DFF-to-DFF dependency graph is acyclic
    (the ALU datapath, the instrumented shadow logic), the state at cycle
    [sequential_depth] is a function of the inputs alone, so exhausting all
    bounds up to that depth *proves* the cover unreachable — the paper's "UR"
    outcome.  Circuits with state feedback (the FPU handshake FSM) fall back
    to a bounded claim unless the exploration bound exceeds their diameter. *)

(** Boolean expressions over the circuit, evaluated at one clock cycle. *)
type expr =
  | Const of bool
  | Input of string * int  (** primary-input port bit *)
  | Net of Netlist.net  (** any internal net *)
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

val nets_differ : Netlist.net -> Netlist.net -> expr
(** The canonical Vega cover property: two nets (an original output bit and
    its shadow-replica copy) disagree. *)

val port_equals : Netlist.t -> string -> Bitvec.t -> expr
(** Input port holds exactly this value. *)

val port_in : Netlist.t -> string -> Bitvec.t list -> expr
(** Input port holds one of the listed values (an [assume] restricting a
    module to valid operations, Section 3.3.3). *)

val eval_expr : Sim.t -> expr -> bool
(** Evaluate an expression against the current simulator state (used to
    replay and validate traces). *)

(** Cycle-accurate counterexample traces. *)
module Trace : sig
  type t = {
    netlist_name : string;
    cycles : int;  (** trace length; inputs are indexed [0 .. cycles-1] *)
    inputs : (string * Bitvec.t array) list;  (** per input port, per cycle *)
    observed : (string * bool array) list;  (** watched nets, per cycle *)
  }

  val input_at : t -> string -> int -> Bitvec.t
  val to_string : t -> string
  (** Waveform-table rendering in the style of the paper's Table 2. *)

  val replay : Sim.t -> t -> on_cycle:(int -> unit) -> unit
  (** Drive a simulator with the trace's inputs, calling [on_cycle] after
      each settled cycle (before the clock edge), then stepping. *)

  val to_vcd : Netlist.t -> t -> string
  (** Replay the trace on the given netlist and render a VCD waveform of
      its input ports, output ports, and watched nets — the "saved
      waveform" of the paper's step 5. *)

  val covers : Netlist.t -> t -> expr -> bool
  (** Replay the trace on a fresh simulator of the given netlist and report
      whether the expression held during at least one cycle. *)
end

type outcome =
  | Trace_found of Trace.t
  | Unreachable  (** proven: no input sequence can ever satisfy the cover *)
  | Bounded_unreachable of int  (** no trace within the bound; not a proof *)
  | Timeout of int
      (** solver conflict budget exhausted (the paper's "FF").  The payload
          is the deepest bound already proven unreachable — an [Unsat] at
          bound [k] that exactly exhausts the budget still proved [k], so a
          resumed run can restart at bound [k + 1] instead of bound 0
          (see [start_cycle] of {!check_cover}). *)

val sequential_depth : Netlist.t -> int option
(** [Some d] when the DFF-to-DFF dependency graph is acyclic, where [d] is
    the length of its longest register chain; [None] for circuits with
    state feedback.  Each domain keeps the net levels of the last netlist
    it walked in full, so a netlist extending it ({!Netlist.Builder.of_netlist})
    walks only from the DFFs past the cells they share. *)

val check_cover :
  ?assumes:expr list ->
  ?watch:(string * Netlist.net) list ->
  ?max_cycles:int ->
  ?max_conflicts:int ->
  ?start_cycle:int ->
  Netlist.t ->
  cover:expr ->
  outcome
(** Search for an input trace satisfying [cover] at some cycle, trying
    bounds 1, 2, ... [max_cycles] (default: [sequential_depth] when known,
    else 8).  [assumes] must hold at every cycle of the trace.  [watch]
    names extra nets whose values are recorded in the returned trace.
    [max_conflicts] (default 200_000) bounds total solver effort; exceeding
    it yields [Timeout].

    [start_cycle] (default 1) skips the solver queries for bounds below it:
    those cycles are still unrolled and constrained, but the caller vouches
    that they were already proven unreachable by an earlier (timed-out)
    run — pass [k + 1] after a [Timeout k] to resume where it stopped.
    Unsound if bounds below [start_cycle] were never actually proven. *)

type run_stats = {
  rs_solver : Sat.stats;  (** total solver effort of this run *)
  rs_calls : int;  (** bounds actually queried (solver calls) *)
  rs_deepest_unsat : int;
      (** deepest bound proven unreachable, [start_cycle - 1] if none *)
}

val check_cover_stats :
  ?assumes:expr list ->
  ?watch:(string * Netlist.net) list ->
  ?max_cycles:int ->
  ?max_conflicts:int ->
  ?start_cycle:int ->
  Netlist.t ->
  cover:expr ->
  outcome * run_stats
(** Like {!check_cover}, but also reports the effort actually spent — the
    currency of the {!Resilience}-style shared-budget slicing: callers
    charge [rs_solver.conflicts] against their budget rather than assuming
    the whole [max_conflicts] was consumed. *)

