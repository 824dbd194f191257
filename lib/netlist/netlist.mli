(** The gate-level netlist intermediate representation.

    A netlist is a directed graph of standard cells ({!Cell.Kind.t})
    connected by single-bit nets, with named multi-bit primary input and
    output ports — the post-synthesis, post-place-and-route artifact every
    phase of the workflow operates on.  Netlists are immutable once built;
    {!Builder} constructs them (from scratch or by extending an existing
    netlist, which is how failure-model instrumentation works) and validates
    structural invariants at {!Builder.finish} time:

    - every net has exactly one driver (a cell output or a primary input);
    - cell input arities match their kinds;
    - the combinational subgraph is acyclic (every cycle is cut by a DFF);
    - port nets exist and output ports are driven.

    The frozen netlist precomputes the driver map, fan-out lists and a
    topological order of the combinational cells, which the simulator, the
    STA engine and the CNF encoder all reuse.

    A netlist built by extending another ({!Builder.of_netlist}) shares
    every cell record it did not edit with that netlist, and its name
    lookup falls through to that netlist's.  So a cell record, its
    [inputs] array included, belongs to every netlist that holds it: no
    code may mutate a finished cell's [inputs] (copy the array first).
    Physically equal records ([==]) at the same id are the same cell, which
    the BMC encoder uses to reuse clauses across netlists. *)

type net = int
(** Nets are dense indices in [[0, num_nets)]. *)

type cell = {
  id : int;
  kind : Cell.Kind.t;
  name : string;  (** instance name, unique within the netlist *)
  inputs : net array;
  output : net;
  clock_domain : int;  (** clock-tree leaf driving this DFF; [-1] for combinational cells *)
  reset_value : bool;  (** value a DFF assumes on reset *)
}

type port = { port_name : string; port_nets : net array  (** LSB first *) }

type driver =
  | Driven_by_cell of int  (** cell id *)
  | Driven_by_input of string * int  (** port name, bit index *)

type t

(** {1 Observation} *)

val name : t -> string
val num_cells : t -> int
val num_nets : t -> int
val cell : t -> int -> cell
val cells : t -> cell array
(** The backing array; callers must not mutate it. *)

val inputs : t -> port list
val outputs : t -> port list
val find_input : t -> string -> port
val find_output : t -> string -> port

val driver : t -> net -> driver
val readers : t -> net -> int list
(** Ids of the cells reading a net. *)

val output_readers : t -> net -> (string * int) list
(** Output ports (name, bit) connected to a net. *)

val topo_order : t -> int array
(** Combinational cell ids in dataflow order: every cell appears after all
    combinational drivers of its inputs.  The order of Kahn's algorithm
    seeded with the ready cells in id order, so it depends only on the
    cells; a netlist from an extending {!Builder.finish} computes it on the
    first call. *)

val dffs : t -> int list
(** Ids of all DFF cells. *)

val find_cell : t -> string -> cell
(** @raise Not_found if no cell has this instance name. *)

val net_name : t -> net -> string
(** Human-readable name: the driving port bit ["a[1]"] or cell instance
    ["$7.Y"]. *)

val net_of_port_bit : t -> string -> int -> net
(** Net behind bit [i] of the named input or output port. *)

(** {1 Analysis helpers} *)

val fanout_cone : t -> net -> int list
(** Ids of every cell transitively influenced by a net, crossing DFFs
    (the shadow-replica region of the failure-model instrumentation). *)

val fanin_cone : t -> net -> int list
(** Ids of every cell that can transitively influence a net. *)

val logic_depth : t -> int
(** Longest combinational path, in cells. *)

val stats : t -> (Cell.Kind.t * int) list
(** Cell count per kind, only kinds that occur. *)

val to_verilog : t -> string
(** Structural Verilog text for the netlist (the "failing netlist" artifact
    format of the paper). *)

val to_dot : t -> string
(** Graphviz rendering of the cell graph (DFFs as 3-D boxes, ports as
    tabs) — handy for inspecting instrumented netlists. *)

(** {1 Raw (unvalidated) designs}

    A [Raw.t] is the plain-data view of a netlist-shaped design with {e no}
    structural invariants: nets may be multi-driven, floating, cyclic, out
    of range.  It is what the static linter ({!module:Check}) consumes —
    frozen netlists are exported with {!raw} (and are lint-clean of
    structural errors by construction), builders with {!Builder.raw}
    (mid-construction state), and defective designs for linter self-tests
    can be assembled literally. *)

module Raw : sig
  type rcell = {
    rc_name : string;
    rc_kind : Cell.Kind.t;
    rc_inputs : net array;
    rc_output : net;
    rc_clock_domain : int;
    rc_reset_value : bool;
  }

  type rport = { rp_name : string; rp_nets : net array }

  type t = {
    r_name : string;
    r_num_nets : int;  (** nets are expected in [[0, r_num_nets)] *)
    r_cells : rcell array;
    r_inputs : rport list;
    r_outputs : rport list;
  }
end

val raw : t -> Raw.t
(** The frozen netlist as a raw design. *)

(** {1 Construction} *)

module Builder : sig
  type netlist := t
  type t

  val create : string -> t
  (** Fresh empty builder for a netlist with the given name. *)

  val of_netlist : netlist -> t
  (** Builder that extends an existing netlist — the entry point of every
      instrumentation transform.  Cell ids and nets are preserved.  The
      existing netlist is never mutated: {!rewire_input} and {!set_kind}
      copy a cell's record on its first edit, and {!finish} reuses every
      record left unedited, so extending costs what the edits add rather
      than a copy of every cell. *)

  val fresh_net : t -> net
  val add_input : t -> string -> int -> net array
  (** [add_input b name width] declares a primary input port and returns its
      (fresh) nets, LSB first. *)

  val add_output : t -> string -> net array -> unit
  (** Declare a primary output port connected to existing nets. *)

  val add_cell :
    ?name:string -> ?clock_domain:int -> ?reset_value:bool -> t -> Cell.Kind.t -> net array ->
    net
  (** [add_cell b kind inputs] adds a cell driving a fresh net, returned.
      A unique instance name is generated when [name] is omitted.
      @raise Invalid_argument on arity mismatch or duplicate name. *)

  val add_cell_with_id :
    ?name:string -> ?clock_domain:int -> ?reset_value:bool -> t -> Cell.Kind.t -> net array ->
    int * net
  (** Like {!add_cell} but also returns the new cell's id (ids are assigned
      densely in insertion order and survive {!finish}). *)

  val num_cells : t -> int

  val rewire_input : t -> cell_id:int -> pin:int -> net -> unit
  (** Repoint input [pin] of an existing cell to another net (used to splice
      failure models into a copied netlist). *)

  val rewire_output : t -> port:string -> bit:int -> net -> unit
  (** Repoint bit [bit] of an existing output port to another net (used to
      splice logic — e.g. a seeded mutation — in front of an exported
      signal).  @raise Invalid_argument on an unknown port, bit or net. *)

  val set_kind : t -> cell_id:int -> Cell.Kind.t -> unit
  (** Replace the kind of an existing cell, keeping its connections — the
      primitive behind seeded gate mutations.  The new kind must have the
      same arity and sequentiality as the old one.
      @raise Invalid_argument otherwise. *)

  val cell_output : t -> int -> net
  (** Output net of a cell already in the builder. *)

  val raw : t -> Raw.t
  (** Snapshot of the builder's current — possibly structurally invalid —
      state as a raw design, for linting before {!finish}. *)

  val finish : t -> netlist
  (** Validate and freeze.  @raise Invalid_argument describing the first
      violated structural invariant.  On a builder from {!of_netlist} the
      cost follows the edits: the parent's driver map, fan-out lists and
      DFF list are patched where the builder changed them, only the edited
      and added cells are checked, and the topological order is computed
      on its first {!topo_order}. *)

  val finish_full : t -> netlist
  (** The same netlist as {!finish}, every table derived from every cell
      and the topological order computed at once: the reference the
      extension path is tested against. *)
end
