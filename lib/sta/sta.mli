(** Static timing analysis, fresh or aging-aware.

    Arrival times are propagated over the combinational DAG between
    flip-flops: maximum arrivals (with per-cell max delays and clk-to-Q max)
    bound setup slack at every DFF [D] pin against the next clock edge;
    minimum arrivals bound hold slack against the same edge.  Per-domain
    clock-arrival times come from a {!Clock_tree.t}, so aging-induced clock
    skew between gated and free-running subtrees is visible to the hold
    check — the mechanism behind the paper's FPU hold violations.

    Violating *paths* (not just endpoints) are recovered by a backward
    depth-first search with arrival-time pruning, capped to keep enumeration
    tractable.  Error Lifting consumes {!violating_pairs} instead: the exact
    worst slack of each unique (startpoint, endpoint) pair, mirroring
    Section 5.2.1. *)

type startpoint =
  | From_dff of int  (** launching DFF cell id *)
  | From_input of string * int  (** primary-input port bit *)

type endpoint = At_dff of int  (** capturing DFF cell id *)

type check = Setup | Hold

type path = {
  start : startpoint;
  finish : endpoint;
  through : int list;  (** combinational cell ids, start to finish *)
  delay_ps : float;  (** data arrival at the endpoint [D] pin *)
  slack_ps : float;  (** negative iff violating *)
  check : check;
}

type endpoint_slack = {
  ep : endpoint;
  setup_slack_ps : float;
  hold_slack_ps : float;
}

type report = {
  clock_period_ps : float;
  endpoint_slacks : endpoint_slack list;
  setup_violations : path list;  (** worst-first *)
  hold_violations : path list;
  wns_setup_ps : float;  (** 0 when no endpoint violates *)
  wns_hold_ps : float;
  truncated : bool;  (** true if path enumeration hit the cap *)
}

(** How the analysis obtains delays and clock arrivals. *)
type timing_source = {
  cell_delay : Netlist.cell -> Cell.timing;
  dff_timing : Cell.dff_timing;
  clock_arrival_ps : int -> float;  (** by clock domain *)
  input_arrival_ps : float;  (** data arrival of primary inputs after the edge *)
}

val fresh_timing :
  ?derate:float -> ?clock_tree:Clock_tree.t -> Cell.Library.t -> timing_source
(** Unaged timing: library delays scaled by [derate] (default 1.0, the
    signoff-corner pessimism knob), clock arrivals from [clock_tree]
    (default {!Clock_tree.single_domain}) using fresh buffer delays. *)

val aged_timing :
  ?derate:float ->
  ?clock_tree:Clock_tree.t ->
  ?toggle_of_net:(Netlist.net -> float) ->
  sp_of_net:(Netlist.net -> float) ->
  years:float ->
  Aging.Timing_library.t ->
  timing_source
(** Aging-aware timing: each cell's max delay is scaled by the
    aging-library degradation factor at the signal probability of its
    output net; clock-tree buffers are aged with their segments' activity
    SP (min delays stay fresh — aging only slows transistors down).

    With [toggle_of_net] (switching activity per net, e.g.
    {!Sim.toggle_rate}), the electromigration extension also derates each
    cell's max delay by {!Aging.em_delay_factor} — BTI stresses the idlest
    cells, EM the busiest nets. *)

val analyze :
  ?constrain_inputs:bool ->
  ?max_violating_paths:int ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  report
(** Run setup and hold analysis on every DFF endpoint.  At most
    [max_violating_paths] (default 10_000) violating paths are enumerated
    per check; [report.truncated] records whether the cap was hit.

    By default primary-input-launched paths are unconstrained
    ([constrain_inputs = false]): module-level analysis treats the upstream
    pipeline registers feeding the module as out of scope, exactly like an
    STA run without input-delay constraints.  With [constrain_inputs],
    inputs arrive at [timing.input_arrival_ps] and participate in both
    checks. *)

val critical_path_ps : timing:timing_source -> Netlist.t -> float
(** The fresh critical path: the shortest clock period at which every
    endpoint meets setup under [timing], read off the setup slacks of an
    {!analyze} run at a period so long that nothing violates ([0.0] for a
    netlist without registers).  Phase 1's target clock is this times a
    sign-off margin. *)

val endpoint_pairs :
  ?constrain_inputs:bool ->
  ?skip:(startpoint -> endpoint -> check -> bool) ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  (startpoint * endpoint * check * float) list
(** Exact worst slack for every (startpoint, endpoint) register pair and
    check, computed by one pass per endpoint over its fan-in cone that
    yields the setup and hold tails together — immune to the
    combinatorial path-count explosion that bounds {!analyze}'s
    enumeration.  One tuple per connected pair and check: every Setup
    tuple, then every Hold tuple; within a check, endpoints in
    {!Netlist.dffs} order, and per endpoint the registers in that order,
    then the constrained input bits.

    Pairs for which [skip] returns [true] (default: none) are dropped
    before any cone traversal — an endpoint whose pairs are all skipped
    costs nothing.  {!Check.Spbound} uses this to prune statically-safe
    pairs from the phase-1 sweep.  Runs under an [sta.pairs] span. *)

val retime_pairs :
  ?on_retime:(retimed:int -> total:int -> unit) ->
  parent:Netlist.t * timing_source * (startpoint * endpoint * check * float) list ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  (startpoint * endpoint * check * float) list
(** [retime_pairs ~parent:(nl0, timing0, pairs0) ~timing ~clock_period_ps nl]
    is exactly [endpoint_pairs ~timing ~clock_period_ps nl] — the same
    list in the same order, every slack bit-identical — computed by
    re-timing only the endpoints an edit of [nl0] can reach.
    Precondition: [pairs0] is [endpoint_pairs ~timing:timing0
    ~clock_period_ps nl0] (no [skip], inputs unconstrained).

    [nl] must extend [nl0] the way {!Netlist.Builder.of_netlist} does:
    the first [num_cells nl0] cells keep their ids, names and output
    nets.  Otherwise, or when [timing] and [timing0] differ in register
    timing or in the clock arrival of a register's domain, this is a full
    {!endpoint_pairs} sweep.  A cell is {e changed} when it is new, when
    its kind, inputs or clock domain differ, or when [timing] and
    [timing0] give a combinational cell different delays; the
    {e affected} endpoints are the changed registers plus every register
    a changed cell's output reaches combinationally (a register whose
    only change is its D wiring launches as before, so its readers are
    not affected by it).  Affected endpoints are re-timed through
    [endpoint_pairs ~skip]; every other endpoint keeps the parent's
    block, because its fan-in cone is made of unchanged cells.
    [on_retime] receives the number of endpoints re-timed and the
    endpoint total; the re-timing sweep's [sta.pairs] span carries the
    first as [endpoints_retimed]. *)

val violating_pairs :
  ?constrain_inputs:bool ->
  ?skip:(startpoint -> endpoint -> check -> bool) ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  (startpoint * endpoint * check * float) list
(** The negative-slack subset of {!endpoint_pairs}, worst first — the exact
    list of unique aging-prone pairs Error Lifting consumes.  [skip] is
    sound to use exactly when skipped pairs are proven non-violating. *)

val pair_path :
  ?constrain_inputs:bool ->
  timing:timing_source ->
  clock_period_ps:float ->
  Netlist.t ->
  startpoint ->
  endpoint ->
  check ->
  path option
(** The single worst path of one (startpoint, endpoint) pair: the same
    per-endpoint pass as {!endpoint_pairs} followed by an argmax walk
    that reconstructs the extremal path's cells, so — unlike
    {!analyze}'s enumeration — it is immune to the path-count cap and
    returns the path whether or not it violates.  [None] when no
    combinational path connects the pair (or the startpoint is an
    unconstrained primary input).  The netlist repair pass uses this as
    its path oracle when choosing where to rewrite.  Runs under an
    [sta.pair_path] span. *)

val render_report : Netlist.t -> report -> string
(** Signoff-style textual rendering: WNS summary, the violating paths
    (capped at 20 per check), and the tightest endpoints. *)

val describe_startpoint : Netlist.t -> startpoint -> string
val describe_endpoint : Netlist.t -> endpoint -> string
val describe_path : Netlist.t -> path -> string
(** ["$4 -> $7 -> $8 -> $10 (setup, slack -46.0 ps)"]-style rendering. *)
