(** Aging-aware netlist repair: a verified rewriting pass that *fixes*
    the register pairs phase 1 reports as violating.

    The pass consumes the phase-1 evidence (the exact violating pairs of
    {!Sta.violating_pairs}, which — under the sound default assumptions —
    subsume {!Check.Spbound}'s [Critical] verdicts) and walks the pairs
    worst-slack-first.  For each pair it asks {!Sta.pair_path} for the
    extremal aged path and tries a ranked ladder of local rewrites:

    - {e gate strengthening} — drive duplication with fanout split: the
      critical consumer pin gets a private, fused copy of its driver
      (inverter absorption [NOT(AND) -> NAND] and friends, buffer and
      double-inverter elimination) while every other reader keeps the
      original cells;
    - {e cell duplication + voting} — a near-critical hold cone's driver
      is triplicated and a majority voter arbitrates the copies, padding
      the min-delay path while masking a single slow replica;
    - {e SP-rebalancing restructure} — associative AND/OR/XOR chains on
      the path are rebuilt as balanced trees, and reconvergent cones are
      Shannon-restructured against the late-arriving path signal (the
      cofactors compute from the early side inputs, the late signal moves
      to a single mux select);
    - {e bounded-error approximation} (opt-in) — an FP-datapath path is
      cut by tying the critical pin to its most probable value, accepted
      only when the 64-lane random differential stays within the declared
      error bound.

    Every exact rewrite is proved equivalent against the previous netlist
    with the {!Cec} miter before it is committed; a rewrite is also
    rejected if it worsens any other pair, exceeds the area budget, or
    introduces a new lint code.  The pass keeps one exact all-pairs aged
    slack table for its current netlist: one full sweep before the first
    pair (and after a checkpoint replay), then, per candidate that
    improves its pair, {!Sta.retime_pairs} re-times only the endpoints
    the edit reaches; the committed candidate's table replaces the
    current one, and the final outcomes are read from it.  Committed edits form the {e rewrite
    ledger}: an ordered list of reversible local edits with provenance,
    each replayable from its JSON encoding — the checkpoint/resume
    substrate and the reusable transformation IR.  After the ladder the
    netlist is swept of dead cells (surviving cells keep their instance
    names) and re-scored through [Sta] + [Spbound] by the caller
    ({!Vega.repair}). *)

(** The ladder rung a committed edit belongs to. *)
type rung =
  | Strengthen  (** fusion / buffer elimination / hold padding *)
  | Dup_vote  (** triplicated driver + majority voter (hold) *)
  | Rebalance  (** chain balancing or Shannon restructure *)
  | Approx  (** bounded-error constant tie (opt-in) *)

val rung_name : rung -> string

(** One reversible local edit.  Cells are referenced by instance name (ids
    are not stable across the dead-cell sweep); [reader]/[pin] name the
    input pin that is rewired, and the rest of the edit re-derives
    deterministically from the current netlist — which is what makes the
    ledger replayable on resume. *)
type edit =
  | Buf_elim of { eb_reader : string; eb_pin : int }
      (** the pin reads a BUF: rewire it to the BUF's input *)
  | Not_not of { en_reader : string; en_pin : int }
      (** the pin reads NOT(NOT(x)): rewire it to [x] *)
  | Fuse_inv of { ef_reader : string; ef_pin : int; ef_kind : Cell.Kind.t }
      (** the pin reads NOT(g(a,b)): give it a private fused cell
          [ef_kind](a,b) (the complement kind of [g]) *)
  | Chain_balance of { ec_reader : string; ec_pin : int; ec_chain : string list }
      (** the pin reads the root of the named same-kind associative
          chain (deepest cell first): rebuild it as a balanced tree *)
  | Shannon of { es_reader : string; es_pin : int; es_late : string }
      (** cofactor the cone between the late signal (output net of the
          named cell) and the pin against late = 0/1, fold the copies,
          and select with a single mux driven by the late signal *)
  | Hold_pad of { eh_reader : string; eh_pin : int; eh_bufs : int }
      (** insert a BUF chain in front of the pin (hold fix) *)
  | Vote3 of { ev_reader : string; ev_pin : int }
      (** triplicate the pin's driver cell and vote the copies *)
  | Approx_tie of { ea_reader : string; ea_pin : int; ea_value : bool }
      (** tie the pin to a constant (approximate; needs an error bound) *)

val describe_edit : edit -> string

(** How a committed rewrite was verified. *)
type verification =
  | Verified_cec  (** {!Cec.check} returned [Equivalent] *)
  | Verified_bound of float
      (** measured 64-lane differential error rate (within the bound) *)

type committed = {
  cm_seq : int;  (** ledger position; also seeds the [_rp<seq>_] names *)
  cm_pair : string;  (** {!Spbound.pair_key} of the pair being repaired *)
  cm_rung : rung;
  cm_edit : edit;
  cm_verification : verification;
  cm_slack_before_ps : float;  (** the pair's aged slack before the edit *)
  cm_slack_after_ps : float;
  cm_cells_added : int;
}

type pair_status =
  | Repaired  (** aged slack non-negative after repair *)
  | Improved  (** slack improved but still negative (budget/ladder ran out) *)
  | Unrepaired of string  (** nothing committed; the reason *)

type pair_outcome = {
  po_pair : string;
  po_check : Sta.check;
  po_slack_before_ps : float;
  po_slack_after_ps : float;
  po_edits : int;
  po_status : pair_status;
}

type config = {
  rp_max_rewrites : int;  (** budget: committed rewrites across all pairs *)
  rp_max_area_frac : float;
      (** budget: max live-area growth as a fraction of the original *)
  rp_max_pair_edits : int;  (** inner-loop cap per pair *)
  rp_rungs : rung list;  (** enabled rungs, in ladder order *)
  rp_approx_bound : float option;
      (** error-rate bound for {!Approx}; [None] disables the rung even
          when listed *)
  rp_approx_cycles : int;  (** 64-lane differential cycles per check *)
  rp_seed : int;  (** differential stimulus seed *)
  rp_max_conflicts : int;  (** SAT budget per CEC proof *)
  rp_max_cone : int;  (** Shannon cone cell cap *)
}

val default_config : config
(** 64 rewrites, 25% area, all exact rungs, approximation off. *)

type result = {
  rs_netlist : Netlist.t;  (** repaired and swept; instance names survive *)
  rs_sp_of_net : Netlist.net -> float;
      (** SP view of the repaired netlist: original nets keep their
          profiled SP, provenance-tracked new cells inherit theirs, and
          new cells without provenance are pinned at SP 0 (maximum BTI
          aging), so re-scored slack gains are lower bounds *)
  rs_outcomes : pair_outcome list;  (** worst-slack-first pair order *)
  rs_ledger : committed list;  (** commit order *)
  rs_rewrites : int;
  rs_rejected : int;  (** candidates discarded by a verification gate *)
  rs_cec_failures : int;
      (** candidates whose miter came back [Inequivalent] — always 0 for
          the shipped rewrite ladder; counted so the report can prove it *)
  rs_cells_before : int;
  rs_cells_after : int;
  rs_area_before_um2 : float;
  rs_area_after_um2 : float;
  rs_resumed_pairs : int;  (** pairs replayed from the checkpoint *)
}

val run :
  ?config:config ->
  ?checkpoint:Resilience.Checkpoint.t ->
  ?log:(string -> unit) ->
  netlist:Netlist.t ->
  sp_of_net:(Netlist.net -> float) ->
  clock_period_ps:float ->
  years:float ->
  derate:float ->
  clock_tree:Clock_tree.t ->
  aglib:Aging.Timing_library.t ->
  pairs:(Sta.startpoint * Sta.endpoint * Sta.check * float) list ->
  unit ->
  result
(** Repair the given pairs (ids refer to [netlist]) worst-slack-first.
    Deterministic: the same inputs and config produce byte-identical
    {!render} output and a structurally identical netlist.  With a
    [checkpoint], each pair's committed edits are persisted as JSON and
    replayed (skipping the search and the proofs) on resume.
    @raise Invalid_argument if the netlist fails error-class lint. *)

val digest : config -> Netlist.t -> clock_period_ps:float -> years:float -> string
(** Checkpoint compatibility digest: netlist, timing knobs and the full
    rewrite configuration. *)

val render : result -> string
(** Deterministic, golden-diffable repair report: summary counters, the
    per-pair before/after slack table and the rewrite ledger. *)
