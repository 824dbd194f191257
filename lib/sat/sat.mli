(** A CDCL SAT solver.

    This is the decision engine behind the formal-verification phase
    (the JasperGold substitute): conflict-driven clause learning with
    two-watched-literal propagation, first-UIP conflict analysis,
    VSIDS-style variable activities, phase saving, and Luby restarts.

    Literals are nonzero integers in DIMACS convention: variable [v] is the
    positive literal [v], its negation [-v].  Variables must be allocated
    with {!new_var} or {!new_vars} before use.

    Memory: every clause, problem or learned, sits in one flat [int array]
    as a length header followed by its literals, and each literal's watch
    list is an [int array] plus a size.  Nothing is freed while the solver
    lives; {!reset} empties it for the next instance and keeps the arrays. *)

type t

type result = Sat | Unsat | Unknown

val result_name : result -> string
(** "sat" / "unsat" / "unknown" — for logs and telemetry args. *)

val create : unit -> t

val reset : t -> unit
(** Return the solver to the state of a fresh {!create}: no variables, no
    clauses, zero stats, no model.  From there it gives the same results,
    stats, models and {!to_dimacs} as a fresh solver fed the same calls,
    whatever it did before (including a root-level [Unsat], a spent
    conflict budget, or an {!add_clause} that raised).  The arrays it has
    grown are kept, so a reused solver allocates only what a larger
    instance outgrows. *)

val new_var : t -> int
(** Allocate a fresh variable; returns its (positive) id, starting at 1. *)

val new_vars : t -> int -> int
(** [new_vars t n] allocates [n] variables at once, exactly as [n] calls
    of {!new_var} would, and returns the first id: they are [first] ..
    [first + n - 1].
    @raise Invalid_argument if [n < 0]. *)

val num_vars : t -> int
val num_clauses : t -> int
(** Problem clauses added so far (excluding learned clauses). *)

val add_clause : t -> int list -> unit
(** Add a clause (list of literals).  Every literal is checked first; then,
    unless the instance is already unsatisfiable at the root (in which case
    the clause is ignored), the solver returns to decision level 0 and
    normalises the clause against the root assignment:
    + literals are sorted in ascending integer order (negative literals
      first) and duplicates merged;
    + a tautology (some [l] and [-l]) is dropped, as is a clause with a
      literal already true at the root;
    + literals false at the root are removed, keeping the order;
    + what remains is stored: nothing left makes the instance
      unsatisfiable; one literal is enqueued as a root fact and propagated
      at once (a conflict makes the instance unsatisfiable); two or more
      are stored as a problem clause in that order, watched on its first
      two literals.

    The search depends on this exact order (watch lists, clause order in
    propagation and conflict analysis), so every decision, conflict count
    and trace built on the solver does too: the contract is part of the
    output, not an implementation detail.
    @raise Invalid_argument on a literal whose variable was never
    allocated (including the literal [0]). *)

val add_clause_array : t -> int array -> unit
(** {!add_clause} on an array, which the solver takes over: it normalises
    the clause in place, so the caller must not use the array afterwards.
    Same checks, same normalisation, same search. *)

type block
(** Clauses normalised once and replayed many times, each time moved up by
    a number of variables: the gate clauses of one netlist, replayed for
    every cycle of a BMC unrolling.  Literals in a block are relative: [l]
    stands for [l + shift] ([l - shift] when negative) at replay. *)

val block : unit -> block
(** An empty block. *)

val block_add : block -> int array -> unit
(** Append a clause of relative literals, normalised as {!add_clause}
    does: sorted, duplicates merged, a tautology dropped.  Like
    {!add_clause_array} it takes over the array.
    @raise Invalid_argument on the literal [0]. *)

val block_size : block -> int
(** The block's size so far; a value read between two {!block_add} calls
    names the clauses added before it, for [add_block ~len]. *)

val add_block : t -> shift:int -> ?len:int -> block -> unit
(** [add_block t ~shift ~len b] adds the clauses of [b] that lie before
    size [len] (default: all of them), each moved up by [shift], in order.
    It is {!add_clause} on each shifted clause: the same root-level
    intake, so the same stored clauses, watches, {!to_dimacs}, search and
    stats.  Normalising before the shift gives the same clause as after
    it, since a common shift keeps the order of the literals.
    @raise Invalid_argument, before the solver changes, if [shift < 0],
    [len] is outside the block, or a replayed literal's variable is not
    allocated.  Clauses past [len] are not checked: a prefix of a block
    built for a larger instance replays into a smaller one.  The block
    records the largest variable before each of its clauses, so the check
    costs one comparison per replay. *)

val solve : ?assumptions:int list -> ?max_conflicts:int -> t -> result
(** Decide satisfiability under the given assumption literals.  Returns
    [Unknown] when [max_conflicts] (default: unlimited) is exhausted — the
    budget that realizes the paper's "FF" formal-tool-timeout outcome.
    The solver may be reused: call {!solve} again, with different
    assumptions or after adding clauses. *)

val value : t -> int -> bool
(** Value of a variable in the model of the last [Sat] answer.
    @raise Invalid_argument if the last result was not [Sat]. *)

val to_dimacs : t -> string
(** The problem clauses in DIMACS CNF (for cross-checking against external
    solvers).  Learned clauses are not included.  Note that root-level
    simplification during {!add_clause} may already have dropped satisfied
    clauses and falsified literals, so this is the simplified instance; and
    propagation moves literals within a stored clause, so after a unit
    clause or a {!solve} a clause's literals may no longer be sorted. *)

val model : t -> bool array
(** The full model, indexed by variable id (entry 0 unused). *)

val stats_conflicts : t -> int
val stats_decisions : t -> int
val stats_propagations : t -> int

type stats = { conflicts : int; decisions : int; propagations : int; restarts : int }
(** Cumulative solver effort since {!create}.  [conflicts] is the budget
    currency of {!solve}'s [max_conflicts]; callers slice shared budgets by
    differencing snapshots around each call. *)

val stats : t -> stats

val stats_diff : stats -> stats -> stats
(** [stats_diff after before]: effort spent between two snapshots. *)

val stats_sum : stats -> stats -> stats
val zero_stats : stats
