(** The random test-suite baseline of Table 7.

    Produces suites "in the style and quantity of Vega's trace-generated
    test cases": each case verifies the functional correctness of a single
    random instruction from the module's operation set on random inputs,
    with expected values from the golden models.  Suites plug into the same
    {!Lift.suite} machinery (sequential execution, branch-to-fail
    detection) used by the Vega-generated suites, making the comparison
    head-to-head. *)

val random_alu_suite : ?seed:int -> width:int -> cases:int -> unit -> Lift.suite
(** [cases] single-operation test cases over uniformly random opcodes and
    operands. *)

val random_fpu_suite : ?seed:int -> fmt:Fpu_format.fmt -> cases:int -> unit -> Lift.suite
(** Random FPU cases; operand bit patterns are drawn uniformly, so specials
    (NaN/inf/zero) occur at their natural encoding density. *)

val matched_suite : ?seed:int -> Lift.suite -> Lift.suite
(** A random suite size-matched to an existing Vega suite (same module,
    same number of cases) — the construction used for Table 7. *)

val scoap_ranked_pairs :
  Netlist.t ->
  (Sta.startpoint * Sta.endpoint * Sta.check * float) list ->
  (Sta.startpoint * Sta.endpoint * Sta.check * float) list
(** Reorder violating register pairs hardest-to-test first, by SCOAP
    testability ({!Scoap.pair_difficulty}: controllability of the launching
    net both ways plus observability of the capturing register).  Formal
    test derivation then attacks the hard-to-observe paths first, which is
    where the formal engine's budget matters most — easy pairs would also
    fall to cheap random search.  The sort is stable, so equally-hard pairs
    keep their worst-slack-first order. *)

val random_unit_ops :
  ?seed:int -> len:int -> Lift.module_kind -> (string * Bitvec.t) list array
(** [len] uniformly random unit operations (opcode + operand port
    assignments) in the stream format recorded by [Vega.recorded_unit_ops]
    — the seed-deterministic random baseline the adversarial stress search
    starts from and mutates.  @raise Invalid_argument if [len < 0]. *)

val random_baseline_detection :
  ?seed:int -> runs:int -> Lift.suite -> Netlist.t -> float
(** Table-7-style baseline on the word-parallel fast path: the fraction of
    [runs] size-matched random suites (seeds derived deterministically
    from [seed]) that detect the fault in [faulty], evaluated at netlist
    level via {!Lift.detects} — no machine in the loop, so wide sweeps are
    cheap.
    @raise Invalid_argument if [runs <= 0]. *)
