(** Adversarial wearout search: Vega inverted.

    Phase 1 measures how a {e representative} workload ages a unit; this
    module searches for the workload an adversary (or an unlucky job mix)
    would run to age {e chosen cells} as fast as possible, after "Targeted
    Wearout Attacks in Microprocessor Cores" (PAPERS.md).  Because BTI
    stress grows as a cell's output idles at logical 0 ({!Aging.duty_of_sp}
    is monotonically decreasing in signal probability), the search
    maximizes the mean stress duty of the target cells — equivalently it
    {e minimizes} their SP — over the space of unit operation streams.

    The search is seeded hill climbing with a decaying-temperature
    annealing escape hatch, evaluated on the batched SP-replay fast path
    ({!Vega.replay_sp} on {!Simc}), plus an optional
    SAT-assisted mode that asks the CDCL solver for a steady-state input
    assignment forcing a target cell's output low through its input cone —
    the found pattern becomes a "hold" segment in the mutation pool.
    Everything is deterministic per seed. *)

type config = {
  atk_seed : int;
  atk_len : int;  (** operations per candidate stream *)
  atk_iters : int;  (** mutate/evaluate iterations *)
  atk_sat_assist : bool;  (** derive hold patterns from the SAT solver *)
  atk_temp : float;  (** initial annealing temperature; 0 = pure hill climb *)
  atk_aging : Aging.config;  (** the duty model scored by the objective *)
}

val default_config : config
(** seed 0xA77, 64-op streams, 40 iterations, SAT assist on, temperature
    0.05, default aging corner. *)

type cell_stress = {
  cs_cell : string;  (** target cell instance name *)
  cs_baseline_sp : float;  (** its SP under the seed-matched random stream *)
  cs_attacked_sp : float;  (** its SP under the best stream found *)
}

type result = {
  atk_cells : cell_stress list;  (** in the caller's target order *)
  atk_baseline : float;  (** objective of the random baseline stream *)
  atk_best : float;  (** objective of the best stream found *)
  atk_evals : int;  (** SP replays spent *)
  atk_sat_patterns : int;  (** hold patterns the SAT assist contributed *)
  atk_ops : (string * Bitvec.t) list array;  (** the winning stream *)
  atk_sp_of_net : Netlist.net -> float;  (** SP profile the winner induces *)
  atk_samples : int;  (** replay samples behind that profile *)
}

val skew : result -> float
(** [atk_best -. atk_baseline] — never negative: the baseline is the
    search's starting candidate, and the best-ever candidate is kept. *)

val default_targets : ?n:int -> Netlist.t -> string list
(** Up to [n] (default 16) combinational cells on the worst fresh critical
    paths, endpoint-nearest first — the cells whose aging moves the
    violating corner soonest, and the default victims of the campaign.
    The default deliberately covers most of the worst path: attacking only
    a handful of its cells lets a toggle-happy random workload age the
    {e rest} of the path faster than the attack's hold patterns do. *)

val search : ?config:config -> Lift.target -> cells:string list -> result
(** Run the search.  @raise Invalid_argument on an empty or unknown target
    cell list, or a non-positive stream length. *)

val time_to_violation :
  ?years_max:float ->
  ?precision:float ->
  timing_of_years:(float -> Sta.timing_source) ->
  clock_period_ps:float ->
  Netlist.t ->
  float option
(** Bisect the service age (in years, to [precision], default 0.05) at
    which the first register pair violates timing under the given aging
    corner — aged arrivals grow monotonically with age, so bisection is
    exact.  [None] when even [years_max] (default 30) stays clean.  The
    acceleration factor of an attack is [ttv nominal /. ttv attack]. *)

val workload_program : Lift.module_kind -> (string * Bitvec.t) list array -> Isa.program
(** Materialize an operation stream as an ISA program (load operands,
    issue the operation; FPU streams move operands through [Fmv_wx]),
    terminated by a clean exit — the attack stream as a runnable kernel
    for the guard campaign.  Idle FPU entries (in_valid 0) are skipped. *)

val render : result -> string
(** Deterministic multi-line report (the golden-diffed artifact). *)
