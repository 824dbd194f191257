(** In-situ aging canary monitors: aged-replica copies of near-critical
    paths, compared against fresh replicas by an XOR comparator whose
    verdict latches into a sticky trip register — the hardware-style second
    detection channel that complements Vega's software test sequences
    (after "A Survey of Aging Monitors and Reconfiguration Techniques").

    The insertion pass is purely additive: canary logic only {e reads}
    original nets and drives only the new [canary_trip] output port, so
    the instrumented netlist is combinationally equivalent to the original
    on every pre-existing comparison point — and {!verify} proves exactly
    that with the {!Cec} miter before a monitored netlist is ever used.

    Because gate delays live in the timing model rather than the netlist,
    the aged replica's late capture is modeled functionally: a corruption
    mux flips the replica's captured value whenever the launching register
    toggles {e and} the shared arm cell is set — the cycle in which a
    replica path slower than the clock would capture the stale value.
    Arming is a one-cell rewrite ({!arm}: the [Tie0] arm cell becomes
    [Tie1]), mirroring how {!Fault.failing_netlist} models the aged unit
    itself, so a campaign can run the very netlist it proved inert. *)

type canary = {
  cn_index : int;  (** bit position in the [canary_trip] port *)
  cn_start : string;  (** launching DFF instance of the monitored path *)
  cn_end : string;  (** capturing DFF instance of the monitored path *)
  cn_cells : int;  (** replica chain length (combinational cells copied) *)
  cn_arrival_ps : float;
      (** arrival of the path under the planning timing, before the
          pessimism scaling (see {!plan}) *)
  cn_slack_ps : float;  (** slack of the path under the pessimistic corner *)
}

val trip_port : string
(** ["canary_trip"] — the sticky trip output port, one bit per canary
    (LSB = canary 0). *)

val arm_cell : string
(** ["_canary_arm"] — the shared arming tie cell's instance name. *)

val has_canaries : Netlist.t -> bool
(** The netlist carries a [canary_trip] output port. *)

val count : Netlist.t -> int
(** Number of canaries (the trip port's width); 0 when none. *)

val arm_cells : Netlist.t -> string list
(** The arm cell's name when present, [[]] otherwise — ready to splice
    into a {!Cec.check} [tie_low] list so armed canaries are proven inert
    alongside dormant fault instrumentation. *)

val armed : Netlist.t -> bool
(** The arm cell is present and set ([Tie1]). *)

val arm : Netlist.t -> Netlist.t
(** Copy with the arm cell set: every canary's corruption mux becomes
    live.  @raise Invalid_argument if the netlist has no canaries. *)

val disarm : Netlist.t -> Netlist.t
(** Copy with the arm cell cleared (the inverse of {!arm}). *)

val plan :
  ?count:int ->
  ?pessimism:float ->
  Netlist.t ->
  timing:Sta.timing_source ->
  clock_period_ps:float ->
  Sta.path list
(** Select up to [count] (default 2) register-launched setup paths to
    monitor, worst-slack first with distinct capturing endpoints.  A path
    qualifies when its arrival under [timing] scaled by [pessimism]
    (default 1.25, the canary's built-in guardband) exceeds
    [clock_period_ps]; equivalently the analysis runs at
    [clock_period_ps /. pessimism].  The attack campaign plans at its
    aged corner; [vega monitors] plans at the fresh phase-1 corner, so
    [pessimism] alone stands in for the aging there.  Empty when the
    design clears even the pessimistic corner. *)

val insert : Netlist.t -> Sta.path list -> Netlist.t * canary list
(** Rewrite the netlist with one canary per path (in order; canary [i]
    is trip bit [i]): the path's combinational chain is replicated with
    side inputs shared, a history register detects launch transitions,
    fresh and aged replica registers capture the chain, and their XOR
    latches into a sticky trip register.  The shared arm cell is created
    cleared ([Tie0]): the inserted netlist is dormant and bit-identical
    in behaviour to the original on all original ports.

    @raise Invalid_argument if the netlist already has canaries, a path
    is not a register-launched setup path, or a path does not thread
    through the netlist (stale ids). *)

val describe : canary list -> string
(** Deterministic one-line-per-canary rendering for reports. *)

val verify :
  ?check_trip:bool ->
  ?max_conflicts:int ->
  original:Netlist.t ->
  Netlist.t ->
  (unit, string) result
(** The monitored netlist's acceptance gate, in order:

    {ol
    {- structural lint must report no error-class defects;}
    {- {!Cec.check} [~free_inputs] must prove the monitored netlist
       equivalent to [original] on every original comparison point — the
       canary logic, armed or not, must be provably inert;}
    {- (with [check_trip], default [true]) a BMC cover on the disarmed
       netlist must find {e no} reachable trip — a mutated comparator
       (e.g. XOR turned XNOR) trips spontaneously and is caught here;}
    {- (with [check_trip]) the same cover on the armed netlist must find
       a trip trace — the canary can actually fire.}}

    Returns [Error] with the first failing check's report.  The sticky
    trip register's self-loop makes the trip covers bounded claims rather
    than proofs; the CEC inertness proof in step 2 is unconditional. *)
