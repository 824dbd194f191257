(* The closed-loop runtime guard: mid-life fault onset, adaptive test
   cadence, and checkpoint/rollback recovery.

   The static pipeline (phases 1-2) produces a test suite for a functional
   unit; [Integrate] splices it into an application.  This module closes
   the loop at runtime:

   - {!Injector} models *mid-life onset*: the unit starts healthy and a
     fault-instrumented replica is swapped in at a scheduled instruction
     (optionally intermittently, with a duty knob) — aging faults appear
     gradually in the field, they are not present at reset.
   - {!Monitor} runs an application in bounded slices, interleaving test
     cases at an adaptive cadence (exponential backoff while healthy,
     burst re-testing after a hit to debounce intermittent faults), and
     applies a recovery policy on detection: failover to the golden
     backend, checkpoint/rollback with bounded retries, or abort.

   Both are deterministic given the machine's RNG seed, which is what the
   fault-injection campaign in [Experiments] relies on. *)

module Injector = struct
  type slot = Alu_slot | Fpu_slot

  type schedule = {
    onset_instr : int;  (* retired-instruction count at which the fault appears *)
    duty : (int * int) option;
        (* [Some (on, period)]: after onset the fault is active for [on]
           instructions out of every [period] (an intermittent contact);
           [None]: permanent once it appears *)
  }

  let permanent onset_instr = { onset_instr; duty = None }

  type state = Golden | Faulty | Disabled

  type t = {
    machine : Machine.t;
    slot : slot;
    spec : Fault.spec;
    faulty_sim : Simc.t;
    mutable golden_sim : Simc.t option;
        (* stashed while the faulty replica is installed *)
    schedule : schedule;
    mutable state : state;
    mutable onset : (int * int) option;  (* (instr, cycle) of first activation *)
  }

  let swap t sim =
    match t.slot with
    | Alu_slot -> Machine.swap_alu_unit t.machine sim
    | Fpu_slot -> Machine.swap_fpu_unit t.machine sim

  let create ~machine ~slot ~spec schedule =
    let golden_nl =
      match
        match slot with
        | Alu_slot -> Machine.alu_sim machine
        | Fpu_slot -> Machine.fpu_sim machine
      with
      | Some u -> Simc.netlist u
      | None ->
        invalid_arg "Guard.Injector.create: the targeted unit runs on a functional backend"
    in
    (* A monitored golden unit carries dormant canaries; the aged replica
       carries the same canaries *armed* — swapping it in is the moment
       the unit "ages past the canary guardband", so the trip channel and
       the functional fault onset coincide. *)
    let faulty_base =
      if Canary.has_canaries golden_nl then Canary.arm golden_nl else golden_nl
    in
    let faulty_nl = Fault.failing_netlist faulty_base spec in
    (* CEC gate: with its fault-activation lines tied low — and any canary
       arm cell with them — the instrumented replica must be provably
       equivalent to the golden netlist: a broken instrumentation would
       otherwise corrupt the machine even while the fault is nominally
       dormant.  The proof is structural (hash-consed miter, no SAT
       search), so this is cheap. *)
    (match
       Cec.check ~free_inputs:true
         ~tie_low:(Fault.select_cells faulty_nl @ Canary.arm_cells faulty_nl)
         golden_nl faulty_nl
     with
    | Cec.Equivalent -> ()
    | v ->
      invalid_arg
        (Printf.sprintf
           "Guard.Injector.create: instrumented replica is not equivalent to %s with the fault \
            inert: %s"
           (Netlist.name golden_nl) (Cec.describe v)));
    {
      machine;
      slot;
      spec;
      faulty_sim = Machine.make_unit_sim faulty_nl;
      golden_sim = None;
      schedule;
      state = Golden;
      onset = None;
    }

  let want_active t retired =
    retired >= t.schedule.onset_instr
    &&
    match t.schedule.duty with
    | None -> true
    | Some (on, period) ->
      period > 0 && (retired - t.schedule.onset_instr) mod period < on

  (* Called per retired instruction (the machine's [on_instr] hook); swaps
     the faulty replica in or out according to the schedule.  Cheap when no
     transition is due. *)
  let tick t =
    match t.state with
    | Disabled -> ()
    | cur -> (
      let retired = Machine.instructions_retired t.machine in
      let want = want_active t retired in
      match (cur, want) with
      | Golden, true ->
        t.golden_sim <- swap t (Some t.faulty_sim);
        t.state <- Faulty;
        if t.onset = None then t.onset <- Some (retired, Machine.cycles t.machine)
      | Faulty, false ->
        ignore (swap t t.golden_sim);
        t.state <- Golden
      | _ -> ())

  (* Permanently retire the suspect unit onto the functional golden
     backend — the failover action. *)
  let disable t =
    if t.state <> Disabled then begin
      ignore (swap t None);
      t.state <- Disabled
    end

  let active t = t.state = Faulty
  let disabled t = t.state = Disabled
  let onset t = t.onset
  let spec t = t.spec
end

module Monitor = struct
  type policy =
    | Abort
    | Failover
    | Rollback_retry of { checkpoint_every : int; max_retries : int }

  let policy_name = function
    | Abort -> "abort"
    | Failover -> "failover"
    | Rollback_retry _ -> "rollback"

  type config = {
    cadence : int;  (* initial app instructions between interleaved test slices *)
    backoff : float;  (* cadence multiplier after each healthy slice *)
    max_cadence : int;
    burst : int;  (* full-suite confirmation sweeps after a first hit *)
    policy : policy;
    max_instructions : int;
    final_sweep : bool;  (* run the full suite once more when the app exits *)
    canary_poll : int option;
        (* [Some n]: poll the monitored unit's canary trip port every [n]
           app instructions (the hardware detection channel); [None]: off *)
  }

  let default_config =
    {
      cadence = 200;
      backoff = 1.5;
      max_cadence = 5_000;
      burst = 1;
      policy = Failover;
      max_instructions = 5_000_000;
      final_sweep = true;
      canary_poll = None;
    }

  (* Reject the configurations that would otherwise spin forever or mask
     themselves: a zero cadence used to be silently clamped to 1, a zero
     poll or checkpoint interval would re-fire on every instruction. *)
  let validate_config config =
    if config.cadence <= 0 then
      invalid_arg "Guard.Monitor.run: test cadence must be positive";
    (match config.canary_poll with
    | Some n when n <= 0 ->
      invalid_arg "Guard.Monitor.run: canary poll cadence must be positive"
    | _ -> ());
    if config.max_instructions <= 0 then
      invalid_arg "Guard.Monitor.run: instruction budget must be positive";
    match config.policy with
    | Rollback_retry { checkpoint_every; _ } when checkpoint_every <= 0 ->
      invalid_arg "Guard.Monitor.run: checkpoint interval must be positive"
    | _ -> ()

  type detection = {
    det_id : string;  (* test-case id, with " (stall)" for watchdog hits *)
    det_instr : int;  (* app instructions retired at detection *)
    det_cycle : int;
    det_slice : int;  (* how many guard slices had run *)
  }

  type verdict =
    | App_completed of Machine.outcome  (* the app ran to its own end (possibly after recovery) *)
    | Guard_aborted of string  (* the Abort policy (or an unrecoverable stall) stopped it *)

  type report = {
    r_verdict : verdict;
    r_detections : detection list;  (* chronological *)
    r_onset : (int * int) option;  (* from the injector, when one is attached *)
    r_latency : (int * int) option;  (* (instrs, cycles) from onset to first detection *)
    r_retries : int;  (* rollbacks performed *)
    r_recovered : bool;  (* a recovery action ran and the app continued *)
    r_app_instructions : int;
    r_app_cycles : int;
    r_guard_cycles : int;  (* cycles spent executing interleaved test cases *)
    r_guard_slices : int;
    r_lost_cycles : int;  (* app cycles discarded by rollbacks *)
    r_lost_instructions : int;
    r_checkpoints : int;
    r_final_cadence : int;
    r_canary_polls : int;  (* trip-port reads performed *)
  }

  (* Run [cases] on the machine, preserving the application's architectural
     state around the excursion (the machine resumes exactly where it left
     off).  Stops at the first failure.  Returns the result and the cycles
     spent.  Assumes the machine is drained (a slice pause point). *)
  let run_cases m cases =
    let snap = Machine.snapshot m in
    let spent = ref 0 in
    let rec go = function
      | [] -> Ok ()
      | (tc : Lift.test_case) :: rest -> (
        let verdict = Integrate.Runner.run_case m tc in
        spent := !spent + Machine.cycles m;
        match verdict with
        | Ok () -> go rest
        | Error o -> Error (Integrate.Runner.detection_id tc o))
    in
    let result = go cases in
    Machine.restore m snap;
    (result, !spent)

  let tele_slices = Telemetry.Counter.make "guard.slices"
  let tele_detections = Telemetry.Counter.make "guard.detections"
  let tele_test_cycles = Telemetry.Counter.make "guard.test_cycles"

  let tele_latency =
    Telemetry.Histogram.make "guard.detection_latency"
      ~bounds:[| 16; 64; 256; 1024; 4096; 16384; 65536 |]

  let tele_polls = Telemetry.Counter.make "canary.polls"
  let tele_trips = Telemetry.Counter.make "canary.trips"

  let run ?(config = default_config) ?injector ~suite m (prog : Isa.program) =
    validate_config config;
    let tele = Telemetry.enabled () in
    if tele then Telemetry.begin_span ~cat:"guard" "guard.run";
    let cases = Array.of_list suite.Lift.suite_cases in
    let n_cases = Array.length cases in
    let cadence = ref config.cadence in
    let poll_cadence = match config.canary_poll with Some n -> n | None -> 0 in
    let until_test = ref !cadence in
    let until_poll = ref poll_cadence in
    let canary_polls = ref 0 in
    let slice_idx = ref 0 in
    let detections = ref [] in
    let retries = ref 0 in
    let guard_cycles = ref 0 in
    let guard_slices = ref 0 in
    let lost_cycles = ref 0 in
    let lost_instrs = ref 0 in
    let checkpoints = ref 0 in
    let recovered = ref false in
    let executed = ref 0 in
    let on_instr =
      match injector with None -> fun _ -> () | Some inj -> fun _ -> Injector.tick inj
    in
    let record_detection id =
      detections :=
        {
          det_id = id;
          det_instr = Machine.instructions_retired m;
          det_cycle = Machine.cycles m;
          det_slice = !slice_idx;
        }
        :: !detections
    in
    let full_suite () =
      let result, spent = run_cases m (Array.to_list cases) in
      guard_cycles := !guard_cycles + spent;
      result
    in
    (* Failover action: permanently retire the suspect unit onto its
       functional golden backend.  Without an injector the suspect unit is
       inferred from the suite's target. *)
    let swap_to_golden () =
      match injector with
      | Some inj -> Injector.disable inj
      | None -> (
        match suite.Lift.suite_target with
        | Lift.Alu_module _ -> ignore (Machine.swap_alu_unit m None)
        | Lift.Fpu_module _ -> ignore (Machine.swap_fpu_unit m None))
    in
    (* The hardware channel: read the monitored unit's sticky trip port.
       A poll is a register read — no test excursion, no machine-state
       change — so its cadence can be far tighter than the test cadence.
       After failover the unit runs functionally and the channel goes
       quiet on its own. *)
    let target_unit_sim () =
      match suite.Lift.suite_target with
      | Lift.Alu_module _ -> Machine.alu_sim m
      | Lift.Fpu_module _ -> Machine.fpu_sim m
    in
    let polling () =
      poll_cadence > 0
      &&
      match target_unit_sim () with
      | Some us -> Canary.has_canaries (Simc.netlist us)
      | None -> false
    in
    let poll_canaries () =
      incr canary_polls;
      Telemetry.Counter.incr tele_polls;
      match target_unit_sim () with
      | None -> None
      | Some us ->
        let mask = Bitvec.to_int (Simc.output us ~lane:0 Canary.trip_port) in
        if mask = 0 then None
        else begin
          Telemetry.Counter.incr tele_trips;
          Some (Printf.sprintf "__canary (trip 0x%x)" mask)
        end
    in
    (* Checkpoints are taken only after the full suite passes, so for a
       permanent (detectable) fault every checkpoint predates any silent
       corruption: once the fault is active the verification sweep fails
       and no checkpoint is taken. *)
    let checkpoint = ref None in
    let last_cp_instr = ref min_int in
    let take_checkpoint pc =
      checkpoint := Some (Machine.snapshot m, pc, Machine.instructions_retired m, Machine.cycles m);
      last_cp_instr := Machine.instructions_retired m;
      incr checkpoints
    in
    let rec exec pc =
      if !executed >= config.max_instructions then App_completed Machine.Out_of_fuel
      else begin
        let budget = min (max 1 !until_test) (config.max_instructions - !executed) in
        let budget = if polling () then min budget (max 1 !until_poll) else budget in
        let before = Machine.instructions_retired m in
        let result = Machine.run_slice ~on_instr ~pc ~budget m prog in
        let ran = Machine.instructions_retired m - before in
        executed := !executed + ran;
        until_test := !until_test - ran;
        until_poll := !until_poll - ran;
        match result with
        | Machine.Completed Machine.Stalled ->
          (* the application itself wedged: watchdog detection *)
          record_detection "__app (stall)";
          recover_from_stall ()
        | Machine.Completed o -> finish o
        | Machine.Paused pc' -> pause pc'
      end
    and pause pc' =
      (* the canary channel runs first: it is cheap, and a trip preempts
         the software test slice *)
      if polling () && !until_poll <= 0 then begin
        until_poll := poll_cadence;
        match poll_canaries () with
        | Some id ->
          record_detection id;
          escalate pc' id
        | None -> if !until_test <= 0 then guard_slice pc' else exec pc'
      end
      else if !until_test <= 0 then guard_slice pc'
      else exec pc'
    and guard_slice pc' =
      if n_cases = 0 then begin
        until_test := !cadence;
        exec pc'
      end
      else begin
        let tc = cases.(!slice_idx mod n_cases) in
        incr slice_idx;
        incr guard_slices;
        let result, spent = run_cases m [ tc ] in
        guard_cycles := !guard_cycles + spent;
        match result with
        | Ok () ->
          cadence :=
            min config.max_cadence
              (max (!cadence + 1) (int_of_float (float_of_int !cadence *. config.backoff)));
          until_test := !cadence;
          (match config.policy with
          | Rollback_retry { checkpoint_every; _ }
            when Machine.instructions_retired m - !last_cp_instr >= checkpoint_every -> (
            (* verify with the full suite before trusting this state *)
            match full_suite () with
            | Ok () ->
              take_checkpoint pc';
              exec pc'
            | Error id ->
              record_detection id;
              escalate pc' id)
          | _ -> exec pc')
        | Error id ->
          record_detection id;
          escalate pc' id
      end
    and escalate pc' id =
      (* burst re-testing: debounce/confirm before recovery acts *)
      for _ = 1 to config.burst do
        match full_suite () with Ok () -> () | Error id2 -> record_detection id2
      done;
      cadence := config.cadence;
      until_test := !cadence;
      until_poll := poll_cadence;
      match config.policy with
      | Abort -> Guard_aborted id
      | Failover ->
        swap_to_golden ();
        recovered := true;
        exec pc'
      | Rollback_retry _ -> rollback id
    and rollback id =
      match (config.policy, !checkpoint) with
      | Rollback_retry { max_retries; _ }, _ when !retries >= max_retries -> Guard_aborted id
      | _, None -> Guard_aborted id
      | _, Some (snap, cpc, cp_instr, cp_cycle) ->
        incr retries;
        let discarded = Machine.instructions_retired m - cp_instr in
        lost_instrs := !lost_instrs + discarded;
        lost_cycles := !lost_cycles + (Machine.cycles m - cp_cycle);
        (* the discarded instructions will be re-executed: give the fuel back
           so [max_instructions] caps forward progress, not total work *)
        executed := max 0 (!executed - discarded);
        Machine.restore m snap;
        (* re-execute on the golden unit: the suspect backend is retired *)
        swap_to_golden ();
        recovered := true;
        until_test := !cadence;
        until_poll := poll_cadence;
        exec cpc
    and recover_from_stall () =
      match config.policy with
      | Rollback_retry _ -> rollback "__app (stall)"
      | Abort | Failover ->
        (* the stall interrupted an instruction mid-flight; without a
           checkpoint there is no coherent resume point *)
        Guard_aborted "__app (stall)"
    and finish o =
      if config.final_sweep && n_cases > 0 then begin
        match full_suite () with
        | Ok () -> App_completed o
        | Error id -> (
          record_detection id;
          match config.policy with
          | Abort -> Guard_aborted id
          | Failover ->
            swap_to_golden ();
            recovered := true;
            App_completed o
          | Rollback_retry _ -> rollback id)
      end
      else App_completed o
    in
    (match config.policy with
    | Rollback_retry _ ->
      (* pc 0, before any instruction (and any injector activation): clean
         by construction *)
      take_checkpoint 0
    | _ -> ());
    let verdict = exec 0 in
    let detections = List.rev !detections in
    let onset = Option.bind injector Injector.onset in
    let latency =
      match (onset, detections) with
      | Some (oi, oc), d :: _ -> Some (d.det_instr - oi, d.det_cycle - oc)
      | _ -> None
    in
    Telemetry.Counter.add tele_slices !guard_slices;
    Telemetry.Counter.add tele_detections (List.length detections);
    Telemetry.Counter.add tele_test_cycles !guard_cycles;
    (match latency with
    | Some (instrs, _) -> Telemetry.Histogram.observe tele_latency instrs
    | None -> ());
    if tele then
      Telemetry.end_span
        ~args:
          [
            ( "verdict",
              Telemetry.Str
                (match verdict with App_completed _ -> "completed" | Guard_aborted _ -> "aborted")
            );
            ("slices", Telemetry.Int !guard_slices);
            ("detections", Telemetry.Int (List.length detections));
            ("guard_cycles", Telemetry.Int !guard_cycles);
            ("app_cycles", Telemetry.Int (Machine.cycles m));
          ]
        ();
    {
      r_verdict = verdict;
      r_detections = detections;
      r_onset = onset;
      r_latency = latency;
      r_retries = !retries;
      r_recovered = !recovered;
      r_app_instructions = Machine.instructions_retired m;
      r_app_cycles = Machine.cycles m;
      r_guard_cycles = !guard_cycles;
      r_guard_slices = !guard_slices;
      r_lost_cycles = !lost_cycles;
      r_lost_instructions = !lost_instrs;
      r_checkpoints = !checkpoints;
      r_final_cadence = !cadence;
      r_canary_polls = !canary_polls;
    }

  let detected r = r.r_detections <> []

  let render r =
    let buf = Buffer.create 256 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    (match r.r_verdict with
    | App_completed o -> add "verdict: app %s\n" (Format.asprintf "%a" Machine.pp_outcome o)
    | Guard_aborted id -> add "verdict: aborted on [%s]\n" id);
    (match r.r_onset with
    | Some (i, c) -> add "onset: instr %d, cycle %d\n" i c
    | None -> add "onset: none (healthy run)\n");
    List.iter
      (fun d -> add "detection: [%s] at instr %d, cycle %d (slice %d)\n" d.det_id d.det_instr d.det_cycle d.det_slice)
      r.r_detections;
    (match r.r_latency with
    | Some (i, c) -> add "detection latency: %d instructions, %d cycles\n" i c
    | None -> ());
    add "recovery: %s, %d rollback(s), %d checkpoint(s), lost %d cycles\n"
      (if r.r_recovered then "yes" else "no")
      r.r_retries r.r_checkpoints r.r_lost_cycles;
    add "guard: %d slices, %d cycles, %d canary poll(s); app: %d instrs, %d cycles; final cadence %d\n"
      r.r_guard_slices r.r_guard_cycles r.r_canary_polls r.r_app_instructions r.r_app_cycles
      r.r_final_cadence;
    Buffer.contents buf
end
