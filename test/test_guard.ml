(* Tests for the closed-loop runtime guard: mid-life fault onset, adaptive
   test cadence, stall-as-detection, recovery policies, and the
   fault-injection campaign driver. *)

let width = 16
let fmt = Fpu_format.binary16
let alu_target = Lift.alu_target ~width ()
let fpu16 = Fpu.netlist ~fmt ()

let alu_spec =
  {
    Fault.start_dff = "a_q0";
    end_dff = "r_q0";
    kind = Fault.Setup_violation;
    constant = Fault.C0;
    activation = Fault.Any_transition;
  }

(* A real lifted suite for the injected ALU pair — the same construction the
   campaign uses, so detection semantics are the production ones. *)
let alu_suite =
  let r =
    Lift.lift_pair alu_target ~start_dff:alu_spec.Fault.start_dff
      ~end_dff:alu_spec.Fault.end_dff ~violation:alu_spec.Fault.kind
  in
  Lift.suite_of_results alu_target.Lift.kind [ r ]

(* The FPU suite is synthetic: golden-expected Fadd steps.  Any FPU case
   suffices for the stall tests — detection manifests as the watchdog, not
   as a wrong value. *)
let fpu_spec =
  {
    Fault.start_dff = "v_q";
    end_dff = "v_out";
    kind = Fault.Hold_violation;
    constant = Fault.C_random;
    activation = Fault.Any_transition;
  }

let fadd_step a b =
  let av = Fpu_format.of_float fmt a and bv = Fpu_format.of_float fmt b in
  let r, fl = Fpu.golden fmt Fpu_format.Fadd av bv in
  {
    Lift.f_op = Fpu_format.Fadd;
    f_lhs = Bitvec.to_int av;
    f_rhs = Bitvec.to_int bv;
    f_expected = Bitvec.to_int r;
    f_flags = fl;
  }

let fpu_suite =
  {
    Lift.suite_target = Lift.Fpu_module { fmt };
    suite_cases =
      [
        {
          Lift.tc_id = "fpu-valid";
          tc_spec = fpu_spec;
          tc_body = Lift.Fpu_test [ fadd_step 1.5 2.25; fadd_step 0.5 0.75 ];
          tc_may_stall = true;
          tc_checks_flags = false;
        };
      ];
  }

let machine ?(seed = 7) ~alu ~fpu () =
  let config = { Machine.default_config with Machine.width; fmt; rng_seed = seed } in
  Machine.create ~config ~alu ~fpu ()

(* A pure-ALU countdown loop: ~3 instructions per iteration. *)
let app_prog n =
  Isa.assemble
    [ Isa.Li (1, n); Isa.Label "loop"; Isa.Alui (Alu.Sub, 1, 1, 1); Isa.Bne (1, 0, "loop");
      Isa.Ecall 0 ]

let test_injector_onset_timing () =
  let m = machine ~alu:(Machine.Alu_netlist alu_target.Lift.netlist) ~fpu:Machine.Fpu_functional () in
  Machine.reset m;
  let inj =
    Guard.Injector.create ~machine:m ~slot:Guard.Injector.Alu_slot ~spec:alu_spec
      (Guard.Injector.permanent 100)
  in
  let first_active = ref None in
  let on_instr _pc =
    Guard.Injector.tick inj;
    if Guard.Injector.active inj && !first_active = None then
      first_active := Some (Machine.instructions_retired m)
  in
  let _ = Machine.run ~on_instr m (app_prog 100) in
  Alcotest.(check (option int)) "activates exactly at onset" (Some 100) !first_active;
  (match Guard.Injector.onset inj with
  | Some (n, _) -> Alcotest.(check int) "onset recorded" 100 n
  | None -> Alcotest.fail "no onset recorded");
  Guard.Injector.disable inj;
  Alcotest.(check bool) "disabled" true (Guard.Injector.disabled inj);
  Alcotest.(check bool) "inactive after disable" false (Guard.Injector.active inj)

let test_injector_rejects_functional_backend () =
  let m = machine ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional () in
  match
    Guard.Injector.create ~machine:m ~slot:Guard.Injector.Alu_slot ~spec:alu_spec
      (Guard.Injector.permanent 1)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for functional backend"

(* C_random hold violation on the FPU valid handshake: the app (pure ALU)
   never notices, but the next interleaved FPU test case wedges the unit.
   The machine watchdog turns that into [Machine.Stalled], the monitor books
   it as a detection with a " (stall)" marker, and failover recovery retires
   the unit so the app still completes. *)
let test_stall_detection_and_recovery () =
  let m = machine ~seed:1 ~alu:Machine.Alu_functional ~fpu:(Machine.Fpu_netlist fpu16) () in
  Machine.reset m;
  let inj =
    Guard.Injector.create ~machine:m ~slot:Guard.Injector.Fpu_slot ~spec:fpu_spec
      (Guard.Injector.permanent 50)
  in
  let config =
    {
      Guard.Monitor.default_config with
      Guard.Monitor.cadence = 20;
      max_cadence = 100;
      policy = Guard.Monitor.Failover;
      max_instructions = 100_000;
    }
  in
  let report = Guard.Monitor.run ~config ~injector:inj ~suite:fpu_suite m (app_prog 300) in
  (match report.Guard.Monitor.r_verdict with
  | Guard.Monitor.App_completed (Machine.Exited 0) -> ()
  | Guard.Monitor.App_completed o ->
    Alcotest.failf "app did not complete cleanly: %a" Machine.pp_outcome o
  | Guard.Monitor.Guard_aborted why -> Alcotest.failf "guard aborted: %s" why);
  Alcotest.(check bool) "detected" true (Guard.Monitor.detected report);
  let det =
    match report.Guard.Monitor.r_detections with
    | d :: _ -> d
    | [] -> Alcotest.fail "no detections"
  in
  let suffix = " (stall)" in
  let id = det.Guard.Monitor.det_id in
  Alcotest.(check bool)
    (Printf.sprintf "detection %S is a stall" id)
    true
    (String.length id > String.length suffix
    && String.sub id (String.length id - String.length suffix) (String.length suffix) = suffix);
  Alcotest.(check bool) "recovered" true report.Guard.Monitor.r_recovered;
  Alcotest.(check bool) "unit retired" true (Guard.Injector.disabled inj);
  (match report.Guard.Monitor.r_latency with
  | Some (instrs, cycles) ->
    Alcotest.(check bool) "finite positive latency" true (instrs >= 0 && cycles > 0)
  | None -> Alcotest.fail "no latency measured")

let crc = Workload.find "crc"
let compiled_crc = Minic.assemble (Minic.compile ~width ~fmt crc.Workload.program)

let golden_crc =
  let m = machine ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional () in
  Machine.reset m;
  (match Machine.run ~max_instructions:5_000_000 m compiled_crc with
  | Machine.Exited 0 -> ()
  | o -> Alcotest.failf "golden crc run failed: %a" Machine.pp_outcome o);
  (Bitvec.to_int (Machine.mem m Workload.checksum_address), Machine.instructions_retired m)

let crc_onset () =
  let _, golden_instrs = golden_crc in
  golden_instrs / 5

(* Without the guard, the mid-life C=0 fault corrupts the checksum but the
   kernel still exits cleanly: a silent data corruption escape. *)
let test_unguarded_escape () =
  let golden_sum, _ = golden_crc in
  let m = machine ~alu:(Machine.Alu_netlist alu_target.Lift.netlist) ~fpu:Machine.Fpu_functional () in
  Machine.reset m;
  let inj =
    Guard.Injector.create ~machine:m ~slot:Guard.Injector.Alu_slot ~spec:alu_spec
      (Guard.Injector.permanent (crc_onset ()))
  in
  (match
     Machine.run ~max_instructions:1_000_000 ~on_instr:(fun _ -> Guard.Injector.tick inj) m
       compiled_crc
   with
  | Machine.Exited 0 -> ()
  | o -> Alcotest.failf "expected a clean (corrupt) exit, got %a" Machine.pp_outcome o);
  let sum = Bitvec.to_int (Machine.mem m Workload.checksum_address) in
  Alcotest.(check bool) "checksum silently corrupted" true (sum <> golden_sum)

(* Under checkpoint/rollback the same fault is detected, the app rolls back
   to a verified checkpoint, re-executes on the golden backend, and the
   final checksum matches the fault-free run. *)
let test_rollback_recovers_golden_checksum () =
  let golden_sum, _ = golden_crc in
  let m = machine ~alu:(Machine.Alu_netlist alu_target.Lift.netlist) ~fpu:Machine.Fpu_functional () in
  Machine.reset m;
  let inj =
    Guard.Injector.create ~machine:m ~slot:Guard.Injector.Alu_slot ~spec:alu_spec
      (Guard.Injector.permanent (crc_onset ()))
  in
  let config =
    {
      Guard.Monitor.default_config with
      Guard.Monitor.cadence = 100;
      max_cadence = 2_000;
      policy = Guard.Monitor.Rollback_retry { checkpoint_every = 2_000; max_retries = 3 };
      max_instructions = 1_000_000;
    }
  in
  let report = Guard.Monitor.run ~config ~injector:inj ~suite:alu_suite m compiled_crc in
  (match report.Guard.Monitor.r_verdict with
  | Guard.Monitor.App_completed (Machine.Exited 0) -> ()
  | Guard.Monitor.App_completed o -> Alcotest.failf "app failed: %a" Machine.pp_outcome o
  | Guard.Monitor.Guard_aborted why -> Alcotest.failf "guard aborted: %s" why);
  Alcotest.(check bool) "detected" true (Guard.Monitor.detected report);
  Alcotest.(check bool) "recovered" true report.Guard.Monitor.r_recovered;
  Alcotest.(check bool) "rolled back at least once" true (report.Guard.Monitor.r_retries >= 1);
  Alcotest.(check bool) "checkpoints were taken" true (report.Guard.Monitor.r_checkpoints >= 1);
  let sum = Bitvec.to_int (Machine.mem m Workload.checksum_address) in
  Alcotest.(check int) "checksum matches the golden run" golden_sum sum;
  (match report.Guard.Monitor.r_latency with
  | Some (instrs, _) -> Alcotest.(check bool) "finite latency" true (instrs >= 0)
  | None -> Alcotest.fail "no latency measured");
  Alcotest.(check bool) "cadence backed off while healthy" true
    (report.Guard.Monitor.r_final_cadence >= 100)

(* Degenerate monitor configurations must be rejected up front — a zero
   cadence used to be silently clamped, a zero poll interval would re-fire
   on every instruction. *)
let test_config_rejects_degenerate () =
  let m = machine ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional () in
  let run config = ignore (Guard.Monitor.run ~config ~suite:alu_suite m (app_prog 10)) in
  Alcotest.check_raises "zero test cadence"
    (Invalid_argument "Guard.Monitor.run: test cadence must be positive") (fun () ->
      run { Guard.Monitor.default_config with Guard.Monitor.cadence = 0 });
  Alcotest.check_raises "zero canary poll cadence"
    (Invalid_argument "Guard.Monitor.run: canary poll cadence must be positive") (fun () ->
      run { Guard.Monitor.default_config with Guard.Monitor.canary_poll = Some 0 });
  Alcotest.check_raises "zero instruction budget"
    (Invalid_argument "Guard.Monitor.run: instruction budget must be positive") (fun () ->
      run { Guard.Monitor.default_config with Guard.Monitor.max_instructions = 0 });
  Alcotest.check_raises "zero checkpoint interval"
    (Invalid_argument "Guard.Monitor.run: checkpoint interval must be positive") (fun () ->
      run
        {
          Guard.Monitor.default_config with
          Guard.Monitor.policy =
            Guard.Monitor.Rollback_retry { checkpoint_every = 0; max_retries = 1 };
        })

(* The hardware channel end to end: a canary-monitored ALU, an injector
   whose aged replica arms the canaries at onset, and a poll cadence much
   tighter than the test cadence.  The canary trip must come in first and
   beat the software-tests-only configuration's detection latency. *)
let test_canary_channel_beats_software_tests () =
  let nl = alu_target.Lift.netlist in
  let paths =
    Canary.plan ~count:2 nl ~timing:(Sta.fresh_timing Cell.Library.c28) ~clock_period_ps:1.0
  in
  Alcotest.(check bool) "paths planned" true (paths <> []);
  let monitored, _ = Canary.insert nl paths in
  let run_with canary_poll =
    let m = machine ~alu:(Machine.Alu_netlist monitored) ~fpu:Machine.Fpu_functional () in
    Machine.reset m;
    let inj =
      Guard.Injector.create ~machine:m ~slot:Guard.Injector.Alu_slot ~spec:alu_spec
        (Guard.Injector.permanent 100)
    in
    let config =
      {
        Guard.Monitor.default_config with
        Guard.Monitor.cadence = 400;
        max_cadence = 1_000;
        max_instructions = 100_000;
        canary_poll;
      }
    in
    Guard.Monitor.run ~config ~injector:inj ~suite:alu_suite m (app_prog 300)
  in
  let with_canary = run_with (Some 25) in
  let sw_only = run_with None in
  Alcotest.(check int) "software-only run never polls" 0 sw_only.Guard.Monitor.r_canary_polls;
  Alcotest.(check bool) "canary run polls" true (with_canary.Guard.Monitor.r_canary_polls > 0);
  let first = function
    | { Guard.Monitor.r_detections = d :: _; _ } -> d
    | _ -> Alcotest.fail "no detection"
  in
  let cd = first with_canary and sd = first sw_only in
  Alcotest.(check bool)
    (Printf.sprintf "first detection %S is a canary trip" cd.Guard.Monitor.det_id)
    true
    (String.length cd.Guard.Monitor.det_id >= 8
    && String.sub cd.Guard.Monitor.det_id 0 8 = "__canary");
  ignore sd;
  match (with_canary.Guard.Monitor.r_latency, sw_only.Guard.Monitor.r_latency) with
  | Some (ci, _), Some (si, _) ->
    Alcotest.(check bool)
      (Printf.sprintf "canary latency %d < software latency %d" ci si)
      true (ci < si)
  | _ -> Alcotest.fail "latency missing"

(* The campaign driver on a minimal configuration: the acceptance invariants
   plus bit-identical output across two invocations (the CI contract). *)
let test_campaign_acceptance_and_determinism () =
  let config =
    {
      Experiments.quick_campaign with
      Experiments.cg_kernels = [ "crc" ];
      cg_specs_per_unit = 1;
      cg_constants = [ Fault.C0 ];
    }
  in
  let rows1 = Experiments.campaign ~config () in
  let rows2 = Experiments.campaign ~config () in
  Alcotest.(check string) "deterministic rendering" (Experiments.render_campaign rows1)
    (Experiments.render_campaign rows2);
  let s = Experiments.campaign_summary rows1 in
  Alcotest.(check bool) "has unguarded escapes" true (s.Experiments.cs_unguarded_escapes >= 1);
  Alcotest.(check int) "no guarded escapes" 0 s.Experiments.cs_guarded_escapes;
  Alcotest.(check int) "every guarded run detects" s.Experiments.cs_guarded_rows
    s.Experiments.cs_guarded_detected;
  Alcotest.(check int) "rollback checksums all golden" s.Experiments.cs_rollback_rows
    s.Experiments.cs_rollback_checksum_ok;
  Alcotest.(check bool) "rollback rows exist" true (s.Experiments.cs_rollback_rows >= 1)

(* C=rand faults are the one input the campaign draws from the machine
   RNG; the quick golden has none, so this configuration pins them. *)
let test_campaign_crand_golden () =
  let config =
    {
      Experiments.quick_campaign with
      Experiments.cg_kernels = [ "crc"; "fir" ];
      cg_specs_per_unit = 2;
      cg_constants = [ Fault.C_random ];
    }
  in
  let expected = In_channel.with_open_bin "golden/guard_campaign_crand.txt" In_channel.input_all in
  Alcotest.(check string) "byte-for-byte vs golden/guard_campaign_crand.txt" expected
    (Experiments.render_campaign (Experiments.campaign ~config ()))

let () =
  Alcotest.run "guard"
    [
      ( "injector",
        [
          Alcotest.test_case "onset timing" `Quick test_injector_onset_timing;
          Alcotest.test_case "rejects functional backend" `Quick
            test_injector_rejects_functional_backend;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "stall detection and failover" `Quick
            test_stall_detection_and_recovery;
          Alcotest.test_case "unguarded escape" `Quick test_unguarded_escape;
          Alcotest.test_case "rollback recovers golden checksum" `Quick
            test_rollback_recovers_golden_checksum;
          Alcotest.test_case "rejects degenerate config" `Quick test_config_rejects_degenerate;
          Alcotest.test_case "canary channel beats software tests" `Quick
            test_canary_channel_beats_software_tests;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "acceptance and determinism" `Slow
            test_campaign_acceptance_and_determinism;
          Alcotest.test_case "C=rand golden" `Quick test_campaign_crand_golden;
        ] );
    ]
