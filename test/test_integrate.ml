(* Tests for Test Integration: block profiling, integration-point planning,
   instrumentation transparency, gating, the C-library emitter, and the
   aging-library runner. *)

let functional16 () =
  Machine.create ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional ()

(* a small program with a hot inner loop and a cold-but-routine outer body *)
let looped_program =
  Minic.
    {
      globals = [ Gint ("out", 0) ];
      funcs =
        [
          {
            fname = "main";
            params = [];
            ret = None;
            body =
              [
                Decl (Tint, "acc", i 0);
                For
                  ( Decl (Tint, "outer", i 0),
                    v "outer" < i 20,
                    Assign ("outer", v "outer" + i 1),
                    [
                      For
                        ( Decl (Tint, "inner", i 0),
                          v "inner" < i 30,
                          Assign ("inner", v "inner" + i 1),
                          [ Assign ("acc", v "acc" + Binop (Bxor, v "outer", v "inner")) ] );
                    ] );
                Assign ("out", v "acc");
              ];
          };
        ];
    }

let compiled = Minic.compile looped_program

let small_suite =
  (* a couple of deterministic hand-built cases so the tests do not depend
     on the formal engine *)
  Testgen.random_alu_suite ~seed:5 ~width:16 ~cases:3 ()

let test_profile_counts () =
  let prof = Integrate.profile (functional16 ()) compiled in
  let count label = List.assoc label prof in
  Alcotest.(check int) "start runs once" 1 (count "__start");
  Alcotest.(check int) "main runs once" 1 (count "main");
  (* the inner loop head runs 20 * (30 + 1) times, the outer head 21 *)
  let loop_counts = List.filter (fun (l, c) -> l <> "__start" && c > 100) prof in
  Alcotest.(check bool) "hot inner blocks found" true (List.length loop_counts >= 1);
  ignore count

let test_dynamic_instructions () =
  let prof = Integrate.profile (functional16 ()) compiled in
  let total = Integrate.dynamic_instructions compiled prof in
  let m = functional16 () in
  Machine.reset m;
  ignore (Machine.run m (Minic.assemble compiled));
  let retired = Machine.instructions_retired m in
  (* The block model over-approximates: a branch out of a block's middle
     still charges the whole block.  It must stay within a reasonable band
     of the true count. *)
  Alcotest.(check bool) "dynamic estimate within 50% of retirement" true
    (total > 0
    && Float.abs (float_of_int (total - retired)) /. float_of_int retired < 0.5)

let test_plan_picks_cold_block () =
  let prof = Integrate.profile (functional16 ()) compiled in
  let plan =
    Integrate.plan_integration ~overhead_threshold:0.05 ~compiled ~profile:prof
      ~suite:small_suite ()
  in
  Alcotest.(check bool) "estimated under threshold" true
    (plan.Integrate.estimated_overhead <= 0.05 +. 1e-9);
  Alcotest.(check bool) "block routinely executed" true (plan.Integrate.block_count >= 1)

let test_plan_gates_when_hot () =
  let prof = Integrate.profile (functional16 ()) compiled in
  (* a threshold so small that even count=1 blocks exceed it: must gate *)
  let plan =
    Integrate.plan_integration ~overhead_threshold:0.00001 ~compiled ~profile:prof
      ~suite:small_suite ()
  in
  Alcotest.(check bool) "gated" true (plan.Integrate.gate <> None);
  Alcotest.(check bool) "gated overhead within budget-ish" true
    (plan.Integrate.estimated_overhead < 0.01)

let run_cycles code =
  let m = functional16 () in
  Machine.reset m;
  match Machine.run ~max_instructions:5_000_000 m (Isa.assemble code) with
  | Machine.Exited 0 -> (Machine.cycles m, Bitvec.to_int (Machine.mem m 32))
  | o -> Alcotest.failf "run failed: %a" Machine.pp_outcome o

let test_instrument_transparent () =
  let prof = Integrate.profile (functional16 ()) compiled in
  let plan =
    Integrate.plan_integration ~overhead_threshold:0.05 ~compiled ~profile:prof
      ~suite:small_suite ()
  in
  let code = Integrate.instrument ~compiled ~suite:small_suite ~plan in
  let base_cycles, base_out = run_cycles compiled.Minic.code in
  let inst_cycles, inst_out = run_cycles code in
  Alcotest.(check int) "application result preserved" base_out inst_out;
  Alcotest.(check bool) "tests add cycles" true (inst_cycles > base_cycles);
  let overhead = float_of_int (inst_cycles - base_cycles) /. float_of_int base_cycles in
  Alcotest.(check bool) "measured overhead sane (<10%)" true (overhead < 0.10)

let test_instrument_detects_faults () =
  (* instrumented application on a faulty ALU exits with the SDC code *)
  let suite =
    let r =
      Lift.lift_pair (Lift.alu_target ~width:16 ()) ~start_dff:"a_q0" ~end_dff:"r_q0"
        ~violation:Fault.Setup_violation
    in
    Lift.suite_of_results (Lift.Alu_module { width = 16 }) [ r ]
  in
  let prof = Integrate.profile (functional16 ()) compiled in
  let plan =
    Integrate.plan_integration ~overhead_threshold:0.10 ~compiled ~profile:prof ~suite ()
  in
  let code = Integrate.instrument ~compiled ~suite ~plan in
  let spec =
    {
      Fault.start_dff = "a_q0";
      end_dff = "r_q0";
      kind = Fault.Setup_violation;
      constant = Fault.C0;
      activation = Fault.Any_transition;
    }
  in
  let faulty = Fault.failing_netlist (Alu.netlist ~width:16 ()) spec in
  let m = Machine.create ~alu:(Machine.Alu_netlist faulty) ~fpu:Machine.Fpu_functional () in
  Machine.reset m;
  match Machine.run ~max_instructions:5_000_000 m (Isa.assemble code) with
  | Machine.Exited code when code = Isa.exit_sdc -> ()
  | o -> Alcotest.failf "expected in-app SDC detection, got %a" Machine.pp_outcome o

let test_c_library_emission () =
  let c = Integrate.emit_c_library ~name:"vega_t" small_suite in
  let contains needle =
    let nl = String.length needle and hl = String.length c in
    let rec go i = i + nl <= hl && (String.sub c i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has case functions" true (contains "vega_t_case_0");
  Alcotest.(check bool) "has run_all" true (contains "int vega_t_run_all");
  Alcotest.(check bool) "has random driver" true (contains "vega_t_run_random");
  Alcotest.(check bool) "inline asm" true (contains "__asm__ volatile");
  Alcotest.(check bool) "mentions li" true (contains "li x")

let test_runner_strategies () =
  let m = functional16 () in
  Alcotest.(check bool) "sequential ok" true
    (Integrate.Runner.run_tests m small_suite Integrate.Runner.Sequential = Ok ());
  Alcotest.(check bool) "random order ok" true
    (Integrate.Runner.run_tests m small_suite (Integrate.Runner.Random_order 9) = Ok ());
  Integrate.Runner.run_tests_exn m small_suite Integrate.Runner.Sequential

let test_run_slice_rotation () =
  let m = functional16 () in
  let n = List.length small_suite.Lift.suite_cases in
  (* a full rotation passes on healthy hardware *)
  for k = 0 to (2 * n) - 1 do
    Alcotest.(check bool) "slice ok" true (Integrate.Runner.run_slice m small_suite ~index:k = Ok ())
  done;
  Alcotest.(check bool) "empty suite ok" true
    (Integrate.Runner.run_slice m
       { Lift.suite_target = Lift.Alu_module { width = 16 }; suite_cases = [] }
       ~index:0
    = Ok ())

let test_runner_preserves_state () =
  let m = functional16 () in
  Machine.reset m;
  let _ =
    Machine.run m
      (Isa.assemble [ Isa.Li (1, 1234); Isa.Li (2, 77); Isa.Sw (1, 0, 8); Isa.Ecall 0 ])
  in
  let observe () =
    ( List.init 16 (fun r -> Bitvec.to_int (Machine.reg m r)),
      Bitvec.to_int (Machine.mem m 8),
      Machine.cycles m,
      Machine.instructions_retired m )
  in
  let before = observe () in
  Alcotest.(check bool) "suite passes" true
    (Integrate.Runner.run_tests m small_suite Integrate.Runner.Sequential = Ok ());
  Alcotest.(check bool) "architectural state restored" true (before = observe ())

let test_runner_detects_and_raises () =
  let target = Lift.alu_target ~width:16 () in
  let r = Lift.lift_pair target ~start_dff:"b_q0" ~end_dff:"r_q1" ~violation:Fault.Setup_violation in
  let suite = Lift.suite_of_results target.Lift.kind [ r ] in
  let spec =
    {
      Fault.start_dff = "b_q0";
      end_dff = "r_q1";
      kind = Fault.Setup_violation;
      constant = Fault.C0;
      activation = Fault.Any_transition;
    }
  in
  let m =
    Machine.create
      ~alu:(Machine.Alu_netlist (Fault.failing_netlist target.Lift.netlist spec))
      ~fpu:Machine.Fpu_functional ()
  in
  (match Integrate.Runner.run_tests m suite Integrate.Runner.Sequential with
  | Error id -> Alcotest.(check bool) "identifies the case" true (String.length id > 0)
  | Ok () -> Alcotest.fail "fault not detected");
  match Integrate.Runner.run_tests_exn m suite Integrate.Runner.Sequential with
  | () -> Alcotest.fail "expected exception"
  | exception Integrate.Runner.Sdc_detected _ -> ()

(* The one case verdict: pass on exit_ok; an SDC exit, a stall and no
   progress are detections with their own ids. *)
let test_runner_case_verdicts () =
  let tc = List.hd small_suite.Lift.suite_cases in
  let id = tc.Lift.tc_id in
  let m = functional16 () in
  Alcotest.(check bool) "exit ok passes" true (Integrate.Runner.run_case m tc = Ok ());
  (* a stuck-at-1 result bit makes the healthy expectations fail *)
  let alu = Alu.netlist ~width:16 () in
  let stuck =
    let b = Netlist.Builder.of_netlist alu in
    let one = Netlist.Builder.add_cell b Cell.Kind.Tie1 [||] in
    List.iteri
      (fun bit _ -> Netlist.Builder.rewire_output b ~port:Alu.r_port ~bit one)
      (Array.to_list (Netlist.find_output alu Alu.r_port).Netlist.port_nets);
    Netlist.Builder.finish b
  in
  let m_sdc = Machine.create ~alu:(Machine.Alu_netlist stuck) ~fpu:Machine.Fpu_functional () in
  (match Integrate.Runner.run_case m_sdc tc with
  | Error (Machine.Exited code) -> Alcotest.(check int) "exit sdc" Isa.exit_sdc code
  | _ -> Alcotest.fail "stuck result not detected as an SDC exit");
  Alcotest.(check string) "sdc id" id
    (Integrate.Runner.detection_id tc (Machine.Exited Isa.exit_sdc));
  (* an FPU whose valid handshake never rises wedges the pipeline *)
  let fpu = Fpu.netlist () in
  let wedged =
    let b = Netlist.Builder.of_netlist fpu in
    Netlist.Builder.rewire_output b ~port:Fpu.valid_port ~bit:0
      (Netlist.Builder.add_cell b Cell.Kind.Tie0 [||]);
    Netlist.Builder.finish b
  in
  let fsuite = Testgen.random_fpu_suite ~seed:3 ~fmt:Fpu_format.binary16 ~cases:1 () in
  let ftc = List.hd fsuite.Lift.suite_cases in
  let m_stall = Machine.create ~alu:Machine.Alu_functional ~fpu:(Machine.Fpu_netlist wedged) () in
  Alcotest.(check bool) "stall is a detection" true
    (Integrate.Runner.run_case m_stall ftc = Error Machine.Stalled);
  Alcotest.(check string) "stall id" (ftc.Lift.tc_id ^ " (stall)")
    (Integrate.Runner.detection_id ftc Machine.Stalled);
  let m_stall = Machine.create ~alu:Machine.Alu_functional ~fpu:(Machine.Fpu_netlist wedged) () in
  Alcotest.(check bool) "suite reports the stall" true
    (Integrate.Runner.run_tests m_stall fsuite Integrate.Runner.Sequential
    = Error (ftc.Lift.tc_id ^ " (stall)"));
  Alcotest.(check string) "out-of-fuel id" (id ^ " (no progress)")
    (Integrate.Runner.detection_id tc Machine.Out_of_fuel)

let () =
  Alcotest.run "integrate"
    [
      ( "profiling",
        [
          Alcotest.test_case "block counts" `Quick test_profile_counts;
          Alcotest.test_case "dynamic instruction model" `Quick test_dynamic_instructions;
        ] );
      ( "planning",
        [
          Alcotest.test_case "picks block under budget" `Quick test_plan_picks_cold_block;
          Alcotest.test_case "gates hot programs" `Quick test_plan_gates_when_hot;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "transparent to the app" `Quick test_instrument_transparent;
          Alcotest.test_case "detects faults in-app" `Quick test_instrument_detects_faults;
        ] );
      ( "aging library",
        [
          Alcotest.test_case "C emission" `Quick test_c_library_emission;
          Alcotest.test_case "runner strategies" `Quick test_runner_strategies;
          Alcotest.test_case "rotating slice" `Quick test_run_slice_rotation;
          Alcotest.test_case "runner preserves app state" `Quick test_runner_preserves_state;
          Alcotest.test_case "runner detects and raises" `Quick test_runner_detects_and_raises;
          Alcotest.test_case "case verdicts" `Quick test_runner_case_verdicts;
        ] );
    ]
