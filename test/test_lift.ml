(* Tests for Error Lifting: the trace-to-instruction construction, the
   S/UR/FF/FC taxonomy, suite rendering, and end-to-end detection of the
   lifted faults on the ISS. *)

let alu8 = Lift.alu_target ~width:8 ()
let fpu_tiny = Lift.fpu_target ~fmt:Fpu_format.tiny ()

let machine_for_alu8 faulty_nl =
  Machine.create
    ~config:{ Machine.default_config with Machine.width = 8; fmt = Fpu_format.tiny }
    ~alu:(Machine.Alu_netlist faulty_nl) ~fpu:Machine.Fpu_functional ()

let test_lift_alu_pair_s () =
  let r = Lift.lift_pair alu8 ~start_dff:"a_q0" ~end_dff:"r_q0" ~violation:Fault.Setup_violation in
  Alcotest.(check string) "classified S" "S" (Lift.classification_name r.Lift.classification);
  Alcotest.(check bool) "has cases" true (r.Lift.cases <> []);
  Alcotest.(check int) "two variants without mitigation" 2 (List.length r.Lift.variants);
  List.iter
    (fun (tc : Lift.test_case) ->
      Alcotest.(check bool) "short case" true (Lift.steps tc <= 4);
      Alcotest.(check bool) "alu body" true
        (match tc.Lift.tc_body with Lift.Alu_test _ -> true | _ -> false))
    r.Lift.cases

let test_lift_mitigation_variants () =
  let config = { Lift.default_config with Lift.mitigation = true } in
  let r =
    Lift.lift_pair ~config alu8 ~start_dff:"a_q0" ~end_dff:"r_q0"
      ~violation:Fault.Setup_violation
  in
  Alcotest.(check int) "four variants with mitigation" 4 (List.length r.Lift.variants);
  List.iter
    (fun ((spec : Fault.spec), _) ->
      Alcotest.(check bool) "edge-restricted" true
        (spec.Fault.activation <> Fault.Any_transition))
    r.Lift.variants

let test_lift_ff_budget () =
  (* a zero conflict budget can still find a trace if BCP suffices, so use
     a tiny budget and a hard pair; accept either S or FF but require the
     mechanism to engage (no exceptions) *)
  let config = { Lift.default_config with Lift.max_conflicts = 1 } in
  let r =
    Lift.lift_pair ~config fpu_tiny ~start_dff:"a_q3" ~end_dff:"r_q4"
      ~violation:Fault.Setup_violation
  in
  Alcotest.(check bool) "S or FF" true
    (r.Lift.classification = Lift.S || r.Lift.classification = Lift.FF)

let test_lift_detects_on_iss () =
  (* end-to-end: lift a pair, inject the same fault, run the suite *)
  let r = Lift.lift_pair alu8 ~start_dff:"b_q1" ~end_dff:"r_q2" ~violation:Fault.Setup_violation in
  Alcotest.(check bool) "constructed" true (r.Lift.cases <> []);
  let suite = Lift.suite_of_results alu8.Lift.kind [ r ] in
  let prog = Lift.suite_program suite in
  (* healthy pass *)
  let mh = machine_for_alu8 alu8.Lift.netlist in
  Machine.reset mh;
  (match Machine.run mh prog with
  | Machine.Exited 0 -> ()
  | o -> Alcotest.failf "healthy suite failed: %a" Machine.pp_outcome o);
  (* faulty runs for both constants *)
  List.iter
    (fun constant ->
      let spec =
        {
          Fault.start_dff = "b_q1";
          end_dff = "r_q2";
          kind = Fault.Setup_violation;
          constant;
          activation = Fault.Any_transition;
        }
      in
      let mf = machine_for_alu8 (Fault.failing_netlist alu8.Lift.netlist spec) in
      Machine.reset mf;
      match Machine.run mf prog with
      | Machine.Exited 1 -> ()
      | o -> Alcotest.failf "fault C=%s not detected: %a"
               (match constant with Fault.C0 -> "0" | Fault.C1 -> "1" | Fault.C_random -> "R")
               Machine.pp_outcome o)
    [ Fault.C0; Fault.C1 ]

let test_lift_fpu_valid_chain () =
  (* the handshake pair: lifting must succeed and flag a possible stall *)
  let r =
    Lift.lift_pair fpu_tiny ~start_dff:"v_q" ~end_dff:"v_out" ~violation:Fault.Setup_violation
  in
  Alcotest.(check bool) "constructed" true (r.Lift.cases <> []);
  Alcotest.(check bool) "some case may stall" true
    (List.exists (fun (tc : Lift.test_case) -> tc.Lift.tc_may_stall) r.Lift.cases)

(* The one decoder of violating-pair listings: input-launched entries are
   skipped, the first (worst) entry of each (start, end, check) is kept,
   the listing's order is kept, and every consumer sees the same pairs. *)
let test_lift_violating_pairs_dedup () =
  let nl = alu8.Lift.netlist in
  let id name = (Netlist.find_cell nl name).Netlist.id in
  let pair s e check slack = (Sta.From_dff (id s), Sta.At_dff (id e), check, slack) in
  let input = (Sta.From_input ("a", 0), Sta.At_dff (id "r_q0"), Sta.Setup, -20.0) in
  let pairs =
    [
      pair "b_q0" "r_q0" Sta.Setup (-30.0);
      input;
      pair "a_q0" "r_q0" Sta.Setup (-17.0);
      pair "b_q0" "r_q0" Sta.Setup (-5.0);
      pair "b_q0" "r_q0" Sta.Hold (-1.0);
      pair "a_q0" "r_q0" Sta.Setup (-0.5);
    ]
  in
  let decoded = Alcotest.(list (triple string string bool)) in
  let show = List.map (fun (s, e, v) -> (s, e, v = Fault.Setup_violation)) in
  Alcotest.(check bool) "input-launched entry decodes to nothing" true
    (Lift.decode_pair nl input = None);
  Alcotest.(check decoded) "register entry decodes to names and kind"
    [ ("b_q0", "r_q0", false) ]
    (show (Option.to_list (Lift.decode_pair nl (pair "b_q0" "r_q0" Sta.Hold 0.0))));
  let expected = [ ("b_q0", "r_q0", true); ("a_q0", "r_q0", true); ("b_q0", "r_q0", false) ] in
  Alcotest.(check decoded) "first of each pair and check, in order" expected
    (show (Lift.register_pairs nl pairs));
  Alcotest.(check (list string)) "supervisor item keys"
    [ "b_q0~r_q0~setup"; "a_q0~r_q0~setup"; "b_q0~r_q0~hold" ]
    (List.map (fun (it : Resilience.item) -> it.Resilience.it_key)
       (Resilience.items_of_pairs nl pairs));
  let setup_only = List.filter (fun (_, _, c, _) -> c = Sta.Setup) pairs in
  Alcotest.(check decoded) "lifted pairs"
    (List.filter (fun (_, _, setup) -> setup) expected)
    (show
       (List.map
          (fun (r : Lift.pair_result) -> (r.Lift.start_dff, r.Lift.end_dff, r.Lift.violation))
          (Lift.lift_violating_pairs alu8 setup_only)))

let test_case_instrs_shape () =
  let r = Lift.lift_pair alu8 ~start_dff:"a_q0" ~end_dff:"r_q0" ~violation:Fault.Setup_violation in
  let tc = List.hd r.Lift.cases in
  let instrs = Lift.case_instrs ~fail_label:"oops" tc in
  let has_bne = List.exists (function Isa.Bne (_, _, "oops") -> true | _ -> false) instrs in
  let has_alu = List.exists (function Isa.Alu _ -> true | _ -> false) instrs in
  Alcotest.(check bool) "compares against fail label" true has_bne;
  Alcotest.(check bool) "executes alu ops" true has_alu

let test_suite_order () =
  let r1 = Lift.lift_pair alu8 ~start_dff:"a_q0" ~end_dff:"r_q0" ~violation:Fault.Setup_violation in
  let r2 = Lift.lift_pair alu8 ~start_dff:"b_q0" ~end_dff:"r_q1" ~violation:Fault.Setup_violation in
  let suite = Lift.suite_of_results alu8.Lift.kind [ r1; r2 ] in
  let n = List.length suite.Lift.suite_cases in
  Alcotest.(check bool) "multiple cases" true (n >= 2);
  let rev = List.init n (fun i -> n - 1 - i) in
  let p1 = Lift.suite_program suite in
  let p2 = Lift.suite_program ~order:rev suite in
  Alcotest.(check bool) "orders differ in layout" true (Isa.length p1 = Isa.length p2);
  (* both orders pass on healthy hardware *)
  let m = machine_for_alu8 alu8.Lift.netlist in
  Machine.reset m;
  Alcotest.(check bool) "order 1 passes" true (Machine.run m p1 = Machine.Exited 0);
  Machine.reset m;
  Alcotest.(check bool) "order 2 passes" true (Machine.run m p2 = Machine.Exited 0)

let test_fuzz_pair () =
  let r =
    Lift.fuzz_pair alu8 ~start_dff:"a_q0" ~end_dff:"r_q0" ~violation:Fault.Setup_violation
  in
  Alcotest.(check string) "fuzzing constructs" "S"
    (Lift.classification_name r.Lift.classification);
  (* fuzz-built cases detect the fault just like formal ones *)
  let suite = Lift.suite_of_results alu8.Lift.kind [ r ] in
  let spec =
    {
      Fault.start_dff = "a_q0";
      end_dff = "r_q0";
      kind = Fault.Setup_violation;
      constant = Fault.C0;
      activation = Fault.Any_transition;
    }
  in
  let mf = machine_for_alu8 (Fault.failing_netlist alu8.Lift.netlist spec) in
  Machine.reset mf;
  Alcotest.(check bool) "fuzzed suite detects" true
    (Machine.run mf (Lift.suite_program suite) = Machine.Exited 1);
  (* shrinking keeps cases short *)
  List.iter
    (fun tc -> Alcotest.(check bool) "shrunk case short" true (Lift.steps tc <= 6))
    r.Lift.cases

let test_fuzz_budget_exhaustion () =
  (* zero budget cannot find anything: classifies FF (fuzzing cannot prove UR) *)
  let fuzz = { Lift.default_fuzz_config with Lift.budget_cycles = 0 } in
  let r = Lift.fuzz_pair ~fuzz alu8 ~start_dff:"a_q0" ~end_dff:"r_q0"
      ~violation:Fault.Setup_violation
  in
  Alcotest.(check string) "budget exhaustion is FF" "FF"
    (Lift.classification_name r.Lift.classification)

(* Sim64 detection verdicts against a scalar-Sim oracle: each ALU case
   streams through its own scalar simulator under the same protocol (op
   [s] driven before edge [s], its result read after edge [s + 1]), and is
   detected iff some retired result differs from its expectation.  C0/C1
   faults only: their verdicts do not depend on the random fault stream. *)
let scalar_detected nl (suite : Lift.suite) =
  List.map
    (fun (tc : Lift.test_case) ->
      match tc.Lift.tc_body with
      | Lift.Fpu_test _ -> Alcotest.fail "ALU suite expected"
      | Lift.Alu_test steps ->
        let steps = Array.of_list steps in
        let n = Array.length steps in
        let sim = Sim.create nl in
        let width = Array.length (Netlist.find_input nl Alu.a_port).Netlist.port_nets in
        let detected = ref false in
        for t = 0 to n do
          if t < n then begin
            let st = steps.(t) in
            Sim.set_input sim Alu.op_port (Bitvec.create ~width:4 (Alu.op_code st.Lift.a_op));
            Sim.set_input sim Alu.a_port (Bitvec.create ~width st.Lift.a_lhs);
            Sim.set_input sim Alu.b_port (Bitvec.create ~width st.Lift.a_rhs)
          end;
          Sim.step sim;
          if t >= 1 && Bitvec.to_int (Sim.output sim Alu.r_port) <> steps.(t - 1).Lift.a_expected
          then detected := true
        done;
        !detected)
    suite.Lift.suite_cases
  |> Array.of_list

let test_engine_equivalence () =
  let r =
    Lift.lift_pair alu8 ~start_dff:"a_q0" ~end_dff:"r_q0" ~violation:Fault.Setup_violation
  in
  let lifted = Lift.suite_of_results alu8.Lift.kind [ r ] in
  let random = Testgen.random_alu_suite ~seed:42 ~width:8 ~cases:70 () in
  let spec (start_dff, end_dff) kind c =
    { Fault.start_dff; end_dff; kind; constant = c; activation = Fault.Any_transition }
  in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun (pair, kind, constant) ->
      let faulty = Fault.failing_netlist alu8.Lift.netlist (spec pair kind constant) in
      List.iter
        (fun suite ->
          let verdicts = Lift.detected_cases suite faulty in
          Alcotest.(check (array bool)) "sim64 = scalar oracle" (scalar_detected faulty suite)
            verdicts;
          Array.iter (fun d -> if d then incr hits else incr misses) verdicts)
        [ lifted; random ])
    [
      (("a_q0", "r_q0"), Fault.Setup_violation, Fault.C0);
      (("a_q0", "r_q0"), Fault.Setup_violation, Fault.C1);
      (("b_q3", "r_q5"), Fault.Setup_violation, Fault.C1);
      (("a_q2", "r_q2"), Fault.Hold_violation, Fault.C0);
    ];
  (* the comparison covers both verdicts *)
  Alcotest.(check bool) "some cases detect" true (!hits > 0);
  Alcotest.(check bool) "some cases miss" true (!misses > 0)

(* random baseline: healthy machines pass random suites; suites are
   deterministic per seed *)
let test_testgen () =
  let suite = Testgen.random_alu_suite ~seed:42 ~width:8 ~cases:12 () in
  Alcotest.(check int) "case count" 12 (List.length suite.Lift.suite_cases);
  let suite' = Testgen.random_alu_suite ~seed:42 ~width:8 ~cases:12 () in
  Alcotest.(check bool) "deterministic" true (suite = suite');
  let m = machine_for_alu8 alu8.Lift.netlist in
  Machine.reset m;
  Alcotest.(check bool) "healthy passes random alu suite" true
    (Machine.run m (Lift.suite_program suite) = Machine.Exited 0);
  let fsuite = Testgen.random_fpu_suite ~seed:1 ~fmt:Fpu_format.binary16 ~cases:8 () in
  let mf =
    Machine.create ~alu:Machine.Alu_functional
      ~fpu:(Machine.Fpu_netlist (Fpu.netlist ())) ()
  in
  Machine.reset mf;
  Alcotest.(check bool) "healthy passes random fpu suite" true
    (Machine.run mf (Lift.suite_program fsuite) = Machine.Exited 0);
  let matched = Testgen.matched_suite suite in
  Alcotest.(check int) "matched size" 12 (List.length matched.Lift.suite_cases)

(* ---- divergences read from the model ---- *)

(* The scalar replay [Lift] ran on every found trace before it read the
   divergences from the solver's model, kept as the oracle. *)
let replayed_divergences (inst : Fault.instrumented) trace =
  let nl = inst.Fault.netlist in
  let sim = Sim.create nl in
  let diffs = ref [] in
  Formal.Trace.replay sim trace ~on_cycle:(fun cycle ->
      List.iter
        (fun (orig, shadow) ->
          if Sim.net sim orig <> Sim.net sim shadow then
            List.iter
              (fun (port, bit) -> diffs := (port, bit, cycle) :: !diffs)
              (Netlist.output_readers nl orig))
        inst.Fault.shadow_of);
  List.rev !diffs

(* Every variant of every phase-1 pair (margin 1.0), with and without
   mitigation, checked as [Lift.lift_pair] checks it: on each trace found,
   the model-read divergences equal the replay's and the trace covers. *)
let check_model_divergences target =
  let a =
    Vega.aging_analysis
      ~config:{ Vega.default_phase1 with Vega.clock_margin = 1.0 }
      target ~workload:Vega.run_minver_workload
  in
  let items = Resilience.items_of_pairs target.Lift.netlist a.Vega.violating_pairs in
  let traces = ref 0 in
  List.iter
    (fun mitigation ->
      List.iter
        (fun (it : Resilience.item) ->
          List.iter
            (fun spec ->
              match Fault.instrument_shadow target.Lift.netlist spec with
              | exception Invalid_argument _ -> ()
              | inst -> (
                let nl = inst.Fault.netlist in
                let assumes = Lift.assumes_for target nl in
                match Formal.check_cover ~assumes ~watch:inst.Fault.watch nl ~cover:inst.Fault.cover with
                | Formal.Trace_found t ->
                  incr traces;
                  let what = Fault.describe spec in
                  Alcotest.(check (list (triple string int int)))
                    (what ^ ": model-read divergences equal the replay's")
                    (replayed_divergences inst t) (Lift.observed_divergences inst t);
                  Alcotest.(check bool) (what ^ ": trace covers") true
                    (Formal.Trace.covers nl t inst.Fault.cover)
                | _ -> ()))
            (Fault.variants ~mitigation ~start_dff:it.Resilience.it_start
               ~end_dff:it.Resilience.it_end it.Resilience.it_violation))
        items)
    [ false; true ];
  Alcotest.(check bool) "traces found" true (!traces > 0)

let test_divergences_alu8 () = check_model_divergences alu8
let test_divergences_alu32 () = check_model_divergences (Lift.alu_target ~width:32 ())
let test_divergences_fpu16 () = check_model_divergences (Lift.fpu_target ())

let () =
  Alcotest.run "lift"
    [
      ( "lifting",
        [
          Alcotest.test_case "alu pair constructs" `Quick test_lift_alu_pair_s;
          Alcotest.test_case "mitigation variants" `Quick test_lift_mitigation_variants;
          Alcotest.test_case "formal budget" `Quick test_lift_ff_budget;
          Alcotest.test_case "lifted suite detects fault" `Quick test_lift_detects_on_iss;
          Alcotest.test_case "fpu valid chain" `Quick test_lift_fpu_valid_chain;
          Alcotest.test_case "pair dedup" `Quick test_lift_violating_pairs_dedup;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "case instrs shape" `Quick test_case_instrs_shape;
          Alcotest.test_case "suite order" `Quick test_suite_order;
        ] );
      ( "divergences",
        [
          Alcotest.test_case "ALU8 model reads equal the replay" `Quick test_divergences_alu8;
          Alcotest.test_case "ALU32 model reads equal the replay" `Quick test_divergences_alu32;
          Alcotest.test_case "FPU16 model reads equal the replay" `Quick test_divergences_fpu16;
        ] );
      ( "fuzzing",
        [
          Alcotest.test_case "fuzz constructs and detects" `Quick test_fuzz_pair;
          Alcotest.test_case "fuzz budget exhaustion" `Quick test_fuzz_budget_exhaustion;
        ] );
      ( "engines",
        [ Alcotest.test_case "detection verdicts engine-independent" `Quick test_engine_equivalence ]
      );
      ("testgen", [ Alcotest.test_case "random baseline" `Quick test_testgen ]);
    ]
