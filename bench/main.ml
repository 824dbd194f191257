(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs one Bechamel micro-benchmark per table/figure kernel,
   and prints the ablation studies called out in DESIGN.md.

   Usage:
     bench/main.exe            full run (tables + micro-benchmarks + ablations)
     bench/main.exe quick      reduced configuration
     bench/main.exe micro      micro-benchmarks only
     bench/main.exe ablations  ablation studies only
     bench/main.exe analyze    static Spbound triage: prune rate and pair-sweep
                               speedup on alu8/fpu16, written to
                               BENCH_analyze.json
     bench/main.exe check      CEC vs random-vector validation timing
     bench/main.exe resilience supervisor smoke: formal vs fallback cost,
                               budget-sliced ALU8 lifting with the ladder
     bench/main.exe telemetry  instrumented ALU8 pipeline; writes counters,
                               histograms and span totals to
                               BENCH_telemetry.json (the perf trajectory seed)
     bench/main.exe fleet      fleet-pool multicore scaling: the quick device
                               population at 1/2/4 worker domains, wall-clock
                               and byte-identity, written to BENCH_fleet.json
     bench/main.exe repair     aging-aware repair on the ALU8 sweep: recovered
                               slack, proof counters and wall-clock, written
                               to BENCH_repair.json
     bench/main.exe <id>       one experiment: fig4 table1 table2 fig8
                               table3 table4 table5 table6 table7 fig9 *)

open Bechamel
open Toolkit

(* ------------- shared small fixtures for the micro-benchmarks ------------- *)

let alu8 = Lift.alu_target ~width:8 ()
let fpu16_netlist = Fpu.netlist ()
let c28 = Cell.Library.c28
let aglib = Aging.Timing_library.build c28

let aged_timing_alu8 =
  Sta.aged_timing ~clock_tree:(Clock_tree.two_domain_gated ~sp_gated:0.05 ())
    ~sp_of_net:(fun _ -> 0.3)
    ~years:10.0 aglib

let alu8_fresh_crit =
  let tree = Clock_tree.two_domain_gated ~sp_gated:0.05 () in
  let timing = Sta.fresh_timing ~clock_tree:tree c28 in
  Sta.critical_path_ps ~timing alu8.Lift.netlist

let small_suite =
  let r =
    Lift.lift_pair alu8 ~start_dff:"a_q0" ~end_dff:"r_q0" ~violation:Fault.Setup_violation
  in
  Lift.suite_of_results alu8.Lift.kind [ r ]

let alu8_machine nl =
  Machine.create
    ~config:{ Machine.default_config with Machine.width = 8; fmt = Fpu_format.tiny }
    ~alu:(Machine.Alu_netlist nl) ~fpu:Machine.Fpu_functional ()

let faulty_alu8 =
  Fault.failing_netlist alu8.Lift.netlist
    {
      Fault.start_dff = "a_q0";
      end_dff = "r_q0";
      kind = Fault.Setup_violation;
      constant = Fault.C0;
      activation = Fault.Any_transition;
    }

let example_adder = Example_circuits.pipelined_adder ()

let example_instrumented =
  Fault.instrument_shadow example_adder
    {
      Fault.start_dff = "$4";
      end_dff = "$10";
      kind = Fault.Setup_violation;
      constant = Fault.C1;
      activation = Fault.Any_transition;
    }

let crc_compiled = Minic.compile (Workload.find "crc").Workload.program
let functional16 () = Machine.create ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional ()
let crc_profile = Integrate.profile (functional16 ()) crc_compiled

let pigeonhole n holes =
  let s = Sat.create () in
  let x = Array.init n (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to n - 1 do
    Sat.add_clause s (Array.to_list x.(p))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        Sat.add_clause s [ -x.(p1).(h); -x.(p2).(h) ]
      done
    done
  done;
  s

(* ------------- micro-benchmarks: one Test.make per table/figure ------------- *)

let micro_tests =
  let t name f = Test.make ~name (Staged.stage f) in
  Test.make_grouped ~name:"vega" ~fmt:"%s/%s"
    [
      t "fig4:aging-timing-library-build" (fun () ->
          ignore (Aging.Timing_library.build c28));
      t "table1:sp-profile-200-cycles" (fun () ->
          let sim = Sim.create ~profile:true example_adder in
          Sim.run_random sim ~cycles:200;
          ignore (Sim.sp_of_cell sim "$7"));
      t "table2:bmc-trace-example-adder" (fun () ->
          match
            Formal.check_cover example_instrumented.Fault.netlist
              ~cover:example_instrumented.Fault.cover
          with
          | Formal.Trace_found _ -> ()
          | _ -> failwith "no trace");
      t "fig8:aged-delay-factors-alu8" (fun () ->
          Array.iter
            (fun (c : Netlist.cell) ->
              if not (Cell.Kind.is_sequential c.Netlist.kind) && Cell.Kind.arity c.Netlist.kind > 0
              then ignore (Aging.Timing_library.factor aglib c.Netlist.kind ~sp:0.3 ~years:10.0))
            (Netlist.cells alu8.Lift.netlist));
      t "table3:aged-sta-alu8" (fun () ->
          ignore
            (Sta.analyze ~timing:aged_timing_alu8
               ~clock_period_ps:(alu8_fresh_crit *. 1.005)
               alu8.Lift.netlist));
      t "table3:violating-pairs-alu8" (fun () ->
          ignore
            (Sta.violating_pairs ~timing:aged_timing_alu8
               ~clock_period_ps:(alu8_fresh_crit *. 1.005)
               alu8.Lift.netlist));
      t "table4:lift-pair-alu8" (fun () ->
          ignore
            (Lift.lift_pair alu8 ~start_dff:"a_q0" ~end_dff:"r_q0"
               ~violation:Fault.Setup_violation));
      t "table5:suite-execution-healthy" (fun () ->
          let m = alu8_machine alu8.Lift.netlist in
          Machine.reset m;
          ignore (Machine.run m (Lift.suite_program small_suite)));
      t "table6:detection-run-failing-netlist" (fun () ->
          let m = alu8_machine faulty_alu8 in
          Machine.reset m;
          ignore (Machine.run m (Lift.suite_program small_suite)));
      t "table7:random-suite-generation" (fun () ->
          ignore (Testgen.random_alu_suite ~seed:1 ~width:8 ~cases:8 ()));
      t "fig9:profile-plan-instrument-crc" (fun () ->
          let plan =
            Integrate.plan_integration ~compiled:crc_compiled ~profile:crc_profile
              ~suite:small_suite ()
          in
          ignore (Integrate.instrument ~compiled:crc_compiled ~suite:small_suite ~plan));
      t "substrate:gate-sim-step-fpu16" (fun () ->
          let sim = Sim.create fpu16_netlist in
          for _ = 1 to 10 do
            Sim.step sim
          done);
      t "substrate:gate-sim64-step-fpu16" (fun () ->
          let sim = Sim64.create fpu16_netlist in
          for _ = 1 to 10 do
            Sim64.step sim
          done);
      t "substrate:gate-simc-step-fpu16" (fun () ->
          let sim = Simc.create fpu16_netlist in
          for _ = 1 to 10 do
            Simc.step sim
          done;
          Simc.settle sim);
      t "substrate:cdcl-pigeonhole-7-6" (fun () ->
          ignore (Sat.solve (pigeonhole 7 6)));
      t "substrate:minic-compile-minver" (fun () ->
          ignore (Minic.compile Workload.minver.Workload.program));
    ]

(* Throughput of the word-parallel engines against the scalar reference on
   the same netlist and the same pre-generated random stimulus: one scalar
   pattern per cycle vs [Sim64.lanes] patterns per cycle on the
   interpreted (Sim64) and compiled (Simc) engines.  The compiled engine's
   one-time translation cost is timed separately and recorded alongside
   the steady-state rates in BENCH_simc.json. *)
let engine_throughput () =
  print_endline "== scalar vs Sim64 vs Simc gate-simulation throughput ==";
  let measure name nl ~cycles =
    let in_ports = Netlist.inputs nl in
    let rng = Random.State.make [| 0x5eed; Hashtbl.hash name |] in
    let stim64 =
      Array.init cycles (fun _ ->
          List.map
            (fun (p : Netlist.port) ->
              ( p.Netlist.port_name,
                Array.init (Array.length p.Netlist.port_nets) (fun _ -> Sim64.random_word rng)
              ))
            in_ports)
    in
    (* the scalar run replays lane 0 of the same stimulus *)
    let stim1 =
      Array.map
        (fun assigns ->
          List.map
            (fun (pname, words) ->
              let v = ref 0 in
              Array.iteri (fun i w -> if w land 1 <> 0 then v := !v lor (1 lsl i)) words;
              (pname, Bitvec.create ~width:(Array.length words) !v))
            assigns)
        stim64
    in
    let sim = Sim.create nl in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun assigns ->
        List.iter (fun (p, v) -> Sim.set_input sim p v) assigns;
        Sim.step sim)
      stim1;
    let t1 = Unix.gettimeofday () in
    let s64 = Sim64.create nl in
    Array.iter
      (fun assigns ->
        List.iter (fun (p, ws) -> Sim64.set_input_words s64 p ws) assigns;
        Sim64.step s64)
      stim64;
    let t2 = Unix.gettimeofday () in
    let sc = Simc.create nl in
    let t3 = Unix.gettimeofday () in
    Array.iter
      (fun assigns ->
        List.iter (fun (p, ws) -> Simc.set_input_words sc p ws) assigns;
        Simc.step sc)
      stim64;
    (* flush the lazy post-edge settle so the timed region covers the same
       work the interpreted engines already did *)
    Simc.settle sc;
    let t4 = Unix.gettimeofday () in
    let scalar_rate = float_of_int cycles /. (t1 -. t0) in
    let sim64_rate = float_of_int (cycles * Sim64.lanes) /. (t2 -. t1) in
    let simc_rate = float_of_int (cycles * Simc.lanes) /. (t4 -. t3) in
    let compile_ms = (t3 -. t2) *. 1e3 in
    Printf.printf
      "  %-6s scalar %9.0f/s | sim64 %10.0f/s (%5.1fx) | simc %11.0f/s (%5.1fx, %5.1fx vs \
       sim64, compile %.2f ms, %d ops)\n"
      name scalar_rate sim64_rate (sim64_rate /. scalar_rate) simc_rate
      (simc_rate /. scalar_rate) (simc_rate /. sim64_rate) compile_ms (Simc.program_length sc);
    Json.Obj
      [
        ("name", Json.String name);
        ("cycles", Json.Int cycles);
        ("scalar_patterns_per_s", Json.Float scalar_rate);
        ("sim64_patterns_per_s", Json.Float sim64_rate);
        ("simc_patterns_per_s", Json.Float simc_rate);
        ("simc_compile_ms", Json.Float compile_ms);
        ("simc_program_ops", Json.Int (Simc.program_length sc));
        ("simc_vs_scalar", Json.Float (simc_rate /. scalar_rate));
        ("simc_vs_sim64", Json.Float (simc_rate /. sim64_rate));
      ]
  in
  let rows =
    [ measure "alu8" alu8.Lift.netlist ~cycles:2000; measure "fpu16" fpu16_netlist ~cycles:500 ]
  in
  let json =
    Json.Obj
      [
        ("schema", Json.String "vega-bench-simc/1");
        ("lanes", Json.Int Simc.lanes);
        ("netlists", Json.List rows);
      ]
  in
  let oc = open_out "BENCH_simc.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "engine comparison written to BENCH_simc.json";
  print_newline ()

let run_micro () =
  engine_throughput ();
  print_endline "== Bechamel micro-benchmarks (one per table/figure kernel) ==";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] micro_tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some [ est ] ->
        if est > 1e6 then Printf.printf "  %-48s %10.2f ms/run\n" name (est /. 1e6)
        else Printf.printf "  %-48s %10.1f ns/run\n" name est
      | _ -> Printf.printf "  %-48s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()

(* ------------- ablation studies ------------- *)

let ablation_bmc_budget () =
  print_endline "== Ablation: formal conflict budget vs construction outcome ==";
  print_endline "   (DESIGN.md: 'FF timeouts emerge at small bounds')";
  List.iter
    (fun budget ->
      let config = { Lift.default_config with Lift.max_conflicts = budget } in
      let fpu = Lift.fpu_target () in
      let r =
        Lift.lift_pair ~config fpu ~start_dff:"b_q0" ~end_dff:"r_q0"
          ~violation:Fault.Setup_violation
      in
      Printf.printf "  budget %7d conflicts -> %s (%d cases)\n" budget
        (Lift.classification_name r.Lift.classification)
        (List.length r.Lift.cases))
    [ 0; 2; 20; 200; 200_000 ];
  print_newline ()

let ablation_integration_threshold () =
  print_endline "== Ablation: overhead threshold vs integration plan (crc) ==";
  List.iter
    (fun threshold ->
      let plan =
        Integrate.plan_integration ~overhead_threshold:threshold ~compiled:crc_compiled
          ~profile:crc_profile ~suite:small_suite ()
      in
      Printf.printf "  threshold %6.3f%% -> block %-12s count %5d gate %-6s est %.4f%%\n"
        (100.0 *. threshold) plan.Integrate.chosen_block plan.Integrate.block_count
        (match plan.Integrate.gate with None -> "-" | Some k -> Printf.sprintf "1/%d" k)
        (100.0 *. plan.Integrate.estimated_overhead))
    [ 0.0005; 0.002; 0.01; 0.05 ];
  print_newline ()

let ablation_corner_conservatism () =
  print_endline "== Ablation: analysis-corner pessimism vs flagged pairs (ALU8) ==";
  print_endline
    "   (the clock is signed off at the nominal corner; extra derate on the";
  print_endline "    aging analysis models worst-case voltage/temperature assumptions)";
  List.iter
    (fun derate ->
      let tree = Clock_tree.two_domain_gated ~sp_gated:0.05 () in
      let aged =
        Sta.aged_timing ~derate ~clock_tree:tree ~sp_of_net:(fun _ -> 0.3) ~years:10.0 aglib
      in
      let pairs =
        Sta.violating_pairs ~timing:aged
          ~clock_period_ps:(alu8_fresh_crit *. 1.005)
          alu8.Lift.netlist
      in
      Printf.printf "  analysis derate %.2f -> %d flagged pairs\n" derate (List.length pairs))
    [ 1.0; 1.01; 1.02; 1.05 ];
  print_newline ()

let ablation_clock_margin () =
  print_endline "== Ablation: clock-frequency guardband vs aging exposure (ALU8) ==";
  List.iter
    (fun margin ->
      let pairs =
        Sta.violating_pairs ~timing:aged_timing_alu8
          ~clock_period_ps:(alu8_fresh_crit *. margin)
          alu8.Lift.netlist
      in
      Printf.printf "  margin %.3f -> %d violating pairs\n" margin (List.length pairs))
    [ 1.0; 1.01; 1.02; 1.04; 1.06 ];
  print_newline ()

let ablation_formal_vs_fuzz () =
  print_endline "== Ablation: formal vs fuzzing-based trace generation (paper 6.3) ==";
  let pairs =
    [ ("a_q0", "r_q0"); ("b_q1", "r_q2"); ("b_q0", "r_q7") ]
  in
  List.iter
    (fun (s, e) ->
      let t0 = Unix.gettimeofday () in
      let formal =
        Lift.lift_pair alu8 ~start_dff:s ~end_dff:e ~violation:Fault.Setup_violation
      in
      let t1 = Unix.gettimeofday () in
      let fuzzed =
        Lift.fuzz_pair alu8 ~start_dff:s ~end_dff:e ~violation:Fault.Setup_violation
      in
      let t2 = Unix.gettimeofday () in
      let steps (r : Lift.pair_result) =
        match r.Lift.cases with [] -> 0 | tc :: _ -> Lift.steps tc
      in
      Printf.printf
        "  %s~>%s  formal: %s %d-op case in %4.0f ms | fuzz: %s %d-op case in %4.0f ms\n" s e
        (Lift.classification_name formal.Lift.classification)
        (steps formal)
        (1000.0 *. (t1 -. t0))
        (Lift.classification_name fuzzed.Lift.classification)
        (steps fuzzed)
        (1000.0 *. (t2 -. t1)))
    pairs;
  print_newline ()

let ablation_bti_vs_em () =
  print_endline "== Ablation: BTI-only vs BTI+EM aging analysis (ALU8, paper 6.3) ==";
  (* profile SPs and toggle rates with the mixed workload *)
  let m =
    Machine.create
      ~config:{ Machine.default_config with Machine.width = 8; fmt = Fpu_format.tiny }
      ~profile_units:true ~alu:(Machine.Alu_netlist alu8.Lift.netlist)
      ~fpu:Machine.Fpu_functional ()
  in
  Vega.run_minver_workload m;
  let sim = Option.get (Machine.alu_sim m) in
  let sp_of_net n = Simc.sp sim n in
  let toggle_of_net n = Simc.toggle_rate sim n in
  let tree = Clock_tree.two_domain_gated ~sp_gated:0.05 () in
  let period = alu8_fresh_crit *. 1.005 in
  let measure timing =
    let pairs = Sta.violating_pairs ~timing ~clock_period_ps:period alu8.Lift.netlist in
    let r = Sta.analyze ~max_violating_paths:1 ~timing ~clock_period_ps:period alu8.Lift.netlist in
    (List.length pairs, r.Sta.wns_setup_ps)
  in
  let bti_n, bti_wns = measure (Sta.aged_timing ~clock_tree:tree ~sp_of_net ~years:10.0 aglib) in
  let em_n, em_wns =
    measure (Sta.aged_timing ~clock_tree:tree ~toggle_of_net ~sp_of_net ~years:10.0 aglib)
  in
  Printf.printf "  BTI only:  %d violating pairs, setup WNS %.1f ps\n" bti_n bti_wns;
  Printf.printf "  BTI + EM:  %d violating pairs, setup WNS %.1f ps\n" em_n em_wns;
  Printf.printf "  (EM derates the busiest nets: WNS degrades by %.1f ps here)\n"
    (bti_wns -. em_wns);
  print_newline ()

let ablation_adder_architecture () =
  print_endline "== Ablation: adder architecture vs aging exposure (ALU8) ==";
  List.iter
    (fun (name, style) ->
      let nl = Alu.netlist ~width:8 ~adder:style () in
      let tree = Clock_tree.two_domain_gated ~sp_gated:0.05 () in
      let fresh = Sta.fresh_timing ~clock_tree:tree c28 in
      let crit = Sta.critical_path_ps ~timing:fresh nl in
      let aged = Sta.aged_timing ~clock_tree:tree ~sp_of_net:(fun _ -> 0.3) ~years:10.0 aglib in
      let pairs = Sta.violating_pairs ~timing:aged ~clock_period_ps:(crit *. 1.005) nl in
      Printf.printf "  %-13s %5d cells, fresh critical %6.0f ps, %d aging-prone pairs\n" name
        (Netlist.num_cells nl) crit (List.length pairs))
    [ ("ripple", Alu.Ripple); ("carry-select", Alu.Carry_select) ];
  print_endline "   (formally equivalent designs, different aging surfaces)";
  print_newline ()

let run_ablations () =
  ablation_bmc_budget ();
  ablation_formal_vs_fuzz ();
  ablation_bti_vs_em ();
  ablation_adder_architecture ();
  ablation_integration_threshold ();
  ablation_corner_conservatism ();
  ablation_clock_margin ()

(* ------------- static-check benchmarks: CEC vs random vectors ------------- *)

(* Drive two netlists with identical random stimulus across all Sim64 lanes
   and report the first cycle with an output mismatch, if any. *)
let random_equiv ?(seed = 0xbec5) ~cycles a_nl b_nl =
  let sa = Sim64.create a_nl and sb = Sim64.create b_nl in
  Sim64.reset sa;
  Sim64.reset sb;
  let rng = Random.State.make [| seed |] in
  let mismatch = ref None in
  (try
     for c = 0 to cycles - 1 do
       List.iter
         (fun (p : Netlist.port) ->
           let words =
             Array.init (Array.length p.Netlist.port_nets) (fun _ -> Sim64.random_word rng)
           in
           Sim64.set_input_words sa p.Netlist.port_name words;
           Sim64.set_input_words sb p.Netlist.port_name words)
         (Netlist.inputs a_nl);
       Sim64.settle sa;
       Sim64.settle sb;
       List.iter
         (fun (p : Netlist.port) ->
           if Sim64.output_words sa p.Netlist.port_name <> Sim64.output_words sb p.Netlist.port_name
           then begin
             mismatch := Some c;
             raise Exit
           end)
         (Netlist.outputs a_nl);
       Sim64.step sa;
       Sim64.step sb
     done
   with Exit -> ());
  !mismatch

let run_check_bench () =
  print_endline "== static-verification benchmarks: CEC vs random-vector validation ==\n";
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let row label detail ms = Printf.printf "  %-34s %-38s %8.2f ms\n" label detail ms in
  let units = [ ("alu8", alu8.Lift.netlist); ("fpu16", fpu16_netlist) ] in
  List.iter
    (fun (uname, nl) ->
      let opt, _ = Netlist_opt.optimize nl in
      let v, ms = timed (fun () -> Cec.check nl opt) in
      row
        (Printf.sprintf "cec %s vs optimized" uname)
        (match v with
        | Cec.Equivalent -> "proven equivalent"
        | Cec.Inequivalent _ -> "INEQUIVALENT (bug!)"
        | Cec.Unknown -> "unknown")
        ms;
      let mutant, desc = Check.mutate ~seed:1 nl in
      let v, ms = timed (fun () -> Cec.check nl mutant) in
      row
        (Printf.sprintf "cec %s vs mutated" uname)
        (match v with
        | Cec.Inequivalent _ -> Printf.sprintf "caught: %s" desc
        | Cec.Equivalent -> "MISSED (bug!)"
        | Cec.Unknown -> "unknown")
        ms;
      let cycles = 2000 in
      let m, ms = timed (fun () -> random_equiv ~cycles nl opt) in
      row
        (Printf.sprintf "sim64 %s vs optimized" uname)
        (match m with
        | None -> Printf.sprintf "%d cycles x 64 lanes clean (no proof)" cycles
        | Some c -> Printf.sprintf "MISMATCH at cycle %d (bug!)" c)
        ms;
      let m, ms = timed (fun () -> random_equiv ~cycles nl mutant) in
      row
        (Printf.sprintf "sim64 %s vs mutated" uname)
        (match m with
        | Some c -> Printf.sprintf "caught at cycle %d" c
        | None -> Printf.sprintf "undetected in %d cycles" cycles)
        ms)
    units;
  let v, ms =
    timed (fun () ->
        Cec.check ~free_inputs:true ~tie_low:(Fault.select_cells faulty_alu8) alu8.Lift.netlist
          faulty_alu8)
  in
  row "cec alu8 vs fault-tied-inert"
    (match v with
    | Cec.Equivalent -> "proven equivalent (instrumentation inert)"
    | Cec.Inequivalent _ -> "INEQUIVALENT (bug!)"
    | Cec.Unknown -> "unknown")
    ms

(* ------------- resilience-supervisor benchmarks ------------- *)

(* Per-pair cost of the two ladder rungs on the same work: a full formal
   lifting attempt vs one seeded random-suite fallback probe against the
   pair's failing netlist, then a whole supervised sweep with a starvation
   slice to show the budget/ladder machinery end to end. *)
let run_resilience_bench () =
  print_endline "== resilience: formal lifting vs random-search fallback, per pair ==\n";
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let pairs = [ ("a_q0", "r_q0"); ("b_q1", "r_q2"); ("b_q0", "r_q7") ] in
  List.iter
    (fun (s, e) ->
      let (formal, stats), f_ms =
        timed (fun () ->
            Lift.lift_pair_stats alu8 ~start_dff:s ~end_dff:e
              ~violation:Fault.Setup_violation)
      in
      let spec =
        {
          Fault.start_dff = s;
          end_dff = e;
          kind = Fault.Setup_violation;
          constant = Fault.C0;
          activation = Fault.Any_transition;
        }
      in
      let faulty = Fault.failing_netlist alu8.Lift.netlist spec in
      let hits, r_ms =
        timed (fun () ->
            let suite = Testgen.random_alu_suite ~seed:7 ~width:8 ~cases:32 () in
            Array.fold_left
              (fun n hit -> if hit then n + 1 else n)
              0
              (Lift.detected_cases ~seed:7 suite faulty))
      in
      Printf.printf
        "  %s~>%s  formal %-13s %7d conflicts %7.1f ms | fallback 32 cases %2d hits %7.1f ms\n"
        s e
        (Lift.classification_name formal.Lift.classification)
        stats.Lift.p_conflicts f_ms hits r_ms)
    pairs;
  print_newline ();
  print_endline "== resilience: supervised ALU8 sweep, starvation-level 2-conflict slice ==\n";
  let config = { Lift.default_config with Lift.max_conflicts = 2 } in
  let analysis =
    Vega.aging_analysis
      ~config:{ Vega.default_phase1 with Vega.clock_margin = 1.0 }
      alu8 ~workload:Vega.run_minver_workload
  in
  let items = Vega.lifting_items analysis in
  let report, ms =
    timed (fun () -> Vega.error_lifting_supervised ~config analysis)
  in
  print_string (Resilience.render_report report);
  Printf.printf "  %d items supervised in %.0f ms\n" (List.length items) ms;
  print_newline ()

(* ------------- telemetry mode ------------- *)

(* One instrumented end-to-end ALU8 pipeline (phase 1 + supervised phase 2 +
   a word-parallel profiling run), drained into BENCH_telemetry.json.  The
   counters are deterministic for a fixed seed — they are the perf-trajectory
   signal; the span durations carry the wall-clock context. *)
let run_telemetry () =
  Telemetry.enable ();
  let analysis =
    Vega.aging_analysis
      ~config:{ Vega.default_phase1 with Vega.clock_margin = 1.0 }
      alu8 ~workload:Vega.run_minver_workload
  in
  let rp = Vega.error_lifting_supervised analysis in
  let sc = Simc.create ~profile:true alu8.Lift.netlist in
  Simc.run_random sc ~cycles:256;
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  let json =
    Json.Obj
      [
        ("schema", Json.String "vega-bench-telemetry/1");
        ( "counters",
          Json.Obj
            (List.map
               (fun (c : Telemetry.Counter.snapshot) ->
                 (c.Telemetry.Counter.c_name, Json.Int c.Telemetry.Counter.c_value))
               snap.Telemetry.ss_counters) );
        ( "histograms",
          Json.List
            (List.map
               (fun (h : Telemetry.Histogram.snapshot) ->
                 Json.Obj
                   [
                     ("name", Json.String h.Telemetry.Histogram.h_name);
                     ( "counts",
                       Json.List
                         (Array.to_list
                            (Array.map (fun n -> Json.Int n) h.Telemetry.Histogram.h_counts))
                     );
                     ("total", Json.Int h.Telemetry.Histogram.h_total);
                     ("sum", Json.Int h.Telemetry.Histogram.h_sum);
                   ])
               snap.Telemetry.ss_histograms) );
        ( "span_totals",
          Json.List
            (List.map
               (fun (name, count, total_ns) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("count", Json.Int count);
                     ("total_ns", Json.Int total_ns);
                   ])
               (Telemetry.span_totals snap)) );
      ]
  in
  let oc = open_out "BENCH_telemetry.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_string (Telemetry.Export.summary snap);
  Printf.printf "supervised items: %d, budget spent: %d conflicts\n"
    (List.length rp.Resilience.rp_items)
    rp.Resilience.rp_budget_spent;
  print_endline "telemetry written to BENCH_telemetry.json"

(* ------------- fleet mode ------------- *)

(* Multicore scaling of the fleet pool: the quick campaign at 1, 2 and 4
   worker domains, wall-clock per configuration, plus the cross-domain
   byte-identity check the whole engine is built around.  The speedups
   are honest measurements of THIS machine — on a single hardware core
   (the CI container) they hover around 1.0x; the >1.5x acceptance
   number needs real cores. *)
let run_fleet () =
  let config = Experiments.quick_fleet in
  let time_at domains =
    let t0 = Unix.gettimeofday () in
    let report = Experiments.fleet_campaign ~config ~domains () in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    (Experiments.render_fleet report, report, ms)
  in
  let out1, report, ms1 = time_at 1 in
  let out2, _, ms2 = time_at 2 in
  let out4, _, ms4 = time_at 4 in
  let identical = String.equal out1 out2 && String.equal out1 out4 in
  let violated, escaped, quarantined =
    List.fold_left
      (fun (v, e, q) (_, r) ->
        match r with
        | Error _ -> (v, e, q + 1)
        | Ok row ->
          ( (v + if row.Experiments.dv_onset_idx <> None then 1 else 0),
            (e + if row.Experiments.dv_escape then 1 else 0),
            q ))
      (0, 0, 0) report.Experiments.fe_results
  in
  let json =
    Json.Obj
      [
        ("schema", Json.String "vega-bench-fleet/1");
        ("devices", Json.Int config.Experiments.fd_devices);
        ("suite_cases", Json.Int report.Experiments.fe_suite_cases);
        ("violated", Json.Int violated);
        ("escaped", Json.Int escaped);
        ("quarantined", Json.Int quarantined);
        ("ms_1", Json.Float ms1);
        ("ms_2", Json.Float ms2);
        ("ms_4", Json.Float ms4);
        ("speedup_2", Json.Float (ms1 /. ms2));
        ("speedup_4", Json.Float (ms1 /. ms4));
        ("identical", Json.Bool identical);
      ]
  in
  let oc = open_out "BENCH_fleet.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "fleet pool scaling (%d devices, quick campaign):\n" config.Experiments.fd_devices;
  Printf.printf "  1 domain : %8.1f ms\n" ms1;
  Printf.printf "  2 domains: %8.1f ms (%.2fx)\n" ms2 (ms1 /. ms2);
  Printf.printf "  4 domains: %8.1f ms (%.2fx)\n" ms4 (ms1 /. ms4);
  Printf.printf "  outputs byte-identical across domain counts: %b\n" identical;
  if not identical then exit 1;
  print_endline "fleet scaling written to BENCH_fleet.json"

(* ------------- repair mode ------------- *)

(* Aging-aware repair on the ALU8 sweep: wall-clock of the full
   analyze-repair-rescore pipeline, recovered slack and the proof
   counters, written to BENCH_repair.json. *)
let run_repair () =
  let target = Lift.alu_target ~width:8 () in
  let t0 = Unix.gettimeofday () in
  let report = Vega.repair target ~workload:Vega.run_minver_workload in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  let r = report.Vega.rr_result in
  let recovered =
    List.fold_left
      (fun acc (o : Repair.pair_outcome) ->
        if o.Repair.po_slack_before_ps < 0.0 then
          acc
          +. (Float.min o.Repair.po_slack_after_ps 0.0 -. o.Repair.po_slack_before_ps)
        else acc)
      0.0 r.Repair.rs_outcomes
  in
  let per_rung rung =
    List.length (List.filter (fun c -> c.Repair.cm_rung = rung) r.Repair.rs_ledger)
  in
  let sb, cb, ub = report.Vega.rr_verdicts_before in
  let sa, ca, ua = report.Vega.rr_verdicts_after in
  let json =
    Json.Obj
      [
        ("schema", Json.String "vega-bench-repair/1");
        ("unit", Json.String "alu8");
        ("violating_before", Json.Int report.Vega.rr_violating_before);
        ("violating_after", Json.Int report.Vega.rr_violating_after);
        ("critical_before", Json.Int cb);
        ("critical_after", Json.Int ca);
        ("safe_before", Json.Int sb);
        ("safe_after", Json.Int sa);
        ("unknown_before", Json.Int ub);
        ("unknown_after", Json.Int ua);
        ("rewrites", Json.Int r.Repair.rs_rewrites);
        ("rewrites_strengthen", Json.Int (per_rung Repair.Strengthen));
        ("rewrites_dup_vote", Json.Int (per_rung Repair.Dup_vote));
        ("rewrites_rebalance", Json.Int (per_rung Repair.Rebalance));
        ("rewrites_approx", Json.Int (per_rung Repair.Approx));
        ("rejected", Json.Int r.Repair.rs_rejected);
        ("cec_failures", Json.Int r.Repair.rs_cec_failures);
        ("recovered_slack_ps", Json.Float recovered);
        ("cells_before", Json.Int r.Repair.rs_cells_before);
        ("cells_after", Json.Int r.Repair.rs_cells_after);
        ("area_before_um2", Json.Float r.Repair.rs_area_before_um2);
        ("area_after_um2", Json.Float r.Repair.rs_area_after_um2);
        ("ms", Json.Float ms);
      ]
  in
  let oc = open_out "BENCH_repair.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_string (Vega.render_repair report);
  Printf.printf "repair wall-clock: %.1f ms\n" ms;
  print_endline "repair results written to BENCH_repair.json"

(* ------------- experiment printing ------------- *)

let log s = Printf.eprintf "[bench] %s\n%!" s

let print_tables config =
  print_endline "== Paper tables and figures (see EXPERIMENTS.md for comparison) ==\n";
  print_string (Experiments.run_all ~config ~log ())

let with_context config f =
  let ctx = Experiments.make_context ~config ~log () in
  f ctx

let print_guard_campaign quick =
  let config =
    if quick then Experiments.quick_campaign else Experiments.default_campaign
  in
  print_string (Experiments.render_campaign (Experiments.campaign ~config ~log ()))

(* ------------- attack mode ------------- *)

(* The adversarial wearout campaign distilled to its headline numbers: the
   time-to-violation acceleration factor of the attack stream, and the
   detection latency of the canary channel against the software-only
   guard.  The campaign itself is deterministic for the fixed quick
   configuration; the wall clock carries the perf-trajectory context. *)
let run_attack_bench () =
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let config = Experiments.quick_attack_campaign in
  let report, ms = timed (fun () -> Experiments.attack_campaign ~config ~log ()) in
  print_string
    (Experiments.render_attack_campaign ~years_max:config.Experiments.ak_years_max report);
  let s = Experiments.attack_summary report.Experiments.ap_rows in
  let latency_of mode =
    List.fold_left
      (fun acc (r : Experiments.campaign_row) ->
        match (acc, r.Experiments.cr_latency) with
        | None, Some (i, _) when r.Experiments.cr_mode = mode -> Some i
        | _ -> acc)
      None report.Experiments.ap_rows
  in
  let fopt = function None -> Json.Null | Some f -> Json.Float f in
  let iopt = function None -> Json.Null | Some i -> Json.Int i in
  let c = report.Experiments.ap_corner in
  let json =
    Json.Obj
      [
        ("schema", Json.String "vega-bench-attack/1");
        ("width", Json.Int config.Experiments.ak_width);
        ("target_cells", Json.Int (List.length c.Experiments.ac_cells));
        ("baseline_duty", Json.Float c.Experiments.ac_baseline_obj);
        ("attacked_duty", Json.Float c.Experiments.ac_attacked_obj);
        ("search_evals", Json.Int c.Experiments.ac_evals);
        ("sat_patterns", Json.Int c.Experiments.ac_sat_patterns);
        ("fresh_crit_ps", Json.Float c.Experiments.ac_fresh_crit_ps);
        ("clock_period_ps", Json.Float c.Experiments.ac_clock_period_ps);
        ("ttv_nominal_years", fopt c.Experiments.ac_ttv_nominal);
        ("ttv_attack_years", fopt c.Experiments.ac_ttv_attack);
        ("acceleration", fopt c.Experiments.ac_acceleration);
        ("canaries", Json.Int (List.length report.Experiments.ap_canaries));
        ("canary_latency_instrs", iopt (latency_of "sw+canary"));
        ("sw_latency_instrs", iopt (latency_of "sw-only"));
        ("canary_first", Json.Int s.Experiments.as_canary_first);
        ("canary_wins", Json.Int s.Experiments.as_canary_wins);
        ("latency_pairs", Json.Int s.Experiments.as_latency_pairs);
        ( "guarded_escapes",
          Json.Int (s.Experiments.as_sw_escapes + s.Experiments.as_canary_escapes) );
        ("rows", Json.Int (List.length report.Experiments.ap_rows));
        ("wall_ms", Json.Float ms);
      ]
  in
  let oc = open_out "BENCH_attack.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "attack campaign: %.0f ms; results written to BENCH_attack.json\n" ms

(* Static-triage benchmark: how much of the phase-1 pair sweep does the
   Spbound analysis prune, and what does the pruned sweep cost?  The pair
   sweep runs [reps] times per corner so the wall-clock ratio is stable;
   verdict equality (pruned sweep = unpruned sweep, element for element)
   is asserted and recorded. *)
let run_analyze_bench () =
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e3)
  in
  let tree = Clock_tree.two_domain_gated ~sp_gated:0.05 () in
  let measure name nl ~reps =
    let fresh = Sta.fresh_timing ~clock_tree:tree c28 in
    let clock_period_ps = Sta.critical_path_ps ~timing:fresh nl *. 1.005 in
    let sb, spbound_ms = timed (fun () -> Spbound.analyze nl) in
    let pvs, classify_ms =
      timed (fun () -> Spbound.classify ~clock_tree:tree ~aglib ~years:10.0 ~clock_period_ps sb)
    in
    let safe_set = Hashtbl.create 256 in
    List.iter
      (fun (pv : Spbound.pair_verdict) ->
        if pv.Spbound.pv_verdict = Spbound.Safe then
          Hashtbl.replace safe_set (pv.Spbound.pv_start, pv.Spbound.pv_end, pv.Spbound.pv_check) ())
      pvs;
    let aged =
      Sta.aged_timing ~clock_tree:tree ~sp_of_net:(fun _ -> 0.3) ~years:10.0 aglib
    in
    let sweep ?skip () =
      let r = ref [] in
      for _ = 1 to reps do
        r := Sta.violating_pairs ?skip ~timing:aged ~clock_period_ps nl
      done;
      !r
    in
    let unpruned, unpruned_ms = timed (fun () -> sweep ()) in
    let pruned, pruned_ms =
      timed (fun () -> sweep ~skip:(fun s e c -> Hashtbl.mem safe_set (s, e, c)) ())
    in
    let equal = pruned = unpruned in
    let safe, critical, unknown = Spbound.verdict_counts pvs in
    let total = safe + critical + unknown in
    let prune_rate = float_of_int safe /. float_of_int (max total 1) in
    Printf.printf
      "%-6s pairs %4d: %4d safe / %3d critical / %3d unknown (%.1f%% pruned)\n" name total safe
      critical unknown (100.0 *. prune_rate);
    Printf.printf
      "       spbound %.1f ms, classify %.1f ms; sweep x%d: %.1f ms -> %.1f ms (%.2fx), \
       verdicts %s\n"
      spbound_ms classify_ms reps unpruned_ms pruned_ms
      (unpruned_ms /. Float.max pruned_ms 1e-6)
      (if equal then "identical" else "DIFFER");
    Json.Obj
      [
        ("name", Json.String name);
        ("pairs", Json.Int total);
        ("safe", Json.Int safe);
        ("critical", Json.Int critical);
        ("unknown", Json.Int unknown);
        ("prune_rate", Json.Float prune_rate);
        ("spbound_ms", Json.Float spbound_ms);
        ("classify_ms", Json.Float classify_ms);
        ("sweep_reps", Json.Int reps);
        ("sweep_unpruned_ms", Json.Float unpruned_ms);
        ("sweep_pruned_ms", Json.Float pruned_ms);
        ("speedup", Json.Float (unpruned_ms /. Float.max pruned_ms 1e-6));
        ("violating", Json.Int (List.length unpruned));
        ("verdicts_equal", Json.Bool equal);
      ]
  in
  print_endline "== static triage (Spbound) prune rate and sweep speedup ==";
  let row_alu = measure "alu8" alu8.Lift.netlist ~reps:40 in
  let row_fpu = measure "fpu16" fpu16_netlist ~reps:10 in
  let rows = [ row_alu; row_fpu ] in
  let json =
    Json.Obj [ ("schema", Json.String "vega-bench-analyze/1"); ("netlists", Json.List rows) ]
  in
  let oc = open_out "BENCH_analyze.json" in
  output_string oc (Json.to_string ~pretty:true json);
  output_string oc "\n";
  close_out oc;
  print_endline "static triage results written to BENCH_analyze.json"

let () =
  let arg = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let config =
    if Array.exists (String.equal "quick") Sys.argv then Experiments.quick_config
    else Experiments.default_config
  in
  match arg with
  | "all" | "quick" ->
    print_tables config;
    print_guard_campaign (arg = "quick");
    run_micro ();
    run_ablations ()
  | "guard" -> print_guard_campaign (Array.exists (String.equal "quick") Sys.argv)
  | "analyze" -> run_analyze_bench ()
  | "attack" -> run_attack_bench ()
  | "check" -> run_check_bench ()
  | "resilience" -> run_resilience_bench ()
  | "telemetry" -> run_telemetry ()
  | "fleet" -> run_fleet ()
  | "repair" -> run_repair ()
  | "micro" -> run_micro ()
  | "ablations" -> run_ablations ()
  | "fig4" -> print_string (Experiments.render_fig4 (Experiments.fig4 ()))
  | "table1" -> print_string (Experiments.render_table1 (Experiments.table1 ()))
  | "table2" -> print_string (Experiments.render_table2 (Experiments.table2 ()))
  | "fig8" ->
    with_context config (fun c -> print_string (Experiments.render_fig8 (Experiments.fig8 c)))
  | "table3" ->
    with_context config (fun c -> print_string (Experiments.render_table3 (Experiments.table3 c)))
  | "table4" ->
    with_context config (fun c -> print_string (Experiments.render_table4 (Experiments.table4 c)))
  | "table5" ->
    with_context config (fun c -> print_string (Experiments.render_table5 (Experiments.table5 c)))
  | "table6" ->
    with_context config (fun c -> print_string (Experiments.render_table6 (Experiments.table6 c)))
  | "table7" ->
    with_context config (fun c -> print_string (Experiments.render_table7 (Experiments.table7 c)))
  | "fig9" ->
    with_context config (fun c -> print_string (Experiments.render_fig9 (Experiments.fig9 c)))
  | other ->
    Printf.eprintf
      "unknown argument %S (expected \
       all|quick|micro|ablations|analyze|guard|attack|check|resilience|telemetry|fleet|fig4|table1|table2|fig8|table3|table4|table5|table6|table7|fig9)\n"
      other;
    exit 2
