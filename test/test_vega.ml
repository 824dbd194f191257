(* End-to-end tests for the Vega workflow core and smoke tests for the
   experiment drivers (small configurations). *)

let small_target = Lift.alu_target ~width:8 ()

let small_phase1 =
  {
    Vega.default_phase1 with
    Vega.clock_margin = 1.0;
    clock_tree = Clock_tree.two_domain_gated ~leaf_buffers:4 ~sp_gated:0.05 ();
  }

let analysis =
  Vega.aging_analysis ~config:small_phase1 small_target ~workload:Vega.run_minver_workload

let test_analysis_sanity () =
  Alcotest.(check bool) "clock period positive" true (analysis.Vega.clock_period_ps > 0.0);
  (* the fresh design meets timing at the derived clock *)
  Alcotest.(check int) "fresh setup clean" 0
    (List.length analysis.Vega.fresh_report.Sta.setup_violations);
  Alcotest.(check int) "fresh hold clean" 0
    (List.length analysis.Vega.fresh_report.Sta.hold_violations);
  (* aging opens violations *)
  Alcotest.(check bool) "aged violations appear" true
    ((Vega.aged_report analysis).Sta.setup_violations <> []);
  Alcotest.(check bool) "violating pairs found" true (analysis.Vega.violating_pairs <> []);
  Alcotest.(check bool) "sp profiled" true (analysis.Vega.sp_samples > 0)

let test_cell_degradation_range () =
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "factor in the Fig 8 band" true (f >= 1.015 && f <= 1.07))
    analysis.Vega.cell_degradation;
  Alcotest.(check bool) "covers all comb cells" true
    (List.length analysis.Vega.cell_degradation > 300)

let test_static_prune_identical () =
  (* The statically pruned sweep must produce the same violating pairs as
     the unpruned one (Safe pairs are proven non-violating), while
     actually pruning a nonzero fraction of the pair population. *)
  let pruned =
    Vega.aging_analysis ~config:small_phase1 ~static_prune:true small_target
      ~workload:Vega.run_minver_workload
  in
  Alcotest.(check bool) "pruned run records verdicts" true
    (pruned.Vega.static_verdicts <> None);
  (match pruned.Vega.static_verdicts with
  | None -> ()
  | Some pvs ->
    let safe, _, _ = Spbound.verdict_counts pvs in
    Alcotest.(check bool) "a nonzero fraction of pairs is Safe" true (safe > 0);
    Alcotest.(check bool) "not every pair is Safe" true (safe < List.length pvs));
  Alcotest.(check bool) "violating pairs identical with and without pruning" true
    (pruned.Vega.violating_pairs = analysis.Vega.violating_pairs);
  Alcotest.(check bool) "unpruned run records no verdicts" true
    (analysis.Vega.static_verdicts = None)

(* [Vega.phase1_clock] is the clock [aging_analysis] runs at, bit for bit,
   and the fresh critical path the inline probe phase 1 used to compute;
   [Vega.static_triage] at that clock is the triage a pruned analysis
   records. *)
let test_phase1_owners () =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  List.iter
    (fun (name, (target : Lift.target), (config : Vega.phase1_config)) ->
      let nl = target.Lift.netlist in
      let a =
        Vega.aging_analysis ~config ~static_prune:true target ~workload:Vega.run_minver_workload
      in
      let clock = Vega.phase1_clock config nl in
      let probe =
        let timing =
          Sta.fresh_timing ~derate:config.Vega.derate ~clock_tree:config.Vega.clock_tree
            Cell.Library.c28
        in
        let r = Sta.analyze ~timing ~clock_period_ps:1e9 nl in
        List.fold_left
          (fun acc (e : Sta.endpoint_slack) -> Float.max acc (1e9 -. e.Sta.setup_slack_ps))
          0.0 r.Sta.endpoint_slacks
      in
      Alcotest.(check bool) (name ^ ": clock = analysis clock") true
        (same clock.Vega.period_ps a.Vega.clock_period_ps);
      Alcotest.(check bool) (name ^ ": critical path = inline probe") true
        (same clock.Vega.critical_path_ps probe);
      Alcotest.(check bool) (name ^ ": clock = critical path x margin") true
        (same clock.Vega.period_ps (probe *. config.Vega.clock_margin));
      let _, pvs = Vega.static_triage config ~clock_period_ps:clock.Vega.period_ps nl in
      let inline_triage =
        Spbound.classify ~derate:config.Vega.derate ~clock_tree:config.Vega.clock_tree
          ~aglib:(Aging.Timing_library.build Cell.Library.c28) ~years:config.Vega.years
          ~clock_period_ps:a.Vega.clock_period_ps (Spbound.analyze nl)
      in
      Alcotest.(check bool) (name ^ ": triage = inline triage") true (pvs = inline_triage);
      Alcotest.(check bool) (name ^ ": triage = recorded verdicts") true
        (a.Vega.static_verdicts = Some pvs))
    [
      ("alu8", small_target, small_phase1);
      ("alu32", Lift.alu_target ~width:32 (), Vega.default_phase1);
      ("fpu16", Lift.fpu_target (), { Vega.default_phase1 with Vega.derate = 1.03 });
    ]

let test_full_workflow () =
  let report =
    Vega.run_workflow ~phase1:small_phase1 small_target ~workload:Vega.run_minver_workload
  in
  Alcotest.(check bool) "pairs lifted" true (report.Vega.pair_results <> []);
  Alcotest.(check bool) "suite built" true (report.Vega.suite.Lift.suite_cases <> []);
  Alcotest.(check bool) "suite cycles measured" true (report.Vega.suite_cycles > 0);
  Alcotest.(check bool) "suite runs within thousands of cycles" true
    (report.Vega.suite_cycles < 5000);
  let counts = Vega.classification_counts report.Vega.pair_results in
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  Alcotest.(check int) "classification partitions pairs" (List.length report.Vega.pair_results)
    total

(* --- the batched (word-parallel) SP replay --- *)

(* The documented contract of [Vega.replay_sp]: ones-counts are exact
   w.r.t. a sequential back-to-back replay of the same operation stream
   (each lane's warm-up replays the preceding ops, so lane boundaries do
   not perturb the pipeline state the samples observe). *)
(* a sequential back-to-back replay of [ops] on the scalar simulator *)
let scalar_replay (target : Lift.target) ops =
  let latency =
    match target.Lift.kind with Lift.Alu_module _ -> Alu.latency | Lift.Fpu_module _ -> Fpu.latency
  in
  let r = Sim.create ~profile:true target.Lift.netlist in
  let idle = List.map (fun (p, v) -> (p, Bitvec.create ~width:(Bitvec.width v) 0)) ops.(0) in
  for _ = 1 to latency do
    List.iter (fun (p, v) -> Sim.set_input r p v) idle;
    Sim.step ~sample:false r
  done;
  Array.iter
    (fun assignment ->
      List.iter (fun (p, v) -> Sim.set_input r p v) assignment;
      Sim.step r)
    ops;
  r

let test_batched_replay_matches_scalar () =
  let ops = Vega.recorded_unit_ops small_target ~workload:Vega.run_minver_workload in
  Alcotest.(check bool) "ops recorded" true (Array.length ops > 0);
  match Vega.replay_sp small_target ops with
  | None -> Alcotest.fail "replay returned no profile"
  | Some (samples, sp) ->
    let nl = small_target.Lift.netlist in
    let n = Array.length ops in
    let r = scalar_replay small_target ops in
    Alcotest.(check int) "one sample per operation" n samples;
    Alcotest.(check int) "samples match scalar replay" (Sim.samples r) samples;
    let mismatches = ref 0 in
    for net = 0 to Netlist.num_nets nl - 1 do
      if sp net <> Sim.sp r net then incr mismatches
    done;
    Alcotest.(check int) "SP exact on every net" 0 !mismatches

(* [Vega.profile_sp] records straight into blocks of 4096 operations; it
   must equal replaying the recorded operation lists and the scalar
   replay, bit for bit, on a stream that spans several blocks, on both unit
   kinds, and on none. *)
let test_profile_matches_recorded_replay () =
  let kernel (b : Workload.benchmark) m =
    let cfg = Machine.config m in
    let compiled = Minic.compile ~width:cfg.Machine.width ~fmt:cfg.Machine.fmt b.Workload.program in
    Machine.reset m;
    ignore (Machine.run m (Minic.assemble compiled))
  in
  List.iter
    (fun (name, (target : Lift.target), workload) ->
      let ops = Vega.recorded_unit_ops target ~workload in
      Alcotest.(check bool) (name ^ ": stream spans several blocks") true (Array.length ops > 4096);
      match (Vega.profile_sp target ~workload, Vega.replay_sp target ops) with
      | Some (n1, sp1), Some (n2, sp2) ->
        let r = scalar_replay target ops in
        Alcotest.(check int) (name ^ ": samples") n2 n1;
        Alcotest.(check int) (name ^ ": samples match scalar replay") (Sim.samples r) n1;
        let bits x = Int64.bits_of_float x in
        let mismatches = ref 0 in
        for net = 0 to Netlist.num_nets target.Lift.netlist - 1 do
          if bits (sp1 net) <> bits (sp2 net) || bits (sp1 net) <> bits (Sim.sp r net) then
            incr mismatches
        done;
        Alcotest.(check int) (name ^ ": SP bitwise on every net") 0 !mismatches;
        Alcotest.(check bool) (name ^ ": no operations, no profile") true
          (Vega.profile_sp target ~workload:(fun _ -> ()) = None)
      | _ -> Alcotest.fail (name ^ ": a replay returned no profile"))
    [
      ("alu16", Lift.alu_target ~width:16 (), kernel Workload.minver);
      (* nbody feeds the FPU about a thousand operations a run *)
      ( "fpu16",
        Lift.fpu_target (),
        fun m ->
          for _ = 1 to 5 do
            kernel (Workload.find "nbody") m
          done );
    ]

let test_machine_for () =
  let m = Vega.machine_for small_target in
  Alcotest.(check int) "width matches" 8 (Machine.config m).Machine.width;
  let mf = Vega.machine_for (Lift.fpu_target ()) in
  Alcotest.(check int) "fpu machine width" 16 (Machine.config mf).Machine.width

(* The three machine configurations Vega.unit_config replaced, kept
   verbatim as oracles: the old target-keyed unit_config, the campaign's
   dims (with its RNG seed) and suite_cycles' own width/format match. *)
let old_unit_config (target : Lift.target) =
  match target.Lift.kind with
  | Lift.Alu_module { width } ->
    let fmt = if width >= 16 then Fpu_format.binary16 else Fpu_format.tiny in
    { Machine.default_config with Machine.width; fmt }
  | Lift.Fpu_module { fmt } ->
    { Machine.default_config with Machine.width = max 16 (Fpu_format.width fmt); fmt }

let old_campaign_config (target : Lift.target) seed =
  let width, fmt =
    match target.Lift.kind with
    | Lift.Alu_module { width } ->
      (width, if width >= 16 then Fpu_format.binary16 else Fpu_format.tiny)
    | Lift.Fpu_module { fmt } -> (max 16 (Fpu_format.width fmt), fmt)
  in
  { Machine.default_config with Machine.width; fmt; rng_seed = seed }

let old_suite_config (kind : Lift.module_kind) =
  let width, fmt =
    match kind with
    | Lift.Alu_module { width } ->
      (width, if width >= 16 then Fpu_format.binary16 else Fpu_format.tiny)
    | Lift.Fpu_module { fmt } -> (max 16 (Fpu_format.width fmt), fmt)
  in
  { Machine.default_config with Machine.width; fmt }

let test_unit_config_oracles () =
  let targets =
    List.map
      (fun width -> (Printf.sprintf "ALU%d" width, Lift.alu_target ~width ()))
      [ 4; 8; 16; 32 ]
    @ [
        ("FPU tiny", Lift.fpu_target ~fmt:Fpu_format.tiny ());
        ("FPU binary16", Lift.fpu_target ~fmt:Fpu_format.binary16 ());
      ]
  in
  List.iter
    (fun (name, (target : Lift.target)) ->
      let cfg = Vega.unit_config target.Lift.kind in
      let same what a b = Alcotest.(check bool) (name ^ ": " ^ what) true (a = b) in
      same "unit config" (old_unit_config target) cfg;
      same "suite config" (old_suite_config target.Lift.kind) cfg;
      (* a machine exists only where the format fits the word (not ALU4) *)
      let built config =
        match Machine.create ~config ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional () with
        | _ -> Some config
        | exception Invalid_argument _ -> None
      in
      let config_of machine =
        match machine () with m -> Some (Machine.config m) | exception Invalid_argument _ -> None
      in
      same "machine_for" (built (old_unit_config target))
        (config_of (fun () -> Vega.machine_for target));
      same "campaign machine"
        (built (old_campaign_config target 42))
        (config_of (fun () -> Vega.machine_for ~rng_seed:42 target)))
    targets

(* --- experiment drivers (cheap ones; the full context is exercised by the
   benchmark harness) --- *)

let test_fig4_shape () =
  let f = Experiments.fig4 () in
  List.iter
    (fun (sp, series) ->
      let _, final = List.nth series (List.length series - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "SP %.2f degradation in band" sp)
        true
        (final > 1.5 && final < 7.0);
      (* monotone in years *)
      let rec mono = function
        | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && mono rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone" true (mono series))
    f.Experiments.sp_series;
  (* lower SP ages faster: compare final points *)
  let final sp =
    let _, series = List.find (fun (s, _) -> Float.abs (s -. sp) < 1e-9) f.Experiments.sp_series in
    snd (List.nth series (List.length series - 1))
  in
  Alcotest.(check bool) "SP 0.05 worse than SP 0.95" true (final 0.05 > final 0.95)

let test_table1_shape () =
  let rows = Experiments.table1 () in
  Alcotest.(check int) "ten signals" 10 (List.length rows);
  List.iter (fun (_, sp) -> Alcotest.(check bool) "sp in [0,1]" true (sp >= 0.0 && sp <= 1.0)) rows;
  (* the biased stimulus makes $1 high-SP and $4 low-SP *)
  let sp name = snd (List.find (fun (n, _) -> String.length n >= 2 && String.sub n 3 (String.length name) = name) rows) in
  ignore sp

let test_table2_trace () =
  let t = Experiments.table2 () in
  Alcotest.(check bool) "short trace" true (t.Formal.Trace.cycles <= 4);
  Alcotest.(check bool) "observes shadow" true
    (List.exists (fun (n, _) -> String.length n > 2 && String.sub n (String.length n - 2) 2 = "_s")
       t.Formal.Trace.observed);
  let rendered = Experiments.render_table2 t in
  Alcotest.(check bool) "renders" true (String.length rendered > 40)

let () =
  Alcotest.run "vega"
    [
      ( "workflow",
        [
          Alcotest.test_case "analysis sanity" `Quick test_analysis_sanity;
          Alcotest.test_case "cell degradation" `Quick test_cell_degradation_range;
          Alcotest.test_case "static prune is transparent" `Quick test_static_prune_identical;
          Alcotest.test_case "phase-1 hand-off owners" `Quick test_phase1_owners;
          Alcotest.test_case "full workflow" `Quick test_full_workflow;
          Alcotest.test_case "machine_for" `Quick test_machine_for;
          Alcotest.test_case "unit_config equals its copies" `Quick test_unit_config_oracles;
        ] );
      ( "batched profile",
        [
          Alcotest.test_case "replay matches scalar" `Quick test_batched_replay_matches_scalar;
          Alcotest.test_case "profile = replay of the recording" `Quick
            test_profile_matches_recorded_replay;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "fig4" `Quick test_fig4_shape;
          Alcotest.test_case "table1" `Quick test_table1_shape;
          Alcotest.test_case "table2" `Quick test_table2_trace;
        ] );
    ]
