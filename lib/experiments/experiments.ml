type config = {
  alu_width : int;
  fpu_fmt : Fpu_format.fmt;
  alu_margin : float;
  fpu_margin : float;
  path_cap : int;
  table7_runs : int;
  fig9_threshold : float;
  lift_max_conflicts : int;
}

let default_config =
  {
    alu_width = 32;
    fpu_fmt = Fpu_format.binary16;
    alu_margin = 1.005;
    fpu_margin = 1.046;
    path_cap = 50_000;
    table7_runs = 10;
    fig9_threshold = 0.02;
    lift_max_conflicts = 200_000;
  }

let quick_config = { default_config with path_cap = 5_000; table7_runs = 3 }

type context = {
  cfg : config;
  log : string -> unit;
  alu_analysis : Vega.analysis;
  fpu_analysis : Vega.analysis;
  alu_nomit : Vega.workflow_report;
  alu_mit : Vega.workflow_report;
  fpu_nomit : Vega.workflow_report;
  fpu_mit : Vega.workflow_report;
}

let context_config c = c.cfg
let alu_report c = c.alu_nomit
let fpu_report c = c.fpu_nomit
let alu_report_mitigated c = c.alu_mit
let fpu_report_mitigated c = c.fpu_mit

(* A workload benchmark's kernel, compiled for the machine's word width. *)
let kernel_workload (b : Workload.benchmark) m =
  let width = (Machine.config m).Machine.width in
  let fmt = (Machine.config m).Machine.fmt in
  let compiled = Minic.compile ~width ~fmt b.Workload.program in
  Machine.reset m;
  ignore (Machine.run ~max_instructions:3_000_000 m (Minic.assemble compiled))

(* The representative workload of phase one: the minver kernel
   (paper Section 4). *)
let minver_workload = kernel_workload Workload.minver

let make_context ?(config = default_config) ?(log = fun _ -> ()) () =
  let phase1 margin =
    { Vega.default_phase1 with Vega.clock_margin = margin; max_violating_paths = config.path_cap }
  in
  let lift_cfg mitigation =
    { Lift.default_config with Lift.mitigation; max_conflicts = config.lift_max_conflicts }
  in
  log "phase 1: ALU aging analysis (profiling minver on the gate-level ALU)";
  let alu_target = Lift.alu_target ~width:config.alu_width () in
  let alu_analysis =
    Vega.aging_analysis ~config:(phase1 config.alu_margin) alu_target ~workload:minver_workload
  in
  log "phase 1: FPU aging analysis";
  let fpu_target = Lift.fpu_target ~fmt:config.fpu_fmt () in
  let fpu_analysis =
    Vega.aging_analysis ~config:(phase1 config.fpu_margin) fpu_target ~workload:minver_workload
  in
  log "phase 2: ALU error lifting (without mitigation)";
  let alu_nomit = Vega.workflow_of_analysis ~phase2:(lift_cfg false) alu_analysis in
  log "phase 2: ALU error lifting (with mitigation)";
  let alu_mit = Vega.workflow_of_analysis ~phase2:(lift_cfg true) alu_analysis in
  log "phase 2: FPU error lifting (without mitigation)";
  let fpu_nomit = Vega.workflow_of_analysis ~phase2:(lift_cfg false) fpu_analysis in
  log "phase 2: FPU error lifting (with mitigation)";
  let fpu_mit = Vega.workflow_of_analysis ~phase2:(lift_cfg true) fpu_analysis in
  { cfg = config; log; alu_analysis; fpu_analysis; alu_nomit; alu_mit; fpu_nomit; fpu_mit }

(* ---------------- Figure 4 ---------------- *)

type fig4 = { sp_series : (float * (float * float) list) list }

let fig4 () =
  let lib = Aging.Timing_library.build Cell.Library.c28 in
  let sps = [ 0.05; 0.25; 0.5; 0.75; 0.95 ] in
  let years = List.init 11 float_of_int in
  {
    sp_series =
      List.map
        (fun sp ->
          ( sp,
            List.map
              (fun y ->
                (y, 100.0 *. (Aging.Timing_library.factor lib Cell.Kind.Xor2 ~sp ~years:y -. 1.0)))
              years ))
        sps;
  }

let render_fig4 f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 4: switching-delay degradation of a 28nm-class XOR cell over 10 years\n";
  Buffer.add_string buf "years:     ";
  List.iter (fun y -> Buffer.add_string buf (Printf.sprintf "%6.0f" y)) (List.init 11 float_of_int);
  Buffer.add_char buf '\n';
  List.iter
    (fun (sp, series) ->
      Buffer.add_string buf (Printf.sprintf "SP %.2f  " sp);
      List.iter (fun (_, pct) -> Buffer.add_string buf (Printf.sprintf "%5.2f%%" pct)) series;
      Buffer.add_char buf '\n')
    f.sp_series;
  Buffer.contents buf

(* ---------------- Table 1 ---------------- *)

let table1 () =
  let nl = Example_circuits.pipelined_adder () in
  let sim = Sim.create ~profile:true nl in
  let rng = Random.State.make [| 0x7ab1e |] in
  (* biased stimulus so that the profile exhibits the nonuniformity the
     paper's Table 1 illustrates *)
  let biased p = Random.State.float rng 1.0 < p in
  for _ = 1 to 2000 do
    Sim.set_input_bit sim "a" 0 (biased 0.85);
    Sim.set_input_bit sim "a" 1 (biased 0.55);
    Sim.set_input_bit sim "b" 0 (biased 0.40);
    Sim.set_input_bit sim "b" 1 (biased 0.15);
    Sim.step sim
  done;
  List.map
    (fun name ->
      let c = Netlist.find_cell nl name in
      let pin = if Cell.Kind.is_sequential c.Netlist.kind then "Q" else "Y" in
      (Printf.sprintf "%s%s.%s" (Cell.Kind.to_string c.Netlist.kind) name pin, Sim.sp_of_cell sim name))
    [ "$1"; "$2"; "$3"; "$4"; "$5"; "$6"; "$7"; "$8"; "$9"; "$10" ]

let render_table1 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Table 1: SP profile of the example adder netlist\n";
  List.iteri
    (fun k (name, sp) ->
      Buffer.add_string buf (Printf.sprintf "%-14s %4.2f   " name sp);
      if k mod 3 = 2 then Buffer.add_char buf '\n')
    rows;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---------------- Table 2 ---------------- *)

let table2 () =
  let nl = Example_circuits.pipelined_adder () in
  let spec =
    {
      Fault.start_dff = "$4";
      end_dff = "$10";
      kind = Fault.Setup_violation;
      constant = Fault.C1;
      activation = Fault.Any_transition;
    }
  in
  let inst = Fault.instrument_shadow nl spec in
  match
    Formal.check_cover ~watch:inst.Fault.watch inst.Fault.netlist ~cover:inst.Fault.cover
  with
  | Formal.Trace_found t -> t
  | _ -> failwith "Experiments.table2: no trace for the example failure"

let render_table2 t =
  "Table 2: trace provoking the instrumented $4~>$10 setup failure (C=1)\n"
  ^ Formal.Trace.to_string t

(* ---------------- Figure 8 ---------------- *)

type fig8_bucket = { lo_pct : float; hi_pct : float; alu_frac : float; fpu_frac : float }

let fig8 ctx =
  let pcts analysis =
    List.map (fun (_, f) -> 100.0 *. (f -. 1.0)) analysis.Vega.cell_degradation
  in
  let alu = pcts ctx.alu_analysis and fpu = pcts ctx.fpu_analysis in
  let buckets = List.init 10 (fun k -> (1.5 +. (0.5 *. float_of_int k), 2.0 +. (0.5 *. float_of_int k))) in
  let frac data (lo, hi) =
    if data = [] then 0.0
    else
      float_of_int (List.length (List.filter (fun p -> p >= lo && p < hi) data))
      /. float_of_int (List.length data)
  in
  List.map
    (fun (lo, hi) ->
      { lo_pct = lo; hi_pct = hi; alu_frac = frac alu (lo, hi); fpu_frac = frac fpu (lo, hi) })
    buckets

let render_fig8 buckets =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 8: distribution of aging-induced delay increase (combinational cells)\n";
  Buffer.add_string buf "  delay increase     ALU          FPU\n";
  List.iter
    (fun b ->
      if b.alu_frac > 0.0 || b.fpu_frac > 0.0 then
        Buffer.add_string buf
          (Printf.sprintf "  [%3.1f%%, %3.1f%%)   %5.1f%%  %s  %5.1f%%  %s\n" b.lo_pct b.hi_pct
             (100.0 *. b.alu_frac)
             (String.make (int_of_float (30.0 *. b.alu_frac)) '#')
             (100.0 *. b.fpu_frac)
             (String.make (int_of_float (30.0 *. b.fpu_frac)) '#')))
    buckets;
  Buffer.contents buf

(* ---------------- Table 3 ---------------- *)

type table3_row = {
  t3_unit : string;
  setup_wns_ps : float;
  setup_paths : int;
  setup_paths_capped : bool;
  hold_wns_ps : float;
  hold_paths : int;
  unique_pairs : int;
}

let table3 ctx =
  let row name analysis (report : Vega.workflow_report) =
    let r = Vega.aged_report analysis in
    {
      t3_unit = name;
      setup_wns_ps = r.Sta.wns_setup_ps;
      setup_paths = List.length r.Sta.setup_violations;
      setup_paths_capped = r.Sta.truncated;
      hold_wns_ps = r.Sta.wns_hold_ps;
      hold_paths = List.length r.Sta.hold_violations;
      unique_pairs = List.length report.Vega.pair_results;
    }
  in
  [ row "ALU" ctx.alu_analysis ctx.alu_nomit; row "FPU" ctx.fpu_analysis ctx.fpu_nomit ]

let render_table3 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Table 3: STA results with aging-aware timing libraries\n";
  Buffer.add_string buf "  Unit   Setup WNS / paths          Hold WNS / paths   unique pairs\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-5s  %6.0fps / %s%-8d      %6.0fps / %-6d   %d\n" r.t3_unit
           r.setup_wns_ps
           (if r.setup_paths_capped then ">=" else "")
           r.setup_paths
           (if r.hold_paths = 0 then 0.0 else r.hold_wns_ps)
           r.hold_paths r.unique_pairs))
    rows;
  Buffer.contents buf

(* ---------------- Table 4 ---------------- *)

type table4_row = {
  t4_unit : string;
  without : (Lift.classification * float) list;
  with_mitigation : (Lift.classification * float) list;
}

let percentages results =
  let n = max 1 (List.length results) in
  List.map
    (fun (cls, count) -> (cls, 100.0 *. float_of_int count /. float_of_int n))
    (Vega.classification_counts results)

let table4 ctx =
  [
    {
      t4_unit = "ALU";
      without = percentages ctx.alu_nomit.Vega.pair_results;
      with_mitigation = percentages ctx.alu_mit.Vega.pair_results;
    };
    {
      t4_unit = "FPU";
      without = percentages ctx.fpu_nomit.Vega.pair_results;
      with_mitigation = percentages ctx.fpu_mit.Vega.pair_results;
    };
  ]

let render_table4 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Table 4: test-case construction outcomes (% of unique pairs)\n";
  Buffer.add_string buf
    "  Unit   w/o mitigation: S / UR / FF / FC     w/ mitigation: S / UR / FF / FC\n";
  let line ps =
    String.concat " / "
      (List.map (fun (_, pct) -> Printf.sprintf "%4.1f" pct) ps)
  in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-5s  %s          %s\n" r.t4_unit (line r.without)
           (line r.with_mitigation)))
    rows;
  Buffer.contents buf

(* Table 4 under the resilience supervisor: a constrained slice forces the
   FF outcomes the paper reports, and the degradation ladder then splits
   that bucket into fallback-covered vs. truly exhausted. *)

type table4s_row = {
  t4s_unit : string;
  t4s_counts : (Resilience.split_class * int) list;
  t4s_budget_spent : int;
  t4s_escalations : int;
}

let table4_resilient ?(slice = 2) ctx =
  let supervised analysis =
    let items = Vega.lifting_items analysis in
    let config = { Lift.default_config with Lift.max_conflicts = slice } in
    let sup =
      Resilience.default_supervisor ~pairs:(List.length items) config
    in
    Resilience.supervised_lift ~config ~supervisor:sup analysis.Vega.target items
  in
  List.map
    (fun (t4s_unit, analysis) ->
      ctx.log (Printf.sprintf "table 4 (resilient): %s supervised lifting" t4s_unit);
      let rp = supervised analysis in
      {
        t4s_unit;
        t4s_counts = Resilience.split_counts rp;
        t4s_budget_spent = rp.Resilience.rp_budget_spent;
        t4s_escalations = rp.Resilience.rp_escalations;
      })
    [ ("ALU", ctx.alu_analysis); ("FPU", ctx.fpu_analysis) ]

let render_table4_resilient rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "Table 4 (resilient): supervised outcomes, FF split by the degradation ladder\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-5s  %s   (%d conflicts, %d escalation(s))\n" r.t4s_unit
           (String.concat "  "
              (List.map
                 (fun (c, n) -> Printf.sprintf "%s %d" (Resilience.split_name c) n)
                 r.t4s_counts))
           r.t4s_budget_spent r.t4s_escalations))
    rows;
  Buffer.contents buf

(* ---------------- Table 5 ---------------- *)

type table5_row = {
  t5_unit : string;
  cases_without : int;
  cycles_without : int;
  cases_with : int;
  cycles_with : int;
}

let table5 ctx =
  let row name (nomit : Vega.workflow_report) (mit : Vega.workflow_report) =
    {
      t5_unit = name;
      cases_without = List.length nomit.Vega.suite.Lift.suite_cases;
      cycles_without = nomit.Vega.suite_cycles;
      cases_with = List.length mit.Vega.suite.Lift.suite_cases;
      cycles_with = mit.Vega.suite_cycles;
    }
  in
  [ row "ALU" ctx.alu_nomit ctx.alu_mit; row "FPU" ctx.fpu_nomit ctx.fpu_mit ]

let render_table5 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Table 5: generated test cases and execution cycles\n";
  Buffer.add_string buf "  Unit   w/o mitigation (cases/cycles)   w/ mitigation (cases/cycles)\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-5s  %6d / %-8d               %6d / %-8d\n" r.t5_unit
           r.cases_without r.cycles_without r.cases_with r.cycles_with))
    rows;
  Buffer.contents buf

(* ---------------- Table 6 ---------------- *)

type fm = FM0 | FM1 | FMR

let fm_name = function FM0 -> "0" | FM1 -> "1" | FMR -> "R"
let fm_constant = function FM0 -> Fault.C0 | FM1 -> Fault.C1 | FMR -> Fault.C_random

(* The capture fault of one lifted pair under one failure model. *)
let spec_of_pair (pr : Lift.pair_result) constant =
  {
    Fault.start_dff = pr.Lift.start_dff;
    end_dff = pr.Lift.end_dff;
    kind = pr.Lift.violation;
    constant;
    activation = Fault.Any_transition;
  }

type table6_row = {
  t6_unit : string;
  t6_fm : fm;
  t6_mitigated : bool;
  detected_pct : float;
  before_pct : float;
  late_pct : float;
  stall_pct : float;
}

(* Run the suite case by case on a machine; first detection (index, stall?). *)
let first_detection m (suite : Lift.suite) =
  let rec go i = function
    | [] -> None
    | tc :: rest -> (
      match Integrate.Runner.run_case m tc with
      | Ok () -> go (i + 1) rest
      | Error (Machine.Stalled | Machine.Out_of_fuel) -> Some (i, true)
      | Error (Machine.Exited _) -> Some (i, false))
  in
  go 0 suite.Lift.suite_cases

let faulty_machine (report : Vega.workflow_report) spec =
  let faulty = Fault.failing_netlist report.Vega.analysis.Vega.target.Lift.netlist spec in
  Vega.machine_for
    (Lift.target_of_netlist report.Vega.analysis.Vega.target.Lift.kind faulty)

let injectable_pairs (report : Vega.workflow_report) =
  List.filter
    (fun (pr : Lift.pair_result) -> pr.Lift.cases <> [])
    report.Vega.pair_results

let spec_matches_pair (pr : Lift.pair_result) (spec : Fault.spec) =
  String.equal spec.Fault.start_dff pr.Lift.start_dff
  && String.equal spec.Fault.end_dff pr.Lift.end_dff
  && spec.Fault.kind = pr.Lift.violation

let table6_for unit_name (report : Vega.workflow_report) mitigated =
  List.map
    (fun fm ->
      let pairs = injectable_pairs report in
      let n = max 1 (List.length pairs) in
      let det = ref 0 and before = ref 0 and late = ref 0 and stall = ref 0 in
      List.iter
        (fun (pr : Lift.pair_result) ->
          let m = faulty_machine report (spec_of_pair pr (fm_constant fm)) in
          let own =
            List.mapi (fun i tc -> (i, tc)) report.Vega.suite.Lift.suite_cases
            |> List.filter_map (fun (i, (tc : Lift.test_case)) ->
                   if spec_matches_pair pr tc.Lift.tc_spec then Some i else None)
          in
          match first_detection m report.Vega.suite with
          | None -> ()
          | Some (i, stalled) ->
            incr det;
            if stalled then incr stall;
            (match own with
            | [] -> ()
            | _ ->
              let first_own = List.fold_left min max_int own in
              if i < first_own then incr before
              else if not (List.mem i own) then incr late))
        pairs;
      let pct x = 100.0 *. float_of_int !x /. float_of_int n in
      {
        t6_unit = unit_name;
        t6_fm = fm;
        t6_mitigated = mitigated;
        detected_pct = pct det;
        before_pct = pct before;
        late_pct = pct late;
        stall_pct = pct stall;
      })
    [ FM0; FM1; FMR ]

let table6 ctx =
  ctx.log "table 6: detection quality against failing netlists (ALU)";
  let alu = table6_for "ALU" ctx.alu_nomit false @ table6_for "ALU" ctx.alu_mit true in
  ctx.log "table 6: detection quality against failing netlists (FPU)";
  let fpu = table6_for "FPU" ctx.fpu_nomit false @ table6_for "FPU" ctx.fpu_mit true in
  alu @ fpu

let render_table6 rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Table 6: detection quality of generated suites (% of injected faults)\n";
  Buffer.add_string buf "  Unit  FM   suite     Det.     B      L      S\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-4s  %-3s  %-6s  %6.1f %6.1f %6.1f %6.1f\n" r.t6_unit
           (fm_name r.t6_fm)
           (if r.t6_mitigated then "w/" else "w/o")
           r.detected_pct r.before_pct r.late_pct r.stall_pct))
    rows;
  Buffer.contents buf

(* ---------------- Table 7 ---------------- *)

type table7_row = { t7_unit : string; t7_fm : fm; vega_pct : float; random_pct : float }

let table7_for ctx unit_name (report : Vega.workflow_report) =
  List.map
    (fun fm ->
      let pairs = injectable_pairs report in
      let n = max 1 (List.length pairs) in
      let detect_with suite m =
        match first_detection m suite with Some _ -> true | None -> false
      in
      let vega_det = ref 0 in
      let random_det = ref 0 in
      List.iter
        (fun (pr : Lift.pair_result) ->
          let m = faulty_machine report (spec_of_pair pr (fm_constant fm)) in
          if detect_with report.Vega.suite m then incr vega_det;
          for run = 1 to ctx.cfg.table7_runs do
            let rsuite = Testgen.matched_suite ~seed:(run * 7919) report.Vega.suite in
            if detect_with rsuite m then incr random_det
          done)
        pairs;
      {
        t7_unit = unit_name;
        t7_fm = fm;
        vega_pct = 100.0 *. float_of_int !vega_det /. float_of_int n;
        random_pct =
          100.0 *. float_of_int !random_det /. float_of_int (n * ctx.cfg.table7_runs);
      })
    [ FM0; FM1; FMR ]

let table7 ctx =
  ctx.log "table 7: Vega vs random suites (ALU)";
  let alu = table7_for ctx "ALU" ctx.alu_nomit in
  ctx.log "table 7: Vega vs random suites (FPU)";
  let fpu = table7_for ctx "FPU" ctx.fpu_nomit in
  alu @ fpu

let render_table7 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Table 7: Vega-generated vs random test suites (% of faults detected)\n";
  Buffer.add_string buf "  Unit  FM    Vega     Random\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-4s  %-3s  %6.1f%%  %6.1f%%\n" r.t7_unit (fm_name r.t7_fm) r.vega_pct
           r.random_pct))
    rows;
  Buffer.contents buf

(* ---------------- Figure 9 ---------------- *)

type fig9_row = {
  bench_name : string;
  baseline_cycles : int;
  overhead_without_pct : float;
  overhead_with_pct : float;
  chosen_block : string;
  gated : bool;
}

let fig9 ctx =
  ctx.log "figure 9: profile-guided integration overhead";
  let width = ctx.cfg.alu_width in
  let fmt = ctx.cfg.fpu_fmt in
  let machine () =
    Machine.create
      ~config:{ Machine.default_config with Machine.width; fmt }
      ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional ()
  in
  let combined nomit =
    let a = if nomit then ctx.alu_nomit else ctx.alu_mit in
    let f = if nomit then ctx.fpu_nomit else ctx.fpu_mit in
    {
      Lift.suite_target = Lift.Alu_module { width };
      suite_cases = a.Vega.suite.Lift.suite_cases @ f.Vega.suite.Lift.suite_cases;
    }
  in
  let suite_n = combined true and suite_m = combined false in
  List.map
    (fun (b : Workload.benchmark) ->
      let compiled = Minic.compile ~width ~fmt b.Workload.program in
      let m = machine () in
      Machine.reset m;
      (match Machine.run ~max_instructions:5_000_000 m (Minic.assemble compiled) with
      | Machine.Exited 0 -> ()
      | o ->
        failwith
          (Format.asprintf "fig9: %s baseline failed (%a)" b.Workload.name Machine.pp_outcome o));
      let baseline = Machine.cycles m in
      let prof = Integrate.profile (machine ()) compiled in
      let run_with suite =
        let plan =
          Integrate.plan_integration ~overhead_threshold:ctx.cfg.fig9_threshold ~compiled
            ~profile:prof ~suite ()
        in
        let code = Integrate.instrument ~compiled ~suite ~plan in
        let m = machine () in
        Machine.reset m;
        (match Machine.run ~max_instructions:8_000_000 m (Isa.assemble code) with
        | Machine.Exited 0 -> ()
        | o ->
          failwith
            (Format.asprintf "fig9: %s instrumented failed (%a)" b.Workload.name
               Machine.pp_outcome o));
        (Machine.cycles m, plan)
      in
      let cyc_n, plan_n = run_with suite_n in
      let cyc_m, _ = run_with suite_m in
      let pct c = 100.0 *. (float_of_int (c - baseline) /. float_of_int baseline) in
      {
        bench_name = b.Workload.name;
        baseline_cycles = baseline;
        overhead_without_pct = pct cyc_n;
        overhead_with_pct = pct cyc_m;
        chosen_block = plan_n.Integrate.chosen_block;
        gated = plan_n.Integrate.gate <> None;
      })
    Workload.all

let fig9_mean_overheads rows =
  let n = float_of_int (max 1 (List.length rows)) in
  ( List.fold_left (fun acc r -> acc +. r.overhead_without_pct) 0.0 rows /. n,
    List.fold_left (fun acc r -> acc +. r.overhead_with_pct) 0.0 rows /. n )

let render_fig9 rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "Figure 9: overhead of profile-guided test integration\n";
  Buffer.add_string buf "  benchmark    baseline-cycles    -N ovh    -M ovh   splice block (gated?)\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-11s  %12d     %6.2f%%   %6.2f%%   %s%s\n" r.bench_name
           r.baseline_cycles r.overhead_without_pct r.overhead_with_pct r.chosen_block
           (if r.gated then " (gated)" else "")))
    rows;
  let mn, mm = fig9_mean_overheads rows in
  Buffer.add_string buf (Printf.sprintf "  mean overhead: -N %.2f%%  -M %.2f%%\n" mn mm);
  Buffer.contents buf

(* ---------------- Guard campaign ----------------

   The runtime extension of Table 6: instead of baking a fault into the
   netlist before the run starts, every selected phase-2 fault spec is
   injected *mid-run* into kernels executing under the closed-loop guard,
   once per recovery policy plus an unguarded baseline.  Tabulates
   detection latency, SDC escape rate (checksum mismatch with no
   detection), recovery success, and guard overhead. *)

type campaign_config = {
  cg_width : int;
  cg_fmt : Fpu_format.fmt;
  cg_kernels : string list;  (** [[]] = every [Workload.all] kernel *)
  cg_specs_per_unit : int;
  cg_constants : Fault.constant list;
  cg_onset_frac : float;
  cg_seed : int;
  cg_guard : Guard.Monitor.config;
  cg_checkpoint_every : int;
  cg_max_retries : int;
}

let default_campaign =
  {
    cg_width = 16;
    cg_fmt = Fpu_format.binary16;
    cg_kernels = [];
    cg_specs_per_unit = max_int;
    cg_constants = [ Fault.C0; Fault.C1; Fault.C_random ];
    cg_onset_frac = 0.2;
    cg_seed = 42;
    cg_guard =
      {
        Guard.Monitor.default_config with
        Guard.Monitor.cadence = 100;
        max_cadence = 2_000;
      };
    cg_checkpoint_every = 2_000;
    cg_max_retries = 3;
  }

let quick_campaign =
  {
    default_campaign with
    cg_kernels = [ "crc"; "nbody" ];
    cg_specs_per_unit = 2;
    (* C=0 faults tend to corrupt silently (equality exits still fire);
       C=1 faults tend to hang loops — both behaviors belong in the smoke *)
    cg_constants = [ Fault.C0; Fault.C1 ];
  }

type campaign_row = {
  cr_kernel : string;
  cr_unit : string;
  cr_spec : string;
  cr_mode : string;  (** "unguarded" or the mode name *)
  cr_outcome : string;
  cr_detected : bool;
  cr_detected_by : string;  (** "canary", "test", "watchdog" or "-" *)
  cr_latency : (int * int) option;  (** (instrs, cycles) from onset *)
  cr_checksum_ok : bool;
  cr_escape : bool;  (** checksum mismatch, clean exit, no detection *)
  cr_recovered : bool;
  cr_retries : int;
  cr_polls : int;  (** canary trip-port reads the guard performed *)
  cr_overhead_pct : float;  (** guard cycles vs app cycles *)
}

let constants_key constants =
  String.concat ","
    (List.map (function Fault.C0 -> "0" | Fault.C1 -> "1" | Fault.C_random -> "r") constants)

let campaign_digest (c : campaign_config) =
  Resilience.digest_of_strings
    [
      "vega-campaign/2";
      string_of_int c.cg_width;
      string_of_int c.cg_fmt.Fpu_format.exp_bits;
      string_of_int c.cg_fmt.Fpu_format.man_bits;
      String.concat "," c.cg_kernels;
      string_of_int c.cg_specs_per_unit;
      constants_key c.cg_constants;
      Printf.sprintf "%.17g" c.cg_onset_frac;
      string_of_int c.cg_seed;
      string_of_int c.cg_guard.Guard.Monitor.cadence;
      string_of_int c.cg_guard.Guard.Monitor.max_cadence;
      string_of_int c.cg_guard.Guard.Monitor.max_instructions;
      string_of_int c.cg_checkpoint_every;
      string_of_int c.cg_max_retries;
    ]

let campaign_row_to_json r =
  Json.Obj
    [
      ("kernel", Json.String r.cr_kernel);
      ("unit", Json.String r.cr_unit);
      ("spec", Json.String r.cr_spec);
      ("mode", Json.String r.cr_mode);
      ("outcome", Json.String r.cr_outcome);
      ("detected", Json.Bool r.cr_detected);
      ("detected_by", Json.String r.cr_detected_by);
      ( "latency",
        match r.cr_latency with
        | None -> Json.Null
        | Some (i, c) -> Json.List [ Json.Int i; Json.Int c ] );
      ("checksum_ok", Json.Bool r.cr_checksum_ok);
      ("escape", Json.Bool r.cr_escape);
      ("recovered", Json.Bool r.cr_recovered);
      ("retries", Json.Int r.cr_retries);
      ("polls", Json.Int r.cr_polls);
      ("overhead_pct", Json.Float r.cr_overhead_pct);
    ]

let campaign_row_of_json j =
  let open Json in
  let* cr_kernel = Result.bind (member "kernel" j) to_str in
  let* cr_unit = Result.bind (member "unit" j) to_str in
  let* cr_spec = Result.bind (member "spec" j) to_str in
  let* cr_mode = Result.bind (member "mode" j) to_str in
  let* cr_outcome = Result.bind (member "outcome" j) to_str in
  let* cr_detected = Result.bind (member "detected" j) to_bool in
  let* cr_detected_by = Result.bind (member "detected_by" j) to_str in
  let* cr_latency =
    let* l = member "latency" j in
    match l with
    | Null -> Ok None
    | List [ li; lc ] ->
      let* i = to_int li in
      let* c = to_int lc in
      Ok (Some (i, c))
    | _ -> Error "bad latency"
  in
  let* cr_checksum_ok = Result.bind (member "checksum_ok" j) to_bool in
  let* cr_escape = Result.bind (member "escape" j) to_bool in
  let* cr_recovered = Result.bind (member "recovered" j) to_bool in
  let* cr_retries = Result.bind (member "retries" j) to_int in
  let* cr_polls = Result.bind (member "polls" j) to_int in
  let* cr_overhead_pct = Result.bind (member "overhead_pct" j) to_float in
  Ok
    {
      cr_kernel;
      cr_unit;
      cr_spec;
      cr_mode;
      cr_outcome;
      cr_detected;
      cr_detected_by;
      cr_latency;
      cr_checksum_ok;
      cr_escape;
      cr_recovered;
      cr_retries;
      cr_polls;
      cr_overhead_pct;
    }

(* Lift worst-slack-first violating pairs until [n] produce test cases. *)
let select_campaign_pairs (target : Lift.target) pairs n =
  let rec go acc count = function
    | [] -> List.rev acc
    | _ when count >= n -> List.rev acc
    | (start_dff, end_dff, violation) :: rest ->
      let pr = Lift.lift_pair target ~start_dff ~end_dff ~violation in
      if pr.Lift.cases <> [] then go (pr :: acc) (count + 1) rest else go acc count rest
  in
  go [] 0 (Lift.register_pairs target.Lift.netlist pairs)

(* One value of a campaign memoised in shard 0 of its checkpoint: restored
   when present (a decode failure is a miss, recomputed and overwritten),
   else computed and stored. *)
let ck_memo checkpoint key ~encode ~decode ~on_restore compute =
  let ck = Option.map (fun sh -> Resilience.Checkpoint.shard sh 0) checkpoint in
  match Option.map decode (Option.bind ck (fun ck -> Resilience.Checkpoint.load ck key)) with
  | Some (Ok v) ->
    on_restore ();
    v
  | _ ->
    let v = compute () in
    Option.iter (fun ck -> Resilience.Checkpoint.store ck key (encode v)) ck;
    v

let memo_lift checkpoint key ~on_restore compute =
  ck_memo checkpoint key ~on_restore compute
    ~encode:(fun selected -> Json.List (List.map Serial.pair_result_to_json selected))
    ~decode:(fun j -> Result.bind (Json.to_list j) (Json.map_m Serial.pair_result_of_json))

let campaign_kernels = function [] -> Workload.all | names -> List.map Workload.find names

(* The channel of a guarded run's first detection. *)
let detected_by (r : Guard.Monitor.report) =
  match r.Guard.Monitor.r_detections with
  | [] -> "-"
  | d :: _ ->
    let id = d.Guard.Monitor.det_id in
    if String.starts_with ~prefix:"__canary" id then "canary"
    else if String.ends_with ~suffix:"(stall)" id then "watchdog"
    else "test"

(* The fault-injection driver of the guard and attack campaigns.  Per
   kernel, the golden functional run gives the checksum, the fault onset
   and the fuel.  Per (kernel, spec, constant) item: the unguarded run,
   then one guarded run per mode (a row label and a monitor config), each
   on a fresh machine with the fault injected at onset.  Items run through
   Fleet.run on one domain with one attempt, so the checkpoint restores
   whole items and a raising run stays fatal. *)
let inject_faults ~label ~log ?checkpoint ~uname ~(target : Lift.target) ~seed ~kernels ~selected
    ~constants ~onset_frac ~max_instructions ~modes () =
  let suite = Lift.suite_of_results target.Lift.kind selected in
  log
    (Printf.sprintf "%s: %s — %d fault specs, %d-case guard suite" label uname
       (List.length selected * List.length constants)
       (List.length suite.Lift.suite_cases));
  let config = { (Vega.unit_config target.Lift.kind) with Machine.rng_seed = seed } in
  let width = config.Machine.width and fmt = config.Machine.fmt in
  let slot =
    match target.Lift.kind with
    | Lift.Alu_module _ -> Guard.Injector.Alu_slot
    | Lift.Fpu_module _ -> Guard.Injector.Fpu_slot
  in
  let golden (b : Workload.benchmark) =
    let prog = Minic.assemble (Minic.compile ~width ~fmt b.Workload.program) in
    (* functional machine, fault-free by construction *)
    let m = Machine.create ~config ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional () in
    Machine.reset m;
    (match Machine.run ~max_instructions m prog with
    | Machine.Exited code when code = Isa.exit_ok -> ()
    | o ->
      failwith
        (Format.asprintf "%s: golden run of %s failed (%a)" label b.Workload.name
           Machine.pp_outcome o));
    let instrs = Machine.instructions_retired m in
    let onset = max 1 (int_of_float (onset_frac *. float_of_int instrs)) in
    log (Printf.sprintf "%s: %s x %s (onset at instr %d)" label uname b.Workload.name onset);
    (* corrupted control flow can hang a kernel; cap the fuel at a small
       multiple of the golden run so hangs are cheap to observe *)
    ( b.Workload.name,
      prog,
      Bitvec.to_int (Machine.mem m Workload.checksum_address),
      onset,
      min max_instructions ((4 * instrs) + 10_000) )
  in
  let run_item ((kernel, prog, golden_sum, onset, fuel), spec) =
    let fresh () =
      Telemetry.with_span ~cat:"experiments" "campaign.machine" @@ fun () ->
      let m = Vega.machine_for ~rng_seed:seed target in
      Machine.reset m;
      (m, Guard.Injector.create ~machine:m ~slot ~spec (Guard.Injector.permanent onset))
    in
    let exit_ok = function Machine.Exited code -> code = Isa.exit_ok | _ -> false in
    (* the row of a run without detections; read once the run is over *)
    let row mode m ~outcome ~clean_exit =
      let checksum_ok = Bitvec.to_int (Machine.mem m Workload.checksum_address) = golden_sum in
      {
        cr_kernel = kernel;
        cr_unit = uname;
        cr_spec = Fault.describe spec;
        cr_mode = mode;
        cr_outcome = outcome;
        cr_detected = false;
        cr_detected_by = "-";
        cr_latency = None;
        cr_checksum_ok = checksum_ok;
        cr_escape = clean_exit && not checksum_ok;
        cr_recovered = false;
        cr_retries = 0;
        cr_polls = 0;
        cr_overhead_pct = 0.0;
      }
    in
    let unguarded () =
      Telemetry.with_span ~cat:"experiments" "campaign.unguarded" @@ fun () ->
      let m, inj = fresh () in
      let o =
        Machine.run ~max_instructions:fuel ~on_instr:(fun _ -> Guard.Injector.tick inj) m prog
      in
      row "unguarded" m ~outcome:(Format.asprintf "%a" Machine.pp_outcome o) ~clean_exit:(exit_ok o)
    in
    let guarded (mode, gcfg) =
      let m, inj = fresh () in
      let r =
        Guard.Monitor.run
          ~config:{ gcfg with Guard.Monitor.max_instructions = fuel }
          ~injector:inj ~suite m prog
      in
      let outcome, clean_exit =
        match r.Guard.Monitor.r_verdict with
        | Guard.Monitor.App_completed o -> (Format.asprintf "%a" Machine.pp_outcome o, exit_ok o)
        | Guard.Monitor.Guard_aborted _ -> ("aborted", false)
      in
      let base = row mode m ~outcome ~clean_exit in
      let detected = Guard.Monitor.detected r in
      {
        base with
        cr_detected = detected;
        cr_detected_by = detected_by r;
        cr_latency = r.Guard.Monitor.r_latency;
        cr_escape = base.cr_escape && not detected;
        cr_recovered = r.Guard.Monitor.r_recovered;
        cr_retries = r.Guard.Monitor.r_retries;
        cr_polls = r.Guard.Monitor.r_canary_polls;
        cr_overhead_pct =
          100.0
          *. float_of_int r.Guard.Monitor.r_guard_cycles
          /. float_of_int (max 1 r.Guard.Monitor.r_app_cycles);
      }
    in
    unguarded () :: List.map guarded modes
  in
  let tasks =
    List.concat_map
      (fun b ->
        let ((kernel, _, _, _, _) as g) = golden b in
        List.concat_map
          (fun pr ->
            List.map
              (fun constant ->
                let spec = spec_of_pair pr constant in
                {
                  Fleet.tk_key = Printf.sprintf "rows~%s~%s~%s" uname kernel (Fault.describe spec);
                  tk_payload = (g, spec);
                })
              constants)
          selected)
      kernels
  in
  let results, _ =
    Fleet.run
      ~config:{ Fleet.default_config with Fleet.fl_max_attempts = 1 }
      ?checkpoint ~log ~seed
      ~f:(fun ~seed:_ item -> run_item item)
      ~encode:(fun rows -> Json.List (List.map campaign_row_to_json rows))
      ~decode:(fun j -> Result.bind (Json.to_list j) (Json.map_m campaign_row_of_json))
      tasks
  in
  List.concat_map
    (fun (r : campaign_row list Fleet.item_result) ->
      match (r.Fleet.fr_value, r.Fleet.fr_outcome) with
      | Some rows, _ -> rows
      | None, o ->
        failwith
          (Printf.sprintf "%s: item %s failed: %s" label r.Fleet.fr_key
             (match o with Fleet.Quarantined e -> e | o -> Fleet.outcome_name o)))
    (Array.to_list results)

let campaign ?(config = quick_campaign) ?(log = fun _ -> ()) ?checkpoint () =
  Telemetry.with_span ~cat:"experiments" "experiments.campaign" @@ fun () ->
  let kernels = campaign_kernels config.cg_kernels in
  let modes =
    List.map
      (fun policy ->
        (Guard.Monitor.policy_name policy, { config.cg_guard with Guard.Monitor.policy }))
      [
        Guard.Monitor.Abort;
        Guard.Monitor.Failover;
        Guard.Monitor.Rollback_retry
          { checkpoint_every = config.cg_checkpoint_every; max_retries = config.cg_max_retries };
      ]
  in
  List.concat_map
    (fun (uname, target) ->
      Telemetry.with_span ~cat:"experiments" "campaign.unit" @@ fun () ->
      let selected =
        memo_lift checkpoint ("lift~" ^ uname)
          ~on_restore:(fun () ->
            log (Printf.sprintf "campaign: %s lifting restored from checkpoint" uname))
          (fun () ->
            log (Printf.sprintf "campaign: %s aging analysis + error lifting" uname);
            let analysis =
              Vega.aging_analysis
                ~config:{ Vega.default_phase1 with Vega.clock_margin = 1.0 }
                target ~workload:Vega.run_minver_workload
            in
            select_campaign_pairs target analysis.Vega.violating_pairs config.cg_specs_per_unit)
      in
      inject_faults ~label:"campaign" ~log ?checkpoint ~uname ~target ~seed:config.cg_seed ~kernels
        ~selected ~constants:config.cg_constants ~onset_frac:config.cg_onset_frac
        ~max_instructions:config.cg_guard.Guard.Monitor.max_instructions ~modes ())
    [
      ("ALU", Lift.alu_target ~width:config.cg_width ());
      ("FPU", Lift.fpu_target ~fmt:config.cg_fmt ());
    ]

type campaign_summary = {
  cs_rows : int;
  cs_unguarded_rows : int;
  cs_unguarded_escapes : int;
  cs_guarded_rows : int;
  cs_guarded_escapes : int;
  cs_guarded_detected : int;
  cs_rollback_rows : int;
  cs_rollback_checksum_ok : int;
}

let campaign_summary rows =
  let count p = List.length (List.filter p rows) in
  let unguarded r = r.cr_mode = "unguarded" in
  let rollback r = r.cr_mode = "rollback" in
  {
    cs_rows = List.length rows;
    cs_unguarded_rows = count unguarded;
    cs_unguarded_escapes = count (fun r -> unguarded r && r.cr_escape);
    cs_guarded_rows = count (fun r -> not (unguarded r));
    cs_guarded_escapes = count (fun r -> (not (unguarded r)) && r.cr_escape);
    cs_guarded_detected = count (fun r -> (not (unguarded r)) && r.cr_detected);
    cs_rollback_rows = count rollback;
    cs_rollback_checksum_ok = count (fun r -> rollback r && r.cr_checksum_ok);
  }

let render_campaign rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Guard campaign: mid-life fault injection under each recovery policy\n";
  Buffer.add_string buf
    "  kernel     unit  spec                                mode       outcome        det  \
     latency      sum    recov  retry   ovh%\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-9s  %-4s  %-34s  %-9s  %-13s  %-3s  %-11s  %-5s  %-5s  %5d  %5.1f\n"
           r.cr_kernel r.cr_unit r.cr_spec r.cr_mode r.cr_outcome
           (if r.cr_detected then "yes" else "no")
           (match r.cr_latency with
           | Some (i, _) -> Printf.sprintf "%d instr" i
           | None -> "-")
           (if r.cr_checksum_ok then "ok" else "BAD")
           (if r.cr_recovered then "yes" else "no")
           r.cr_retries r.cr_overhead_pct))
    rows;
  let s = campaign_summary rows in
  Buffer.add_string buf
    (Printf.sprintf "  unguarded: %d/%d runs escaped (silent corruption)\n" s.cs_unguarded_escapes
       s.cs_unguarded_rows);
  Buffer.add_string buf
    (Printf.sprintf "  guarded:   %d/%d runs escaped; %d/%d detected; rollback checksums golden %d/%d\n"
       s.cs_guarded_escapes s.cs_guarded_rows s.cs_guarded_detected s.cs_guarded_rows
       s.cs_rollback_checksum_ok s.cs_rollback_rows);
  Buffer.contents buf

(* ---------------- Adversarial wearout campaign ----------------

   The robustness question behind the attack/monitor pair: a pathological
   (or adversarial) workload can hold the critical path's cells in their
   BTI-stress state, aging the unit past the violating corner years
   before the nominal profile predicts — and the phase-2 software tests
   then face faults they were never scheduled for.  The campaign measures
   both halves of that story on the ALU:

   - the {e attack} half runs {!Attack.search} against the unit's worst
     fresh paths and bisects time-to-first-violation under the attacked
     and the nominal (minver-workload) SP corners, reporting the
     acceleration factor;
   - the {e defense} half re-runs the mid-life fault-injection campaign
     at the attack-aged corner with in-situ canary monitors inserted
     ({!Canary.insert}, CEC-proved inert before use), comparing the
     software-test-only guard against the same guard with its canary
     poll channel open. *)

type attack_campaign_config = {
  ak_width : int;  (** ALU width; the campaign's single target unit *)
  ak_kernels : string list;  (** [[]] = every [Workload.all] kernel *)
  ak_specs : int;  (** fault specs lifted from the attack-aged corner *)
  ak_constants : Fault.constant list;
  ak_onset_frac : float;
  ak_seed : int;
  ak_attack : Attack.config;
  ak_cells : string list;  (** [[]] = {!Attack.default_targets} *)
  ak_years_max : float;  (** TTV bisection horizon *)
  ak_ttv_precision : float;
  ak_canary_count : int;
  ak_canary_pessimism : float;
  ak_canary_poll : int;  (** trip-port poll cadence (app instructions) *)
  ak_guard : Guard.Monitor.config;
}

let default_attack_campaign =
  {
    ak_width = 16;
    ak_kernels = [];
    ak_specs = 2;
    ak_constants = [ Fault.C0; Fault.C1 ];
    ak_onset_frac = 0.2;
    ak_seed = 42;
    ak_attack = { Attack.default_config with Attack.atk_len = 48; atk_iters = 24 };
    ak_cells = [];
    ak_years_max = 30.0;
    ak_ttv_precision = 0.05;
    ak_canary_count = 2;
    ak_canary_pessimism = 1.25;
    ak_canary_poll = 25;
    ak_guard =
      {
        Guard.Monitor.default_config with
        Guard.Monitor.cadence = 100;
        max_cadence = 2_000;
      };
  }

let quick_attack_campaign =
  {
    default_attack_campaign with
    ak_kernels = [ "crc" ];
    ak_specs = 1;
    ak_constants = [ Fault.C0 ];
    ak_attack = { default_attack_campaign.ak_attack with Attack.atk_len = 32; atk_iters = 12 };
  }

(* The resolved victim set: what the digest commits to, so a resumed
   campaign cannot silently aim at different cells. *)
let attack_campaign_cells ?netlist (config : attack_campaign_config) =
  match config.ak_cells with
  | [] ->
    let nl =
      match netlist with
      | Some nl -> nl
      | None -> (Lift.alu_target ~width:config.ak_width ()).Lift.netlist
    in
    Attack.default_targets nl
  | cells -> cells

let attack_campaign_digest ?netlist (config : attack_campaign_config) =
  let a = config.ak_attack in
  Resilience.digest_of_strings
    ([
       "vega-attack-campaign/2";
       (match netlist with
       | None -> "stock"
       | Some nl -> Resilience.netlist_digest nl);
       string_of_int config.ak_width;
       String.concat "," config.ak_kernels;
       string_of_int config.ak_specs;
       constants_key config.ak_constants;
       Printf.sprintf "%.17g" config.ak_onset_frac;
       string_of_int config.ak_seed;
       (* the search *)
       string_of_int a.Attack.atk_seed;
       string_of_int a.Attack.atk_len;
       string_of_int a.Attack.atk_iters;
       string_of_bool a.Attack.atk_sat_assist;
       Printf.sprintf "%.17g" a.Attack.atk_temp;
       (* the corner *)
       Printf.sprintf "%.17g" config.ak_years_max;
       Printf.sprintf "%.17g" config.ak_ttv_precision;
       string_of_int config.ak_canary_count;
       Printf.sprintf "%.17g" config.ak_canary_pessimism;
       string_of_int config.ak_canary_poll;
       (* the guard *)
       string_of_int config.ak_guard.Guard.Monitor.cadence;
       string_of_int config.ak_guard.Guard.Monitor.max_cadence;
       string_of_int config.ak_guard.Guard.Monitor.max_instructions;
     ]
    @ attack_campaign_cells ?netlist config)

(* The attack-aged corner: everything the search and the TTV bisections
   produced, plus the winning stream itself so a resumed campaign can
   re-derive the SP profile (one cheap replay) without re-searching. *)
type attack_corner = {
  ac_ops : (string * Bitvec.t) list array;
  ac_cells : Attack.cell_stress list;
  ac_baseline_obj : float;
  ac_attacked_obj : float;
  ac_evals : int;
  ac_sat_patterns : int;
  ac_samples : int;
  ac_fresh_crit_ps : float;
  ac_clock_period_ps : float;
  ac_ttv_nominal : float option;
  ac_ttv_attack : float option;
  ac_acceleration : float option;
}

let attack_ops_to_json ops =
  Json.List
    (List.map
       (fun assignment ->
         Json.List
           (List.map
              (fun (port, v) ->
                Json.List [ Json.String port; Json.Int (Bitvec.width v); Json.Int (Bitvec.to_int v) ])
              assignment))
       (Array.to_list ops))

let attack_ops_of_json j =
  let open Json in
  let* entries = to_list j in
  let* ops =
    map_m
      (fun entry ->
        let* fields = to_list entry in
        map_m
          (function
            | List [ String port; Int w; Int v ] -> Ok (port, Bitvec.create ~width:w v)
            | _ -> Error "bad op field")
          fields)
      entries
  in
  Ok (Array.of_list ops)

let float_opt_to_json = function None -> Json.Null | Some f -> Json.Float f

let float_opt_of_json j =
  match j with
  | Json.Null -> Ok None
  | _ -> Result.map (fun f -> Some f) (Json.to_float j)

let attack_corner_to_json c =
  Json.Obj
    [
      ("ops", attack_ops_to_json c.ac_ops);
      ( "cells",
        Json.List
          (List.map
             (fun (s : Attack.cell_stress) ->
               Json.List
                 [
                   Json.String s.Attack.cs_cell;
                   Json.Float s.Attack.cs_baseline_sp;
                   Json.Float s.Attack.cs_attacked_sp;
                 ])
             c.ac_cells) );
      ("baseline_obj", Json.Float c.ac_baseline_obj);
      ("attacked_obj", Json.Float c.ac_attacked_obj);
      ("evals", Json.Int c.ac_evals);
      ("sat_patterns", Json.Int c.ac_sat_patterns);
      ("samples", Json.Int c.ac_samples);
      ("fresh_crit_ps", Json.Float c.ac_fresh_crit_ps);
      ("clock_period_ps", Json.Float c.ac_clock_period_ps);
      ("ttv_nominal", float_opt_to_json c.ac_ttv_nominal);
      ("ttv_attack", float_opt_to_json c.ac_ttv_attack);
      ("acceleration", float_opt_to_json c.ac_acceleration);
    ]

let attack_corner_of_json j =
  let open Json in
  let* ac_ops = Result.bind (member "ops" j) attack_ops_of_json in
  let* ac_cells =
    let* l = Result.bind (member "cells" j) to_list in
    map_m
      (function
        | List [ String cs_cell; base; att ] ->
          let* cs_baseline_sp = to_float base in
          let* cs_attacked_sp = to_float att in
          Ok { Attack.cs_cell; cs_baseline_sp; cs_attacked_sp }
        | _ -> Error "bad cell stress")
      l
  in
  let* ac_baseline_obj = Result.bind (member "baseline_obj" j) to_float in
  let* ac_attacked_obj = Result.bind (member "attacked_obj" j) to_float in
  let* ac_evals = Result.bind (member "evals" j) to_int in
  let* ac_sat_patterns = Result.bind (member "sat_patterns" j) to_int in
  let* ac_samples = Result.bind (member "samples" j) to_int in
  let* ac_fresh_crit_ps = Result.bind (member "fresh_crit_ps" j) to_float in
  let* ac_clock_period_ps = Result.bind (member "clock_period_ps" j) to_float in
  let* ac_ttv_nominal = Result.bind (member "ttv_nominal" j) float_opt_of_json in
  let* ac_ttv_attack = Result.bind (member "ttv_attack" j) float_opt_of_json in
  let* ac_acceleration = Result.bind (member "acceleration" j) float_opt_of_json in
  Ok
    {
      ac_ops;
      ac_cells;
      ac_baseline_obj;
      ac_attacked_obj;
      ac_evals;
      ac_sat_patterns;
      ac_samples;
      ac_fresh_crit_ps;
      ac_clock_period_ps;
      ac_ttv_nominal;
      ac_ttv_attack;
      ac_acceleration;
    }

type attack_report = {
  ap_corner : attack_corner;
  ap_canaries : Canary.canary list;
  ap_rows : campaign_row list;
}

let attack_campaign ?(config = quick_attack_campaign) ?netlist ?(log = fun _ -> ()) ?checkpoint
    () =
  Telemetry.with_span ~cat:"experiments" "experiments.attack_campaign" @@ fun () ->
  let target =
    let t = Lift.alu_target ~width:config.ak_width () in
    match netlist with Some nl -> { t with Lift.netlist = nl } | None -> t
  in
  let nl = target.Lift.netlist in
  let cells = attack_campaign_cells ?netlist config in
  let aglib = Aging.Timing_library.build Cell.Library.c28 in
  let worst_arrival timing = Sta.critical_path_ps ~timing nl in
  let aged sp years = Sta.aged_timing ~sp_of_net:sp ~years aglib in
  let corner =
    ck_memo checkpoint "corner" ~encode:attack_corner_to_json ~decode:attack_corner_of_json
      ~on_restore:(fun () -> log "attack-campaign: attack corner restored from checkpoint")
      (fun () ->
        log
          (Printf.sprintf "attack-campaign: stress search over %d target cell(s)"
             (List.length cells));
        let r = Attack.search ~config:config.ak_attack target ~cells in
        let fresh_crit = worst_arrival (Sta.fresh_timing Cell.Library.c28) in
        let att_max = worst_arrival (aged r.Attack.atk_sp_of_net config.ak_years_max) in
        (* A guard period halfway between the fresh critical path and the
           fully-attacked arrival: fresh timing closes with margin, and the
           attacked corner is guaranteed to violate within the horizon. *)
        let clock_period_ps = 0.5 *. (fresh_crit +. att_max) in
        let ttv sp =
          Attack.time_to_violation ~years_max:config.ak_years_max
            ~precision:config.ak_ttv_precision
            ~timing_of_years:(fun y -> aged sp y)
            ~clock_period_ps nl
        in
        let nom_sp =
          match Vega.profile_sp target ~workload:Vega.run_minver_workload with
          | Some (_, sp) -> sp
          | None -> failwith "attack-campaign: nominal SP profile produced no samples"
        in
        let ttv_nominal = ttv nom_sp in
        let ttv_attack = ttv r.Attack.atk_sp_of_net in
        let acceleration =
          match (ttv_nominal, ttv_attack) with
          | Some n, Some a when a > 0.0 -> Some (n /. a)
          | _ -> None
        in
        {
          ac_ops = r.Attack.atk_ops;
          ac_cells = r.Attack.atk_cells;
          ac_baseline_obj = r.Attack.atk_baseline;
          ac_attacked_obj = r.Attack.atk_best;
          ac_evals = r.Attack.atk_evals;
          ac_sat_patterns = r.Attack.atk_sat_patterns;
          ac_samples = r.Attack.atk_samples;
          ac_fresh_crit_ps = fresh_crit;
          ac_clock_period_ps = clock_period_ps;
          ac_ttv_nominal = ttv_nominal;
          ac_ttv_attack = ttv_attack;
          ac_acceleration = acceleration;
        })
  in
  (* Re-derive the attacked SP profile from the winning stream — the same
     replay on both the fresh and the resumed path. *)
  let att_sp =
    match Vega.replay_sp target corner.ac_ops with
    | Some (_, sp) -> sp
    | None -> failwith "attack-campaign: attack SP replay produced no samples"
  in
  let att_timing = aged att_sp config.ak_years_max in
  (* Defense: canary monitors planned from the attack-aged corner,
     CEC-proved inert before any machine runs them. *)
  let paths =
    Canary.plan ~count:config.ak_canary_count ~pessimism:config.ak_canary_pessimism nl
      ~timing:att_timing ~clock_period_ps:corner.ac_clock_period_ps
  in
  let monitored, canaries = Canary.insert nl paths in
  (match Canary.verify ~original:nl monitored with
  | Ok () ->
    log
      (Printf.sprintf "attack-campaign: %d canary monitor(s) inserted, proved inert"
         (List.length canaries))
  | Error e -> failwith ("attack-campaign: canary verification failed: " ^ e));
  (* Fault specs for the guard phase come from the attack-aged corner's
     violating pairs — the faults this wearout actually produces. *)
  let selected =
    memo_lift checkpoint "lift"
      ~on_restore:(fun () -> log "attack-campaign: error lifting restored from checkpoint")
      (fun () ->
        let pairs =
          Sta.violating_pairs ~timing:att_timing ~clock_period_ps:corner.ac_clock_period_ps nl
        in
        select_campaign_pairs target pairs config.ak_specs)
  in
  let guard canary_poll = { config.ak_guard with Guard.Monitor.canary_poll } in
  let rows =
    inject_faults ~label:"attack-campaign" ~log ?checkpoint ~uname:"ALU"
      ~target:{ target with Lift.netlist = monitored }
      ~seed:config.ak_seed ~kernels:(campaign_kernels config.ak_kernels) ~selected
      ~constants:config.ak_constants ~onset_frac:config.ak_onset_frac
      ~max_instructions:config.ak_guard.Guard.Monitor.max_instructions
      ~modes:[ ("sw-only", guard None); ("sw+canary", guard (Some config.ak_canary_poll)) ]
      ()
  in
  { ap_corner = corner; ap_canaries = canaries; ap_rows = rows }

type attack_summary = {
  as_unguarded_rows : int;
  as_unguarded_escapes : int;
  as_sw_rows : int;
  as_sw_detected : int;
  as_sw_escapes : int;
  as_canary_rows : int;
  as_canary_detected : int;
  as_canary_escapes : int;
  as_canary_first : int;  (** sw+canary rows whose first detection was the trip port *)
  as_latency_pairs : int;  (** (kernel, spec) pairs with latency in both guarded modes *)
  as_canary_wins : int;  (** pairs where the canary latency <= the software latency *)
}

let attack_summary rows =
  let count p = List.length (List.filter p rows) in
  let mode m r = r.cr_mode = m in
  let pairs = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key = (r.cr_kernel, r.cr_spec) in
      if not (Hashtbl.mem pairs key) then Hashtbl.replace pairs key ())
    rows;
  let latency_pairs, canary_wins =
    Hashtbl.fold
      (fun (kernel, spec) () (lp, cw) ->
        let find m =
          List.find_opt (fun r -> r.cr_kernel = kernel && r.cr_spec = spec && mode m r) rows
        in
        match (find "sw-only", find "sw+canary") with
        | Some sw, Some cn -> (
          match (sw.cr_latency, cn.cr_latency) with
          | Some (si, _), Some (ci, _) -> (lp + 1, if ci <= si then cw + 1 else cw)
          | _ -> (lp, cw))
        | _ -> (lp, cw))
      pairs (0, 0)
  in
  {
    as_unguarded_rows = count (mode "unguarded");
    as_unguarded_escapes = count (fun r -> mode "unguarded" r && r.cr_escape);
    as_sw_rows = count (mode "sw-only");
    as_sw_detected = count (fun r -> mode "sw-only" r && r.cr_detected);
    as_sw_escapes = count (fun r -> mode "sw-only" r && r.cr_escape);
    as_canary_rows = count (mode "sw+canary");
    as_canary_detected = count (fun r -> mode "sw+canary" r && r.cr_detected);
    as_canary_escapes = count (fun r -> mode "sw+canary" r && r.cr_escape);
    as_canary_first = count (fun r -> mode "sw+canary" r && r.cr_detected_by = "canary");
    as_latency_pairs = latency_pairs;
    as_canary_wins = canary_wins;
  }

let render_ttv years_max = function
  | None -> Printf.sprintf ">%.0f y (clean)" years_max
  | Some y -> Printf.sprintf "%.2f y" y

let render_attack_campaign ?(years_max = default_attack_campaign.ak_years_max) report =
  let c = report.ap_corner in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Adversarial wearout campaign (ALU)\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  attack: %d target cell(s), stress duty %.4f -> %.4f (%d evals, %d SAT patterns, %d \
        samples)\n"
       (List.length c.ac_cells) c.ac_baseline_obj c.ac_attacked_obj
       c.ac_evals c.ac_sat_patterns c.ac_samples);
  Buffer.add_string buf
    (Printf.sprintf "  corner: fresh critical path %.1f ps, guard clock %.1f ps\n"
       c.ac_fresh_crit_ps c.ac_clock_period_ps);
  Buffer.add_string buf
    (Printf.sprintf "  time-to-first-violation: nominal %s, attacked %s, acceleration %s\n"
       (render_ttv years_max c.ac_ttv_nominal)
       (render_ttv years_max c.ac_ttv_attack)
       (match c.ac_acceleration with
       | None -> "-"
       | Some a -> Printf.sprintf "%.2fx" a));
  Buffer.add_string buf
    (Printf.sprintf "  canaries: %d inserted, CEC-proved inert\n" (List.length report.ap_canaries));
  Buffer.add_string buf
    "  kernel     spec                                mode       outcome        det  by        \
     latency      sum    polls   ovh%\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %-9s  %-34s  %-9s  %-13s  %-3s  %-8s  %-11s  %-5s  %5d  %5.1f\n"
           r.cr_kernel r.cr_spec r.cr_mode r.cr_outcome
           (if r.cr_detected then "yes" else "no")
           r.cr_detected_by
           (match r.cr_latency with
           | Some (i, _) -> Printf.sprintf "%d instr" i
           | None -> "-")
           (if r.cr_checksum_ok then "ok" else "BAD")
           r.cr_polls r.cr_overhead_pct))
    report.ap_rows;
  let s = attack_summary report.ap_rows in
  Buffer.add_string buf
    (Printf.sprintf "  unguarded: %d/%d runs escaped (silent corruption)\n" s.as_unguarded_escapes
       s.as_unguarded_rows);
  Buffer.add_string buf
    (Printf.sprintf "  sw-only:   %d/%d detected, %d escaped\n" s.as_sw_detected s.as_sw_rows
       s.as_sw_escapes);
  Buffer.add_string buf
    (Printf.sprintf "  sw+canary: %d/%d detected, %d escaped; canary fired first in %d/%d\n"
       s.as_canary_detected s.as_canary_rows s.as_canary_escapes s.as_canary_first
       s.as_canary_rows);
  Buffer.add_string buf
    (Printf.sprintf "  latency:   canary channel <= software tests on %d/%d measured pair(s)\n"
       s.as_canary_wins s.as_latency_pairs);
  Buffer.contents buf

(* ---------------- Fleet campaign ----------------

   Population-level deployment of the pipeline: N devices, each with its
   own (temperature, Vdd, workload-mix) aging corner drawn from a seeded
   distribution, all shipping the same deployed test suite (built once,
   lifted at the worst fleet corner, the way a real fleet ships one
   suite).
   Per device: scan the lifetime grid for the onset of timing violations
   under the device's corner, inject the paper's capture faults at the
   onset pair, and ask whether the deployed suite detects them.  The
   population rollup is the paper's end-goal curve: violated / detected /
   escaped device counts and mean detection latency vs lifetime.
   Devices run through the Fleet work-stealing pool — per-device derived
   seeds keep the rows bit-identical across domain counts, and a device
   whose evaluation keeps failing is quarantined, not fatal. *)

type fleet_config = {
  fd_width : int;
  fd_devices : int;
  fd_seed : int;
  fd_margin : float;
  fd_specs : int;
  fd_constants : Fault.constant list;
  fd_years_max : float;
  fd_year_steps : int;
  fd_temp_min_k : float;
  fd_temp_max_k : float;
  fd_vdd_min : float;
  fd_vdd_max : float;
  fd_kernels : string list;
  fd_poison : int list;
  fd_max_attempts : int;
  fd_timeout_s : float option;
}

let default_fleet =
  {
    fd_width = 16;
    fd_devices = 64;
    fd_seed = 42;
    fd_margin = 1.04;
    fd_specs = 4;
    fd_constants = [ Fault.C0; Fault.C1 ];
    fd_years_max = 10.0;
    fd_year_steps = 10;
    fd_temp_min_k = 330.0;
    fd_temp_max_k = 420.0;
    fd_vdd_min = 0.9;
    fd_vdd_max = 1.1;
    fd_kernels = [];
    fd_poison = [];
    fd_max_attempts = 3;
    fd_timeout_s = Some 120.0;
  }

let quick_fleet =
  {
    default_fleet with
    fd_width = 8;
    fd_devices = 24;
    fd_margin = 1.0;
    fd_specs = 2;
    fd_year_steps = 8;
    fd_kernels = [ "crc"; "nbody"; "fir" ];
  }

type device_corner = {
  dc_device : int;
  dc_temp_k : float;
  dc_vdd : float;
  dc_kernel : string;
}

(* the seeded corner distribution: uniform in temperature and Vdd, the
   workload mix a uniform pick from the kernel pool; deterministic in
   (fd_seed, device id) and independent of the device count *)
let fleet_kernel_pool config =
  match config.fd_kernels with
  | [] -> List.map (fun (b : Workload.benchmark) -> b.Workload.name) Workload.all
  | ks -> ks

let fleet_corners config =
  let kernels = fleet_kernel_pool config in
  List.init config.fd_devices (fun id ->
      let st = Random.State.make [| config.fd_seed; id; 0x5eed |] in
      let dc_temp_k =
        config.fd_temp_min_k +. Random.State.float st (config.fd_temp_max_k -. config.fd_temp_min_k)
      in
      let dc_vdd = config.fd_vdd_min +. Random.State.float st (config.fd_vdd_max -. config.fd_vdd_min) in
      let dc_kernel = List.nth kernels (Random.State.int st (List.length kernels)) in
      { dc_device = id; dc_temp_k; dc_vdd; dc_kernel })

type fleet_row = {
  dv_device : int;
  dv_temp_k : float;
  dv_vdd : float;
  dv_kernel : string;
  dv_onset_idx : int option;  (** first violating lifetime-grid index (1-based) *)
  dv_worst_pair : string;
  dv_specs : int;
  dv_detected : int;
  dv_escape : bool;
  dv_latency_cycles : int option;
}

let fleet_years config i =
  config.fd_years_max *. float_of_int i /. float_of_int config.fd_year_steps

let fleet_row_to_json r =
  Json.Obj
    [
      ("device", Json.Int r.dv_device);
      ("temp_k", Json.Float r.dv_temp_k);
      ("vdd", Json.Float r.dv_vdd);
      ("kernel", Json.String r.dv_kernel);
      ("onset", match r.dv_onset_idx with None -> Json.Null | Some i -> Json.Int i);
      ("worst_pair", Json.String r.dv_worst_pair);
      ("specs", Json.Int r.dv_specs);
      ("detected", Json.Int r.dv_detected);
      ("escape", Json.Bool r.dv_escape);
      ("latency", match r.dv_latency_cycles with None -> Json.Null | Some c -> Json.Int c);
    ]

let fleet_row_of_json j =
  let open Json in
  let* dv_device = Result.bind (member "device" j) to_int in
  let* dv_temp_k = Result.bind (member "temp_k" j) to_float in
  let* dv_vdd = Result.bind (member "vdd" j) to_float in
  let* dv_kernel = Result.bind (member "kernel" j) to_str in
  let* dv_onset_idx =
    let* o = member "onset" j in
    match o with Null -> Ok None | o -> Result.map Option.some (to_int o)
  in
  let* dv_worst_pair = Result.bind (member "worst_pair" j) to_str in
  let* dv_specs = Result.bind (member "specs" j) to_int in
  let* dv_detected = Result.bind (member "detected" j) to_int in
  let* dv_escape = Result.bind (member "escape" j) to_bool in
  let* dv_latency_cycles =
    let* l = member "latency" j in
    match l with Null -> Ok None | l -> Result.map Option.some (to_int l)
  in
  Ok
    {
      dv_device;
      dv_temp_k;
      dv_vdd;
      dv_kernel;
      dv_onset_idx;
      dv_worst_pair;
      dv_specs;
      dv_detected;
      dv_escape;
      dv_latency_cycles;
    }

let fleet_digest ?netlist (c : fleet_config) =
  (* deliberately excludes the domain count and the robustness knobs
     (attempts, timeout): neither may change a row, so a run killed at
     --domains 4 must resume at --domains 1 *)
  Resilience.digest_of_strings
    [
      "vega-fleet";
      (match netlist with
      | None -> "stock"
      | Some nl -> Resilience.netlist_digest nl);
      string_of_int c.fd_width;
      string_of_int c.fd_devices;
      string_of_int c.fd_seed;
      Printf.sprintf "%.17g" c.fd_margin;
      string_of_int c.fd_specs;
      constants_key c.fd_constants;
      Printf.sprintf "%.17g" c.fd_years_max;
      string_of_int c.fd_year_steps;
      Printf.sprintf "%.17g" c.fd_temp_min_k;
      Printf.sprintf "%.17g" c.fd_temp_max_k;
      Printf.sprintf "%.17g" c.fd_vdd_min;
      Printf.sprintf "%.17g" c.fd_vdd_max;
      String.concat "," c.fd_kernels;
      String.concat "," (List.map string_of_int c.fd_poison);
    ]

(* The aging library at a device corner.  Overdrive accelerates BTI
   roughly with the square of the stress voltage: the Vdd corner is folded
   into the 10-year anchor. *)
let corner_aging_library ~temp_k ~vdd =
  let config =
    {
      Aging.default_config with
      Aging.temp_k;
      calibration_dvth_10y = Aging.default_config.Aging.calibration_dvth_10y *. vdd *. vdd;
    }
  in
  Aging.Timing_library.build ~config Cell.Library.c28

(* One device's evaluation: a pure function of (seed, corner) and the
   shared read-only context — the whole fleet determinism argument. *)
let fleet_eval ~config ~clock_period_ps ~nl ~sp_by_kernel ~suite ~case_prefix_cycles ~seed corner
    =
  if List.mem corner.dc_device config.fd_poison then
    failwith (Printf.sprintf "device %d is poisoned (forced persistent failure)" corner.dc_device);
  let aglib = corner_aging_library ~temp_k:corner.dc_temp_k ~vdd:corner.dc_vdd in
  let sp = List.assoc corner.dc_kernel sp_by_kernel in
  let clock_tree = Vega.default_phase1.Vega.clock_tree in
  let row ~onset ~pair ~specs ~detected ~escape ~latency =
    {
      dv_device = corner.dc_device;
      dv_temp_k = corner.dc_temp_k;
      dv_vdd = corner.dc_vdd;
      dv_kernel = corner.dc_kernel;
      dv_onset_idx = onset;
      dv_worst_pair = pair;
      dv_specs = specs;
      dv_detected = detected;
      dv_escape = escape;
      dv_latency_cycles = latency;
    }
  in
  let rec scan i =
    if i > config.fd_year_steps then None
    else begin
      let timing =
        Sta.aged_timing ~clock_tree ~sp_of_net:sp ~years:(fleet_years config i) aglib
      in
      match Sta.violating_pairs ~timing ~clock_period_ps nl with
      | [] -> scan (i + 1)
      | pairs -> Some (i, pairs)
    end
  in
  match scan 1 with
  | None -> row ~onset:None ~pair:"-" ~specs:0 ~detected:0 ~escape:false ~latency:None
  | Some (onset, pairs) -> (
    match List.find_map (Lift.decode_pair nl) pairs with
    | None ->
      (* violated, but only on input-launched paths: nothing the capture
         fault model can express, so the device counts as an escape *)
      row ~onset:(Some onset) ~pair:"-" ~specs:0 ~detected:0 ~escape:true ~latency:None
    | Some (start_dff, end_dff, kind) ->
      let faulty_specs =
        List.filter_map
          (fun constant ->
            let spec =
              { Fault.start_dff; end_dff; kind; constant; activation = Fault.Any_transition }
            in
            match Fault.failing_netlist nl spec with
            | exception _ -> None
            | faulty -> Some faulty)
          config.fd_constants
      in
      let firsts =
        List.map
          (fun faulty ->
            let det = Lift.detected_cases ~seed suite faulty in
            let first = ref None in
            Array.iteri (fun i d -> if d && !first = None then first := Some i) det;
            !first)
          faulty_specs
      in
      let detected = List.length (List.filter Option.is_some firsts) in
      let latency =
        List.fold_left
          (fun acc first ->
            match first with
            | None -> acc
            | Some i ->
              let c = case_prefix_cycles.(i) in
              Some (match acc with None -> c | Some a -> max a c))
          None firsts
      in
      row ~onset:(Some onset)
        ~pair:(Printf.sprintf "%s~%s~%s" start_dff end_dff (Serial.violation_name kind))
        ~specs:(List.length faulty_specs) ~detected
        ~escape:(faulty_specs = [] || detected < List.length faulty_specs)
        ~latency)

type fleet_point = {
  fp_years : float;
  fp_violated : int;
  fp_detected : int;
  fp_escaped : int;
  fp_mean_latency : float option;
}

type fleet_report = {
  fe_config : fleet_config;
  fe_clock_period_ps : float;
  fe_suite_cases : int;
  fe_results : (device_corner * (fleet_row, string) result) list;
      (** device order; [Error] is the quarantine message *)
  fe_curve : fleet_point list;
  fe_stats : Fleet.stats;
}

let fleet_campaign ?(config = quick_fleet) ?netlist ?(domains = 1) ?(log = fun _ -> ())
    ?checkpoint () =
  Telemetry.with_span ~cat:"experiments" "experiments.fleet_campaign" @@ fun () ->
  let target =
    let t = Lift.alu_target ~width:config.fd_width () in
    match netlist with Some nl -> { t with Lift.netlist = nl } | None -> t
  in
  let nl = target.Lift.netlist in
  let analysis =
    lazy
      (log (Printf.sprintf "fleet: phase 1 aging analysis (alu%d, nominal corner)" config.fd_width);
       Vega.aging_analysis
         ~config:{ Vega.default_phase1 with Vega.clock_margin = config.fd_margin }
         target ~workload:minver_workload)
  in
  (* the clock and the deployed suite are shared by the whole fleet;
     checkpoint them in shard 0 so a resumed run needs no phase 1 *)
  let clock_period_ps =
    ck_memo checkpoint "fleet~clock" ~encode:(fun p -> Json.Float p) ~decode:Json.to_float
      ~on_restore:ignore
      (fun () -> (Lazy.force analysis).Vega.clock_period_ps)
  in
  let selected =
    memo_lift checkpoint "fleet~lift"
      ~on_restore:(fun () -> log "fleet: deployed suite restored from checkpoint")
      (fun () ->
        (* the vendor lifts the deployed suite at the WORST fleet corner
           (hottest, highest Vdd, full service life): a fleet ships one
           test binary, and it must cover the most aged device it will
           ever meet.  Devices whose onset pair falls outside the lifted
           budget are the campaign's escapes. *)
        let worst_pairs =
          let aglib = corner_aging_library ~temp_k:config.fd_temp_max_k ~vdd:config.fd_vdd_max in
          let timing =
            Sta.aged_timing
              ~clock_tree:Vega.default_phase1.Vega.clock_tree
              ~sp_of_net:(Lazy.force analysis).Vega.sp_of_net ~years:config.fd_years_max aglib
          in
          Sta.violating_pairs ~timing ~clock_period_ps nl
        in
        log "fleet: error lifting for the deployed suite (worst fleet corner)";
        select_campaign_pairs target worst_pairs config.fd_specs)
  in
  let suite = Lift.suite_of_results target.Lift.kind selected in
  let n_cases = List.length suite.Lift.suite_cases in
  let corners = fleet_corners config in
  let tasks =
    List.map
      (fun c -> { Fleet.tk_key = Printf.sprintf "device-%04d" c.dc_device; Fleet.tk_payload = c })
      corners
  in
  (* a device's context: the suite's schedule and the SP profile of each
     kernel it may run; a run that restores every device needs none *)
  let eval =
    let restored ck = Fleet.all_restored ck ~decode:fleet_row_of_json tasks in
    if Option.fold ~none:false ~some:restored checkpoint then fun ~seed:_ _ ->
      invalid_arg "Experiments.fleet_campaign: restored device re-run"
    else begin
      (* schedule latency: the deployed suite runs case 0, 1, ... in order,
         so detection at case i costs the cycles of every case up to i *)
      let case_prefix_cycles =
        let acc = ref 0 in
        suite.Lift.suite_cases
        |> List.map (fun c ->
               acc :=
                 !acc
                 + Vega.suite_cycles
                     { Lift.suite_target = suite.Lift.suite_target; suite_cases = [ c ] };
               !acc)
        |> Array.of_list
      in
      (* profile only the kernels some device runs, in pool order *)
      let kernels =
        List.filter
          (fun name -> List.exists (fun c -> String.equal c.dc_kernel name) corners)
          (fleet_kernel_pool config)
      in
      log (Printf.sprintf "fleet: SP profiles for %d kernel(s)" (List.length kernels));
      let sp_by_kernel =
        Telemetry.with_span ~cat:"experiments" "fleet_campaign.profiles" @@ fun () ->
        List.map
          (fun name ->
            let b = Workload.find name in
            match Vega.profile_sp target ~workload:(kernel_workload b) with
            | Some (_, sp) -> (name, sp)
            | None -> (name, (Lazy.force analysis).Vega.sp_of_net))
          kernels
      in
      fun ~seed corner ->
        fleet_eval ~config ~clock_period_ps ~nl ~sp_by_kernel ~suite ~case_prefix_cycles ~seed
          corner
    end
  in
  log
    (Printf.sprintf "fleet: evaluating %d device(s) on %d domain(s), %d-case deployed suite"
       config.fd_devices domains n_cases);
  let results, stats =
    Fleet.run
      ~config:
        {
          Fleet.fl_domains = domains;
          fl_max_attempts = config.fd_max_attempts;
          fl_backoff_s = 0.02;
          fl_timeout_s = config.fd_timeout_s;
        }
      ?checkpoint ~log ~seed:config.fd_seed ~f:eval ~encode:fleet_row_to_json
      ~decode:fleet_row_of_json tasks
  in
  let fe_results =
    List.map2
      (fun corner (r : fleet_row Fleet.item_result) ->
        match (r.Fleet.fr_outcome, r.Fleet.fr_value) with
        | Fleet.Quarantined e, _ -> (corner, Error e)
        | _, Some row -> (corner, Ok row)
        | _, None -> (corner, Error "missing value"))
      corners (Array.to_list results)
  in
  let rows = List.filter_map (fun (_, r) -> Result.to_option r) fe_results in
  let fe_curve =
    List.init config.fd_year_steps (fun k ->
        let i = k + 1 in
        let active =
          List.filter
            (fun r -> match r.dv_onset_idx with Some o -> o <= i | None -> false)
            rows
        in
        let detected = List.filter (fun r -> not r.dv_escape) active in
        let latencies = List.filter_map (fun r -> r.dv_latency_cycles) detected in
        {
          fp_years = fleet_years config i;
          fp_violated = List.length active;
          fp_detected = List.length detected;
          fp_escaped = List.length active - List.length detected;
          fp_mean_latency =
            (match latencies with
            | [] -> None
            | l ->
              Some (float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)));
        })
  in
  {
    fe_config = config;
    fe_clock_period_ps = clock_period_ps;
    fe_suite_cases = n_cases;
    fe_results;
    fe_curve;
    fe_stats = stats;
  }

(* Deterministic rendering: rows and curves only.  Wall-clock health
   (steals, re-dispatches, checkpoint hits) is deliberately absent — the
   CI smoke diffs this output across domain counts and across
   kill/resume. *)
let render_fleet report =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "fleet campaign: alu%d, %d device(s), %d-case deployed suite, clock %.1f ps\n"
       report.fe_config.fd_width report.fe_config.fd_devices report.fe_suite_cases
       report.fe_clock_period_ps);
  Buffer.add_string buf
    "  device        T(K)    Vdd   kernel      onset   worst pair                    specs  det  \
     latency  escape\n";
  List.iter
    (fun (c, r) ->
      match r with
      | Error e ->
        Buffer.add_string buf
          (Printf.sprintf "  device-%04d  QUARANTINED: %s\n" c.dc_device e)
      | Ok row ->
        Buffer.add_string buf
          (Printf.sprintf "  device-%04d  %5.1f  %5.3f  %-10s  %-6s  %-28s  %5d  %3d  %-7s  %s\n"
             row.dv_device row.dv_temp_k row.dv_vdd row.dv_kernel
             (match row.dv_onset_idx with
             | None -> "-"
             | Some i -> Printf.sprintf "%.1fy" (fleet_years report.fe_config i))
             row.dv_worst_pair row.dv_specs row.dv_detected
             (match row.dv_latency_cycles with None -> "-" | Some c -> string_of_int c)
             (if row.dv_escape then "YES" else "no")))
    report.fe_results;
  Buffer.add_string buf "population vs lifetime:\n";
  Buffer.add_string buf "  years  violated  detected  escaped  mean-latency-cycles\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  %5.1f  %8d  %8d  %7d  %s\n" p.fp_years p.fp_violated p.fp_detected
           p.fp_escaped
           (match p.fp_mean_latency with None -> "-" | Some m -> Printf.sprintf "%.0f" m)))
    report.fe_curve;
  let quarantined =
    List.length (List.filter (fun (_, r) -> Result.is_error r) report.fe_results)
  in
  let violated =
    List.length
      (List.filter
         (fun (_, r) -> match r with Ok row -> row.dv_onset_idx <> None | Error _ -> false)
         report.fe_results)
  in
  let escaped =
    List.length
      (List.filter (fun (_, r) -> match r with Ok row -> row.dv_escape | Error _ -> false)
         report.fe_results)
  in
  Buffer.add_string buf
    (Printf.sprintf "summary: %d device(s): %d violated, %d detected, %d escaped, %d quarantined\n"
       (List.length report.fe_results) violated (violated - escaped) escaped quarantined);
  Buffer.contents buf

(* ---------------- run everything ---------------- *)

let run_all ?config ?(log = fun _ -> ()) () =
  let buf = Buffer.create 8192 in
  let add s = Buffer.add_string buf s; Buffer.add_char buf '\n' in
  add (render_fig4 (fig4 ()));
  add (render_table1 (table1 ()));
  add (render_table2 (table2 ()));
  let ctx = make_context ?config ~log () in
  add (render_fig8 (fig8 ctx));
  add (render_table3 (table3 ctx));
  add (render_table4 (table4 ctx));
  add (render_table4_resilient (table4_resilient ctx));
  add (render_table5 (table5 ctx));
  add (render_table6 (table6 ctx));
  add (render_table7 (table7 ctx));
  add (render_fig9 (fig9 ctx));
  Buffer.contents buf
