(* The vega command-line tool.

     vega analyze  --unit alu|fpu [--width N] [--margin M] [--years Y]
                   [--static | --static-prune]
     vega lift     --unit alu|fpu [--mitigation] [--asm] [--out FILE] [--seed N]
                   [--slice N] [--budget N] [--no-fallback] [--static-prune]
                   [--checkpoint DIR] [--resume]
     vega run      --unit alu|fpu [--inject START:END:KIND:C] [--random-order SEED]
     vega emit-c   --unit alu|fpu
     vega encode   --unit alu|fpu
     vega verilog  --unit alu|fpu|example [--inject START:END:KIND:C]
     vega fuzz     --unit alu|fpu --pair START:END [--budget CYCLES]
     vega optimize --unit alu|fpu [--verify]
     vega lint     --unit alu|fpu | --selftest
     vega check    --unit alu|fpu [--seed N]
     vega report   [--quick]
     vega guard-campaign [--quick] [--seed N] [--checkpoint DIR] [--resume]
     vega attack   --unit alu|fpu [--width N] [--len N] [--iters N] [--seed N]
                   [--no-sat] [--cells C1,C2]
                   [--campaign [--quick]] [--checkpoint DIR] [--resume]
     vega monitors --unit alu|fpu [--width N] [--margin M] [--count N]
                   [--pessimism F]
     vega repair   --unit alu|fpu [--width N] [--margin M] [--years Y]
                   [--budget N] [--area-frac F] [--pair-edits N]
                   [--approx-bound RATE] [--seed N]
                   [--checkpoint DIR] [--resume]
     vega fleet    [--quick] [--width N] [--devices N] [--domains D] [--seed N]
                   [--specs N] [--poison ID,ID]
                   [--checkpoint DIR] [--resume]

   The pipeline subcommands (analyze, lift, run, fuzz, optimize, check,
   report, guard-campaign, attack, monitors, repair, fleet) additionally
   accept
     --trace FILE      Chrome trace-event JSON (Perfetto-loadable)
     --metrics FILE    JSONL counters / histograms / span totals
     --virtual-clock   deterministic timestamps: identical runs produce
                       byte-identical exports (used by the golden tests)
   Telemetry is recorded only when --trace or --metrics is given; the
   instrumentation compiles to a single flag check otherwise.

   Exit codes are uniform across subcommands: 0 success; 1 the analysis
   itself failed or detected a problem (SDC detected, check/lint failure,
   a supervised item errored, a guarded campaign run escaped, an attack
   campaign without acceleration or with canary-guarded escapes, a canary
   monitor failing its verification gate, a fleet run with quarantined
   devices, a repair run that leaves violating pairs unrepaired); 2 usage
   errors — malformed or out-of-range options (--width must be a power of
   two in [4, 32], --margin > 0, --domains and --devices >= 1), unknown
   subcommands, and arguments the libraries reject; 3 runtime errors such
   as a stale or unusable checkpoint (digest mismatch) or an unwritable
   output file.

   The long-running subcommands (lift, guard-campaign, attack, repair) accept
   --checkpoint DIR to persist every completed work item atomically, and
   --resume to continue such a directory, skipping completed items; a
   resumed run prints byte-identical output for the same seed.  Faults
   are specified as "start_dff:end_dff:setup|hold:0|1|r",
   e.g. --inject a_q0:r_q0:setup:0. *)

open Cmdliner

(* ---------- shared arguments ---------- *)

type unit_kind = U_alu | U_fpu

let unit_conv =
  let parse = function
    | "alu" -> Ok U_alu
    | "fpu" -> Ok U_fpu
    | s -> Error (`Msg (Printf.sprintf "unknown unit %S (expected alu or fpu)" s))
  in
  let print fmt u = Format.pp_print_string fmt (match u with U_alu -> "alu" | U_fpu -> "fpu") in
  Arg.conv (parse, print)

let unit_arg =
  Arg.(required & opt (some unit_conv) None & info [ "unit"; "u" ] ~docv:"UNIT" ~doc:"Functional unit: alu or fpu.")

(* A number option with a range check: an out-of-range value is a usage
   error (exit 2) exactly like a malformed one. *)
let checked base ~expect ok =
  let parse s =
    Result.bind (Arg.conv_parser base s) (fun v ->
        if ok v then Ok v else Error (`Msg (Printf.sprintf "expected %s, got %s" expect s)))
  in
  Arg.conv (parse, Arg.conv_printer base)

let width_conv =
  checked Arg.int ~expect:"a power of two in [4, 32]" (fun w ->
      w >= 4 && w <= 32 && w land (w - 1) = 0)

let count_conv = checked Arg.int ~expect:"an integer >= 1" (fun n -> n >= 1)
let margin_conv = checked Arg.float ~expect:"a number > 0" (fun m -> m > 0.0)

let width_arg =
  Arg.(value & opt width_conv 16 & info [ "width" ] ~docv:"BITS" ~doc:"ALU datapath width (power of two, 4-32).")

let margin_arg =
  Arg.(value & opt margin_conv 1.0 & info [ "margin" ] ~docv:"M" ~doc:"Clock guardband over the fresh critical path (e.g. 1.005).")

let years_arg =
  Arg.(value & opt float 10.0 & info [ "years" ] ~docv:"Y" ~doc:"Assumed service life for the aging analysis.")

let mitigation_arg =
  Arg.(value & flag & info [ "mitigation" ] ~doc:"Enable the initial-value-dependency mitigation (rising/falling variants).")

let fault_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ start_dff; end_dff; kind; c ] -> (
      let kind =
        match kind with
        | "setup" -> Ok Fault.Setup_violation
        | "hold" -> Ok Fault.Hold_violation
        | k -> Error (`Msg (Printf.sprintf "bad violation kind %S" k))
      in
      let constant =
        match c with
        | "0" -> Ok Fault.C0
        | "1" -> Ok Fault.C1
        | "r" | "R" -> Ok Fault.C_random
        | c -> Error (`Msg (Printf.sprintf "bad constant %S" c))
      in
      match (kind, constant) with
      | Ok kind, Ok constant ->
        Ok { Fault.start_dff; end_dff; kind; constant; activation = Fault.Any_transition }
      | Error e, _ | _, Error e -> Error e)
    | _ -> Error (`Msg "expected START:END:setup|hold:0|1|r")
  in
  let print fmt s = Format.pp_print_string fmt (Fault.describe s) in
  Arg.conv (parse, print)

let inject_arg =
  Arg.(value & opt (some fault_conv) None & info [ "inject" ] ~docv:"FAULT" ~doc:"Inject a failure model: START:END:setup|hold:0|1|r.")

let target_of = function
  | U_alu, width -> Lift.alu_target ~width ()
  | U_fpu, _ -> Lift.fpu_target ()

(* ---------- telemetry plumbing ---------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the run to $(docv); load it in Perfetto \
           (ui.perfetto.dev) or chrome://tracing.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write run metrics (counters, histograms, span totals) to $(docv) as JSONL.")

let virtual_clock_arg =
  Arg.(
    value & flag
    & info [ "virtual-clock" ]
        ~doc:
          "Timestamp telemetry with the deterministic virtual clock instead of real time: \
           identical runs then produce byte-identical exports.")

let telemetry_term =
  Term.(const (fun trace metrics vclock -> (trace, metrics, vclock))
        $ trace_arg $ metrics_arg $ virtual_clock_arg)

(* Recording is active only when an export destination was requested, so
   the plain CLI keeps the disabled-path (single flag check) cost. *)
let with_telemetry (trace, metrics, vclock) f =
  match (trace, metrics) with
  | None, None -> f ()
  | _ ->
    let clock =
      if vclock then Telemetry.Clock.virtual_ () else Telemetry.Clock.monotonic ()
    in
    Telemetry.enable ~clock ();
    let finish () =
      let snap = Telemetry.snapshot () in
      Telemetry.disable ();
      let write path text =
        let oc = open_out path in
        output_string oc text;
        close_out oc
      in
      Option.iter (fun p -> write p (Telemetry.Export.chrome_trace snap)) trace;
      Option.iter (fun p -> write p (Telemetry.Export.jsonl snap)) metrics
    in
    (match f () with
    | code ->
      finish ();
      code
    | exception e ->
      finish ();
      raise e)

(* A pipeline subcommand: [term] evaluates to the command's body, which
   runs under the telemetry flags. *)
let traced info term = Cmd.v info Term.(const with_telemetry $ telemetry_term $ term)

(* Open [--checkpoint DIR] with [open_ dir] and continue with the store
   ([None] without the option).  A refused directory (a stale digest, or a
   populated one without --resume) ends the command with exit 3. *)
let with_checkpoint cmd dir open_ k =
  match Option.map open_ dir with
  | None -> k None
  | Some (Ok ck) -> k (Some ck)
  | Some (Error msg) ->
    prerr_endline (Printf.sprintf "vega %s: %s" cmd msg);
    3

let phase1_of margin =
  { Vega.default_phase1 with Vega.clock_margin = margin }

let workflow unit_kind width margin mitigation =
  let target = target_of (unit_kind, width) in
  let phase2 = { Lift.default_config with Lift.mitigation } in
  Vega.run_workflow ~phase1:(phase1_of margin) ~phase2 target ~workload:Vega.run_minver_workload

(* The exit-code contract, declared in every subcommand's EXIT STATUS
   section.  Cmdliner's own 123/124 never escape: the handler at the
   bottom of this file maps its parse errors to 2. *)
let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1
      ~doc:
        "when the run reports a finding: a detected SDC, a failed check or proof, an escaped \
         or quarantined run, or violations left after repair.";
    Cmd.Exit.info 2
      ~doc:
        "on a usage error: a bad option or argument value, or an unknown subcommand, \
         register, cell or port.";
    Cmd.Exit.info 3
      ~doc:"on a stale or unusable checkpoint, or a file that cannot be read or written.";
    Cmd.Exit.info 125 ~doc:"on an unexpected internal error (a bug).";
  ]

(* ---------- analyze ---------- *)

let static_arg =
  Arg.(
    value & flag
    & info [ "static" ]
        ~doc:
          "Print only the static Spbound triage report (SP/duty intervals and Safe / Critical \
           / Unknown pair verdicts): no simulation runs, so the output is deterministic and \
           golden-diffable.")

let static_prune_arg =
  Arg.(
    value & flag
    & info [ "static-prune" ]
        ~doc:
          "Triage register pairs with the static Spbound analysis first and skip \
           statically-Safe pairs in the phase-1 sweep; verdicts are identical, Critical pairs \
           are front-loaded in phase 2.")

let analyze_cmd =
  let run unit_kind width margin years static static_prune () =
    let target = target_of (unit_kind, width) in
    let config = { (phase1_of margin) with Vega.years } in
    if static then begin
      let clock_period_ps = (Vega.phase1_clock config target.Lift.netlist).Vega.period_ps in
      let sb, pvs = Vega.static_triage config ~clock_period_ps target.Lift.netlist in
      Printf.printf "clock period %.0f ps (fresh critical path x margin %.3f)\n" clock_period_ps
        margin;
      print_string (Spbound.render sb pvs);
      0
    end
    else
    (* workload characterization + area/power from phase 1's profiled run *)
    let profiled = ref None in
    let workload m =
      Vega.run_minver_workload m;
      profiled := Some m
    in
    let a = Vega.aging_analysis ~config ~static_prune target ~workload in
    let m = Option.get !profiled in
    let stats = Machine.op_stats m in
    Printf.printf "workload op mix: ";
    List.iter (fun (op, n) -> Printf.printf "%s:%d " (Alu.op_name op) n) stats.Machine.alu_ops;
    List.iter
      (fun (op, n) -> Printf.printf "%s:%d " (Fpu_format.op_name op) n)
      stats.Machine.fpu_ops;
    Printf.printf "ld:%d st:%d br:%d(%d taken)\n" stats.Machine.loads stats.Machine.stores
      stats.Machine.branches stats.Machine.branches_taken;
    let unit_sim =
      match unit_kind with
      | U_alu -> Option.get (Machine.alu_sim m)
      | U_fpu -> Option.get (Machine.fpu_sim m)
    in
    if Simc.samples unit_sim > 1 then
      print_string
        (Power.render
           (Power.analyze_engine (module Simc.Lane) Cell.Library.c28 (Simc.lane_view unit_sim 0)
              ~clock_mhz:200.0));
    Printf.printf "netlist: %d cells, clock period %.0f ps (margin %.3f)\n"
      (Netlist.num_cells target.Lift.netlist) a.Vega.clock_period_ps margin;
    (match a.Vega.static_verdicts with
    | None -> ()
    | Some pvs ->
      let safe, critical, unknown = Spbound.verdict_counts pvs in
      Printf.printf "static triage: %d safe (skipped) / %d critical / %d unknown pairs\n" safe
        critical unknown);
    Printf.printf "fresh:  setup WNS %.1f ps, hold WNS %.1f ps (violations: %d setup, %d hold)\n"
      a.Vega.fresh_report.Sta.wns_setup_ps a.Vega.fresh_report.Sta.wns_hold_ps
      (List.length a.Vega.fresh_report.Sta.setup_violations)
      (List.length a.Vega.fresh_report.Sta.hold_violations);
    let aged = Vega.aged_report ~max_violating_paths:0 a in
    Printf.printf "aged %g years: setup WNS %.1f ps, hold WNS %.1f ps\n" years
      aged.Sta.wns_setup_ps aged.Sta.wns_hold_ps;
    Printf.printf "violating register pairs (%d):\n" (List.length a.Vega.violating_pairs);
    List.iter
      (fun (s, e, c, sl) ->
        Printf.printf "  %-10s -> %-10s %-6s slack %7.1f ps\n"
          (Sta.describe_startpoint target.Lift.netlist s)
          (Sta.describe_endpoint target.Lift.netlist e)
          (match c with Sta.Setup -> "setup" | Sta.Hold -> "hold")
          sl)
      a.Vega.violating_pairs;
    0
  in
  let term =
    Term.(const run $ unit_arg $ width_arg $ margin_arg $ years_arg $ static_arg $ static_prune_arg)
  in
  traced
    (Cmd.info "analyze" ~exits
       ~doc:
         "Phase 1: aging-aware timing analysis of a functional unit, optionally pruned (or \
          replaced entirely, with $(b,--static)) by the sound static Spbound triage.")
    term

(* ---------- lift ---------- *)

let asm_arg = Arg.(value & flag & info [ "asm" ] ~doc:"Print the generated suite as assembly.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the suite as JSON (the operator interchange format).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Persist every completed work item into $(docv) (atomic JSON snapshots), making the \
           run resumable with $(b,--resume).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:"Continue from an existing checkpoint directory, skipping completed items.")

let lift_cmd =
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Seed of the random-search degradation ladder.")
  in
  let slice_arg =
    Arg.(
      value
      & opt (some count_conv) None
      & info [ "slice" ] ~docv:"CONFLICTS"
          ~doc:"First-pass per-pair solver-conflict slice (default: the formal budget, 200000).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some count_conv) None
      & info [ "budget" ] ~docv:"CONFLICTS"
          ~doc:"Total shared solver-conflict budget (default: slice x pairs).")
  in
  let no_fallback_arg =
    Arg.(
      value & flag
      & info [ "no-fallback" ]
          ~doc:"Disable the random-search fallback for formally-FF pairs.")
  in
  let run unit_kind width margin mitigation asm out seed slice budget no_fallback
      static_prune checkpoint resume () =
    let target = target_of (unit_kind, width) in
    let config =
      {
        Lift.default_config with
        Lift.mitigation;
        max_conflicts =
          (match slice with Some s -> s | None -> Lift.default_config.Lift.max_conflicts);
      }
    in
    let analysis =
      Vega.aging_analysis ~config:(phase1_of margin) ~static_prune target
        ~workload:Vega.run_minver_workload
    in
    (* triage summary goes to stderr: stdout stays byte-comparable with an
       unpruned run (same pairs, same verdicts) *)
    (match analysis.Vega.static_verdicts with
    | None -> ()
    | Some pvs ->
      let safe, critical, unknown = Spbound.verdict_counts pvs in
      Printf.eprintf "[vega] static triage: %d safe (skipped) / %d critical / %d unknown\n%!"
        safe critical unknown);
    let items = Vega.lifting_items analysis in
    let sup0 = Resilience.default_supervisor ~pairs:(List.length items) config in
    let sup =
      {
        sup0 with
        Resilience.sv_budget_conflicts =
          (match budget with Some b -> b | None -> sup0.Resilience.sv_budget_conflicts);
        sv_ladder =
          {
            sup0.Resilience.sv_ladder with
            Resilience.ld_fallback = not no_fallback;
            ld_seed = seed;
          };
      }
    in
    with_checkpoint "lift" checkpoint (fun dir ->
        let digest =
          Resilience.digest_of_strings
            [
              "vega-lift";
              Resilience.netlist_digest target.Lift.netlist;
              Printf.sprintf "%.17g" margin;
              string_of_bool mitigation;
              string_of_int config.Lift.max_conflicts;
              string_of_int sup.Resilience.sv_budget_conflicts;
              string_of_int seed;
              string_of_bool (not no_fallback);
              string_of_bool static_prune;
            ]
        in
        Resilience.Checkpoint.open_dir ~resume ~dir ~digest ())
    @@ fun checkpoint ->
    (* progress goes to stderr: stdout is the diffable report *)
    let on_item i r =
      Printf.eprintf "[vega] item %d: %s (pass %d, %d conflicts)\n%!" i
        r.Resilience.ir_item.Resilience.it_key r.Resilience.ir_passes
        r.Resilience.ir_conflicts
    in
    let rp = Resilience.supervised_lift ~config ~supervisor:sup ?checkpoint ~on_item target items in
    print_string (Resilience.render_report rp);
    let suite = Resilience.suite_of_report target rp in
    Printf.printf "suite: %d cases, %d cycles\n"
      (List.length suite.Lift.suite_cases)
      (Vega.suite_cycles suite);
    if asm then print_string (Isa.to_asm_text (Lift.suite_program suite));
    (match out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Serial.suite_to_string suite);
      close_out oc;
      Printf.printf "suite written to %s\n" path);
    if
      List.exists
        (fun r ->
          match r.Resilience.ir_outcome with Resilience.Failed _ -> true | _ -> false)
        rp.Resilience.rp_items
    then 1
    else 0
  in
  let term =
    Term.(
      const run $ unit_arg $ width_arg $ margin_arg $ mitigation_arg $ asm_arg
      $ out_arg $ seed_arg $ slice_arg $ budget_arg $ no_fallback_arg
      $ static_prune_arg $ checkpoint_arg $ resume_arg)
  in
  traced
    (Cmd.info "lift" ~exits
       ~doc:
         "Phases 1+2 under the resilience supervisor: generate the SDC test suite for a unit \
          with budget-sliced formal lifting, a random-search degradation ladder, and optional \
          checkpoint/resume.")
    term

(* ---------- run ---------- *)

let seed_arg =
  Arg.(value & opt (some int) None & info [ "random-order" ] ~docv:"SEED" ~doc:"Run the suite in a random order.")

let suite_file_arg =
  Arg.(value & opt (some string) None & info [ "suite" ] ~docv:"FILE" ~doc:"Run a previously exported JSON suite instead of regenerating one.")

let run_cmd =
  let run unit_kind width margin mitigation inject seed suite_file () =
    let suite, target =
      match suite_file with
      | Some path ->
        let ic = open_in path in
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        (match Serial.suite_of_string text with
        | Error e ->
          prerr_endline e;
          exit 2
        | Ok suite ->
          let target =
            match suite.Lift.suite_target with
            | Lift.Alu_module { width } -> Lift.alu_target ~width ()
            | Lift.Fpu_module { fmt } -> Lift.fpu_target ~fmt ()
          in
          (suite, target))
      | None ->
        let report = workflow unit_kind width margin mitigation in
        (report.Vega.suite, report.Vega.analysis.Vega.target)
    in
    let nl =
      match inject with
      | None -> target.Lift.netlist
      | Some spec ->
        Printf.printf "injecting %s\n" (Fault.describe spec);
        Fault.failing_netlist target.Lift.netlist spec
    in
    let m = Vega.machine_for (Lift.target_of_netlist target.Lift.kind nl) in
    let strategy =
      match seed with
      | None -> Integrate.Runner.Sequential
      | Some s -> Integrate.Runner.Random_order s
    in
    (match Integrate.Runner.run_tests m suite strategy with
    | Ok () ->
      print_endline "PASS: no aging-related SDC detected";
      0
    | Error id ->
      Printf.printf "SDC DETECTED by test case [%s]\n" id;
      1)
  in
  let term =
    Term.(
      const run $ unit_arg $ width_arg $ margin_arg $ mitigation_arg $ inject_arg $ seed_arg
      $ suite_file_arg)
  in
  traced
    (Cmd.info "run" ~exits ~doc:"Run the generated suite on a healthy or fault-injected unit.")
    term

(* ---------- emit-c ---------- *)

let emit_c_cmd =
  let run unit_kind width margin mitigation =
    let report = workflow unit_kind width margin mitigation in
    print_string (Integrate.emit_c_library report.Vega.suite);
    0
  in
  let term = Term.(const run $ unit_arg $ width_arg $ margin_arg $ mitigation_arg) in
  Cmd.v (Cmd.info "emit-c" ~exits ~doc:"Emit the software aging library as C source.") term

(* ---------- verilog ---------- *)

let verilog_cmd =
  let unit_conv3 =
    let parse = function
      | "alu" -> Ok `Alu
      | "fpu" -> Ok `Fpu
      | "example" -> Ok `Example
      | s -> Error (`Msg (Printf.sprintf "unknown unit %S" s))
    in
    let print fmt u =
      Format.pp_print_string fmt
        (match u with `Alu -> "alu" | `Fpu -> "fpu" | `Example -> "example")
    in
    Arg.conv (parse, print)
  in
  let unit3_arg =
    Arg.(
      required
      & opt (some unit_conv3) None
      & info [ "unit"; "u" ] ~docv:"UNIT" ~doc:"alu, fpu, or example (the paper's adder).")
  in
  let run unit_kind width inject =
    let nl =
      match unit_kind with
      | `Alu -> Alu.netlist ~width ()
      | `Fpu -> Fpu.netlist ()
      | `Example -> Example_circuits.pipelined_adder ()
    in
    let nl = match inject with None -> nl | Some spec -> Fault.failing_netlist nl spec in
    print_string (Netlist.to_verilog nl);
    0
  in
  let term = Term.(const run $ unit3_arg $ width_arg $ inject_arg) in
  Cmd.v
    (Cmd.info "verilog" ~exits ~doc:"Export a (optionally fault-instrumented) netlist as Verilog.")
    term

(* ---------- fuzz ---------- *)

let pair_arg =
  Arg.(
    required
    & opt (some (pair ~sep:':' string string)) None
    & info [ "pair" ] ~docv:"START:END" ~doc:"Register pair to lift (e.g. a_q0:r_q0).")

let fuzz_cmd =
  let run unit_kind width (start_dff, end_dff) budget () =
    let target = target_of (unit_kind, width) in
    let fuzz = { Lift.default_fuzz_config with Lift.budget_cycles = budget } in
    let formal =
      Lift.lift_pair target ~start_dff ~end_dff ~violation:Fault.Setup_violation
    in
    let fuzzed =
      Lift.fuzz_pair ~fuzz target ~start_dff ~end_dff ~violation:Fault.Setup_violation
    in
    let show tag (r : Lift.pair_result) =
      Printf.printf "%-7s %s (%d cases%s)
" tag
        (Lift.classification_name r.Lift.classification)
        (List.length r.Lift.cases)
        (match r.Lift.cases with
        | tc :: _ -> Printf.sprintf ", first has %d ops" (Lift.steps tc)
        | [] -> "")
    in
    show "formal:" formal;
    show "fuzz:" fuzzed;
    0
  in
  let budget_arg =
    Arg.(value & opt int 2000 & info [ "budget" ] ~docv:"CYCLES" ~doc:"Fuzzing cycle budget.")
  in
  let term = Term.(const run $ unit_arg $ width_arg $ pair_arg $ budget_arg) in
  traced
    (Cmd.info "fuzz" ~exits ~doc:"Compare formal vs fuzzing-based test construction for one pair.")
    term

(* ---------- optimize ---------- *)

let optimize_cmd =
  let run unit_kind width verify () =
    let target = target_of (unit_kind, width) in
    let nl = target.Lift.netlist in
    let opt, stats = Netlist_opt.optimize nl in
    Printf.printf "%d cells -> %d cells (%d folded, %d dead)
"
      stats.Netlist_opt.cells_before stats.Netlist_opt.cells_after stats.Netlist_opt.folded
      stats.Netlist_opt.dead_removed;
    if verify then begin
      match Cec.check nl opt with
      | Cec.Equivalent -> print_endline "formally equivalent: PROVEN"
      | Cec.Inequivalent _ as v ->
        print_endline "DIVERGES:";
        print_endline (Cec.describe v);
        exit 1
      | Cec.Unknown -> print_endline "verification timed out"
    end;
    0
  in
  let verify_arg =
    Arg.(value & flag & info [ "verify" ] ~doc:"Prove equivalence with the CEC checker.")
  in
  let term = Term.(const run $ unit_arg $ width_arg $ verify_arg) in
  traced (Cmd.info "optimize" ~exits ~doc:"Run the netlist optimizer on a unit (and optionally verify).") term

(* ---------- encode ---------- *)

let encode_cmd =
  let run unit_kind width margin mitigation =
    let report = workflow unit_kind width margin mitigation in
    match Rv32_encode.encode (Lift.suite_program report.Vega.suite) with
    | Ok words ->
      print_string (Rv32_encode.to_hex words);
      0
    | Error e ->
      prerr_endline e;
      1
  in
  let term = Term.(const run $ unit_arg $ width_arg $ margin_arg $ mitigation_arg) in
  Cmd.v
    (Cmd.info "encode" ~exits ~doc:"Emit the generated suite as RV32 machine code (readmemh hex).")
    term

(* ---------- lint ---------- *)

let lint_cmd =
  let selftest_arg =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:"Lint the built-in corpus of deliberately defective designs and verify every \
                diagnostic code fires.")
  in
  let unit_opt_arg =
    Arg.(value & opt (some unit_conv) None & info [ "unit"; "u" ] ~docv:"UNIT" ~doc:"Functional unit: alu or fpu.")
  in
  let run unit_kind width selftest =
    if selftest then begin
      let failures = ref 0 in
      List.iter
        (fun (code, design) ->
          let diags = Check.lint design in
          let hit = List.exists (fun (d : Check.diagnostic) -> d.Check.code = code) diags in
          let codes =
            List.sort_uniq compare (List.map (fun (d : Check.diagnostic) -> Check.code_id d.Check.code) diags)
          in
          Printf.printf "  %-5s %-16s %s (reported: %s)\n" (Check.code_id code)
            design.Netlist.Raw.r_name
            (if hit then "flagged" else "MISSED")
            (String.concat " " codes);
          if not hit then incr failures)
        Check.selftest_designs;
      if !failures = 0 then begin
        Printf.printf "lint selftest: all %d diagnostic codes fire\n"
          (List.length Check.selftest_designs);
        0
      end
      else begin
        Printf.printf "lint selftest: %d code(s) failed to fire\n" !failures;
        1
      end
    end
    else begin
      match unit_kind with
      | None ->
        prerr_endline "vega lint: either --unit or --selftest is required";
        2
      | Some u ->
        let target = target_of (u, width) in
        let nl = target.Lift.netlist in
        let diags = Check.lint_netlist nl in
        print_string (Check.render ~design:(Netlist.name nl) diags);
        if Check.errors diags = [] then 0 else 1
    end
  in
  let term = Term.(const run $ unit_opt_arg $ width_arg $ selftest_arg) in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:"Structural lint of a unit netlist (or --selftest the diagnostic corpus); exits \
             non-zero on error-class diagnostics.")
    term

(* ---------- check ---------- *)

let check_cmd =
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the sanity mutation.")
  in
  let run unit_kind width seed () =
    let target = target_of (unit_kind, width) in
    let nl = target.Lift.netlist in
    let failed = ref false in
    let step label ok detail =
      Printf.printf "  %-44s %s%s\n" label (if ok then "ok" else "FAIL")
        (if detail = "" then "" else ": " ^ detail);
      if not ok then failed := true
    in
    Printf.printf "static verification of %s\n" (Netlist.name nl);
    (* 1. structural lint *)
    let diags = Check.lint_netlist nl in
    step "lint (no error-class diagnostics)"
      (Check.errors diags = [])
      (Printf.sprintf "%d diagnostic(s)" (List.length diags));
    (* 2. optimizer output is CEC-equivalent *)
    let opt, stats = Netlist_opt.optimize nl in
    let v = Cec.check nl opt in
    step
      (Printf.sprintf "cec: optimized (%d -> %d cells)" stats.Netlist_opt.cells_before
         stats.Netlist_opt.cells_after)
      (v = Cec.Equivalent) (Cec.describe v);
    (* 3. fault instrumentation is inert while dormant *)
    (match Netlist.dffs nl with
    | x :: (_ :: _ as rest) ->
      let start_dff = (Netlist.cell nl x).Netlist.name in
      let end_dff = (Netlist.cell nl (List.nth rest (List.length rest - 1))).Netlist.name in
      let spec =
        {
          Fault.start_dff;
          end_dff;
          kind = Fault.Setup_violation;
          constant = Fault.C0;
          activation = Fault.Any_transition;
        }
      in
      let faulty = Fault.failing_netlist nl spec in
      let v = Cec.check ~free_inputs:true ~tie_low:(Fault.select_cells faulty) nl faulty in
      step
        (Printf.sprintf "cec: fault replica inert (%s)" (Fault.describe spec))
        (v = Cec.Equivalent) (Cec.describe v)
    | _ -> step "cec: fault replica inert" false "netlist has fewer than two registers");
    (* 4. a seeded mutation must be caught *)
    let mutant, desc = Check.mutate ~seed nl in
    (match Cec.check nl mutant with
    | Cec.Inequivalent cex -> step (Printf.sprintf "cec: mutation caught (%s)" desc) true cex.Cec.cex_site
    | v -> step (Printf.sprintf "cec: mutation caught (%s)" desc) false (Cec.describe v));
    (* 5. SCOAP testability summary *)
    print_string (Scoap.render ~limit:5 nl (Scoap.analyze nl));
    if !failed then begin
      print_endline "static verification: FAILED";
      1
    end
    else begin
      print_endline "static verification: PASSED";
      0
    end
  in
  let term = Term.(const run $ unit_arg $ width_arg $ seed_arg) in
  traced
    (Cmd.info "check" ~exits
       ~doc:"Full static-verification sweep of a unit: lint, optimizer CEC, fault-replica CEC, \
             seeded-mutation detection, SCOAP testability.")
    term

(* ---------- report ---------- *)

let report_cmd =
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced configuration.") in
  let run quick () =
    let config = if quick then Experiments.quick_config else Experiments.default_config in
    let log s = Printf.eprintf "[vega] %s\n%!" s in
    print_string (Experiments.run_all ~config ~log ());
    0
  in
  traced
    (Cmd.info "report" ~exits ~doc:"Regenerate every table and figure of the paper's evaluation.")
    Term.(const run $ quick_arg)

(* ---------- guard-campaign ---------- *)

let guard_campaign_cmd =
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke configuration.") in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Machine RNG seed.")
  in
  let run quick seed checkpoint resume () =
    let base = if quick then Experiments.quick_campaign else Experiments.default_campaign in
    let config = { base with Experiments.cg_seed = seed } in
    let log s = Printf.eprintf "[vega] %s\n%!" s in
    with_checkpoint "guard-campaign" checkpoint (fun dir ->
        Resilience.Checkpoint.open_sharded ~resume ~dir
          ~digest:(Experiments.campaign_digest config) ~shards:1 ())
    @@ fun checkpoint ->
    let rows = Experiments.campaign ~config ~log ?checkpoint () in
    print_string (Experiments.render_campaign rows);
    let s = Experiments.campaign_summary rows in
    if s.Experiments.cs_guarded_escapes > 0 then 1 else 0
  in
  traced
    (Cmd.info "guard-campaign" ~exits
       ~doc:
         "Inject phase-2 fault specs mid-run under each recovery policy and tabulate; exits 1 \
          when any guarded run escapes.")
    Term.(const run $ quick_arg $ seed_arg $ checkpoint_arg $ resume_arg)

(* ---------- attack ---------- *)

let attack_cmd =
  let len_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "len" ] ~docv:"N" ~doc:"Operations per candidate stream.")
  in
  let iters_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "iters" ] ~docv:"N" ~doc:"Mutate/evaluate search iterations.")
  in
  let seed_arg =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Search seed.")
  in
  let no_sat_arg =
    Arg.(value & flag & info [ "no-sat" ] ~doc:"Disable the SAT-derived hold patterns.")
  in
  let cells_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cells" ] ~docv:"C1,C2"
          ~doc:
            "Comma-separated victim cell instances (default: the combinational cells of the \
             worst fresh critical paths).")
  in
  let campaign_arg =
    Arg.(
      value & flag
      & info [ "campaign" ]
          ~doc:
            "Run the full adversarial wearout campaign on the ALU: stress search, \
             time-to-violation bisection against the nominal workload corner, canary \
             insertion (CEC-proved inert), and the guarded fault-injection comparison.")
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke campaign configuration.") in
  let run unit_kind width len iters seed no_sat cells campaign quick checkpoint resume () =
    let override (base : Attack.config) =
      let base = { base with Attack.atk_sat_assist = base.Attack.atk_sat_assist && not no_sat } in
      let base = match seed with None -> base | Some s -> { base with Attack.atk_seed = s } in
      let base = match len with None -> base | Some l -> { base with Attack.atk_len = l } in
      match iters with None -> base | Some i -> { base with Attack.atk_iters = i }
    in
    let cells_of s = String.split_on_char ',' s in
    if not campaign then begin
      let target = target_of (unit_kind, width) in
      let cells =
        match cells with
        | None -> Attack.default_targets target.Lift.netlist
        | Some s -> cells_of s
      in
      let r = Attack.search ~config:(override Attack.default_config) target ~cells in
      print_string (Attack.render r);
      0
    end
    else begin
      let base =
        if quick then Experiments.quick_attack_campaign else Experiments.default_attack_campaign
      in
      let config =
        {
          base with
          Experiments.ak_width = width;
          ak_attack = override base.Experiments.ak_attack;
          ak_cells =
            (match cells with None -> base.Experiments.ak_cells | Some s -> cells_of s);
        }
      in
      let log s = Printf.eprintf "[vega] %s\n%!" s in
      with_checkpoint "attack" checkpoint (fun dir ->
          Resilience.Checkpoint.open_sharded ~resume ~dir
            ~digest:(Experiments.attack_campaign_digest config) ~shards:1 ())
      @@ fun checkpoint ->
      let report = Experiments.attack_campaign ~config ~log ?checkpoint () in
      print_string
        (Experiments.render_attack_campaign ~years_max:config.Experiments.ak_years_max report);
      let s = Experiments.attack_summary report.Experiments.ap_rows in
      let accelerated =
        let c = report.Experiments.ap_corner in
        match (c.Experiments.ac_ttv_attack, c.Experiments.ac_acceleration) with
        | None, _ -> false (* the attack never reached a violating corner *)
        | Some _, Some a -> a > 1.0
        | Some _, None -> true (* nominal corner clean at the horizon *)
      in
      if (not accelerated) || s.Experiments.as_canary_escapes > 0 then 1 else 0
    end
  in
  traced
    (Cmd.info "attack" ~exits
       ~doc:
         "Search for an adversarial wearout workload (maximal BTI stress duty on the worst \
          paths); with $(b,--campaign), also measure its time-to-violation acceleration and \
          the canary-guarded detection response.  Exits 1 when the campaign shows no \
          acceleration or a canary-guarded run escapes.")
    Term.(
      const run $ unit_arg $ width_arg $ len_arg $ iters_arg $ seed_arg
      $ no_sat_arg $ cells_arg $ campaign_arg $ quick_arg $ checkpoint_arg $ resume_arg)

(* ---------- monitors ---------- *)

let monitors_cmd =
  let count_arg =
    Arg.(
      value & opt int 2
      & info [ "count" ] ~docv:"N" ~doc:"Canary monitors to insert (worst paths first).")
  in
  let pessimism_arg =
    Arg.(
      value & opt float 1.25
      & info [ "pessimism" ] ~docv:"F"
          ~doc:
            "Aged-replica guardband: a path qualifies for a canary when its arrival scaled by \
             $(docv) exceeds the clock period.")
  in
  let run unit_kind width margin count pessimism () =
    let target = target_of (unit_kind, width) in
    let nl = target.Lift.netlist in
    let clock = Vega.phase1_clock (phase1_of margin) nl in
    Printf.printf "clock %.1f ps (margin %.3f over fresh critical path %.1f ps)\n"
      clock.Vega.period_ps margin clock.Vega.critical_path_ps;
    let paths =
      Canary.plan ~count ~pessimism nl ~timing:clock.Vega.fresh_timing
        ~clock_period_ps:clock.Vega.period_ps
    in
    if paths = [] then begin
      print_endline "no path qualifies for a canary at this corner (try a lower --margin)";
      1
    end
    else begin
      let monitored, canaries = Canary.insert nl paths in
      print_string (Canary.describe canaries);
      match Canary.verify ~original:nl monitored with
      | Ok () ->
        Printf.printf "verified: lint clean, CEC-proved inert, trip covers hold (%d canaries)\n"
          (List.length canaries);
        0
      | Error e ->
        print_endline e;
        print_endline "canary verification: FAILED";
        1
    end
  in
  traced
    (Cmd.info "monitors" ~exits
       ~doc:
         "Insert in-situ canary monitors (aged-replica paths with a trip comparator) into a \
          unit and prove them inert (lint, CEC, trip covers).  Exits 1 when no path qualifies \
          or verification fails.")
    Term.(
      const run $ unit_arg $ width_arg $ margin_arg $ count_arg $ pessimism_arg)

(* ---------- repair ---------- *)

let repair_cmd =
  let budget_arg =
    Arg.(
      value & opt int 64
      & info [ "budget" ] ~docv:"N" ~doc:"Maximum committed rewrites across all pairs.")
  in
  let area_frac_arg =
    Arg.(
      value & opt float 0.25
      & info [ "area-frac" ] ~docv:"F"
          ~doc:"Maximum live-area growth as a fraction of the original netlist's area.")
  in
  let pair_edits_arg =
    Arg.(
      value & opt int 8
      & info [ "pair-edits" ] ~docv:"N" ~doc:"Maximum committed rewrites per register pair.")
  in
  let approx_bound_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "approx-bound" ] ~docv:"RATE"
          ~doc:
            "Enable the bounded-error approximate rung: a constant tie is committed only when \
             the 64-lane random differential output error rate stays within $(docv).")
  in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"SEED" ~doc:"Differential stimulus seed for approximate rewrites.")
  in
  let run unit_kind width margin years budget area_frac pair_edits approx_bound seed ck_dir
      resume () =
    let target = target_of (unit_kind, width) in
    let config = { (phase1_of margin) with Vega.years } in
    let rcfg =
      {
        Repair.default_config with
        Repair.rp_max_rewrites = budget;
        rp_max_area_frac = area_frac;
        rp_max_pair_edits = pair_edits;
        rp_approx_bound = approx_bound;
        rp_seed = seed;
        rp_rungs =
          (Repair.default_config.Repair.rp_rungs
          @ match approx_bound with Some _ -> [ Repair.Approx ] | None -> []);
      }
    in
    with_checkpoint "repair" ck_dir (fun dir ->
        (* the clock phase 1 will run at: the digest is computable before
           the (expensive) profiling run *)
        let clock_period_ps = (Vega.phase1_clock config target.Lift.netlist).Vega.period_ps in
        let digest = Repair.digest rcfg target.Lift.netlist ~clock_period_ps ~years in
        Resilience.Checkpoint.open_dir ~resume ~dir ~digest ())
    @@ fun checkpoint ->
    (* progress goes to stderr: stdout is the diffable report *)
    let log msg = Printf.eprintf "[vega] %s\n%!" msg in
    let report =
      Vega.repair ~config ~repair_config:rcfg ?checkpoint ~log target
        ~workload:Vega.run_minver_workload
    in
    print_string (Vega.render_repair report);
    if report.Vega.rr_violating_after > 0 then 1 else 0
  in
  traced
    (Cmd.info "repair" ~exits
       ~doc:
         "Repair the aging-violating register pairs of a unit with the verified rewrite \
          ladder (gate strengthening, duplication + voting, SP-rebalancing restructure, \
          optional bounded-error approximation): every exact rewrite is CEC-proved before \
          commit and the repaired netlist is re-scored through aged STA and Spbound.  Exits 1 \
          when violating pairs remain.")
    Term.(
      const run $ unit_arg $ width_arg $ margin_arg $ years_arg $ budget_arg
      $ area_frac_arg $ pair_edits_arg $ approx_bound_arg $ seed_arg $ checkpoint_arg
      $ resume_arg)

(* ---------- fleet ---------- *)

let fleet_cmd =
  let devices_arg =
    Arg.(
      value
      & opt (some count_conv) None
      & info [ "devices" ] ~docv:"N" ~doc:"Population size (devices evaluated).")
  in
  let domains_arg =
    Arg.(
      value & opt count_conv 1
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains of the fleet pool.  Results are bit-identical for any $(docv): \
             per-device seeds derive from the master seed and the device key, never from \
             scheduling.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed: corner draws and per-device item seeds.")
  in
  let specs_arg =
    Arg.(
      value
      & opt (some count_conv) None
      & info [ "specs" ] ~docv:"N" ~doc:"Violating pairs lifted into the deployed suite.")
  in
  let poison_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "poison" ] ~docv:"ID,ID"
          ~doc:
            "Force these device ids to fail persistently — the quarantine drill.  The run \
             completes (exit 1), the devices report QUARANTINED.")
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke campaign configuration.") in
  let fleet_width_arg =
    Arg.(
      value
      & opt (some width_conv) None
      & info [ "width" ] ~docv:"BITS"
          ~doc:"ALU datapath width (default: the campaign preset's, 16 or 8 with $(b,--quick)).")
  in
  let fleet_margin_arg =
    Arg.(
      value
      & opt (some margin_conv) None
      & info [ "margin" ] ~docv:"M"
          ~doc:"Clock guardband of the shared analysis (default: the campaign preset's).")
  in
  let run quick width devices domains seed specs margin poison checkpoint resume () =
    let base = if quick then Experiments.quick_fleet else Experiments.default_fleet in
    let base =
      match width with None -> base | Some w -> { base with Experiments.fd_width = w }
    in
    let base =
      match margin with None -> base | Some m -> { base with Experiments.fd_margin = m }
    in
    let base =
      match devices with None -> base | Some n -> { base with Experiments.fd_devices = n }
    in
    let base = match seed with None -> base | Some s -> { base with Experiments.fd_seed = s } in
    let base = match specs with None -> base | Some n -> { base with Experiments.fd_specs = n } in
    let config =
      match poison with
      | None -> base
      | Some s ->
        {
          base with
          Experiments.fd_poison = List.map int_of_string (String.split_on_char ',' s);
        }
    in
    let log s = Printf.eprintf "[vega] %s\n%!" s in
    with_checkpoint "fleet" checkpoint (fun dir ->
        Resilience.Checkpoint.open_sharded ~resume ~dir
          ~digest:(Experiments.fleet_digest config) ~shards:domains ())
    @@ fun checkpoint ->
    let report = Experiments.fleet_campaign ~config ~domains ~log ?checkpoint () in
    print_string (Experiments.render_fleet report);
    (* pool health is wall-clock-dependent: stderr only, never in the
       diffable stdout *)
    let st = report.Experiments.fe_stats in
    Printf.eprintf
      "[vega] pool: %d domain(s), %d item(s): %d completed, %d retried, %d timed-out, %d \
       quarantined, %d from checkpoint; %d steal(s), %d re-dispatch(es), %d retry sleep(s)\n%!"
      st.Fleet.st_domains st.Fleet.st_items st.Fleet.st_completed st.Fleet.st_retried
      st.Fleet.st_timed_out st.Fleet.st_quarantined st.Fleet.st_checkpoint_hits
      st.Fleet.st_steals st.Fleet.st_redispatches st.Fleet.st_retry_sleeps;
    if st.Fleet.st_quarantined > 0 then 1 else 0
  in
  traced
    (Cmd.info "fleet" ~exits
       ~doc:
         "Run a device population (per-device temperature/Vdd/workload aging corners) through \
          the fault-tolerant domain pool and tabulate the population SDC-escape and \
          detection-latency curves vs lifetime.  Stdout is bit-identical for any \
          $(b,--domains) count and across kill/resume; exits 1 when any device was \
          quarantined.")
    Term.(
      const run $ quick_arg $ fleet_width_arg $ devices_arg $ domains_arg
      $ seed_arg $ specs_arg $ fleet_margin_arg $ poison_arg $ checkpoint_arg
      $ resume_arg)

let () =
  let doc = "proactive runtime detection of aging-related silent data corruptions" in
  let info = Cmd.info "vega" ~exits ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        analyze_cmd; lift_cmd; run_cmd; emit_c_cmd; verilog_cmd; fuzz_cmd; optimize_cmd;
        encode_cmd; lint_cmd; check_cmd; report_cmd; guard_campaign_cmd; attack_cmd;
        monitors_cmd; repair_cmd; fleet_cmd;
      ]
  in
  (* The one place bad input becomes an exit code: cmdliner's parse errors
     and the libraries' argument checks are both usage errors. *)
  exit
    (match Cmd.eval' ~catch:false cmd with
    | code when code = Cmd.Exit.cli_error -> 2
    | code -> code
    | exception (Invalid_argument msg | Failure msg) ->
      prerr_endline ("vega: " ^ msg);
      2
    | exception Not_found ->
      prerr_endline "vega: no such register, cell or port in the unit";
      2
    | exception Sys_error msg ->
      prerr_endline ("vega: " ^ msg);
      3
    | exception e ->
      prerr_endline ("vega: internal error: " ^ Printexc.to_string e);
      Cmd.Exit.internal_error)
