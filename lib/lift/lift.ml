type module_kind = Alu_module of { width : int } | Fpu_module of { fmt : Fpu_format.fmt }
type target = { kind : module_kind; netlist : Netlist.t }

let alu_target ?(width = 16) () = { kind = Alu_module { width }; netlist = Alu.netlist ~width () }

let fpu_target ?(fmt = Fpu_format.binary16) () =
  { kind = Fpu_module { fmt }; netlist = Fpu.netlist ~fmt () }

let target_of_netlist kind netlist = { kind; netlist }

type alu_step = { a_op : Alu.op; a_lhs : int; a_rhs : int; a_expected : int }

type fpu_step = {
  f_op : Fpu_format.op;
  f_lhs : int;
  f_rhs : int;
  f_expected : int;
  f_flags : Fpu_format.flags;
}

type body = Alu_test of alu_step list | Fpu_test of fpu_step list

type test_case = {
  tc_id : string;
  tc_spec : Fault.spec;
  tc_body : body;
  tc_may_stall : bool;
  tc_checks_flags : bool;
}

let steps tc = match tc.tc_body with Alu_test l -> List.length l | Fpu_test l -> List.length l

type variant_outcome =
  | Constructed of test_case
  | Proved_unreachable
  | Formal_timeout
  | Conversion_failed

type classification = S | UR | FF | FC

let classification_name = function S -> "S" | UR -> "UR" | FF -> "FF" | FC -> "FC"

type pair_result = {
  start_dff : string;
  end_dff : string;
  violation : Fault.violation_kind;
  variants : (Fault.spec * variant_outcome) list;
  classification : classification;
  cases : test_case list;
}

type config = { mitigation : bool; max_conflicts : int; max_cycles : int option }

let default_config = { mitigation = false; max_conflicts = 200_000; max_cycles = None }

let assumes_for target nl =
  match target.kind with
  | Alu_module _ -> [ Alu.valid_op_assume nl ]
  | Fpu_module _ -> [ Formal.Input (Fpu.in_valid_port, 0) ]

(* Which output-port bits diverge between original and shadow during the
   trace, and at which cycles: a replay on a scalar simulator, for traces
   that carry no watched values (the fuzzer's). *)
let diff_bits (inst : Fault.instrumented) trace =
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

(* The same divergences, in the same order, read from the values the
   solver's model gave the watched nets of a trace found with
   [~watch:inst.watch].  [watch] names each net of [shadow_of] and then its
   shadow copy, so [observed] holds them in pairs. *)
let observed_divergences (inst : Fault.instrumented) (trace : Formal.Trace.t) =
  let nl = inst.Fault.netlist in
  let rec pairs shadow_of observed =
    match (shadow_of, observed) with
    | (orig, _) :: shadow_of, (_, o) :: (_, s) :: observed ->
      (orig, o, s) :: pairs shadow_of observed
    | _ -> []
  in
  let pairs = pairs inst.Fault.shadow_of trace.observed in
  let diffs = ref [] in
  for cycle = 0 to trace.cycles - 1 do
    List.iter
      (fun (orig, o, s) ->
        if o.(cycle) <> s.(cycle) then
          List.iter
            (fun (port, bit) -> diffs := (port, bit, cycle) :: !diffs)
            (Netlist.output_readers nl orig))
      pairs
  done;
  List.rev !diffs

(* ---- per-module instruction-construction lookup tables ---- *)

let alu_steps_of_trace ~width trace =
  let n = trace.Formal.Trace.cycles in
  List.init n (fun c ->
      let opv = Formal.Trace.input_at trace Alu.op_port c in
      let a = Formal.Trace.input_at trace Alu.a_port c in
      let b = Formal.Trace.input_at trace Alu.b_port c in
      let op =
        match Alu.op_of_code (Bitvec.to_int opv) with
        | Some op -> op
        | None -> Alu.Add  (* unreachable under the valid-op assume *)
      in
      {
        a_op = op;
        a_lhs = Bitvec.to_int a;
        a_rhs = Bitvec.to_int b;
        a_expected = Bitvec.to_int (Alu.golden ~width op a b);
      })

let fpu_steps_of_trace ~fmt trace =
  let n = trace.Formal.Trace.cycles in
  List.init n (fun c ->
      let opv = Formal.Trace.input_at trace Fpu.op_port c in
      let a = Formal.Trace.input_at trace Fpu.a_port c in
      let b = Formal.Trace.input_at trace Fpu.b_port c in
      let op = Option.get (Fpu_format.op_of_code (Bitvec.to_int opv)) in
      let r, fl = Softfloat.apply fmt op a b in
      {
        f_op = op;
        f_lhs = Bitvec.to_int a;
        f_rhs = Bitvec.to_int b;
        f_expected = Bitvec.to_int r;
        f_flags = fl;
      })

let sticky_flags steps =
  List.fold_left (fun acc s -> Fpu_format.flags_union acc s.f_flags) Fpu_format.no_flags steps

let convert target spec diffs trace =
  if diffs = [] then
    (* the formal trace did not replay: should not happen (Trace.covers is
       part of the engine's contract), treat as conversion failure *)
    Conversion_failed
  else begin
    let tc_id = Fault.describe spec in
    match target.kind with
    | Alu_module { width } ->
      Constructed
        {
          tc_id;
          tc_spec = spec;
          tc_body = Alu_test (alu_steps_of_trace ~width trace);
          tc_may_stall = false;
          tc_checks_flags = false;
        }
    | Fpu_module { fmt } ->
      let steps = fpu_steps_of_trace ~fmt trace in
      let ports = List.sort_uniq compare (List.map (fun (p, _, _) -> p) diffs) in
      let only_flags = List.for_all (fun p -> String.equal p Fpu.flags_port) ports in
      let has_valid = List.mem Fpu.valid_port ports in
      let has_flags = List.mem Fpu.flags_port ports in
      if only_flags then begin
        (* sticky-contamination check: a corrupted flag bit that the test's
           own golden operations raise anyway cannot be witnessed *)
        let sticky = Fpu_format.flags_to_int (sticky_flags steps) in
        let contaminated =
          List.for_all
            (fun (p, bit, _) -> (not (String.equal p Fpu.flags_port)) || sticky land (1 lsl bit) <> 0)
            diffs
        in
        if contaminated then Conversion_failed
        else
          Constructed
            {
              tc_id;
              tc_spec = spec;
              tc_body = Fpu_test steps;
              tc_may_stall = false;
              tc_checks_flags = true;
            }
      end
      else
        Constructed
          {
            tc_id;
            tc_spec = spec;
            tc_body = Fpu_test steps;
            tc_may_stall = has_valid;
            tc_checks_flags = has_flags;
          }
  end

let variants_of_config config violation start_dff end_dff =
  Fault.variants ~mitigation:config.mitigation ~start_dff ~end_dff violation

let classify variants =
  let outcomes = List.map snd variants in
  if List.exists (function Constructed _ -> true | _ -> false) outcomes then S
  else if List.for_all (function Proved_unreachable -> true | _ -> false) outcomes then UR
  else if List.exists (function Formal_timeout -> true | _ -> false) outcomes then FF
  else FC

type variant_stats = {
  vs_spec : Fault.spec;
  vs_solver : Sat.stats;
  vs_calls : int;
  vs_deepest_bound : int;
}

type pair_stats = { p_variants : variant_stats list; p_conflicts : int }

let tele_pairs = Telemetry.Counter.make "lift.pairs"
let tele_cases = Telemetry.Counter.make "lift.cases"

let variant_outcome_tag = function
  | Constructed _ -> "constructed"
  | Proved_unreachable -> "unreachable"
  | Formal_timeout -> "timeout"
  | Conversion_failed -> "conversion_failed"

let lift_pair_stats ?(config = default_config) ?budget ?(resume = []) target ~start_dff ~end_dff
    ~violation =
  let tele = Telemetry.enabled () in
  if tele then Telemetry.begin_span ~cat:"lift" "lift.pair";
  let variants = variants_of_config config violation start_dff end_dff in
  (* [budget] caps the whole pair: each variant draws from what the previous
     ones left over, realizing the supervisor's per-pair slice.  Without it,
     every variant gets the classic per-variant [config.max_conflicts]. *)
  let remaining = ref (match budget with Some b -> max 0 b | None -> config.max_conflicts) in
  let stats_acc = ref [] in
  let results =
    List.map
      (fun spec ->
        if tele then Telemetry.begin_span ~cat:"lift" "lift.variant";
        let start_cycle =
          match List.assoc_opt spec resume with Some bound -> bound + 1 | None -> 1
        in
        let outcome, vstats =
          match Fault.instrument_shadow target.netlist spec with
          | exception Invalid_argument _ ->
            (* the fault cannot influence any output: provably harmless *)
            ( Proved_unreachable,
              {
                vs_spec = spec;
                vs_solver = Sat.zero_stats;
                vs_calls = 0;
                vs_deepest_bound = start_cycle - 1;
              } )
          | inst ->
            let assumes = assumes_for target inst.Fault.netlist in
            let max_conflicts =
              match budget with Some _ -> !remaining | None -> config.max_conflicts
            in
            let result, rs =
              Formal.check_cover_stats ~assumes ~watch:inst.Fault.watch
                ?max_cycles:config.max_cycles ~max_conflicts ~start_cycle inst.Fault.netlist
                ~cover:inst.Fault.cover
            in
            if budget <> None then
              remaining := max 0 (!remaining - rs.Formal.rs_solver.Sat.conflicts);
            let vstats =
              {
                vs_spec = spec;
                vs_solver = rs.Formal.rs_solver;
                vs_calls = rs.Formal.rs_calls;
                vs_deepest_bound = rs.Formal.rs_deepest_unsat;
              }
            in
            let outcome =
              match result with
              | Formal.Trace_found trace ->
                let convert () = convert target spec (observed_divergences inst trace) trace in
                if tele then Telemetry.with_span ~cat:"lift" "lift.convert" convert else convert ()
              | Formal.Unreachable -> Proved_unreachable
              | Formal.Bounded_unreachable _ ->
                (* feedback-free modules always get a completeness bound; a
                   bounded result therefore only arises with an explicit
                   max_cycles override, where it is not a proof *)
                Formal_timeout
              | Formal.Timeout _ -> Formal_timeout
            in
            (outcome, vstats)
        in
        stats_acc := vstats :: !stats_acc;
        if tele then
          Telemetry.end_span
            ~args:
              [
                ("spec", Telemetry.Str (Fault.describe spec));
                ("outcome", Telemetry.Str (variant_outcome_tag outcome));
                ("conflicts", Telemetry.Int vstats.vs_solver.Sat.conflicts);
                ("calls", Telemetry.Int vstats.vs_calls);
              ]
            ();
        (spec, outcome))
      variants
  in
  let cases = List.filter_map (function _, Constructed tc -> Some tc | _ -> None) results in
  let p_variants = List.rev !stats_acc in
  let p_conflicts =
    List.fold_left (fun acc v -> acc + v.vs_solver.Sat.conflicts) 0 p_variants
  in
  let classification = classify results in
  Telemetry.Counter.incr tele_pairs;
  Telemetry.Counter.add tele_cases (List.length cases);
  if tele then
    Telemetry.end_span
      ~args:
        [
          ("start_dff", Telemetry.Str start_dff);
          ("end_dff", Telemetry.Str end_dff);
          ("classification", Telemetry.Str (classification_name classification));
          ("conflicts", Telemetry.Int p_conflicts);
          ("cases", Telemetry.Int (List.length cases));
        ]
      ();
  ( { start_dff; end_dff; violation; variants = results; classification; cases },
    { p_variants; p_conflicts } )

let lift_pair ?config target ~start_dff ~end_dff ~violation =
  fst (lift_pair_stats ?config target ~start_dff ~end_dff ~violation)

(* ---- fuzzing-based trace generation (the paper's Section 6.3
   alternative): random valid stimulus on the shadow-instrumented netlist,
   with greedy trace shrinking ---- *)

type fuzz_config = { budget_cycles : int; seed : int; fuzz_mitigation : bool }

let default_fuzz_config = { budget_cycles = 2000; seed = 0xF022; fuzz_mitigation = false }

let random_stimulus target rng nl =
  List.filter_map
    (fun (p : Netlist.port) ->
      let width = Array.length p.Netlist.port_nets in
      let v =
        match target.kind with
        | Alu_module _ when String.equal p.Netlist.port_name Alu.op_port ->
          Alu.op_code (List.nth Alu.all_ops (Random.State.int rng (List.length Alu.all_ops)))
        | Fpu_module _ when String.equal p.Netlist.port_name Fpu.in_valid_port -> 1
        | _ ->
          if width <= 30 then Random.State.int rng (1 lsl width)
          else
            (Random.State.bits rng lor (Random.State.bits rng lsl 30))
            land ((1 lsl width) - 1)
      in
      ignore nl;
      Some (p.Netlist.port_name, Bitvec.create ~width v))
    (Netlist.inputs nl)

let trace_of_history nl history =
  (* history: newest first, each a (port, value) list *)
  let cycles = List.length history in
  let chron = List.rev history in
  let ports = Netlist.inputs nl in
  {
    Formal.Trace.netlist_name = Netlist.name nl;
    cycles;
    inputs =
      List.map
        (fun (p : Netlist.port) ->
          ( p.Netlist.port_name,
            Array.of_list (List.map (fun cyc -> List.assoc p.Netlist.port_name cyc) chron) ))
        ports;
    observed = [];
  }

let drop_cycle trace k =
  {
    trace with
    Formal.Trace.cycles = trace.Formal.Trace.cycles - 1;
    inputs =
      List.map
        (fun (port, arr) ->
          ( port,
            Array.of_list
              (List.filteri (fun i _ -> i <> k) (Array.to_list arr)) ))
        trace.Formal.Trace.inputs;
  }

let shrink_trace nl cover trace =
  (* greedy one-pass delta reduction: try removing each cycle, earliest
     first, keeping the trace covering *)
  let rec pass t k =
    if t.Formal.Trace.cycles <= 1 || k >= t.Formal.Trace.cycles then t
    else begin
      let candidate = drop_cycle t k in
      if Formal.Trace.covers nl candidate cover then pass candidate k else pass t (k + 1)
    end
  in
  pass trace 0

let fuzz_variant target spec fuzz =
  match Fault.instrument_shadow target.netlist spec with
  | exception Invalid_argument _ -> Proved_unreachable
  | inst ->
    let nl = inst.Fault.netlist in
    let rng = Random.State.make [| fuzz.seed |] in
    let sim = Sim.create nl in
    let rec hunt cycle history =
      if cycle >= fuzz.budget_cycles then Formal_timeout
      else begin
        let stim = random_stimulus target rng nl in
        List.iter (fun (port, v) -> Sim.set_input sim port v) stim;
        Sim.settle sim;
        let history = stim :: history in
        if Formal.eval_expr sim inst.Fault.cover then begin
          let trace = trace_of_history nl history in
          let trace = shrink_trace nl inst.Fault.cover trace in
          convert target spec (diff_bits inst trace) trace
        end
        else begin
          Sim.step sim;
          hunt (cycle + 1) history
        end
      end
    in
    hunt 0 []

let fuzz_pair ?(fuzz = default_fuzz_config) target ~start_dff ~end_dff ~violation =
  let config =
    { default_config with mitigation = fuzz.fuzz_mitigation }
  in
  let variants = variants_of_config config violation start_dff end_dff in
  let results = List.map (fun spec -> (spec, fuzz_variant target spec fuzz)) variants in
  let cases = List.filter_map (function _, Constructed tc -> Some tc | _ -> None) results in
  {
    start_dff;
    end_dff;
    violation;
    variants = results;
    classification = classify results;
    cases;
  }

let decode_pair nl (start, Sta.At_dff end_id, check, _slack) =
  match start with
  | Sta.From_input _ -> None
  | Sta.From_dff start_id ->
    let name id = (Netlist.cell nl id).Netlist.name in
    let violation =
      match check with Sta.Setup -> Fault.Setup_violation | Sta.Hold -> Fault.Hold_violation
    in
    Some (name start_id, name end_id, violation)

let register_pairs nl pairs =
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun ((start, end_, check, _) as pair) ->
      if Hashtbl.mem seen (start, end_, check) then None
      else begin
        Hashtbl.replace seen (start, end_, check) ();
        decode_pair nl pair
      end)
    pairs

let lift_violating_pairs ?config target pairs =
  List.map
    (fun (start_dff, end_dff, violation) -> lift_pair ?config target ~start_dff ~end_dff ~violation)
    (register_pairs target.netlist pairs)

(* ---- rendering ---- *)

let case_instrs ~fail_label tc =
  match tc.tc_body with
  | Alu_test steps ->
    let n = List.length steps in
    if n > 20 then invalid_arg "Lift.case_instrs: test case too long";
    let ops =
      List.concat (List.mapi
        (fun i s ->
          [
            Isa.Li (5, s.a_lhs);
            Isa.Li (6, s.a_rhs);
            Isa.Alu (s.a_op, 8 + i, 5, 6);
          ])
        steps)
    in
    let checks =
      List.concat (List.mapi
        (fun i s -> [ Isa.Li (7, s.a_expected); Isa.Bne (8 + i, 7, fail_label) ])
        steps)
    in
    ops @ checks
  | Fpu_test steps ->
    let n = List.length steps in
    if n > 20 then invalid_arg "Lift.case_instrs: test case too long";
    let clear = if tc.tc_checks_flags then [ Isa.Csr_fflags 0 ] else [] in
    let ops =
      List.concat (List.mapi
        (fun i s ->
          [ Isa.Li (5, s.f_lhs); Isa.Li (6, s.f_rhs); Isa.Fmv_wx (0, 5); Isa.Fmv_wx (1, 6) ]
          @
          match s.f_op with
          | Fpu_format.Feq | Fpu_format.Flt | Fpu_format.Fle ->
            [ Isa.Fcmp (s.f_op, 8 + i, 0, 1) ]
          | Fpu_format.Fadd | Fpu_format.Fsub | Fpu_format.Fmul | Fpu_format.Fmin
          | Fpu_format.Fmax ->
            [ Isa.Fop (s.f_op, 2 + i, 0, 1) ])
        steps)
    in
    let checks =
      List.concat (List.mapi
        (fun i s ->
          match s.f_op with
          | Fpu_format.Feq | Fpu_format.Flt | Fpu_format.Fle ->
            [ Isa.Li (7, s.f_expected land 1); Isa.Bne (8 + i, 7, fail_label) ]
          | Fpu_format.Fadd | Fpu_format.Fsub | Fpu_format.Fmul | Fpu_format.Fmin
          | Fpu_format.Fmax ->
            [
              Isa.Fmv_xw (5, 2 + i);
              Isa.Li (7, s.f_expected);
              Isa.Bne (5, 7, fail_label);
            ])
        steps)
    in
    let flag_check =
      if tc.tc_checks_flags then begin
        match tc.tc_body with
        | Fpu_test steps ->
          [
            Isa.Csr_fflags 9;
            Isa.Li (10, Fpu_format.flags_to_int (sticky_flags steps));
            Isa.Bne (9, 10, fail_label);
          ]
        | Alu_test _ -> []
      end
      else []
    in
    clear @ ops @ checks @ flag_check

type suite = { suite_target : module_kind; suite_cases : test_case list }

let suite_of_results suite_target results =
  { suite_target; suite_cases = List.concat_map (fun r -> r.cases) results }

let reorder order cases =
  match order with
  | None -> cases
  | Some order ->
    let arr = Array.of_list cases in
    if List.length order <> Array.length arr then
      invalid_arg "Lift: order length does not match the suite";
    List.map (fun i -> arr.(i)) order

let suite_instrs ?order ?(label_prefix = "") ~fail_label suite =
  ignore label_prefix;
  List.concat_map (case_instrs ~fail_label) (reorder order suite.suite_cases)

let suite_program ?order suite =
  let fail_label = "__vega_fail" in
  Isa.assemble
    (suite_instrs ?order ~fail_label suite
    @ [ Isa.Ecall Isa.exit_ok; Isa.Label fail_label; Isa.Ecall Isa.exit_sdc ])

(* ---- Word-parallel netlist-level suite evaluation --------------------

   Detection-rate evaluation without the instruction-set machine: every
   test case becomes one Sim64 lane, its operation stream is replayed
   back-to-back into the (failing) unit netlist, and each retired result
   is compared against the case's golden expectations — up to
   [Sim64.lanes] cases per sweep.  The machine-based run ([suite_program]
   through [Machine]) stays the reference semantics: it additionally sees
   pipeline bubbles between units and branch-comparison corruption, so
   the paper-facing tables keep using it, while this path makes
   large-scale detection sweeps (random baselines, fuzz triage) cheap.
   It runs on Sim64, not Simc: each sweep builds a simulator for a fresh
   faulty netlist and runs it a few cycles, so compile cost dominates. *)

let lane_word nlanes get_bit =
  let w = ref 0 in
  for l = 0 to nlanes - 1 do
    if get_bit l then w := !w lor (1 lsl l)
  done;
  !w

let port_lane_words width nlanes get_value =
  Array.init width (fun bit -> lane_word nlanes (fun l -> (get_value l lsr bit) land 1 = 1))

let has_fault_port nl =
  List.exists (fun (p : Netlist.port) -> String.equal p.port_name Fault.random_port)
    (Netlist.inputs nl)

let port_width ~input nl name =
  let p = if input then Netlist.find_input nl name else Netlist.find_output nl name in
  Array.length p.Netlist.port_nets

(* Streaming protocol shared with [Machine]: inputs of operation [s] are
   driven before edge [s]; the input rank captures them at edge [s]; the
   result rank captures at edge [s + 1]; so operation [s]'s result is read
   after edge [s + 1] (the unit's latency of 2). *)
let alu_detect_batch rng nl (cases : alu_step array array) =
  let nlanes = Array.length cases in
  let s64 = Sim64.create nl in
  let op_w = port_width ~input:true nl Alu.op_port in
  let data_w = port_width ~input:true nl Alu.a_port in
  let r_nets = (Netlist.find_output nl Alu.r_port).Netlist.port_nets in
  let drive_fault = has_fault_port nl in
  let len l = Array.length cases.(l) in
  let maxlen = Array.fold_left (fun a c -> max a (Array.length c)) 0 cases in
  (* short lanes hold their last operation; their results are masked out *)
  let step_val l s f = if len l = 0 then 0 else f cases.(l).(min s (len l - 1)) in
  let detected = ref 0 in
  for t = 0 to maxlen do
    if t < maxlen then begin
      Sim64.set_input_words s64 Alu.op_port
        (port_lane_words op_w nlanes (fun l -> step_val l t (fun st -> Alu.op_code st.a_op)));
      Sim64.set_input_words s64 Alu.a_port
        (port_lane_words data_w nlanes (fun l -> step_val l t (fun st -> st.a_lhs)));
      Sim64.set_input_words s64 Alu.b_port
        (port_lane_words data_w nlanes (fun l -> step_val l t (fun st -> st.a_rhs)))
    end;
    if drive_fault then Sim64.set_input_words s64 Fault.random_port [| Sim64.random_word rng |];
    Sim64.step s64;
    let s = t - 1 in
    if s >= 0 then begin
      let retire = lane_word nlanes (fun l -> s < len l) in
      if retire <> 0 then begin
        let mism = ref 0 in
        Array.iteri
          (fun bit n ->
            let expected =
              lane_word nlanes (fun l ->
                  s < len l && step_val l s (fun st -> (st.a_expected lsr bit) land 1) = 1)
            in
            mism := !mism lor (Sim64.net_word s64 n lxor expected))
          r_nets;
        detected := !detected lor (!mism land retire)
      end
    end
  done;
  !detected

let fpu_detect_batch rng nl (cases : (fpu_step array * bool) array) =
  let nlanes = Array.length cases in
  let s64 = Sim64.create nl in
  let op_w = port_width ~input:true nl Fpu.op_port in
  let data_w = port_width ~input:true nl Fpu.a_port in
  let r_nets = (Netlist.find_output nl Fpu.r_port).Netlist.port_nets in
  let fl_nets = (Netlist.find_output nl Fpu.flags_port).Netlist.port_nets in
  let v_net = (Netlist.find_output nl Fpu.valid_port).Netlist.port_nets.(0) in
  let drive_fault = has_fault_port nl in
  let steps l = fst cases.(l) in
  let len l = Array.length (steps l) in
  let maxlen = Array.fold_left (fun a (c, _) -> max a (Array.length c)) 0 cases in
  let step_val l s f = if len l = 0 then 0 else f (steps l).(min s (len l - 1)) in
  let detected = ref 0 in
  let sticky = Array.map (fun _ -> 0) fl_nets in
  for t = 0 to maxlen do
    if t < maxlen then begin
      Sim64.set_input_words s64 Fpu.op_port
        (port_lane_words op_w nlanes (fun l ->
             step_val l t (fun st -> Fpu_format.op_code st.f_op)));
      Sim64.set_input_words s64 Fpu.a_port
        (port_lane_words data_w nlanes (fun l -> step_val l t (fun st -> st.f_lhs)));
      Sim64.set_input_words s64 Fpu.b_port
        (port_lane_words data_w nlanes (fun l -> step_val l t (fun st -> st.f_rhs)));
      Sim64.set_input_words s64 Fpu.in_valid_port [| lane_word nlanes (fun l -> t < len l) |]
    end
    else Sim64.set_input_words s64 Fpu.in_valid_port [| 0 |];
    if drive_fault then Sim64.set_input_words s64 Fault.random_port [| Sim64.random_word rng |];
    Sim64.step s64;
    let s = t - 1 in
    if s >= 0 then begin
      let retire = lane_word nlanes (fun l -> s < len l) in
      if retire <> 0 then begin
        let valid = Sim64.net_word s64 v_net in
        (* a missing handshake token is a stall the machine's watchdog
           would catch *)
        detected := !detected lor (lnot valid land retire);
        let ok = valid land retire in
        let mism = ref 0 in
        Array.iteri
          (fun bit n ->
            let expected =
              lane_word nlanes (fun l ->
                  s < len l && step_val l s (fun st -> (st.f_expected lsr bit) land 1) = 1)
            in
            mism := !mism lor (Sim64.net_word s64 n lxor expected))
          r_nets;
        detected := !detected lor (!mism land ok);
        Array.iteri
          (fun bit n -> sticky.(bit) <- sticky.(bit) lor (Sim64.net_word s64 n land retire))
          fl_nets
      end
    end
  done;
  (* sticky-flag comparison for the cases that check the fflags CSR *)
  let checks = lane_word nlanes (fun l -> snd cases.(l)) in
  if checks <> 0 then begin
    let golden l = Fpu_format.flags_to_int (sticky_flags (Array.to_list (steps l))) in
    let fl_mism = ref 0 in
    Array.iteri
      (fun bit _ ->
        let expected = lane_word nlanes (fun l -> (golden l lsr bit) land 1 = 1) in
        fl_mism := !fl_mism lor (sticky.(bit) lxor expected))
      fl_nets;
    detected := !detected lor (!fl_mism land checks)
  end;
  !detected

let detected_cases ?(seed = 0xde7ec7) suite nl =
  let rng = Random.State.make [| seed |] in
  let cases = Array.of_list suite.suite_cases in
  let ncases = Array.length cases in
  let out = Array.make (max ncases 1) false in
  let batch lo hi =
    let nlanes = hi - lo in
    let word =
      match suite.suite_target with
      | Alu_module _ ->
        alu_detect_batch rng nl
          (Array.init nlanes (fun i ->
               match cases.(lo + i).tc_body with
               | Alu_test l -> Array.of_list l
               | Fpu_test _ -> invalid_arg "Lift.detected_cases: FPU case in an ALU suite"))
      | Fpu_module _ ->
        fpu_detect_batch rng nl
          (Array.init nlanes (fun i ->
               match cases.(lo + i).tc_body with
               | Fpu_test l -> (Array.of_list l, cases.(lo + i).tc_checks_flags)
               | Alu_test _ -> invalid_arg "Lift.detected_cases: ALU case in an FPU suite"))
    in
    for i = 0 to nlanes - 1 do
      out.(lo + i) <- (word lsr i) land 1 = 1
    done
  in
  let rec go lo =
    if lo < ncases then begin
      batch lo (min ncases (lo + Sim64.lanes));
      go (lo + Sim64.lanes)
    end
  in
  go 0;
  Array.sub out 0 ncases

let detects ?seed suite nl = Array.exists Fun.id (detected_cases ?seed suite nl)

let detection_rate ?seed suite nls =
  match nls with
  | [] -> invalid_arg "Lift.detection_rate: no netlists to evaluate"
  | _ ->
    let det = List.length (List.filter (fun nl -> detects ?seed suite nl) nls) in
    float_of_int det /. float_of_int (List.length nls)
