type phase1_config = {
  years : float;
  clock_margin : float;
  derate : float;
  clock_tree : Clock_tree.t;
  sp_fallback : float;
  max_violating_paths : int;
}

let default_phase1 =
  {
    years = 10.0;
    clock_margin = 1.015;
    derate = 1.0;
    clock_tree = Clock_tree.two_domain_gated ~sp_gated:0.05 ();
    sp_fallback = 0.5;
    max_violating_paths = 10_000;
  }

type analysis = {
  target : Lift.target;
  clock_period_ps : float;
  fresh_report : Sta.report;
  phase1 : phase1_config;
  aged_timing : Sta.timing_source;
  violating_pairs : (Sta.startpoint * Sta.endpoint * Sta.check * float) list;
  sp_of_net : Netlist.net -> float;
  cell_degradation : (string * float) list;
  sp_samples : int;
  static_verdicts : Spbound.pair_verdict list option;
}

let tele_spbound_safe = Telemetry.Counter.make "vega.spbound.safe"
let tele_spbound_critical = Telemetry.Counter.make "vega.spbound.critical"
let tele_spbound_unknown = Telemetry.Counter.make "vega.spbound.unknown"

let unit_config (target : Lift.target) =
  match target.Lift.kind with
  | Lift.Alu_module { width } ->
    let fmt = if width >= 16 then Fpu_format.binary16 else Fpu_format.tiny in
    { Machine.default_config with Machine.width; fmt }
  | Lift.Fpu_module { fmt } ->
    { Machine.default_config with Machine.width = max 16 (Fpu_format.width fmt); fmt }

let machine_for ?(profile_units = false) (target : Lift.target) =
  let config = unit_config target in
  match target.Lift.kind with
  | Lift.Alu_module _ ->
    Machine.create ~config ~profile_units
      ~alu:(Machine.Alu_netlist target.Lift.netlist) ~fpu:Machine.Fpu_functional ()
  | Lift.Fpu_module _ ->
    Machine.create ~config ~profile_units ~alu:Machine.Alu_functional
      ~fpu:(Machine.Fpu_netlist target.Lift.netlist) ()

(* A mixed arithmetic sweep used when no real workload is supplied: walks
   integer and floating-point operations over structured operand patterns
   approximating embench's operation mix. *)
let run_minver_workload m =
  let width = (Machine.config m).Machine.width in
  let fmt = (Machine.config m).Machine.fmt in
  let ops = [ Alu.Add; Alu.Sub; Alu.And_op; Alu.Xor_op; Alu.Sll; Alu.Srl; Alu.Slt ] in
  let prog =
    Isa.assemble
      (List.concat_map
         (fun k ->
           let a = (k * 37) land ((1 lsl width) - 1) in
           let b = (k * k) land ((1 lsl width) - 1) in
           let fa = Bitvec.to_int (Fpu_format.of_float fmt (float_of_int (k mod 9) /. 4.0)) in
           let fb = Bitvec.to_int (Fpu_format.of_float fmt (1.0 +. float_of_int (k mod 5))) in
           [
             Isa.Li (1, a);
             Isa.Li (2, b);
             Isa.Alu (List.nth ops (k mod List.length ops), 3, 1, 2);
             Isa.Li (4, fa);
             Isa.Li (5, fb);
             Isa.Fmv_wx (1, 4);
             Isa.Fmv_wx (2, 5);
             Isa.Fop ((if k mod 3 = 0 then Fpu_format.Fmul else Fpu_format.Fadd), 3, 1, 2);
           ])
         (List.init 200 (fun k -> k))
      @ [ Isa.Ecall Isa.exit_ok ])
  in
  Machine.reset m;
  ignore (Machine.run m prog)

(* ---- SP replay of an operation stream (word-parallel) ----------------

   Phase one profiles on the machine itself (see [aging_analysis]).  The
   adversarial stress search instead scores thousands of candidate
   operation streams, so it replays a stream straight into the unit
   netlist on Simc: the stream is split across [Simc.lanes] lanes and all
   lanes run at once, each preceded by [latency] unsampled warm-up steps
   so its pipeline registers hold exactly what a sequential replay would
   hold entering its chunk.  Ones-counts are exact w.r.t. a sequential
   back-to-back replay of the same stream; inter-unit bubbles and drains
   are not modeled (it is the SP of the unit under back-to-back load). *)

let idle_assignment (target : Lift.target) =
  match target.Lift.kind with
  | Lift.Alu_module { width } ->
    [ (Alu.op_port, Bitvec.zero 4); (Alu.a_port, Bitvec.zero width); (Alu.b_port, Bitvec.zero width) ]
  | Lift.Fpu_module { fmt } ->
    let w = Fpu_format.width fmt in
    [
      (Fpu.op_port, Bitvec.zero 3);
      (Fpu.a_port, Bitvec.zero w);
      (Fpu.b_port, Bitvec.zero w);
      (Fpu.in_valid_port, Bitvec.zero 1);
    ]

(* run [workload] functionally and [emit] each operation entering the
   target unit, as its port values in [idle_assignment] order *)
let record_unit_ops (target : Lift.target) ~workload emit =
  let on_alu_op, on_fpu_op =
    match target.Lift.kind with
    | Lift.Alu_module _ ->
      ((fun op a b -> emit [| Bitvec.create ~width:4 (Alu.op_code op); a; b |]), fun _ _ _ -> ())
    | Lift.Fpu_module _ ->
      ( (fun _ _ _ -> ()),
        fun op a b ->
          emit
            [| Bitvec.create ~width:3 (Fpu_format.op_code op); a; b; Bitvec.create ~width:1 1 |] )
  in
  let m =
    Machine.create ~config:(unit_config target) ~on_alu_op ~on_fpu_op ~alu:Machine.Alu_functional
      ~fpu:Machine.Fpu_functional ()
  in
  workload m

let recorded_unit_ops (target : Lift.target) ~workload =
  let ports = idle_assignment target in
  let ops = ref [] in
  record_unit_ops target ~workload (fun vs ->
      ops := List.mapi (fun p (pname, _) -> (pname, vs.(p))) ports :: !ops);
  Array.of_list (List.rev !ops)

(* An operation stream as the ints the replay drives, in blocks of
   [block_ops] operations: operation [i]'s value on port [p] is at
   [(i mod block_ops) * nports + p] of block [i / block_ops].  A kernel
   with hundreds of thousands of operations never needs one large array,
   nor a copy of one while it grows. *)
let block_bits = 12
let block_ops = 1 lsl block_bits

type stream = {
  ports : (string * Bitvec.t) array;  (** name and idle value, in [idle_assignment] order *)
  mutable n : int;
  mutable full : int array list;  (** filled blocks, newest first *)
  mutable cur : int array;
}

let new_stream target =
  let ports = Array.of_list (idle_assignment target) in
  { ports; n = 0; full = []; cur = Array.make (block_ops * Array.length ports) 0 }

(* append one operation; bits at or above a port's width are not driven *)
let push st (vs : Bitvec.t array) =
  let np = Array.length st.ports in
  let k = st.n land (block_ops - 1) in
  if k = 0 && st.n > 0 then begin
    st.full <- st.cur :: st.full;
    st.cur <- Array.make (block_ops * np) 0
  end;
  st.n <- st.n + 1;
  Array.iteri
    (fun p (_, zero) ->
      st.cur.((k * np) + p) <- Bitvec.to_int vs.(p) land ((1 lsl Bitvec.width zero) - 1))
    st.ports

let replay_stream (target : Lift.target) st =
  let n = st.n in
  if n = 0 then None
  else begin
    let latency =
      match target.Lift.kind with
      | Lift.Alu_module _ -> Alu.latency
      | Lift.Fpu_module _ -> Fpu.latency
    in
    let ports = st.ports and np = Array.length st.ports in
    let blocks = Array.of_list (List.rev (st.cur :: st.full)) in
    let sim = Simc.create ~profile:true target.Lift.netlist in
    let nlanes = min Simc.lanes n in
    let chunk = (n + nlanes - 1) / nlanes in
    (* lane [l] replays operations [l*chunk .. min ((l+1)*chunk, n) - 1],
       and drives the idle (all-zero) values outside them *)
    let value lane s p =
      let i = (lane * chunk) + s in
      if lane < nlanes && i >= 0 && i < n then
        blocks.(i lsr block_bits).(((i land (block_ops - 1)) * np) + p)
      else 0
    in
    let words = Array.map (fun (_, zero) -> Array.make (Bitvec.width zero) 0) ports in
    let drive s =
      Array.iteri
        (fun p (pname, _) ->
          let w = words.(p) in
          Array.fill w 0 (Array.length w) 0;
          for lane = 0 to nlanes - 1 do
            let v = ref (value lane s p) and bit = ref 0 in
            while !v <> 0 do
              if !v land 1 = 1 then w.(!bit) <- w.(!bit) lor (1 lsl lane);
              v := !v lsr 1;
              incr bit
            done
          done;
          Simc.set_input_words sim pname w)
        ports
    in
    for s = -latency to -1 do
      drive s;
      Simc.step ~sample:false sim
    done;
    for s = 0 to chunk - 1 do
      let m = ref 0 in
      for lane = 0 to nlanes - 1 do
        if (lane * chunk) + s < n then m := !m lor (1 lsl lane)
      done;
      Simc.set_active_mask sim !m;
      drive s;
      Simc.step sim
    done;
    Some (Simc.samples sim, Simc.sp sim)
  end

let replay_sp (target : Lift.target) ops =
  let st = new_stream target in
  Array.iter
    (fun a ->
      push st
        (Array.map (fun (pname, zero) -> try List.assoc pname a with Not_found -> zero) st.ports))
    ops;
  replay_stream target st

let profile_sp (target : Lift.target) ~workload =
  let st = new_stream target in
  record_unit_ops target ~workload (push st);
  replay_stream target st

(* ---- the phase-1 hand-off: target clock and static triage ---------- *)

type clock = { fresh_timing : Sta.timing_source; critical_path_ps : float; period_ps : float }

(* target clock: fresh critical path plus the signoff margin *)
let phase1_clock config nl =
  let fresh_timing =
    Sta.fresh_timing ~derate:config.derate ~clock_tree:config.clock_tree Cell.Library.c28
  in
  let critical_path_ps = Sta.critical_path_ps ~timing:fresh_timing nl in
  { fresh_timing; critical_path_ps; period_ps = critical_path_ps *. config.clock_margin }

let static_triage ?aglib config ~clock_period_ps nl =
  let aglib =
    match aglib with Some l -> l | None -> Aging.Timing_library.build Cell.Library.c28
  in
  let sb = Spbound.analyze nl in
  ( sb,
    Spbound.classify ~derate:config.derate ~clock_tree:config.clock_tree ~aglib
      ~years:config.years ~clock_period_ps sb )

let aging_analysis ?(config = default_phase1) ?(static_prune = false) (target : Lift.target)
    ~workload =
  Telemetry.with_span ~cat:"vega" "vega.phase1" @@ fun () ->
  let nl = target.Lift.netlist in
  (* Static gate: the whole phase-1/2 machinery (simulation, STA, CNF
     encoding) assumes a structurally sound netlist, so reject a design the
     linter finds error-class defects in before spending any budget on it. *)
  Telemetry.with_span ~cat:"vega" "vega.lint" (fun () ->
      match Check.errors (Check.lint_netlist nl) with
      | [] -> ()
      | diags ->
        invalid_arg
          (Printf.sprintf "Vega.aging_analysis: netlist %s fails lint:\n%s" (Netlist.name nl)
             (Check.render ~design:(Netlist.name nl) diags)));
  let sp_samples, profiled_sp =
    Telemetry.with_span ~cat:"vega" "vega.profile" @@ fun () ->
    let m = machine_for ~profile_units:true target in
    workload m;
    let unit_sim =
      match target.Lift.kind with
      | Lift.Alu_module _ -> Option.get (Machine.alu_sim m)
      | Lift.Fpu_module _ -> Option.get (Machine.fpu_sim m)
    in
    let s = Simc.samples unit_sim in
    (s, if s = 0 then None else Some (Simc.sp unit_sim))
  in
  let sp_of_net =
    match profiled_sp with None -> fun _ -> config.sp_fallback | Some f -> f
  in
  let aglib = Aging.Timing_library.build Cell.Library.c28 in
  let clock_period_ps, fresh_report =
    Telemetry.with_span ~cat:"vega" "vega.fresh_sta" @@ fun () ->
    let clock = phase1_clock config nl in
    (clock.period_ps, Sta.analyze ~timing:clock.fresh_timing ~clock_period_ps:clock.period_ps nl)
  in
  (* Static triage: under the sound default assumptions (any workload),
     every pair Spbound proves Safe can never violate — whatever SP the
     profile just measured — so the exact pair sweep may skip it without
     changing its result. *)
  let static_verdicts =
    if not static_prune then None
    else
      Telemetry.with_span ~cat:"vega" "vega.spbound" @@ fun () ->
      let _, pvs = static_triage ~aglib config ~clock_period_ps nl in
      let safe, critical, unknown = Spbound.verdict_counts pvs in
      Telemetry.Counter.add tele_spbound_safe safe;
      Telemetry.Counter.add tele_spbound_critical critical;
      Telemetry.Counter.add tele_spbound_unknown unknown;
      Some pvs
  in
  let skip =
    match static_verdicts with
    | None -> None
    | Some pvs ->
      let safe = Hashtbl.create 64 in
      List.iter
        (fun (pv : Spbound.pair_verdict) ->
          if pv.Spbound.pv_verdict = Spbound.Safe then
            Hashtbl.replace safe (pv.Spbound.pv_start, pv.Spbound.pv_end, pv.Spbound.pv_check) ())
        pvs;
      Some (fun s e c -> Hashtbl.mem safe (s, e, c))
  in
  let aged_timing =
    Sta.aged_timing ~derate:config.derate ~clock_tree:config.clock_tree ~sp_of_net
      ~years:config.years aglib
  in
  let violating_pairs =
    Telemetry.with_span ~cat:"vega" "vega.aged_sta" @@ fun () ->
    Sta.violating_pairs ?skip ~timing:aged_timing ~clock_period_ps nl
  in
  let cell_degradation =
    Array.to_list (Netlist.cells nl)
    |> List.filter_map (fun (c : Netlist.cell) ->
           if Cell.Kind.is_sequential c.Netlist.kind || Cell.Kind.arity c.Netlist.kind = 0 then
             None
           else
             Some
               ( c.Netlist.name,
                 Aging.Timing_library.factor aglib c.Netlist.kind
                   ~sp:(sp_of_net c.Netlist.output) ~years:config.years ))
  in
  {
    target;
    clock_period_ps;
    fresh_report;
    phase1 = config;
    aged_timing;
    violating_pairs;
    sp_of_net;
    cell_degradation;
    sp_samples;
    static_verdicts;
  }

let aged_report ?max_violating_paths a =
  Telemetry.with_span ~cat:"vega" "vega.aged_paths" @@ fun () ->
  let max_violating_paths =
    Option.value max_violating_paths ~default:a.phase1.max_violating_paths
  in
  Sta.analyze ~max_violating_paths ~timing:a.aged_timing ~clock_period_ps:a.clock_period_ps
    a.target.Lift.netlist

(* Hardest-to-test pairs first (SCOAP ranking): the formal budget goes to
   the paths cheap random search would miss.  The sort is stable, so the
   worst-slack representative of each unique pair is unchanged.  When the
   analysis carries static verdicts, pairs already proven Critical go to
   the head of the queue (SCOAP-ranked within each group): they violate
   under every admissible workload, so their counterexamples are the most
   valuable to front-load. *)
let ordered_pairs analysis =
  let nl = analysis.target.Lift.netlist in
  match analysis.static_verdicts with
  | None -> Testgen.scoap_ranked_pairs nl analysis.violating_pairs
  | Some pvs ->
    let crit = Hashtbl.create 16 in
    List.iter
      (fun (pv : Spbound.pair_verdict) ->
        if pv.Spbound.pv_verdict = Spbound.Critical then
          Hashtbl.replace crit (pv.Spbound.pv_start, pv.Spbound.pv_end, pv.Spbound.pv_check) ())
      pvs;
    let critical, rest =
      List.partition (fun (s, e, c, _) -> Hashtbl.mem crit (s, e, c)) analysis.violating_pairs
    in
    Testgen.scoap_ranked_pairs nl critical @ Testgen.scoap_ranked_pairs nl rest

let error_lifting ?config analysis =
  Telemetry.with_span ~cat:"vega" "vega.phase2" @@ fun () ->
  Lift.lift_violating_pairs ?config analysis.target (ordered_pairs analysis)

let lifting_items analysis =
  Resilience.items_of_pairs analysis.target.Lift.netlist (ordered_pairs analysis)

let error_lifting_supervised ?config ?supervisor ?checkpoint ?on_item analysis =
  Telemetry.with_span ~cat:"vega" "vega.phase2" @@ fun () ->
  Resilience.supervised_lift ?config ?supervisor ?checkpoint ?on_item analysis.target
    (lifting_items analysis)

type workflow_report = {
  analysis : analysis;
  pair_results : Lift.pair_result list;
  suite : Lift.suite;
  suite_cycles : int;
}

let suite_cycles (suite : Lift.suite) =
  if suite.Lift.suite_cases = [] then 0
  else begin
    let width, fmt =
      match suite.Lift.suite_target with
      | Lift.Alu_module { width } ->
        (* machine word width must equal the ALU width so that the golden
           expectations baked into the cases line up *)
        (width, if width >= 16 then Fpu_format.binary16 else Fpu_format.tiny)
      | Lift.Fpu_module { fmt } -> (max 16 (Fpu_format.width fmt), fmt)
    in
    let m =
      Machine.create
        ~config:{ Machine.default_config with Machine.width; fmt }
        ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional ()
    in
    Machine.reset m;
    match Machine.run m (Lift.suite_program suite) with
    | Machine.Exited code when code = Isa.exit_ok -> Machine.cycles m
    | o ->
      invalid_arg
        (Format.asprintf "Vega.suite_cycles: healthy suite did not pass (%a)" Machine.pp_outcome
           o)
  end

let run_workflow ?phase1 ?phase2 target ~workload =
  let analysis = aging_analysis ?config:phase1 target ~workload in
  let pair_results = error_lifting ?config:phase2 analysis in
  let suite = Lift.suite_of_results target.Lift.kind pair_results in
  { analysis; pair_results; suite; suite_cycles = suite_cycles suite }

let classification_counts results =
  List.map
    (fun cls ->
      ( cls,
        List.length
          (List.filter (fun (r : Lift.pair_result) -> r.Lift.classification = cls) results) ))
    [ Lift.S; Lift.UR; Lift.FF; Lift.FC ]

(* ------------------------------------------------------------------ *)
(* Aging-aware netlist repair (phase 1 -> Repair -> re-score)          *)

type repair_report = {
  rr_analysis : analysis;
  rr_result : Repair.result;
  rr_verdicts_before : int * int * int;
  rr_verdicts_after : int * int * int;
  rr_violating_before : int;
  rr_violating_after : int;
}

let tele_repair_before = Telemetry.Counter.make "vega.repair.violating_before"
let tele_repair_after = Telemetry.Counter.make "vega.repair.violating_after"

let repair ?(config = default_phase1) ?repair_config ?checkpoint ?log
    (target : Lift.target) ~workload =
  Telemetry.with_span ~cat:"vega" "vega.repair" @@ fun () ->
  let analysis = aging_analysis ~config ~static_prune:true target ~workload in
  let nl = target.Lift.netlist in
  let aglib = Aging.Timing_library.build Cell.Library.c28 in
  let result =
    Repair.run ?config:repair_config ?checkpoint ?log ~netlist:nl
      ~sp_of_net:analysis.sp_of_net ~clock_period_ps:analysis.clock_period_ps
      ~years:config.years ~derate:config.derate ~clock_tree:config.clock_tree ~aglib
      ~pairs:analysis.violating_pairs ()
  in
  let classify nl' =
    Spbound.verdict_counts
      (snd (static_triage ~aglib config ~clock_period_ps:analysis.clock_period_ps nl'))
  in
  let before =
    match analysis.static_verdicts with
    | Some pvs -> Spbound.verdict_counts pvs
    | None -> classify nl
  in
  let after = classify result.Repair.rs_netlist in
  let aged =
    Sta.aged_timing ~derate:config.derate ~clock_tree:config.clock_tree
      ~sp_of_net:result.Repair.rs_sp_of_net ~years:config.years aglib
  in
  let violating_after =
    List.length
      (Sta.violating_pairs ~timing:aged ~clock_period_ps:analysis.clock_period_ps
         result.Repair.rs_netlist)
  in
  let violating_before = List.length analysis.violating_pairs in
  Telemetry.Counter.add tele_repair_before violating_before;
  Telemetry.Counter.add tele_repair_after violating_after;
  {
    rr_analysis = analysis;
    rr_result = result;
    rr_verdicts_before = before;
    rr_verdicts_after = after;
    rr_violating_before = violating_before;
    rr_violating_after = violating_after;
  }

let render_repair r =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let sb, cb, ub = r.rr_verdicts_before and sa, ca, ua = r.rr_verdicts_after in
  pf "Vega repair: %s\n" (Netlist.name r.rr_analysis.target.Lift.netlist);
  pf "  clock period %.1f ps, profile samples %d\n" r.rr_analysis.clock_period_ps
    r.rr_analysis.sp_samples;
  pf "  aged violating pairs %d -> %d\n" r.rr_violating_before r.rr_violating_after;
  pf "  spbound verdicts safe/critical/unknown %d/%d/%d -> %d/%d/%d\n\n" sb cb ub sa ca ua;
  Buffer.add_string b (Repair.render r.rr_result);
  Buffer.contents b
