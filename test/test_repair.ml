(* Property-test hardening for the aging-aware repair pass: on random
   sequential netlists every committed exact rewrite chain must leave the
   design CEC-equivalent, lint-clean and never worse on any repaired
   pair, under budget, and byte-identically reproducible; approximate
   repair must respect its declared error bound under independent
   64-lane random stimulus.  Plus the three-engine differential on the
   repaired ALU8/FPU16 netlists (bit-identical across Sim, Sim64 and
   Simc, golden-VCD byte-equality) and the byte-exact golden CLI
   report. *)

module B = Netlist.Builder

let bv w v = Bitvec.create ~width:w v
let c28 = Cell.Library.c28
let aglib = Aging.Timing_library.build c28
let tree = Clock_tree.two_domain_gated ~sp_gated:0.05 ()
let years = 10.0
let derate = 1.0

(* Deterministic pseudo-random SP per net: the profile stand-in.  Keeps
   every run of a given netlist identical without a simulation pass. *)
let sp_of_net n = 0.1 +. (0.8 *. float_of_int (n * 2654435761 land 1023) /. 1023.0)

let comb_kinds =
  [|
    Cell.Kind.Buf;
    Cell.Kind.Not;
    Cell.Kind.And2;
    Cell.Kind.Or2;
    Cell.Kind.Xor2;
    Cell.Kind.Nand2;
    Cell.Kind.Nor2;
    Cell.Kind.Xnor2;
    Cell.Kind.Mux2;
  |]

(* Random sequential netlist: input ports, a mixed comb/DFF soup, an
   observed register chain (so DFF-to-DFF pairs exist), and guaranteed
   dead logic the final sweep must remove. *)
let build_random_netlist rng =
  let b = B.create "rand" in
  let pool = ref [] in
  let n_ports = 1 + Random.State.int rng 3 in
  for i = 0 to n_ports - 1 do
    let w = 1 + Random.State.int rng 4 in
    pool := Array.to_list (B.add_input b (Printf.sprintf "in%d" i) w) @ !pool
  done;
  let pick () =
    let a = Array.of_list !pool in
    a.(Random.State.int rng (Array.length a))
  in
  let n_cells = 8 + Random.State.int rng 32 in
  for _ = 1 to n_cells do
    let out =
      if Random.State.int rng 4 = 0 then
        B.add_cell ~clock_domain:0 ~reset_value:(Random.State.bool rng) b Cell.Kind.Dff
          [| pick () |]
      else begin
        let k = comb_kinds.(Random.State.int rng (Array.length comb_kinds)) in
        B.add_cell b k (Array.init (Cell.Kind.arity k) (fun _ -> pick ()))
      end
    in
    pool := out :: !pool
  done;
  let chain = ref (pick ()) in
  for _ = 1 to 2 + Random.State.int rng 3 do
    chain :=
      B.add_cell ~clock_domain:0 ~reset_value:(Random.State.bool rng) b Cell.Kind.Dff
        [| !chain |]
  done;
  let n_out = 1 + Random.State.int rng 2 in
  for i = 0 to n_out - 1 do
    let w = 1 + Random.State.int rng 3 in
    B.add_output b (Printf.sprintf "out%d" i) (Array.init w (fun _ -> pick ()))
  done;
  B.add_output b "chain" [| !chain |];
  (* dead: reaches no output and no D pin *)
  let d1 = B.add_cell b Cell.Kind.Xor2 [| pick (); pick () |] in
  let _d2 = B.add_cell b Cell.Kind.Not [| d1 |] in
  B.finish b

(* Clock closed exactly at the fresh critical path (margin 1.0): every
   aged max-depth endpoint violates, so most random netlists hand the
   repair pass real work. *)
let close_clock nl =
  let timing = Sta.fresh_timing ~derate ~clock_tree:tree c28 in
  let r = Sta.analyze ~timing ~clock_period_ps:1e9 nl in
  List.fold_left
    (fun acc (e : Sta.endpoint_slack) -> Float.max acc (1e9 -. e.Sta.setup_slack_ps))
    0.0 r.Sta.endpoint_slacks

let aged_timing = Sta.aged_timing ~derate ~clock_tree:tree ~sp_of_net ~years aglib

let run_repair ?(config = Repair.default_config) nl =
  let clock_period_ps = close_clock nl in
  let pairs = Sta.violating_pairs ~timing:aged_timing ~clock_period_ps nl in
  ( Repair.run ~config ~netlist:nl ~sp_of_net ~clock_period_ps ~years ~derate
      ~clock_tree:tree ~aglib ~pairs (),
    clock_period_ps,
    pairs )

let exact_config =
  {
    Repair.default_config with
    Repair.rp_max_rewrites = 8;
    rp_max_pair_edits = 4;
    rp_max_conflicts = 50_000;
    rp_max_cone = 16;
  }

let code_set nl =
  List.sort_uniq compare
    (List.map (fun d -> Check.code_id d.Check.code) (Check.lint_netlist nl))

let seed_arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

(* The workhorse property: exact-rung repair on a random netlist is
   CEC-equivalent end-to-end, lint-clean, never worse on any repaired
   pair, stays under budget, and renders byte-identically on a second
   run. *)
let prop_exact_repair =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:350 ~name:"exact repair: equivalent, clean, monotone, deterministic"
       seed_arb
       (fun seed ->
         let rng = Random.State.make [| 0xa11ce; seed |] in
         let nl = build_random_netlist rng in
         let r, _clock, _pairs = run_repair ~config:exact_config nl in
         if r.Repair.rs_rewrites > exact_config.Repair.rp_max_rewrites then
           QCheck.Test.fail_reportf "budget exceeded: %d rewrites" r.Repair.rs_rewrites;
         if r.Repair.rs_cec_failures > 0 then
           QCheck.Test.fail_reportf "%d CEC failures slipped through" r.Repair.rs_cec_failures;
         List.iter
           (fun (o : Repair.pair_outcome) ->
             if o.Repair.po_slack_after_ps < o.Repair.po_slack_before_ps -. 1e-6 then
               QCheck.Test.fail_reportf "pair %s worsened: %.3f -> %.3f ps" o.Repair.po_pair
                 o.Repair.po_slack_before_ps o.Repair.po_slack_after_ps)
           r.Repair.rs_outcomes;
         let repaired = r.Repair.rs_netlist in
         (match Check.errors (Check.lint_netlist repaired) with
         | [] -> ()
         | d :: _ ->
             QCheck.Test.fail_reportf "repaired netlist has lint error %s at %s"
               (Check.code_id d.Check.code) d.Check.loc);
         (* the final sweep may orphan an input-port bit whose only
            reader was dead logic (NL012, a warning); anything else new
            is a bug *)
         let fresh_codes =
           List.filter
             (fun c -> not (List.mem c (code_set nl)) && c <> "NL012")
             (code_set repaired)
         in
         if fresh_codes <> [] then
           QCheck.Test.fail_reportf "sweep introduced lint codes: %s"
             (String.concat "," fresh_codes);
         (match Cec.check nl repaired with
         | Cec.Equivalent -> ()
         | Cec.Inequivalent cex ->
             QCheck.Test.fail_reportf "repaired netlist inequivalent at %s" cex.Cec.cex_site
         | Cec.Unknown -> QCheck.Test.fail_reportf "end-to-end CEC inconclusive");
         let r2, _, _ = run_repair ~config:exact_config nl in
         if not (String.equal (Repair.render r) (Repair.render r2)) then
           QCheck.Test.fail_reportf "repair is not deterministic for seed %d" seed;
         true))

(* Independent 64-lane differential: drive both netlists with identical
   random stimulus and count differing output bits. *)
let measured_error_rate ~seed ~cycles a b =
  let rng = Random.State.make [| 0xd1ff; seed |] in
  let sa = Sim64.create a and sb = Sim64.create b in
  let total = ref 0 and wrong = ref 0 in
  let lane_mask =
    if Sim64.lanes >= Sys.int_size then -1 else (1 lsl Sim64.lanes) - 1
  in
  let popcount x =
    let c = ref 0 in
    let v = ref (x land lane_mask) in
    while !v <> 0 do
      v := !v land (!v - 1);
      incr c
    done;
    !c
  in
  for _ = 1 to cycles do
    List.iter
      (fun (p : Netlist.port) ->
        let w = Array.length p.Netlist.port_nets in
        let words =
          Lanes.pack w (Array.init Sim64.lanes (fun _ -> Random.State.int rng (1 lsl w)))
        in
        Sim64.set_input_words sa p.Netlist.port_name words;
        Sim64.set_input_words sb p.Netlist.port_name words)
      (Netlist.inputs a);
    Sim64.step sa;
    Sim64.step sb;
    List.iter
      (fun (pa : Netlist.port) ->
        let pb =
          List.find
            (fun (p : Netlist.port) -> String.equal p.Netlist.port_name pa.Netlist.port_name)
            (Netlist.outputs b)
        in
        Array.iteri
          (fun i na ->
            let wa = Sim64.net_word sa na and wb = Sim64.net_word sb pb.Netlist.port_nets.(i) in
            total := !total + Sim64.lanes;
            wrong := !wrong + popcount (wa lxor wb))
          pa.Netlist.port_nets)
      (Netlist.outputs a)
  done;
  if !total = 0 then 0.0 else float_of_int !wrong /. float_of_int !total

let approx_bound = 0.25

let approx_config =
  {
    exact_config with
    Repair.rp_rungs = [ Repair.Approx ];
    rp_approx_bound = Some approx_bound;
    rp_approx_cycles = 128;
  }

let prop_approx_bound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"approximate repair stays within the declared error bound"
       seed_arb
       (fun seed ->
         let rng = Random.State.make [| 0xbead; seed |] in
         let nl = build_random_netlist rng in
         let r, _, _ = run_repair ~config:approx_config nl in
         List.iter
           (fun (c : Repair.committed) ->
             match c.Repair.cm_verification with
             | Repair.Verified_cec -> ()
             | Repair.Verified_bound rate ->
                 if rate > approx_bound then
                   QCheck.Test.fail_reportf "committed rate %.4f exceeds bound %.2f" rate
                     approx_bound)
           r.Repair.rs_ledger;
         (* re-measure with fresh stimulus; the declared bound holds up
            to sampling noise (~16k bit samples per port word) *)
         let rate = measured_error_rate ~seed ~cycles:256 nl r.Repair.rs_netlist in
         if rate > approx_bound +. 0.05 then
           QCheck.Test.fail_reportf "independent differential rate %.4f >> bound %.2f" rate
             approx_bound;
         true))

(* ---------- three-engine differential on repaired units ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_path name = Filename.concat "golden" name

(* Repaired netlists must simulate bit-identically across the scalar,
   64-lane and compiled engines. *)
let differential nl cycles =
  let rng = Random.State.make [| 0x3e; Netlist.num_cells nl |] in
  let s64 = Sim64.create nl in
  let sc = Simc.create nl in
  let s1 = Sim.create nl in
  let probe_lane = Sim64.lanes - 1 in
  for c = 1 to cycles do
    List.iter
      (fun (p : Netlist.port) ->
        let w = Array.length p.Netlist.port_nets in
        let vals = Array.init Sim64.lanes (fun _ -> Random.State.int rng (1 lsl min w 20)) in
        let words = Lanes.pack w vals in
        Sim64.set_input_words s64 p.Netlist.port_name words;
        Simc.set_input_words sc p.Netlist.port_name words;
        Sim.set_input s1 p.Netlist.port_name (bv w vals.(probe_lane)))
      (Netlist.inputs nl);
    Sim64.step s64;
    Simc.step sc;
    Sim.step s1;
    for n = 0 to Netlist.num_nets nl - 1 do
      let w64 = Sim64.net_word s64 n and wc = Simc.net_word sc n in
      if w64 <> wc then
        Alcotest.failf "cycle %d net %d: sim64=%x simc=%x" c n w64 wc;
      let b1 = Sim.net s1 n in
      let b64 = (w64 lsr probe_lane) land 1 = 1 in
      if b1 <> b64 then Alcotest.failf "cycle %d net %d: sim=%b sim64=%b" c n b1 b64
    done
  done

let repaired_alu8 =
  lazy
    (let target = Lift.alu_target ~width:8 () in
     let report = Vega.repair target ~workload:Vega.run_minver_workload in
     report.Vega.rr_result.Repair.rs_netlist)

let test_three_engine_alu () = differential (Lazy.force repaired_alu8) 48

let test_three_engine_fpu () =
  (* a reduced budget keeps the FPU proof load test-sized; the full
     ladder is exercised by the CLI/CI sweep *)
  let target = Lift.fpu_target () in
  let nl = target.Lift.netlist in
  let clock_period_ps = close_clock nl in
  let pairs =
    match Sta.violating_pairs ~timing:aged_timing ~clock_period_ps nl with
    | a :: b :: _ -> [ a; b ]
    | l -> l
  in
  let config = { exact_config with Repair.rp_max_rewrites = 2; rp_max_pair_edits = 2 } in
  let r =
    Repair.run ~config ~netlist:nl ~sp_of_net ~clock_period_ps ~years ~derate
      ~clock_tree:tree ~aglib ~pairs ()
  in
  Alcotest.(check int) "no CEC failures" 0 r.Repair.rs_cec_failures;
  differential r.Repair.rs_netlist 24

let test_golden_vcd_repaired_alu () =
  let nl = Lazy.force repaired_alu8 in
  let stimulus c =
    [
      ("a", bv 8 (c * 37 land 0xff));
      ("b", bv 8 (c * 11 land 0xff));
      ("op", bv 4 (c land 7));
    ]
  in
  let via_simc =
    Vcd.of_engine_run (module Simc.Lane) (Simc.lane_view (Simc.create nl) 5) ~cycles:8 ~stimulus
  in
  let via_sim = Vcd.of_sim_run (Sim.create nl) ~cycles:8 ~stimulus in
  Alcotest.(check string) "Sim and Simc lane dumps agree byte-for-byte" via_sim via_simc;
  let expected = read_file (golden_path "repair_alu8.vcd") in
  Alcotest.(check string) "byte-for-byte vs golden/repair_alu8.vcd" expected via_simc

(* ---------- the CLI golden report ---------- *)

let cli_path () =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") "vega_cli.exe";
      Filename.concat (Filename.concat (Filename.concat "_build" "default") "bin") "vega_cli.exe";
    ]
  in
  List.find_opt Sys.file_exists candidates

let test_golden_cli_report () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
    let tmp = Filename.temp_file "vega_repair" ".txt" in
    let cmd =
      Printf.sprintf "%s repair --unit alu --width 8 > %s 2> %s" (Filename.quote cli)
        (Filename.quote tmp) Filename.null
    in
    let rc = Sys.command cmd in
    (* exit 1: the margin-1.0 ALU8 sweep leaves one pair improved but
       still violating — the exit code says so, the report is golden *)
    Alcotest.(check int) "vega_cli repair exit code" 1 rc;
    let got = read_file tmp in
    Sys.remove tmp;
    let expected = read_file (golden_path "repair_alu.txt") in
    Alcotest.(check string) "ALU repair report matches golden byte-for-byte" expected got

let () =
  Alcotest.run "repair"
    [
      ("properties", [ prop_exact_repair; prop_approx_bound ]);
      ( "differential",
        [
          Alcotest.test_case "three engines on repaired alu8" `Quick test_three_engine_alu;
          Alcotest.test_case "three engines on repaired fpu16 (reduced)" `Quick
            test_three_engine_fpu;
          Alcotest.test_case "golden vcd on repaired alu8" `Quick test_golden_vcd_repaired_alu;
        ] );
      ( "cli",
        [ Alcotest.test_case "golden repair report" `Quick test_golden_cli_report ] );
    ]
