(* Three-engine differential tests for the compiled simulator: on random
   netlists (with multi-stage register chains and guaranteed-dead logic)
   Simc must agree with Sim64 on every net word of every cycle, with the
   scalar Sim on every output bit of every lane, and — when profiling —
   its SP/toggle counters must equal the sums of the per-lane scalar
   counters exactly.  Failures report the first divergent (cycle, net)
   pair.  Also: the Simc lane view through the engine-generic VCD and
   power consumers (golden VCD included), and a zero-allocation check on
   the compiled dispatch loop. *)

module B = Netlist.Builder

let bv w v = Bitvec.create ~width:w v
let rand_bits rng w = Random.State.int rng (1 lsl w)

(* --- random netlist generation --- *)

let comb_kinds =
  [|
    Cell.Kind.Tie0;
    Cell.Kind.Tie1;
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

(* Like the PR-1 generator, plus a guaranteed multi-stage DFF chain that
   feeds an output (register depth) and guaranteed dead cells (logic the
   optimizer must drop while keeping it observable via the fallback). *)
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
  let n_cells = 5 + Random.State.int rng 36 in
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
  (* a register chain of depth >= 2, always observed *)
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
  (* nothing below ever reaches an output or a D pin: guaranteed dead *)
  let d1 = B.add_cell b Cell.Kind.Xor2 [| pick (); pick () |] in
  let d2 = B.add_cell b Cell.Kind.Not [| d1 |] in
  let _d3 = B.add_cell b Cell.Kind.Mux2 [| d1; d2; pick () |] in
  B.finish b

(* --- the three-engine differential harness --- *)

(* Scalar counters are not exposed raw; recover them from sp/toggle_rate
   (tiny integers, so the float round-trip is exact after rounding). *)
let scalar_ones r n =
  int_of_float (Float.round (Sim.sp r n *. float_of_int (Sim.samples r)))

let scalar_toggles r n =
  if Sim.samples r < 2 then 0
  else int_of_float (Float.round (Sim.toggle_rate r n *. float_of_int (Sim.samples r - 1)))

(* Run [cycles] cycles of per-lane random stimulus on Sim64, a profiled
   Simc, an optimized Simc and one profiled scalar reference per lane;
   [Error msg] describes the first divergence. *)
let differential_run rng nl cycles =
  let nlanes = Simc.lanes in
  let s64 = Sim64.create nl in
  let scp = Simc.create ~profile:true nl in
  let sco = Simc.create nl in
  let refs = Array.init nlanes (fun _ -> Sim.create ~profile:true nl) in
  let in_ports = Netlist.inputs nl in
  let out_ports = Netlist.outputs nl in
  let num_nets = Netlist.num_nets nl in
  let fail = ref None in
  let report c msg = if !fail = None then fail := Some (Printf.sprintf "cycle %d: %s" c msg) in
  for c = 1 to cycles do
    List.iter
      (fun (p : Netlist.port) ->
        let w = Array.length p.Netlist.port_nets in
        let vals = Array.init nlanes (fun _ -> rand_bits rng w) in
        let words = Lanes.pack w vals in
        Sim64.set_input_words s64 p.Netlist.port_name words;
        Simc.set_input_words scp p.Netlist.port_name words;
        Simc.set_input_words sco p.Netlist.port_name words;
        Array.iteri (fun lane v -> Sim.set_input refs.(lane) p.Netlist.port_name (bv w v)) vals)
      in_ports;
    if Random.State.int rng 4 = 0 then begin
      Sim64.settle s64;
      Simc.hold_clock scp;
      Simc.hold_clock sco;
      Array.iter Sim.hold_clock refs
    end
    else begin
      Sim64.step s64;
      Simc.step scp;
      Simc.step sco;
      Array.iter (fun r -> Sim.step r) refs
    end;
    (* every net word must agree between Sim64 and both Simc modes,
       including the eliminated/dead nets *)
    for n = 0 to num_nets - 1 do
      let w64 = Sim64.net_word s64 n in
      let wp = Simc.net_word scp n in
      let wo = Simc.net_word sco n in
      if wp <> w64 then
        report c (Printf.sprintf "net %d: sim64=%x simc(profile)=%x" n w64 wp);
      if wo <> w64 then report c (Printf.sprintf "net %d: sim64=%x simc=%x" n w64 wo)
    done;
    (* output ports against the scalar reference of every lane *)
    List.iter
      (fun (p : Netlist.port) ->
        for lane = 0 to nlanes - 1 do
          let want = Sim.output refs.(lane) p.Netlist.port_name in
          if not (Bitvec.equal want (Simc.output sco ~lane p.Netlist.port_name)) then
            report c (Printf.sprintf "output %s lane %d: simc <> scalar" p.Netlist.port_name lane)
        done)
      out_ports
  done;
  (* profiled counters equal the per-lane scalar sums exactly *)
  if Simc.samples scp <> nlanes * cycles then
    report cycles (Printf.sprintf "samples: simc=%d, want %d" (Simc.samples scp) (nlanes * cycles));
  if Simc.cycles_sampled scp <> cycles then report cycles "cycles_sampled";
  for n = 0 to num_nets - 1 do
    let ones = Array.fold_left (fun acc r -> acc + scalar_ones r n) 0 refs in
    let toggles = Array.fold_left (fun acc r -> acc + scalar_toggles r n) 0 refs in
    if Simc.ones_count scp n <> ones then report cycles (Printf.sprintf "net %d: ones counter" n);
    if Simc.toggles_count scp n <> toggles then
      report cycles (Printf.sprintf "net %d: toggles counter" n)
  done;
  match !fail with None -> Ok () | Some msg -> Error msg

let prop_differential_random_netlists =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Simc = Sim64 = scalar Sim on random netlists"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 0x51c |] in
         let nl = build_random_netlist rng in
         match differential_run rng nl (6 + Random.State.int rng 6) with
         | Ok () -> true
         | Error msg -> QCheck.Test.fail_reportf "seed %d: first divergence at %s" seed msg))

let test_differential_examples () =
  let rng = Random.State.make [| 0x51b6c |] in
  List.iter
    (fun nl ->
      match differential_run rng nl 16 with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "differential on %s: first divergence at %s" (Netlist.name nl) msg)
    [
      Example_circuits.pipelined_adder ();
      Example_circuits.pipelined_adder ~split_domains:true ();
      Example_circuits.dff_chain 5;
      Example_circuits.lfsr4 ();
      Example_circuits.comb_xor_tree 8;
    ]

(* --- the Simc lane view through the engine-generic consumers --- *)

let golden_path name =
  if Sys.file_exists (Filename.concat "golden" name) then Filename.concat "golden" name
  else Filename.concat (Filename.concat "test" "golden") name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_vcd_via_simc () =
  let nl = Example_circuits.pipelined_adder () in
  let s = Simc.create nl in
  let out =
    Vcd.of_engine_run
      (module Simc.Lane)
      (Simc.lane_view s 7) ~cycles:6
      ~stimulus:(fun c -> [ ("a", bv 2 (c land 3)); ("b", bv 2 ((c * 2 + 1) land 3)) ])
  in
  let expected = read_file (golden_path "pipelined_adder.vcd") in
  Alcotest.(check string) "byte-for-byte vs golden/pipelined_adder.vcd" expected out

let adder_stimulus c = [ ("a", bv 2 (c land 3)); ("b", bv 2 ((c * 3) land 3)) ]

let test_lane_view_vcd () =
  let nl = Example_circuits.pipelined_adder () in
  let scalar = Vcd.of_sim_run (Sim.create nl) ~cycles:8 ~stimulus:adder_stimulus in
  let sc = Simc.create nl in
  let lane7 =
    Vcd.of_engine_run (module Simc.Lane) (Simc.lane_view sc 7) ~cycles:8 ~stimulus:adder_stimulus
  in
  Alcotest.(check string) "lane VCD = scalar VCD" scalar lane7

let test_lane_view_power () =
  let nl = Example_circuits.lfsr4 () in
  let scalar = Sim.create ~profile:true nl in
  let sc = Simc.create ~profile:true nl in
  for c = 0 to 19 do
    let e = bv 1 (c land 1) in
    Sim.set_input scalar "enable" e;
    Simc.set_input_all sc "enable" e;
    Sim.step scalar;
    Simc.step sc
  done;
  let r = Power.analyze Cell.Library.c28 scalar ~clock_mhz:800.0 in
  let rc =
    Power.analyze_engine (module Simc.Lane) Cell.Library.c28 (Simc.lane_view sc 0)
      ~clock_mhz:800.0
  in
  (* identical stimulus in every lane: the aggregate profile equals the
     scalar one, so the reports coincide *)
  Alcotest.(check int) "cell count" r.Power.cell_count rc.Power.cell_count;
  let close what a b = Alcotest.(check bool) what true (Float.abs (a -. b) < 1e-9) in
  close "leakage" r.Power.total_leakage_nw rc.Power.total_leakage_nw;
  close "dynamic" r.Power.total_dynamic_nw rc.Power.total_dynamic_nw

(* --- zero allocation in the dispatch loop --- *)

let alloc_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_zero_allocation_dispatch () =
  let nl = Example_circuits.pipelined_adder () in
  let s = Simc.create nl in
  let o_net = (Netlist.find_output nl "o").Netlist.port_nets.(0) in
  let wa = [| 0; 0 |] and wb = [| 0; 0 |] in
  let sink = ref 0 in
  let run n =
    for i = 1 to n do
      wa.(0) <- i;
      wa.(1) <- i lsr 1;
      wb.(0) <- i * 3;
      Simc.set_input_words s "a" wa;
      Simc.set_input_words s "b" wb;
      Simc.step s;
      sink := !sink lxor Simc.net_word s o_net
    done
  in
  run 100 (* warm-up *);
  let a1 = alloc_of (fun () -> run 1000) in
  let a2 = alloc_of (fun () -> run 2000) in
  ignore (Sys.opaque_identity !sink);
  (* equal allocation for 1000 and 2000 cycles = zero words per cycle *)
  Alcotest.(check (float 0.0)) "allocation independent of cycle count" a1 a2

(* --- unit tests --- *)

let test_program_shrinks () =
  (* a buf/tie-heavy netlist: the optimizer collapses everything *)
  let b = B.create "wires" in
  let a = B.add_input b "a" 1 in
  let n1 = B.add_cell b Cell.Kind.Buf [| a.(0) |] in
  let n2 = B.add_cell b Cell.Kind.Not [| n1 |] in
  let n3 = B.add_cell b Cell.Kind.Not [| n2 |] in
  let t1 = B.add_cell b Cell.Kind.Tie1 [||] in
  let n4 = B.add_cell b Cell.Kind.And2 [| n3; t1 |] in
  B.add_output b "y" [| n4 |];
  let nl = B.finish b in
  let cons = Simc.create ~profile:true nl in
  let opt = Simc.create nl in
  Alcotest.(check int) "conservative = all comb cells" 5 (Simc.program_length cons);
  Alcotest.(check int) "optimized folds wires and constants" 0 (Simc.program_length opt);
  (* and it still computes: y = a *)
  List.iter
    (fun v ->
      Simc.set_input_all opt "a" (bv 1 v);
      Simc.settle opt;
      Alcotest.(check bool) "y = a" (v = 1) (Simc.net opt ~lane:3 n4))
    [ 0; 1; 0 ]

let test_validation () =
  let s = Simc.create (Example_circuits.pipelined_adder ()) in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Simc.set_input: port a has width 2, value has width 3") (fun () ->
      Simc.set_input s ~lane:0 "a" (bv 3 0));
  (match Simc.set_input s ~lane:Simc.lanes "a" (bv 2 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-range lane accepted");
  match Simc.sp s 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sp without profiling accepted"

let test_snapshot_restore () =
  let nl = Example_circuits.lfsr4 () in
  let s = Simc.create nl in
  let drive c =
    Simc.set_input_all s "enable" (bv 1 (if c land 3 = 0 then 0 else 1));
    Simc.step s
  in
  for c = 0 to 9 do
    drive c
  done;
  let snap = Simc.snapshot s in
  let trace () =
    List.init 8 (fun c ->
        drive (10 + c);
        Simc.output_words s "q")
  in
  let first = trace () in
  Simc.restore s snap;
  Alcotest.(check int) "cycle restored" 10 (Simc.cycle s);
  let second = trace () in
  List.iter2
    (fun a b -> Alcotest.(check (array int)) "replay is bit-identical" a b)
    first second;
  let other = Simc.create (Example_circuits.dff_chain 3) in
  match Simc.restore other snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cross-netlist snapshot accepted"

let test_active_mask_restricts_counters () =
  let nl = Example_circuits.dff_chain 1 in
  let s = Simc.create ~profile:true nl in
  Simc.set_input_words s "d" [| 0b111 |];
  Simc.set_active_mask s 0b111;
  Simc.step s;
  Simc.step s;
  Alcotest.(check int) "samples = active lanes x cycles" 6 (Simc.samples s);
  let d_net = (Netlist.find_input nl "d").Netlist.port_nets.(0) in
  Alcotest.(check int) "ones only in active lanes" 6 (Simc.ones_count s d_net);
  Alcotest.(check (float 1e-9)) "sp = 1 over active lanes" 1.0 (Simc.sp s d_net)

(* --- single-lane sampling ---

   Profiled simulators see the same random stimulus: [one] samples lane 0
   (mask 1, the single-lane path), [other] lane 1 (mask 2, the generic
   path), [pair] lanes 0 and 1 (mask 3, generic too), and [mixed] switches
   between masks 1 and 3 from step to step, so lane 1's toggle memory
   must survive the single-lane samples.  Lanes nobody samples carry
   noise.  Scalar reference 0 is lane 0 everywhere and lane 1 of
   [other]; reference 1 is lane 1 of [pair]; reference 2 is lane 1 of
   [mixed], sampled only when [mixed] samples it. *)
let single_lane_run rng nl cycles =
  let profiled mask =
    let s = Simc.create ~profile:true nl in
    Simc.set_active_mask s mask;
    s
  in
  let one = profiled 1 and other = profiled 2 and pair = profiled 3 and mixed = profiled 3 in
  let refs = Array.init 3 (fun _ -> Sim.create ~profile:true nl) in
  let num_nets = Netlist.num_nets nl in
  let fail = ref None in
  let report msg = if !fail = None then fail := Some msg in
  for c = 1 to cycles do
    List.iter
      (fun (p : Netlist.port) ->
        let w = Array.length p.Netlist.port_nets and name = p.Netlist.port_name in
        let v = Array.init 3 (fun _ -> rand_bits rng w) in
        let drive sim lanes =
          let vals = Array.init Simc.lanes (fun _ -> rand_bits rng w) in
          List.iter (fun (lane, r) -> vals.(lane) <- v.(r)) lanes;
          Simc.set_input_words sim name (Lanes.pack w vals)
        in
        drive one [ (0, 0) ];
        drive other [ (1, 0) ];
        drive pair [ (0, 0); (1, 1) ];
        drive mixed [ (0, 0); (1, 2) ];
        Array.iteri (fun r sim -> Sim.set_input sim name (bv w v.(r))) refs)
      (Netlist.inputs nl);
    if Random.State.int rng 4 = 0 then begin
      Simc.set_active_mask mixed 3;
      List.iter Simc.hold_clock [ one; other; pair; mixed ];
      Array.iter Sim.hold_clock refs
    end
    else begin
      (* both lanes on the first sample: a lane's first sample is global *)
      let both = c = 1 || Random.State.bool rng in
      Simc.set_active_mask mixed (if both then 3 else 1);
      List.iter (fun s -> Simc.step s) [ one; other; pair; mixed ];
      Sim.step refs.(0);
      Sim.step refs.(1);
      Sim.step ~sample:both refs.(2)
    end;
    (* the first sample counts no toggle, whatever the nets hold *)
    if c = 1 then
      for n = 0 to num_nets - 1 do
        if Simc.toggles_count one n <> 0 then
          report (Printf.sprintf "net %d: toggle on the first sample" n)
      done
  done;
  let check what sim ~samples ~ones ~toggles =
    if Simc.samples sim <> samples then
      report (Printf.sprintf "%s: %d samples, want %d" what (Simc.samples sim) samples);
    for n = 0 to num_nets - 1 do
      if Simc.ones_count sim n <> ones n then report (Printf.sprintf "%s: net %d ones" what n);
      if Simc.toggles_count sim n <> toggles n then
        report (Printf.sprintf "%s: net %d toggles" what n)
    done
  in
  let sum2 f a b n = f a n + f b n in
  let r0 = refs.(0) and r1 = refs.(1) and r2 = refs.(2) in
  check "mask 1 vs scalar" one ~samples:cycles ~ones:(scalar_ones r0)
    ~toggles:(scalar_toggles r0);
  check "mask 1 vs mask 2" one ~samples:(Simc.samples other) ~ones:(Simc.ones_count other)
    ~toggles:(Simc.toggles_count other);
  check "mask 3 vs scalar" pair ~samples:(2 * cycles) ~ones:(sum2 scalar_ones r0 r1)
    ~toggles:(sum2 scalar_toggles r0 r1);
  check "masks 1 and 3 vs scalar" mixed
    ~samples:(cycles + Sim.samples r2)
    ~ones:(sum2 scalar_ones r0 r2) ~toggles:(sum2 scalar_toggles r0 r2);
  match !fail with None -> Ok () | Some msg -> Error msg

let prop_single_lane_sampling =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"mask 1 counters = generic path = scalar Sim"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 0x1a7e |] in
         let nl = build_random_netlist rng in
         match single_lane_run rng nl (2 + Random.State.int rng 8) with
         | Ok () -> true
         | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg))

(* --- change-gated settle ---

   Units register their boundaries: some input ports reach the logic only
   through a register (their bits feed D pins alone) and some output ports
   are registers nothing else reads.  Writes to those words must not re-run
   the program, yet every read must stay exact, including dead nets that
   read them through the fallback interpreter. *)
let build_registered_netlist rng =
  let b = B.create "registered" in
  let pool = ref [] and raw = ref [] in
  let dff d = B.add_cell ~clock_domain:0 ~reset_value:(Random.State.bool rng) b Cell.Kind.Dff [| d |] in
  for i = 0 to Random.State.int rng 3 do
    let bits = B.add_input b (Printf.sprintf "in%d" i) (1 + Random.State.int rng 4) in
    let registered = Random.State.bool rng in
    Array.iter
      (fun n ->
        raw := n :: !raw;
        pool := (if registered then dff n else n) :: !pool)
      bits
  done;
  let pick_from l =
    let a = Array.of_list l in
    a.(Random.State.int rng (Array.length a))
  in
  let pick () = pick_from !pool in
  for _ = 1 to 3 + Random.State.int rng 20 do
    let out =
      if Random.State.int rng 5 = 0 then dff (pick ())
      else begin
        let k = comb_kinds.(Random.State.int rng (Array.length comb_kinds)) in
        B.add_cell b k (Array.init (Cell.Kind.arity k) (fun _ -> pick ()))
      end
    in
    pool := out :: !pool
  done;
  let out_regs = ref [] in
  for i = 0 to Random.State.int rng 2 do
    let w = 1 + Random.State.int rng 3 in
    let bits =
      if Random.State.bool rng then
        Array.init w (fun _ ->
            let q = dff (pick ()) in
            out_regs := q :: !out_regs;
            q)
      else Array.init w (fun _ -> pick ())
    in
    B.add_output b (Printf.sprintf "out%d" i) bits
  done;
  (* dead logic over raw input bits and output registers: no compiled op
     reads those words, so only the fallback sees their changes *)
  let dead_src () = pick_from (!raw @ !out_regs @ !pool) in
  let d1 = B.add_cell b Cell.Kind.Xor2 [| dead_src (); dead_src () |] in
  let _d2 = B.add_cell b Cell.Kind.Mux2 [| d1; dead_src (); dead_src () |] in
  B.finish b

type gated_op = Write of string * int array | Step | Reset

(* Random interleavings of repeated and changing writes (through every
   Simc write entry point), step, hold_clock, snapshot/restore and reset
   on an optimized and a profiled Simc.  Sim64 replays the effective
   history (it has no snapshots); one profiled scalar Sim per lane
   follows every operation.  After each operation, output ports are read
   first, then every net word, then the profile counters. *)
let gated_run rng nl n_ops =
  let nlanes = Simc.lanes in
  let sco = Simc.create nl and scp = Simc.create ~profile:true nl in
  let refs = Array.init nlanes (fun _ -> Sim.create ~profile:true nl) in
  let in_ports = Array.of_list (Netlist.inputs nl) in
  let num_nets = Netlist.num_nets nl in
  let cur = Hashtbl.create 8 in
  let zero_inputs () =
    Array.iter
      (fun (p : Netlist.port) ->
        Hashtbl.replace cur p.Netlist.port_name (Array.make (Array.length p.Netlist.port_nets) 0))
      in_ports
  in
  zero_inputs ();
  let history = ref [] in
  let sim64_of_history h =
    let s = Sim64.create nl in
    List.iter
      (function
        | Write (port, words) -> Sim64.set_input_words s port words
        | Step -> Sim64.step s
        | Reset -> Sim64.reset s)
      (List.rev h);
    s
  in
  let s64 = ref (sim64_of_history []) in
  let saved = ref None in
  let fail = ref None in
  let report i msg = if !fail = None then fail := Some (Printf.sprintf "op %d: %s" i msg) in
  let lane_value words lane =
    Array.fold_left (fun (acc, i) w -> (acc lor (((w lsr lane) land 1) lsl i), i + 1)) (0, 0) words
    |> fst
  in
  let write name words =
    Hashtbl.replace cur name words;
    history := Write (name, Array.copy words) :: !history;
    Sim64.set_input_words !s64 name words;
    Array.iteri
      (fun lane r -> Sim.set_input r name (bv (Array.length words) (lane_value words lane)))
      refs
  in
  let drive ~change =
    let p = in_ports.(Random.State.int rng (Array.length in_ports)) in
    let name = p.Netlist.port_name in
    let w = Array.length p.Netlist.port_nets in
    let old = Hashtbl.find cur name in
    let words = Array.copy old in
    let lane = Random.State.int rng nlanes in
    let bit = 1 lsl lane in
    (match Random.State.int rng 4 with
    | 0 ->
      if change then Array.iteri (fun i _ -> words.(i) <- Sim64.random_word rng) words;
      List.iter (fun s -> Simc.set_input_words s name words) [ sco; scp ]
    | 1 ->
      let v =
        if change then rand_bits rng w
        else
          (* the current value only if every lane holds it *)
          let v0 = lane_value old 0 in
          if Array.for_all (fun x -> x = 0 || x = Simc.all_lanes) old then v0 else -1
      in
      if v >= 0 then begin
        Array.iteri (fun i _ -> words.(i) <- (if (v lsr i) land 1 = 1 then Simc.all_lanes else 0)) words;
        List.iter (fun s -> Simc.set_input_all s name (bv w v)) [ sco; scp ]
      end
    | 2 ->
      let v = if change then rand_bits rng w else lane_value old lane in
      Array.iteri
        (fun i x -> words.(i) <- (if (v lsr i) land 1 = 1 then x lor bit else x land lnot bit))
        old;
      List.iter (fun s -> Simc.set_input s ~lane name (bv w v)) [ sco; scp ]
    | _ ->
      let i = Random.State.int rng w in
      let v = if change then Random.State.bool rng else (old.(i) lsr lane) land 1 = 1 in
      words.(i) <- (if v then old.(i) lor bit else old.(i) land lnot bit);
      List.iter (fun s -> Simc.set_input_bit s ~lane name i v) [ sco; scp ]);
    write name words
  in
  let check i =
    Sim64.settle !s64;
    Array.iter Sim.settle refs;
    List.iter
      (fun (p : Netlist.port) ->
        let name = p.Netlist.port_name in
        let want = Sim64.output_words !s64 name in
        List.iter
          (fun (what, s) ->
            if Simc.output_words s name <> want then
              report i (Printf.sprintf "%s output %s <> Sim64" what name);
            for lane = 0 to nlanes - 1 do
              if not (Bitvec.equal (Sim.output refs.(lane) name) (Simc.output s ~lane name)) then
                report i (Printf.sprintf "%s output %s lane %d <> scalar" what name lane)
            done)
          [ ("simc", sco); ("simc(profile)", scp) ])
      (Netlist.outputs nl);
    for n = 0 to num_nets - 1 do
      let want = Sim64.net_word !s64 n in
      if Simc.net_word sco n <> want then report i (Printf.sprintf "simc net %d <> Sim64" n);
      if Simc.net_word scp n <> want then report i (Printf.sprintf "simc(profile) net %d <> Sim64" n)
    done;
    let samples = Sim.samples refs.(0) in
    if Simc.samples scp <> nlanes * samples then report i "profile sample count";
    if samples > 0 then
      for n = 0 to num_nets - 1 do
        let ones = Array.fold_left (fun acc r -> acc + scalar_ones r n) 0 refs in
        let toggles = Array.fold_left (fun acc r -> acc + scalar_toggles r n) 0 refs in
        if Simc.ones_count scp n <> ones then report i (Printf.sprintf "net %d: ones counter" n);
        if Simc.toggles_count scp n <> toggles then
          report i (Printf.sprintf "net %d: toggles counter" n)
      done
  in
  for i = 1 to n_ops do
    (match Random.State.int rng 11 with
    | 0 | 1 | 2 -> drive ~change:true
    | 3 | 4 -> drive ~change:false
    | 5 | 6 ->
      List.iter (fun s -> Simc.step s) [ sco; scp ];
      Array.iter (fun r -> Sim.step r) refs;
      history := Step :: !history;
      Sim64.step !s64
    | 7 ->
      List.iter Simc.hold_clock [ sco; scp ];
      Array.iter Sim.hold_clock refs
    | 8 ->
      saved :=
        Some
          ( Simc.snapshot sco,
            Simc.snapshot scp,
            Array.map Sim.snapshot refs,
            !history,
            Hashtbl.copy cur )
    | 9 -> (
      match !saved with
      | None -> ()
      | Some (so, sp, sr, h, c) ->
        Simc.restore sco so;
        Simc.restore scp sp;
        Array.iter2 Sim.restore refs sr;
        history := h;
        s64 := sim64_of_history h;
        Hashtbl.reset cur;
        Hashtbl.iter (Hashtbl.replace cur) c)
    | _ ->
      List.iter Simc.reset [ sco; scp ];
      Array.iter Sim.reset refs;
      history := Reset :: !history;
      Sim64.reset !s64;
      zero_inputs ());
    check i
  done;
  match !fail with None -> Ok () | Some msg -> Error msg

let prop_gated_settle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"gated settle = Sim64 = scalar Sim under any interleaving"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 0x9a7e |] in
         let nl = build_registered_netlist rng in
         match gated_run rng nl (8 + Random.State.int rng 24) with
         | Ok () -> true
         | Error msg -> QCheck.Test.fail_reportf "seed %d: first divergence at %s" seed msg))

(* The ALU registers its operands and its result, so the logic re-runs
   only on the edge after the operand registers changed: a bubble settles
   the previous issue (one pass), and neither the issue that follows nor
   a result read after the bubble's edge evaluates a gate. *)
let test_alu16_gate_evals () =
  let s = Simc.create (Alu.netlist ~width:16 ()) in
  let evals = Telemetry.Counter.make "simc.gate_evals" in
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let cost f =
    let before = Telemetry.Counter.value evals in
    let r = f () in
    (Telemetry.Counter.value evals - before, r)
  in
  let issue op a b () =
    Simc.set_input_all s Alu.op_port (bv 4 (Alu.op_code op));
    Simc.set_input_all s Alu.a_port (bv 16 a);
    Simc.set_input_all s Alu.b_port (bv 16 b);
    Simc.step s
  in
  let result () = Bitvec.to_int (Simc.output s ~lane:0 Alu.r_port) in
  let golden op a b = Bitvec.to_int (Alu.golden ~width:16 op (bv 16 a) (bv 16 b)) in
  let pass = Simc.program_length s in
  let rounds =
    List.map
      (fun (op, a, b) ->
        let c_issue, () = cost (issue op a b) in
        let c_bubble, () = cost (fun () -> Simc.step s) in
        let c_read, r = cost result in
        Alcotest.(check int) "result after the bubble" (golden op a b) r;
        (c_issue, c_bubble, c_read))
      [ (Alu.Add, 1234, 4321); (Alu.Sub, 7, 300); (Alu.Xor_op, 0xffff, 0x0f0f) ]
  in
  (* back to back: the issue edge's operands settle once, at the read or
     at the next edge, whichever comes first *)
  let c_back, () =
    cost (fun () ->
        issue Alu.Add 5 6 ();
        ignore (result ());
        issue Alu.Sub 9 4 ())
  in
  let c_again, () = cost (issue Alu.Sub 9 4) in
  Telemetry.disable ();
  List.iteri
    (fun i (c_issue, c_bubble, c_read) ->
      (* the first issue follows reset, whose pass already ran *)
      Alcotest.(check int) (Printf.sprintf "round %d: issue adds no evaluation" i) 0 c_issue;
      Alcotest.(check int) (Printf.sprintf "round %d: the bubble is one pass" i) pass c_bubble;
      Alcotest.(check int) (Printf.sprintf "round %d: read after the edge adds none" i) 0 c_read)
    rounds;
  Alcotest.(check int) "two back-to-back issues: one pass for the first's operands" pass c_back;
  Alcotest.(check int) "held operands re-issued: one pass for the previous edge" pass c_again

let () =
  Alcotest.run "simc"
    [
      ( "differential",
        [
          prop_differential_random_netlists;
          Alcotest.test_case "example circuits" `Quick test_differential_examples;
        ] );
      ( "engine-generic",
        [
          Alcotest.test_case "golden vcd via lane view" `Quick test_golden_vcd_via_simc;
          Alcotest.test_case "lane view vcd" `Quick test_lane_view_vcd;
          Alcotest.test_case "lane view power" `Quick test_lane_view_power;
        ] );
      ("single lane", [ prop_single_lane_sampling ]);
      ( "dispatch",
        [ Alcotest.test_case "zero allocation" `Quick test_zero_allocation_dispatch ] );
      ( "unit",
        [
          Alcotest.test_case "program shrinks" `Quick test_program_shrinks;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "active mask" `Quick test_active_mask_restricts_counters;
        ] );
      ( "gated settle",
        [
          prop_gated_settle;
          Alcotest.test_case "ALU16 gate evaluations" `Quick test_alu16_gate_evals;
        ] );
    ]
