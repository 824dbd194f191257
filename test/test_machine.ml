(* Tests for the ISA assembler and the instruction-set simulator, including
   netlist-backed execution and fault visibility through the pipeline. *)


let test_assemble_labels () =
  let p =
    Isa.assemble
      [ Isa.Li (1, 5); Isa.Label "loop"; Isa.Alui (Alu.Sub, 1, 1, 1); Isa.Bne (1, 0, "loop");
        Isa.Ecall 0 ]
  in
  Alcotest.(check int) "length excludes labels" 4 (Isa.length p);
  Alcotest.(check int) "label resolves" 1 (Isa.label_address p "loop")

let test_assemble_validation () =
  let expect_invalid name instrs =
    match Isa.assemble instrs with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "bad register" [ Isa.Li (32, 0) ];
  expect_invalid "undefined label" [ Isa.Beq (0, 0, "nowhere") ];
  expect_invalid "duplicate label" [ Isa.Label "a"; Isa.Label "a" ];
  expect_invalid "Fop with comparison" [ Isa.Fop (Fpu_format.Feq, 0, 1, 2) ];
  expect_invalid "Fcmp with arithmetic" [ Isa.Fcmp (Fpu_format.Fadd, 0, 1, 2) ]

let test_asm_text () =
  let p = Isa.assemble [ Isa.Label "main"; Isa.Li (1, 3); Isa.Ecall 0 ] in
  let text = Isa.to_asm_text p in
  Alcotest.(check bool) "mentions label and li" true
    (String.length text > 0
    &&
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    contains "main:" text && contains "li x1, 3" text)

let functional () = Machine.create ~alu:Machine.Alu_functional ~fpu:Machine.Fpu_functional ()

let run_prog m instrs =
  Machine.reset m;
  Machine.run m (Isa.assemble instrs)

let check_outcome = Alcotest.(check (of_pp Machine.pp_outcome))

let test_arith_program () =
  let m = functional () in
  let out =
    run_prog m
      [
        Isa.Li (1, 20);
        Isa.Li (2, 22);
        Isa.Alu (Alu.Add, 3, 1, 2);
        Isa.Alui (Alu.Sll, 4, 3, 2);
        Isa.Ecall 0;
      ]
  in
  check_outcome "exits" (Machine.Exited 0) out;
  Alcotest.(check int) "add" 42 (Bitvec.to_int (Machine.reg m 3));
  Alcotest.(check int) "slli" 168 (Bitvec.to_int (Machine.reg m 4))

let test_x0_hardwired () =
  let m = functional () in
  let _ = run_prog m [ Isa.Li (0, 99); Isa.Ecall 0 ] in
  Alcotest.(check int) "x0 stays zero" 0 (Bitvec.to_int (Machine.reg m 0))

let test_loop_and_branches () =
  (* sum 1..10 *)
  let m = functional () in
  let out =
    run_prog m
      [
        Isa.Li (1, 10);
        Isa.Li (2, 0);
        Isa.Label "loop";
        Isa.Alu (Alu.Add, 2, 2, 1);
        Isa.Alui (Alu.Sub, 1, 1, 1);
        Isa.Bne (1, 0, "loop");
        Isa.Ecall 0;
      ]
  in
  check_outcome "exits" (Machine.Exited 0) out;
  Alcotest.(check int) "sum" 55 (Bitvec.to_int (Machine.reg m 2));
  Alcotest.(check bool) "cycles counted" true (Machine.cycles m > 30)

let test_memory () =
  let m = functional () in
  let _ =
    run_prog m
      [
        Isa.Li (1, 100);
        Isa.Li (2, 1234);
        Isa.Sw (2, 1, 4);
        Isa.Lw (3, 1, 4);
        Isa.Ecall 0;
      ]
  in
  Alcotest.(check int) "load returns store" 1234 (Bitvec.to_int (Machine.reg m 3));
  Alcotest.(check int) "memory content" 1234 (Bitvec.to_int (Machine.mem m 104))

let test_jal_jalr () =
  let m = functional () in
  let out =
    run_prog m
      [
        Isa.Jal (1, "sub");  (* index 0 *)
        Isa.Li (2, 7);  (* return lands here: index 1 *)
        Isa.Ecall 0;  (* 2 *)
        Isa.Label "sub";
        Isa.Li (3, 5);  (* 3 *)
        Isa.Jalr (0, 1);  (* 4 *)
      ]
  in
  check_outcome "exits" (Machine.Exited 0) out;
  Alcotest.(check int) "sub ran" 5 (Bitvec.to_int (Machine.reg m 3));
  Alcotest.(check int) "returned" 7 (Bitvec.to_int (Machine.reg m 2))

let test_fp_program () =
  let m = functional () in
  let f = Fpu_format.binary16 in
  let a = Bitvec.to_int (Fpu_format.of_float f 1.5) in
  let b = Bitvec.to_int (Fpu_format.of_float f 2.25) in
  let out =
    run_prog m
      [
        Isa.Li (1, a);
        Isa.Li (2, b);
        Isa.Fmv_wx (1, 1);
        Isa.Fmv_wx (2, 2);
        Isa.Fop (Fpu_format.Fadd, 3, 1, 2);
        Isa.Fcmp (Fpu_format.Flt, 4, 1, 2);
        Isa.Fmv_xw (5, 3);
        Isa.Ecall 0;
      ]
  in
  check_outcome "exits" (Machine.Exited 0) out;
  Alcotest.(check (float 1e-6)) "fadd" 3.75
    (Fpu_format.to_float f (Machine.freg m 3));
  Alcotest.(check int) "flt" 1 (Bitvec.to_int (Machine.reg m 4))

let test_fflags_sticky () =
  let m = functional () in
  let f = Fpu_format.binary16 in
  let nan = Bitvec.to_int (Fpu_format.qnan f) in
  let _ =
    run_prog m
      [
        Isa.Li (1, nan);
        Isa.Fmv_wx (1, 1);
        Isa.Fcmp (Fpu_format.Flt, 2, 1, 1);
        Isa.Csr_fflags 3;
        Isa.Csr_fflags 4;
        Isa.Ecall 0;
      ]
  in
  Alcotest.(check int) "invalid flag read" 1 (Bitvec.to_int (Machine.reg m 3));
  Alcotest.(check int) "flags cleared" 0 (Bitvec.to_int (Machine.reg m 4))

let test_op_stats () =
  let m = functional () in
  let _ =
    run_prog m
      [
        Isa.Li (1, 3);
        Isa.Li (2, 4);
        Isa.Alu (Alu.Add, 3, 1, 2);
        Isa.Alu (Alu.Add, 3, 3, 1);
        Isa.Alu (Alu.Xor_op, 4, 3, 2);
        Isa.Sw (3, 0, 50);
        Isa.Lw (5, 0, 50);
        Isa.Beq (1, 2, "skip");
        Isa.Beq (1, 1, "skip");
        Isa.Label "skip";
        Isa.Fmv_wx (0, 1);
        Isa.Ecall 0;
      ]
  in
  let s = Machine.op_stats m in
  Alcotest.(check int) "adds" 2 (List.assoc Alu.Add s.Machine.alu_ops);
  Alcotest.(check int) "xors" 1 (List.assoc Alu.Xor_op s.Machine.alu_ops);
  Alcotest.(check int) "loads" 1 s.Machine.loads;
  Alcotest.(check int) "stores" 1 s.Machine.stores;
  Alcotest.(check int) "branches" 2 s.Machine.branches;
  Alcotest.(check int) "taken" 1 s.Machine.branches_taken;
  Alcotest.(check int) "moves" 1 s.Machine.moves;
  Alcotest.(check bool) "no fpu arith" true (s.Machine.fpu_ops = [])

let test_out_of_fuel () =
  let m = functional () in
  Machine.reset m;
  let p = Isa.assemble [ Isa.Label "spin"; Isa.Jal (0, "spin") ] in
  check_outcome "out of fuel" Machine.Out_of_fuel (Machine.run ~max_instructions:100 m p)

(* --- netlist-backed execution --- *)

let alu16 = Alu.netlist ~width:16 ()
let fpu16 = Fpu.netlist ()

let netlist_machine () =
  Machine.create ~alu:(Machine.Alu_netlist alu16) ~fpu:(Machine.Fpu_netlist fpu16) ()

let test_netlist_backend_agrees () =
  let mf = functional () and mn = netlist_machine () in
  let prog =
    [
      Isa.Li (1, 123);
      Isa.Li (2, 45);
      Isa.Alu (Alu.Add, 3, 1, 2);
      Isa.Alu (Alu.Sub, 4, 1, 2);
      Isa.Alu (Alu.Xor_op, 5, 3, 4);
      Isa.Alu (Alu.Sltu, 6, 2, 1);
      Isa.Alui (Alu.Sra, 7, 1, 2);
      Isa.Fmv_wx (1, 1);
      Isa.Fmv_wx (2, 2);
      Isa.Fop (Fpu_format.Fmul, 3, 1, 2);
      Isa.Fmv_xw (8, 3);
      Isa.Ecall 0;
    ]
  in
  let o1 = run_prog mf prog and o2 = run_prog mn prog in
  check_outcome "both exit" o1 o2;
  for r = 1 to 8 do
    Alcotest.(check int)
      (Printf.sprintf "x%d agrees" r)
      (Bitvec.to_int (Machine.reg mf r))
      (Bitvec.to_int (Machine.reg mn r))
  done

let test_netlist_back_to_back_dependent () =
  (* dependent chain exercises the pipeline interlock *)
  let mn = netlist_machine () in
  let out =
    run_prog mn
      [
        Isa.Li (1, 1);
        Isa.Alu (Alu.Add, 2, 1, 1);
        Isa.Alu (Alu.Add, 3, 2, 2);
        Isa.Alu (Alu.Add, 4, 3, 3);
        Isa.Alu (Alu.Add, 5, 4, 4);
        Isa.Ecall 0;
      ]
  in
  check_outcome "exits" (Machine.Exited 0) out;
  Alcotest.(check int) "chain result" 16 (Bitvec.to_int (Machine.reg mn 5))

let test_faulty_alu_detected_by_test_branch () =
  (* break a result-rank register permanently (self-evident stuck fault via
     setup model with C=1 on a frequently toggling path) and check that a
     bne-based test case detects the wrong result *)
  let spec =
    {
      Fault.start_dff = "a_q0";
      end_dff = "r_q0";
      kind = Fault.Setup_violation;
      constant = Fault.C0;
      activation = Fault.Any_transition;
    }
  in
  let faulty = Fault.failing_netlist alu16 spec in
  let m = Machine.create ~alu:(Machine.Alu_netlist faulty) ~fpu:Machine.Fpu_functional () in
  Machine.reset m;
  (* toggle a[0] across instructions, expect 0+1 = 1 but r[0] captures C=0 *)
  let prog =
    Isa.assemble
      [
        Isa.Li (1, 0);
        Isa.Li (2, 1);
        Isa.Alu (Alu.Add, 3, 1, 2);  (* a=0 *)
        Isa.Alu (Alu.Add, 4, 2, 0);  (* a=1: transition on a_q0; 1+0=1 *)
        Isa.Li (5, 1);
        Isa.Bne (4, 5, "fail");
        Isa.Ecall 0;
        Isa.Label "fail";
        Isa.Ecall 1;
      ]
  in
  check_outcome "SDC detected" (Machine.Exited 1) (Machine.run m prog)

(* The oracle for a machine's compiled (Simc) ALU unit: run [instrs] on a
   profiled machine, recording for every ALU operation the unit cycle it
   issues at and the unit output visible just before; then replay the same
   input stream on a scalar Sim (inputs held through bubbles and drains).
   Every recorded output, the final output and the SP/toggle rate of every
   net must match bit for bit — what [Vega.aging_analysis] relies on when
   it reads its profile from the machine's unit.  Straight-line ALU code
   only, so every operation fires its hook right at issue. *)
let unit_replays_on_scalar instrs =
  let machine = ref None in
  let log = ref [] in
  let unit () = Option.get (Machine.alu_sim (Option.get !machine)) in
  let on_alu_op op a b =
    let u = unit () in
    log := (Simc.cycle u, Simc.output u ~lane:0 Alu.r_port, op, a, b) :: !log
  in
  let m =
    Machine.create ~profile_units:true ~on_alu_op ~alu:(Machine.Alu_netlist alu16)
      ~fpu:Machine.Fpu_functional ()
  in
  machine := Some m;
  ignore (run_prog m instrs);
  let u = unit () in
  let sim = Sim.create ~profile:true alu16 in
  let ok = ref true in
  let pending = ref (List.rev !log) in
  for c = 0 to Simc.cycle u - 1 do
    (match !pending with
    | (at, seen, op, a, b) :: rest when at = c ->
      if not (Bitvec.equal seen (Sim.output sim Alu.r_port)) then ok := false;
      Sim.set_input sim Alu.op_port (Bitvec.create ~width:4 (Alu.op_code op));
      Sim.set_input sim Alu.a_port a;
      Sim.set_input sim Alu.b_port b;
      pending := rest
    | _ -> ());
    Sim.step sim
  done;
  !ok && !pending = []
  && Bitvec.equal (Sim.output sim Alu.r_port) (Simc.output u ~lane:0 Alu.r_port)
  && Sim.samples sim = Simc.samples u
  && List.for_all
       (fun n -> Sim.sp sim n = Simc.sp u n && Sim.toggle_rate sim n = Simc.toggle_rate u n)
       (List.init (Netlist.num_nets alu16) Fun.id)

let test_compiled_unit_agrees () =
  Alcotest.(check bool) "Simc unit = scalar Sim replay (outputs, SP, toggles)" true
    (unit_replays_on_scalar
       [
         Isa.Li (1, 123);
         Isa.Li (2, 45);
         Isa.Alu (Alu.Add, 3, 1, 2);
         Isa.Alu (Alu.Sub, 4, 1, 2);
         Isa.Alu (Alu.Xor_op, 5, 3, 4);
         Isa.Alu (Alu.Sltu, 6, 2, 1);
         Isa.Alui (Alu.Sra, 7, 1, 2);
         Isa.Alu (Alu.Add, 8, 7, 7);
         Isa.Ecall 0;
       ])

let test_compiled_unit_detects_fault () =
  (* a fault-instrumented replica built with [Machine.make_unit_sim] and
     swapped in mid-run — the runtime guard's injection path — corrupts
     the very next result *)
  let spec =
    {
      Fault.start_dff = "a_q0";
      end_dff = "r_q0";
      kind = Fault.Setup_violation;
      constant = Fault.C0;
      activation = Fault.Any_transition;
    }
  in
  let m = Machine.create ~alu:(Machine.Alu_netlist alu16) ~fpu:Machine.Fpu_functional () in
  Machine.reset m;
  let replica = Machine.make_unit_sim (Fault.failing_netlist alu16 spec) in
  let golden = Machine.swap_alu_unit m (Some replica) in
  Alcotest.(check bool) "golden unit handed back" true (Option.is_some golden);
  let prog =
    Isa.assemble
      [
        Isa.Li (1, 0);
        Isa.Li (2, 1);
        Isa.Alu (Alu.Add, 3, 1, 2);
        Isa.Alu (Alu.Add, 4, 2, 0);
        Isa.Li (5, 1);
        Isa.Bne (4, 5, "fail");
        Isa.Ecall 0;
        Isa.Label "fail";
        Isa.Ecall 1;
      ]
  in
  check_outcome "SDC detected through the swapped-in replica" (Machine.Exited 1)
    (Machine.run m prog);
  (* the displaced golden unit resumes cleanly *)
  ignore (Machine.swap_alu_unit m golden);
  Machine.reset m;
  check_outcome "golden unit passes" (Machine.Exited 0) (Machine.run m prog)

let test_fpu_stall_watchdog () =
  (* kill the valid token: v_out captures 0 whenever v_q transitions *)
  let spec =
    {
      Fault.start_dff = "v_q";
      end_dff = "v_out";
      kind = Fault.Setup_violation;
      constant = Fault.C0;
      activation = Fault.Any_transition;
    }
  in
  let faulty = Fault.failing_netlist fpu16 spec in
  let m = Machine.create ~alu:Machine.Alu_functional ~fpu:(Machine.Fpu_netlist faulty) () in
  Machine.reset m;
  let prog =
    Isa.assemble
      [ Isa.Fop (Fpu_format.Fadd, 3, 1, 2); Isa.Fmv_xw (4, 3); Isa.Ecall 0 ]
  in
  check_outcome "stall detected" Machine.Stalled (Machine.run m prog)

(* Property: random straight-line ALU programs give identical register
   files on functional and netlist backends. *)
let prop_backends_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"functional and netlist backends agree"
       (QCheck.make ~print:(fun l -> String.concat ";" (List.map string_of_int l))
          QCheck.Gen.(list_size (int_range 1 15) (int_bound 10_000)))
       (fun seeds ->
         let mf = functional () and mn = netlist_machine () in
         let rng = Random.State.make (Array.of_list seeds) in
         let instrs =
           List.concat_map
             (fun _ ->
               let op = List.nth Alu.all_ops (Random.State.int rng 10) in
               let rd = 1 + Random.State.int rng 15 in
               let r1 = Random.State.int rng 16 and r2 = Random.State.int rng 16 in
               if Random.State.bool rng then [ Isa.Alu (op, rd, r1, r2) ]
               else [ Isa.Li (rd, Random.State.int rng 65536); Isa.Alu (op, rd, rd, r1) ])
             seeds
           @ [ Isa.Ecall 0 ]
         in
         let o1 = run_prog mf instrs and o2 = run_prog mn instrs in
         o1 = o2
         && List.for_all
              (fun r -> Bitvec.equal (Machine.reg mf r) (Machine.reg mn r))
              (List.init 16 (fun i -> i))))

(* Property: on random straight-line ALU programs, the machine's compiled
   unit and a scalar Sim replay of its input stream agree on every output
   and on the SP/toggle rate of every net. *)
let prop_unit_engines_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50 ~name:"scalar and compiled unit engines agree"
       (QCheck.make ~print:(fun l -> String.concat ";" (List.map string_of_int l))
          QCheck.Gen.(list_size (int_range 1 15) (int_bound 10_000)))
       (fun seeds ->
         let rng = Random.State.make (Array.of_list seeds) in
         let instrs =
           List.concat_map
             (fun _ ->
               let op = List.nth Alu.all_ops (Random.State.int rng 10) in
               let rd = 1 + Random.State.int rng 15 in
               let r1 = Random.State.int rng 16 and r2 = Random.State.int rng 16 in
               if Random.State.bool rng then [ Isa.Alu (op, rd, r1, r2) ]
               else [ Isa.Li (rd, Random.State.int rng 65536); Isa.Alu (op, rd, rd, r1) ])
             seeds
           @ [ Isa.Ecall 0 ]
         in
         unit_replays_on_scalar instrs))

(* Property: pausing mid-run, snapshotting, and restoring is exact — the
   completion reached after [restore] is bit-identical (outcome, registers,
   fp registers, memory, cycle count) to the one reached directly. *)
let prop_snapshot_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"snapshot/restore roundtrip is exact"
       (QCheck.make ~print:(fun l -> String.concat ";" (List.map string_of_int l))
          QCheck.Gen.(list_size (int_range 2 12) (int_bound 10_000)))
       (fun seeds ->
         let m = netlist_machine () in
         let rng = Random.State.make (Array.of_list seeds) in
         let instrs =
           List.concat_map
             (fun _ ->
               let op = List.nth Alu.all_ops (Random.State.int rng 10) in
               let rd = 1 + Random.State.int rng 15 in
               let r1 = Random.State.int rng 16 and r2 = Random.State.int rng 16 in
               [
                 Isa.Li (rd, Random.State.int rng 65536);
                 Isa.Alu (op, rd, rd, r1);
                 Isa.Sw (rd, 0, 4 * (1 + Random.State.int rng 8));
                 Isa.Alu (Alu.Add, r2 land 15, rd, r1);
               ])
             seeds
           @ [ Isa.Ecall 0 ]
         in
         let prog = Isa.assemble instrs in
         Machine.reset m;
         let budget = 1 + Random.State.int rng (Isa.length prog - 1) in
         match Machine.run_slice ~pc:0 ~budget m prog with
         | Machine.Completed _ -> QCheck.assume_fail ()  (* paused nowhere; trivial *)
         | Machine.Paused pc ->
           let snap = Machine.snapshot m in
           let observe () =
             let o =
               match Machine.run_slice ~pc ~budget:100_000 m prog with
               | Machine.Completed o -> o
               | Machine.Paused _ -> Machine.Out_of_fuel
             in
             ( o,
               List.init 16 (fun r -> Bitvec.to_int (Machine.reg m r)),
               List.init 16 (fun r -> Bitvec.to_int (Machine.freg m r)),
               List.init 16 (fun a -> Bitvec.to_int (Machine.mem m (4 * a))),
               Machine.cycles m,
               Machine.instructions_retired m )
           in
           let direct = observe () in
           Machine.restore m snap;
           let replayed = observe () in
           direct = replayed))

let () =
  Alcotest.run "machine"
    [
      ( "assembler",
        [
          Alcotest.test_case "labels" `Quick test_assemble_labels;
          Alcotest.test_case "validation" `Quick test_assemble_validation;
          Alcotest.test_case "asm text" `Quick test_asm_text;
        ] );
      ( "functional",
        [
          Alcotest.test_case "arith" `Quick test_arith_program;
          Alcotest.test_case "x0" `Quick test_x0_hardwired;
          Alcotest.test_case "loops" `Quick test_loop_and_branches;
          Alcotest.test_case "memory" `Quick test_memory;
          Alcotest.test_case "jal/jalr" `Quick test_jal_jalr;
          Alcotest.test_case "fp" `Quick test_fp_program;
          Alcotest.test_case "fflags" `Quick test_fflags_sticky;
          Alcotest.test_case "op stats" `Quick test_op_stats;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
        ] );
      ( "netlist backends",
        [
          Alcotest.test_case "agreement" `Quick test_netlist_backend_agrees;
          Alcotest.test_case "dependent chain" `Quick test_netlist_back_to_back_dependent;
          Alcotest.test_case "fault detection" `Quick test_faulty_alu_detected_by_test_branch;
          Alcotest.test_case "fpu stall watchdog" `Quick test_fpu_stall_watchdog;
          Alcotest.test_case "compiled unit agreement" `Quick test_compiled_unit_agrees;
          Alcotest.test_case "compiled unit fault detection" `Quick
            test_compiled_unit_detects_fault;
        ] );
      ("properties", [ prop_backends_agree; prop_unit_engines_agree; prop_snapshot_roundtrip ]);
    ]
