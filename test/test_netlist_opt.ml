(* Tests for the netlist optimizer, with the CEC checker that validates
   it. *)

module B = Netlist.Builder

let contains_kind nl kind =
  List.mem_assoc kind (Netlist.stats nl)

let test_constant_folding () =
  (* y = (x AND 0) OR (x XOR x) OR z  ==>  y = z *)
  let b = B.create "fold" in
  let x = B.add_input b "x" 1 in
  let z = B.add_input b "z" 1 in
  let zero = B.add_cell b Cell.Kind.Tie0 [||] in
  let a1 = B.add_cell b Cell.Kind.And2 [| x.(0); zero |] in
  let a2 = B.add_cell b Cell.Kind.Xor2 [| x.(0); x.(0) |] in
  let o1 = B.add_cell b Cell.Kind.Or2 [| a1; a2 |] in
  let o2 = B.add_cell b Cell.Kind.Or2 [| o1; z.(0) |] in
  B.add_output b "y" [| o2 |];
  let nl = B.finish b in
  let opt, stats = Netlist_opt.optimize nl in
  Alcotest.(check bool) "folded some" true (stats.Netlist_opt.folded >= 3);
  Alcotest.(check bool) "shrank" true
    (stats.Netlist_opt.cells_after < stats.Netlist_opt.cells_before);
  (* semantics preserved: y = z for all inputs *)
  let sim = Sim.create opt in
  List.iter
    (fun (xv, zv) ->
      Sim.set_input_bit sim "x" 0 xv;
      Sim.set_input_bit sim "z" 0 zv;
      Sim.settle sim;
      Alcotest.(check bool) "y = z" zv (Bitvec.bit (Sim.output sim "y") 0))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_buffer_elimination () =
  let b = B.create "bufs" in
  let x = B.add_input b "x" 1 in
  let b1 = B.add_cell b Cell.Kind.Buf [| x.(0) |] in
  let b2 = B.add_cell b Cell.Kind.Buf [| b1 |] in
  let b3 = B.add_cell b Cell.Kind.Buf [| b2 |] in
  let n1 = B.add_cell b Cell.Kind.Not [| b3 |] in
  B.add_output b "y" [| n1 |];
  let nl = B.finish b in
  let opt, _ = Netlist_opt.optimize nl in
  Alcotest.(check bool) "no buffers left" false (contains_kind opt Cell.Kind.Buf);
  Alcotest.(check int) "single NOT remains" 1 (Netlist.num_cells opt)

let test_dead_code () =
  let b = B.create "dead" in
  let x = B.add_input b "x" 2 in
  let used = B.add_cell ~name:"used" b Cell.Kind.And2 [| x.(0); x.(1) |] in
  let _dead1 = B.add_cell ~name:"dead1" b Cell.Kind.Or2 [| x.(0); x.(1) |] in
  let dead2 = B.add_cell ~name:"dead2" b Cell.Kind.Dff ~clock_domain:0 [| x.(0) |] in
  ignore dead2;
  B.add_output b "y" [| used |];
  let nl = B.finish b in
  let opt, stats = Netlist_opt.optimize nl in
  Alcotest.(check int) "only the used gate" 1 (Netlist.num_cells opt);
  Alcotest.(check bool) "dead counted" true (stats.Netlist_opt.dead_removed >= 2);
  ignore (Netlist.find_cell opt "used")

let test_mux_folding () =
  let b = B.create "mux" in
  let x = B.add_input b "x" 2 in
  let one = B.add_cell b Cell.Kind.Tie1 [||] in
  let m = B.add_cell b Cell.Kind.Mux2 [| x.(0); x.(1); one |] in
  B.add_output b "y" [| m |];
  let nl = B.finish b in
  let opt, _ = Netlist_opt.optimize nl in
  Alcotest.(check bool) "mux folded away" false (contains_kind opt Cell.Kind.Mux2);
  let sim = Sim.create opt in
  Sim.set_input sim "x" (Bitvec.create ~width:2 2);
  Sim.settle sim;
  Alcotest.(check int) "selects input 1" 1 (Bitvec.to_int (Sim.output sim "y"))

let test_fault_instrumentation_cleanup () =
  (* instrumented netlists carry tie cells and dead shadow logic once the
     shadow ports are dropped; optimizing the failing netlist must preserve
     its behaviour *)
  let adder = Example_circuits.pipelined_adder () in
  let faulty =
    Fault.failing_netlist adder
      {
        Fault.start_dff = "$4";
        end_dff = "$10";
        kind = Fault.Setup_violation;
        constant = Fault.C0;
        activation = Fault.Any_transition;
      }
  in
  let opt, _ = Netlist_opt.optimize faulty in
  match Cec.check faulty opt with
  | Cec.Equivalent -> ()
  | v -> Alcotest.failf "not proven: %s" (Cec.describe v)

let test_equivalence_positive () =
  let adder = Example_circuits.pipelined_adder () in
  let opt, _ = Netlist_opt.optimize adder in
  (match Cec.check adder opt with
  | Cec.Equivalent -> ()
  | v -> Alcotest.failf "optimizer broke the adder: %s" (Cec.describe v));
  (* an ALU survives optimization too, proven equivalent *)
  let alu = Alu.netlist ~width:4 () in
  let alu_opt, stats = Netlist_opt.optimize alu in
  Alcotest.(check bool) "alu shrinks a little" true
    (stats.Netlist_opt.cells_after <= stats.Netlist_opt.cells_before);
  match Cec.check alu alu_opt with
  | Cec.Equivalent -> ()
  | v -> Alcotest.failf "ALU not proven: %s" (Cec.describe v)

let test_equivalence_negative () =
  (* a failing netlist is NOT equivalent to the healthy one, and the
     counterexample names the comparison point that differs *)
  let adder = Example_circuits.pipelined_adder () in
  let faulty =
    Fault.failing_netlist adder
      {
        Fault.start_dff = "$4";
        end_dff = "$10";
        kind = Fault.Setup_violation;
        constant = Fault.C0;
        activation = Fault.Any_transition;
      }
  in
  match Cec.check adder faulty with
  | Cec.Inequivalent cex -> Alcotest.(check bool) "named site" true (cex.Cec.cex_site <> "")
  | Cec.Equivalent -> Alcotest.fail "fault declared equivalent"
  | Cec.Unknown -> Alcotest.fail "inconclusive"

let test_equivalence_interface_check () =
  let adder = Example_circuits.pipelined_adder () in
  let chain = Example_circuits.dff_chain 2 in
  match Cec.check adder chain with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched interfaces accepted"

(* Property: optimization preserves behaviour on random circuits, verified
   by the CEC checker. *)
let prop_optimize_preserves =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"optimize is equivalence-preserving"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let b = B.create "rnd" in
         let x = B.add_input b "x" 3 in
         let tie = B.add_cell b (if Random.State.bool rng then Cell.Kind.Tie0 else Cell.Kind.Tie1) [||] in
         let nets = ref [ x.(0); x.(1); x.(2); tie ] in
         for _ = 1 to 6 + Random.State.int rng 10 do
           let pick () = List.nth !nets (Random.State.int rng (List.length !nets)) in
           let kind =
             match Random.State.int rng 8 with
             | 0 -> Cell.Kind.And2
             | 1 -> Cell.Kind.Or2
             | 2 -> Cell.Kind.Xor2
             | 3 -> Cell.Kind.Not
             | 4 -> Cell.Kind.Buf
             | 5 -> Cell.Kind.Mux2
             | 6 -> Cell.Kind.Nand2
             | _ -> Cell.Kind.Dff
           in
           let inputs = Array.init (Cell.Kind.arity kind) (fun _ -> pick ()) in
           let out =
             if Cell.Kind.is_sequential kind then B.add_cell ~clock_domain:0 b kind inputs
             else B.add_cell b kind inputs
           in
           nets := out :: !nets
         done;
         B.add_output b "y" [| List.hd !nets |];
         let nl = B.finish b in
         let opt, _ = Netlist_opt.optimize nl in
         match Cec.check nl opt with
         | Cec.Equivalent | Cec.Unknown -> true
         | Cec.Inequivalent _ -> false))

let () =
  Alcotest.run "netlist_opt"
    [
      ( "optimizer",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "buffer elimination" `Quick test_buffer_elimination;
          Alcotest.test_case "dead code" `Quick test_dead_code;
          Alcotest.test_case "mux folding" `Quick test_mux_folding;
          Alcotest.test_case "fault instrumentation cleanup" `Quick
            test_fault_instrumentation_cleanup;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "positive" `Quick test_equivalence_positive;
          Alcotest.test_case "negative" `Quick test_equivalence_negative;
          Alcotest.test_case "interface check" `Quick test_equivalence_interface_check;
        ] );
      ("properties", [ prop_optimize_preserves ]);
    ]
