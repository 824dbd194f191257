(* Tests for the floating-point substrate: the format module, the golden
   softfloat model, and exhaustive gate-vs-golden cross-checks. *)

module F = Fpu_format

let tiny = F.tiny
let b16 = F.binary16

let bv w v = Bitvec.create ~width:w v

let test_format_basics () =
  Alcotest.(check int) "binary16 width" 16 (F.width b16);
  Alcotest.(check int) "binary16 bias" 15 (F.bias b16);
  Alcotest.(check int) "tiny width" 6 (F.width tiny);
  Alcotest.(check bool) "qnan is nan" true (F.is_nan b16 (F.qnan b16));
  Alcotest.(check bool) "inf is inf" true (F.is_inf b16 (F.infinity b16 ~sign:true));
  Alcotest.(check bool) "zero is zero" true (F.is_zero b16 (F.zero b16 ~sign:false));
  Alcotest.(check (float 1e-9)) "one" 1.0 (F.to_float b16 (F.one b16))

let test_float_roundtrip () =
  List.iter
    (fun x ->
      let v = F.of_float b16 x in
      let back = F.to_float b16 v in
      Alcotest.(check bool)
        (Printf.sprintf "%g roundtrips closely" x)
        true
        (Float.abs (back -. x) <= Float.abs x *. 0.001))
    [ 1.0; -2.5; 0.125; 3.1415; -1000.0; 65000.0 ]

let test_float_conversion_specials () =
  Alcotest.(check bool) "nan" true (Float.is_nan (F.to_float b16 (F.of_float b16 Float.nan)));
  Alcotest.(check (float 0.0)) "inf" Float.infinity (F.to_float b16 (F.of_float b16 1e10));
  Alcotest.(check (float 0.0)) "neg inf saturates" Float.neg_infinity
    (F.to_float b16 (F.of_float b16 (-1e10)));
  Alcotest.(check (float 0.0)) "tiny flushes to zero" 0.0 (F.to_float b16 (F.of_float b16 1e-8))

let test_op_codes () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "roundtrip" true (F.op_of_code (F.op_code op) = Some op);
      Alcotest.(check bool) "name" true (F.op_of_name (F.op_name op) = Some op))
    F.all_ops

let test_flags_roundtrip () =
  for v = 0 to 15 do
    Alcotest.(check int) "flags int roundtrip" v (F.flags_to_int (F.flags_of_int v))
  done

(* softfloat semantic spot checks against real float arithmetic *)
let test_softfloat_semantics () =
  let check_binop name op fop cases =
    List.iter
      (fun (x, y) ->
        let a = F.of_float b16 x and b = F.of_float b16 y in
        let r, _ = Softfloat.apply b16 op a b in
        let expect = fop x y in
        let got = F.to_float b16 r in
        if Float.is_nan expect then
          Alcotest.(check bool) (Printf.sprintf "%s %g %g nan" name x y) true (Float.is_nan got)
        else
          Alcotest.(check bool)
            (Printf.sprintf "%s %g %g = %g (got %g)" name x y expect got)
            true
            (Float.abs (got -. expect) <= Float.abs expect *. 0.01 +. 1e-6))
      cases
  in
  check_binop "fadd" F.Fadd ( +. ) [ (1.0, 2.0); (-1.5, 0.5); (100.0, 0.25); (0.0, -0.0) ];
  check_binop "fsub" F.Fsub ( -. ) [ (3.0, 1.0); (1.0, 1.0); (-2.0, 5.0) ];
  check_binop "fmul" F.Fmul ( *. ) [ (2.0, 3.0); (-4.0, 0.5); (0.1, 0.1) ]

let test_softfloat_specials () =
  let inf = F.infinity b16 ~sign:false and ninf = F.infinity b16 ~sign:true in
  let nan = F.qnan b16 in
  let one = F.one b16 in
  let r, fl = Softfloat.add b16 inf ninf in
  Alcotest.(check bool) "inf - inf is nan" true (F.is_nan b16 r);
  Alcotest.(check bool) "invalid raised" true fl.F.invalid;
  let r, fl = Softfloat.mul b16 inf (F.zero b16 ~sign:false) in
  Alcotest.(check bool) "inf * 0 is nan" true (F.is_nan b16 r);
  Alcotest.(check bool) "invalid" true fl.F.invalid;
  let r, _ = Softfloat.add b16 one nan in
  Alcotest.(check bool) "nan propagates" true (F.is_nan b16 r);
  let eqr, eqf = Softfloat.eq b16 nan nan in
  Alcotest.(check bool) "nan != nan" false eqr;
  Alcotest.(check bool) "feq quiet" false eqf.F.invalid;
  let ltr, ltf = Softfloat.lt b16 nan one in
  Alcotest.(check bool) "nan < x false" false ltr;
  Alcotest.(check bool) "flt signaling" true ltf.F.invalid

let test_softfloat_minmax_zero_signs () =
  let pz = F.zero b16 ~sign:false and nz = F.zero b16 ~sign:true in
  let mn, _ = Softfloat.min_f b16 pz nz in
  Alcotest.(check bool) "min(+0,-0) = -0" true (F.sign_of b16 mn);
  let mx, _ = Softfloat.max_f b16 nz pz in
  Alcotest.(check bool) "max(-0,+0) = +0" false (F.sign_of b16 mx);
  let one = F.one b16 and nan = F.qnan b16 in
  let mn, _ = Softfloat.min_f b16 nan one in
  Alcotest.(check bool) "min(nan, 1) = 1" true (Bitvec.equal mn one)

let test_softfloat_overflow_underflow () =
  (* largest normal * 2 overflows *)
  let big = F.pack b16 ~sign:false ~exp:(F.exp_max b16 - 1) ~man:((1 lsl 10) - 1) in
  let two = F.of_float b16 2.0 in
  let r, fl = Softfloat.mul b16 big two in
  Alcotest.(check bool) "overflow to inf" true (F.is_inf b16 r);
  Alcotest.(check bool) "overflow flag" true fl.F.overflow;
  (* smallest normal * 0.5 underflows to zero (FTZ) *)
  let small = F.pack b16 ~sign:false ~exp:1 ~man:0 in
  let half = F.of_float b16 0.5 in
  let r, fl = Softfloat.mul b16 small half in
  Alcotest.(check bool) "underflow to zero" true (F.is_zero b16 r);
  Alcotest.(check bool) "underflow flag" true fl.F.underflow

(* --- gate level vs golden --- *)

let run_fpu fmt sim op a b =
  Sim.set_input sim Fpu.op_port (bv 3 (F.op_code op));
  Sim.set_input sim Fpu.a_port a;
  Sim.set_input sim Fpu.b_port b;
  Sim.set_input sim Fpu.in_valid_port (bv 1 1);
  Sim.step sim;
  Sim.step sim;
  ignore fmt;
  (Sim.output sim Fpu.r_port, Sim.output sim Fpu.flags_port)

let test_gate_vs_golden_tiny_exhaustive () =
  let nl = Fpu.netlist ~fmt:tiny () in
  let sim = Sim.create nl in
  let w = F.width tiny in
  List.iter
    (fun op ->
      for a = 0 to (1 lsl w) - 1 do
        for b = 0 to (1 lsl w) - 1 do
          let va = bv w a and vb = bv w b in
          let expect_r, expect_fl = Softfloat.apply tiny op va vb in
          let got_r, got_fl = run_fpu tiny sim op va vb in
          if not (Bitvec.equal expect_r got_r) then
            Alcotest.failf "%s %s %s: expected %s got %s" (F.op_name op) (Bitvec.to_string va)
              (Bitvec.to_string vb) (Bitvec.to_string expect_r) (Bitvec.to_string got_r);
          if F.flags_to_int expect_fl <> Bitvec.to_int got_fl then
            Alcotest.failf "%s %s %s: flags expected %d got %d" (F.op_name op)
              (Bitvec.to_string va) (Bitvec.to_string vb) (F.flags_to_int expect_fl)
              (Bitvec.to_int got_fl)
        done
      done)
    F.all_ops

let test_fpu_structure () =
  let nl = Fpu.netlist () in
  Alcotest.(check bool) "thousands of cells" true (Netlist.num_cells nl > 2500);
  Alcotest.(check (option int)) "pipeline depth 2" (Some 2) (Formal.sequential_depth nl);
  ignore (Netlist.find_cell nl "v_out");
  ignore (Netlist.find_cell nl "r_q0")

let test_valid_chain () =
  let nl = Fpu.netlist ~fmt:tiny () in
  let sim = Sim.create nl in
  Alcotest.(check int) "idle invalid" 0 (Bitvec.to_int (Sim.output sim Fpu.valid_port));
  Sim.set_input sim Fpu.in_valid_port (bv 1 1);
  Sim.step sim;
  Sim.set_input sim Fpu.in_valid_port (bv 1 0);
  Alcotest.(check int) "after one cycle still pending" 0
    (Bitvec.to_int (Sim.output sim Fpu.valid_port));
  Sim.step sim;
  Alcotest.(check int) "valid after latency" 1 (Bitvec.to_int (Sim.output sim Fpu.valid_port));
  Sim.step sim;
  Alcotest.(check int) "token drains" 0 (Bitvec.to_int (Sim.output sim Fpu.valid_port))

let gen_b16_interesting =
  QCheck.Gen.(
    frequency
      [
        (6, int_bound 65535);
        (1, return 0);
        (1, return 0x8000);  (* -0 *)
        (1, return 0x7C00);  (* +inf *)
        (1, return 0xFC00);  (* -inf *)
        (1, return 0x7E00);  (* qnan *)
        (1, return 0x0001);  (* ftz-denormal encoding *)
      ])

let prop_gate_vs_golden_b16 =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"binary16 gate FPU matches golden"
       (QCheck.make
          ~print:(fun (o, a, b) -> Printf.sprintf "op=%d a=%04x b=%04x" o a b)
          QCheck.Gen.(triple (int_bound 7) gen_b16_interesting gen_b16_interesting))
       (let nl = Fpu.netlist () in
        let sim = Sim.create nl in
        fun (o, a, b) ->
          let op = Option.get (F.op_of_code o) in
          let va = bv 16 a and vb = bv 16 b in
          let expect_r, expect_fl = Softfloat.apply b16 op va vb in
          let got_r, got_fl = run_fpu b16 sim op va vb in
          Bitvec.equal expect_r got_r && F.flags_to_int expect_fl = Bitvec.to_int got_fl))

(* Same sweep through both engines: each random case occupies one compiled
   (Simc) lane (in_valid driven per lane), and lane k's result and flags must
   match both the scalar engine and the golden model. *)
let prop_b16_both_engines =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30 ~name:"binary16 FPU: scalar and 64-lane engines agree"
       (QCheck.make
          ~print:(fun l ->
            String.concat ";"
              (List.map (fun (o, a, b) -> Printf.sprintf "(%d,%04x,%04x)" o a b) l))
          QCheck.Gen.(
            list_size (int_range 1 Simc.lanes)
              (triple (int_bound 7) gen_b16_interesting gen_b16_interesting)))
       (let nl = Fpu.netlist () in
        let sim = Sim.create nl in
        let sc = Simc.create nl in
        fun cases ->
          Simc.reset sc;
          List.iteri
            (fun lane (o, a, b) ->
              Simc.set_input sc ~lane Fpu.op_port (bv 3 o);
              Simc.set_input sc ~lane Fpu.a_port (bv 16 a);
              Simc.set_input sc ~lane Fpu.b_port (bv 16 b);
              Simc.set_input sc ~lane Fpu.in_valid_port (bv 1 1))
            cases;
          Simc.step sc;
          Simc.step sc;
          let ok = ref true in
          List.iteri
            (fun lane (o, a, b) ->
              let op = Option.get (F.op_of_code o) in
              let va = bv 16 a and vb = bv 16 b in
              let expect_r, expect_fl = Softfloat.apply b16 op va vb in
              let got_r, got_fl = run_fpu b16 sim op va vb in
              let r_lane = Simc.output sc ~lane Fpu.r_port in
              let fl_lane = Simc.output sc ~lane Fpu.flags_port in
              if
                not
                  (Bitvec.equal expect_r got_r
                  && Bitvec.equal expect_r r_lane
                  && F.flags_to_int expect_fl = Bitvec.to_int got_fl
                  && Bitvec.to_int got_fl = Bitvec.to_int fl_lane)
              then ok := false)
            cases;
          !ok))

let prop_softfloat_add_commutes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"softfloat add commutes"
       (QCheck.make
          ~print:(fun (a, b) -> Printf.sprintf "a=%04x b=%04x" a b)
          QCheck.Gen.(pair gen_b16_interesting gen_b16_interesting))
       (fun (a, b) ->
         let va = bv 16 a and vb = bv 16 b in
         let r1, _ = Softfloat.add b16 va vb and r2, _ = Softfloat.add b16 vb va in
         Bitvec.equal r1 r2))

let prop_softfloat_mul_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"x * 1 = x for finite normals"
       (QCheck.make ~print:(Printf.sprintf "%04x") gen_b16_interesting)
       (fun a ->
         let va = bv 16 a in
         QCheck.assume (not (F.is_nan b16 va) && not (F.is_zero b16 va) && not (F.is_inf b16 va));
         let r, fl = Softfloat.mul b16 va (F.one b16) in
         Bitvec.equal r va && not fl.F.inexact))

let () =
  Alcotest.run "fpu"
    [
      ( "format",
        [
          Alcotest.test_case "basics" `Quick test_format_basics;
          Alcotest.test_case "float roundtrip" `Quick test_float_roundtrip;
          Alcotest.test_case "conversion specials" `Quick test_float_conversion_specials;
          Alcotest.test_case "op codes" `Quick test_op_codes;
          Alcotest.test_case "flags roundtrip" `Quick test_flags_roundtrip;
        ] );
      ( "softfloat",
        [
          Alcotest.test_case "semantics vs real floats" `Quick test_softfloat_semantics;
          Alcotest.test_case "specials" `Quick test_softfloat_specials;
          Alcotest.test_case "minmax zero signs" `Quick test_softfloat_minmax_zero_signs;
          Alcotest.test_case "overflow underflow" `Quick test_softfloat_overflow_underflow;
        ] );
      ( "gate level",
        [
          Alcotest.test_case "tiny format exhaustive" `Slow test_gate_vs_golden_tiny_exhaustive;
          Alcotest.test_case "structure" `Quick test_fpu_structure;
          Alcotest.test_case "valid chain" `Quick test_valid_chain;
        ] );
      ( "properties",
        [
          prop_gate_vs_golden_b16;
          prop_b16_both_engines;
          prop_softfloat_add_commutes;
          prop_softfloat_mul_identity;
        ]
      );
    ]
