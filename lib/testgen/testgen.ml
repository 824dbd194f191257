(* Random.State.int rejects bounds >= 2^30; compose for wide words. *)
let rand_bits rng width =
  if width <= 30 then Random.State.int rng (1 lsl width)
  else (Random.State.bits rng lor (Random.State.bits rng lsl 30)) land ((1 lsl width) - 1)

let dummy_spec =
  {
    Fault.start_dff = "random";
    end_dff = "random";
    kind = Fault.Setup_violation;
    constant = Fault.C0;
    activation = Fault.Any_transition;
  }

let random_alu_case rng width i =
  let op = List.nth Alu.all_ops (Random.State.int rng (List.length Alu.all_ops)) in
  let a = rand_bits rng width in
  let b = rand_bits rng width in
  let expected =
    Bitvec.to_int
      (Alu.golden ~width op (Bitvec.create ~width a) (Bitvec.create ~width b))
  in
  {
    Lift.tc_id = Printf.sprintf "random_alu_%d" i;
    tc_spec = dummy_spec;
    tc_body = Lift.Alu_test [ { Lift.a_op = op; a_lhs = a; a_rhs = b; a_expected = expected } ];
    tc_may_stall = false;
    tc_checks_flags = false;
  }

let random_fpu_case rng fmt i =
  let w = Fpu_format.width fmt in
  let op =
    List.nth Fpu_format.all_ops (Random.State.int rng (List.length Fpu_format.all_ops))
  in
  let a = rand_bits rng w in
  let b = rand_bits rng w in
  let r, fl = Softfloat.apply fmt op (Bitvec.create ~width:w a) (Bitvec.create ~width:w b) in
  {
    Lift.tc_id = Printf.sprintf "random_fpu_%d" i;
    tc_spec = dummy_spec;
    tc_body =
      Lift.Fpu_test
        [ { Lift.f_op = op; f_lhs = a; f_rhs = b; f_expected = Bitvec.to_int r; f_flags = fl } ];
    tc_may_stall = false;
    tc_checks_flags = true;
  }

let random_alu_suite ?(seed = 0xA11) ~width ~cases () =
  let rng = Random.State.make [| seed |] in
  {
    Lift.suite_target = Lift.Alu_module { width };
    suite_cases = List.init cases (random_alu_case rng width);
  }

let random_fpu_suite ?(seed = 0xF16) ~fmt ~cases () =
  let rng = Random.State.make [| seed |] in
  {
    Lift.suite_target = Lift.Fpu_module { fmt };
    suite_cases = List.init cases (random_fpu_case rng fmt);
  }

let matched_suite ?(seed = 0x3a7c) (suite : Lift.suite) =
  let cases = List.length suite.Lift.suite_cases in
  match suite.Lift.suite_target with
  | Lift.Alu_module { width } -> random_alu_suite ~seed ~width ~cases ()
  | Lift.Fpu_module { fmt } -> random_fpu_suite ~seed ~fmt ~cases ()

(* A uniformly random unit-operation stream in the [Vega.recorded_unit_ops]
   assignment format — the random baseline (and mutation pool) of the
   adversarial stress search. *)
let random_unit_op rng (kind : Lift.module_kind) =
  match kind with
  | Lift.Alu_module { width } ->
    let op = List.nth Alu.all_ops (Random.State.int rng (List.length Alu.all_ops)) in
    [
      (Alu.op_port, Bitvec.create ~width:4 (Alu.op_code op));
      (Alu.a_port, Bitvec.create ~width (rand_bits rng width));
      (Alu.b_port, Bitvec.create ~width (rand_bits rng width));
    ]
  | Lift.Fpu_module { fmt } ->
    let w = Fpu_format.width fmt in
    let op =
      List.nth Fpu_format.all_ops (Random.State.int rng (List.length Fpu_format.all_ops))
    in
    [
      (Fpu.op_port, Bitvec.create ~width:3 (Fpu_format.op_code op));
      (Fpu.a_port, Bitvec.create ~width:w (rand_bits rng w));
      (Fpu.b_port, Bitvec.create ~width:w (rand_bits rng w));
      (Fpu.in_valid_port, Bitvec.create ~width:1 1);
    ]

let random_unit_ops ?(seed = 0xa77ac) ~len (kind : Lift.module_kind) =
  if len < 0 then invalid_arg "Testgen.random_unit_ops: len must be non-negative";
  let rng = Random.State.make [| seed |] in
  Array.init len (fun _ -> random_unit_op rng kind)

let random_baseline_detection ?(seed = 0x7ab1e) ~runs (suite : Lift.suite) faulty =
  if runs <= 0 then invalid_arg "Testgen.random_baseline_detection: runs must be positive";
  let detected = ref 0 in
  for run = 0 to runs - 1 do
    (* distinct deterministic seed per run, derived from the base seed *)
    let s = matched_suite ~seed:(seed + (run * 7919)) suite in
    if Lift.detects ~seed:(seed lxor run) s faulty then incr detected
  done;
  float_of_int !detected /. float_of_int runs

let scoap_ranked_pairs nl pairs =
  match pairs with
  | [] -> []
  | _ ->
    let t = Scoap.analyze nl in
    let launch_net = function
      | Sta.From_dff xid -> (Netlist.cell nl xid).Netlist.output
      | Sta.From_input (port, bit) -> Netlist.net_of_port_bit nl port bit
    in
    let difficulty (sp, Sta.At_dff yid, _, _) =
      let l = launch_net sp in
      let q = (Netlist.cell nl yid).Netlist.output in
      Scoap.cc0 t l + Scoap.cc1 t l + Scoap.co t q
    in
    let keyed = List.map (fun p -> (difficulty p, p)) pairs in
    List.stable_sort (fun (da, _) (db, _) -> compare db da) keyed |> List.map snd
