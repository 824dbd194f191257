type profile = (string * int) list

let profile m (compiled : Minic.compiled) =
  let prog = Minic.assemble compiled in
  let block_addr =
    List.map
      (fun (b : Minic.block_info) -> (b.Minic.bb_label, Isa.label_address prog b.Minic.bb_label))
      compiled.Minic.blocks
  in
  let counts = Hashtbl.create 64 in
  let watched = Hashtbl.create 64 in
  List.iter (fun (_, addr) -> Hashtbl.replace watched addr ()) block_addr;
  Machine.reset m;
  let on_instr pc =
    if Hashtbl.mem watched pc then
      Hashtbl.replace counts pc (1 + Option.value ~default:0 (Hashtbl.find_opt counts pc))
  in
  (match Machine.run ~max_instructions:5_000_000 ~on_instr m prog with
  | Machine.Exited 0 -> ()
  | o ->
    invalid_arg
      (Format.asprintf "Integrate.profile: program did not exit cleanly (%a)" Machine.pp_outcome
         o));
  List.map
    (fun (label, addr) -> (label, Option.value ~default:0 (Hashtbl.find_opt counts addr)))
    block_addr

let dynamic_instructions (compiled : Minic.compiled) profile =
  List.fold_left
    (fun acc (b : Minic.block_info) ->
      let count = Option.value ~default:0 (List.assoc_opt b.Minic.bb_label profile) in
      acc + (count * b.Minic.bb_static_size))
    0 compiled.Minic.blocks

type plan = {
  chosen_block : string;
  block_count : int;
  gate : int option;
  test_static_size : int;
  estimated_overhead : float;
}

(* register save/restore around the spliced tests *)
let saved_int_regs = [ 5; 6; 7; 8; 9; 10; 11; 12 ]
let saved_float_regs = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let save_instrs () =
  List.mapi (fun k r -> Isa.Sw (r, 0, Minic.save_area_base + k)) saved_int_regs
  @ List.mapi
      (fun k r -> Isa.Fsw (r, 0, Minic.save_area_base + List.length saved_int_regs + k))
      saved_float_regs

let restore_instrs () =
  List.mapi (fun k r -> Isa.Lw (r, 0, Minic.save_area_base + k)) saved_int_regs
  @ List.mapi
      (fun k r -> Isa.Flw (r, 0, Minic.save_area_base + List.length saved_int_regs + k))
      saved_float_regs

let gate_instrs ~gate ~skip_label =
  match gate with
  | None -> []
  | Some k ->
    if k land (k - 1) <> 0 then invalid_arg "Integrate: gate must be a power of two";
    let cnt = Minic.counter_area_base in
    [
      Isa.Lw (5, 0, cnt);
      Isa.Alui (Alu.Add, 5, 5, 1);
      Isa.Sw (5, 0, cnt);
      Isa.Alui (Alu.And_op, 5, 5, k - 1);
      Isa.Bne (5, 0, skip_label);
    ]

let splice_block ~suite ~gate ~fail_label ~skip_label =
  save_instrs ()
  @ gate_instrs ~gate ~skip_label
  @ Lift.suite_instrs ~fail_label suite
  @ [ Isa.Label skip_label ]
  @ restore_instrs ()

let round_up_pow2 x =
  let rec go k = if k >= x then k else go (2 * k) in
  go 1

let plan_integration ?(overhead_threshold = 0.02) ~(compiled : Minic.compiled) ~profile ~suite
    () =
  if suite.Lift.suite_cases = [] then invalid_arg "Integrate.plan_integration: empty suite";
  let total = dynamic_instructions compiled profile in
  if total <= 0 then invalid_arg "Integrate.plan_integration: empty profile";
  let test_static_size =
    List.length (splice_block ~suite ~gate:(Some 2) ~fail_label:"f" ~skip_label:"s") - 1
  in
  let executed =
    List.filter (fun (_, c) -> c > 0) profile
    (* the entry stub runs exactly once and is not a routine location *)
    |> List.filter (fun (l, _) -> l <> "__start")
  in
  if executed = [] then invalid_arg "Integrate.plan_integration: no routinely executed block";
  let est count = float_of_int (count * test_static_size) /. float_of_int total in
  let by_count_desc = List.sort (fun (_, a) (_, b) -> compare b a) executed in
  match List.find_opt (fun (_, c) -> est c <= overhead_threshold) by_count_desc with
  | Some (label, count) ->
    {
      chosen_block = label;
      block_count = count;
      gate = None;
      test_static_size;
      estimated_overhead = est count;
    }
  | None ->
    (* even the coldest routine block is too hot: gate the tests *)
    let label, count =
      List.fold_left
        (fun (bl, bc) (l, c) -> if c < bc then (l, c) else (bl, bc))
        (List.hd by_count_desc) (List.tl by_count_desc)
    in
    let raw = est count in
    let k = round_up_pow2 (int_of_float (Float.ceil (raw /. overhead_threshold))) in
    {
      chosen_block = label;
      block_count = count;
      gate = Some k;
      test_static_size;
      estimated_overhead = raw /. float_of_int k;
    }

let fail_label = "__vega_detect"

let instrument ~(compiled : Minic.compiled) ~suite ~(plan : plan) =
  let skip_label = "__vega_skip" in
  let splice = splice_block ~suite ~gate:plan.gate ~fail_label ~skip_label in
  let found = ref false in
  let code =
    List.concat_map
      (fun instr ->
        match instr with
        | Isa.Label l when String.equal l plan.chosen_block && not !found ->
          found := true;
          instr :: splice
        | _ -> [ instr ])
      compiled.Minic.code
  in
  if not !found then
    invalid_arg (Printf.sprintf "Integrate.instrument: no block named %s" plan.chosen_block);
  code @ [ Isa.Label fail_label; Isa.Ecall Isa.exit_sdc ]

(* ---- the software aging library ---- *)

let emit_c_library ?(name = "vega_aging") suite =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "/* %s: aging-related SDC test library, generated by Vega.\n" name;
  add " * Each function returns 0 when the hardware behaved correctly and 1\n";
  add " * when a test case detected a miscomputation. */\n\n";
  add "#include <stdint.h>\n\n";
  let case_fn i (tc : Lift.test_case) =
    add "/* target: %s */\n" tc.Lift.tc_id;
    add "static inline int %s_case_%d(void) {\n" name i;
    add "  int detected = 0;\n";
    add "  __asm__ volatile (\n";
    List.iter
      (fun instr ->
        match instr with
        | Isa.Bne (a, b, _) -> add "    \"bne x%d, x%d, 1f\\n\\t\"\n" a b
        | _ -> add "    \"%s\\n\\t\"\n" (Format.asprintf "%a" Isa.pp_instr instr))
      (Lift.case_instrs ~fail_label:"1f" tc);
    add "    \"j 2f\\n\\t\"\n";
    add "    \"1: li %%[det], 1\\n\\t\"\n";
    add "    \"2:\\n\\t\"\n";
    add "    : [det] \"+r\" (detected)\n";
    add "    :\n";
    add "    : \"x5\", \"x6\", \"x7\", \"x8\", \"x9\", \"x10\", \"f0\", \"f1\", \"f2\", \"f3\", \"f4\", \"memory\");\n";
    add "  return detected;\n";
    add "}\n\n"
  in
  List.iteri case_fn suite.Lift.suite_cases;
  let n = List.length suite.Lift.suite_cases in
  add "typedef void (*%s_handler)(int case_id);\n\n" name;
  add "/* sequential scheduling */\n";
  add "int %s_run_all(%s_handler on_detect) {\n" name name;
  add "  int failed = 0;\n";
  List.iteri
    (fun i _ ->
      add "  if (%s_case_%d()) { failed = 1; if (on_detect) on_detect(%d); }\n" name i i)
    suite.Lift.suite_cases;
  add "  return failed;\n}\n\n";
  add "/* randomized scheduling (xorshift order) */\n";
  add "int %s_run_random(unsigned seed, %s_handler on_detect) {\n" name name;
  add "  static int (*const cases[%d])(void) = {\n" (max n 1);
  List.iteri (fun i _ -> add "    %s_case_%d,\n" name i) suite.Lift.suite_cases;
  add "  };\n";
  add "  int failed = 0;\n";
  add "  unsigned order[%d];\n" (max n 1);
  add "  for (int i = 0; i < %d; i++) order[i] = i;\n" n;
  add "  for (int i = %d - 1; i > 0; i--) {\n" n;
  add "    seed ^= seed << 7; seed ^= seed >> 9; seed ^= seed << 8;\n";
  add "    unsigned j = seed %% (i + 1);\n";
  add "    unsigned t = order[i]; order[i] = order[j]; order[j] = t;\n";
  add "  }\n";
  add "  for (int i = 0; i < %d; i++)\n" n;
  add "    if (cases[order[i]]()) { failed = 1; if (on_detect) on_detect(order[i]); }\n";
  add "  return failed;\n}\n";
  Buffer.contents buf

module Runner = struct
  type strategy = Sequential | Random_order of int

  exception Sdc_detected of string

  let shuffle seed cases =
    let arr = Array.of_list cases in
    let rng = Random.State.make [| seed |] in
    for i = Array.length arr - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- t
    done;
    Array.to_list arr

  let case_program tc =
    Isa.assemble
      (Lift.case_instrs ~fail_label:"__fail" tc
      @ [ Isa.Ecall Isa.exit_ok; Isa.Label "__fail"; Isa.Ecall Isa.exit_sdc ])

  (* Run [f], restoring the machine's pre-existing architectural state
     afterwards: a guarded application resumes exactly where it left off
     even though the cases reset the machine.  A wedged in-flight FPU
     operation makes the pre-test snapshot itself stall — that, too, is a
     detection. *)
  let preserving_state m f =
    match Machine.snapshot m with
    | exception Machine.Stall_detected -> Error "__pre-test drain (stall)"
    | snap ->
      let result = try f () with e -> Machine.restore m snap; raise e in
      Machine.restore m snap;
      result

  let run_case m tc =
    Machine.reset m;
    match Machine.run m (case_program tc) with
    | Machine.Exited code when code = Isa.exit_ok -> Ok ()
    | o -> Error o

  let detection_id (tc : Lift.test_case) = function
    | Machine.Stalled -> tc.Lift.tc_id ^ " (stall)"
    | Machine.Out_of_fuel -> tc.Lift.tc_id ^ " (no progress)"
    | Machine.Exited _ -> tc.Lift.tc_id

  let run_detecting m tc = Result.map_error (detection_id tc) (run_case m tc)

  let run_tests m suite strategy =
    let cases =
      match strategy with
      | Sequential -> suite.Lift.suite_cases
      | Random_order seed -> shuffle seed suite.Lift.suite_cases
    in
    preserving_state m (fun () ->
        let rec go = function
          | [] -> Ok ()
          | tc :: rest -> ( match run_detecting m tc with Ok () -> go rest | Error _ as e -> e)
        in
        go cases)

  let run_slice m (suite : Lift.suite) ~index =
    match suite.Lift.suite_cases with
    | [] -> Ok ()
    | cases ->
      let n = List.length cases in
      let tc = List.nth cases (((index mod n) + n) mod n) in
      preserving_state m (fun () -> run_detecting m tc)

  let run_tests_exn m suite strategy =
    match run_tests m suite strategy with
    | Ok () -> ()
    | Error id -> raise (Sdc_detected id)
end
