(* Tests for the static SP-interval analyzer (Check.Spbound).

   The load-bearing property is soundness: on random netlists driven by
   per-bit Bernoulli stimulus, every net's measured signal probability
   must fall inside its static interval (up to sampling noise), and pairs
   the analyzer calls Safe must never show up in the exact phase-1
   violating-pair sweep at the measured SP.  The second property is
   checked with the sound default assumptions, so it is exact — no noise
   margin, no flake budget. *)

module B = Netlist.Builder

let iv = Alcotest.testable
    (fun fmt (i : Spbound.interval) -> Format.fprintf fmt "[%g, %g]" i.Spbound.lo i.Spbound.hi)
    (fun a b -> a.Spbound.lo = b.Spbound.lo && a.Spbound.hi = b.Spbound.hi)

(* ---------- transfer functions and fixpoint on hand-built netlists ---------- *)

let test_tie_cone () =
  let b = B.create "ties" in
  let t1 = B.add_cell b Cell.Kind.Tie1 [||] in
  let n1 = B.add_cell b Cell.Kind.Not [| t1 |] in
  let a = B.add_cell b Cell.Kind.And2 [| t1; n1 |] in
  B.add_output b "y" [| a |];
  let nl = B.finish b in
  let sb = Spbound.analyze nl in
  Alcotest.check iv "Tie1 is the singleton 1" (Spbound.point 1.0) (Spbound.sp sb t1);
  Alcotest.check iv "Not Tie1 is the singleton 0" (Spbound.point 0.0) (Spbound.sp sb n1);
  Alcotest.check iv "And of complementary ties is 0" (Spbound.point 0.0) (Spbound.sp sb a)

let test_independent_tightening () =
  (* Two distinct input bits are independent sources: the And interval is
     the exact product, far tighter than Frechet's [0, 0.5]. *)
  let b = B.create "indep" in
  let x = B.add_input b "x" 1 in
  let y = B.add_input b "y" 1 in
  let a = B.add_cell b Cell.Kind.And2 [| x.(0); y.(0) |] in
  B.add_output b "o" [| a |];
  let nl = B.finish b in
  let assume _ _ = Spbound.point 0.5 in
  let sb = Spbound.analyze ~assume nl in
  Alcotest.check iv "independent And of two 0.5 bits is exactly 0.25" (Spbound.point 0.25)
    (Spbound.sp sb a)

let test_reconvergent_frechet () =
  (* x and (not x) share support {x}: no tightening applies, and the
     Frechet And bound [0, 0.5] must still contain the true value 0. *)
  let b = B.create "reconv" in
  let x = B.add_input b "x" 1 in
  let n = B.add_cell b Cell.Kind.Not [| x.(0) |] in
  let a = B.add_cell b Cell.Kind.And2 [| x.(0); n |] in
  B.add_output b "o" [| a |];
  let nl = B.finish b in
  let assume _ _ = Spbound.point 0.5 in
  let sb = Spbound.analyze ~assume nl in
  Alcotest.check iv "reconvergent And falls back to the Frechet box" (Spbound.make 0.0 0.5)
    (Spbound.sp sb a)

(* A register accumulating Or(q, x) with a low-probability x: the interval
   hi drifts up by x.hi per iteration, which exercises both the patient
   fixpoint (converges by saturation) and the widening cutoff. *)
let drifting_register () =
  let b = B.create "drift" in
  let x = B.add_input b "x" 1 in
  let q_id, q = B.add_cell_with_id ~reset_value:false b Cell.Kind.Dff [| x.(0) |] in
  let o = B.add_cell b Cell.Kind.Or2 [| q; x.(0) |] in
  B.rewire_input b ~cell_id:q_id ~pin:0 o;
  B.add_output b "y" [| q |];
  (B.finish b, q)

let test_widening_cutoff () =
  let nl, q = drifting_register () in
  let assume _ _ = Spbound.make 0.0 0.05 in
  let cfg = { Spbound.default_config with Spbound.widen_after = 2 } in
  let sb = Spbound.analyze ~config:cfg ~assume nl in
  Alcotest.(check int) "the drifting register gets widened" 1 (Spbound.widened sb);
  Alcotest.check iv "widened register lands on top" Spbound.top (Spbound.sp sb q)

let test_fixpoint_saturates_without_widening () =
  let nl, q = drifting_register () in
  let assume _ _ = Spbound.make 0.0 0.05 in
  let cfg = { Spbound.default_config with Spbound.widen_after = 64 } in
  let sb = Spbound.analyze ~config:cfg ~assume nl in
  Alcotest.(check int) "no widening under a patient budget" 0 (Spbound.widened sb);
  Alcotest.check iv "the accumulated interval saturates at [0, 1]" Spbound.top
    (Spbound.sp sb q);
  Alcotest.(check bool) "saturation takes many iterations" true (Spbound.iterations sb > 10)

(* ---------- random netlists (same shape as the Sim64 generator) ---------- *)

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
  let n_out = 1 + Random.State.int rng 2 in
  for i = 0 to n_out - 1 do
    let w = 1 + Random.State.int rng 3 in
    B.add_output b (Printf.sprintf "out%d" i) (Array.init w (fun _ -> pick ()))
  done;
  B.finish b

(* Per-input-bit Bernoulli probabilities, and a profiled Sim64 run that
   draws every lane of every bit i.i.d. at its probability. *)
let random_bit_probs rng nl =
  let probs = Hashtbl.create 16 in
  List.iter
    (fun (p : Netlist.port) ->
      Array.iteri
        (fun bit _ ->
          Hashtbl.replace probs (p.Netlist.port_name, bit) (Random.State.float rng 1.0))
        p.Netlist.port_nets)
    (Netlist.inputs nl);
  probs

let profiled_bernoulli_run rng nl probs cycles =
  let s = Sim64.create ~profile:true nl in
  for _ = 1 to cycles do
    List.iter
      (fun (p : Netlist.port) ->
        Array.iteri
          (fun bit _ ->
            let pr = Hashtbl.find probs (p.Netlist.port_name, bit) in
            for lane = 0 to Sim64.lanes - 1 do
              Sim64.set_input_bit s ~lane p.Netlist.port_name bit
                (Random.State.float rng 1.0 < pr)
            done)
          p.Netlist.port_nets)
      (Netlist.inputs nl);
    Sim64.step s
  done;
  s

(* Soundness of the intervals themselves.  Assumptions are the true
   Bernoulli probabilities widened by [delta]; the measured SP of every
   net must land inside the static interval up to [eps] of sampling noise
   (63 lanes x 128 cycles, autocorrelated only across short DFF chains). *)
let prop_interval_soundness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"static interval contains measured SP (random netlists)"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 0x5bd |] in
         let nl = build_random_netlist rng in
         let probs = random_bit_probs rng nl in
         let delta = 0.02 in
         let assume name bit =
           let p = Hashtbl.find probs (name, bit) in
           Spbound.make (p -. delta) (p +. delta)
         in
         let sb = Spbound.analyze ~assume nl in
         let s = profiled_bernoulli_run rng nl probs 128 in
         let eps = 0.08 in
         let ok = ref true in
         for n = 0 to Netlist.num_nets nl - 1 do
           let i = Spbound.sp sb n in
           let m = Sim64.sp s n in
           if m < i.Spbound.lo -. eps || m > i.Spbound.hi +. eps then ok := false
         done;
         !ok))

let aglib = Aging.Timing_library.build Cell.Library.c28

(* Safe pairs never violate: classify under the sound default assumptions
   (valid for any workload), then run the exact phase-1 sweep at a
   measured SP clamped into the static intervals.  No Safe pair may
   appear among the violations, and skipping the Safe set must leave the
   violation list bit-identical.  Exact check, no noise margin. *)
let prop_safe_pairs_never_violate =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Safe pairs never violate in the exact sweep"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 0xa9ed |] in
         let nl = build_random_netlist rng in
         let fresh = Sta.fresh_timing Cell.Library.c28 in
         let probe = Sta.analyze ~timing:fresh ~clock_period_ps:1e9 nl in
         let crit =
           List.fold_left
             (fun acc (e : Sta.endpoint_slack) ->
               Float.max acc (1e9 -. e.Sta.setup_slack_ps))
             0.0 probe.Sta.endpoint_slacks
         in
         if crit <= 0.0 then true
         else begin
           let clock_period_ps = crit *. 1.01 in
           let sb = Spbound.analyze nl in
           let pvs = Spbound.classify ~aglib ~years:10.0 ~clock_period_ps sb in
           let safe = Hashtbl.create 64 in
           List.iter
             (fun (pv : Spbound.pair_verdict) ->
               if pv.Spbound.pv_verdict = Spbound.Safe then
                 Hashtbl.replace safe (pv.Spbound.pv_start, pv.Spbound.pv_end, pv.Spbound.pv_check)
                   ())
             pvs;
           let probs = random_bit_probs rng nl in
           let s = profiled_bernoulli_run rng nl probs 64 in
           let sp_of_net n =
             let i = Spbound.sp sb n in
             Float.min i.Spbound.hi (Float.max i.Spbound.lo (Sim64.sp s n))
           in
           let aged = Sta.aged_timing ~sp_of_net ~years:10.0 aglib in
           let viol = Sta.violating_pairs ~timing:aged ~clock_period_ps nl in
           let pruned =
             Sta.violating_pairs
               ~skip:(fun st en ck -> Hashtbl.mem safe (st, en, ck))
               ~timing:aged ~clock_period_ps nl
           in
           List.for_all (fun (st, en, ck, _) -> not (Hashtbl.mem safe (st, en, ck))) viol
           && pruned = viol
         end))

(* ---------- the CLI surface ---------- *)

let cli_path () =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") "vega_cli.exe";
      Filename.concat (Filename.concat (Filename.concat "_build" "default") "bin") "vega_cli.exe";
    ]
  in
  List.find_opt Sys.file_exists candidates

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_static_report () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
    let tmp = Filename.temp_file "vega_spbound" ".txt" in
    let cmd =
      Printf.sprintf "%s analyze --unit alu --width 8 --static > %s 2> %s" (Filename.quote cli)
        (Filename.quote tmp) Filename.null
    in
    let rc = Sys.command cmd in
    Alcotest.(check int) "vega_cli analyze --static exits 0" 0 rc;
    let got = read_file tmp in
    Sys.remove tmp;
    let expected = read_file (Filename.concat "golden" "spbound_alu.txt") in
    Alcotest.(check string) "ALU static report matches golden byte-for-byte" expected got

(* Every subcommand wired into Cmd.group, and nothing else.  Keep this
   list in sync with the usage header at the top of bin/vega_cli.ml —
   the test exists so adding a subcommand without updating the header
   shows up as a diff here. *)
let expected_subcommands =
  [
    "analyze"; "attack"; "check"; "emit-c"; "encode"; "fleet"; "fuzz"; "guard-campaign"; "lift";
    "lint"; "monitors"; "optimize"; "repair"; "report"; "run"; "verilog";
  ]

let test_subcommand_list () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
    let tmp = Filename.temp_file "vega_help" ".txt" in
    let cmd =
      Printf.sprintf "%s --help=plain > %s 2> %s" (Filename.quote cli) (Filename.quote tmp)
        Filename.null
    in
    let rc = Sys.command cmd in
    Alcotest.(check int) "vega_cli --help exits 0" 0 rc;
    let help = read_file tmp in
    Sys.remove tmp;
    (* Command entries are the 7-space-indented names of the COMMANDS
       section; descriptions are indented deeper. *)
    let commands = ref [] in
    let in_commands = ref false in
    String.split_on_char '\n' help
    |> List.iter (fun line ->
           if line = "COMMANDS" then in_commands := true
           else if String.length line > 0 && line.[0] <> ' ' then in_commands := false
           else if !in_commands && String.length line > 7 && String.sub line 0 7 = "       "
                   && line.[7] <> ' ' then begin
             let rest = String.sub line 7 (String.length line - 7) in
             let name =
               match String.index_opt rest ' ' with
               | Some i -> String.sub rest 0 i
               | None -> rest
             in
             commands := name :: !commands
           end);
    let got = List.sort_uniq compare !commands in
    Alcotest.(check (list string)) "Cmd.group matches the documented subcommand list"
      expected_subcommands got

(* Degenerate input to every subcommand: each row must end in its
   documented exit code (2 usage, 3 runtime) with a short stderr message
   naming the problem, never an uncaught exception or a backtrace. *)
let degenerate_rows not_a_dir =
  let widths sub extra =
    List.map
      (fun w -> (Printf.sprintf "%s --unit alu --width %d%s" sub w extra, 2, "--width"))
      [ 1; 3; 64 ]
  in
  let margin sub = (sub ^ " --unit alu --width 8 --margin 0", 2, "--margin") in
  List.concat_map (fun sub -> widths sub "")
    [ "analyze"; "lift"; "run"; "emit-c"; "verilog"; "optimize"; "encode"; "lint"; "check";
      "attack"; "monitors"; "repair" ]
  @ widths "fuzz" " --pair a_q0:r_q0"
  @ List.map margin [ "analyze"; "lift"; "run"; "emit-c"; "encode"; "monitors"; "repair" ]
  @ [
      ("fleet --quick --width 3", 2, "--width");
      ("fleet --quick --domains 0", 2, "--domains");
      ("fleet --quick --devices 0", 2, "--devices");
      ("fleet --quick --margin 0", 2, "--margin");
      ("report --quick --width 8", 2, "unknown option");
      ("guard-campaign --quick --seed x", 2, "--seed");
      ("guard-campaign --quick --checkpoint " ^ Filename.quote not_a_dir, 3, "Not a directory");
      ("verilog --unit alu --width 8 --inject nosuch:r_q0:setup:0", 2, "no such register");
      ("fuzz --unit alu --width 8 --pair nosuch:r_q0", 2, "no such register");
      ("nosuch", 2, "unknown command");
    ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_degenerate_arguments () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
    let not_a_dir = Filename.temp_file "vega_cli" ".file" in
    let err = Filename.temp_file "vega_cli" ".err" in
    let rows = degenerate_rows not_a_dir in
    List.iter
      (fun sub ->
        Alcotest.(check bool) (sub ^ " has a degenerate-input row") true
          (List.exists (fun (args, _, _) -> String.starts_with ~prefix:(sub ^ " ") args) rows))
      expected_subcommands;
    List.iter
      (fun (args, code, mention) ->
        let rc =
          Sys.command
            (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args Filename.null
               (Filename.quote err))
        in
        let stderr = read_file err in
        Alcotest.(check int) (args ^ ": exit code") code rc;
        Alcotest.(check bool) (args ^ ": stderr names the problem") true (contains stderr mention);
        List.iter
          (fun bad ->
            Alcotest.(check bool) (args ^ ": no " ^ bad) false (contains stderr bad))
          [ "Raised at"; "Called from"; "internal error"; "exception"; "Fatal error" ])
      rows;
    Sys.remove not_a_dir;
    Sys.remove err

let () =
  Alcotest.run "spbound"
    [
      ( "transfers",
        [
          Alcotest.test_case "tie cones are singletons" `Quick test_tie_cone;
          Alcotest.test_case "disjoint supports tighten to the exact product" `Quick
            test_independent_tightening;
          Alcotest.test_case "reconvergence falls back to Frechet" `Quick
            test_reconvergent_frechet;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "widening cuts off a drifting register" `Quick test_widening_cutoff;
          Alcotest.test_case "patient fixpoint saturates soundly" `Quick
            test_fixpoint_saturates_without_widening;
        ] );
      ("soundness", [ prop_interval_soundness; prop_safe_pairs_never_violate ]);
      ( "cli",
        [
          Alcotest.test_case "static report matches golden" `Quick test_golden_static_report;
          Alcotest.test_case "subcommand list is complete" `Quick test_subcommand_list;
          Alcotest.test_case "degenerate arguments exit cleanly" `Quick
            test_degenerate_arguments;
        ] );
    ]
