(* Aging analysis of a multiply-accumulate unit: state feedback.

     dune exec examples/mac_accumulator.exe

   The ALU and FPU of the main evaluation are feed-forward pipelines.  A
   MAC unit is the classic counterexample: its accumulator register feeds
   itself (acc' = clear ? 0 : acc + a*b), which exercises the parts of the
   workflow the pipelines never reach:

   - STA reports accumulator self-paths (acc bit -> acc bit), whose
     failure model is the always-metastable special case of Section 3.3.1;
   - the formal engine cannot claim completeness over the feedback loop,
     so unreachable covers come back as Bounded_unreachable, not proofs;
   - detection still works: a software test drives the MAC and checks the
     accumulated sum. *)

let build_mac () =
  let c = Hw.create "mac8" in
  let a_in = Hw.input c "a" 8 in
  let b_in = Hw.input c "b" 8 in
  let clear_in = Hw.input c "clear" 1 in
  (* input rank *)
  let a = Hw.reg_vec c ~prefix:"a_q" a_in in
  let b = Hw.reg_vec c ~prefix:"b_q" b_in in
  let clear = Hw.reg c ~name:"clr_q" clear_in.(0) in
  (* 8x8 -> 16 array multiplier *)
  let zeros n = Array.init n (fun _ -> Hw.tie0 c) in
  let product = ref (zeros 16) in
  Array.iteri
    (fun i bbit ->
      let row =
        Array.init 16 (fun j -> if j >= i && j - i < 8 then Hw.and_ c a.(j - i) bbit else Hw.tie0 c)
      in
      product := fst (Hw.ripple_add c !product row ~cin:(Hw.tie0 c)))
    b;
  (* accumulator with feedback: registers are created on placeholder nets
     and rewired to their own next-state logic *)
  let bld = Hw.builder c in
  let placeholder = Array.init 16 (fun _ -> Hw.tie0 c) in
  let acc_ids =
    Array.mapi
      (fun i d ->
        Netlist.Builder.add_cell_with_id ~name:(Printf.sprintf "acc_q%d" i) ~clock_domain:0 bld
          Cell.Kind.Dff [| d |])
      placeholder
  in
  let acc = Array.map snd acc_ids in
  let sum, _ = Hw.ripple_add c acc !product ~cin:(Hw.tie0 c) in
  let next = Hw.mux_vec c ~sel:clear ~if0:sum ~if1:(Hw.const_vec c ~width:16 0) in
  Array.iteri
    (fun i (id, _) -> Netlist.Builder.rewire_input bld ~cell_id:id ~pin:0 next.(i))
    acc_ids;
  Hw.output c "acc" acc;
  Hw.finish c

let bv w v = Bitvec.create ~width:w v

let run_mac nl pairs =
  let sim = Sim.create nl in
  Sim.set_input_bit sim "clear" 0 true;
  Sim.step sim;
  Sim.step sim;
  Sim.set_input_bit sim "clear" 0 false;
  List.iter
    (fun (a, b) ->
      Sim.set_input sim "a" (bv 8 a);
      Sim.set_input sim "b" (bv 8 b);
      Sim.step sim)
    pairs;
  (* flush the two-stage latency *)
  Sim.set_input sim "a" (bv 8 0);
  Sim.set_input sim "b" (bv 8 0);
  Sim.step sim;
  Sim.step sim;
  Bitvec.to_int (Sim.output sim "acc")

let () =
  print_endline "=== The MAC unit ===";
  let nl = build_mac () in
  Printf.printf "mac8: %d cells, %d DFFs, sequential depth: %s\n" (Netlist.num_cells nl)
    (List.length (Netlist.dffs nl))
    (match Formal.sequential_depth nl with
    | Some d -> string_of_int d
    | None -> "none (state feedback)");
  let pairs = [ (200, 200); (100, 30); (7, 9) ] in
  Printf.printf "healthy: sum of products = %d (expected %d)\n" (run_mac nl pairs)
    (List.fold_left (fun acc (a, b) -> acc + (a * b)) 0 pairs);

  print_endline "\n=== Aging-aware STA: the accumulator loop is the critical path ===";
  let sim = Sim.create ~profile:true nl in
  Sim.run_random sim ~cycles:3000;
  let aglib = Aging.Timing_library.build Cell.Library.c28 in
  let tree = Clock_tree.single_domain in
  let fresh = Sta.fresh_timing ~clock_tree:tree Cell.Library.c28 in
  let period = Sta.critical_path_ps ~timing:fresh nl *. 1.005 in
  let aged =
    Sta.aged_timing ~clock_tree:tree ~sp_of_net:(fun n -> Sim.sp sim n) ~years:10.0 aglib
  in
  let viol = Sta.violating_pairs ~timing:aged ~clock_period_ps:period nl in
  Printf.printf "clock %.0f ps; %d violating register pairs after 10 years:\n" period
    (List.length viol);
  List.iteri
    (fun i (s, e, c, sl) ->
      if i < 6 then
        Printf.printf "  %-8s -> %-8s %s (%.1f ps)%s\n"
          (Sta.describe_startpoint nl s) (Sta.describe_endpoint nl e)
          (match c with Sta.Setup -> "setup" | Sta.Hold -> "hold")
          sl
          (match (s, e) with
          | Sta.From_dff a, Sta.At_dff b when a = b -> "   <- self-loop!"
          | _ -> ""))
    viol;

  print_endline "\n=== The self-loop failure model: always metastable ===";
  (* the accumulator's self-paths skip the multiplier, so they are not the
     first to violate - but they exist, and further aging (or a faster
     clock) reaches them; take the tightest one from the exact pair
     analysis *)
  let self_pair =
    Sta.endpoint_pairs ~timing:aged ~clock_period_ps:period nl
    |> List.filter_map (fun (s, e, c, sl) ->
           match (s, e, c) with
           | Sta.From_dff a, Sta.At_dff b, Sta.Setup when a = b ->
             Some ((Netlist.cell nl a).Netlist.name, sl)
           | _ -> None)
    |> List.sort (fun (_, a) (_, b) -> Float.compare a b)
    |> function
    | [] -> None
    | (reg, slack) :: _ ->
      Printf.printf "tightest accumulator self-path: %s -> %s, setup slack %.1f ps\n" reg reg
        slack;
      Some reg
  in
  (match self_pair with
  | None -> print_endline "(no self-loop pair in this design)"
  | Some reg ->
    let spec =
      {
        Fault.start_dff = reg;
        end_dff = reg;
        kind = Fault.Setup_violation;
        constant = Fault.C0;
        activation = Fault.Any_transition;
      }
    in
    Printf.printf "injecting %s: the bit can never settle, Eq. (2) degenerates to constant C\n"
      (Fault.describe spec);
    let faulty = Fault.failing_netlist nl spec in
    let got = run_mac faulty pairs and want = run_mac nl pairs in
    Printf.printf "faulty MAC: %d vs healthy %d%s\n" got want
      (if got <> want then "  <- silently wrong" else "");
    (* formal status over the feedback loop *)
    let inst = Fault.instrument_shadow nl spec in
    (match
       Formal.check_cover ~max_cycles:6 inst.Fault.netlist ~cover:inst.Fault.cover
     with
    | Formal.Trace_found t ->
      Printf.printf "BMC found a %d-cycle witness that the fault is observable\n"
        t.Formal.Trace.cycles
    | Formal.Bounded_unreachable k ->
      Printf.printf "no witness within %d cycles - with feedback this is NOT a proof (no UR claim)\n" k
    | Formal.Unreachable -> print_endline "unexpected: proof over a feedback loop"
    | Formal.Timeout _ -> print_endline "formal budget exhausted"));

  print_endline "\n=== A software self-test for the MAC ===";
  let test nl =
    (* deterministic MAC sweep with a golden checksum *)
    let stimulus =
      (255, 255) :: List.init 11 (fun k -> (((k * 37) + 5) land 0xFF, ((k * 91) + 3) land 0xFF))
    in
    let expect =
      List.fold_left (fun acc (a, b) -> (acc + (a * b)) land 0xFFFF) 0 stimulus
    in
    run_mac nl stimulus = expect
  in
  Printf.printf "healthy MAC passes: %b\n" (test nl);
  (match self_pair with
  | Some reg ->
    let faulty =
      Fault.failing_netlist nl
        {
          Fault.start_dff = reg;
          end_dff = reg;
          kind = Fault.Setup_violation;
          constant = Fault.C0;
          activation = Fault.Any_transition;
        }
    in
    let pass = test faulty in
    Printf.printf "aged MAC passes: %b%s\n" pass
      (if pass then "" else "  <- caught by the routine self-test")
  | None -> ());
  print_endline "\ndone."
