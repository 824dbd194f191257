(* Tests for the bounded-model-checking engine: cover traces, proofs of
   unreachability, assumes, timeouts, and replay validation. *)

let adder = Example_circuits.pipelined_adder ()
let bv w v = Bitvec.create ~width:w v

let out_bit nl port bit = Formal.Net (Netlist.net_of_port_bit nl port bit)

let test_sequential_depth () =
  Alcotest.(check (option int)) "adder depth 2" (Some 2) (Formal.sequential_depth adder);
  Alcotest.(check (option int)) "chain depth 5" (Some 5)
    (Formal.sequential_depth (Example_circuits.dff_chain 5));
  Alcotest.(check (option int)) "xor tree depth 0" (Some 0)
    (Formal.sequential_depth (Example_circuits.comb_xor_tree 4));
  Alcotest.(check (option int)) "lfsr has feedback" None
    (Formal.sequential_depth (Example_circuits.lfsr4 ()))

(* The per-DFF [sequential_depth] the memoised net DFS replaced: a fresh
   fan-in walk from every DFF's D pin to the DFFs feeding it, then the
   longest chain over those sources.  Kept as the oracle. *)
let sequential_depth_oracle nl =
  let cells = Netlist.cells nl in
  let sources id =
    let seen = Hashtbl.create 16 in
    let acc = ref [] in
    let rec walk net =
      match Netlist.driver nl net with
      | Netlist.Driven_by_input _ -> ()
      | Netlist.Driven_by_cell cid ->
        if not (Hashtbl.mem seen cid) then begin
          Hashtbl.replace seen cid ();
          let c = cells.(cid) in
          if Cell.Kind.is_sequential c.kind then acc := cid :: !acc
          else Array.iter walk c.inputs
        end
    in
    walk cells.(id).inputs.(0);
    !acc
  in
  let rank = Hashtbl.create 16 in
  let exception Cyclic in
  let rec compute id =
    match Hashtbl.find_opt rank id with
    | Some (Some r) -> r
    | Some None -> raise Cyclic
    | None ->
      Hashtbl.replace rank id None;
      let r = 1 + List.fold_left (fun acc s -> max acc (compute s)) 0 (sources id) in
      Hashtbl.replace rank id (Some r);
      r
  in
  try Some (List.fold_left (fun acc id -> max acc (compute id)) 0 (Netlist.dffs nl))
  with Cyclic -> None

(* Random netlists whose DFFs may read a later net: some have state
   feedback (depth [None]), some are pipelines of varying depth. *)
let random_sequential_netlist seed =
  let rng = Random.State.make [| seed; 0x5d |] in
  let b = Netlist.Builder.create "rnd_seq" in
  let x = Netlist.Builder.add_input b "x" 2 in
  let nets = ref (Array.to_list x) in
  let pick () = List.nth !nets (Random.State.int rng (List.length !nets)) in
  let dffs = ref [] in
  for _ = 1 to 4 + Random.State.int rng 24 do
    let kind =
      match Random.State.int rng 6 with
      | 0 -> Cell.Kind.And2
      | 1 -> Cell.Kind.Or2
      | 2 -> Cell.Kind.Xor2
      | 3 -> Cell.Kind.Mux2
      | 4 -> Cell.Kind.Not
      | _ -> Cell.Kind.Dff
    in
    let inputs = Array.init (Cell.Kind.arity kind) (fun _ -> pick ()) in
    let out =
      if Cell.Kind.is_sequential kind then begin
        let id, q = Netlist.Builder.add_cell_with_id ~clock_domain:0 b kind inputs in
        dffs := id :: !dffs;
        q
      end
      else Netlist.Builder.add_cell b kind inputs
    in
    nets := out :: !nets
  done;
  List.iter
    (fun id ->
      if Random.State.int rng 4 = 0 then
        Netlist.Builder.rewire_input b ~cell_id:id ~pin:0 (pick ()))
    !dffs;
  Netlist.Builder.add_output b "y" [| List.hd !nets |];
  Netlist.Builder.finish b

let check_depth_matches_oracle what nl =
  Alcotest.(check (option int)) what (sequential_depth_oracle nl) (Formal.sequential_depth nl)

let test_depth_oracle_random () =
  let cyclic = ref 0 and deep = ref 0 in
  for seed = 0 to 399 do
    let nl = random_sequential_netlist seed in
    check_depth_matches_oracle (Printf.sprintf "seed %d" seed) nl;
    match Formal.sequential_depth nl with
    | None -> incr cyclic
    | Some d -> if d >= 2 then incr deep
  done;
  (* the sample must exercise both answers *)
  Alcotest.(check bool) "some feedback circuits" true (!cyclic > 20);
  Alcotest.(check bool) "some pipelines of depth >= 2" true (!deep > 20)

(* [pipe] DFFs in a chain from input [x], then a toggle flop (D = the
   chain's end xor its own Q), then [tail] more DFFs after it *)
let loop_between_pipelines ~pipe ~tail =
  let module B = Netlist.Builder in
  let b = B.create "loop" in
  let x = (B.add_input b "x" 1).(0) in
  let rec chain n d =
    if n = 0 then d else chain (n - 1) (B.add_cell ~clock_domain:0 b Cell.Kind.Dff [| d |])
  in
  let d = chain pipe x in
  let t, q = B.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| d |] in
  B.rewire_input b ~cell_id:t ~pin:0 (B.add_cell b Cell.Kind.Xor2 [| d; q |]);
  B.add_output b "y" [| chain tail q |];
  B.finish b

let test_depth_oracle_feedback () =
  List.iter
    (fun (what, nl) ->
      check_depth_matches_oracle what nl;
      Alcotest.(check (option int)) (what ^ " has feedback") None (Formal.sequential_depth nl))
    [
      ("lfsr4", Example_circuits.lfsr4 ());
      ("toggle flop", loop_between_pipelines ~pipe:0 ~tail:0);
      ("loop fed by a pipeline", loop_between_pipelines ~pipe:3 ~tail:0);
      ("loop feeding a pipeline", loop_between_pipelines ~pipe:0 ~tail:3);
      ("loop inside a pipeline", loop_between_pipelines ~pipe:2 ~tail:2);
    ]

(* Shadow-instrumented units, the netlists Error Lifting actually asks
   about: every [stride]-th DFF of the unit as the capturing end,
   alternating violation kinds, launched from a fixed DFF. *)
let test_depth_oracle_instrumented () =
  List.iter
    (fun (unit_name, stride, nl) ->
      let names = List.map (fun id -> (Netlist.cell nl id).Netlist.name) (Netlist.dffs nl) in
      let start = List.hd names in
      let checked = ref 0 in
      List.iteri
        (fun i end_dff ->
          let kind = if i / stride mod 2 = 0 then Fault.Setup_violation else Fault.Hold_violation in
          let check spec =
            match Fault.instrument_shadow nl spec with
            | exception Invalid_argument _ -> ()
            | inst ->
              incr checked;
              check_depth_matches_oracle
                (Printf.sprintf "%s %s" unit_name (Fault.describe spec))
                inst.Fault.netlist
          in
          if i mod stride = 0 then List.iter check (Fault.variants ~start_dff:start ~end_dff kind))
        names;
      Alcotest.(check bool) (unit_name ^ " instrumented netlists checked") true (!checked > 10))
    [ ("alu8", 1, Alu.netlist ~width:8 ()); ("fpu16", 3, Fpu.netlist ()) ]

(* The memoised depth on the extensions the levels memo serves, in an
   order that hits and misses it: shadow netlists of FPU16 and ALU8 pairs
   under every constant and activation, failing netlists (their capturing
   DFF is a copied record, so the shared prefix ends before it), a unit
   edited by [set_kind] and the shadow netlists of that edited unit. *)
let test_depth_memo_extensions () =
  let spec ?(activation = Fault.Any_transition) x y kind constant =
    { Fault.start_dff = x; end_dff = y; kind; constant; activation }
  in
  let variants x y kind =
    Fault.variants ~start_dff:x ~end_dff:y kind
    @ Fault.variants ~mitigation:true ~start_dff:x ~end_dff:y kind
    @ [ spec x y kind Fault.C_random ]
  in
  let checked = ref 0 in
  let check what nl =
    incr checked;
    check_depth_matches_oracle what nl
  in
  let lift_like unit_name nl pairs =
    List.iter
      (fun (x, y, kind) ->
        List.iter
          (fun sp ->
            match Fault.instrument_shadow nl sp with
            | exception Invalid_argument _ -> ()
            | inst -> check (unit_name ^ " shadow " ^ Fault.describe sp) inst.Fault.netlist)
          (variants x y kind);
        let sp = spec x y kind Fault.C0 in
        check (unit_name ^ " failing " ^ Fault.describe sp) (Fault.failing_netlist nl sp))
      pairs
  in
  let names nl = List.map (fun id -> (Netlist.cell nl id).Netlist.name) (Netlist.dffs nl) in
  let pairs nl =
    let n = Array.of_list (names nl) in
    let k = Array.length n in
    [ (n.(0), n.(k / 2), Fault.Setup_violation); (n.(k / 3), n.(k - 1), Fault.Hold_violation);
      (n.(k / 4), n.(k / 4), Fault.Setup_violation) ]
  in
  let fpu = Fpu.netlist () and alu = Alu.netlist ~width:8 () in
  lift_like "fpu16" fpu (pairs fpu);
  lift_like "alu8" alu (pairs alu);
  let edited unit =
    let b = Netlist.Builder.of_netlist unit in
    Array.iter
      (fun (c : Netlist.cell) ->
        if c.kind = Cell.Kind.And2 && c.id mod 5 = 0 then
          Netlist.Builder.set_kind b ~cell_id:c.id Cell.Kind.Xor2)
      (Netlist.cells unit);
    Netlist.Builder.finish b
  in
  let fpu' = edited fpu and alu' = edited alu in
  check "fpu16 set_kind-edited" fpu';
  lift_like "edited fpu16" fpu' (pairs fpu');
  check "alu8 set_kind-edited" alu';
  lift_like "edited alu8" alu' (pairs alu');
  lift_like "fpu16 again" fpu (pairs fpu);
  Alcotest.(check bool) "extensions checked" true (!checked > 60)

(* A shared prefix that reads a cell after it is not reused: DFF [d0]
   (inside the prefix) reads [c3], which reads the DFF the extension
   rewires, so [d0]'s level changes though its record is shared.  Ten
   padding cells first make the prefix most of the netlist. *)
let test_depth_memo_open_prefix () =
  let module B = Netlist.Builder in
  let b = B.create "open_prefix" in
  let x = (B.add_input b "x" 1).(0) in
  let pad = ref x in
  for _ = 1 to 10 do
    pad := B.add_cell b Cell.Kind.Not [| !pad |]
  done;
  let d0_id, d0 = B.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| x |] in
  let d1 = B.add_cell ~clock_domain:0 b Cell.Kind.Dff [| x |] in
  let d2_id, d2 = B.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| d1 |] in
  let c3 = B.add_cell b Cell.Kind.Not [| d2 |] in
  B.rewire_input b ~cell_id:d0_id ~pin:0 c3;
  B.add_output b "y" [| d0; !pad |];
  let base = B.finish b in
  check_depth_matches_oracle "base" base;
  Alcotest.(check (option int)) "base depth" (Some 3) (Formal.sequential_depth base);
  let b = B.of_netlist base in
  let e = B.add_cell ~name:"e" ~clock_domain:0 b Cell.Kind.Dff [| x |] in
  let e2 = B.add_cell ~name:"e2" ~clock_domain:0 b Cell.Kind.Dff [| e |] in
  B.rewire_input b ~cell_id:d2_id ~pin:0 e2;
  let ext = B.finish b in
  check_depth_matches_oracle "extension" ext;
  Alcotest.(check (option int)) "extension depth" (Some 4) (Formal.sequential_depth ext)

(* Random sequential netlists, each extended several times in a row by a
   few cells that may close feedback (a new DFF reading a net after it) or
   copy a record of the base (rewiring one of its DFFs): the memoised
   depth equals the oracle on every one. *)
let prop_depth_memo_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"memoised depth of random extensions equals the oracle"
       QCheck.(make Gen.(int_bound 100_000))
       (fun seed ->
         let base = random_sequential_netlist seed in
         let rng = Random.State.make [| seed; 0xde |] in
         let extend k =
           let module B = Netlist.Builder in
           let b = B.of_netlist base in
           let nets () = Netlist.num_nets base + (B.num_cells b - Netlist.num_cells base) in
           let pick () = Random.State.int rng (nets ()) in
           let fresh = ref [] in
           for i = 1 to 1 + Random.State.int rng 3 do
             let name = Printf.sprintf "x%d_%d" k i in
             if Random.State.bool rng then begin
               let id, _ = B.add_cell_with_id ~name ~clock_domain:0 b Cell.Kind.Dff [| pick () |] in
               fresh := id :: !fresh
             end
             else ignore (B.add_cell ~name b Cell.Kind.And2 [| pick (); pick () |])
           done;
           List.iter
             (fun id ->
               if Random.State.int rng 3 = 0 then B.rewire_input b ~cell_id:id ~pin:0 (pick ()))
             !fresh;
           (if Random.State.int rng 6 = 0 then
              match Netlist.dffs base with
              | id :: _ -> B.rewire_input b ~cell_id:id ~pin:0 (pick ())
              | [] -> ());
           B.finish b
         in
         List.for_all
           (fun k ->
             let nl = extend k in
             Formal.sequential_depth nl = sequential_depth_oracle nl)
           [ 1; 2; 3; 4; 5 ]))

let test_cover_simple () =
  (* cover o[1]: reachable in 2 cycles (e.g. a=2, b=0) *)
  match Formal.check_cover adder ~cover:(out_bit adder "o" 1) with
  | Formal.Trace_found t ->
    Alcotest.(check bool) "minimal trace" true (t.Formal.Trace.cycles <= 3);
    Alcotest.(check bool) "trace really covers" true
      (Formal.Trace.covers adder t (out_bit adder "o" 1))
  | _ -> Alcotest.fail "expected trace"

let test_cover_unreachable () =
  (* o = a + b with 2-bit wrap; cover o[0] && !o[0] is a contradiction *)
  let contradiction = Formal.And (out_bit adder "o" 0, Formal.Not (out_bit adder "o" 0)) in
  match Formal.check_cover adder ~cover:contradiction with
  | Formal.Unreachable -> ()
  | _ -> Alcotest.fail "expected proof of unreachability"

let test_cover_semantic_unreachable () =
  (* the adder can never produce o[1:0] = 3 when both inputs are forced to
     zero by assumes *)
  let assumes =
    [ Formal.port_equals adder "a" (bv 2 0); Formal.port_equals adder "b" (bv 2 0) ]
  in
  let cover = Formal.And (out_bit adder "o" 0, out_bit adder "o" 1) in
  match Formal.check_cover ~assumes adder ~cover with
  | Formal.Unreachable -> ()
  | _ -> Alcotest.fail "expected unreachable under assumes"

let test_assumes_respected () =
  (* restrict a to {1}: a trace covering o[0] must still exist (1 + 0 = 1) *)
  let assumes = [ Formal.port_in adder "a" [ bv 2 1 ] ] in
  match Formal.check_cover ~assumes adder ~cover:(out_bit adder "o" 0) with
  | Formal.Trace_found t ->
    List.iter
      (fun (port, arr) ->
        if port = "a" then
          Array.iter
            (fun v -> Alcotest.(check int) "a always 1" 1 (Bitvec.to_int v))
            arr)
      t.Formal.Trace.inputs
  | _ -> Alcotest.fail "expected trace under assumes"

let test_feedback_circuit_bounded () =
  (* LFSR walk 0001 -> 0010 -> 0100 -> 1001 -> 0011: cover state 0b0011,
     reachable after 4 enabled steps *)
  let lfsr = Example_circuits.lfsr4 () in
  let cover =
    Formal.And
      ( Formal.And (Formal.Not (out_bit lfsr "q" 3), out_bit lfsr "q" 0),
        Formal.And (out_bit lfsr "q" 1, Formal.Not (out_bit lfsr "q" 2)) )
  in
  match Formal.check_cover ~max_cycles:6 lfsr ~cover with
  | Formal.Trace_found t ->
    Alcotest.(check bool) "covers on replay" true (Formal.Trace.covers lfsr t cover)
  | _ -> Alcotest.fail "expected trace through the LFSR"

let test_feedback_unreachable_is_bounded () =
  (* all-zero LFSR state is unreachable, but with feedback we can only say
     "not within the bound" *)
  let lfsr = Example_circuits.lfsr4 () in
  let cover =
    List.fold_left
      (fun acc i -> Formal.And (acc, Formal.Not (out_bit lfsr "q" i)))
      (Formal.Not (out_bit lfsr "q" 0))
      [ 1; 2; 3 ]
  in
  match Formal.check_cover ~max_cycles:5 lfsr ~cover with
  | Formal.Bounded_unreachable 5 -> ()
  | _ -> Alcotest.fail "expected bounded-unreachable"

let test_timeout () =
  match Formal.check_cover ~max_conflicts:0 adder ~cover:(out_bit adder "o" 1) with
  | Formal.Timeout _ -> ()
  | Formal.Trace_found _ ->
    (* a zero budget can still succeed if no conflicts are needed; accept *)
    ()
  | _ -> Alcotest.fail "expected timeout or cheap trace"

let test_watch_nets () =
  let c8 = Netlist.find_cell adder "$8" in
  match
    Formal.check_cover ~watch:[ ("sum1", c8.output) ] adder ~cover:(out_bit adder "o" 1)
  with
  | Formal.Trace_found t ->
    (match List.assoc_opt "sum1" t.Formal.Trace.observed with
    | Some arr ->
      Alcotest.(check int) "watched all cycles" t.Formal.Trace.cycles (Array.length arr);
      (* o[1] at the final cycle means $8 was 1 one cycle earlier *)
      Alcotest.(check bool) "watched value set" true (Array.exists (fun b -> b) arr)
    | None -> Alcotest.fail "missing watched net")
  | _ -> Alcotest.fail "expected trace"

let test_trace_rendering () =
  match Formal.check_cover adder ~cover:(out_bit adder "o" 1) with
  | Formal.Trace_found t ->
    let s = Formal.Trace.to_string t in
    Alcotest.(check bool) "mentions ports" true
      (String.length s > 0
      &&
      let contains needle hay =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      contains "a" s && contains "cycle" s)
  | _ -> Alcotest.fail "expected trace"

(* Property: traces found by BMC always replay successfully on the
   simulator (end-to-end consistency of encoder, solver and simulator). *)
let prop_traces_replay =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"BMC traces replay on the simulator"
       (QCheck.make ~print:(fun (a, b) -> Printf.sprintf "o=%d bit=%d" a b)
          QCheck.Gen.(pair (int_bound 3) (int_bound 1)))
       (fun (target, bit) ->
         ignore target;
         let cover = out_bit adder "o" bit in
         match Formal.check_cover adder ~cover with
         | Formal.Trace_found t -> Formal.Trace.covers adder t cover
         | _ -> false))

(* Property: for random 8-bit parity circuits, cover of parity=1 finds a
   trace whose input has odd popcount. *)
let prop_parity_cover =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:20 ~name:"xor tree cover finds odd-parity input"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 2 10))
       (fun n ->
         let nl = Example_circuits.comb_xor_tree n in
         let cover = Formal.Net (Netlist.net_of_port_bit nl "p" 0) in
         match Formal.check_cover nl ~cover with
         | Formal.Trace_found t ->
           let v = Formal.Trace.input_at t "x" 0 in
           Bitvec.popcount v land 1 = 1
         | _ -> false))

(* Property: on small random sequential circuits, BMC's reachability answer
   for "output bit = 1" agrees with exhaustive input-sequence simulation. *)
let prop_bmc_matches_exhaustive_sim =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:40 ~name:"BMC agrees with exhaustive simulation"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000))
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let b = Netlist.Builder.create "rnd" in
         let x = Netlist.Builder.add_input b "x" 2 in
         let nets = ref [ x.(0); x.(1) ] in
         for _ = 1 to 4 + Random.State.int rng 8 do
           let pick () = List.nth !nets (Random.State.int rng (List.length !nets)) in
           let kind =
             match Random.State.int rng 6 with
             | 0 -> Cell.Kind.And2
             | 1 -> Cell.Kind.Or2
             | 2 -> Cell.Kind.Xor2
             | 3 -> Cell.Kind.Nand2
             | 4 -> Cell.Kind.Not
             | _ -> Cell.Kind.Dff
           in
           let inputs = Array.init (Cell.Kind.arity kind) (fun _ -> pick ()) in
           let out =
             if Cell.Kind.is_sequential kind then
               Netlist.Builder.add_cell ~clock_domain:0 b kind inputs
             else Netlist.Builder.add_cell b kind inputs
           in
           nets := out :: !nets
         done;
         Netlist.Builder.add_output b "y" [| List.hd !nets |];
         let nl = Netlist.Builder.finish b in
         let cover = Formal.Net (Netlist.net_of_port_bit nl "y" 0) in
         (* exhaustive simulation over all input sequences up to the same
            bound the checker uses *)
         let bound =
           match Formal.sequential_depth nl with Some d -> d + 1 | None -> 4
         in
         let reachable = ref false in
         let sim = Sim.create nl in
         let rec dfs depth prefix =
           if (not !reachable) && depth < bound then
             for v = 0 to 3 do
               if not !reachable then begin
                 let stim = prefix @ [ v ] in
                 Sim.reset sim;
                 List.iter
                   (fun value ->
                     Sim.set_input sim "x" (Bitvec.create ~width:2 value);
                     Sim.settle sim;
                     if Formal.eval_expr sim cover then reachable := true;
                     Sim.step sim)
                   stim;
                 dfs (depth + 1) stim
               end
             done
         in
         dfs 0 [];
         let bmc_says =
           match Formal.check_cover ~max_cycles:bound nl ~cover with
           | Formal.Trace_found _ -> true
           | Formal.Unreachable | Formal.Bounded_unreachable _ -> false
           | Formal.Timeout _ -> !reachable  (* inconclusive: don't fail *)
         in
         bmc_says = !reachable))

(* ---------- sessions reuse one solver per domain ---------- *)

(* A BMC check: netlist, cover, assumes and watch list. *)
type check = {
  what : string;
  nl : Netlist.t;
  cover : Formal.expr;
  assumes : Formal.expr list;
  watch : (string * Netlist.net) list;
}

let fpu_assumes = [ Formal.Input (Fpu.in_valid_port, 0) ]

(* The first [n] setup variants of [nl] with the given constants, on
   shadow-instrumented copies: from its first register to every
   [stride]-th one. *)
let shadow_checks ?(stride = 1) ?(constants = [ Fault.C0; Fault.C1 ]) ~assumes name nl n =
  let names = List.map (fun id -> (Netlist.cell nl id).Netlist.name) (Netlist.dffs nl) in
  let start_dff = List.hd names in
  List.to_seq (List.filteri (fun i _ -> i mod stride = 0) names)
  |> Seq.concat_map (fun end_dff ->
         List.to_seq
           (List.map
              (fun constant ->
                { Fault.start_dff; end_dff; kind = Fault.Setup_violation; constant;
                  activation = Fault.Any_transition })
              constants))
  |> Seq.filter_map (fun spec ->
         match Fault.instrument_shadow nl spec with
         | exception Invalid_argument _ -> None
         | inst ->
           Some
             { what = Printf.sprintf "%s %s" name (Fault.describe spec); nl = inst.Fault.netlist;
               cover = inst.Fault.cover; assumes; watch = inst.Fault.watch })
  |> Seq.take n |> List.of_seq

let run_check ~max_conflicts c =
  Formal.check_cover_stats ~assumes:c.assumes ~watch:c.watch ~max_conflicts c.nl ~cover:c.cover

(* A job run alone: in a new domain, whose scratch solver is fresh. *)
let alone f = Domain.join (Domain.spawn f)

let test_interleaved_sessions () =
  let alu = shadow_checks ~assumes:[] "alu8" (Alu.netlist ~width:8 ()) 6 in
  let fpu = shadow_checks ~assumes:fpu_assumes "fpu16" (Fpu.netlist ()) 6 in
  (* ALU8 and FPU16 sessions alternate, so every session resets a solver
     last grown by the other unit *)
  let order = List.concat (List.map2 (fun a f -> [ a; f ]) alu fpu) in
  List.iteri
    (fun i job ->
      if i = 5 then begin
        (* a session that raises after its first cycle is encoded *)
        let c = List.hd fpu in
        match Formal.check_cover ~assumes:[ Formal.Input ("no_such_port", 0) ] c.nl ~cover:c.cover with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "an unknown port must raise"
      end;
      let reused = run_check ~max_conflicts:20_000 job in
      Alcotest.(check bool)
        (Printf.sprintf "session %d equals a fresh-solver run" i)
        true
        (reused = alone (fun () -> run_check ~max_conflicts:20_000 job)))
    order

(* Lifts on two domains at once give what a serial run gives. *)
let test_parallel_lifts () =
  let target = Lift.alu_target ~width:8 () in
  let names =
    List.map (fun id -> (Netlist.cell target.Lift.netlist id).Netlist.name)
      (Netlist.dffs target.Lift.netlist)
  in
  let start_dff = List.hd names in
  let pairs = List.filteri (fun i _ -> i mod 3 = 0) names in
  let lift end_dff =
    Lift.lift_pair_stats target ~start_dff ~end_dff ~violation:Fault.Setup_violation
  in
  let serial = List.map lift pairs in
  Alcotest.(check bool) "some variant ran BMC" true
    (List.exists
       (fun (_, (st : Lift.pair_stats)) ->
         List.exists (fun (v : Lift.variant_stats) -> v.Lift.vs_calls > 0) st.Lift.p_variants)
       serial);
  let half k = List.filteri (fun i _ -> i mod 2 = k) pairs in
  let d0 = Domain.spawn (fun () -> List.map lift (half 0)) in
  let d1 = Domain.spawn (fun () -> List.map lift (half 1)) in
  let r0 = Domain.join d0 and r1 = Domain.join d1 in
  let rec merge a b = match a with [] -> b | x :: a -> x :: merge b a in
  Alcotest.(check int) "pairs lifted" (List.length serial) (List.length (merge r0 r1));
  Alcotest.(check bool) "two domains equal the serial run" true (merge r0 r1 = serial)

(* ---------- the gate-clause template against the per-cell encoder ---------- *)

(* The encoder the template replaced, kept as the oracle: a fresh solver
   per check, and every cycle re-derives each cell's gate clauses through
   [Sat.add_clause_array].  Same bounds, budget and trace extraction as
   [Formal.check_cover_stats] (without telemetry). *)
module Oracle = struct
  type session = { nl : Netlist.t; solver : Sat.t; base : int array; mutable depth : int }

  let var s c n =
    if n < 0 || n >= Netlist.num_nets s.nl then invalid_arg "Oracle: net out of range";
    s.base.(c) + n

  let add_gate_clauses sv base (c : Netlist.cell) =
    let y = base + c.output and i k = base + c.inputs.(k) in
    let add = Sat.add_clause_array sv in
    match c.kind with
    | Cell.Kind.Tie0 -> add [| -y |]
    | Cell.Kind.Tie1 -> add [| y |]
    | Cell.Kind.Buf -> add [| -y; i 0 |]; add [| y; -i 0 |]
    | Cell.Kind.Not -> add [| -y; -i 0 |]; add [| y; i 0 |]
    | Cell.Kind.And2 -> add [| -y; i 0 |]; add [| -y; i 1 |]; add [| y; -i 0; -i 1 |]
    | Cell.Kind.Or2 -> add [| y; -i 0 |]; add [| y; -i 1 |]; add [| -y; i 0; i 1 |]
    | Cell.Kind.Nand2 -> add [| y; i 0 |]; add [| y; i 1 |]; add [| -y; -i 0; -i 1 |]
    | Cell.Kind.Nor2 -> add [| -y; -i 0 |]; add [| -y; -i 1 |]; add [| y; i 0; i 1 |]
    | Cell.Kind.Xor2 ->
      add [| -y; i 0; i 1 |]; add [| -y; -i 0; -i 1 |]; add [| y; -i 0; i 1 |];
      add [| y; i 0; -i 1 |]
    | Cell.Kind.Xnor2 ->
      add [| y; i 0; i 1 |]; add [| y; -i 0; -i 1 |]; add [| -y; -i 0; i 1 |];
      add [| -y; i 0; -i 1 |]
    | Cell.Kind.Mux2 ->
      add [| i 2; -i 0; y |]; add [| i 2; i 0; -y |]; add [| -i 2; -i 1; y |];
      add [| -i 2; i 1; -y |]
    | Cell.Kind.Dff -> ()

  let push_cycle s =
    let base = Sat.new_vars s.solver (Netlist.num_nets s.nl) in
    s.base.(s.depth) <- base;
    s.depth <- s.depth + 1;
    let cells = Netlist.cells s.nl in
    Array.iter (add_gate_clauses s.solver base) cells;
    List.iter
      (fun id ->
        let c = cells.(id) in
        let q = base + c.output in
        if s.depth = 1 then Sat.add_clause_array s.solver [| (if c.reset_value then q else -q) |]
        else begin
          let d = s.base.(s.depth - 2) + c.inputs.(0) in
          Sat.add_clause_array s.solver [| -q; d |];
          Sat.add_clause_array s.solver [| q; -d |]
        end)
      (Netlist.dffs s.nl)

  let rec lit s ct cycle = function
    | Formal.Const b -> if b then ct else -ct
    | Formal.Input (port, bit) -> var s cycle (Netlist.net_of_port_bit s.nl port bit)
    | Formal.Net n -> var s cycle n
    | Formal.Not e -> -lit s ct cycle e
    | Formal.And (a, b) -> gate s ct cycle a b (fun v la lb -> [ [| -v; la |]; [| -v; lb |]; [| v; -la; -lb |] ])
    | Formal.Or (a, b) -> gate s ct cycle a b (fun v la lb -> [ [| v; -la |]; [| v; -lb |]; [| -v; la; lb |] ])
    | Formal.Xor (a, b) ->
      gate s ct cycle a b (fun v la lb ->
          [ [| -v; la; lb |]; [| -v; -la; -lb |]; [| v; -la; lb |]; [| v; la; -lb |] ])

  and gate s ct cycle a b clauses =
    let la = lit s ct cycle a in
    let lb = lit s ct cycle b in
    let v = Sat.new_var s.solver in
    List.iter (Sat.add_clause_array s.solver) (clauses v la lb);
    v

  let trace s watch bound =
    let value c n = Sat.value s.solver (var s c n) in
    let inputs =
      List.map
        (fun (p : Netlist.port) ->
          ( p.port_name,
            Array.init bound (fun c ->
                let v = ref (Bitvec.zero (Array.length p.port_nets)) in
                Array.iteri (fun i n -> if value c n then v := Bitvec.set_bit !v i true) p.port_nets;
                !v) ))
        (Netlist.inputs s.nl)
    in
    let observed = List.map (fun (name, n) -> (name, Array.init bound (fun c -> value c n))) watch in
    { Formal.Trace.netlist_name = Netlist.name s.nl; cycles = bound; inputs; observed }

  let check_cover_stats ~max_conflicts { nl; cover; assumes; watch; _ } =
    let complete = Option.map (fun d -> d + 1) (Formal.sequential_depth nl) in
    let max_cycles = Option.value complete ~default:8 in
    let solver = Sat.create () in
    let ct = Sat.new_var solver in
    Sat.add_clause_array solver [| ct |];
    let s = { nl; solver; base = Array.make max_cycles 0; depth = 0 } in
    let budget = ref max_conflicts and calls = ref 0 and effort = ref Sat.zero_stats in
    let rec bound k deepest =
      if k > max_cycles then
        if complete <> None then (Formal.Unreachable, deepest)
        else (Formal.Bounded_unreachable max_cycles, deepest)
      else begin
        push_cycle s;
        List.iter (fun e -> Sat.add_clause_array solver [| lit s ct (k - 1) e |]) assumes;
        let cover_lit = lit s ct (k - 1) cover in
        incr calls;
        let before = Sat.stats solver in
        let r = Sat.solve ~assumptions:[ cover_lit ] ~max_conflicts:!budget solver in
        let used = Sat.stats_diff (Sat.stats solver) before in
        effort := Sat.stats_sum !effort used;
        budget := !budget - used.Sat.conflicts;
        match r with
        | Sat.Sat -> (Formal.Trace_found (trace s watch k), deepest)
        | Sat.Unsat -> if !budget <= 0 then (Formal.Timeout k, k) else bound (k + 1) k
        | Sat.Unknown -> (Formal.Timeout deepest, deepest)
      end
    in
    let outcome, deepest = bound 1 0 in
    (outcome, { Formal.rs_solver = !effort; rs_calls = !calls; rs_deepest_unsat = deepest })
end

(* Low enough that a check that times out stays cheap: a timeout is
   compared like any other outcome. *)
let template_budget = 2_000

(* A check on a netlist without shadow logic: some output bits toggle. *)
let plain_check what ~assumes nl =
  let o = List.hd (Netlist.outputs nl) in
  let bit i = Formal.Net o.Netlist.port_nets.(i mod Array.length o.Netlist.port_nets) in
  { what; nl; cover = Formal.And (bit 0, Formal.Xor (bit 1, bit 2)); assumes; watch = [] }

let alu8 = lazy (Alu.netlist ~width:8 ())
let fpu16 = lazy (Fpu.netlist ())

(* Run [checks] in order on a new domain, whose template cache starts
   empty, each through [Formal] and through the oracle.  A check that
   raises [Invalid_argument] must raise on both. *)
let check_against_oracle checks =
  let outcome run c =
    match run ~max_conflicts:template_budget c with
    | r -> Some r
    | exception Invalid_argument _ -> None
  in
  let got = alone (fun () -> List.map (outcome run_check) checks) in
  List.iter2
    (fun c got ->
      Alcotest.(check bool) (c.what ^ ": outcome, trace and stats equal the oracle's") true
        (got = outcome Oracle.check_cover_stats c))
    checks got

let test_template_shadow_variants () =
  let alu = Lazy.force alu8 and fpu = Lazy.force fpu16 in
  let constants = [ Fault.C0; Fault.C1; Fault.C_random ] in
  check_against_oracle
    (shadow_checks ~constants ~assumes:[] "alu8" alu 7
    @ shadow_checks ~stride:5 ~constants ~assumes:fpu_assumes "fpu16" fpu 7)

let test_template_failing_netlist () =
  let fpu = Lazy.force fpu16 in
  let variant = List.hd (shadow_checks ~stride:9 ~assumes:fpu_assumes "fpu16" fpu 1) in
  let dffs = Netlist.dffs fpu in
  let name i = (Netlist.cell fpu (List.nth dffs i)).Netlist.name in
  let spec =
    { Fault.start_dff = name 0; end_dff = name (List.length dffs / 2);
      kind = Fault.Setup_violation; constant = Fault.C1; activation = Fault.Any_transition }
  in
  (* a gate in the middle of the unit changes kind: the same cell count
     and nets, different clauses from that cell on *)
  let mutated =
    let b = Netlist.Builder.of_netlist fpu in
    let id =
      List.find
        (fun id -> (Netlist.cell fpu id).Netlist.kind = Cell.Kind.And2)
        (List.init (Netlist.num_cells fpu / 2) (fun i -> (Netlist.num_cells fpu / 2) + i))
    in
    Netlist.Builder.set_kind b ~cell_id:id Cell.Kind.Or2;
    Netlist.Builder.finish b
  in
  check_against_oracle
    [
      variant;
      plain_check "fpu16 failing netlist" ~assumes:fpu_assumes (Fault.failing_netlist fpu spec);
      variant;
      plain_check "fpu16 with a gate changed" ~assumes:fpu_assumes mutated;
      variant;
    ]

let test_template_shorter_after_longer () =
  let alu = Lazy.force alu8 and fpu = Lazy.force fpu16 in
  check_against_oracle
    (shadow_checks ~stride:7 ~assumes:fpu_assumes "fpu16" fpu 1
    @ [ plain_check "fpu16 unit" ~assumes:fpu_assumes fpu ]
    @ shadow_checks ~assumes:[] "alu8" alu 1
    @ [ plain_check "alu8 unit" ~assumes:[] alu ])

let test_template_interleaved () =
  let alu = shadow_checks ~assumes:[] "alu8" (Lazy.force alu8) 4 in
  let fpu = shadow_checks ~stride:11 ~assumes:fpu_assumes "fpu16" (Lazy.force fpu16) 4 in
  (* a session that raises after its first cycle is encoded *)
  let raising =
    { (List.hd fpu) with what = "unknown port"; assumes = [ Formal.Input ("no_such_port", 0) ] }
  in
  check_against_oracle (List.concat (List.map2 (fun a f -> [ raising; a; f ]) alu fpu))

let () =
  Alcotest.run "formal"
    [
      ( "unit",
        [
          Alcotest.test_case "sequential depth" `Quick test_sequential_depth;
          Alcotest.test_case "cover simple" `Quick test_cover_simple;
          Alcotest.test_case "cover contradiction" `Quick test_cover_unreachable;
          Alcotest.test_case "cover unreachable under assumes" `Quick
            test_cover_semantic_unreachable;
          Alcotest.test_case "assumes respected" `Quick test_assumes_respected;
          Alcotest.test_case "feedback circuit trace" `Quick test_feedback_circuit_bounded;
          Alcotest.test_case "feedback bounded unreachable" `Quick
            test_feedback_unreachable_is_bounded;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "watch nets" `Quick test_watch_nets;
          Alcotest.test_case "trace rendering" `Quick test_trace_rendering;
        ] );
      ( "depth oracle",
        [
          Alcotest.test_case "random netlists" `Quick test_depth_oracle_random;
          Alcotest.test_case "feedback circuits" `Quick test_depth_oracle_feedback;
          Alcotest.test_case "instrumented alu8 and fpu16" `Quick test_depth_oracle_instrumented;
          Alcotest.test_case "memoised levels on extensions" `Quick test_depth_memo_extensions;
          Alcotest.test_case "open shared prefix not reused" `Quick test_depth_memo_open_prefix;
          prop_depth_memo_random;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "interleaved sessions equal fresh solvers" `Quick
            test_interleaved_sessions;
          Alcotest.test_case "lifts on two domains equal a serial run" `Quick test_parallel_lifts;
        ] );
      ( "template",
        [
          Alcotest.test_case "shadow variants equal the per-cell encoder" `Quick
            test_template_shadow_variants;
          Alcotest.test_case "failing and mutated netlists cut the prefix" `Quick
            test_template_failing_netlist;
          Alcotest.test_case "a shorter netlist after a longer one" `Quick
            test_template_shorter_after_longer;
          Alcotest.test_case "unrelated netlists and a raising session" `Quick
            test_template_interleaved;
        ] );
      ( "properties",
        [ prop_traces_replay; prop_parity_cover; prop_bmc_matches_exhaustive_sim ] );
    ]
