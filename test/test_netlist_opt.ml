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

(* ---- the fold, the liveness and the sweep against the copies they
   replaced: repair kept its own folding table for Shannon cofactors and
   its own dead-cell rebuild; both are kept here verbatim as oracles. *)

type cvalue = Cconst of bool | Cnet of Netlist.net

let fold_gate kind (vals : cvalue array) =
  let kind_eval a b = Cell.Kind.eval kind [| a; b |] in
  match kind with
  | Cell.Kind.Buf -> Some vals.(0)
  | Cell.Kind.Not -> (
      match vals.(0) with Cconst v -> Some (Cconst (not v)) | Cnet _ -> None)
  | Cell.Kind.Tie0 -> Some (Cconst false)
  | Cell.Kind.Tie1 -> Some (Cconst true)
  | Cell.Kind.And2 | Cell.Kind.Or2 | Cell.Kind.Xor2 | Cell.Kind.Nand2
  | Cell.Kind.Nor2 | Cell.Kind.Xnor2 -> (
      match (vals.(0), vals.(1)) with
      | Cconst a, Cconst b -> Some (Cconst (kind_eval a b))
      | (Cconst cv, (Cnet _ as other)) | ((Cnet _ as other), Cconst cv) -> (
          match (kind, cv) with
          | Cell.Kind.And2, false -> Some (Cconst false)
          | Cell.Kind.And2, true -> Some other
          | Cell.Kind.Or2, true -> Some (Cconst true)
          | Cell.Kind.Or2, false -> Some other
          | Cell.Kind.Xor2, false -> Some other
          | Cell.Kind.Xnor2, true -> Some other
          | Cell.Kind.Nand2, false -> Some (Cconst true)
          | Cell.Kind.Nor2, true -> Some (Cconst false)
          | _ -> None (* would need an inverter: keep the gate *))
      | Cnet a, Cnet b when a = b -> (
          match kind with
          | Cell.Kind.And2 | Cell.Kind.Or2 -> Some vals.(0)
          | Cell.Kind.Xor2 -> Some (Cconst false)
          | Cell.Kind.Xnor2 -> Some (Cconst true)
          | _ -> None)
      | _ -> None)
  | Cell.Kind.Mux2 -> (
      match vals.(2) with
      | Cconst false -> Some vals.(0)
      | Cconst true -> Some vals.(1)
      | Cnet _ -> (
          match (vals.(0), vals.(1)) with
          | Cnet a, Cnet b when a = b -> Some vals.(0)
          | Cconst a, Cconst b when a = b -> Some (Cconst a)
          | _ -> None))
  | Cell.Kind.Dff -> None

let test_fold_matches_oracle () =
  (* every kind over every input tuple from {0, 1, x, y}: 174 cases *)
  let alphabet = [ Cconst false; Cconst true; Cnet 0; Cnet 1 ] in
  let to_value = function Cconst b -> Netlist_opt.Const b | Cnet n -> Netlist_opt.Same n in
  let rec tuples k =
    if k = 0 then [ [] ]
    else List.concat_map (fun v -> List.map (fun t -> v :: t) (tuples (k - 1))) alphabet
  in
  let cases = ref 0 in
  List.iter
    (fun kind ->
      List.iter
        (fun t ->
          incr cases;
          let vals = Array.of_list t in
          let want = Option.map to_value (fold_gate kind vals) in
          let got = Netlist_opt.fold kind (Array.map to_value vals) in
          if got <> want then Alcotest.failf "fold %s disagrees" (Cell.Kind.to_string kind))
        (tuples (Cell.Kind.arity kind)))
    Cell.Kind.all;
  Alcotest.(check int) "combinations" 174 !cases

(* Tie cells are constants already: folding never counts them. *)
let test_fold_stats_exact () =
  let b = B.create "ties" in
  let x = B.add_input b "x" 1 in
  let zero = B.add_cell b Cell.Kind.Tie0 [||] in
  let one = B.add_cell b Cell.Kind.Tie1 [||] in
  let a = B.add_cell b Cell.Kind.And2 [| x.(0); one |] in
  let o = B.add_cell b Cell.Kind.Or2 [| a; zero |] in
  B.add_output b "y" [| o |];
  let _, stats = Netlist_opt.optimize (B.finish b) in
  Alcotest.(check (list int)) "before, after, folded, dead" [ 4; 0; 2; 2 ]
    Netlist_opt.[ stats.cells_before; stats.cells_after; stats.folded; stats.dead_removed ]

let test_optimize_goldens () =
  List.iter
    (fun (golden, nl) ->
      let _, stats = Netlist_opt.optimize nl in
      let got =
        Printf.sprintf "%d cells -> %d cells (%d folded, %d dead)" stats.Netlist_opt.cells_before
          stats.Netlist_opt.cells_after stats.Netlist_opt.folded stats.Netlist_opt.dead_removed
      in
      let ic = open_in (Filename.concat "golden" golden) in
      let want = input_line ic in
      close_in ic;
      Alcotest.(check string) golden want got)
    [ ("optimize_alu8.txt", Alu.netlist ~width:8 ()); ("optimize_fpu.txt", Fpu.netlist ()) ]

let oracle_live_cells nl =
  let live = Array.make (max 1 (Netlist.num_cells nl)) false in
  let seen = Array.make (max 1 (Netlist.num_nets nl)) false in
  let rec need net =
    if not seen.(net) then begin
      seen.(net) <- true;
      match Netlist.driver nl net with
      | Netlist.Driven_by_input _ -> ()
      | Netlist.Driven_by_cell id ->
          if not live.(id) then begin
            live.(id) <- true;
            Array.iter need (Netlist.cell nl id).Netlist.inputs
          end
    end
  in
  List.iter (fun p -> Array.iter need p.Netlist.port_nets) (Netlist.outputs nl);
  live

let sweep_dead nl =
  let live = oracle_live_cells nl in
  if Array.for_all (fun x -> x) live then nl
  else begin
    let b = Netlist.Builder.create (Netlist.name nl) in
    let nmap = Hashtbl.create 997 in
    let map_net n =
      match Hashtbl.find_opt nmap n with
      | Some n' -> n'
      | None -> failwith (Printf.sprintf "sweep: unmapped net %d" n)
    in
    List.iter
      (fun p ->
        let nets =
          Netlist.Builder.add_input b p.Netlist.port_name
            (Array.length p.Netlist.port_nets)
        in
        Array.iteri (fun i old -> Hashtbl.replace nmap old nets.(i)) p.Netlist.port_nets)
      (Netlist.inputs nl);
    let bootstrap =
      ref
        (List.find_map
           (fun p ->
             if Array.length p.Netlist.port_nets > 0 then
               Hashtbl.find_opt nmap p.Netlist.port_nets.(0)
             else None)
           (Netlist.inputs nl))
    in
    let borrow_net () =
      match !bootstrap with
      | Some n -> n
      | None ->
          let n = Netlist.Builder.fresh_net b in
          bootstrap := Some n;
          n
    in
    let dff_map = ref [] in
    List.iter
      (fun id ->
        if live.(id) then begin
          let c = Netlist.cell nl id in
          let ph = Array.map (fun _ -> borrow_net ()) c.Netlist.inputs in
          let nid, q =
            Netlist.Builder.add_cell_with_id ~name:c.Netlist.name
              ~clock_domain:c.Netlist.clock_domain ~reset_value:c.Netlist.reset_value b
              c.Netlist.kind ph
          in
          Hashtbl.replace nmap c.Netlist.output q;
          dff_map := (nid, id) :: !dff_map
        end)
      (Netlist.dffs nl);
    Array.iter
      (fun id ->
        if live.(id) then begin
          let c = Netlist.cell nl id in
          let out =
            Netlist.Builder.add_cell ~name:c.Netlist.name b c.Netlist.kind
              (Array.map map_net c.Netlist.inputs)
          in
          Hashtbl.replace nmap c.Netlist.output out
        end)
      (Netlist.topo_order nl);
    List.iter
      (fun (nid, oid) ->
        let c = Netlist.cell nl oid in
        Array.iteri
          (fun pin old -> Netlist.Builder.rewire_input b ~cell_id:nid ~pin (map_net old))
          c.Netlist.inputs)
      !dff_map;
    List.iter
      (fun p ->
        Netlist.Builder.add_output b p.Netlist.port_name
          (Array.map map_net p.Netlist.port_nets))
      (Netlist.outputs nl);
    Netlist.Builder.finish b
  end

(* Field-by-field identity of two netlists; [None] when identical, else
   the first difference. *)
let netlist_diff a b =
  let cell_view (c : Netlist.cell) =
    ( c.Netlist.name,
      Cell.Kind.to_string c.Netlist.kind,
      Array.to_list c.Netlist.inputs,
      (c.Netlist.output, c.Netlist.clock_domain, c.Netlist.reset_value) )
  in
  let port_view (p : Netlist.port) = (p.Netlist.port_name, Array.to_list p.Netlist.port_nets) in
  let checks =
    [
      ("name", Netlist.name a = Netlist.name b);
      ("net count", Netlist.num_nets a = Netlist.num_nets b);
      ("cells", Array.map cell_view (Netlist.cells a) = Array.map cell_view (Netlist.cells b));
      ("inputs", List.map port_view (Netlist.inputs a) = List.map port_view (Netlist.inputs b));
      ("outputs", List.map port_view (Netlist.outputs a) = List.map port_view (Netlist.outputs b));
      ("dffs", Netlist.dffs a = Netlist.dffs b);
      ("topo_order", Netlist.topo_order a = Netlist.topo_order b);
    ]
  in
  List.find_map (fun (what, ok) -> if ok then None else Some what) checks

let check_sweep nl =
  let want = sweep_dead nl and got = Netlist_opt.sweep nl in
  if (want == nl) <> (got == nl) then Some "all-live early return"
  else netlist_diff want got

(* Random sequential netlists: zero to three input ports (none takes the
   bootstrap-net path), a comb/DFF soup over them and a couple of tie
   cells, DFF feedback, and either every net observed (all live: the
   sweep returns its input) or a few outputs and some dead logic. *)
let random_netlist rng =
  let b = B.create "rnd" in
  let pool = ref [] in
  for i = 0 to Random.State.int rng 4 - 1 do
    let port = B.add_input b (Printf.sprintf "in%d" i) (1 + Random.State.int rng 3) in
    pool := Array.to_list port @ !pool
  done;
  pool := B.add_cell b Cell.Kind.Tie0 [||] :: B.add_cell b Cell.Kind.Tie1 [||] :: !pool;
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let comb_kinds = List.filter (fun k -> not (Cell.Kind.is_sequential k)) Cell.Kind.all in
  let comb_kinds = Array.of_list comb_kinds in
  let dffs = ref [] in
  for _ = 1 to 4 + Random.State.int rng 24 do
    let out =
      match Random.State.int rng 10 with
      | 0 | 1 ->
        let id, q =
          B.add_cell_with_id ~clock_domain:(Random.State.int rng 2)
            ~reset_value:(Random.State.bool rng) b Cell.Kind.Dff [| pick () |]
        in
        dffs := id :: !dffs;
        q
      | _ ->
        let k = comb_kinds.(Random.State.int rng (Array.length comb_kinds)) in
        B.add_cell b k (Array.init (Cell.Kind.arity k) (fun _ -> pick ()))
    in
    pool := out :: !pool
  done;
  (* feedback: some registers re-read later logic *)
  List.iter
    (fun id -> if Random.State.bool rng then B.rewire_input b ~cell_id:id ~pin:0 (pick ()))
    !dffs;
  if Random.State.int rng 3 = 0 then B.add_output b "all" (Array.of_list !pool)
  else
    for i = 0 to Random.State.int rng 3 do
      let width = 1 + Random.State.int rng 3 in
      B.add_output b (Printf.sprintf "out%d" i) (Array.init width (fun _ -> pick ()))
    done;
  B.finish b

let prop_sweep_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"sweep equals the rebuild it replaced"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
       (fun seed ->
         let nl = random_netlist (Random.State.make [| seed |]) in
         match check_sweep nl with
         | None -> true
         | Some what -> QCheck.Test.fail_reportf "sweep differs from the oracle: %s" what))

(* A repair-style candidate: an extending builder rewires every reader of
   one gate to a fresh duplicate, leaving the original dead. *)
let repair_candidate () =
  let nl = Alu.netlist ~width:8 () in
  let victim =
    Array.to_list (Netlist.cells nl)
    |> List.find (fun (c : Netlist.cell) ->
           Cell.Kind.arity c.Netlist.kind = 2
           && (not (Cell.Kind.is_sequential c.Netlist.kind))
           && Netlist.readers nl c.Netlist.output <> []
           && Netlist.output_readers nl c.Netlist.output = [])
  in
  let b = B.of_netlist nl in
  let dup = B.add_cell ~name:"_rp0_dup" b victim.Netlist.kind (Array.copy victim.Netlist.inputs) in
  List.iter
    (fun rid ->
      Array.iteri
        (fun pin n -> if n = victim.Netlist.output then B.rewire_input b ~cell_id:rid ~pin dup)
        (Netlist.cell nl rid).Netlist.inputs)
    (Netlist.readers nl victim.Netlist.output);
  B.finish b

let test_sweep_fixed_cases () =
  List.iter
    (fun (what, nl) ->
      match check_sweep nl with
      | None -> ()
      | Some diff -> Alcotest.failf "%s: sweep differs from the oracle: %s" what diff)
    [
      ("ALU8", Alu.netlist ~width:8 ());
      ("FPU16", Fpu.netlist ());
      ("repair candidate", repair_candidate ());
    ];
  let cand = repair_candidate () in
  Alcotest.(check bool) "candidate has a dead cell" true
    (Array.exists not (Netlist_opt.live_cells cand));
  Alcotest.(check bool) "liveness equals the oracle" true
    (Netlist_opt.live_cells cand = oracle_live_cells cand)

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
      ( "one owner",
        [
          Alcotest.test_case "fold equals the repair copy" `Quick test_fold_matches_oracle;
          Alcotest.test_case "tie cells are not folds" `Quick test_fold_stats_exact;
          Alcotest.test_case "optimize goldens" `Quick test_optimize_goldens;
          Alcotest.test_case "sweep fixed cases" `Quick test_sweep_fixed_cases;
          prop_sweep_matches_oracle;
        ] );
    ]
