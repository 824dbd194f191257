(* Tests for the netlist IR, builder validation, analysis helpers, the
   clock tree, and the example circuits. *)

module B = Netlist.Builder

let adder = Example_circuits.pipelined_adder ()

let test_adder_shape () =
  Alcotest.(check int) "cells" 10 (Netlist.num_cells adder);
  Alcotest.(check int) "dffs" 6 (List.length (Netlist.dffs adder));
  let stats = Netlist.stats adder in
  Alcotest.(check int) "xors" 3 (List.assoc Cell.Kind.Xor2 stats);
  Alcotest.(check int) "ands" 1 (List.assoc Cell.Kind.And2 stats);
  Alcotest.(check int) "depth" 2 (Netlist.logic_depth adder)

let test_cell_lookup () =
  let c7 = Netlist.find_cell adder "$7" in
  Alcotest.(check bool) "xor kind" true (Cell.Kind.equal c7.kind Cell.Kind.Xor2);
  Alcotest.check_raises "missing cell" Not_found (fun () ->
      ignore (Netlist.find_cell adder "nope"))

let test_net_names () =
  let c7 = Netlist.find_cell adder "$7" in
  Alcotest.(check string) "cell net name" "$7.Y" (Netlist.net_name adder c7.output);
  let a = Netlist.find_input adder "a" in
  Alcotest.(check string) "input net name" "a[0]" (Netlist.net_name adder a.port_nets.(0))

let test_topo_order () =
  (* every combinational cell appears after the combinational drivers of
     its inputs *)
  let order = Netlist.topo_order adder in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) order;
  Array.iter
    (fun id ->
      let c = Netlist.cell adder id in
      Array.iter
        (fun n ->
          match Netlist.driver adder n with
          | Netlist.Driven_by_cell did when not (Cell.Kind.is_sequential (Netlist.cell adder did).kind)
            ->
            Alcotest.(check bool) "driver before reader" true
              (Hashtbl.find pos did < Hashtbl.find pos id)
          | _ -> ())
        c.inputs)
    order

let test_cones () =
  let c4 = Netlist.find_cell adder "$4" in
  let cone = Netlist.fanout_cone adder c4.output in
  let names = List.map (fun id -> (Netlist.cell adder id).name) cone in
  Alcotest.(check (list string)) "fanout of $4" [ "$7"; "$8"; "$10" ] names;
  let c10 = Netlist.find_cell adder "$10" in
  let fanin = Netlist.fanin_cone adder c10.inputs.(0) in
  let names = List.sort compare (List.map (fun id -> (Netlist.cell adder id).name) fanin) in
  Alcotest.(check (list string)) "fanin of $10.D" [ "$1"; "$2"; "$3"; "$4"; "$6"; "$7"; "$8" ]
    names

let test_output_readers () =
  let c9 = Netlist.find_cell adder "$9" in
  Alcotest.(check (list (pair string int))) "o[0] reads $9.Q" [ ("o", 0) ]
    (Netlist.output_readers adder c9.output)

let test_builder_validation () =
  let invalid msg f = Alcotest.check_raises msg (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  invalid "arity mismatch" (fun () ->
      let b = B.create "bad" in
      let x = B.add_input b "x" 1 in
      ignore (B.add_cell b Cell.Kind.And2 [| x.(0) |]));
  invalid "duplicate cell name" (fun () ->
      let b = B.create "bad" in
      let x = B.add_input b "x" 1 in
      ignore (B.add_cell ~name:"g" b Cell.Kind.Not [| x.(0) |]);
      ignore (B.add_cell ~name:"g" b Cell.Kind.Not [| x.(0) |]));
  invalid "combinational cycle" (fun () ->
      let b = B.create "bad" in
      let x = B.add_input b "x" 1 in
      let g1 = B.add_cell b Cell.Kind.And2 [| x.(0); x.(0) |] in
      let g2 = B.add_cell b Cell.Kind.Not [| g1 |] in
      (* close a loop: g1's second input becomes g2's output *)
      B.rewire_input b ~cell_id:0 ~pin:1 g2;
      ignore (B.finish b));
  invalid "undriven output port" (fun () ->
      let b = B.create "bad" in
      let x = B.add_input b "x" 1 in
      ignore x;
      let dangling = B.fresh_net b in
      B.add_output b "y" [| dangling |];
      ignore (B.finish b))

let test_of_netlist_roundtrip () =
  let b = B.of_netlist adder in
  let copy = B.finish b in
  Alcotest.(check int) "same cells" (Netlist.num_cells adder) (Netlist.num_cells copy);
  Alcotest.(check int) "same nets" (Netlist.num_nets adder) (Netlist.num_nets copy);
  let c = Netlist.find_cell copy "$8" in
  let orig = Netlist.find_cell adder "$8" in
  Alcotest.(check bool) "same wiring" true (c.inputs = orig.inputs && c.output = orig.output)

(* Everything a netlist exposes about its structure, for comparisons. *)
let structure nl =
  let nets = List.init (Netlist.num_nets nl) Fun.id in
  ( Netlist.raw nl,
    Netlist.to_verilog nl,
    Netlist.topo_order nl,
    List.map (Netlist.readers nl) nets,
    List.map (Netlist.driver nl) nets,
    Netlist.dffs nl )

let test_of_netlist_shares () =
  let unit = Alu.netlist ~width:8 () in
  let copy = B.finish (B.of_netlist unit) in
  Alcotest.(check bool) "every record shared" true
    (Array.for_all2 ( == ) (Netlist.cells unit) (Netlist.cells copy));
  Alcotest.(check bool) "equals a from-scratch build" true
    (structure copy = structure (Alu.netlist ~width:8 ()))

let test_of_netlist_copy_on_write () =
  let before = Netlist.raw adder in
  let b = B.of_netlist adder in
  let c7 = Netlist.find_cell adder "$7" and c8 = Netlist.find_cell adder "$8" in
  let a0 = (Netlist.find_input adder "a").port_nets.(0) in
  B.rewire_input b ~cell_id:c7.id ~pin:0 a0;
  B.set_kind b ~cell_id:c8.id Cell.Kind.Or2;
  let extra = B.add_cell ~name:"extra" b Cell.Kind.Not [| c8.output |] in
  B.add_output b "e" [| extra |];
  let child = B.finish b in
  Alcotest.(check bool) "parent unchanged" true (Netlist.raw adder = before);
  Alcotest.(check bool) "rewired in the child" true
    ((Netlist.find_cell child "$7").inputs.(0) = a0);
  Alcotest.(check bool) "kind changed in the child" true
    ((Netlist.find_cell child "$8").kind = Cell.Kind.Or2);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "cell %d shared iff unedited" i)
        (i <> c7.id && i <> c8.id)
        (c == Netlist.cell adder i))
    (Array.sub (Netlist.cells child) 0 (Netlist.num_cells adder));
  (* the builder's later edits reach neither netlist *)
  let child_raw = Netlist.raw child in
  B.rewire_input b ~cell_id:c7.id ~pin:1 a0;
  B.rewire_input b ~cell_id:(Netlist.num_cells adder) ~pin:0 a0;
  Alcotest.(check bool) "child unchanged by later edits" true (Netlist.raw child = child_raw);
  Alcotest.(check bool) "parent unchanged by later edits" true (Netlist.raw adder = before)

let test_of_netlist_names () =
  let b = B.of_netlist adder in
  Alcotest.check_raises "a parent's name is taken"
    (Invalid_argument "Builder.add_cell: duplicate cell name $7") (fun () ->
      ignore (B.add_cell ~name:"$7" b Cell.Kind.Not [| 0 |]));
  (* a chain of extensions, each adding one cell, longer than the name
     table's chain limit *)
  let rec extend nl k =
    if k = 0 then nl
    else begin
      let b = B.of_netlist nl in
      ignore (B.add_cell ~name:(Printf.sprintf "n%d" k) b Cell.Kind.Not [| 0 |]);
      extend (B.finish b) (k - 1)
    end
  in
  let child = extend adder 20 in
  Alcotest.check_raises "child names stay out of the parent" Not_found (fun () ->
      ignore (Netlist.find_cell adder "n20"));
  let expect = Array.to_list (Array.map (fun (c : Netlist.cell) -> (c.name, c.id)) (Netlist.cells child)) in
  let lookups () =
    List.for_all
      (fun _ -> List.for_all (fun (name, id) -> (Netlist.find_cell child name).id = id) expect)
      (List.init 200 Fun.id)
  in
  let d1 = Domain.spawn lookups and d2 = Domain.spawn lookups in
  Alcotest.(check bool) "lookups from two domains" true (Domain.join d1 && Domain.join d2);
  Alcotest.(check int) "every cell named" (Netlist.num_cells adder + 20) (List.length expect)

let test_verilog_export () =
  let v = Netlist.to_verilog adder in
  Alcotest.(check bool) "has module header" true
    (String.length v > 0 && String.sub v 0 6 = "module");
  let contains needle =
    let nl = String.length needle and hl = String.length v in
    let rec go i = i + nl <= hl && (String.sub v i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions DFF" true (contains "DFF");
  Alcotest.(check bool) "mentions XOR2" true (contains "XOR2");
  Alcotest.(check bool) "endmodule" true (contains "endmodule")

let test_dot_export () =
  let dot = Netlist.to_dot adder in
  let contains needle =
    let nl = String.length needle and hl = String.length dot in
    let rec go i = i + nl <= hl && (String.sub dot i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph paper_adder");
  Alcotest.(check bool) "dff node" true (contains "\"$1\" [shape=box3d");
  Alcotest.(check bool) "edge" true (contains "\"$7\" -> \"$8\"");
  Alcotest.(check bool) "input edge" true (contains "\"a[0]\" -> \"$1\"");
  Alcotest.(check bool) "closes" true (contains "}")

let test_clock_tree () =
  let tree = Clock_tree.two_domain_gated ~leaf_buffers:4 ~sp_gated:0.95 () in
  Alcotest.(check (list int)) "domains" [ 0; 1 ] (Clock_tree.domains tree);
  let flat_delay ~sp:_ = 10.0 in
  Alcotest.(check (float 1e-9)) "arrival d0" 60.0 (Clock_tree.arrival_ps tree ~buffer_delay:flat_delay 0);
  Alcotest.(check (float 1e-9)) "no skew with flat delays" 0.0
    (Clock_tree.skew_ps tree ~buffer_delay:flat_delay ~src:0 ~dst:1);
  (* aged delays depending on sp create skew *)
  let aged ~sp = 10.0 +. (5.0 *. sp) in
  Alcotest.(check bool) "gated domain arrives later" true
    (Clock_tree.skew_ps tree ~buffer_delay:aged ~src:0 ~dst:1 > 0.0);
  Alcotest.check_raises "unknown domain"
    (Invalid_argument "Clock_tree gated: no domain 7") (fun () ->
      ignore (Clock_tree.arrival_ps tree ~buffer_delay:flat_delay 7))

let test_clock_tree_validation () =
  Alcotest.check_raises "duplicate domains" (Invalid_argument "Clock_tree: duplicate domain id")
    (fun () ->
      ignore
        (Clock_tree.create "dup"
           (Clock_tree.Branch
              {
                branch_name = "r";
                buffers = 1;
                activity_sp = 0.5;
                children =
                  [
                    Clock_tree.Leaf { domain = 0; leaf_name = "a"; buffers = 1; activity_sp = 0.5 };
                    Clock_tree.Leaf { domain = 0; leaf_name = "b"; buffers = 1; activity_sp = 0.5 };
                  ];
              })))

let test_dff_chain () =
  let c = Example_circuits.dff_chain 5 in
  Alcotest.(check int) "five dffs" 5 (List.length (Netlist.dffs c));
  Alcotest.(check int) "no comb" 0 (Array.length (Netlist.topo_order c))

let test_xor_tree () =
  let c = Example_circuits.comb_xor_tree 8 in
  Alcotest.(check int) "seven xors" 7 (Netlist.num_cells c)

(* Property: random DAG circuits built through the builder always pass
   validation and give a consistent topo order. *)
let arb_circuit_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000)

let build_random_circuit seed =
  let rng = Random.State.make [| seed |] in
  let b = B.create "random" in
  let x = B.add_input b "x" 4 in
  let nets = ref (Array.to_list x) in
  let n_gates = 5 + Random.State.int rng 30 in
  for _ = 1 to n_gates do
    let pick () = List.nth !nets (Random.State.int rng (List.length !nets)) in
    let kind =
      match Random.State.int rng 5 with
      | 0 -> Cell.Kind.And2
      | 1 -> Cell.Kind.Or2
      | 2 -> Cell.Kind.Xor2
      | 3 -> Cell.Kind.Not
      | _ -> Cell.Kind.Dff
    in
    let inputs =
      Array.init (Cell.Kind.arity kind) (fun _ -> pick ())
    in
    let out =
      if Cell.Kind.is_sequential kind then B.add_cell ~clock_domain:0 b kind inputs
      else B.add_cell b kind inputs
    in
    nets := out :: !nets
  done;
  B.add_output b "y" [| List.hd !nets |];
  B.finish b

let prop_random_circuits =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"random DAGs validate and topo-sort" arb_circuit_seed
       (fun seed ->
         let nl = build_random_circuit seed in
         let order = Netlist.topo_order nl in
         let comb =
           Array.to_list (Netlist.cells nl)
           |> List.filter (fun (c : Netlist.cell) -> not (Cell.Kind.is_sequential c.kind))
         in
         Array.length order = List.length comb))

(* The Kahn sort [Builder.finish] ran before its in-degrees moved to an
   int array: a Hashtbl of combinational in-degrees and a Queue, seeded
   with the ready cells in id order.  Kept as the oracle for
   [Netlist.topo_order], which must match it exactly. *)
let hashtbl_kahn nl =
  let cells = Netlist.cells nl in
  let comb =
    Array.to_list cells
    |> List.filter (fun (c : Netlist.cell) -> not (Cell.Kind.is_sequential c.kind))
  in
  let indeg = Hashtbl.create 64 in
  List.iter
    (fun (c : Netlist.cell) ->
      let d =
        Array.to_list c.inputs
        |> List.filter (fun n ->
               match Netlist.driver nl n with
               | Netlist.Driven_by_cell id -> not (Cell.Kind.is_sequential cells.(id).kind)
               | Netlist.Driven_by_input _ -> false)
        |> List.length
      in
      Hashtbl.replace indeg c.id d)
    comb;
  let queue = Queue.create () in
  List.iter
    (fun (c : Netlist.cell) -> if Hashtbl.find indeg c.id = 0 then Queue.add c.id queue)
    comb;
  let topo = ref [] in
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    topo := id :: !topo;
    List.iter
      (fun rid ->
        match Hashtbl.find_opt indeg rid with
        | None -> ()
        | Some d ->
          Hashtbl.replace indeg rid (d - 1);
          if d = 1 then Queue.add rid queue)
      (Netlist.readers nl cells.(id).output)
  done;
  Array.of_list (List.rev !topo)

let check_topo_matches_oracle what nl =
  Alcotest.(check (array int)) what (hashtbl_kahn nl) (Netlist.topo_order nl)

let test_topo_oracle_units () =
  List.iter
    (fun (what, nl) -> check_topo_matches_oracle what nl)
    [
      ("adder", adder);
      ("lfsr4", Example_circuits.lfsr4 ());
      ("xor tree", Example_circuits.comb_xor_tree 8);
      ("alu8", Alu.netlist ~width:8 ());
      ("alu32", Alu.netlist ~width:32 ());
      ("fpu16", Fpu.netlist ());
      ( "fpu16 instrumented",
        (Fault.instrument_shadow (Fpu.netlist ())
           (List.hd (Fault.variants ~start_dff:"a_q3" ~end_dff:"r_q14" Fault.Setup_violation)))
          .Fault.netlist );
    ]

let prop_topo_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"topo order matches the Hashtbl Kahn oracle"
       arb_circuit_seed (fun seed ->
         let nl = build_random_circuit seed in
         hashtbl_kahn nl = Netlist.topo_order nl))

(* ---- extension finish against a full rebuild ---- *)

(* Every table [finish] derives, for comparing an extension's patched
   tables with a full rebuild. *)
let tables nl =
  let nets = List.init (Netlist.num_nets nl) Fun.id in
  let cells = Array.to_list (Netlist.cells nl) in
  ( Netlist.num_nets nl,
    List.map (Netlist.driver nl) nets,
    List.map (Netlist.readers nl) nets,
    Netlist.topo_order nl,
    Netlist.dffs nl,
    List.map (fun (c : Netlist.cell) -> (c.name, (Netlist.find_cell nl c.name).id)) cells,
    Netlist.raw nl )

(* The same cells with every table derived from scratch. *)
let rebuild nl = B.finish_full (B.of_netlist nl)

let check_rebuild what nl =
  Alcotest.(check bool) (what ^ ": extension tables equal a full rebuild") true
    (tables nl = tables (rebuild nl))

let spec ?(activation = Fault.Any_transition) start_dff end_dff kind constant =
  { Fault.start_dff; end_dff; kind; constant; activation }

(* Shadow netlists of FPU16 pairs under every constant and activation, a
   failing netlist (its capturing DFF is a copied record), a unit edited
   by [set_kind] and a shadow netlist of that edited unit. *)
let test_extension_units () =
  let fpu = Fpu.netlist () in
  let dff i = (Netlist.cell fpu (List.nth (Netlist.dffs fpu) i)).Netlist.name in
  let pairs =
    [ (dff 0, dff 5, Fault.Setup_violation); (dff 3, dff 20, Fault.Hold_violation);
      (dff 7, dff 7, Fault.Setup_violation); ("a_q3", "r_q14", Fault.Setup_violation) ]
  in
  let checked = ref 0 in
  List.iter
    (fun (x, y, kind) ->
      let specs =
        Fault.variants ~start_dff:x ~end_dff:y kind
        @ Fault.variants ~mitigation:true ~start_dff:x ~end_dff:y kind
        @ [ spec x y kind Fault.C_random ]
      in
      List.iter
        (fun sp ->
          match Fault.instrument_shadow fpu sp with
          | exception Invalid_argument _ -> ()
          | inst ->
            incr checked;
            check_rebuild ("shadow " ^ Fault.describe sp) inst.Fault.netlist)
        specs;
      check_rebuild ("failing " ^ Fault.describe (spec x y kind Fault.C1))
        (Fault.failing_netlist fpu (spec x y kind Fault.C1)))
    pairs;
  Alcotest.(check bool) "shadow netlists checked" true (!checked >= 12);
  let b = B.of_netlist fpu in
  let comb =
    List.filter
      (fun (c : Netlist.cell) -> c.kind = Cell.Kind.And2)
      (Array.to_list (Netlist.cells fpu))
  in
  List.iteri
    (fun i (c : Netlist.cell) -> if i mod 7 = 0 then B.set_kind b ~cell_id:c.id Cell.Kind.Nor2)
    comb;
  let edited = B.finish b in
  Alcotest.(check bool) "set_kind edit: finish equals finish_full" true
    (tables edited = tables (B.finish_full b));
  check_rebuild "set_kind-edited unit" edited;
  check_rebuild "shadow of the edited unit"
    (Fault.instrument_shadow edited (spec "a_q3" "r_q14" Fault.Setup_violation Fault.C0))
      .Fault.netlist

let cycle_error name =
  Invalid_argument (Printf.sprintf "Netlist %s: combinational cycle detected" name)

(* A loop an extension closes through a copied record, through cells it
   appends, and through both; a loop cut by a DFF is accepted. *)
let test_extension_cycles () =
  let unit = Alu.netlist ~width:8 () in
  let name = Netlist.name unit in
  let topo = Netlist.topo_order unit in
  let first =
    Netlist.cell unit
      (List.find (fun id -> Array.length (Netlist.cell unit id).inputs > 0) (Array.to_list topo))
  and last = Netlist.cell unit topo.(Array.length topo - 1) in
  Alcotest.check_raises "rewired unit cell reads its own fan-out" (cycle_error name) (fun () ->
      let b = B.of_netlist unit in
      let deep = Netlist.fanout_cone unit first.output in
      let reader =
        List.find
          (fun id -> not (Cell.Kind.is_sequential (Netlist.cell unit id).kind))
          (List.rev deep)
      in
      B.rewire_input b ~cell_id:first.id ~pin:0 (Netlist.cell unit reader).output;
      ignore (B.finish b));
  Alcotest.check_raises "appended cells close a loop" (cycle_error name) (fun () ->
      let b = B.of_netlist unit in
      let g1, y1 = B.add_cell_with_id ~name:"t_a" b Cell.Kind.And2 [| last.output; last.output |] in
      let y2 = B.add_cell ~name:"t_n" b Cell.Kind.Not [| y1 |] in
      B.rewire_input b ~cell_id:g1 ~pin:1 y2;
      ignore (B.finish b));
  Alcotest.check_raises "appended cell and a unit cell close a loop" (cycle_error name) (fun () ->
      let b = B.of_netlist unit in
      let y = B.add_cell ~name:"t_n" b Cell.Kind.Not [| last.output |] in
      B.rewire_input b ~cell_id:last.id ~pin:0 y;
      ignore (B.finish b));
  let b = B.of_netlist unit in
  let g, y = B.add_cell_with_id ~name:"t_x" b Cell.Kind.Xor2 [| last.output; last.output |] in
  let q = B.add_cell ~name:"t_q" ~clock_domain:0 b Cell.Kind.Dff [| y |] in
  B.rewire_input b ~cell_id:g ~pin:1 q;
  B.add_output b "t" [| q |];
  let nl = B.finish b in
  Alcotest.(check bool) "a loop through a DFF is accepted" true
    (tables nl = tables (B.finish_full b))

(* Random edits of random circuits, two extensions deep: [finish] and
   [finish_full] of the same builder give equal tables or raise the same
   error.  Rewiring to random nets closes loops and reads nets no cell
   drives. *)
let random_extension rng nl =
  let b = B.of_netlist nl in
  let nets = ref (Netlist.num_nets nl) in
  let pick () = Random.State.int rng !nets in
  for _ = 1 to 1 + Random.State.int rng 6 do
    match Random.State.int rng 6 with
    | 0 | 1 ->
      let kind = if Random.State.bool rng then Cell.Kind.And2 else Cell.Kind.Dff in
      let name = Printf.sprintf "e%d_%d" (Netlist.num_cells nl) (B.num_cells b) in
      let inputs = Array.init (Cell.Kind.arity kind) (fun _ -> pick ()) in
      ignore (B.add_cell ~name ~clock_domain:0 b kind inputs);
      incr nets
    | 2 ->
      let id = Random.State.int rng (B.num_cells b) in
      let arity = if id < Netlist.num_cells nl then Array.length (Netlist.cell nl id).inputs else 1 in
      let net =
        if Random.State.int rng 8 = 0 then begin
          incr nets;
          B.fresh_net b
        end
        else pick ()
      in
      if arity > 0 then B.rewire_input b ~cell_id:id ~pin:(Random.State.int rng arity) net
    | 3 ->
      let c = Netlist.cell nl (Random.State.int rng (Netlist.num_cells nl)) in
      if Array.length c.inputs = 2 && not (Cell.Kind.is_sequential c.kind) then
        B.set_kind b ~cell_id:c.id Cell.Kind.Xnor2
    | 4 ->
      ignore (B.add_input b (Printf.sprintf "i%d" !nets) 2);
      nets := !nets + 2
    | _ -> B.add_output b (Printf.sprintf "o%d" (Random.State.bits rng)) [| pick () |]
  done;
  b

let prop_extension_finish =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"extension finish equals finish_full on random edits"
       arb_circuit_seed (fun seed ->
         let rng = Random.State.make [| seed; 0xe7 |] in
         let outcome f =
           match f () with nl -> Ok (tables nl) | exception Invalid_argument m -> Error m
         in
         let rec go nl depth =
           let b = random_extension rng nl in
           let ext = outcome (fun () -> B.finish b) in
           ext = outcome (fun () -> B.finish_full b)
           && (depth = 0 || match ext with Ok _ -> go (B.finish b) (depth - 1) | Error _ -> true)
         in
         go (build_random_circuit seed) 1))

let () =
  Alcotest.run "netlist"
    [
      ( "adder example",
        [
          Alcotest.test_case "shape" `Quick test_adder_shape;
          Alcotest.test_case "cell lookup" `Quick test_cell_lookup;
          Alcotest.test_case "net names" `Quick test_net_names;
          Alcotest.test_case "topo order" `Quick test_topo_order;
          Alcotest.test_case "cones" `Quick test_cones;
          Alcotest.test_case "output readers" `Quick test_output_readers;
        ] );
      ( "builder",
        [
          Alcotest.test_case "validation" `Quick test_builder_validation;
          Alcotest.test_case "of_netlist round trip" `Quick test_of_netlist_roundtrip;
          Alcotest.test_case "of_netlist shares every record" `Quick test_of_netlist_shares;
          Alcotest.test_case "of_netlist copies on write" `Quick test_of_netlist_copy_on_write;
          Alcotest.test_case "of_netlist names" `Quick test_of_netlist_names;
          Alcotest.test_case "verilog export" `Quick test_verilog_export;
          Alcotest.test_case "dot export" `Quick test_dot_export;
        ] );
      ( "clock tree",
        [
          Alcotest.test_case "arrivals and skew" `Quick test_clock_tree;
          Alcotest.test_case "validation" `Quick test_clock_tree_validation;
        ] );
      ( "other examples",
        [
          Alcotest.test_case "dff chain" `Quick test_dff_chain;
          Alcotest.test_case "xor tree" `Quick test_xor_tree;
        ] );
      ( "topo oracle",
        [ Alcotest.test_case "example and unit netlists" `Quick test_topo_oracle_units ] );
      ( "extensions",
        [
          Alcotest.test_case "FPU16 shadow, failing and edited netlists" `Quick
            test_extension_units;
          Alcotest.test_case "new combinational cycles rejected" `Quick test_extension_cycles;
        ] );
      ("properties", [ prop_random_circuits; prop_topo_oracle; prop_extension_finish ]);
    ]
