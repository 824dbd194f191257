(* Differential property tests for the detection-sweep simulator: on
   random netlists and the example circuits, Sim64 lane k must agree with a
   scalar Sim fed lane k's stimulus — every output port, every cycle,
   including settle-only (no clock edge) cycles. *)

module B = Netlist.Builder

let bv w v = Bitvec.create ~width:w v
let rand_bits rng w = Random.State.int rng (1 lsl w)

(* --- random netlist generation --- *)

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
    (* one in four cells is a DFF, so feedback-free sequential depth shows up *)
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

(* --- the differential harness --- *)

(* Run [cycles] cycles of random stimulus on all lanes at once and on
   [Sim64.lanes] scalar references; true iff every output agrees. *)
let differential_run rng nl cycles =
  let nlanes = Sim64.lanes in
  let s64 = Sim64.create nl in
  let refs = Array.init nlanes (fun _ -> Sim.create nl) in
  let in_ports = Netlist.inputs nl in
  let out_ports = Netlist.outputs nl in
  let ok = ref true in
  for _ = 1 to cycles do
    List.iter
      (fun (p : Netlist.port) ->
        let w = Array.length p.Netlist.port_nets in
        let vals = Array.init nlanes (fun _ -> rand_bits rng w) in
        Array.iteri (fun lane v -> Sim.set_input refs.(lane) p.Netlist.port_name (bv w v)) vals;
        Sim64.set_input_words s64 p.Netlist.port_name (Lanes.pack w vals))
      in_ports;
    if Random.State.int rng 4 = 0 then begin
      Sim64.settle s64;
      Array.iter Sim.settle refs
    end
    else begin
      Sim64.step s64;
      Array.iter (fun r -> Sim.step r) refs
    end;
    List.iter
      (fun (p : Netlist.port) ->
        let words = Sim64.output_words s64 p.Netlist.port_name in
        for lane = 0 to nlanes - 1 do
          let want = Sim.output refs.(lane) p.Netlist.port_name in
          Array.iteri
            (fun bit w -> if Bitvec.bit want bit <> ((w lsr lane) land 1 = 1) then ok := false)
            words
        done)
      out_ports
  done;
  !ok

let prop_differential_random_netlists =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"Sim64 lane k = scalar Sim on random netlists"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 0xd1ff |] in
         let nl = build_random_netlist rng in
         differential_run rng nl (6 + Random.State.int rng 6)))

let test_differential_examples () =
  let rng = Random.State.make [| 0x51b64 |] in
  List.iter
    (fun nl ->
      Alcotest.(check bool)
        (Printf.sprintf "differential on %s" (Netlist.name nl))
        true (differential_run rng nl 16))
    [
      Example_circuits.pipelined_adder ();
      Example_circuits.pipelined_adder ~split_domains:true ();
      Example_circuits.dff_chain 5;
      Example_circuits.lfsr4 ();
      Example_circuits.comb_xor_tree 8;
    ]

(* --- reset: a used simulator returns to the fresh state --- *)

(* Detection sweeps reuse one simulator across runs ([Repair] resets it
   between sweeps), so [reset] must leave every net word — registers,
   cleared inputs and the settled logic behind them — exactly as a fresh
   [create] does. *)
let reset_matches_fresh rng nl =
  let s = Sim64.create nl in
  let fresh = Sim64.create nl in
  List.iter
    (fun (p : Netlist.port) ->
      Sim64.set_input_words s p.Netlist.port_name
        (Array.map (fun _ -> Sim64.random_word rng) p.Netlist.port_nets))
    (Netlist.inputs nl);
  Sim64.step s;
  Sim64.step s;
  Sim64.reset s;
  let same = ref true in
  for n = 0 to Netlist.num_nets nl - 1 do
    if Sim64.net_word s n <> Sim64.net_word fresh n then same := false
  done;
  !same

let prop_reset_random_netlists =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"reset = fresh create on random netlists"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 0x5e7 |] in
         reset_matches_fresh rng (build_random_netlist rng)))

let test_reset_examples () =
  let rng = Random.State.make [| 0x5e764 |] in
  List.iter
    (fun nl ->
      Alcotest.(check bool)
        (Printf.sprintf "reset on %s" (Netlist.name nl))
        true (reset_matches_fresh rng nl))
    [ Example_circuits.lfsr4 (); Example_circuits.dff_chain 5; Example_circuits.pipelined_adder () ]

(* --- unit tests: lanes, popcount, validation --- *)

let test_constants () =
  Alcotest.(check int) "lanes = int size" Sys.int_size Sim64.lanes;
  Alcotest.(check bool) "at least 62 lanes" true (Sim64.lanes >= 62);
  Alcotest.(check int) "popcount 0" 0 (Sim64.popcount 0);
  Alcotest.(check int) "popcount all" Sim64.lanes (Sim64.popcount Sim64.all_lanes);
  Alcotest.(check int) "popcount 0b1011" 3 (Sim64.popcount 0b1011)

let test_validation () =
  let s = Sim64.create (Example_circuits.pipelined_adder ()) in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Sim64.set_input_words: port a has width 2, got 3 words") (fun () ->
      Sim64.set_input_words s "a" [| 0; 0; 0 |])

let () =
  Alcotest.run "sim64"
    [
      ( "differential",
        [
          prop_differential_random_netlists;
          Alcotest.test_case "example circuits" `Quick test_differential_examples;
        ] );
      ( "reset is fresh",
        [
          prop_reset_random_netlists;
          Alcotest.test_case "example circuits" `Quick test_reset_examples;
        ] );
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
