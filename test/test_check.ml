(* Tests for the static-verification suite: structural lint, SAT-based
   equivalence checking (CEC), SCOAP testability, and the seeded-mutation
   machinery behind them. *)

module B = Netlist.Builder
module R = Netlist.Raw

let alu8 = Alu.netlist ~width:8 ()
let fpu = Fpu.netlist ()

(* --- lint --- *)

let test_selftest_corpus () =
  List.iter
    (fun (code, design) ->
      let diags = Check.lint design in
      Alcotest.(check bool)
        (Printf.sprintf "%s fires on %s" (Check.code_id code) design.R.r_name)
        true
        (List.exists (fun (d : Check.diagnostic) -> d.Check.code = code) diags))
    Check.selftest_designs

let test_distinct_codes () =
  (* the four headline defect classes each report their own distinct code *)
  let code_for name =
    let _, design =
      List.find (fun (_, d) -> d.R.r_name = name) Check.selftest_designs
    in
    List.map (fun (d : Check.diagnostic) -> Check.code_id d.Check.code) (Check.lint design)
  in
  Alcotest.(check (list string)) "multi_driver" [ "NL001" ] (code_for "multi_driver");
  Alcotest.(check (list string)) "floating_input" [ "NL002" ] (code_for "floating_input");
  Alcotest.(check (list string)) "comb_cycle" [ "NL004" ] (code_for "comb_cycle");
  Alcotest.(check (list string)) "dead_gate" [ "NL005"; "NL008" ] (code_for "dead_gate")

let test_const_dff_rule () =
  (* NL011: a register fed (transitively, through combinational logic and
     like-reset registers) by tie cells alone never changes state. *)
  let b = B.create "nl011" in
  let t = B.add_cell b Cell.Kind.Tie1 [||] in
  let n = B.add_cell b Cell.Kind.Not [| t |] in
  let q = B.add_cell ~clock_domain:0 ~reset_value:false b Cell.Kind.Dff [| n |] in
  B.add_output b "y" [| q |];
  let diags = Check.lint (B.raw b) in
  let nl011 = List.filter (fun (d : Check.diagnostic) -> Check.code_id d.Check.code = "NL011") diags in
  Alcotest.(check int) "constant-D register flagged" 1 (List.length nl011);
  Alcotest.(check bool) "NL011 is a warning" true
    (List.for_all
       (fun (d : Check.diagnostic) -> Check.severity_of d.Check.code = Check.Warning)
       nl011);
  (* a register fed from a primary input is not constant *)
  let b2 = B.create "nl011_clean" in
  let x = B.add_input b2 "x" 1 in
  let q2 = B.add_cell ~clock_domain:0 b2 Cell.Kind.Dff [| x.(0) |] in
  B.add_output b2 "y" [| q2 |];
  Alcotest.(check int) "input-fed register is clean" 0
    (List.length
       (List.filter
          (fun (d : Check.diagnostic) -> Check.code_id d.Check.code = "NL011")
          (Check.lint (B.raw b2))))

let test_unread_input_rule () =
  (* NL012: an input-port bit nothing reads is dead interface surface. *)
  let b = B.create "nl012" in
  let a = B.add_input b "a" 2 in
  let g = B.add_cell b Cell.Kind.Buf [| a.(0) |] in
  B.add_output b "y" [| g |];
  let diags = Check.lint (B.raw b) in
  let nl012 = List.filter (fun (d : Check.diagnostic) -> Check.code_id d.Check.code = "NL012") diags in
  Alcotest.(check int) "only the unread bit is flagged" 1 (List.length nl012);
  (* an input bit wired straight to an output port is read *)
  let b2 = B.create "nl012_clean" in
  let a2 = B.add_input b2 "a" 1 in
  B.add_output b2 "y" [| a2.(0) |];
  Alcotest.(check int) "output-wired input is clean" 0
    (List.length
       (List.filter
          (fun (d : Check.diagnostic) -> Check.code_id d.Check.code = "NL012")
          (Check.lint (B.raw b2))))

let test_frozen_netlists_error_free () =
  List.iter
    (fun nl ->
      Alcotest.(check int)
        (Printf.sprintf "%s has no error-class diagnostics" (Netlist.name nl))
        0
        (List.length (Check.errors (Check.lint_netlist nl))))
    [ alu8; fpu; Example_circuits.pipelined_adder () ]

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let golden_path name =
  if Sys.file_exists (Filename.concat "golden" name) then Filename.concat "golden" name
  else Filename.concat (Filename.concat "test" "golden") name

let test_golden_report nl file () =
  let out = Check.render ~design:(Netlist.name nl) (Check.lint_netlist nl) in
  let expected = read_file (golden_path file) in
  Alcotest.(check string) (Printf.sprintf "byte-for-byte vs golden/%s" file) expected out

(* --- CEC --- *)

let is_equiv = function Cec.Equivalent -> true | _ -> false
let is_inequiv = function Cec.Inequivalent _ -> true | _ -> false

let test_cec_reflexive () =
  Alcotest.(check bool) "alu8 = alu8" true (is_equiv (Cec.check alu8 alu8))

let test_cec_optimized () =
  List.iter
    (fun nl ->
      let opt, _ = Netlist_opt.optimize nl in
      Alcotest.(check bool)
        (Printf.sprintf "%s = optimized" (Netlist.name nl))
        true
        (is_equiv (Cec.check nl opt)))
    [ alu8; fpu ]

let test_cec_mutations_caught () =
  for seed = 0 to 9 do
    let mutant, desc = Check.mutate ~seed alu8 in
    match Cec.check alu8 mutant with
    | Cec.Inequivalent cex ->
      Alcotest.(check bool)
        (Printf.sprintf "cex site for %S" desc)
        true
        (String.length cex.Cec.cex_site > 0)
    | _ -> Alcotest.fail (Printf.sprintf "mutation not caught: %s" desc)
  done

let alu_fault_spec =
  {
    Fault.start_dff = "a_q0";
    end_dff = "r_q0";
    kind = Fault.Setup_violation;
    constant = Fault.C0;
    activation = Fault.Any_transition;
  }

let test_cec_fault_tied_inert () =
  let faulty = Fault.failing_netlist alu8 alu_fault_spec in
  let tie_low = Fault.select_cells faulty in
  Alcotest.(check bool) "select cells found" true (tie_low <> []);
  Alcotest.(check bool) "inert replica = golden" true
    (is_equiv (Cec.check ~free_inputs:true ~tie_low alu8 faulty))

let test_cec_fault_active_differs () =
  (* without the tie-low, the armed failure model is a real difference *)
  let faulty = Fault.failing_netlist alu8 alu_fault_spec in
  Alcotest.(check bool) "armed replica differs" true
    (is_inequiv (Cec.check ~free_inputs:true alu8 faulty))

let dff_pair_netlist name reset =
  let b = B.create name in
  let d = B.add_input b "d" 1 in
  let q = B.add_cell ~name:"r" ~clock_domain:0 ~reset_value:reset b Cell.Kind.Dff d in
  B.add_output b "q" [| q |];
  B.finish b

let test_cec_reset_mismatch () =
  match Cec.check (dff_pair_netlist "t" false) (dff_pair_netlist "t" true) with
  | Cec.Inequivalent cex ->
    Alcotest.(check bool) "site names the register" true
      (String.length cex.Cec.cex_site > 0)
  | _ -> Alcotest.fail "reset-value mismatch not reported"

let test_cec_interface_checks () =
  let one_wide =
    let b = B.create "iface" in
    let a = B.add_input b "a" 1 in
    B.add_output b "y" [| a.(0) |];
    B.finish b
  in
  let two_wide =
    let b = B.create "iface" in
    let a = B.add_input b "a" 2 in
    B.add_output b "y" [| a.(0) |];
    B.finish b
  in
  (match Cec.check one_wide two_wide with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width mismatch accepted");
  (* an extra input port is rejected strictly but free under free_inputs *)
  let extra =
    let b = B.create "iface" in
    let a = B.add_input b "a" 1 in
    let e = B.add_input b "extra" 1 in
    let y = B.add_cell b Cell.Kind.Or2 [| a.(0); e.(0) |] in
    B.add_output b "y" [| y |];
    B.finish b
  in
  (match Cec.check one_wide extra with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "extra port accepted without free_inputs");
  (* with a free extra input the OR can differ from the plain wire *)
  Alcotest.(check bool) "free extra input differs" true
    (is_inequiv (Cec.check ~free_inputs:true one_wide extra))

let test_mutate_requires_site () =
  let b = B.create "no_sites" in
  let a = B.add_input b "a" 1 in
  let dead = B.add_cell b Cell.Kind.Buf [| a.(0) |] in
  ignore dead;
  let nl = B.finish b in
  match Check.mutate nl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mutate accepted a netlist with no comparison points"

(* --- SCOAP --- *)

let test_scoap_hand_example () =
  let b = B.create "scoap" in
  let a = B.add_input b "a" 1 in
  let c = B.add_input b "c" 1 in
  let g = B.add_cell ~name:"g" b Cell.Kind.And2 [| a.(0); c.(0) |] in
  let dead = B.add_cell ~name:"dead" b Cell.Kind.Not [| a.(0) |] in
  ignore dead;
  B.add_output b "y" [| g |];
  let nl = B.finish b in
  let t = Scoap.analyze nl in
  let na = (Netlist.find_input nl "a").Netlist.port_nets.(0) in
  let ng = (Netlist.find_cell nl "g").Netlist.output in
  let ndead = (Netlist.find_cell nl "dead").Netlist.output in
  Alcotest.(check int) "CC0(input)" 1 (Scoap.cc0 t na);
  Alcotest.(check int) "CC1(input)" 1 (Scoap.cc1 t na);
  Alcotest.(check int) "CC1(and) = CC1(a)+CC1(c)+1" 3 (Scoap.cc1 t ng);
  Alcotest.(check int) "CC0(and) = min+1" 2 (Scoap.cc0 t ng);
  Alcotest.(check int) "CO(exported net)" 0 (Scoap.co t ng);
  Alcotest.(check int) "CO(a) through the and" 2 (Scoap.co t na);
  Alcotest.(check bool) "dead gate unobservable" true (Scoap.co t ndead >= Scoap.unobservable);
  Alcotest.(check bool) "dead ranks hardest" true (fst (List.hd (Scoap.hardest nl t)) = "dead")

let test_scoap_ranking () =
  let dffs = Netlist.dffs alu8 in
  let pairs =
    List.concat_map
      (fun x -> List.map (fun y -> (Sta.From_dff x, Sta.At_dff y, Sta.Setup, -1.0)) dffs)
      (match dffs with x :: y :: _ -> [ x; y ] | _ -> Alcotest.fail "alu8 has registers")
  in
  let ranked = Testgen.scoap_ranked_pairs alu8 pairs in
  Alcotest.(check int) "permutation: same length" (List.length pairs) (List.length ranked);
  List.iter
    (fun p -> Alcotest.(check bool) "permutation: same elements" true (List.mem p pairs))
    ranked;
  let t = Scoap.analyze alu8 in
  let difficulty (sp, Sta.At_dff y, _, _) =
    let l =
      match sp with
      | Sta.From_dff x -> (Netlist.cell alu8 x).Netlist.output
      | Sta.From_input (p, bit) -> Netlist.net_of_port_bit alu8 p bit
    in
    let q = (Netlist.cell alu8 y).Netlist.output in
    Scoap.cc0 t l + Scoap.cc1 t l + Scoap.co t q
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> difficulty a >= difficulty b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "hardest first" true (non_increasing ranked)

(* --- QCheck properties over random netlists --- *)

let comb_kinds =
  [|
    Cell.Kind.Buf; Cell.Kind.Not; Cell.Kind.And2; Cell.Kind.Or2; Cell.Kind.Xor2;
    Cell.Kind.Nand2; Cell.Kind.Nor2; Cell.Kind.Xnor2; Cell.Kind.Mux2;
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

let qcheck_optimize_equiv =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"Netlist_opt output is CEC-equivalent to its input"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let nl = build_random_netlist (Random.State.make [| seed; 0xce |]) in
         let opt, _ = Netlist_opt.optimize nl in
         Cec.check nl opt = Cec.Equivalent))

let qcheck_mutation_caught =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"a seeded mutation is always CEC-inequivalent"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let nl = build_random_netlist (Random.State.make [| seed; 0x3d |]) in
         let mutant, _ = Check.mutate ~seed nl in
         match Cec.check nl mutant with Cec.Inequivalent _ -> true | _ -> false))

let qcheck_random_netlists_lint_clean =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:80 ~name:"frozen netlists never lint error-class diagnostics"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         let nl = build_random_netlist (Random.State.make [| seed; 0x11 |]) in
         Check.errors (Check.lint_netlist nl) = []))

(* --- deferred CNF vs the eager encoder ---

   The checker's encoder as it was before clause intake was deferred to
   the SAT path: every Tseitin clause goes into the solver as the node is
   built.  Cec.check must give the same verdict, counterexample and
   search (SAT conflicts) on every input. *)
module Eager_cec = struct
  open Cec

    type node_key = And of int * int | Xor of int * int

    exception Early of verdict

    let port_widths l =
      List.map (fun (p : Netlist.port) -> (p.Netlist.port_name, Array.length p.Netlist.port_nets)) l

    let check_interfaces ~free_inputs ~kind here_name there_name here there =
      List.iter
        (fun (name, w) ->
          match List.assoc_opt name there with
          | Some w' when w <> w' ->
            invalid_arg
              (Printf.sprintf "Cec.check: %s port %s has width %d in %s but %d in %s" kind name w
                 here_name w' there_name)
          | Some _ -> ()
          | None ->
            if not free_inputs then
              invalid_arg
                (Printf.sprintf "Cec.check: %s port %s of %s has no counterpart in %s" kind name
                   here_name there_name))
        here

    let check ?(free_inputs = false) ?(tie_low = []) ?max_conflicts a b =
      let an = Netlist.name a and bn = Netlist.name b in
      let an, bn = if an = bn then (an ^ "(left)", bn ^ "(right)") else (an, bn) in
      let ia = port_widths (Netlist.inputs a) and ib = port_widths (Netlist.inputs b) in
      check_interfaces ~free_inputs ~kind:"input" an bn ia ib;
      check_interfaces ~free_inputs ~kind:"input" bn an ib ia;
      let oa = port_widths (Netlist.outputs a) and ob = port_widths (Netlist.outputs b) in
      check_interfaces ~free_inputs ~kind:"output" an bn oa ob;
      check_interfaces ~free_inputs ~kind:"output" bn an ob oa;
      let s = Sat.create () in
      let tt = Sat.new_var s in
      Sat.add_clause s [ tt ];
      let nodes : (node_key, int) Hashtbl.t = Hashtbl.create 4096 in
      let mk_and x y =
        if x = -tt || y = -tt then -tt
        else if x = tt then y
        else if y = tt then x
        else if x = y then x
        else if x = -y then -tt
        else begin
          let x, y = if x < y then (x, y) else (y, x) in
          match Hashtbl.find_opt nodes (And (x, y)) with
          | Some v -> v
          | None ->
            let v = Sat.new_var s in
            Sat.add_clause s [ -v; x ];
            Sat.add_clause s [ -v; y ];
            Sat.add_clause s [ v; -x; -y ];
            Hashtbl.replace nodes (And (x, y)) v;
            v
        end
      in
      let mk_or x y = -mk_and (-x) (-y) in
      let mk_xor x y =
        if x = tt then -y
        else if x = -tt then y
        else if y = tt then -x
        else if y = -tt then x
        else if x = y then -tt
        else if x = -y then tt
        else begin
          let sign = x < 0 <> (y < 0) in
          let x, y = (abs x, abs y) in
          let x, y = if x < y then (x, y) else (y, x) in
          let v =
            match Hashtbl.find_opt nodes (Xor (x, y)) with
            | Some v -> v
            | None ->
              let v = Sat.new_var s in
              Sat.add_clause s [ -v; x; y ];
              Sat.add_clause s [ -v; -x; -y ];
              Sat.add_clause s [ v; -x; y ];
              Sat.add_clause s [ v; x; -y ];
              Hashtbl.replace nodes (Xor (x, y)) v;
              v
          in
          if sign then -v else v
        end
      in
      let mk_mux a0 b0 sel = mk_or (mk_and sel b0) (mk_and (-sel) a0) in
      let tied = Hashtbl.create 8 in
      List.iter (fun name -> Hashtbl.replace tied name ()) tie_low;
      (* Shared input variables, keyed by (port, bit) across both netlists. *)
      let input_vars : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
      let input_var name bit =
        match Hashtbl.find_opt input_vars (name, bit) with
        | Some v -> v
        | None ->
          let v = Sat.new_var s in
          Hashtbl.replace input_vars (name, bit) v;
          v
      in
      (* Register correspondence: DFFs present (by instance name) in both
         netlists share one free Q variable — and must agree on reset value
         and clock domain, otherwise the induction hypothesis is unsound. *)
      let dff_table nl =
        let t = Hashtbl.create 32 in
        List.iter
          (fun id ->
            let c = Netlist.cell nl id in
            Hashtbl.replace t c.Netlist.name c)
          (Netlist.dffs nl);
        t
      in
      let dffs_a = dff_table a and dffs_b = dff_table b in
      let matched =
        Hashtbl.fold (fun name _ acc -> if Hashtbl.mem dffs_b name then name :: acc else acc) dffs_a []
        |> List.sort compare
      in
      let fail_cex site = raise (Early (Inequivalent { cex_inputs = []; cex_states = []; cex_site = site })) in
      let check_matched () =
        List.iter
          (fun name ->
            let ca = Hashtbl.find dffs_a name and cb = Hashtbl.find dffs_b name in
            if ca.Netlist.reset_value <> cb.Netlist.reset_value then
              fail_cex
                (Printf.sprintf "register %s (reset value %b in %s vs %b in %s)" name
                   ca.Netlist.reset_value an cb.Netlist.reset_value bn);
            if ca.Netlist.clock_domain <> cb.Netlist.clock_domain then
              fail_cex
                (Printf.sprintf "register %s (clock domain %d in %s vs %d in %s)" name
                   ca.Netlist.clock_domain an cb.Netlist.clock_domain bn))
          matched
      in
      let shared_q : (string, int) Hashtbl.t = Hashtbl.create 32 in
      let q_var nl_dffs name =
        if not (Hashtbl.mem nl_dffs name) then assert false
        else
          match Hashtbl.find_opt shared_q name with
          | Some v -> v
          | None ->
            let v = Sat.new_var s in
            if List.mem name matched then Hashtbl.replace shared_q name v;
            v
      in
      let encode nl nl_dffs =
        let lits = Array.make (max (Netlist.num_nets nl) 1) 0 in
        List.iter
          (fun (p : Netlist.port) ->
            Array.iteri (fun bit n -> lits.(n) <- input_var p.Netlist.port_name bit) p.Netlist.port_nets)
          (Netlist.inputs nl);
        List.iter
          (fun id ->
            let c = Netlist.cell nl id in
            lits.(c.Netlist.output) <-
              (if Hashtbl.mem tied c.Netlist.name then -tt else q_var nl_dffs c.Netlist.name))
          (Netlist.dffs nl);
        Array.iter
          (fun id ->
            let c = Netlist.cell nl id in
            let l =
              if Hashtbl.mem tied c.Netlist.name then -tt
              else begin
                let i k = lits.(c.Netlist.inputs.(k)) in
                match c.Netlist.kind with
                | Cell.Kind.Tie0 -> -tt
                | Cell.Kind.Tie1 -> tt
                | Cell.Kind.Buf -> i 0
                | Cell.Kind.Not -> -(i 0)
                | Cell.Kind.And2 -> mk_and (i 0) (i 1)
                | Cell.Kind.Nand2 -> -mk_and (i 0) (i 1)
                | Cell.Kind.Or2 -> mk_or (i 0) (i 1)
                | Cell.Kind.Nor2 -> -mk_or (i 0) (i 1)
                | Cell.Kind.Xor2 -> mk_xor (i 0) (i 1)
                | Cell.Kind.Xnor2 -> -mk_xor (i 0) (i 1)
                | Cell.Kind.Mux2 -> mk_mux (i 0) (i 1) (i 2)
                | Cell.Kind.Dff -> assert false
              end
            in
            lits.(c.Netlist.output) <- l)
          (Netlist.topo_order nl);
        lits
      in
      try
        check_matched ();
        let la = encode a dffs_a and lb = encode b dffs_b in
        (* Comparison points: common output-port bits, then matched registers'
           next-state (D) functions. *)
        let points = ref [] in
        List.iter
          (fun (p : Netlist.port) ->
            match
              List.find_opt (fun (q : Netlist.port) -> q.Netlist.port_name = p.Netlist.port_name)
                (Netlist.outputs b)
            with
            | None -> ()
            | Some q ->
              Array.iteri
                (fun bit n ->
                  points :=
                    ( Printf.sprintf "output %s[%d]" p.Netlist.port_name bit,
                      la.(n),
                      lb.(q.Netlist.port_nets.(bit)) )
                    :: !points)
                p.Netlist.port_nets)
          (Netlist.outputs a);
        List.iter
          (fun name ->
            if not (Hashtbl.mem tied name) then begin
              let ca = Hashtbl.find dffs_a name and cb = Hashtbl.find dffs_b name in
              points :=
                ( Printf.sprintf "register %s.D" name,
                  la.(ca.Netlist.inputs.(0)),
                  lb.(cb.Netlist.inputs.(0)) )
                :: !points
            end)
          matched;
        let points = List.rev !points in
        let diffs =
          List.filter_map
            (fun (site, x, y) ->
              let d = mk_xor x y in
              if d = -tt then None else Some (site, d))
            points
        in
        let build_cex value site =
          let chunk name w bit_at =
            if w <= Bitvec.max_width then [ (name, Bitvec.of_bits (List.init w bit_at)) ]
            else begin
              let acc = ref [] in
              let lo = ref 0 in
              while !lo < w do
                let hi = min (!lo + Bitvec.max_width) w - 1 in
                acc :=
                  ( Printf.sprintf "%s[%d:%d]" name hi !lo,
                    Bitvec.of_bits (List.init (hi - !lo + 1) (fun i -> bit_at (!lo + i))) )
                  :: !acc;
                lo := hi + 1
              done;
              List.rev !acc
            end
          in
          let seen = Hashtbl.create 16 in
          let cex_inputs =
            List.concat_map
              (fun (p : Netlist.port) ->
                let name = p.Netlist.port_name in
                if Hashtbl.mem seen name then []
                else begin
                  Hashtbl.replace seen name ();
                  chunk name (Array.length p.Netlist.port_nets) (fun bit ->
                      match Hashtbl.find_opt input_vars (name, bit) with
                      | Some v -> value v
                      | None -> false)
                end)
              (Netlist.inputs a @ Netlist.inputs b)
          in
          let cex_states =
            List.map
              (fun name ->
                ( name,
                  match Hashtbl.find_opt shared_q name with Some v -> value v | None -> false ))
              matched
          in
          { cex_inputs; cex_states; cex_site = site }
        in
        if diffs = [] then Equivalent
        else begin
          match List.find_opt (fun (_, d) -> d = tt) diffs with
          | Some (site, _) ->
            (* Constant-true difference: *every* assignment distinguishes the
               netlists, in particular all-zeros — no SAT call needed. *)
            Inequivalent (build_cex (fun _ -> false) site)
          | None -> (
            Sat.add_clause s (List.map snd diffs);
            match Sat.solve ?max_conflicts s with
            | Sat.Unsat -> Equivalent
            | Sat.Unknown -> Unknown
            | Sat.Sat ->
              let model = Sat.model s in
              let value v = model.(v) in
              let lit_true l = if l > 0 then value l else not (value (-l)) in
              let site =
                match List.find_opt (fun (_, d) -> lit_true d) diffs with
                | Some (site, _) -> site
                | None -> fst (List.hd diffs)
              in
              Inequivalent (build_cex value site))
        end
      with Early v -> v
end

let sat_conflicts = Telemetry.Counter.make "sat.conflicts"
let sat_calls = Telemetry.Counter.make "sat.solve.calls"

(* One CEC case per seed: an optimized twin, a seeded mutant, a fault
   replica with its select cells tied low or left armed, or a pair checked
   under a conflict budget of at most three or none: ALU8 against its
   carry-select twin (SAT-proved with a few hundred conflicts, [Unknown]
   under a budget) or a budgeted mutant.  Returns the two
   verdicts and the SAT conflicts and calls each run spent. *)
let cec_case seed =
  let rng = Random.State.make [| seed; 0xcec |] in
  let random_nl () = build_random_netlist rng in
  let alu_spec () =
    let reg prefix = Printf.sprintf "%s%d" prefix (Random.State.int rng 8) in
    {
      Fault.start_dff = reg (if Random.State.bool rng then "a_q" else "b_q");
      end_dff = reg "r_q";
      kind = (if Random.State.bool rng then Fault.Setup_violation else Fault.Hold_violation);
      constant = (if Random.State.bool rng then Fault.C0 else Fault.C1);
      activation = Fault.Any_transition;
    }
  in
  let run f =
    let c0 = Telemetry.Counter.value sat_conflicts and k0 = Telemetry.Counter.value sat_calls in
    let v = f () in
    (v, Telemetry.Counter.value sat_conflicts - c0, Telemetry.Counter.value sat_calls - k0)
  in
  let both ?free_inputs ?tie_low ?max_conflicts a b =
    ( run (fun () -> Cec.check ?free_inputs ?tie_low ?max_conflicts a b),
      run (fun () -> Eager_cec.check ?free_inputs ?tie_low ?max_conflicts a b) )
  in
  match Random.State.int rng 5 with
  | 0 ->
    let nl = random_nl () in
    both nl (fst (Netlist_opt.optimize nl))
  | 1 ->
    let nl = random_nl () in
    both nl (fst (Check.mutate ~seed nl))
  | 2 ->
    let faulty = Fault.failing_netlist alu8 (alu_spec ()) in
    both ~free_inputs:true ~tie_low:(Fault.select_cells faulty) alu8 faulty
  | 3 -> both ~free_inputs:true alu8 (Fault.failing_netlist alu8 (alu_spec ()))
  | _ ->
    let max_conflicts = if Random.State.int rng 5 = 0 then None else Some (Random.State.int rng 4) in
    if Random.State.bool rng then
      both ?max_conflicts (Alu.netlist ~width:8 ()) (Alu.netlist ~width:8 ~adder:Alu.Carry_select ())
    else begin
      let nl = random_nl () in
      both ?max_conflicts nl (fst (Check.mutate ~seed nl))
    end

let qcheck_cec_matches_eager =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"Cec.check = eager encoder: verdict, cex, conflicts"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 10_000_000))
       (fun seed ->
         Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
         let (v, c, k), (v', c', k') = cec_case seed in
         Telemetry.disable ();
         if v <> v' then
           QCheck.Test.fail_reportf "seed %d: %s, eager: %s" seed (Cec.describe v) (Cec.describe v');
         if (c, k) <> (c', k') then
           QCheck.Test.fail_reportf "seed %d: %d conflicts in %d calls, eager %d in %d" seed c k c'
             k';
         true))

(* Every kind of case the property draws does occur, SAT-decided ones
   and budget-exhausted ones included. *)
let test_cec_oracle_coverage () =
  let seen = Hashtbl.create 8 in
  for seed = 0 to 149 do
    Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
    let (v, _, calls), _ = cec_case seed in
    Telemetry.disable ();
    let kind =
      match v with
      | Cec.Equivalent -> if calls > 0 then "equivalent by SAT" else "equivalent structurally"
      | Cec.Inequivalent _ -> if calls > 0 then "inequivalent by SAT" else "inequivalent structurally"
      | Cec.Unknown -> "unknown"
    in
    Hashtbl.replace seen kind ()
  done;
  List.iter
    (fun kind -> Alcotest.(check bool) kind true (Hashtbl.mem seen kind))
    [
      "equivalent by SAT";
      "equivalent structurally";
      "inequivalent by SAT";
      "inequivalent structurally";
      "unknown";
    ]

let () =
  Alcotest.run "check"
    [
      ( "lint",
        [
          Alcotest.test_case "selftest corpus" `Quick test_selftest_corpus;
          Alcotest.test_case "distinct codes" `Quick test_distinct_codes;
          Alcotest.test_case "constant-D register (NL011)" `Quick test_const_dff_rule;
          Alcotest.test_case "unread input bit (NL012)" `Quick test_unread_input_rule;
          Alcotest.test_case "frozen netlists error-free" `Quick test_frozen_netlists_error_free;
          Alcotest.test_case "golden ALU report" `Quick (test_golden_report alu8 "lint_alu.txt");
          Alcotest.test_case "golden FPU report" `Quick (test_golden_report fpu "lint_fpu.txt");
        ] );
      ( "cec",
        [
          Alcotest.test_case "reflexive" `Quick test_cec_reflexive;
          Alcotest.test_case "optimized units equivalent" `Quick test_cec_optimized;
          Alcotest.test_case "mutations caught" `Quick test_cec_mutations_caught;
          Alcotest.test_case "fault replica inert when tied" `Quick test_cec_fault_tied_inert;
          Alcotest.test_case "armed fault replica differs" `Quick test_cec_fault_active_differs;
          Alcotest.test_case "reset mismatch" `Quick test_cec_reset_mismatch;
          Alcotest.test_case "interface checks" `Quick test_cec_interface_checks;
          Alcotest.test_case "mutate needs a site" `Quick test_mutate_requires_site;
        ] );
      ( "scoap",
        [
          Alcotest.test_case "hand example" `Quick test_scoap_hand_example;
          Alcotest.test_case "pair ranking" `Quick test_scoap_ranking;
        ] );
      ( "properties",
        [ qcheck_optimize_equiv; qcheck_mutation_caught; qcheck_random_netlists_lint_clean ] );
      ( "cec oracle",
        [
          qcheck_cec_matches_eager;
          Alcotest.test_case "every case kind drawn" `Quick test_cec_oracle_coverage;
        ] );
    ]
