(* Tests for the static timing analysis engine, reproducing the numbers of
   the paper's Section 3 walk-through on the example adder. *)

let adder = Example_circuits.pipelined_adder ()
let example_lib = Cell.Library.example

(* The paper's example uses no clock-tree delay: clock arrivals are 0. *)
let flat_clock = { (Sta.fresh_timing example_lib) with Sta.clock_arrival_ps = (fun _ -> 0.0) }

let test_paper_example_fresh () =
  (* At 1 GHz the longest path $4 -> $7 -> $8 -> $10 accumulates 0.9 ns,
     meeting the 60 ps setup; the shortest path $1 -> $5 -> $9 has 0.2 ns,
     meeting the 30 ps hold: no violations when fresh. *)
  let r = Sta.analyze ~timing:flat_clock ~clock_period_ps:1000.0 adder in
  Alcotest.(check int) "no setup violations" 0 (List.length r.Sta.setup_violations);
  Alcotest.(check int) "no hold violations" 0 (List.length r.Sta.hold_violations);
  Alcotest.(check (float 1e-9)) "wns setup 0" 0.0 r.Sta.wns_setup_ps;
  (* worst setup endpoint is $10: slack = 1000 - 60 - 900 = 40 ps *)
  let c10 = Netlist.find_cell adder "$10" in
  let es =
    List.find (fun e -> e.Sta.ep = Sta.At_dff c10.id) r.Sta.endpoint_slacks
  in
  Alcotest.(check (float 1e-6)) "slack at $10" 40.0 es.Sta.setup_slack_ps;
  (* hold slack at $9: arrival_min 200 ps vs hold 30 ps => 170 ps *)
  let c9 = Netlist.find_cell adder "$9" in
  let e9 = List.find (fun e -> e.Sta.ep = Sta.At_dff c9.id) r.Sta.endpoint_slacks in
  Alcotest.(check (float 1e-6)) "hold slack at $9" 170.0 e9.Sta.hold_slack_ps

let test_paper_example_aged_setup () =
  (* Age the cells on the critical path by ~5.5%: 900 ps -> ~0.95 ns,
     violating the 940 ps setup requirement, as in Section 3.2.2. *)
  let aged_delay (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    let factor = if List.mem c.name [ "$7"; "$8" ] then 1.08 else 1.055 in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. factor }
  in
  let timing = { flat_clock with Sta.cell_delay = aged_delay } in
  let r = Sta.analyze ~timing ~clock_period_ps:1000.0 adder in
  Alcotest.(check bool) "setup violations found" true (List.length r.Sta.setup_violations > 0);
  Alcotest.(check bool) "wns negative" true (r.Sta.wns_setup_ps < 0.0);
  (* all violating paths end at $10 (the only 3-deep endpoint) *)
  let c10 = Netlist.find_cell adder "$10" in
  List.iter
    (fun p -> Alcotest.(check bool) "ends at $10" true (p.Sta.finish = Sta.At_dff c10.id))
    r.Sta.setup_violations;
  (* the worst path goes through $7 and $8 *)
  let worst = List.hd r.Sta.setup_violations in
  let names = List.map (fun id -> (Netlist.cell adder id).name) worst.Sta.through in
  Alcotest.(check (list string)) "worst path cells" [ "$7"; "$8" ] names

let test_paper_example_hold_via_skew () =
  (* A clock phase shift between the launching $1 (domain 0) and capturing
     $9 (domain 1) creates the hold violation of the paper's example. *)
  let split = Example_circuits.pipelined_adder ~split_domains:true () in
  let timing =
    {
      flat_clock with
      Sta.clock_arrival_ps = (fun dom -> if dom = 1 then 180.0 else 0.0);
    }
  in
  let r = Sta.analyze ~timing ~clock_period_ps:1000.0 split in
  (* both rank-one registers $1 and $3 launch a violating path into $9 *)
  Alcotest.(check int) "hold violations found" 2 (List.length r.Sta.hold_violations);
  let starts =
    List.map (fun p -> Sta.describe_startpoint split p.Sta.start) r.Sta.hold_violations
    |> List.sort compare
  in
  Alcotest.(check (list string)) "starts" [ "$1"; "$3" ] starts;
  List.iter
    (fun p ->
      Alcotest.(check string) "end" "$9" (Sta.describe_endpoint split p.Sta.finish);
      (* arrival_min = 100 (clk->q) + 100 ($5) = 200; required = 180 + 30 = 210 *)
      Alcotest.(check (float 1e-6)) "hold slack" (-10.0) p.Sta.slack_ps)
    r.Sta.hold_violations

let test_violating_path_count () =
  (* Slow every cell dramatically: every register-to-register path through
     combinational logic must then violate setup.  Distinct violating paths
     into $10: $2/$4 -> $7 -> $8, $1/$3 -> $6 -> $8 (4 paths); into $9:
     $1/$3 -> $5 (2 paths); direct DFF->DFF input-rank paths have no comb
     delay and stay clean. *)
  let slow (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 2.0 }
  in
  let timing = { flat_clock with Sta.cell_delay = slow } in
  let r = Sta.analyze ~timing ~clock_period_ps:850.0 adder in
  Alcotest.(check int) "six violating setup paths" 6 (List.length r.Sta.setup_violations);
  let pairs =
    List.sort_uniq compare (List.map (fun p -> (p.Sta.start, p.Sta.finish)) r.Sta.setup_violations)
  in
  Alcotest.(check int) "unique endpoint pairs" 6 (List.length pairs)

let test_aged_timing_source () =
  let aglib = Aging.Timing_library.build Cell.Library.c28 in
  (* constant SP 0.1: heavy stress everywhere *)
  let timing = Sta.aged_timing ~sp_of_net:(fun _ -> 0.1) ~years:10.0 aglib in
  let fresh = Sta.fresh_timing Cell.Library.c28 in
  let c7 = Netlist.find_cell adder "$7" in
  let aged_d = timing.Sta.cell_delay c7 and fresh_d = fresh.Sta.cell_delay c7 in
  Alcotest.(check bool) "aged slower" true (aged_d.Cell.tpd_max_ps > fresh_d.Cell.tpd_max_ps);
  Alcotest.(check bool) "ratio in 4-8% band" true
    (let r = aged_d.Cell.tpd_max_ps /. fresh_d.Cell.tpd_max_ps in
     r > 1.03 && r < 1.09)

let test_em_aware_timing () =
  let aglib = Aging.Timing_library.build Cell.Library.c28 in
  let bti_only = Sta.aged_timing ~sp_of_net:(fun _ -> 0.5) ~years:10.0 aglib in
  let with_em =
    Sta.aged_timing ~toggle_of_net:(fun _ -> 0.8) ~sp_of_net:(fun _ -> 0.5) ~years:10.0 aglib
  in
  let c7 = Netlist.find_cell adder "$7" in
  let d_bti = (bti_only.Sta.cell_delay c7).Cell.tpd_max_ps in
  let d_em = (with_em.Sta.cell_delay c7).Cell.tpd_max_ps in
  Alcotest.(check bool) "EM adds delay on busy nets" true (d_em > d_bti);
  (* idle nets see no EM contribution *)
  let idle =
    Sta.aged_timing ~toggle_of_net:(fun _ -> 0.0) ~sp_of_net:(fun _ -> 0.5) ~years:10.0 aglib
  in
  Alcotest.(check (float 1e-9)) "no activity, no EM" d_bti
    ((idle.Sta.cell_delay c7).Cell.tpd_max_ps)

(* ---------- aged-corner edge cases on minimal paths ---------- *)

let aglib_c28 = Aging.Timing_library.build Cell.Library.c28
let aged_sp sp = Sta.aged_timing ~sp_of_net:(fun _ -> sp) ~years:10.0 aglib_c28

let pair_slack pairs st en ck =
  match List.find_opt (fun (s, e, c, _) -> s = st && e = en && c = ck) pairs with
  | Some (_, _, _, sl) -> sl
  | None -> Alcotest.fail "expected register pair missing from endpoint_pairs"

let test_direct_dff_to_dff () =
  (* Zero combinational cells between the registers: the setup arrival is
     exactly clk-to-Q max, the hold arrival clk-to-Q min, and same-domain
     clock arrivals cancel even when the tree buffers age. *)
  let b = Netlist.Builder.create "direct" in
  let d = Netlist.Builder.add_input b "d" 1 in
  let a_id, qa = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let b_id, qb = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| qa |] in
  Netlist.Builder.add_output b "q" [| qb |];
  let nl = Netlist.Builder.finish b in
  let timing = aged_sp 0.2 in
  let period = 500.0 in
  let pairs = Sta.endpoint_pairs ~timing ~clock_period_ps:period nl in
  let dt = timing.Sta.dff_timing in
  Alcotest.(check (float 1e-6)) "setup slack = T - clkq_max - setup"
    (period -. dt.Cell.clk_to_q_max_ps -. dt.Cell.setup_ps)
    (pair_slack pairs (Sta.From_dff a_id) (Sta.At_dff b_id) Sta.Setup);
  Alcotest.(check (float 1e-6)) "hold slack = clkq_min - hold"
    (dt.Cell.clk_to_q_min_ps -. dt.Cell.hold_ps)
    (pair_slack pairs (Sta.From_dff a_id) (Sta.At_dff b_id) Sta.Hold)

let test_single_cell_aged_path () =
  (* One inverter between the registers: the pair's setup slack must track
     the aged inverter delay exactly, and lowering SP (more stress) must
     eat slack monotonically. *)
  let b = Netlist.Builder.create "single" in
  let d = Netlist.Builder.add_input b "d" 1 in
  let a_id, qa = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let inv_id, inv = Netlist.Builder.add_cell_with_id b Cell.Kind.Not [| qa |] in
  let b_id, qb = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| inv |] in
  Netlist.Builder.add_output b "q" [| qb |];
  let nl = Netlist.Builder.finish b in
  let period = 500.0 in
  let slack_at sp =
    let timing = aged_sp sp in
    let pairs = Sta.endpoint_pairs ~timing ~clock_period_ps:period nl in
    let dt = timing.Sta.dff_timing in
    let aged_inv = (timing.Sta.cell_delay (Netlist.cell nl inv_id)).Cell.tpd_max_ps in
    let got = pair_slack pairs (Sta.From_dff a_id) (Sta.At_dff b_id) Sta.Setup in
    Alcotest.(check (float 1e-6)) "setup slack = T - clkq_max - aged inv - setup"
      (period -. dt.Cell.clk_to_q_max_ps -. aged_inv -. dt.Cell.setup_ps) got;
    got
  in
  let stressed = slack_at 0.05 and relaxed = slack_at 0.95 in
  Alcotest.(check bool) "lower SP ages harder" true (stressed < relaxed)

let test_chain_delay_summation () =
  (* Buf -> Not -> Buf: the single path's aged delays must add up. *)
  let b = Netlist.Builder.create "chain" in
  let d = Netlist.Builder.add_input b "d" 1 in
  let a_id, qa = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let c1_id, n1 = Netlist.Builder.add_cell_with_id b Cell.Kind.Buf [| qa |] in
  let c2_id, n2 = Netlist.Builder.add_cell_with_id b Cell.Kind.Not [| n1 |] in
  let c3_id, n3 = Netlist.Builder.add_cell_with_id b Cell.Kind.Buf [| n2 |] in
  let b_id, qb = Netlist.Builder.add_cell_with_id ~clock_domain:0 b Cell.Kind.Dff [| n3 |] in
  Netlist.Builder.add_output b "q" [| qb |];
  let nl = Netlist.Builder.finish b in
  let timing = aged_sp 0.1 in
  let period = 800.0 in
  let pairs = Sta.endpoint_pairs ~timing ~clock_period_ps:period nl in
  let dt = timing.Sta.dff_timing in
  let comb =
    List.fold_left
      (fun acc id -> acc +. (timing.Sta.cell_delay (Netlist.cell nl id)).Cell.tpd_max_ps)
      0.0 [ c1_id; c2_id; c3_id ]
  in
  Alcotest.(check (float 1e-6)) "setup slack sums the aged chain"
    (period -. dt.Cell.clk_to_q_max_ps -. comb -. dt.Cell.setup_ps)
    (pair_slack pairs (Sta.From_dff a_id) (Sta.At_dff b_id) Sta.Setup)

let test_skip_drops_only_skipped_pairs () =
  let timing = aged_sp 0.3 in
  let all = Sta.endpoint_pairs ~timing ~clock_period_ps:850.0 adder in
  Alcotest.(check bool) "adder has register pairs" true (all <> []);
  let s0, e0, c0, _ = List.hd all in
  let skip s e c = s = s0 && e = e0 && c = c0 in
  let pruned = Sta.endpoint_pairs ~skip ~timing ~clock_period_ps:850.0 adder in
  let expected = List.filter (fun (s, e, c, _) -> not (skip s e c)) all in
  Alcotest.(check int) "exactly one pair dropped" (List.length all - 1) (List.length pruned);
  Alcotest.(check bool) "surviving pairs are untouched" true (pruned = expected)

let test_describe_path () =
  let slow (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 2.0 }
  in
  let timing = { flat_clock with Sta.cell_delay = slow } in
  let r = Sta.analyze ~timing ~clock_period_ps:850.0 adder in
  let descr = Sta.describe_path adder (List.hd r.Sta.setup_violations) in
  Alcotest.(check bool) "mentions setup" true
    (String.length descr > 0
    &&
    let rec contains i =
      i + 5 <= String.length descr && (String.sub descr i 5 = "setup" || contains (i + 1))
    in
    contains 0)

let test_render_report () =
  let slow (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 2.0 }
  in
  let timing = { flat_clock with Sta.cell_delay = slow } in
  let r = Sta.analyze ~timing ~clock_period_ps:850.0 adder in
  let text = Sta.render_report adder r in
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions WNS" true (contains "WNS");
  Alcotest.(check bool) "mentions violations" true (contains "setup violations: 6");
  Alcotest.(check bool) "mentions endpoints" true (contains "tightest endpoints");
  Alcotest.(check bool) "describes a path" true (contains "$10")

let test_truncation () =
  let slow (c : Netlist.cell) =
    let t = Cell.Library.timing example_lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 2.0 }
  in
  let timing = { flat_clock with Sta.cell_delay = slow } in
  let r = Sta.analyze ~max_violating_paths:2 ~timing ~clock_period_ps:850.0 adder in
  Alcotest.(check bool) "truncated flagged" true r.Sta.truncated;
  Alcotest.(check int) "capped" 2 (List.length r.Sta.setup_violations)

(* Property: path delays reported by enumeration never exceed the
   propagated arrival-time bound, and slacks are consistent. *)
let prop_paths_within_bounds =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"enumerated setup paths consistent with slack"
       (QCheck.make ~print:(Printf.sprintf "%.1f")
          QCheck.Gen.(float_range 700.0 1100.0))
       (fun period ->
         let slow (c : Netlist.cell) =
           let t = Cell.Library.timing example_lib c.kind in
           { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. 1.6 }
         in
         let timing = { flat_clock with Sta.cell_delay = slow } in
         let r = Sta.analyze ~timing ~clock_period_ps:period adder in
         List.for_all
           (fun p ->
             p.Sta.slack_ps < 0.0
             && Float.abs (p.Sta.slack_ps -. (period -. 60.0 -. p.Sta.delay_ps)) < 1e-6)
           r.Sta.setup_violations))

(* Property: Monte-Carlo path sampling never exceeds the propagated
   arrival-time bound at any endpoint. *)
let prop_monte_carlo_paths_bounded =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"sampled path delays within STA bounds"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let nl = Alu.netlist ~width:8 () in
         let timing = Sta.fresh_timing ~clock_tree:Clock_tree.single_domain Cell.Library.c28 in
         let r = Sta.analyze ~timing ~clock_period_ps:1e9 nl in
         (* pick a random endpoint and walk a random backward path, summing
            max delays; the arrival must be <= the endpoint's bound *)
         let dffs = Array.of_list (Netlist.dffs nl) in
         let ep = dffs.(Random.State.int rng (Array.length dffs)) in
         let ep_cell = Netlist.cell nl ep in
         let bound =
           let es = List.find (fun e -> e.Sta.ep = Sta.At_dff ep) r.Sta.endpoint_slacks in
           1e9 -. es.Sta.setup_slack_ps -. (Cell.Library.dff Cell.Library.c28).Cell.setup_ps
         in
         let rec walk net acc =
           match Netlist.driver nl net with
           | Netlist.Driven_by_input _ -> None  (* unconstrained start *)
           | Netlist.Driven_by_cell id ->
             let c = Netlist.cell nl id in
             if Cell.Kind.is_sequential c.Netlist.kind then
               Some (acc +. (Cell.Library.dff Cell.Library.c28).Cell.clk_to_q_max_ps)
             else if Array.length c.Netlist.inputs = 0 then None  (* tie *)
             else begin
               let d = (timing.Sta.cell_delay c).Cell.tpd_max_ps in
               let pin = Random.State.int rng (Array.length c.Netlist.inputs) in
               walk c.Netlist.inputs.(pin) (acc +. d)
             end
         in
         match walk ep_cell.Netlist.inputs.(0) 0.0 with
         | None -> true  (* path from an unconstrained source *)
         | Some arrival -> arrival <= bound +. 1e-6))

(* ---------- cached-delay kernel vs the per-edge reference ---------- *)

(* Reference kernel in its plainest form: [timing.cell_delay] evaluated on
   every DP edge and a fresh [Hashtbl] memo per endpoint.  [Sta]'s
   cached-delay, epoch-memo kernel must reproduce it bit for bit. *)
module Oracle = struct
  open Sta

  (* Maximum and minimum data arrival time at every net, relative to the
     launching clock edge at t = 0 (clock arrivals shift launch times per
     domain). *)
  let propagate_arrivals ~constrain_inputs nl timing =
    let n = Netlist.num_nets nl in
    let at_max = Array.make (max n 1) neg_infinity in
    let at_min = Array.make (max n 1) infinity in
    let cells = Netlist.cells nl in
    for net = 0 to n - 1 do
      match Netlist.driver nl net with
      | Netlist.Driven_by_input _ ->
        if constrain_inputs then begin
          at_max.(net) <- timing.input_arrival_ps;
          at_min.(net) <- timing.input_arrival_ps
        end
      | Netlist.Driven_by_cell id when id >= 0 ->
        let c = cells.(id) in
        if Cell.Kind.is_sequential c.kind then begin
          let arr = timing.clock_arrival_ps c.clock_domain in
          at_max.(net) <- arr +. timing.dff_timing.Cell.clk_to_q_max_ps;
          at_min.(net) <- arr +. timing.dff_timing.Cell.clk_to_q_min_ps
        end
      | Netlist.Driven_by_cell _ ->
        (* undriven net (legal when unread, e.g. after Builder rewiring):
           launches no timing path *)
        ()
    done;
    Array.iter
      (fun id ->
        let c = cells.(id) in
        if Array.length c.inputs > 0 then begin
          let d = timing.cell_delay c in
          let mx = Array.fold_left (fun acc i -> Float.max acc at_max.(i)) neg_infinity c.inputs in
          let mn = Array.fold_left (fun acc i -> Float.min acc at_min.(i)) infinity c.inputs in
          at_max.(c.output) <- mx +. d.Cell.tpd_max_ps;
          at_min.(c.output) <- mn +. d.Cell.tpd_min_ps
        end
        (* Tie cells never transition: like unconstrained inputs, they launch
           no timing path (at_max stays -inf, at_min +inf). *))
      (Netlist.topo_order nl);
    (at_max, at_min)

  exception Cap_reached

  let analyze ?(constrain_inputs = false) ?(max_violating_paths = 10_000) ~timing
      ~clock_period_ps nl =
    let cells = Netlist.cells nl in
    let at_max, at_min = propagate_arrivals ~constrain_inputs nl timing in
    let dff = timing.dff_timing in
    let truncated = ref false in
    let endpoint_slacks =
      List.map
        (fun id ->
          let c = cells.(id) in
          let d_net = c.inputs.(0) in
          let cap_arr = timing.clock_arrival_ps c.clock_domain in
          let setup_slack_ps =
            clock_period_ps +. cap_arr -. dff.Cell.setup_ps -. at_max.(d_net)
          in
          let hold_slack_ps = at_min.(d_net) -. (cap_arr +. dff.Cell.hold_ps) in
          { ep = At_dff id; setup_slack_ps; hold_slack_ps })
        (Netlist.dffs nl)
    in
    (* Backward DFS recovering all violating paths to one endpoint. *)
    let enumerate chk (ep_id : int) acc =
      let c = cells.(ep_id) in
      let cap_arr = timing.clock_arrival_ps c.clock_domain in
      let results = ref acc in
      let count = ref (List.length acc) in
      let record p =
        if !count >= max_violating_paths then begin
          truncated := true;
          raise Cap_reached
        end;
        results := p :: !results;
        incr count
      in
      let source_launch net =
        match Netlist.driver nl net with
        | Netlist.Driven_by_input _ ->
          if constrain_inputs then Some timing.input_arrival_ps else None
        | Netlist.Driven_by_cell id ->
          let src = cells.(id) in
          if Cell.Kind.is_sequential src.kind then
            let arr = timing.clock_arrival_ps src.clock_domain in
            Some
              (match chk with
              | Setup -> arr +. dff.Cell.clk_to_q_max_ps
              | Hold -> arr +. dff.Cell.clk_to_q_min_ps)
          else None
      in
      let startpoint_of net =
        match Netlist.driver nl net with
        | Netlist.Driven_by_input (port, bit) -> From_input (port, bit)
        | Netlist.Driven_by_cell id -> From_dff id
      in
      let required =
        match chk with
        | Setup -> clock_period_ps +. cap_arr -. dff.Cell.setup_ps
        | Hold -> cap_arr +. dff.Cell.hold_ps
      in
      let violates arrival =
        match chk with Setup -> arrival > required | Hold -> arrival < required
      in
      let prune net suffix =
        match chk with
        | Setup -> at_max.(net) +. suffix <= required
        | Hold -> at_min.(net) +. suffix >= required
      in
      let rec visit net suffix through =
        if not (prune net suffix) then begin
          match source_launch net with
          | Some launch ->
            let arrival = launch +. suffix in
            if violates arrival then
              record
                {
                  start = startpoint_of net;
                  finish = At_dff ep_id;
                  through;
                  delay_ps = arrival;
                  slack_ps =
                    (match chk with
                    | Setup -> required -. arrival
                    | Hold -> arrival -. required);
                  check = chk;
                }
          | None ->
            (match Netlist.driver nl net with
            | Netlist.Driven_by_input _ -> ()
            | Netlist.Driven_by_cell id ->
              let g = cells.(id) in
              let d = timing.cell_delay g in
              let step =
                match chk with Setup -> d.Cell.tpd_max_ps | Hold -> d.Cell.tpd_min_ps
              in
              Array.iter (fun i -> visit i (suffix +. step) (id :: through)) g.inputs)
        end
      in
      (try visit c.inputs.(0) 0.0 [] with Cap_reached -> ());
      !results
    in
    let worst_first paths = List.sort (fun a b -> Float.compare a.slack_ps b.slack_ps) paths in
    let collect chk slack_of =
      List.fold_left
        (fun acc es ->
          if slack_of es < 0.0 then
            match es.ep with At_dff id -> enumerate chk id acc
          else acc)
        [] endpoint_slacks
      |> worst_first
    in
    let setup_violations = collect Setup (fun e -> e.setup_slack_ps) in
    let hold_violations = collect Hold (fun e -> e.hold_slack_ps) in
    let wns slack_of =
      List.fold_left (fun acc e -> Float.min acc (slack_of e)) 0.0 endpoint_slacks
    in
    {
      clock_period_ps;
      endpoint_slacks;
      setup_violations;
      hold_violations;
      wns_setup_ps = wns (fun e -> e.setup_slack_ps);
      wns_hold_ps = wns (fun e -> e.hold_slack_ps);
      truncated = !truncated;
    }


  let endpoint_pairs ?(constrain_inputs = false) ?(skip = fun _ _ _ -> false) ~timing
      ~clock_period_ps nl =
    let cells = Netlist.cells nl in
    let dff = timing.dff_timing in
    let results = ref [] in
    let for_check chk =
      List.iter
        (fun ep_id ->
          let ec = cells.(ep_id) in
          let d_net = ec.inputs.(0) in
          let cap_arr = timing.clock_arrival_ps ec.clock_domain in
          let required =
            match chk with
            | Setup -> clock_period_ps +. cap_arr -. dff.Cell.setup_ps
            | Hold -> cap_arr +. dff.Cell.hold_ps
          in
          (* delay from each net to d_net through combinational logic *)
          let memo = Hashtbl.create 64 in
          let worse a b = match chk with Setup -> Float.max a b | Hold -> Float.min a b in
          let neutral = match chk with Setup -> neg_infinity | Hold -> infinity in
          let rec delay_from net =
            match Hashtbl.find_opt memo net with
            | Some d -> d
            | None ->
              let direct = if net = d_net then 0.0 else neutral in
              let through =
                List.fold_left
                  (fun acc rid ->
                    let g = cells.(rid) in
                    if Cell.Kind.is_sequential g.kind then acc
                    else begin
                      let d = timing.cell_delay g in
                      let step =
                        match chk with Setup -> d.Cell.tpd_max_ps | Hold -> d.Cell.tpd_min_ps
                      in
                      let tail = delay_from g.output in
                      if Float.is_finite tail then worse acc (step +. tail) else acc
                    end)
                  neutral (Netlist.readers nl net)
              in
              let d = worse direct through in
              Hashtbl.replace memo net d;
              d
          in
          let consider start launch net =
            (* Skipped pairs do no DP work at all: when every pair of an
               endpoint is skipped, its fan-in cone is never traversed. *)
            if not (skip start (At_dff ep_id) chk) then begin
              let tail = delay_from net in
              if Float.is_finite tail then begin
                let arrival = launch +. tail in
                let slack =
                  match chk with Setup -> required -. arrival | Hold -> arrival -. required
                in
                results := (start, At_dff ep_id, chk, slack) :: !results
              end
            end
          in
          (* launching registers *)
          List.iter
            (fun sid ->
              let sc = cells.(sid) in
              let arr = timing.clock_arrival_ps sc.clock_domain in
              let launch =
                match chk with
                | Setup -> arr +. dff.Cell.clk_to_q_max_ps
                | Hold -> arr +. dff.Cell.clk_to_q_min_ps
              in
              consider (From_dff sid) launch sc.output)
            (Netlist.dffs nl);
          (* primary inputs, when constrained *)
          if constrain_inputs then
            List.iter
              (fun (p : Netlist.port) ->
                Array.iteri
                  (fun bit net -> consider (From_input (p.port_name, bit)) timing.input_arrival_ps net)
                  p.port_nets)
              (Netlist.inputs nl))
        (Netlist.dffs nl)
    in
    for_check Setup;
    for_check Hold;
    List.rev !results

  let pair_path ?(constrain_inputs = false) ~timing ~clock_period_ps nl start
      (At_dff ep_id) chk =
    let cells = Netlist.cells nl in
    let dff = timing.dff_timing in
    let ec = cells.(ep_id) in
    let d_net = ec.inputs.(0) in
    let cap_arr = timing.clock_arrival_ps ec.clock_domain in
    let required =
      match chk with
      | Setup -> clock_period_ps +. cap_arr -. dff.Cell.setup_ps
      | Hold -> cap_arr +. dff.Cell.hold_ps
    in
    let memo = Hashtbl.create 64 in
    let worse a b = match chk with Setup -> Float.max a b | Hold -> Float.min a b in
    let neutral = match chk with Setup -> neg_infinity | Hold -> infinity in
    let step_of g =
      let d = timing.cell_delay g in
      match chk with Setup -> d.Cell.tpd_max_ps | Hold -> d.Cell.tpd_min_ps
    in
    let rec delay_from net =
      match Hashtbl.find_opt memo net with
      | Some d -> d
      | None ->
        let direct = if net = d_net then 0.0 else neutral in
        let through =
          List.fold_left
            (fun acc rid ->
              let g = cells.(rid) in
              if Cell.Kind.is_sequential g.kind then acc
              else begin
                let tail = delay_from g.output in
                if Float.is_finite tail then worse acc (step_of g +. tail) else acc
              end)
            neutral (Netlist.readers nl net)
        in
        let d = worse direct through in
        Hashtbl.replace memo net d;
        d
    in
    let launch =
      match start with
      | From_dff sid ->
        let sc = cells.(sid) in
        let arr = timing.clock_arrival_ps sc.clock_domain in
        Some
          ( sc.output,
            match chk with
            | Setup -> arr +. dff.Cell.clk_to_q_max_ps
            | Hold -> arr +. dff.Cell.clk_to_q_min_ps )
      | From_input (p, b) ->
        if constrain_inputs then
          Some (Netlist.net_of_port_bit nl p b, timing.input_arrival_ps)
        else None
    in
    match launch with
    | None -> None
    | Some (net0, launch_ps) ->
      let tail = delay_from net0 in
      if not (Float.is_finite tail) then None
      else begin
        let pick net =
          let t = delay_from net in
          List.find_opt
            (fun rid ->
              let g = cells.(rid) in
              (not (Cell.Kind.is_sequential g.kind))
              && Float.is_finite (delay_from g.output)
              && Float.abs (step_of g +. delay_from g.output -. t)
                 <= 1e-6 *. (1.0 +. Float.abs t))
            (Netlist.readers nl net)
        in
        let rec walk net acc =
          if net = d_net then List.rev acc
          else
            match pick net with
            | None -> List.rev acc
            | Some rid -> walk cells.(rid).output (rid :: acc)
        in
        let arrival = launch_ps +. tail in
        let slack_ps =
          match chk with Setup -> required -. arrival | Hold -> arrival -. required
        in
        Some
          {
            start;
            finish = At_dff ep_id;
            through = walk net0 [];
            delay_ps = arrival;
            slack_ps;
            check = chk;
          }
      end

  let violating_of_pairs pairs =
    List.filter (fun (_, _, _, slack) -> slack < 0.0) pairs
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b)
end

(* Bitwise float equality: stricter than [Float.equal], which identifies
   0.0 with -0.0. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let all2 f xs ys = List.length xs = List.length ys && List.for_all2 f xs ys

let same_pair (s, e, c, x) (s', e', c', y) = s = s' && e = e' && c = c' && same_float x y

let same_path (p : Sta.path) (q : Sta.path) =
  p.start = q.start && p.finish = q.finish && p.through = q.through && p.check = q.check
  && same_float p.delay_ps q.delay_ps
  && same_float p.slack_ps q.slack_ps

let same_report (r : Sta.report) (o : Sta.report) =
  same_float r.clock_period_ps o.clock_period_ps
  && all2
       (fun (a : Sta.endpoint_slack) (b : Sta.endpoint_slack) ->
         a.ep = b.ep
         && same_float a.setup_slack_ps b.setup_slack_ps
         && same_float a.hold_slack_ps b.hold_slack_ps)
       r.endpoint_slacks o.endpoint_slacks
  && all2 same_path r.setup_violations o.setup_violations
  && all2 same_path r.hold_violations o.hold_violations
  && same_float r.wns_setup_ps o.wns_setup_ps
  && same_float r.wns_hold_ps o.wns_hold_ps
  && r.truncated = o.truncated

(* The shortest clock period that meets setup at every endpoint under
   [timing], read off the slacks at a period so long nothing violates. *)
let critical_ps ~timing nl =
  let probe = Sta.analyze ~max_violating_paths:0 ~timing ~clock_period_ps:1e9 nl in
  List.fold_left
    (fun acc (e : Sta.endpoint_slack) -> Float.max acc (1e9 -. e.Sta.setup_slack_ps))
    0.0 probe.Sta.endpoint_slacks

(* ALU8, ALU16 and FPU16 with their fresh critical paths, which scale the
   clock period of each corner. *)
let kernel_units =
  lazy
    (List.map
       (fun (name, nl) ->
         let clock_tree = Clock_tree.two_domain_gated ~sp_gated:0.05 () in
         let timing = Sta.fresh_timing ~clock_tree Cell.Library.c28 in
         (name, nl, critical_ps ~timing nl))
       [ ("alu8", Alu.netlist ~width:8 ()); ("alu16", Alu.netlist ~width:16 ()); ("fpu16", Fpu.netlist ()) ])

type corner = {
  unit_ix : int;
  seed : int;  (** per-net SP and toggle-rate draws *)
  years : float;
  derate : float;
  margin : float;
  sp_gated : float;
  em : bool;
  constrain : bool;
}

let corner_gen =
  QCheck.Gen.(
    map2
      (fun (unit_ix, seed, years, derate) (margin, sp_gated, em, constrain) ->
        { unit_ix; seed; years; derate; margin; sp_gated; em; constrain })
      (quad (int_bound 2) (int_bound 1_000_000) (float_range 0.0 30.0) (float_range 0.95 1.1))
      (quad (float_range 0.97 1.05) (float_range 0.0 1.0) bool bool))

let show_corner c =
  Printf.sprintf "unit %d seed %d years %g derate %g margin %g sp_gated %g em %b constrain %b"
    c.unit_ix c.seed c.years c.derate c.margin c.sp_gated c.em c.constrain

let corner_timing c nl =
  let rng = Random.State.make [| c.seed |] in
  let sp = Array.init (Netlist.num_nets nl) (fun _ -> Random.State.float rng 1.0) in
  let toggle = Array.init (Netlist.num_nets nl) (fun _ -> Random.State.float rng 1.0) in
  Sta.aged_timing ~derate:c.derate
    ~clock_tree:(Clock_tree.two_domain_gated ~sp_gated:c.sp_gated ())
    ?toggle_of_net:(if c.em then Some (fun n -> toggle.(n)) else None)
    ~sp_of_net:(fun n -> sp.(n))
    ~years:c.years aglib_c28

let prop_kernel_matches_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"cached kernel bit-identical to per-edge oracle"
       (QCheck.make ~print:show_corner corner_gen)
       (fun c ->
         let _, nl, crit = List.nth (Lazy.force kernel_units) c.unit_ix in
         let timing = corner_timing c nl in
         let clock_period_ps = crit *. c.margin and constrain_inputs = c.constrain in
         let pairs = Sta.endpoint_pairs ~constrain_inputs ~timing ~clock_period_ps nl in
         let violating = Sta.violating_pairs ~constrain_inputs ~timing ~clock_period_ps nl in
         (* the worst violating pairs, a spread of all pairs, and one
            primary-input start (None unless inputs are constrained) *)
         let stride = max 1 (List.length pairs / 16) in
         let queries =
           (Sta.From_input ((List.hd (Netlist.inputs nl)).Netlist.port_name, 0),
            Sta.At_dff (List.hd (Netlist.dffs nl)), Sta.Setup)
           :: List.map (fun (s, e, k, _) -> (s, e, k))
                (List.filteri (fun i _ -> i < 16) violating
                @ List.filteri (fun i _ -> i mod stride = 0) pairs)
         in
         let same_query (s, e, k) =
           Option.equal same_path
             (Sta.pair_path ~constrain_inputs ~timing ~clock_period_ps nl s e k)
             (Oracle.pair_path ~constrain_inputs ~timing ~clock_period_ps nl s e k)
         in
         (* the fresh-critical-path probe phase 1 used to write inline *)
         let inline_probe =
           let r = Sta.analyze ~timing ~clock_period_ps:1e9 nl in
           List.fold_left
             (fun acc (e : Sta.endpoint_slack) -> Float.max acc (1e9 -. e.Sta.setup_slack_ps))
             0.0 r.Sta.endpoint_slacks
         in
         let report = Sta.analyze ~constrain_inputs ~max_violating_paths:500 in
         let oracle = Oracle.analyze ~constrain_inputs ~max_violating_paths:500 in
         let oracle_pairs = Oracle.endpoint_pairs ~constrain_inputs ~timing ~clock_period_ps nl in
         all2 same_pair pairs oracle_pairs
         && all2 same_pair violating (Oracle.violating_of_pairs oracle_pairs)
         && List.for_all same_query queries
         && same_report (report ~timing ~clock_period_ps nl) (oracle ~timing ~clock_period_ps nl)
         && same_float (Sta.critical_path_ps ~timing nl) inline_probe))

(* One kernel call evaluates [cell_delay] at most once per cell. *)
let test_delay_once_per_cell () =
  let corner =
    { unit_ix = 0; seed = 1; years = 10.0; derate = 1.0; margin = 0.98; sp_gated = 0.05;
      em = false; constrain = false }
  in
  List.iter
    (fun (name, nl, crit) ->
      let clock_period_ps = crit *. corner.margin in
      let timing = corner_timing corner nl in
      let counted what f =
        let calls = Array.make (Netlist.num_cells nl) 0 in
        let cell_delay (c : Netlist.cell) =
          calls.(c.id) <- calls.(c.id) + 1;
          timing.Sta.cell_delay c
        in
        f { timing with Sta.cell_delay };
        Alcotest.(check int) (Printf.sprintf "%s %s: most calls for one cell" name what) 1
          (Array.fold_left max 0 calls)
      in
      let pairs = Sta.violating_pairs ~timing ~clock_period_ps nl in
      Alcotest.(check bool) (name ^ " corner violates") true (pairs <> []);
      counted "endpoint_pairs" (fun timing ->
          ignore (Sta.endpoint_pairs ~timing ~clock_period_ps nl));
      counted "analyze" (fun timing -> ignore (Sta.analyze ~timing ~clock_period_ps nl));
      let s, e, k, _ = List.hd pairs in
      counted "pair_path" (fun timing ->
          ignore (Sta.pair_path ~timing ~clock_period_ps nl s e k)))
    (Lazy.force kernel_units)

(* ---------- incremental re-timing ---------- *)

module B = Netlist.Builder

let retime_kinds =
  Cell.Kind.[| Buf; Not; And2; Or2; Xor2; Nand2; Nor2; Xnor2; Mux2 |]

(* One netlist version: the netlist plus, per net, the SP that sets its
   driver's aged max delay and a factor on its fresh min delay (aged
   timing leaves min delays alone; the factor lets an edit move one
   without the other).  Registers sit in both domains of a gated tree,
   so launch and capture clocks differ between pairs. *)
type version = { v_nl : Netlist.t; v_sp : float array; v_min : float array }

let retime_tree = Clock_tree.two_domain_gated ~sp_gated:0.05 ()

let version_timing ?(clock_tree = retime_tree) v =
  let aged = Sta.aged_timing ~clock_tree ~sp_of_net:(fun n -> v.v_sp.(n)) ~years:10.0 aglib_c28 in
  let cell_delay (c : Netlist.cell) =
    let d = aged.Sta.cell_delay c in
    { d with Cell.tpd_min_ps = d.Cell.tpd_min_ps *. v.v_min.(c.output) }
  in
  { aged with Sta.cell_delay }

(* Random sequential netlist: cells read earlier nets, then some
   registers are fed back from later ones.  [rename] gives cell [i] a
   different instance name and nothing else. *)
let random_version ?rename rng =
  let b = B.create "retime" in
  let pool = ref (Array.to_list (B.add_input b "in" (1 + Random.State.int rng 4))) in
  let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let regs = ref [] in
  for i = 0 to 5 + Random.State.int rng 30 do
    let name = Printf.sprintf (if rename = Some i then "renamed%d" else "c%d") i in
    let out =
      if Random.State.int rng 3 = 0 then begin
        let id, q =
          B.add_cell_with_id ~name ~clock_domain:(Random.State.int rng 2) b Cell.Kind.Dff
            [| pick () |]
        in
        regs := id :: !regs;
        q
      end
      else
        let k = retime_kinds.(Random.State.int rng (Array.length retime_kinds)) in
        B.add_cell ~name b k (Array.init (Cell.Kind.arity k) (fun _ -> pick ()))
    in
    pool := out :: !pool
  done;
  List.iter
    (fun id -> if Random.State.bool rng then B.rewire_input b ~cell_id:id ~pin:0 (pick ()))
    !regs;
  B.add_output b "out" [| pick () |];
  let nl = B.finish b in
  let per_net f = Array.init (Netlist.num_nets nl) (fun _ -> f ()) in
  let v_sp = per_net (fun () -> Random.State.float rng 1.0) in
  { v_nl = nl; v_sp; v_min = per_net (fun () -> 0.5 +. Random.State.float rng 1.0) }

(* One random Builder edit of the kinds repair makes, or a delay change.
   An edit the Builder refuses (a combinational cycle) leaves the version
   as it was. *)
let edit_version rng v =
  let nl = v.v_nl in
  let n = Netlist.num_cells nl and nn = Netlist.num_nets nl in
  let cell () = Netlist.cell nl (Random.State.int rng n) in
  let net () = Random.State.int rng nn in
  let pin (c : Netlist.cell) = Random.State.int rng (max 1 (Array.length c.inputs)) in
  let built f =
    let b = B.of_netlist nl in
    match
      f b;
      B.finish b
    with
    | nl' ->
      let extend a = Array.init (Netlist.num_nets nl') (fun i -> if i < nn then a.(i) else 1.0) in
      { v_nl = nl'; v_sp = extend v.v_sp; v_min = extend v.v_min }
    | exception Invalid_argument _ -> v
  in
  let set a =
    let a = Array.copy a in
    a.((cell ()).output) <- 0.5 +. Random.State.float rng 1.0;
    a
  in
  match Random.State.int rng 6 with
  | 0 ->
    (* rewire a pin *)
    let c = cell () in
    if Array.length c.inputs = 0 then v
    else built (fun b -> B.rewire_input b ~cell_id:c.id ~pin:(pin c) (net ()))
  | 1 ->
    (* a new cell in front of a reader *)
    let c = cell () in
    if Array.length c.inputs = 0 then v
    else
      built (fun b ->
          let p = pin c in
          let k = retime_kinds.(Random.State.int rng (Array.length retime_kinds)) in
          let ins =
            Array.init (Cell.Kind.arity k) (fun i -> if i = 0 then c.inputs.(p) else net ())
          in
          B.rewire_input b ~cell_id:c.id ~pin:p (B.add_cell b k ins))
  | 2 ->
    (* set_kind to another kind of the same arity *)
    let c = cell () in
    let same =
      List.filter
        (fun k -> Cell.Kind.arity k = Array.length c.inputs && k <> c.kind)
        (Array.to_list retime_kinds)
    in
    if Cell.Kind.is_sequential c.kind || same = [] then v
    else
      let k = List.nth same (Random.State.int rng (List.length same)) in
      built (fun b -> B.set_kind b ~cell_id:c.id k)
  | 3 ->
    (* a new register, read by some cell *)
    built (fun b ->
        let q = B.add_cell ~clock_domain:(Random.State.int rng 2) b Cell.Kind.Dff [| net () |] in
        let c = cell () in
        if Array.length c.inputs > 0 then B.rewire_input b ~cell_id:c.id ~pin:(pin c) q)
  | 4 -> { v with v_sp = set v.v_sp }  (* one cell's SP: its max delay *)
  | _ -> { v with v_min = set v.v_min }  (* one cell's min delay *)

let retime_period = 600.0
let full_pairs ?clock_tree v =
  Sta.endpoint_pairs ~timing:(version_timing ?clock_tree v) ~clock_period_ps:retime_period v.v_nl

(* [retime_pairs] from [parent] (whose table is [pairs0]), with the
   endpoint counts it reports. *)
let retime ?clock_tree ~parent:(p, pairs0) v =
  let counts = ref (-1, -1) in
  let pairs =
    Sta.retime_pairs
      ~on_retime:(fun ~retimed ~total -> counts := (retimed, total))
      ~parent:(p.v_nl, version_timing p, pairs0)
      ~timing:(version_timing ?clock_tree v) ~clock_period_ps:retime_period v.v_nl
  in
  (pairs, !counts)

let version_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000)

(* A chain of edits re-timed table to table, as repair does, plus the
   cases that must fall back to a full sweep: a parent with more cells, a
   renamed cell, and a different clock tree. *)
let prop_retime_equals_sweep =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"retime_pairs = endpoint_pairs, order included"
       version_gen
       (fun seed ->
         let rng = Random.State.make [| 0x7e71; seed |] in
         let v0 = random_version rng in
         let check what v (got, (retimed, total)) =
           let want = full_pairs v in
           if not (all2 same_pair got want) then
             QCheck.Test.fail_reportf "%s: %d pairs re-timed, %d swept" what (List.length got)
               (List.length want);
           if retimed < 0 || retimed > total || total <> List.length (Netlist.dffs v.v_nl) then
             QCheck.Test.fail_reportf "%s: re-timed %d of %d endpoints" what retimed total
         in
         let rec chain k (v, pairs) =
           if k = 0 then v
           else begin
             let v' = edit_version rng v in
             let ((pairs', _) as r) = retime ~parent:(v, pairs) v' in
             check (Printf.sprintf "edit %d" k) v' r;
             chain (k - 1) (v', pairs')
           end
         in
         let p0 = full_pairs v0 in
         let vk = chain (1 + Random.State.int rng 4) (v0, p0) in
         check "edits at once" vk (retime ~parent:(v0, p0) vk);
         let falls_back what v r =
           check what v r;
           let retimed, total = snd r in
           if retimed <> total then QCheck.Test.fail_reportf "%s: no full sweep" what
         in
         if Netlist.num_cells vk.v_nl > Netlist.num_cells v0.v_nl then
           falls_back "parent with more cells" v0 (retime ~parent:(vk, full_pairs vk) v0);
         let rng' = Random.State.make [| 0x7e71; seed |] in
         let renamed = random_version ~rename:(Random.State.int rng 6) rng' in
         falls_back "renamed cell" renamed (retime ~parent:(v0, p0) renamed);
         (* the new tree moves only the gated domain's clock *)
         let clock_tree = Clock_tree.two_domain_gated ~sp_gated:0.9 () in
         let r = retime ~clock_tree ~parent:(v0, p0) v0 in
         if not (all2 same_pair (fst r) (full_pairs ~clock_tree v0)) then
           QCheck.Test.fail_reportf "new clock tree: pairs differ from a sweep";
         let gated = List.exists (fun id -> (Netlist.cell v0.v_nl id).clock_domain = 1) in
         if gated (Netlist.dffs v0.v_nl) && fst (snd r) <> snd (snd r) then
           QCheck.Test.fail_reportf "new clock tree: no full sweep";
         true))

(* Every table slack is [pair_path]'s slack bit for bit, and a pair is
   missing exactly when [pair_path] finds no path. *)
let prop_retime_matches_pair_path =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150 ~name:"re-timed slacks = pair_path slacks"
       version_gen
       (fun seed ->
         let rng = Random.State.make [| 0x9a7; seed |] in
         let v0 = random_version rng in
         let v = edit_version rng (edit_version rng v0) in
         let table, _ = retime ~parent:(v0, full_pairs v0) v in
         let timing = version_timing v and dffs = Netlist.dffs v.v_nl in
         List.for_all
           (fun chk ->
             List.for_all
               (fun e ->
                 List.for_all
                   (fun s ->
                     let start = Sta.From_dff s and finish = Sta.At_dff e in
                     let entry =
                       List.find_map
                         (fun (s', e', c', x) ->
                           if s' = start && e' = finish && c' = chk then Some x else None)
                         table
                     in
                     let path =
                       Sta.pair_path ~timing ~clock_period_ps:retime_period v.v_nl start finish chk
                     in
                     match (entry, path) with
                     | None, None -> true
                     | Some x, Some p -> same_float x p.Sta.slack_ps
                     | _ -> QCheck.Test.fail_reportf "pair %d -> %d in one view only" s e)
                   dffs)
               dffs)
           [ Sta.Setup; Sta.Hold ]))

(* A buffer in front of one register's D pin re-times that register
   alone, and the table still equals a full sweep. *)
let test_retime_one_endpoint () =
  let nl = Alu.netlist ~width:8 () in
  let flat nl = Array.make (Netlist.num_nets nl) 0.5 in
  let v = { v_nl = nl; v_sp = flat nl; v_min = flat nl } in
  let ep = List.hd (Netlist.dffs nl) in
  let b = B.of_netlist nl in
  let d = (Netlist.cell nl ep).inputs.(0) in
  B.rewire_input b ~cell_id:ep ~pin:0 (B.add_cell b Cell.Kind.Buf [| d |]);
  let nl' = B.finish b in
  let v' = { v_nl = nl'; v_sp = flat nl'; v_min = flat nl' } in
  let pairs, (retimed, total) = retime ~parent:(v, full_pairs v) v' in
  Alcotest.(check int) "endpoints re-timed" 1 retimed;
  Alcotest.(check int) "endpoint total" (List.length (Netlist.dffs nl')) total;
  Alcotest.(check bool) "table = full sweep" true (all2 same_pair pairs (full_pairs v'))

(* ---------- cone marking ---------- *)

(* Ids of the combinational cells in [d_net]'s fan-in cone: a backward
   walk over combinational drivers, stopping at registers and inputs. *)
let comb_fanin nl d_net =
  let seen = Array.make (Netlist.num_cells nl) false in
  let rec visit net =
    match Netlist.driver nl net with
    | Netlist.Driven_by_cell id when id >= 0 ->
      let c = Netlist.cell nl id in
      if (not (Cell.Kind.is_sequential c.kind)) && not seen.(id) then begin
        seen.(id) <- true;
        Array.iter visit c.inputs
      end
    | Netlist.Driven_by_cell _ | Netlist.Driven_by_input _ -> ()
  in
  visit d_net;
  seen

(* Every kernel entry point agrees bit for bit with the oracle, at a
   violating and a clean period, with and without constrained inputs, and
   [pair_path] on every (start, endpoint, check).  Registers sit in both
   domains of a gated clock tree. *)
let agrees_with_oracle nl =
  let timing =
    Sta.aged_timing ~clock_tree:retime_tree ~sp_of_net:(fun _ -> 0.3) ~years:10.0 aglib_c28
  in
  let crit = critical_ps ~timing nl in
  let dffs = Netlist.dffs nl in
  let starts =
    List.map (fun id -> Sta.From_dff id) dffs
    @ List.concat_map
        (fun (p : Netlist.port) ->
          List.init (Array.length p.port_nets) (fun b -> Sta.From_input (p.port_name, b)))
        (Netlist.inputs nl)
  in
  List.for_all
    (fun (clock_period_ps, constrain_inputs) ->
      let pairs = Sta.endpoint_pairs ~constrain_inputs ~timing ~clock_period_ps nl in
      let oracle_pairs = Oracle.endpoint_pairs ~constrain_inputs ~timing ~clock_period_ps nl in
      all2 same_pair pairs oracle_pairs
      && all2 same_pair
           (Sta.violating_pairs ~constrain_inputs ~timing ~clock_period_ps nl)
           (Oracle.violating_of_pairs oracle_pairs)
      && same_report
           (Sta.analyze ~constrain_inputs ~timing ~clock_period_ps nl)
           (Oracle.analyze ~constrain_inputs ~timing ~clock_period_ps nl)
      && List.for_all
           (fun (s, e, k) ->
             Option.equal same_path
               (Sta.pair_path ~constrain_inputs ~timing ~clock_period_ps nl s e k)
               (Oracle.pair_path ~constrain_inputs ~timing ~clock_period_ps nl s e k))
           (List.concat_map
              (fun s ->
                List.concat_map
                  (fun e -> [ (s, Sta.At_dff e, Sta.Setup); (s, Sta.At_dff e, Sta.Hold) ])
                  dffs)
              starts))
    [ (crit *. 0.8, false); (crit *. 0.8, true); (crit *. 1.2, false); (crit *. 1.2, true) ]

(* Endpoint [b] reads register [a]'s Q directly: its cone is [b]'s D net
   alone, with no combinational cell. *)
let cone_empty () =
  let b = B.create "empty_cone" in
  let d = B.add_input b "d" 2 in
  let qa = B.add_cell ~name:"a" ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let qb = B.add_cell ~name:"b" ~clock_domain:0 b Cell.Kind.Dff [| qa |] in
  let x = B.add_cell b Cell.Kind.Xor2 [| qa; d.(1) |] in
  let nx = B.add_cell b Cell.Kind.Not [| x |] in
  let qc = B.add_cell ~name:"c" ~clock_domain:0 b Cell.Kind.Dff [| nx |] in
  B.add_output b "q" [| qb; qc |];
  B.finish b

(* Registers [z0]/[z1] feed only logic that ends at an output port: they
   launch no pair, and their fan-out lies outside every cone. *)
let cone_dead_starts () =
  let b = B.create "dead_starts" in
  let d = B.add_input b "d" 2 in
  let q0 = B.add_cell ~name:"z0" ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let q1 = B.add_cell ~name:"z1" ~clock_domain:1 b Cell.Kind.Dff [| d.(1) |] in
  let y = B.add_cell b Cell.Kind.Or2 [| B.add_cell b Cell.Kind.And2 [| q0; q1 |]; d.(0) |] in
  let bd = B.add_cell b Cell.Kind.Buf [| d.(1) |] in
  let qe = B.add_cell ~name:"e" ~clock_domain:0 b Cell.Kind.Dff [| bd |] in
  B.add_output b "y" [| y; qe |];
  B.finish b

(* Net [x] fans out into [e]'s cone (through [Not]), into [f]'s cone
   (through [Xor2]) and to an output port (through [Or2]): for each
   endpoint, part of [x]'s fan-out leaves the cone. *)
let cone_fanout () =
  let b = B.create "fanout" in
  let d = B.add_input b "d" 2 in
  let qa = B.add_cell ~name:"a" ~clock_domain:0 b Cell.Kind.Dff [| d.(0) |] in
  let qb = B.add_cell ~name:"b" ~clock_domain:1 b Cell.Kind.Dff [| d.(1) |] in
  let x = B.add_cell b Cell.Kind.And2 [| qa; qb |] in
  let nx = B.add_cell b Cell.Kind.Not [| x |] in
  let qe = B.add_cell ~name:"e" ~clock_domain:0 b Cell.Kind.Dff [| nx |] in
  let chain = B.add_cell b Cell.Kind.Buf [| B.add_cell b Cell.Kind.Xor2 [| x; qe |] |] in
  let qf = B.add_cell ~name:"f" ~clock_domain:1 b Cell.Kind.Dff [| chain |] in
  B.add_output b "o" [| B.add_cell b Cell.Kind.Or2 [| x; qa |]; qf |];
  B.finish b

let test_cone_cases () =
  List.iter
    (fun (name, nl) ->
      Alcotest.(check bool) (name ^ ": kernel = oracle, bit for bit") true (agrees_with_oracle nl))
    [
      ("empty cone", cone_empty ());
      ("registers reaching no endpoint", cone_dead_starts ());
      ("fan-out leaving the cone", cone_fanout ());
    ]

(* [endpoint_pairs] asks [cell_delay] only for cells inside some
   endpoint's combinational fan-in cone. *)
let test_delay_only_in_cones () =
  let corner =
    { unit_ix = 0; seed = 2; years = 10.0; derate = 1.0; margin = 0.98; sp_gated = 0.05;
      em = false; constrain = false }
  in
  List.iter
    (fun (name, nl) ->
      let timing = corner_timing corner nl in
      let in_cones = Array.make (Netlist.num_cells nl) false in
      List.iter
        (fun id ->
          Array.iteri
            (fun c inside -> if inside then in_cones.(c) <- true)
            (comb_fanin nl (Netlist.cell nl id).inputs.(0)))
        (Netlist.dffs nl);
      let outside = ref [] and called = ref 0 in
      let cell_delay (c : Netlist.cell) =
        incr called;
        if not in_cones.(c.id) then outside := c.name :: !outside;
        timing.Sta.cell_delay c
      in
      List.iter
        (fun constrain_inputs ->
          ignore
            (Sta.endpoint_pairs ~constrain_inputs ~timing:{ timing with Sta.cell_delay }
               ~clock_period_ps:1000.0 nl))
        [ false; true ];
      Alcotest.(check bool) (name ^ ": delays asked") true (!called > 0);
      Alcotest.(check (list string)) (name ^ ": cells outside every cone") [] !outside)
    (List.map (fun (name, nl, _) -> (name, nl)) (Lazy.force kernel_units)
    @ [ ("dead starts", cone_dead_starts ()); ("fan-out", cone_fanout ()) ])

let () =
  Alcotest.run "sta"
    [
      ( "paper example",
        [
          Alcotest.test_case "fresh timing clean" `Quick test_paper_example_fresh;
          Alcotest.test_case "aged setup violation" `Quick test_paper_example_aged_setup;
          Alcotest.test_case "hold violation via skew" `Quick test_paper_example_hold_via_skew;
        ] );
      ( "path enumeration",
        [
          Alcotest.test_case "violating path count" `Quick test_violating_path_count;
          Alcotest.test_case "describe path" `Quick test_describe_path;
          Alcotest.test_case "render report" `Quick test_render_report;
          Alcotest.test_case "truncation cap" `Quick test_truncation;
        ] );
      ( "aging integration",
        [
          Alcotest.test_case "aged timing source" `Quick test_aged_timing_source;
          Alcotest.test_case "em-aware timing" `Quick test_em_aware_timing;
        ] );
      ( "aged corners",
        [
          Alcotest.test_case "direct DFF-to-DFF pair" `Quick test_direct_dff_to_dff;
          Alcotest.test_case "single-cell aged path" `Quick test_single_cell_aged_path;
          Alcotest.test_case "chain delay summation" `Quick test_chain_delay_summation;
          Alcotest.test_case "skip drops only skipped pairs" `Quick
            test_skip_drops_only_skipped_pairs;
        ] );
      ("properties", [ prop_paths_within_bounds; prop_monte_carlo_paths_bounded ]);
      ( "cached kernel",
        [
          prop_kernel_matches_oracle;
          Alcotest.test_case "one cell_delay per cell" `Quick test_delay_once_per_cell;
        ] );
      ( "cone marking",
        [
          Alcotest.test_case "edge cones match the oracle" `Quick test_cone_cases;
          Alcotest.test_case "delays only inside cones" `Quick test_delay_only_in_cones;
        ] );
      ( "retime",
        [
          prop_retime_equals_sweep;
          prop_retime_matches_pair_path;
          Alcotest.test_case "one edited endpoint re-timed" `Quick test_retime_one_endpoint;
        ] );
    ]
