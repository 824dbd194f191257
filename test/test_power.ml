(* Tests for the area/power report: internal consistency of the totals,
   the activity model's scaling laws, profile preconditions, and the
   engine-generic path over a Simc lane view. *)

let profiled_adder cycles =
  let nl = Example_circuits.pipelined_adder () in
  let sim = Sim.create ~profile:true nl in
  Sim.run_random sim ~cycles;
  sim

let test_report_consistency () =
  let sim = profiled_adder 400 in
  let r = Power.analyze Cell.Library.c28 sim ~clock_mhz:500.0 in
  Alcotest.(check int) "cell count" 10 r.Power.cell_count;
  Alcotest.(check int) "rows cover every cell" r.Power.cell_count
    (List.fold_left (fun acc row -> acc + row.Power.count) 0 r.Power.by_kind);
  Alcotest.(check (float 1e-9)) "total area = sum of rows"
    (List.fold_left (fun acc row -> acc +. row.Power.area_um2) 0.0 r.Power.by_kind)
    r.Power.total_area_um2;
  Alcotest.(check (float 1e-9)) "total leakage = sum of rows"
    (List.fold_left (fun acc row -> acc +. row.Power.leakage_nw) 0.0 r.Power.by_kind)
    r.Power.total_leakage_nw;
  Alcotest.(check (float 1e-9)) "clock recorded" 500.0 r.Power.clock_mhz;
  (* by_kind follows the declaration order of Cell.Kind.all *)
  let rank k =
    let rec go i = function
      | [] -> Alcotest.fail "kind missing from Cell.Kind.all"
      | x :: tl -> if x = k then i else go (i + 1) tl
    in
    go 0 Cell.Kind.all
  in
  ignore
    (List.fold_left
       (fun prev row ->
         let x = rank row.Power.kind in
         Alcotest.(check bool) "rows in Kind.all order" true (x > prev);
         x)
       (-1) r.Power.by_kind)

let test_dynamic_scales_with_clock () =
  let sim = profiled_adder 400 in
  let r1 = Power.analyze Cell.Library.c28 sim ~clock_mhz:250.0 in
  let r2 = Power.analyze Cell.Library.c28 sim ~clock_mhz:750.0 in
  Alcotest.(check bool) "dynamic positive" true (r1.Power.total_dynamic_nw > 0.0);
  Alcotest.(check (float 1e-6)) "P_dyn linear in f" (3.0 *. r1.Power.total_dynamic_nw)
    r2.Power.total_dynamic_nw;
  (* leakage is frequency-independent *)
  Alcotest.(check (float 1e-9)) "leakage unchanged" r1.Power.total_leakage_nw
    r2.Power.total_leakage_nw

let test_leakage_is_state_weighted () =
  (* a DFF chain parked at constant 1 leaks differently from one parked
     at 0: leakage is SP-weighted, not a per-cell constant *)
  let weigh bit =
    let nl = Example_circuits.dff_chain 4 in
    let sim = Sim.create ~profile:true nl in
    for _ = 1 to 32 do
      Sim.set_input_bit sim "d" 0 bit;
      Sim.step sim
    done;
    (Power.analyze Cell.Library.c28 sim ~clock_mhz:500.0).Power.total_leakage_nw
  in
  let at0 = weigh false and at1 = weigh true in
  Alcotest.(check bool) "state changes leakage" true (Float.abs (at0 -. at1) > 1e-6)

let test_requires_profile () =
  let nl = Example_circuits.pipelined_adder () in
  let sim = Sim.create nl in
  Alcotest.check_raises "unprofiled simulator rejected"
    (Invalid_argument "Sim: simulator was created without ~profile:true") (fun () ->
      ignore (Power.analyze Cell.Library.c28 sim ~clock_mhz:500.0));
  let sim' = Sim.create ~profile:true nl in
  Alcotest.check_raises "zero samples rejected" (Invalid_argument "Sim: no cycles sampled yet")
    (fun () -> ignore (Power.analyze Cell.Library.c28 sim' ~clock_mhz:500.0))

let test_engine_generic_lane_view () =
  (* a machine unit's setup: identical stimulus in every lane, profile
     mask pinned to lane 0 — the report must be the scalar one exactly *)
  let nl = Example_circuits.lfsr4 () in
  let scalar = Sim.create ~profile:true nl in
  let sc = Simc.create ~profile:true nl in
  Simc.set_active_mask sc 1;
  for c = 0 to 29 do
    let e = Bitvec.create ~width:1 (c land 1) in
    Sim.set_input scalar "enable" e;
    Simc.set_input_all sc "enable" e;
    Sim.step scalar;
    Simc.step sc
  done;
  let r = Power.analyze Cell.Library.c28 scalar ~clock_mhz:600.0 in
  let rc =
    Power.analyze_engine (module Simc.Lane) Cell.Library.c28 (Simc.lane_view sc 0)
      ~clock_mhz:600.0
  in
  Alcotest.(check string) "identical rendered report" (Power.render r) (Power.render rc)

let test_render () =
  let sim = profiled_adder 100 in
  let r = Power.analyze Cell.Library.c28 sim ~clock_mhz:500.0 in
  let text = Power.render r in
  Alcotest.(check bool) "mentions cell count" true
    (String.length text > 0
    &&
    let needle = "10 cells" in
    let rec find i =
      i + String.length needle <= String.length text
      && (String.sub text i (String.length needle) = needle || find (i + 1))
    in
    find 0);
  (* one line per populated kind row plus the three header lines *)
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "line count" (3 + List.length r.Power.by_kind) (List.length lines)

let () =
  Alcotest.run "power"
    [
      ( "report",
        [
          Alcotest.test_case "consistency" `Quick test_report_consistency;
          Alcotest.test_case "dynamic scales with clock" `Quick test_dynamic_scales_with_clock;
          Alcotest.test_case "leakage is state-weighted" `Quick test_leakage_is_state_weighted;
          Alcotest.test_case "requires profile" `Quick test_requires_profile;
        ] );
      ( "engines",
        [ Alcotest.test_case "simc lane view" `Quick test_engine_generic_lane_view ] );
      ("render", [ Alcotest.test_case "text report" `Quick test_render ]);
    ]
