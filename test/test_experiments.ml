(* Smoke tests for the experiment drivers, on the reduced configuration:
   every table/figure driver runs and its rows have the expected shape. *)

let ctx = Experiments.make_context ~config:Experiments.quick_config ()

let test_fig8 () =
  let buckets = Experiments.fig8 ctx in
  let total_alu = List.fold_left (fun a b -> a +. b.Experiments.alu_frac) 0.0 buckets in
  let total_fpu = List.fold_left (fun a b -> a +. b.Experiments.fpu_frac) 0.0 buckets in
  Alcotest.(check (float 0.02)) "alu fractions sum to 1" 1.0 total_alu;
  Alcotest.(check (float 0.02)) "fpu fractions sum to 1" 1.0 total_fpu;
  Alcotest.(check bool) "renders" true
    (String.length (Experiments.render_fig8 buckets) > 100)

let test_table3 () =
  let rows = Experiments.table3 ctx in
  Alcotest.(check int) "two units" 2 (List.length rows);
  let alu = List.find (fun r -> r.Experiments.t3_unit = "ALU") rows in
  let fpu = List.find (fun r -> r.Experiments.t3_unit = "FPU") rows in
  Alcotest.(check bool) "alu setup violations" true (alu.Experiments.setup_paths > 0);
  Alcotest.(check bool) "alu wns negative" true (alu.Experiments.setup_wns_ps < 0.0);
  Alcotest.(check bool) "fpu has far more paths than alu" true
    (fpu.Experiments.setup_paths > 10 * alu.Experiments.setup_paths);
  Alcotest.(check bool) "fpu hold violation" true (fpu.Experiments.hold_paths >= 1);
  Alcotest.(check int) "alu no hold" 0 alu.Experiments.hold_paths

let test_table4 () =
  let rows = Experiments.table4 ctx in
  List.iter
    (fun r ->
      let sum = List.fold_left (fun a (_, p) -> a +. p) 0.0 r.Experiments.without in
      Alcotest.(check (float 0.1)) (r.Experiments.t4_unit ^ " percentages sum to 100") 100.0 sum)
    rows

let test_table5 () =
  let rows = Experiments.table5 ctx in
  List.iter
    (fun r ->
      Alcotest.(check bool) "cases positive" true (r.Experiments.cases_without > 0);
      (* the headline claim: suites execute in hundreds to thousands of cycles *)
      Alcotest.(check bool) "cycles in the low thousands" true
        (r.Experiments.cycles_without > 0 && r.Experiments.cycles_with < 5000);
      Alcotest.(check bool) "mitigation grows the suite" true
        (r.Experiments.cases_with >= r.Experiments.cases_without))
    rows

let test_table6 () =
  let rows = Experiments.table6 ctx in
  Alcotest.(check int) "12 rows (2 units x 3 FMs x 2 suites)" 12 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "high detection" true (r.Experiments.detected_pct >= 80.0);
      Alcotest.(check bool) "percentages bounded" true
        (r.Experiments.before_pct <= 100.0 && r.Experiments.stall_pct <= 100.0))
    rows

let test_table7 () =
  let rows = Experiments.table7 ctx in
  Alcotest.(check int) "6 rows" 6 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "vega detects most" true (r.Experiments.vega_pct >= 80.0);
      Alcotest.(check bool) "random below or equal overall ALU C0" true
        (r.Experiments.random_pct <= 100.0))
    rows;
  (* the paper's headline comparison: Vega never loses to random on C=0 *)
  let alu_c0 =
    List.find
      (fun r -> r.Experiments.t7_unit = "ALU" && r.Experiments.t7_fm = Experiments.FM0)
      rows
  in
  Alcotest.(check bool) "vega >= random on ALU C0" true
    (alu_c0.Experiments.vega_pct >= alu_c0.Experiments.random_pct)

let test_fig9 () =
  let rows = Experiments.fig9 ctx in
  Alcotest.(check int) "all benchmarks" (List.length Workload.all) (List.length rows);
  let mean_n, mean_m = Experiments.fig9_mean_overheads rows in
  Alcotest.(check bool) "mean overhead small" true (mean_n < 5.0 && mean_m < 5.0);
  List.iter
    (fun r ->
      Alcotest.(check bool) "overhead nonnegative" true
        (r.Experiments.overhead_without_pct >= 0.0))
    rows

(* ---- adversarial wearout campaign ---- *)

let quick_attack = Experiments.quick_attack_campaign

(* The campaign is the expensive fixture; run it once and share it. *)
let attack_report = lazy (Experiments.attack_campaign ~config:quick_attack ())

let test_attack_campaign () =
  let report = Lazy.force attack_report in
  let c = report.Experiments.ap_corner in
  (* the headline: the attacked corner violates strictly earlier *)
  (match (c.Experiments.ac_ttv_attack, c.Experiments.ac_acceleration) with
  | None, _ -> Alcotest.fail "attack corner never reaches a violating corner"
  | Some _, Some a -> Alcotest.(check bool) "acceleration factor > 1" true (a > 1.0)
  | Some _, None -> () (* nominal clean at the horizon: unbounded acceleration *));
  Alcotest.(check bool) "attacked duty above baseline" true
    (c.Experiments.ac_attacked_obj >= c.Experiments.ac_baseline_obj);
  Alcotest.(check bool) "canaries inserted" true (report.Experiments.ap_canaries <> []);
  let s = Experiments.attack_summary report.Experiments.ap_rows in
  Alcotest.(check bool) "one row per mode and pair" true
    (s.Experiments.as_unguarded_rows >= 1
    && s.Experiments.as_sw_rows = s.Experiments.as_unguarded_rows
    && s.Experiments.as_canary_rows = s.Experiments.as_unguarded_rows);
  Alcotest.(check int) "every canary-guarded run detects" s.Experiments.as_canary_rows
    s.Experiments.as_canary_detected;
  Alcotest.(check int) "no canary-guarded escape" 0 s.Experiments.as_canary_escapes;
  (* the second channel: at equal overhead budget, never slower than the
     software-only schedule on any measured pair *)
  Alcotest.(check bool) "latency measured on at least one pair" true
    (s.Experiments.as_latency_pairs >= 1);
  Alcotest.(check int) "canary latency <= software latency on every pair"
    s.Experiments.as_latency_pairs s.Experiments.as_canary_wins

let test_attack_campaign_deterministic () =
  let r1 = Lazy.force attack_report in
  let r2 = Experiments.attack_campaign ~config:quick_attack () in
  Alcotest.(check string) "renders identically"
    (Experiments.render_attack_campaign r1)
    (Experiments.render_attack_campaign r2)

let test_attack_digest () =
  let d = Experiments.attack_campaign_digest in
  let base = quick_attack in
  Alcotest.(check string) "digest is stable" (d base) (d base);
  let differs label config =
    Alcotest.(check bool) label true (d base <> d config)
  in
  differs "search seed changes digest"
    {
      base with
      Experiments.ak_attack = { base.Experiments.ak_attack with Attack.atk_seed = 1 };
    };
  differs "target-cell set changes digest" { base with Experiments.ak_cells = [ "_mux2_1" ] };
  differs "corner horizon changes digest" { base with Experiments.ak_years_max = 20.0 };
  differs "canary guardband changes digest" { base with Experiments.ak_canary_pessimism = 1.5 };
  differs "poll cadence changes digest" { base with Experiments.ak_canary_poll = 10 }

let fresh_dir () =
  let f = Filename.temp_file "vega-attack-campaign" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_attack_campaign_resume () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let digest = Experiments.attack_campaign_digest quick_attack in
      let open_ck resume =
        match Resilience.Checkpoint.open_sharded ~resume ~dir ~digest ~shards:1 () with
        | Ok ck -> ck
        | Error msg -> Alcotest.failf "checkpoint open failed: %s" msg
      in
      let r1 = Experiments.attack_campaign ~config:quick_attack ~checkpoint:(open_ck false) () in
      (* a resumed run restores every item and reports identically *)
      let r2 = Experiments.attack_campaign ~config:quick_attack ~checkpoint:(open_ck true) () in
      Alcotest.(check string) "resumed render identical"
        (Experiments.render_attack_campaign r1)
        (Experiments.render_attack_campaign r2);
      (* a mismatched configuration must be refused as stale *)
      let stale =
        Experiments.attack_campaign_digest { quick_attack with Experiments.ak_canary_poll = 10 }
      in
      match Resilience.Checkpoint.open_sharded ~resume:true ~dir ~digest:stale ~shards:1 () with
      | Ok _ -> Alcotest.fail "stale attack-campaign checkpoint accepted"
      | Error _ -> ())

(* Both campaigns checkpoint their items as [campaign_row] JSON: one row of
   every mode must decode back to itself, directly and through the text a
   checkpoint file holds. *)
let test_campaign_row_codec () =
  let guard_rows = Experiments.campaign ~config:Experiments.quick_campaign () in
  let attack_rows = (Lazy.force attack_report).Experiments.ap_rows in
  let first_per_mode =
    List.fold_left
      (fun acc (r : Experiments.campaign_row) ->
        if List.mem_assoc r.Experiments.cr_mode acc then acc else (r.Experiments.cr_mode, r) :: acc)
      [] (guard_rows @ attack_rows)
    |> List.rev
  in
  Alcotest.(check (list string))
    "one row per mode of both campaigns"
    [ "unguarded"; "abort"; "failover"; "rollback"; "sw-only"; "sw+canary" ]
    (List.map fst first_per_mode);
  let rows = List.map snd first_per_mode in
  Alcotest.(check bool) "an unguarded row without latency" true
    (List.exists (fun r -> r.Experiments.cr_latency = None) rows);
  Alcotest.(check bool) "a row with canary polls" true
    (List.exists (fun r -> r.Experiments.cr_polls > 0) rows);
  List.iter
    (fun (r : Experiments.campaign_row) ->
      let j = Experiments.campaign_row_to_json r in
      Alcotest.(check bool) (r.Experiments.cr_mode ^ " row round-trips") true
        (Experiments.campaign_row_of_json j = Ok r);
      Alcotest.(check bool) (r.Experiments.cr_mode ^ " row round-trips as text") true
        (Result.bind (Json.of_string (Json.to_string j)) Experiments.campaign_row_of_json = Ok r))
    rows

(* A resume after a full fleet run restores every device, the clock and
   the deployed suite: it reports the same rows and runs neither phase 1
   nor an SP profile. *)
let test_fleet_full_resume () =
  let config =
    { Experiments.quick_fleet with Experiments.fd_devices = 4; fd_specs = 1; fd_year_steps = 4 }
  in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let open_ck resume =
        match
          Resilience.Checkpoint.open_sharded ~resume ~dir ~digest:(Experiments.fleet_digest config)
            ~shards:1 ()
        with
        | Ok ck -> ck
        | Error msg -> Alcotest.failf "checkpoint open failed: %s" msg
      in
      let full = Experiments.fleet_campaign ~config ~checkpoint:(open_ck false) () in
      Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
      let resumed =
        Fun.protect ~finally:Telemetry.disable (fun () ->
            Experiments.fleet_campaign ~config ~checkpoint:(open_ck true) ())
      in
      let spans =
        List.map (fun (name, _, _) -> name) (Telemetry.span_totals (Telemetry.snapshot ()))
      in
      Alcotest.(check string) "resumed rows identical" (Experiments.render_fleet full)
        (Experiments.render_fleet resumed);
      Alcotest.(check (list string)) "no phase 1, no SP profile, no device run" []
        (List.filter
           (fun n ->
             List.mem n [ "vega.phase1"; "fleet_campaign.profiles"; "sta.pairs"; "fleet.item" ])
           spans))

let () =
  Alcotest.run "experiments"
    [
      ( "drivers",
        [
          Alcotest.test_case "fig8" `Quick test_fig8;
          Alcotest.test_case "table3" `Quick test_table3;
          Alcotest.test_case "table4" `Quick test_table4;
          Alcotest.test_case "table5" `Quick test_table5;
          Alcotest.test_case "table6" `Quick test_table6;
          Alcotest.test_case "table7" `Quick test_table7;
          Alcotest.test_case "fig9" `Quick test_fig9;
        ] );
      ( "attack campaign",
        [
          Alcotest.test_case "acceleration and canary channel" `Quick test_attack_campaign;
          Alcotest.test_case "deterministic" `Quick test_attack_campaign_deterministic;
          Alcotest.test_case "digest commits to cells, seed, corner" `Quick test_attack_digest;
          Alcotest.test_case "checkpoint resume and staleness" `Quick test_attack_campaign_resume;
          Alcotest.test_case "row codec round-trips every mode" `Quick test_campaign_row_codec;
        ] );
      ( "fleet campaign",
        [ Alcotest.test_case "full resume skips phase 1" `Quick test_fleet_full_resume ] );
    ]
