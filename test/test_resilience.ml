(* The resilience supervisor: budget slicing, the degradation ladder, and
   crash-safe checkpoint/resume.

   The central property mirrors the CI kill-and-resume smoke at QCheck
   granularity: a run killed at ANY item event and then resumed must render
   a byte-identical report. *)

let alu8 = Lift.alu_target ~width:8 ()

(* ---- a small fixed work list, cheap enough to supervise many times ---- *)

let tiny_items =
  List.map
    (fun (s, e) ->
      {
        Resilience.it_key = Printf.sprintf "%s~%s~setup" s e;
        it_start = s;
        it_end = e;
        it_violation = Fault.Setup_violation;
      })
    [ ("a_q0", "r_q0"); ("b_q1", "r_q2"); ("b_q0", "r_q7") ]

(* a starvation-level slice so some pairs time out formally and exercise
   both the escalation passes and the random-search ladder *)
let tiny_sup =
  {
    Resilience.sv_budget_conflicts = 1_000;
    sv_wall_clock_s = None;
    sv_slice = 2;
    sv_escalation = 2;
    sv_max_passes = 2;
    sv_ladder =
      {
        Resilience.ld_fallback = true;
        ld_suites = 2;
        ld_cases = 16;
        ld_seed = 11;
      };
  }

let tiny_run ?checkpoint ?on_item () =
  Resilience.supervised_lift ~supervisor:tiny_sup ?checkpoint ?on_item alu8 tiny_items

let tiny_digest =
  Resilience.digest_of_strings [ "test-resilience"; Resilience.netlist_digest alu8.Lift.netlist ]

let golden_render = lazy (Resilience.render_report (tiny_run ()))

let tiny_events =
  lazy
    (let n = ref 0 in
     ignore (tiny_run ~on_item:(fun _ _ -> incr n) ());
     !n)

(* ---- filesystem helpers ---- *)

let fresh_dir () =
  let f = Filename.temp_file "vega-resilience" "" in
  Sys.remove f;
  f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected checkpoint error: %s" msg

(* ---- checkpoint store behavior ---- *)

let test_stale_digest_rejected () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      ignore (ok (Resilience.Checkpoint.open_dir ~dir ~digest:"aaaa" ()));
      match Resilience.Checkpoint.open_dir ~resume:true ~dir ~digest:"bbbb" () with
      | Ok _ -> Alcotest.fail "stale digest accepted"
      | Error msg ->
        let has needle =
          let ln = String.length needle and lm = String.length msg in
          let rec at i = i + ln <= lm && (String.sub msg i ln = needle || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool) "names the stored digest" true (has "aaaa");
        Alcotest.(check bool) "names the current digest" true (has "bbbb");
        Alcotest.(check bool) "says stale" true (has "stale"))

let test_populated_needs_resume () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ck = ok (Resilience.Checkpoint.open_dir ~dir ~digest:tiny_digest ()) in
      Resilience.Checkpoint.store ck "some~item" (Json.Obj [ ("x", Json.Int 1) ]);
      (* an empty directory reopens fine without --resume *)
      (match Resilience.Checkpoint.open_dir ~resume:true ~dir ~digest:tiny_digest () with
      | Ok ck2 -> Alcotest.(check int) "item survives reopen" 1 (Resilience.Checkpoint.item_count ck2)
      | Error msg -> Alcotest.failf "resume reopen failed: %s" msg);
      match Resilience.Checkpoint.open_dir ~dir ~digest:tiny_digest () with
      | Ok _ -> Alcotest.fail "populated checkpoint accepted without resume"
      | Error _ -> ())

let test_torn_files_recovered () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ck = ok (Resilience.Checkpoint.open_dir ~dir ~digest:tiny_digest ()) in
      ignore (tiny_run ~checkpoint:ck ());
      let idir = Filename.concat dir "items" in
      let jsons =
        Sys.readdir idir |> Array.to_list
        |> List.filter (fun n -> Filename.check_suffix n ".json")
        |> List.sort compare
      in
      Alcotest.(check int) "one snapshot per item" (List.length tiny_items) (List.length jsons);
      (* truncate one completed item mid-document and leave a stale tmp, as
         a kill between write and rename would *)
      let torn = Filename.concat idir (List.hd jsons) in
      let oc = open_out_bin torn in
      output_string oc "{\"key\": \"trunc";
      close_out oc;
      let oc = open_out_bin (Filename.concat idir "half-written.json.tmp") in
      output_string oc "{";
      close_out oc;
      let ck2 = ok (Resilience.Checkpoint.open_dir ~resume:true ~dir ~digest:tiny_digest ()) in
      Alcotest.(check int)
        "torn item dropped, the rest kept"
        (List.length tiny_items - 1)
        (Resilience.Checkpoint.item_count ck2);
      Alcotest.(check bool) "stale tmp swept" false
        (Sys.file_exists (Filename.concat idir "half-written.json.tmp"));
      (* the dropped item is recomputed; the report is still byte-identical *)
      let rp = tiny_run ~checkpoint:ck2 () in
      Alcotest.(check string)
        "recomputed report identical" (Lazy.force golden_render)
        (Resilience.render_report rp))

(* ---- kill-and-resume: byte-identical at every item boundary ---- *)

let resume_after_kill_at k =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ck = ok (Resilience.Checkpoint.open_dir ~dir ~digest:tiny_digest ()) in
      (* the hook raises after item event [k] is persisted — the closest a
         test can get to `kill -9` at an item boundary *)
      (try ignore (tiny_run ~checkpoint:ck ~on_item:(fun i _ -> if i = k then raise Exit) ())
       with Exit -> ());
      let ck2 = ok (Resilience.Checkpoint.open_dir ~resume:true ~dir ~digest:tiny_digest ()) in
      let rp = tiny_run ~checkpoint:ck2 () in
      Resilience.render_report rp = Lazy.force golden_render)

let prop_resume_byte_identical =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:12 ~name:"resume after a kill at any item event is byte-identical"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound (max 0 (Lazy.force tiny_events - 1))))
       resume_after_kill_at)

let test_completed_checkpoint_is_silent () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ck = ok (Resilience.Checkpoint.open_dir ~dir ~digest:tiny_digest ()) in
      ignore (tiny_run ~checkpoint:ck ());
      let ck2 = ok (Resilience.Checkpoint.open_dir ~resume:true ~dir ~digest:tiny_digest ()) in
      let events = ref 0 in
      let rp = tiny_run ~checkpoint:ck2 ~on_item:(fun _ _ -> incr events) () in
      Alcotest.(check int) "no item recomputed" 0 !events;
      Alcotest.(check string)
        "fully-cached report identical" (Lazy.force golden_render)
        (Resilience.render_report rp))

(* ---- budget slicing and the ladder on the real ALU sweep ---- *)

let sweep =
  lazy
    (let config = { Lift.default_config with Lift.max_conflicts = 2 } in
     let analysis =
       Vega.aging_analysis
         ~config:{ Vega.default_phase1 with Vega.clock_margin = 1.0 }
         alu8 ~workload:Vega.run_minver_workload
     in
     (config, analysis, Vega.error_lifting_supervised ~config analysis))

let test_sweep_ff_covered_by_fallback () =
  let _, _, rp = Lazy.force sweep in
  let counts = Resilience.split_counts rp in
  Alcotest.(check bool) "sweep has items" true (List.length rp.Resilience.rp_items > 0);
  let covered = List.assoc Resilience.R_FF_covered counts in
  let exhausted = List.assoc Resilience.R_FF_exhausted counts in
  Alcotest.(check bool)
    (Printf.sprintf "starved sweep times out formally (covered %d, exhausted %d)" covered
       exhausted)
    true
    (covered + exhausted > 0);
  Alcotest.(check bool)
    "the ladder covers at least one formally-FF pair" true (covered >= 1)

let test_sweep_first_pass_within_slice () =
  let config, _, rp = Lazy.force sweep in
  let slice = config.Lift.max_conflicts in
  List.iter
    (fun (r : Resilience.item_report) ->
      match r.Resilience.ir_pass_conflicts with
      | [] -> Alcotest.failf "%s has no recorded pass" r.Resilience.ir_item.Resilience.it_key
      | first :: _ ->
        if first > slice then
          Alcotest.failf "%s spent %d conflicts on pass 1 (slice %d)"
            r.Resilience.ir_item.Resilience.it_key first slice)
    rp.Resilience.rp_items;
  Alcotest.(check bool)
    "total spend within the shared budget" true
    (rp.Resilience.rp_budget_spent <= rp.Resilience.rp_budget_total)

let test_sweep_deterministic () =
  let config, analysis, rp = Lazy.force sweep in
  let rp2 = Vega.error_lifting_supervised ~config analysis in
  Alcotest.(check string)
    "same seed, same report" (Resilience.render_report rp) (Resilience.render_report rp2)

let test_suite_of_report () =
  let _, _, rp = Lazy.force sweep in
  let suite = Resilience.suite_of_report alu8 rp in
  let expected =
    List.fold_left
      (fun acc (r : Resilience.item_report) ->
        acc
        + (match r.Resilience.ir_result with Some pr -> List.length pr.Lift.cases | None -> 0)
        + List.length r.Resilience.ir_fallback_cases)
      0 rp.Resilience.rp_items
  in
  Alcotest.(check int) "suite holds every produced case" expected
    (List.length suite.Lift.suite_cases);
  Alcotest.(check bool) "the supervised sweep yields executable cases" true (expected > 0)

(* ---- sharded checkpoint stores ---- *)

let contains msg needle =
  let ln = String.length needle and lm = String.length msg in
  let rec at i = i + ln <= lm && (String.sub msg i ln = needle || at (i + 1)) in
  at 0

let test_sharded_merge_across_shard_counts () =
  let dir = fresh_dir () in
  let sh = ok (Resilience.Checkpoint.open_sharded ~dir ~digest:"d1" ~shards:3 ()) in
  Alcotest.(check int) "shard count" 3 (Resilience.Checkpoint.shard_count sh);
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard sh 0) "a" (Json.Int 1);
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard sh 1) "b" (Json.Int 2);
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard sh 2) "c" (Json.Int 3);
  (* reopen with a DIFFERENT shard count: all shards on disk must merge *)
  let sh2 = ok (Resilience.Checkpoint.open_sharded ~resume:true ~dir ~digest:"d1" ~shards:1 ()) in
  Alcotest.(check int) "merged items" 3 (Resilience.Checkpoint.sharded_item_count sh2);
  Alcotest.(check (list string))
    "merged keys" [ "a"; "b"; "c" ]
    (Resilience.Checkpoint.sharded_keys sh2);
  (match Resilience.Checkpoint.sharded_load sh2 "b" with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "shard-1 item lost in the merged view");
  (* ascending shard order wins on a duplicated key *)
  let dup = fresh_dir () in
  let shd = ok (Resilience.Checkpoint.open_sharded ~dir:dup ~digest:"d1" ~shards:2 ()) in
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard shd 0) "k" (Json.Int 10);
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard shd 1) "k" (Json.Int 20);
  let shd2 =
    ok (Resilience.Checkpoint.open_sharded ~resume:true ~dir:dup ~digest:"d1" ~shards:2 ())
  in
  (match Resilience.Checkpoint.sharded_load shd2 "k" with
  | Some (Json.Int 10) -> ()
  | _ -> Alcotest.fail "duplicate key must resolve to the lowest shard");
  rm_rf dir;
  rm_rf dup

let test_sharded_torn_tmp_swept () =
  let dir = fresh_dir () in
  let sh = ok (Resilience.Checkpoint.open_sharded ~dir ~digest:"d1" ~shards:2 ()) in
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard sh 1) "x" (Json.Int 7);
  (* simulate a crash mid-write inside a shard subdirectory *)
  let torn = Filename.concat (Filename.concat dir "shard-1") "items" in
  let tmp = Filename.concat torn "garbage.json.tmp" in
  let oc = open_out tmp in
  output_string oc "{ torn";
  close_out oc;
  let sh2 = ok (Resilience.Checkpoint.open_sharded ~resume:true ~dir ~digest:"d1" ~shards:2 ()) in
  Alcotest.(check bool) "tmp swept on open" false (Sys.file_exists tmp);
  Alcotest.(check int) "real item survives" 1 (Resilience.Checkpoint.sharded_item_count sh2);
  rm_rf dir

let test_sharded_stale_shard_refused () =
  let dir = fresh_dir () in
  let sh = ok (Resilience.Checkpoint.open_sharded ~dir ~digest:"good" ~shards:2 ()) in
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard sh 0) "x" (Json.Int 1);
  (* rewrite ONE shard's meta with a different digest: the whole resume
     must refuse, even though the root meta still matches *)
  let meta = Filename.concat (Filename.concat dir "shard-1") "meta.json" in
  let oc = open_out meta in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("format", Json.String "vega-checkpoint");
            ("version", Json.Int 1);
            ("digest", Json.String "evil");
          ]));
  close_out oc;
  (match Resilience.Checkpoint.open_sharded ~resume:true ~dir ~digest:"good" ~shards:2 () with
  | Ok _ -> Alcotest.fail "stale shard digest must refuse the resume"
  | Error msg ->
    let has s = contains msg s in
    Alcotest.(check bool) "names stale" true (has "stale");
    Alcotest.(check bool) "names both digests" true (has "good" && has "evil"));
  rm_rf dir

let test_sharded_populated_needs_resume () =
  let dir = fresh_dir () in
  let sh = ok (Resilience.Checkpoint.open_sharded ~dir ~digest:"d1" ~shards:2 ()) in
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard sh 0) "x" (Json.Int 1);
  Resilience.Checkpoint.store (Resilience.Checkpoint.shard sh 1) "y" (Json.Int 2);
  (match Resilience.Checkpoint.open_sharded ~dir ~digest:"d1" ~shards:2 () with
  | Ok _ -> Alcotest.fail "populated sharded store must demand --resume"
  | Error msg ->
    Alcotest.(check bool) "mentions --resume" true (contains msg "--resume");
    Alcotest.(check bool)
      "counts items across shards" true
      (contains msg "2 completed item(s) across 2 shard(s)"));
  rm_rf dir

let () =
  Alcotest.run "resilience"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "stale digest rejected readably" `Quick test_stale_digest_rejected;
          Alcotest.test_case "populated dir needs --resume" `Quick test_populated_needs_resume;
          Alcotest.test_case "torn items and stale tmps recovered" `Quick
            test_torn_files_recovered;
        ] );
      ( "resume",
        [
          prop_resume_byte_identical;
          Alcotest.test_case "completed checkpoint replays silently" `Quick
            test_completed_checkpoint_is_silent;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "shards merge across differing shard counts" `Quick
            test_sharded_merge_across_shard_counts;
          Alcotest.test_case "torn tmp inside a shard swept" `Quick test_sharded_torn_tmp_swept;
          Alcotest.test_case "one stale shard refuses the whole resume" `Quick
            test_sharded_stale_shard_refused;
          Alcotest.test_case "populated sharded store needs --resume" `Quick
            test_sharded_populated_needs_resume;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "ALU sweep: ladder covers a formally-FF pair" `Slow
            test_sweep_ff_covered_by_fallback;
          Alcotest.test_case "ALU sweep: first pass never exceeds its slice" `Slow
            test_sweep_first_pass_within_slice;
          Alcotest.test_case "ALU sweep: deterministic per seed" `Slow test_sweep_deterministic;
          Alcotest.test_case "suite_of_report collects formal + fallback cases" `Slow
            test_suite_of_report;
        ] );
    ]
