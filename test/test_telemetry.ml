(* Tests for the telemetry layer: clock sources, span forest
   well-formedness under arbitrary begin/end interleavings, merge
   algebra of counters and histograms, exporter determinism, the
   disabled-sink contract, the zero-allocation overhead regression on
   the Sim64 hot path, and the byte-exact golden Chrome traces. *)

(* Force the guard monitor into the link so its counters and histogram
   are registered: golden exports list every registered counter, and the
   CLI binary (which produced the ALU golden) links Guard via
   Experiments. *)
let _force_link_guard : Guard.Monitor.config = Guard.Monitor.default_config

let golden_path name =
  if Sys.file_exists (Filename.concat "golden" name) then Filename.concat "golden" name
  else Filename.concat (Filename.concat "test" "golden") name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ---------- clocks ---------- *)

let test_virtual_clock () =
  let c = Telemetry.Clock.virtual_ ~start_ns:100 ~step_ns:7 () in
  Alcotest.(check bool) "is_virtual" true (Telemetry.Clock.is_virtual c);
  Alcotest.(check int) "first read" 100 (Telemetry.Clock.now_ns c);
  Alcotest.(check int) "auto-advance" 107 (Telemetry.Clock.now_ns c);
  Alcotest.(check int) "again" 114 (Telemetry.Clock.now_ns c);
  Alcotest.check_raises "bad step"
    (Invalid_argument "Telemetry.Clock.virtual_: step_ns must be positive") (fun () ->
      ignore (Telemetry.Clock.virtual_ ~step_ns:0 ()))

let test_monotonic_clock () =
  let c = Telemetry.Clock.monotonic () in
  Alcotest.(check bool) "not virtual" false (Telemetry.Clock.is_virtual c);
  let prev = ref (Telemetry.Clock.now_ns c) in
  for _ = 1 to 1000 do
    let t = Telemetry.Clock.now_ns c in
    if t <= !prev then Alcotest.failf "clock not strictly increasing: %d then %d" !prev t;
    prev := t
  done

(* ---------- span forest well-formedness (QCheck) ---------- *)

(* A span forest is well-formed iff every node has start <= end, every
   child lies within its parent's interval, and siblings are ordered by
   start time.  Any interleaving of begin/end through the public API —
   including unbalanced ones — must produce a well-formed forest. *)
let rec check_span ~lo ~hi (sp : Telemetry.span) =
  if sp.Telemetry.sp_start_ns < lo then Alcotest.failf "%s starts before enclosing scope" sp.Telemetry.sp_name;
  if sp.Telemetry.sp_end_ns > hi then Alcotest.failf "%s ends after enclosing scope" sp.Telemetry.sp_name;
  if sp.Telemetry.sp_start_ns > sp.Telemetry.sp_end_ns then
    Alcotest.failf "%s has start > end" sp.Telemetry.sp_name;
  check_forest ~lo:sp.Telemetry.sp_start_ns ~hi:sp.Telemetry.sp_end_ns sp.Telemetry.sp_children

and check_forest ~lo ~hi spans =
  ignore
    (List.fold_left
       (fun prev_start (sp : Telemetry.span) ->
         if sp.Telemetry.sp_start_ns < prev_start then
           Alcotest.failf "siblings out of order at %s" sp.Telemetry.sp_name;
         check_span ~lo ~hi sp;
         sp.Telemetry.sp_start_ns)
       lo spans)

let count_spans snap =
  let rec go acc (sp : Telemetry.span) = List.fold_left go (acc + 1) sp.Telemetry.sp_children in
  List.fold_left go 0 snap.Telemetry.ss_spans

let arb_ops =
  (* true = begin, false = end; deliberately unbalanced sequences included *)
  QCheck.make
    ~print:(fun ops ->
      String.concat "" (List.map (fun b -> if b then "B" else "E") ops))
    QCheck.Gen.(list_size (int_range 0 40) bool)

let prop_forest ops =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let begins = ref 0 in
  List.iteri
    (fun i b ->
      if b then begin
        incr begins;
        Telemetry.begin_span (Printf.sprintf "s%d" i)
      end
      else Telemetry.end_span ~args:[ ("i", Telemetry.Int i) ] ())
    ops;
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  check_forest ~lo:0 ~hi:snap.Telemetry.ss_end_ns snap.Telemetry.ss_spans;
  (* every begin is accounted for: closed normally or virtually closed *)
  count_spans snap = !begins

let forest_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"any begin/end interleaving yields a well-formed forest"
       arb_ops prop_forest)

(* ---------- merge algebra (QCheck) ---------- *)

let counter_snap v = { Telemetry.Counter.c_name = "c"; c_value = v }

let prop_counter_assoc (a, b, c) =
  let open Telemetry.Counter in
  let x = merge (merge (counter_snap a) (counter_snap b)) (counter_snap c) in
  let y = merge (counter_snap a) (merge (counter_snap b) (counter_snap c)) in
  let z = merge (counter_snap b) (counter_snap a) in
  x = y && z.c_value = (merge (counter_snap a) (counter_snap b)).c_value

let counter_merge_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"counter merge is associative and commutative"
       QCheck.(triple small_nat small_nat small_nat)
       prop_counter_assoc)

let hist_bounds = [| 1; 4; 16 |]

let hist_snap counts sum =
  {
    Telemetry.Histogram.h_name = "h";
    h_bounds = hist_bounds;
    h_counts = Array.of_list counts;
    h_total = List.fold_left ( + ) 0 counts;
    h_sum = sum;
  }

let arb_hist =
  QCheck.make
    ~print:(fun (c, s) -> Printf.sprintf "counts=%s sum=%d" (String.concat "," (List.map string_of_int c)) s)
    QCheck.Gen.(
      list_repeat 4 (int_range 0 50) >>= fun counts ->
      int_range 0 1000 >>= fun sum -> return (counts, sum))

let prop_hist_assoc ((ca, sa), (cb, sb), (cc, sc)) =
  let open Telemetry.Histogram in
  let a = hist_snap ca sa and b = hist_snap cb sb and c = hist_snap cc sc in
  merge (merge a b) c = merge a (merge b c)
  && (merge a b).h_counts = (merge b a).h_counts

let hist_merge_test =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"histogram merge is associative and commutative"
       QCheck.(triple arb_hist arb_hist arb_hist)
       prop_hist_assoc)

let test_merge_mismatch () =
  Alcotest.check_raises "counter name mismatch"
    (Invalid_argument "Telemetry.Counter.merge: a vs b") (fun () ->
      ignore
        (Telemetry.Counter.merge
           { Telemetry.Counter.c_name = "a"; c_value = 1 }
           { Telemetry.Counter.c_name = "b"; c_value = 2 }))

let test_histogram_buckets () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let h = Telemetry.Histogram.make "test.buckets" ~bounds:[| 10; 20 |] in
  List.iter (Telemetry.Histogram.observe h) [ 0; 10; 11; 20; 21; 1000 ];
  let s = Telemetry.Histogram.snapshot_value h in
  Telemetry.disable ();
  (* inclusive upper bounds: 0,10 | 11,20 | 21,1000 *)
  Alcotest.(check (array int)) "bucket counts" [| 2; 2; 2 |] s.Telemetry.Histogram.h_counts;
  Alcotest.(check int) "total" 6 s.Telemetry.Histogram.h_total;
  Alcotest.(check int) "sum" 1062 s.Telemetry.Histogram.h_sum;
  Alcotest.check_raises "bounds not increasing"
    (Invalid_argument "Telemetry.Histogram.make test.bad: bounds not strictly increasing")
    (fun () -> ignore (Telemetry.Histogram.make "test.bad" ~bounds:[| 5; 5 |]))

(* ---------- sink lifecycle ---------- *)

let test_disabled_records_nothing () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  Telemetry.disable ();
  let c = Telemetry.Counter.make "test.disabled" in
  Telemetry.Counter.add c 5;
  Telemetry.begin_span "ghost";
  Telemetry.end_span ();
  Alcotest.(check int) "counter untouched" 0 (Telemetry.Counter.value c);
  Alcotest.(check int) "no open spans" 0 (Telemetry.span_depth ());
  let snap = Telemetry.snapshot () in
  Alcotest.(check int) "no spans recorded" 0 (count_spans snap)

let test_enable_resets () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let c = Telemetry.Counter.make "test.reset" in
  Telemetry.Counter.add c 3;
  Telemetry.begin_span "old";
  Telemetry.end_span ();
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  Alcotest.(check int) "counter zeroed" 0 (Telemetry.Counter.value c);
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check int) "spans cleared" 0 (count_spans snap)

let test_with_span_exception () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  (try Telemetry.with_span "boom" (fun () -> failwith "kaput") with Failure _ -> ());
  Alcotest.(check int) "span closed on raise" 0 (Telemetry.span_depth ());
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  match snap.Telemetry.ss_spans with
  | [ sp ] ->
    Alcotest.(check string) "name" "boom" sp.Telemetry.sp_name;
    Alcotest.(check bool) "exception arg attached" true
      (List.mem_assoc "exception" sp.Telemetry.sp_args)
  | l -> Alcotest.failf "expected one root span, got %d" (List.length l)

let test_stray_end_ignored () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  Telemetry.end_span ();
  Telemetry.begin_span "a";
  Telemetry.end_span ();
  Telemetry.end_span ();
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check int) "one span" 1 (count_spans snap)

(* ---------- domain safety ---------- *)

let test_concurrent_counter_bumps () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let c = Telemetry.Counter.make "test.dom.counter" in
  let h = Telemetry.Histogram.make "test.dom.hist" ~bounds:[| 10; 100 |] in
  let bumps = 100_000 in
  let worker () =
    for i = 1 to bumps do
      Telemetry.Counter.incr c;
      Telemetry.Histogram.observe h (i mod 150)
    done
  in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  (* every bump from both domains lands: no lost update, ever *)
  Alcotest.(check int) "no counter bump lost" (2 * bumps) (Telemetry.Counter.value c);
  let hs = Telemetry.Histogram.snapshot_value h in
  Alcotest.(check int) "no observation lost" (2 * bumps) hs.Telemetry.Histogram.h_total;
  Alcotest.(check int)
    "bucket counts sum to the total" (2 * bumps)
    (Array.fold_left ( + ) 0 hs.Telemetry.Histogram.h_counts);
  Telemetry.disable ();
  Telemetry.reset ()

let test_spans_are_domain_local () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  Telemetry.begin_span ~cat:"t" "coordinator";
  let d =
    Domain.spawn (fun () ->
        (* a worker's spans live in ITS forest: the coordinator's open
           span is not its parent, and its depth starts at zero *)
        let d0 = Telemetry.span_depth () in
        Telemetry.begin_span ~cat:"t" "worker";
        Telemetry.end_span ();
        (d0, Telemetry.harvest ()))
  in
  let d0, harvested = Domain.join d in
  Alcotest.(check int) "worker depth starts at 0" 0 d0;
  Alcotest.(check int) "worker span harvested" 1 (List.length harvested);
  Telemetry.absorb harvested;
  Telemetry.end_span ();
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  (match snap.Telemetry.ss_spans with
  | [ root ] ->
    Alcotest.(check string) "coordinator root" "coordinator" root.Telemetry.sp_name;
    (match root.Telemetry.sp_children with
    | [ child ] ->
      Alcotest.(check string) "absorbed under the open span" "worker" child.Telemetry.sp_name
    | l -> Alcotest.failf "expected 1 absorbed child, got %d" (List.length l))
  | l -> Alcotest.failf "expected 1 root span, got %d" (List.length l));
  Telemetry.reset ()

let test_absorb_without_open_span () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  Telemetry.begin_span ~cat:"t" "orphan";
  Telemetry.end_span ();
  let spans = Telemetry.harvest () in
  Alcotest.(check int) "harvest clears" 0 (List.length (Telemetry.harvest ()));
  Telemetry.absorb spans;
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check int) "absorbed at the roots" 1 (List.length snap.Telemetry.ss_spans);
  Telemetry.reset ()

let test_disabled_stays_cheap_across_domains () =
  (* the disabled path must stay a plain flag check from any domain *)
  Telemetry.disable ();
  let c = Telemetry.Counter.make "test.dom.disabled" in
  let d =
    Domain.spawn (fun () ->
        for _ = 1 to 1000 do
          Telemetry.Counter.incr c
        done)
  in
  Domain.join d;
  Alcotest.(check int) "disabled records nothing from workers" 0 (Telemetry.Counter.value c)

(* ---------- exporters ---------- *)

let mini_workload () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let c = Telemetry.Counter.make "test.mini" in
  Telemetry.with_span ~cat:"t" "outer" (fun () ->
      Telemetry.Counter.add c 41;
      Telemetry.with_span "inner" (fun () -> Telemetry.Counter.incr c));
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  snap

let test_export_deterministic () =
  let a = mini_workload () and b = mini_workload () in
  Alcotest.(check string) "chrome trace byte-identical" (Telemetry.Export.chrome_trace a)
    (Telemetry.Export.chrome_trace b);
  Alcotest.(check string) "jsonl byte-identical" (Telemetry.Export.jsonl a)
    (Telemetry.Export.jsonl b);
  Alcotest.(check string) "summary byte-identical" (Telemetry.Export.summary a)
    (Telemetry.Export.summary b)

let test_export_parses () =
  let snap = mini_workload () in
  (match Json.of_string (Telemetry.Export.chrome_trace snap) with
  | Ok (Json.Obj fields) ->
    (match List.assoc_opt "traceEvents" fields with
    | Some (Json.List events) ->
      Alcotest.(check bool) "has events" true (List.length events >= 3)
    | _ -> Alcotest.fail "traceEvents missing or not a list")
  | Ok _ -> Alcotest.fail "chrome trace is not an object"
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e);
  String.split_on_char '\n' (Telemetry.Export.jsonl snap)
  |> List.iter (fun line ->
         if line <> "" then
           match Json.of_string line with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "jsonl line does not parse: %s (%s)" line e)

let test_span_totals () =
  let snap = mini_workload () in
  let totals = Telemetry.span_totals snap in
  Alcotest.(check int) "two names" 2 (List.length totals);
  let name, count, total = List.hd totals in
  Alcotest.(check string) "depth-first first-seen order" "outer" name;
  Alcotest.(check int) "one occurrence" 1 count;
  Alcotest.(check bool) "positive duration" true (total > 0)

(* ---------- overhead regression: Sim64 hot path ---------- *)

(* The instrumented Sim64 settle/step/sample loops must not allocate for
   telemetry, whether the sink is on or off: a counter bump is a guarded
   int store.  Run the ALU detection sweep and compare minor-heap
   allocation with telemetry disabled vs enabled — byte-for-byte equal
   word counts, checked via the GC (CI-stable), not wall-clock. *)
let test_sim64_zero_allocation_overhead () =
  let target = Lift.alu_target ~width:8 () in
  let pr =
    Lift.lift_pair target ~start_dff:"a_q0" ~end_dff:"r_q0" ~violation:Fault.Setup_violation
  in
  let suite = Lift.suite_of_results target.Lift.kind [ pr ] in
  let faulty =
    Fault.failing_netlist target.Lift.netlist
      {
        Fault.start_dff = "a_q0";
        end_dff = "r_q0";
        kind = Fault.Setup_violation;
        constant = Fault.C0;
        activation = Fault.Any_transition;
      }
  in
  let sweep () = ignore (Sys.opaque_identity (Lift.detected_cases ~seed:7 suite faulty)) in
  let alloc_of f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  Telemetry.disable ();
  sweep ();
  (* warm-up: tables, lazy blocks *)
  let disabled1 = alloc_of sweep in
  let disabled2 = alloc_of sweep in
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let enabled = alloc_of sweep in
  Telemetry.disable ();
  Alcotest.(check (float 0.0)) "disabled sweep allocation is reproducible" disabled1 disabled2;
  Alcotest.(check (float 0.0)) "enabled sweep allocates exactly as much as disabled" disabled1
    enabled;
  (* Same regression for the compiled engine behind every machine unit:
     the Simc dispatch loop, its profile sampling and its counters must be
     equally allocation-free across a profiled machine run of the suite. *)
  let m =
    Machine.create
      ~config:{ Machine.default_config with Machine.width = 8; fmt = Fpu_format.tiny }
      ~profile_units:true ~alu:(Machine.Alu_netlist faulty) ~fpu:Machine.Fpu_functional ()
  in
  let prog = Lift.suite_program suite in
  let sweep_simc () =
    Machine.reset m;
    ignore (Sys.opaque_identity (Machine.run m prog))
  in
  sweep_simc ();
  let c_disabled1 = alloc_of sweep_simc in
  let c_disabled2 = alloc_of sweep_simc in
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let c_enabled = alloc_of sweep_simc in
  Telemetry.disable ();
  Alcotest.(check (float 0.0))
    "disabled simc run allocation is reproducible" c_disabled1 c_disabled2;
  Alcotest.(check (float 0.0))
    "enabled simc run allocates exactly as much as disabled" c_disabled1 c_enabled

(* A span costs one flag check when the sink is off: a disabled
   [with_span] allocates nothing, and the pair-STA entry points record
   nothing.  Enabled, each call is one span, and the re-timing path names
   the endpoints it re-timed. *)
let static_body () = 7

let test_disabled_span_is_one_check () =
  Telemetry.disable ();
  ignore (Telemetry.with_span ~cat:"sta" "sta.pairs" static_body);
  let before = Gc.minor_words () in
  let v = Telemetry.with_span ~cat:"sta" "sta.pairs" static_body in
  Alcotest.(check (float 0.0)) "disabled with_span allocates nothing" 0.0
    (Gc.minor_words () -. before);
  Alcotest.(check int) "body still runs" 7 v;
  let nl = Alu.netlist ~width:8 () in
  let timing = Sta.fresh_timing Cell.Library.c28 in
  let clock_period_ps = 0.9 *. Sta.critical_path_ps ~timing nl in
  let calls () =
    let pairs = Sta.endpoint_pairs ~timing ~clock_period_ps nl in
    let s, e, c, _ = List.hd (Sta.violating_pairs ~timing ~clock_period_ps nl) in
    ignore (Sta.pair_path ~timing ~clock_period_ps nl s e c);
    ignore (Sta.retime_pairs ~parent:(nl, timing, pairs) ~timing ~clock_period_ps nl)
  in
  calls ();
  Alcotest.(check int) "disabled: no spans" 0 (count_spans (Telemetry.snapshot ()));
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  calls ();
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Alcotest.(check (list (pair string int)))
    "one span per call"
    [ ("sta.pairs", 3); ("sta.pair_path", 1) ]
    (List.map (fun (name, n, _) -> (name, n)) (Telemetry.span_totals snap));
  let retimed =
    List.filter_map
      (fun (sp : Telemetry.span) -> List.assoc_opt "endpoints_retimed" sp.Telemetry.sp_args)
      snap.Telemetry.ss_spans
  in
  Alcotest.(check bool) "the re-timing sweep names its endpoints" true
    (retimed = [ Telemetry.Int 0 ])

(* ---------- golden Chrome traces ---------- *)

(* The ALU golden is the byte-exact --trace output of
     vega_cli lift --unit alu --width 8 --margin 1.0 --virtual-clock
   (phase 1 + supervised phase 2).  Running the CLI itself pins the
   acceptance path: the golden in git, this test, and the CI trace job
   all see identical bytes. *)
let cli_path () =
  let candidates =
    [
      Filename.concat (Filename.concat ".." "bin") "vega_cli.exe";
      Filename.concat (Filename.concat (Filename.concat "_build" "default") "bin") "vega_cli.exe";
    ]
  in
  List.find_opt Sys.file_exists candidates

let test_golden_trace_alu () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli ->
    let tmp = Filename.temp_file "vega_trace" ".json" in
    let cmd =
      Printf.sprintf "%s lift --unit alu --width 8 --margin 1.0 --virtual-clock --trace %s > %s 2> %s"
        (Filename.quote cli) (Filename.quote tmp) Filename.null Filename.null
    in
    let rc = Sys.command cmd in
    Alcotest.(check int) "vega_cli lift exits 0" 0 rc;
    let got = read_file tmp in
    Sys.remove tmp;
    let expected = read_file (golden_path "trace_alu.json") in
    Alcotest.(check string) "ALU lift trace matches golden byte-for-byte" expected got

(* The FPU golden covers the phase-1-only path (aging_analysis) in
   process, exercising the vega.* spans and the simc.* counters. *)
let fpu_phase1_trace () =
  Telemetry.enable ~clock:(Telemetry.Clock.virtual_ ()) ();
  let target = Lift.fpu_target () in
  let _a =
    Vega.aging_analysis
      ~config:{ Vega.default_phase1 with Vega.clock_margin = 1.0 }
      target ~workload:Vega.run_minver_workload
  in
  let snap = Telemetry.snapshot () in
  Telemetry.disable ();
  Telemetry.Export.chrome_trace snap

let test_golden_trace_fpu () =
  let got = fpu_phase1_trace () in
  let expected = read_file (golden_path "trace_fpu.json") in
  Alcotest.(check string) "FPU phase-1 trace matches golden byte-for-byte" expected got

let () =
  Alcotest.run "telemetry"
    [
      ( "clock",
        [
          Alcotest.test_case "virtual" `Quick test_virtual_clock;
          Alcotest.test_case "monotonic" `Quick test_monotonic_clock;
        ] );
      ("spans", [ forest_test ]);
      ( "merge",
        [
          counter_merge_test;
          hist_merge_test;
          Alcotest.test_case "name mismatch" `Quick test_merge_mismatch;
          Alcotest.test_case "bucketing" `Quick test_histogram_buckets;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "enable resets" `Quick test_enable_resets;
          Alcotest.test_case "with_span survives exceptions" `Quick test_with_span_exception;
          Alcotest.test_case "stray end ignored" `Quick test_stray_end_ignored;
        ] );
      ( "domains",
        [
          Alcotest.test_case "concurrent bumps never lost" `Quick test_concurrent_counter_bumps;
          Alcotest.test_case "spans are domain-local, harvest/absorb transfers" `Quick
            test_spans_are_domain_local;
          Alcotest.test_case "absorb lands at the roots when nothing is open" `Quick
            test_absorb_without_open_span;
          Alcotest.test_case "disabled sink ignores worker bumps" `Quick
            test_disabled_stays_cheap_across_domains;
        ] );
      ( "export",
        [
          Alcotest.test_case "deterministic" `Quick test_export_deterministic;
          Alcotest.test_case "parses as JSON" `Quick test_export_parses;
          Alcotest.test_case "span totals" `Quick test_span_totals;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "sim64 hot path allocation-free" `Quick
            test_sim64_zero_allocation_overhead;
          Alcotest.test_case "disabled span is one flag check" `Quick
            test_disabled_span_is_one_check;
        ] );
      ( "golden",
        [
          Alcotest.test_case "trace_alu (via vega_cli)" `Quick test_golden_trace_alu;
          Alcotest.test_case "trace_fpu (phase 1)" `Quick test_golden_trace_fpu;
        ] );
    ]
