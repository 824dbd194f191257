module Budget = struct
  type t = { total : int; mutable spent : int; deadline : float option }

  let create ?wall_clock_s ~conflicts () =
    {
      total = conflicts;
      spent = 0;
      deadline = Option.map (fun s -> Unix.gettimeofday () +. s) wall_clock_s;
    }

  let total t = t.total
  let spent t = t.spent
  let remaining t = max 0 (t.total - t.spent)
  let charge t n = t.spent <- t.spent + n

  let deadline_passed t =
    match t.deadline with None -> false | Some d -> Unix.gettimeofday () > d
end

let digest_of_strings parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
let netlist_digest nl = Digest.to_hex (Digest.string (Netlist.to_verilog nl))

(* ---- checkpoint store ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc content;
  close_out oc;
  Sys.rename tmp path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

module Checkpoint = struct
  type t = { dir : string; digest : string; items : (string, Json.t) Hashtbl.t }

  let checkpoint_format = "vega-checkpoint"
  let checkpoint_version = 1
  let meta_file dir = Filename.concat dir "meta.json"
  let items_dir dir = Filename.concat dir "items"

  (* item files are named after a sanitized key plus a short hash, but the
     authoritative key is the one embedded in the document *)
  let file_of_key key =
    let sane =
      String.map
        (fun c ->
          match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c | _ -> '_')
        key
    in
    Printf.sprintf "%s-%s.json" sane (String.sub (Digest.to_hex (Digest.string key)) 0 8)

  let meta_json digest =
    Json.Obj
      [
        ("format", Json.String checkpoint_format);
        ("version", Json.Int checkpoint_version);
        ("digest", Json.String digest);
      ]

  let check_meta ~dir ~digest j =
    let open Json in
    let* fmt = Result.bind (member "format" j) to_str in
    let* version = Result.bind (member "version" j) to_int in
    let* found = Result.bind (member "digest" j) to_str in
    if fmt <> checkpoint_format then
      Error (Printf.sprintf "%s is not a vega checkpoint (format %S)" dir fmt)
    else if version <> checkpoint_version then
      Error
        (Printf.sprintf "checkpoint %s has unsupported version %d (expected %d)" dir version
           checkpoint_version)
    else if found <> digest then
      Error
        (Printf.sprintf
           "stale checkpoint: %s was written for configuration digest %s, but the current run \
            digests to %s — resume with the original configuration or remove the directory"
           dir found digest)
    else Ok ()

  let scan_items dir tbl =
    let idir = items_dir dir in
    Array.iter
      (fun name ->
        let path = Filename.concat idir name in
        if Filename.check_suffix name ".tmp" then
          (* a write the crash interrupted: the rename never happened, so
             the item it belonged to was not completed — drop it *)
          Sys.remove path
        else if Filename.check_suffix name ".json" then begin
          let parsed =
            let open Json in
            let* j = Json.of_string (read_file path) in
            let* key = Result.bind (member "key" j) to_str in
            let* data = member "data" j in
            Ok (key, data)
          in
          match parsed with
          | Ok (key, data) -> Hashtbl.replace tbl key data
          | Error _ -> Sys.remove path (* truncated or foreign: recompute *)
        end)
      (Sys.readdir idir)

  let open_dir ?(resume = false) ~dir ~digest () =
    let items = Hashtbl.create 64 in
    let fresh () =
      mkdir_p (items_dir dir);
      write_atomic (meta_file dir) (Json.to_string (meta_json digest));
      Ok { dir; digest; items }
    in
    if not (Sys.file_exists (meta_file dir)) then fresh ()
    else
      let open Json in
      let* meta = Json.of_string (read_file (meta_file dir)) in
      let* () = check_meta ~dir ~digest meta in
      scan_items dir items;
      if (not resume) && Hashtbl.length items > 0 then
        Error
          (Printf.sprintf
             "checkpoint %s already holds %d completed item(s); pass --resume to continue it or \
              remove the directory"
             dir (Hashtbl.length items))
      else Ok { dir; digest; items }

  let dir t = t.dir
  let digest t = t.digest
  let load t key = Hashtbl.find_opt t.items key

  let store t key data =
    let doc = Json.Obj [ ("key", Json.String key); ("data", data) ] in
    write_atomic (Filename.concat (items_dir t.dir) (file_of_key key)) (Json.to_string doc);
    Hashtbl.replace t.items key data

  let keys t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.items [])
  let item_count t = Hashtbl.length t.items

  (* ---- per-domain shards ---- *)

  type sharded = {
    sh_dir : string;
    sh_digest : string;
    sh_shards : t array;
    sh_merged : (string, Json.t) Hashtbl.t; (* read-only after open *)
  }

  let shard_path root k = Filename.concat root (Printf.sprintf "shard-%d" k)

  let shard_index name =
    let prefix = "shard-" in
    let pl = String.length prefix in
    if String.length name > pl && String.sub name 0 pl = prefix then
      int_of_string_opt (String.sub name pl (String.length name - pl))
    else None

  let open_sharded ?(resume = false) ~dir ~digest ~shards () =
    if shards < 1 then invalid_arg "Checkpoint.open_sharded: shards must be >= 1";
    let open Json in
    let fresh = not (Sys.file_exists (meta_file dir)) in
    let* () =
      if fresh then begin
        mkdir_p dir;
        write_atomic (meta_file dir) (Json.to_string (meta_json digest));
        Ok ()
      end
      else
        let* meta = Json.of_string (read_file (meta_file dir)) in
        check_meta ~dir ~digest meta
    in
    (* Open every shard already on disk, whatever its index: a run killed
       at --domains 4 must be resumable at --domains 1 and vice versa.
       Going through [open_dir] re-runs the torn-tmp sweep and the
       stale-digest check inside each shard subdirectory, so one stale
       shard poisons the whole open. *)
    let existing =
      if fresh then []
      else
        Sys.readdir dir |> Array.to_list |> List.filter_map shard_index |> List.sort compare
    in
    let* opened =
      List.fold_left
        (fun acc k ->
          let* acc = acc in
          let* ck = open_dir ~resume:true ~dir:(shard_path dir k) ~digest () in
          Ok ((k, ck) :: acc))
        (Ok []) existing
    in
    let opened = List.rev opened in
    let total = List.fold_left (fun n (_, ck) -> n + item_count ck) 0 opened in
    if (not resume) && total > 0 then
      Error
        (Printf.sprintf
           "checkpoint %s already holds %d completed item(s) across %d shard(s); pass --resume \
            to continue it or remove the directory"
           dir total (List.length opened))
    else begin
      (* merge in ascending shard order; the first shard holding a key
         wins (duplicates only arise from a straggler re-dispatch racing
         a kill, and both copies are outputs of the same pure function,
         so the tie-break only needs to be deterministic) *)
      let merged = Hashtbl.create 64 in
      List.iter
        (fun (_, ck) ->
          List.iter
            (fun key ->
              if not (Hashtbl.mem merged key) then
                match load ck key with
                | Some data -> Hashtbl.replace merged key data
                | None -> ())
            (keys ck))
        opened;
      let* rev_shards =
        List.fold_left
          (fun acc k ->
            let* acc = acc in
            let* ck =
              match List.assoc_opt k opened with
              | Some ck -> Ok ck
              | None -> open_dir ~resume:true ~dir:(shard_path dir k) ~digest ()
            in
            Ok (ck :: acc))
          (Ok [])
          (List.init shards (fun k -> k))
      in
      Ok
        {
          sh_dir = dir;
          sh_digest = digest;
          sh_shards = Array.of_list (List.rev rev_shards);
          sh_merged = merged;
        }
    end

  let shard sh k = sh.sh_shards.(k)
  let shard_count sh = Array.length sh.sh_shards
  let sharded_dir sh = sh.sh_dir
  let sharded_digest sh = sh.sh_digest
  let sharded_load sh key = Hashtbl.find_opt sh.sh_merged key

  let sharded_keys sh =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) sh.sh_merged [])

  let sharded_item_count sh = Hashtbl.length sh.sh_merged
end

(* ---- supervisor ---- *)

type outcome = Proved | Found_by_fallback | Exhausted | Failed of string

let outcome_name = function
  | Proved -> "proved"
  | Found_by_fallback -> "fallback"
  | Exhausted -> "exhausted"
  | Failed _ -> "failed"

type ladder = {
  ld_fallback : bool;
  ld_suites : int;
  ld_cases : int;
  ld_seed : int;
}

let default_ladder =
  { ld_fallback = true; ld_suites = 4; ld_cases = 32; ld_seed = 0 }

type supervisor = {
  sv_budget_conflicts : int;
  sv_wall_clock_s : float option;
  sv_slice : int;
  sv_escalation : int;
  sv_max_passes : int;
  sv_ladder : ladder;
}

let default_supervisor ?(pairs = 1) (config : Lift.config) =
  {
    sv_budget_conflicts = config.Lift.max_conflicts * max 1 pairs;
    sv_wall_clock_s = None;
    sv_slice = config.Lift.max_conflicts;
    sv_escalation = 4;
    sv_max_passes = 3;
    sv_ladder = default_ladder;
  }

type item = {
  it_key : string;
  it_start : string;
  it_end : string;
  it_violation : Fault.violation_kind;
}

let items_of_pairs nl pairs =
  List.map
    (fun (it_start, it_end, it_violation) ->
      {
        it_key = Printf.sprintf "%s~%s~%s" it_start it_end (Serial.violation_name it_violation);
        it_start;
        it_end;
        it_violation;
      })
    (Lift.register_pairs nl pairs)

type item_report = {
  ir_item : item;
  ir_outcome : outcome;
  ir_result : Lift.pair_result option;
  ir_fallback_cases : Lift.test_case list;
  ir_passes : int;
  ir_pass_conflicts : int list;
  ir_conflicts : int;
  ir_bounds : (Fault.spec * int) list;
}

type report = {
  rp_items : item_report list;
  rp_budget_total : int;
  rp_budget_spent : int;
  rp_escalations : int;
}

(* intermediate state of an item still in the formal ladder *)
type parked = {
  pk_passes : int;
  pk_pass_conflicts : int list;
  pk_conflicts : int;
  pk_bounds : (Fault.spec * int) list;
  pk_result : Lift.pair_result option;
}

type state = Done of item_report | Parked of parked

let zero_parked =
  { pk_passes = 0; pk_pass_conflicts = []; pk_conflicts = 0; pk_bounds = []; pk_result = None }

let report_of_parked it p =
  {
    ir_item = it;
    ir_outcome = Exhausted;
    ir_result = p.pk_result;
    ir_fallback_cases = [];
    ir_passes = p.pk_passes;
    ir_pass_conflicts = p.pk_pass_conflicts;
    ir_conflicts = p.pk_conflicts;
    ir_bounds = p.pk_bounds;
  }

(* ---- state codecs (the per-item checkpoint schema) ---- *)

let bounds_to_json bounds =
  Json.List
    (List.map
       (fun (s, b) -> Json.Obj [ ("spec", Serial.spec_to_json s); ("bound", Json.Int b) ])
       bounds)

let bounds_of_json j =
  let open Json in
  let* l = to_list j in
  map_m
    (fun e ->
      let* spec = Result.bind (member "spec" e) Serial.spec_of_json in
      let* bound = Result.bind (member "bound" e) to_int in
      Ok (spec, bound))
    l

let result_opt_to_json = function
  | None -> Json.Null
  | Some pr -> Serial.pair_result_to_json pr

let result_opt_of_json = function
  | Json.Null -> Ok None
  | j -> Result.map Option.some (Serial.pair_result_of_json j)

let item_report_to_json r =
  Json.Obj
    [
      ("state", Json.String "done");
      ("outcome", Json.String (outcome_name r.ir_outcome));
      ("error", match r.ir_outcome with Failed e -> Json.String e | _ -> Json.Null);
      ("result", result_opt_to_json r.ir_result);
      ("fallback_cases", Json.List (List.map Serial.case_to_json r.ir_fallback_cases));
      ("passes", Json.Int r.ir_passes);
      ("pass_conflicts", Json.List (List.map (fun c -> Json.Int c) r.ir_pass_conflicts));
      ("conflicts", Json.Int r.ir_conflicts);
      ("bounds", bounds_to_json r.ir_bounds);
    ]

let item_report_of_json ~item j =
  let open Json in
  let* outcome_s = Result.bind (member "outcome" j) to_str in
  let* error = member "error" j in
  let* ir_outcome =
    match (outcome_s, error) with
    | "proved", _ -> Ok Proved
    | "fallback", _ -> Ok Found_by_fallback
    | "exhausted", _ -> Ok Exhausted
    | "failed", String e -> Ok (Failed e)
    | "failed", _ -> Ok (Failed "unknown error")
    | o, _ -> Error (Printf.sprintf "bad outcome %S" o)
  in
  let* ir_result = Result.bind (member "result" j) result_opt_of_json in
  let* fb = Result.bind (member "fallback_cases" j) to_list in
  let* ir_fallback_cases = map_m Serial.case_of_json fb in
  let* ir_passes = Result.bind (member "passes" j) to_int in
  let* pc = Result.bind (member "pass_conflicts" j) to_list in
  let* ir_pass_conflicts = map_m to_int pc in
  let* ir_conflicts = Result.bind (member "conflicts" j) to_int in
  let* ir_bounds = Result.bind (member "bounds" j) bounds_of_json in
  Ok
    {
      ir_item = item;
      ir_outcome;
      ir_result;
      ir_fallback_cases;
      ir_passes;
      ir_pass_conflicts;
      ir_conflicts;
      ir_bounds;
    }

let parked_to_json p =
  Json.Obj
    [
      ("state", Json.String "parked");
      ("result", result_opt_to_json p.pk_result);
      ("passes", Json.Int p.pk_passes);
      ("pass_conflicts", Json.List (List.map (fun c -> Json.Int c) p.pk_pass_conflicts));
      ("conflicts", Json.Int p.pk_conflicts);
      ("bounds", bounds_to_json p.pk_bounds);
    ]

let parked_of_json j =
  let open Json in
  let* pk_result = Result.bind (member "result" j) result_opt_of_json in
  let* pk_passes = Result.bind (member "passes" j) to_int in
  let* pc = Result.bind (member "pass_conflicts" j) to_list in
  let* pk_pass_conflicts = map_m to_int pc in
  let* pk_conflicts = Result.bind (member "conflicts" j) to_int in
  let* pk_bounds = Result.bind (member "bounds" j) bounds_of_json in
  Ok { pk_result; pk_passes; pk_pass_conflicts; pk_conflicts; pk_bounds }

let state_to_json = function Done r -> item_report_to_json r | Parked p -> parked_to_json p

let state_of_json ~item j =
  let open Json in
  let* s = Result.bind (member "state" j) to_str in
  match s with
  | "done" -> Result.map (fun r -> Done r) (item_report_of_json ~item j)
  | "parked" -> Result.map (fun p -> Parked p) (parked_of_json j)
  | s -> Error (Printf.sprintf "bad item state %S" s)

let state_conflicts = function Done r -> r.ir_conflicts | Parked p -> p.pk_conflicts

(* ---- the supervised run ---- *)

let rec pow b e = if e <= 0 then 1 else b * pow b (e - 1)

let tele_budget_spent = Telemetry.Counter.make "resilience.budget_spent"

let tele_pair_conflicts =
  Telemetry.Histogram.make "resilience.pair_conflicts"
    ~bounds:[| 0; 2; 8; 32; 128; 512; 2048; 8192; 32768 |]

let supervised_lift ?(config = Lift.default_config) ?supervisor ?checkpoint
    ?(on_item = fun _ _ -> ()) (target : Lift.target) items =
  let tele = Telemetry.enabled () in
  if tele then Telemetry.begin_span ~cat:"resilience" "resilience.supervised_lift";
  let n = List.length items in
  let sup = match supervisor with Some s -> s | None -> default_supervisor ~pairs:n config in
  let budget =
    Budget.create ?wall_clock_s:sup.sv_wall_clock_s ~conflicts:sup.sv_budget_conflicts ()
  in
  let states : (string, state) Hashtbl.t = Hashtbl.create 64 in
  (* replay checkpointed state, re-charging the budget with what those
     items already spent so a resumed run sees the same remaining budget
     the killed run saw *)
  (match checkpoint with
  | None -> ()
  | Some ck ->
    List.iter
      (fun it ->
        match Checkpoint.load ck it.it_key with
        | None -> ()
        | Some j -> (
          match state_of_json ~item:it j with
          | Ok st ->
            Hashtbl.replace states it.it_key st;
            Budget.charge budget (state_conflicts st)
          | Error _ -> ()))
      items);
  let event = ref 0 in
  let record it st =
    Hashtbl.replace states it.it_key st;
    (match checkpoint with None -> () | Some ck -> Checkpoint.store ck it.it_key (state_to_json st));
    let r = match st with Done r -> r | Parked p -> report_of_parked it p in
    on_item !event r;
    incr event
  in
  let rec run_pass it (prev : parked) ~slice ~pass =
    if tele then Telemetry.begin_span ~cat:"resilience" "resilience.item";
    let st =
      match
        Lift.lift_pair_stats ~config ~budget:slice ~resume:prev.pk_bounds target
          ~start_dff:it.it_start ~end_dff:it.it_end ~violation:it.it_violation
      with
      | exception e ->
        Done
          {
            ir_item = it;
            ir_outcome = Failed (Printexc.to_string e);
            ir_result = None;
            ir_fallback_cases = [];
            ir_passes = pass;
            ir_pass_conflicts = prev.pk_pass_conflicts @ [ 0 ];
            ir_conflicts = prev.pk_conflicts;
            ir_bounds = prev.pk_bounds;
          }
      | pr, st -> run_pass_done it pr st ~pass ~prev
    in
    if tele then
      Telemetry.end_span
        ~args:
          [
            ("key", Telemetry.Str it.it_key);
            ("pass", Telemetry.Int pass);
            ("slice", Telemetry.Int slice);
            ("state", Telemetry.Str (match st with Done _ -> "done" | Parked _ -> "parked"));
            ("conflicts", Telemetry.Int (state_conflicts st));
          ]
        ();
    st
  and run_pass_done it pr st ~pass ~prev =
    Budget.charge budget st.Lift.p_conflicts;
    Telemetry.Counter.add tele_budget_spent st.Lift.p_conflicts;
    Telemetry.Histogram.observe tele_pair_conflicts st.Lift.p_conflicts;
    let pk =
        {
          pk_passes = pass;
          pk_pass_conflicts = prev.pk_pass_conflicts @ [ st.Lift.p_conflicts ];
          pk_conflicts = prev.pk_conflicts + st.Lift.p_conflicts;
          pk_bounds =
            List.map (fun v -> (v.Lift.vs_spec, v.Lift.vs_deepest_bound)) st.Lift.p_variants;
          pk_result = Some pr;
        }
      in
      if pr.Lift.classification = Lift.FF then Parked pk
      else
        Done
          {
            ir_item = it;
            ir_outcome = Proved;
            ir_result = Some pr;
            ir_fallback_cases = [];
            ir_passes = pk.pk_passes;
            ir_pass_conflicts = pk.pk_pass_conflicts;
            ir_conflicts = pk.pk_conflicts;
            ir_bounds = pk.pk_bounds;
          }
  in
  (* pass 1: every item gets a first slice before anyone escalates *)
  List.iter
    (fun it ->
      match Hashtbl.find_opt states it.it_key with
      | Some (Done _) -> ()
      | Some (Parked p) when p.pk_passes >= 1 -> ()
      | _ ->
        let slice = min sup.sv_slice (Budget.remaining budget) in
        let st =
          if slice <= 0 then Parked { zero_parked with pk_passes = 1; pk_pass_conflicts = [ 0 ] }
          else run_pass it zero_parked ~slice ~pass:1
        in
        record it st)
    items;
  (* escalation passes over the parked items, with resume hints *)
  for pass = 2 to sup.sv_max_passes do
    List.iter
      (fun it ->
        match Hashtbl.find_opt states it.it_key with
        | Some (Parked p)
          when p.pk_passes < pass
               && Budget.remaining budget > 0
               && not (Budget.deadline_passed budget) ->
          let slice =
            min (sup.sv_slice * pow sup.sv_escalation (pass - 1)) (Budget.remaining budget)
          in
          record it (run_pass it p ~slice ~pass)
        | _ -> ())
      items
  done;
  (* degradation ladder: seeded random search for the still-FF items *)
  let ladder = sup.sv_ladder in
  let rec run_ladder it (p : parked) =
    if tele then Telemetry.begin_span ~cat:"resilience" "resilience.ladder";
    let outcome, cases = run_ladder_search it p in
    if tele then
      Telemetry.end_span
        ~args:
          [
            ("key", Telemetry.Str it.it_key);
            ("outcome", Telemetry.Str (outcome_name outcome));
            ("cases", Telemetry.Int (List.length cases));
          ]
        ();
    (outcome, cases)
  and run_ladder_search it (p : parked) =
    let specs =
      match p.pk_result with
      | Some pr ->
        List.filter_map
          (function s, Lift.Formal_timeout -> Some s | _ -> None)
          pr.Lift.variants
      | None ->
        Fault.variants ~mitigation:config.Lift.mitigation ~start_dff:it.it_start
          ~end_dff:it.it_end it.it_violation
    in
    let found =
      List.concat_map
        (fun spec ->
          match Fault.failing_netlist target.Lift.netlist spec with
          | exception _ -> []
          | faulty ->
            let rec attempt a =
              if a >= ladder.ld_suites then []
              else begin
                let seed = ladder.ld_seed + Hashtbl.hash (it.it_key, Fault.describe spec, a) in
                let suite =
                  match target.Lift.kind with
                  | Lift.Alu_module { width } ->
                    Testgen.random_alu_suite ~seed ~width ~cases:ladder.ld_cases ()
                  | Lift.Fpu_module { fmt } ->
                    Testgen.random_fpu_suite ~seed ~fmt ~cases:ladder.ld_cases ()
                in
                let verdicts = Lift.detected_cases ~seed suite faulty in
                match List.filteri (fun i _ -> verdicts.(i)) suite.Lift.suite_cases with
                | [] -> attempt (a + 1)
                | hits ->
                  List.mapi
                    (fun i tc ->
                      {
                        tc with
                        Lift.tc_spec = spec;
                        Lift.tc_id =
                          Printf.sprintf "fallback:%s:%d" (Fault.describe spec) i;
                      })
                    hits
              end
            in
            attempt 0)
        specs
    in
    match found with [] -> (Exhausted, []) | cases -> (Found_by_fallback, cases)
  in
  List.iter
    (fun it ->
      match Hashtbl.find_opt states it.it_key with
      | Some (Parked p) ->
        let ir_outcome, ir_fallback_cases =
          if ladder.ld_fallback then run_ladder it p else (Exhausted, [])
        in
        record it
          (Done
             {
               ir_item = it;
               ir_outcome;
               ir_result = p.pk_result;
               ir_fallback_cases;
               ir_passes = p.pk_passes;
               ir_pass_conflicts = p.pk_pass_conflicts;
               ir_conflicts = p.pk_conflicts;
               ir_bounds = p.pk_bounds;
             })
      | _ -> ())
    items;
  let rp_items =
    List.map
      (fun it ->
        match Hashtbl.find_opt states it.it_key with
        | Some (Done r) -> r
        | Some (Parked p) -> report_of_parked it p
        | None ->
          {
            (report_of_parked it zero_parked) with
            ir_outcome = Failed "item was never attempted";
          })
      items
  in
  let rp_escalations =
    (* reconstructed from the final states (not a live counter) so that a
       resumed run reports the same number as the uninterrupted one *)
    List.fold_left (fun acc r -> acc + max 0 (r.ir_passes - 1)) 0 rp_items
  in
  if tele then
    Telemetry.end_span
      ~args:
        [
          ("items", Telemetry.Int n);
          ("budget_spent", Telemetry.Int (Budget.spent budget));
          ("escalations", Telemetry.Int rp_escalations);
        ]
      ();
  {
    rp_items;
    rp_budget_total = Budget.total budget;
    rp_budget_spent = Budget.spent budget;
    rp_escalations;
  }

(* ---- Table-4-style accounting ---- *)

type split_class = R_S | R_UR | R_FF_covered | R_FF_exhausted | R_FC | R_failed

let all_split_classes = [ R_S; R_UR; R_FF_covered; R_FF_exhausted; R_FC; R_failed ]

let split_name = function
  | R_S -> "S"
  | R_UR -> "UR"
  | R_FF_covered -> "FF-covered"
  | R_FF_exhausted -> "FF-exhausted"
  | R_FC -> "FC"
  | R_failed -> "failed"

let split_classification r =
  match r.ir_outcome with
  | Failed _ -> R_failed
  | Found_by_fallback -> R_FF_covered
  | Exhausted -> R_FF_exhausted
  | Proved -> (
    match r.ir_result with
    | Some pr -> (
      match pr.Lift.classification with
      | Lift.S -> R_S
      | Lift.UR -> R_UR
      | Lift.FF -> R_FF_exhausted
      | Lift.FC -> R_FC)
    | None -> R_failed)

let split_counts rp =
  List.map
    (fun c ->
      ( c,
        List.length (List.filter (fun r -> split_classification r = c) rp.rp_items) ))
    all_split_classes

let report_cases r =
  (match r.ir_result with Some pr -> List.length pr.Lift.cases | None -> 0)
  + List.length r.ir_fallback_cases

let render_report rp =
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "pair %-36s %-13s passes %d  conflicts %-9d cases %d%s\n"
           r.ir_item.it_key
           (split_name (split_classification r))
           r.ir_passes r.ir_conflicts (report_cases r)
           (match r.ir_outcome with Failed e -> "  error: " ^ e | _ -> "")))
    rp.rp_items;
  Buffer.add_string b
    (Printf.sprintf "classes: %s\n"
       (String.concat "  "
          (List.map (fun (c, n) -> Printf.sprintf "%s %d" (split_name c) n) (split_counts rp))));
  Buffer.add_string b
    (Printf.sprintf "budget: %d/%d conflicts spent, %d escalation(s)\n" rp.rp_budget_spent
       rp.rp_budget_total rp.rp_escalations);
  Buffer.contents b

let suite_of_report (target : Lift.target) rp =
  let formal =
    List.concat_map
      (fun r -> match r.ir_result with Some pr -> pr.Lift.cases | None -> [])
      rp.rp_items
  in
  let fallback = List.concat_map (fun r -> r.ir_fallback_cases) rp.rp_items in
  { Lift.suite_target = target.Lift.kind; suite_cases = formal @ fallback }
