(* Work-stealing domain pool with retry, timeout re-dispatch, quarantine
   and sharded crash-safe checkpoints.

   Shared state is deliberately coarse: one mutex guards the slot table
   (items are heavyweight — an STA scan or a lift run — so slot
   transitions are noise), one mutex per deque, and an atomic counter of
   outstanding items for termination.  Determinism never depends on the
   locks: the value of an item is a pure function of (derived seed,
   payload), computed identically no matter which worker runs it, how
   often it is retried, or whether two workers race on a straggler (the
   first completed execution wins; any later copy computes the same
   value and is dropped). *)

type config = {
  fl_domains : int;
  fl_max_attempts : int;
  fl_backoff_s : float;
  fl_timeout_s : float option;
}

let default_config =
  { fl_domains = 1; fl_max_attempts = 3; fl_backoff_s = 0.05; fl_timeout_s = None }

type 'a task = { tk_key : string; tk_payload : 'a }

type outcome = Completed | Retried of int | Timed_out of int | Quarantined of string

let outcome_name = function
  | Completed -> "completed"
  | Retried _ -> "retried"
  | Timed_out _ -> "timed-out"
  | Quarantined _ -> "quarantined"

type 'r item_result = {
  fr_key : string;
  fr_seed : int;
  fr_outcome : outcome;
  fr_value : 'r option;
  fr_attempts : int;
  fr_from_checkpoint : bool;
}

type stats = {
  st_domains : int;
  st_items : int;
  st_completed : int;
  st_retried : int;
  st_timed_out : int;
  st_quarantined : int;
  st_checkpoint_hits : int;
  st_steals : int;
  st_redispatches : int;
  st_retry_sleeps : int;
}

(* digest-based so the mapping is stable across OCaml versions and word
   sizes — [Hashtbl.hash] is neither *)
let derive_seed base key =
  let d = Digest.string (Printf.sprintf "%d\x00%s" base key) in
  let v = ref 0 in
  for i = 0 to 6 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int

(* ---- per-worker deques ---- *)

module Deque = struct
  type t = { lock : Mutex.t; mutable items : int array; mutable front : int; mutable len : int }

  let create () = { lock = Mutex.create (); items = Array.make 8 0; front = 0; len = 0 }

  let push_back d x =
    Mutex.protect d.lock (fun () ->
        let cap = Array.length d.items in
        if d.len = cap then begin
          let bigger = Array.make (2 * cap) 0 in
          for i = 0 to d.len - 1 do
            bigger.(i) <- d.items.((d.front + i) mod cap)
          done;
          d.items <- bigger;
          d.front <- 0
        end;
        d.items.((d.front + d.len) mod Array.length d.items) <- x;
        d.len <- d.len + 1)

  (* owner end *)
  let pop_front d =
    Mutex.protect d.lock (fun () ->
        if d.len = 0 then None
        else begin
          let x = d.items.(d.front) in
          d.front <- (d.front + 1) mod Array.length d.items;
          d.len <- d.len - 1;
          Some x
        end)

  (* thief end *)
  let steal_back d =
    Mutex.protect d.lock (fun () ->
        if d.len = 0 then None
        else begin
          d.len <- d.len - 1;
          Some d.items.((d.front + d.len) mod Array.length d.items)
        end)
end

(* ---- checkpoint entry codec ---- *)

let entry_to_json encode = function
  | Ok v -> Json.Obj [ ("ok", encode v) ]
  | Error e -> Json.Obj [ ("quarantined", Json.String e) ]

let entry_of_json decode j =
  match Json.member "ok" j with
  | Ok data -> ( match decode data with Ok v -> Some (Ok v) | Error _ -> None)
  | Error _ -> (
    match Result.bind (Json.member "quarantined" j) Json.to_str with
    | Ok e -> Some (Error e)
    | Error _ -> None)

(* The stored outcome of [key], when present and decodable. *)
let restore checkpoint decode key =
  Option.bind (Resilience.Checkpoint.sharded_load checkpoint key) (entry_of_json decode)

let all_restored checkpoint ~decode tasks =
  List.for_all (fun t -> Option.is_some (restore checkpoint decode t.tk_key)) tasks

(* ---- slots ---- *)

type slot_state = Pending | Running of float | Done

type 'r slot = {
  sl_key : string;
  sl_seed : int;
  mutable sl_state : slot_state;
  mutable sl_result : ('r, string) result option;
  mutable sl_attempts : int;
  mutable sl_redispatches : int;
  mutable sl_from_ck : bool;
}

(* wall-clock health tallies, per worker; merged with the associative
   Counter.merge at the end of the run *)
type wstats = {
  mutable w_executed : int;
  mutable w_steals : int;
  mutable w_redispatches : int;
  mutable w_retry_sleeps : int;
}

let wstats_tally ws =
  [
    { Telemetry.Counter.c_name = "fleet.executed"; c_value = ws.w_executed };
    { Telemetry.Counter.c_name = "fleet.redispatches"; c_value = ws.w_redispatches };
    { Telemetry.Counter.c_name = "fleet.retry_sleeps"; c_value = ws.w_retry_sleeps };
    { Telemetry.Counter.c_name = "fleet.steals"; c_value = ws.w_steals };
  ]

let tally_to_counters st =
  [
    { Telemetry.Counter.c_name = "fleet.completed"; c_value = st.st_completed };
    { Telemetry.Counter.c_name = "fleet.items"; c_value = st.st_items };
    { Telemetry.Counter.c_name = "fleet.quarantined"; c_value = st.st_quarantined };
    { Telemetry.Counter.c_name = "fleet.redispatches"; c_value = st.st_redispatches };
    { Telemetry.Counter.c_name = "fleet.retried"; c_value = st.st_retried };
    { Telemetry.Counter.c_name = "fleet.retry_sleeps"; c_value = st.st_retry_sleeps };
    { Telemetry.Counter.c_name = "fleet.steals"; c_value = st.st_steals };
    { Telemetry.Counter.c_name = "fleet.timed_out"; c_value = st.st_timed_out };
  ]

(* deterministic engine counters (scheduling-independent by construction:
   completions and quarantines do not depend on the worker interleaving) *)
let tele_items = Telemetry.Counter.make "fleet.items_done"
let tele_quarantined = Telemetry.Counter.make "fleet.items_quarantined"

let run ?(config = default_config) ?checkpoint ?(log = fun _ -> ()) ~seed ~f ~encode ~decode
    tasks_list =
  Telemetry.with_span ~cat:"fleet" "fleet.run" @@ fun () ->
  let tasks = Array.of_list tasks_list in
  let n_items = Array.length tasks in
  let seen = Hashtbl.create (2 * n_items) in
  Array.iter
    (fun t ->
      if Hashtbl.mem seen t.tk_key then
        invalid_arg (Printf.sprintf "Fleet.run: duplicate task key %S" t.tk_key);
      Hashtbl.replace seen t.tk_key ())
    tasks;
  let cfg =
    {
      config with
      fl_domains = max 1 (min config.fl_domains (max 1 n_items));
      fl_max_attempts = max 1 config.fl_max_attempts;
    }
  in
  let slots =
    Array.map
      (fun t ->
        {
          sl_key = t.tk_key;
          sl_seed = derive_seed seed t.tk_key;
          sl_state = Pending;
          sl_result = None;
          sl_attempts = 0;
          sl_redispatches = 0;
          sl_from_ck = false;
        })
      tasks
  in
  let log_lock = Mutex.create () in
  let log m = Mutex.protect log_lock (fun () -> log m) in
  (* checkpoint preload: restored items (quarantine dispositions
     included) never re-execute *)
  let ck_hits = ref 0 in
  (match checkpoint with
  | None -> ()
  | Some sh ->
    Array.iter
      (fun s ->
        match restore sh decode s.sl_key with
        | Some result ->
          s.sl_state <- Done;
          s.sl_result <- Some result;
          s.sl_from_ck <- true;
          incr ck_hits
        | None -> () (* absent or undecodable: recompute *))
      slots);
  let shard_for wi =
    match checkpoint with
    | None -> None
    | Some sh -> Some (Resilience.Checkpoint.shard sh (wi mod Resilience.Checkpoint.shard_count sh))
  in
  let lock = Mutex.create () in
  let remaining =
    Atomic.make
      (Array.fold_left (fun n s -> if s.sl_state = Done then n else n + 1) 0 slots)
  in
  let n_domains = cfg.fl_domains in
  let deques = Array.init n_domains (fun _ -> Deque.create ()) in
  Array.iteri
    (fun i s -> if s.sl_state <> Done then Deque.push_back deques.(i mod n_domains) i)
    slots;
  let is_done idx = Mutex.protect lock (fun () -> slots.(idx).sl_state = Done) in
  let mark_running idx =
    Mutex.protect lock (fun () ->
        match slots.(idx).sl_state with
        | Done -> false
        | Pending | Running _ ->
          slots.(idx).sl_state <- Running (Unix.gettimeofday ());
          true)
  in
  let complete wi idx result attempts =
    let won =
      Mutex.protect lock (fun () ->
          let s = slots.(idx) in
          match s.sl_state with
          | Done -> false
          | Pending | Running _ ->
            s.sl_state <- Done;
            s.sl_result <- Some result;
            s.sl_attempts <- attempts;
            true)
    in
    if won then begin
      (* shard [wi] is written only by worker [wi]: no lock on the store *)
      (match shard_for wi with
      | Some ck -> Resilience.Checkpoint.store ck slots.(idx).sl_key (entry_to_json encode result)
      | None -> ());
      Telemetry.Counter.incr tele_items;
      (match result with
      | Error _ -> Telemetry.Counter.incr tele_quarantined
      | Ok _ -> ());
      ignore (Atomic.fetch_and_add remaining (-1))
    end;
    won
  in
  let find_straggler () =
    match cfg.fl_timeout_s with
    | None -> None
    | Some tmo ->
      Mutex.protect lock (fun () ->
          let now = Unix.gettimeofday () in
          let best = ref None in
          Array.iteri
            (fun i s ->
              match s.sl_state with
              | Running started when now -. started > tmo -> (
                match !best with
                | Some (_, st) when st <= started -> ()
                | _ -> best := Some (i, started))
              | _ -> ())
            slots;
          match !best with
          | None -> None
          | Some (i, _) ->
            (* restart the clock so other idle workers don't pile onto
               the same item before this copy had its chance *)
            slots.(i).sl_state <- Running now;
            slots.(i).sl_redispatches <- slots.(i).sl_redispatches + 1;
            Some i)
  in
  let run_item wi ws idx =
    let s = slots.(idx) in
    if mark_running idx then begin
      Telemetry.begin_span ~cat:"fleet" "fleet.item";
      let rec go attempt =
        ws.w_executed <- ws.w_executed + 1;
        match f ~seed:s.sl_seed tasks.(idx).tk_payload with
        | v -> ignore (complete wi idx (Ok v) attempt)
        | exception e ->
          let msg = Printexc.to_string e in
          if attempt >= cfg.fl_max_attempts then begin
            if complete wi idx (Error msg) attempt then
              log
                (Printf.sprintf "fleet: quarantined %s after %d attempt(s): %s" s.sl_key attempt
                   msg)
          end
          else begin
            ws.w_retry_sleeps <- ws.w_retry_sleeps + 1;
            Unix.sleepf (cfg.fl_backoff_s *. float_of_int (1 lsl (attempt - 1)));
            (* a straggler copy elsewhere may have finished it meanwhile *)
            if not (is_done idx) then go (attempt + 1)
          end
      in
      go 1;
      Telemetry.end_span ~args:[ ("key", Telemetry.Str s.sl_key) ] ()
    end
  in
  let worker wi =
    let ws = { w_executed = 0; w_steals = 0; w_redispatches = 0; w_retry_sleeps = 0 } in
    let rec loop () =
      if Atomic.get remaining > 0 then begin
        (match Deque.pop_front deques.(wi) with
        | Some idx -> run_item wi ws idx
        | None -> (
          let rec try_steal k =
            if k >= n_domains then None
            else
              match Deque.steal_back deques.((wi + k) mod n_domains) with
              | Some idx -> Some idx
              | None -> try_steal (k + 1)
          in
          match try_steal 1 with
          | Some idx ->
            ws.w_steals <- ws.w_steals + 1;
            run_item wi ws idx
          | None -> (
            match find_straggler () with
            | Some idx ->
              ws.w_redispatches <- ws.w_redispatches + 1;
              run_item wi ws idx
            | None -> if Atomic.get remaining > 0 then Unix.sleepf 2e-4)));
        loop ()
      end
    in
    loop ();
    ws
  in
  (* spawn workers 1..n-1; the calling domain is worker 0.  A failed
     spawn degrades the pool (thieves drain the orphan deque). *)
  let joins = ref [] in
  for wi = 1 to n_domains - 1 do
    match
      Domain.spawn (fun () ->
          let ws = worker wi in
          (ws, Telemetry.harvest ()))
    with
    | d -> joins := (wi, d) :: !joins
    | exception e ->
      log
        (Printf.sprintf "fleet: Domain.spawn failed for worker %d (%s); degrading to %d worker(s)"
           wi (Printexc.to_string e) (1 + List.length !joins))
  done;
  let ws0 = worker 0 in
  let joined =
    List.rev_map
      (fun (wi, d) ->
        let ws, spans = Domain.join d in
        (wi, ws, spans))
      !joins
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (* splice worker span forests into this domain's trace in worker order
     (worker 0 recorded directly into this domain) *)
  List.iter (fun (_, _, spans) -> Telemetry.absorb spans) joined;
  let tallies = wstats_tally ws0 :: List.map (fun (_, ws, _) -> wstats_tally ws) joined in
  let health =
    match tallies with
    | [] -> assert false
    | first :: rest ->
      List.fold_left (fun acc t -> List.map2 Telemetry.Counter.merge acc t) first rest
  in
  let counter name =
    match List.find_opt (fun c -> c.Telemetry.Counter.c_name = name) health with
    | Some c -> c.Telemetry.Counter.c_value
    | None -> 0
  in
  let results =
    Array.map
      (fun s ->
        let fr_outcome, fr_value =
          match s.sl_result with
          | Some (Ok v) ->
            let o =
              if s.sl_from_ck then Completed
              else if s.sl_attempts > 1 then Retried (s.sl_attempts - 1)
              else if s.sl_redispatches > 0 then Timed_out s.sl_redispatches
              else Completed
            in
            (o, Some v)
          | Some (Error e) -> (Quarantined e, None)
          | None -> assert false (* remaining = 0 ⇒ every slot is Done *)
        in
        {
          fr_key = s.sl_key;
          fr_seed = s.sl_seed;
          fr_outcome;
          fr_value;
          fr_attempts = s.sl_attempts;
          fr_from_checkpoint = s.sl_from_ck;
        })
      slots
  in
  let count p = Array.fold_left (fun n r -> if p r.fr_outcome then n + 1 else n) 0 results in
  let stats =
    {
      st_domains = 1 + List.length joined;
      st_items = n_items;
      st_completed = count (function Completed -> true | _ -> false);
      st_retried = count (function Retried _ -> true | _ -> false);
      st_timed_out = count (function Timed_out _ -> true | _ -> false);
      st_quarantined = count (function Quarantined _ -> true | _ -> false);
      st_checkpoint_hits = !ck_hits;
      st_steals = counter "fleet.steals";
      st_redispatches = counter "fleet.redispatches";
      st_retry_sleeps = counter "fleet.retry_sleeps";
    }
  in
  (results, stats)
