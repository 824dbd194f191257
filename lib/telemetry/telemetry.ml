(* Global-sink telemetry: spans, counters, histograms, exporters.

   The recorder is domain-safe.  Counters and histograms are shared across
   domains and bump through [Atomic] cells (an [Atomic.fetch_and_add] on an
   immediate int: no allocation, no lock), which is what lets the Sim64
   settle loop stay instrumented permanently and lets fleet workers bump
   the same counters concurrently without tearing.  Span state is
   per-domain ([Domain.DLS]): each domain grows its own well-formed span
   forest and a coordinator can [harvest] a worker's finished forest and
   [absorb] it into its own.  The registries are guarded by a mutex (cold
   path: [make] runs once per name, usually at module init).  The
   [enabled_flag] bool is the only thing a disabled instrumentation point
   ever touches; it is flipped by [enable]/[disable] from the coordinating
   domain while no workers run, so plain (non-atomic) reads are fine —
   OCaml 5 guarantees they are memory-safe, and a stale read merely
   records or skips a sample at the toggle boundary.
   Timestamps are native-int nanoseconds: 63 bits holds ~292 years, and
   staying out of Int64 keeps clock reads and span frames boxing-free. *)

type value = Int of int | Float of float | Str of string | Bool of bool

module Clock = struct
  type t =
    | Monotonic of { last : int Atomic.t }
    | Virtual of { now : int Atomic.t; step : int }

  let monotonic () = Monotonic { last = Atomic.make 0 }

  let virtual_ ?(start_ns = 0) ?(step_ns = 1000) () =
    if step_ns <= 0 then invalid_arg "Telemetry.Clock.virtual_: step_ns must be positive";
    Virtual { now = Atomic.make start_ns; step = step_ns }

  let now_ns = function
    | Monotonic m ->
      (* clamped to strictly increasing across all domains: gettimeofday
         can step backwards (NTP) and repeats at microsecond resolution *)
      let rec claim () =
        let last = Atomic.get m.last in
        let t = int_of_float (Unix.gettimeofday () *. 1e9) in
        let t = if t > last then t else last + 1 in
        if Atomic.compare_and_set m.last last t then t else claim ()
      in
      claim ()
    | Virtual v -> Atomic.fetch_and_add v.now v.step

  let is_virtual = function Virtual _ -> true | Monotonic _ -> false
end

(* ---- the global sink ---- *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_start_ns : int;
  sp_end_ns : int;
  sp_args : (string * value) list;
  sp_children : span list;
}

type frame = {
  f_name : string;
  f_cat : string;
  f_start : int;
  mutable f_children : span list;  (* reversed *)
}

(* Per-domain span state.  Each domain's forest is private to it, so frame
   mutation needs no locks; [harvest]/[absorb] move finished spans (plain
   immutable values) between domains explicitly. *)
type domain_spans = {
  mutable ds_stack : frame list; (* head = innermost open span *)
  mutable ds_roots : span list;  (* reversed *)
}

let spans_key : domain_spans Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { ds_stack = []; ds_roots = [] })

let local_spans () = Domain.DLS.get spans_key

let enabled_flag = ref false
let the_clock = ref (Clock.monotonic ())

let enabled () = !enabled_flag
let span_depth () = List.length (local_spans ()).ds_stack

module Counter = struct
  type t = { c_id : string; v : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64
  let registry_lock = Mutex.create ()

  let make name =
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
          let c = { c_id = name; v = Atomic.make 0 } in
          Hashtbl.replace registry name c;
          c)

  let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.v n)
  let incr c = if !enabled_flag then ignore (Atomic.fetch_and_add c.v 1)
  let value c = Atomic.get c.v

  type snapshot = { c_name : string; c_value : int }

  let merge a b =
    if a.c_name <> b.c_name then
      invalid_arg
        (Printf.sprintf "Telemetry.Counter.merge: %s vs %s" a.c_name b.c_name);
    { c_name = a.c_name; c_value = a.c_value + b.c_value }
end

module Histogram = struct
  type t = {
    h_id : string;
    bounds : int array;
    counts : int Atomic.t array;
    total : int Atomic.t;
    sum : int Atomic.t;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 16
  let registry_lock = Mutex.create ()

  let make name ~bounds =
    for i = 1 to Array.length bounds - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg (Printf.sprintf "Telemetry.Histogram.make %s: bounds not strictly increasing" name)
    done;
    Mutex.protect registry_lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some h ->
          if h.bounds <> bounds then
            invalid_arg (Printf.sprintf "Telemetry.Histogram.make %s: bounds differ from registration" name);
          h
        | None ->
          let h =
            {
              h_id = name;
              bounds = Array.copy bounds;
              counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
              total = Atomic.make 0;
              sum = Atomic.make 0;
            }
          in
          Hashtbl.replace registry name h;
          h)

  let observe h v =
    if !enabled_flag then begin
      let n = Array.length h.bounds in
      let rec idx i = if i >= n || v <= h.bounds.(i) then i else idx (i + 1) in
      let i = idx 0 in
      ignore (Atomic.fetch_and_add h.counts.(i) 1);
      ignore (Atomic.fetch_and_add h.total 1);
      ignore (Atomic.fetch_and_add h.sum v)
    end

  type snapshot = {
    h_name : string;
    h_bounds : int array;
    h_counts : int array;
    h_total : int;
    h_sum : int;
  }

  let snapshot_value h =
    {
      h_name = h.h_id;
      h_bounds = Array.copy h.bounds;
      h_counts = Array.map Atomic.get h.counts;
      h_total = Atomic.get h.total;
      h_sum = Atomic.get h.sum;
    }

  let merge a b =
    if a.h_name <> b.h_name then
      invalid_arg (Printf.sprintf "Telemetry.Histogram.merge: %s vs %s" a.h_name b.h_name);
    if a.h_bounds <> b.h_bounds then
      invalid_arg (Printf.sprintf "Telemetry.Histogram.merge %s: bucket bounds differ" a.h_name);
    {
      h_name = a.h_name;
      h_bounds = a.h_bounds;
      h_counts = Array.init (Array.length a.h_counts) (fun i -> a.h_counts.(i) + b.h_counts.(i));
      h_total = a.h_total + b.h_total;
      h_sum = a.h_sum + b.h_sum;
    }
end

(* ---- lifecycle ---- *)

let reset () =
  let ds = local_spans () in
  ds.ds_stack <- [];
  ds.ds_roots <- [];
  Mutex.protect Counter.registry_lock (fun () ->
      Hashtbl.iter (fun _ (c : Counter.t) -> Atomic.set c.Counter.v 0) Counter.registry);
  Mutex.protect Histogram.registry_lock (fun () ->
      Hashtbl.iter
        (fun _ (h : Histogram.t) ->
          Array.iter (fun c -> Atomic.set c 0) h.Histogram.counts;
          Atomic.set h.Histogram.total 0;
          Atomic.set h.Histogram.sum 0)
        Histogram.registry)

let enable ?clock () =
  (match clock with Some c -> the_clock := c | None -> the_clock := Clock.monotonic ());
  reset ();
  enabled_flag := true

let disable () = enabled_flag := false

(* ---- spans ---- *)

let begin_span ?(cat = "") name =
  if !enabled_flag then begin
    let ds = local_spans () in
    ds.ds_stack <-
      { f_name = name; f_cat = cat; f_start = Clock.now_ns !the_clock; f_children = [] }
      :: ds.ds_stack
  end

let end_span ?(args = []) () =
  if !enabled_flag then begin
    let ds = local_spans () in
    match ds.ds_stack with
    | [] -> () (* stray end: ignored so the forest stays well-formed *)
    | f :: rest ->
      ds.ds_stack <- rest;
      let sp =
        {
          sp_name = f.f_name;
          sp_cat = f.f_cat;
          sp_start_ns = f.f_start;
          sp_end_ns = Clock.now_ns !the_clock;
          sp_args = args;
          sp_children = List.rev f.f_children;
        }
      in
      (match rest with
      | [] -> ds.ds_roots <- sp :: ds.ds_roots
      | parent :: _ -> parent.f_children <- sp :: parent.f_children)
  end

let with_span ?cat ?args name f =
  if not !enabled_flag then f ()
  else begin
    begin_span ?cat name;
    match f () with
    | v ->
      end_span ?args ();
      v
    | exception e ->
      end_span ~args:[ ("exception", Str (Printexc.to_string e)) ] ();
      raise e
  end

(* ---- cross-domain span transfer ---- *)

let harvest () =
  let ds = local_spans () in
  let spans = List.rev ds.ds_roots in
  ds.ds_roots <- [];
  spans

let absorb spans =
  if !enabled_flag && spans <> [] then begin
    let ds = local_spans () in
    match ds.ds_stack with
    | [] -> ds.ds_roots <- List.rev_append spans ds.ds_roots
    | f :: _ -> f.f_children <- List.rev_append spans f.f_children
  end

(* ---- snapshots ---- *)

type snapshot = {
  ss_spans : span list;
  ss_counters : Counter.snapshot list;
  ss_histograms : Histogram.snapshot list;
  ss_end_ns : int;
}

let snapshot () =
  (* virtually close this domain's still-open frames at one common end
     time; the stack's head is the innermost frame, so folding left
     threads each closed span into its parent *)
  let ds = local_spans () in
  let now = Clock.now_ns !the_clock in
  let open_root =
    List.fold_left
      (fun child f ->
        let kids =
          List.rev f.f_children @ (match child with None -> [] | Some c -> [ c ])
        in
        Some
          {
            sp_name = f.f_name;
            sp_cat = f.f_cat;
            sp_start_ns = f.f_start;
            sp_end_ns = now;
            sp_args = [];
            sp_children = kids;
          })
      None ds.ds_stack
  in
  let spans = List.rev_append ds.ds_roots (match open_root with None -> [] | Some s -> [ s ]) in
  let counters =
    Mutex.protect Counter.registry_lock (fun () ->
        Hashtbl.fold
          (fun _ (c : Counter.t) acc ->
            { Counter.c_name = c.Counter.c_id; c_value = Atomic.get c.Counter.v } :: acc)
          Counter.registry [])
    |> List.sort (fun a b -> compare a.Counter.c_name b.Counter.c_name)
  in
  let histograms =
    Mutex.protect Histogram.registry_lock (fun () ->
        Hashtbl.fold (fun _ h acc -> Histogram.snapshot_value h :: acc) Histogram.registry [])
    |> List.sort (fun a b -> compare a.Histogram.h_name b.Histogram.h_name)
  in
  { ss_spans = spans; ss_counters = counters; ss_histograms = histograms; ss_end_ns = now }

let span_totals snap =
  let order = ref [] in
  let totals : (string, int * int) Hashtbl.t = Hashtbl.create 32 in
  let rec walk sp =
    let count, total =
      match Hashtbl.find_opt totals sp.sp_name with
      | Some ct -> ct
      | None ->
        order := sp.sp_name :: !order;
        (0, 0)
    in
    Hashtbl.replace totals sp.sp_name (count + 1, total + (sp.sp_end_ns - sp.sp_start_ns));
    List.iter walk sp.sp_children
  in
  List.iter walk snap.ss_spans;
  List.rev_map
    (fun name ->
      let count, total = Hashtbl.find totals name in
      (name, count, total))
    !order

(* ---- exporters ---- *)

module Export = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let value_json = function
    | Int n -> string_of_int n
    | Float f -> Printf.sprintf "%.6g" f
    | Str s -> Printf.sprintf "\"%s\"" (escape s)
    | Bool b -> if b then "true" else "false"

  let args_json args =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (value_json v)) args)

  (* Chrome trace "ts"/"dur" are microseconds; keep sub-us precision with a
     fixed three-decimal rendering computed in integer arithmetic, so the
     output is byte-deterministic. *)
  let us_of_ns ns = Printf.sprintf "%d.%03d" (ns / 1000) (ns mod 1000)

  let chrome_trace snap =
    let buf = Buffer.create 4096 in
    let first = ref true in
    let emit line =
      if !first then first := false else Buffer.add_string buf ",\n";
      Buffer.add_string buf "  ";
      Buffer.add_string buf line
    in
    Buffer.add_string buf "{\"traceEvents\":[\n";
    let rec walk sp =
      emit
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":1,\"args\":{%s}}"
           (escape sp.sp_name)
           (escape (if sp.sp_cat = "" then "vega" else sp.sp_cat))
           (us_of_ns sp.sp_start_ns)
           (us_of_ns (sp.sp_end_ns - sp.sp_start_ns))
           (args_json sp.sp_args));
      List.iter walk sp.sp_children
    in
    List.iter walk snap.ss_spans;
    (* Zero-valued counters are omitted: which counters are merely
       *registered* depends on which instrumented modules a binary links,
       so including them would make the trace a function of the linker
       image rather than of the run (and would break golden-trace
       comparison across producers). *)
    List.iter
      (fun (c : Counter.snapshot) ->
        if c.Counter.c_value <> 0 then
          emit
            (Printf.sprintf
               "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"tid\":1,\"args\":{\"value\":%d}}"
               (escape c.Counter.c_name) (us_of_ns snap.ss_end_ns) c.Counter.c_value))
      snap.ss_counters;
    Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"vega-telemetry\"}}\n";
    Buffer.contents buf

  let int_array_json a =
    "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

  let jsonl snap =
    let buf = Buffer.create 2048 in
    List.iter
      (fun (c : Counter.snapshot) ->
        Buffer.add_string buf
          (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%d}\n"
             (escape c.Counter.c_name) c.Counter.c_value))
      snap.ss_counters;
    List.iter
      (fun (h : Histogram.snapshot) ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"type\":\"histogram\",\"name\":\"%s\",\"bounds\":%s,\"counts\":%s,\"total\":%d,\"sum\":%d}\n"
             (escape h.Histogram.h_name)
             (int_array_json h.Histogram.h_bounds)
             (int_array_json h.Histogram.h_counts)
             h.Histogram.h_total h.Histogram.h_sum))
      snap.ss_histograms;
    List.iter
      (fun (name, count, total_ns) ->
        Buffer.add_string buf
          (Printf.sprintf
             "{\"type\":\"span_total\",\"name\":\"%s\",\"count\":%d,\"total_ns\":%d}\n"
             (escape name) count total_ns))
      (span_totals snap);
    Buffer.contents buf

  let summary snap =
    let buf = Buffer.create 2048 in
    let spans = span_totals snap in
    if spans <> [] then begin
      Buffer.add_string buf "spans (name, count, total):\n";
      List.iter
        (fun (name, count, total_ns) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-40s %8d %12s us\n" name count (us_of_ns total_ns)))
        spans
    end;
    let live = List.filter (fun (c : Counter.snapshot) -> c.Counter.c_value <> 0) snap.ss_counters in
    if live <> [] then begin
      Buffer.add_string buf "counters:\n";
      List.iter
        (fun (c : Counter.snapshot) ->
          Buffer.add_string buf (Printf.sprintf "  %-40s %12d\n" c.Counter.c_name c.Counter.c_value))
        live
    end;
    let live_h = List.filter (fun (h : Histogram.snapshot) -> h.Histogram.h_total <> 0) snap.ss_histograms in
    if live_h <> [] then begin
      Buffer.add_string buf "histograms:\n";
      List.iter
        (fun (h : Histogram.snapshot) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-40s total %d sum %d\n" h.Histogram.h_name h.Histogram.h_total
               h.Histogram.h_sum);
          Array.iteri
            (fun i n ->
              if n > 0 then
                let label =
                  if i < Array.length h.Histogram.h_bounds then
                    Printf.sprintf "<=%d" h.Histogram.h_bounds.(i)
                  else "overflow"
                in
                Buffer.add_string buf (Printf.sprintf "    %-12s %d\n" label n))
            h.Histogram.h_counts)
        live_h
    end;
    Buffer.contents buf
end
