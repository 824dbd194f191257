type expr =
  | Const of bool
  | Input of string * int
  | Net of Netlist.net
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr

let nets_differ a b = Xor (Net a, Net b)

let port_equals nl port v =
  let p = Netlist.find_input nl port in
  let width = Array.length p.port_nets in
  if Bitvec.width v <> width then
    invalid_arg (Printf.sprintf "Formal.port_equals: port %s has width %d" port width);
  let bit i =
    if Bitvec.bit v i then Input (port, i) else Not (Input (port, i))
  in
  let rec conj i acc = if i >= width then acc else conj (i + 1) (And (acc, bit i)) in
  conj 1 (bit 0)

let port_in nl port values =
  match values with
  | [] -> Const false
  | v :: rest ->
    List.fold_left (fun acc v -> Or (acc, port_equals nl port v)) (port_equals nl port v) rest

let rec eval_expr sim = function
  | Const b -> b
  | Input (port, bit) ->
    Sim.net sim (Netlist.net_of_port_bit (Sim.netlist sim) port bit)
  | Net n -> Sim.net sim n
  | Not e -> not (eval_expr sim e)
  | And (a, b) -> eval_expr sim a && eval_expr sim b
  | Or (a, b) -> eval_expr sim a || eval_expr sim b
  | Xor (a, b) -> eval_expr sim a <> eval_expr sim b

module Trace = struct
  type t = {
    netlist_name : string;
    cycles : int;
    inputs : (string * Bitvec.t array) list;
    observed : (string * bool array) list;
  }

  let input_at t port cycle =
    match List.assoc_opt port t.inputs with
    | Some arr when cycle >= 0 && cycle < Array.length arr -> arr.(cycle)
    | Some _ -> invalid_arg (Printf.sprintf "Trace.input_at: no cycle %d" cycle)
    | None -> invalid_arg (Printf.sprintf "Trace.input_at: no port %s" port)

  let to_string t =
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "trace of %s (%d cycles)\n" t.netlist_name t.cycles);
    Buffer.add_string buf "cycle     ";
    for c = 1 to t.cycles do
      Buffer.add_string buf (Printf.sprintf "%12d" c)
    done;
    Buffer.add_char buf '\n';
    List.iter
      (fun (port, arr) ->
        Buffer.add_string buf (Printf.sprintf "%-10s" port);
        Array.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%12s" (Bitvec.to_string v))) arr;
        Buffer.add_char buf '\n')
      t.inputs;
    List.iter
      (fun (name, arr) ->
        Buffer.add_string buf (Printf.sprintf "%-10s" name);
        Array.iter
          (fun v -> Buffer.add_string buf (Printf.sprintf "%12s" (if v then "'b1" else "'b0")))
          arr;
        Buffer.add_char buf '\n')
      t.observed;
    Buffer.contents buf

  let replay sim t ~on_cycle =
    for c = 0 to t.cycles - 1 do
      List.iter (fun (port, arr) -> Sim.set_input sim port arr.(c)) t.inputs;
      Sim.settle sim;
      on_cycle c;
      Sim.step sim
    done

  let to_vcd nl t =
    let sim = Sim.create nl in
    let vcd = Vcd.create ~design:t.netlist_name () in
    let in_sigs =
      List.map (fun (port, arr) -> (port, Vcd.add_signal vcd ~width:(Bitvec.width arr.(0)) port))
        t.inputs
    in
    let out_sigs =
      List.map
        (fun (p : Netlist.port) ->
          (p.Netlist.port_nets, Vcd.add_signal vcd ~width:(Array.length p.Netlist.port_nets) p.Netlist.port_name))
        (Netlist.outputs nl)
    in
    let obs_sigs = List.map (fun (name, _) -> Vcd.add_signal vcd name) t.observed in
    replay sim t ~on_cycle:(fun c ->
        List.iter (fun (port, s) -> Vcd.set vcd s (input_at t port c)) in_sigs;
        List.iter
          (fun (nets, s) ->
            Vcd.set vcd s (Bitvec.of_bits (Array.to_list (Array.map (Sim.net sim) nets))))
          out_sigs;
        List.iter2 (fun s (_, arr) -> Vcd.set_bit vcd s arr.(c)) obs_sigs t.observed;
        Vcd.advance vcd 1);
    Vcd.to_string vcd

  let covers nl t expr =
    let sim = Sim.create nl in
    let hit = ref false in
    replay sim t ~on_cycle:(fun _ -> if eval_expr sim expr then hit := true);
    !hit
end

type outcome =
  | Trace_found of Trace.t
  | Unreachable
  | Bounded_unreachable of int
  | Timeout of int

(* Longest register chain, one memoised DFS over nets: a DFF's output sits
   one level above its D input, a combinational net at the max level of its
   inputs, a primary input at 0.  Builder.finish rejects combinational
   cycles, so a net met again while still on the DFS stack closes a loop
   through a DFF: state feedback. *)
let sequential_depth nl =
  let cells = Netlist.cells nl in
  (* -1 unvisited, -2 on the DFS stack, else the net's level *)
  let level = Array.make (max 1 (Netlist.num_nets nl)) (-1) in
  let exception Cyclic in
  let rec visit n =
    match level.(n) with
    | -2 -> raise Cyclic
    | -1 ->
      level.(n) <- -2;
      let l =
        match Netlist.driver nl n with
        | Netlist.Driven_by_input _ -> 0
        | Netlist.Driven_by_cell cid ->
          let c = cells.(cid) in
          if Cell.Kind.is_sequential c.kind then 1 + visit c.inputs.(0)
          else Array.fold_left (fun acc i -> max acc (visit i)) 0 c.inputs
      in
      level.(n) <- l;
      l
    | l -> l
  in
  try
    Some (List.fold_left (fun acc id -> max acc (visit cells.(id).output)) 0 (Netlist.dffs nl))
  with Cyclic -> None

(* The solver every session of a domain reuses: [Sat.reset] keeps the
   arrays it has grown, so a session allocates only what it outgrows.  It
   is held weakly so that the GC can reclaim it once phase 2 is over.
   Sessions never nest, so one per domain is enough. *)
let scratch = Domain.DLS.new_key (fun () -> Weak.create 1)

let scratch_solver () =
  let w = Domain.DLS.get scratch in
  match Weak.get w 0 with
  | Some solver ->
    Sat.reset solver;
    solver
  | None ->
    let solver = Sat.create () in
    Weak.set w 0 (Some solver);
    solver

(* The Tseitin clauses of one gate, net [n] as variable [base + n], each
   passed to [add]. *)
let add_gate_clauses add base (c : Netlist.cell) =
  let y = base + c.output in
  let i k = base + c.inputs.(k) in
  match c.kind with
  | Cell.Kind.Tie0 -> add [| -y |]
  | Cell.Kind.Tie1 -> add [| y |]
  | Cell.Kind.Buf ->
    add [| -y; i 0 |];
    add [| y; -i 0 |]
  | Cell.Kind.Not ->
    add [| -y; -i 0 |];
    add [| y; i 0 |]
  | Cell.Kind.And2 ->
    add [| -y; i 0 |];
    add [| -y; i 1 |];
    add [| y; -i 0; -i 1 |]
  | Cell.Kind.Or2 ->
    add [| y; -i 0 |];
    add [| y; -i 1 |];
    add [| -y; i 0; i 1 |]
  | Cell.Kind.Nand2 ->
    add [| y; i 0 |];
    add [| y; i 1 |];
    add [| -y; -i 0; -i 1 |]
  | Cell.Kind.Nor2 ->
    add [| -y; -i 0 |];
    add [| -y; -i 1 |];
    add [| y; i 0; i 1 |]
  | Cell.Kind.Xor2 ->
    add [| -y; i 0; i 1 |];
    add [| -y; -i 0; -i 1 |];
    add [| y; -i 0; i 1 |];
    add [| y; i 0; -i 1 |]
  | Cell.Kind.Xnor2 ->
    add [| y; i 0; i 1 |];
    add [| y; -i 0; -i 1 |];
    add [| -y; -i 0; i 1 |];
    add [| -y; i 0; -i 1 |]
  | Cell.Kind.Mux2 ->
    (* output = s ? b : a with inputs a=0, b=1, s=2 *)
    add [| i 2; -i 0; y |];
    add [| i 2; i 0; -y |];
    add [| -i 2; -i 1; y |];
    add [| -i 2; i 1; -y |]
  | Cell.Kind.Dff -> ()  (* handled by the transition relation *)

(* The gate-clause template.  Phase 2 checks one shadow netlist per fault
   variant, and each is the unit's cell records (shared, not copied, by
   [Netlist.Builder.of_netlist]) plus a few cells of its own; re-deriving
   the unit's clauses for every cycle of every variant was most of the
   encoding time.  So each domain keeps the template of the last netlist
   it unrolled: its gate clauses as one block, net [n] as relative
   variable [n + 1], and the block size at each cell boundary.  A new
   session replays the template for the longest prefix of cells whose
   records are physically equal to the template's (so the same kind,
   inputs and output, so the same clauses) and encodes only the cells
   after it.  A netlist that shares no prefix encodes everything and
   publishes its own template.  The template is held weakly, like the
   scratch solver, and is never mutated once published, so a session that
   raises leaves nothing half-built behind. *)
type template = {
  cells : Netlist.cell array;
  block : Sat.block;
  starts : int array;  (* starts.(i): block size before cell i *)
}

let template = Domain.DLS.new_key (fun () -> Weak.create 1)

(* The gate clauses of [cells.(from ..)], and the block size before each
   of those cells and after the last. *)
let encode_cells cells from =
  let block = Sat.block () in
  let n = Array.length cells in
  let starts = Array.make (n - from + 1) 0 in
  for i = from to n - 1 do
    add_gate_clauses (Sat.block_add block) 1 cells.(i);
    starts.(i - from + 1) <- Sat.block_size block
  done;
  (block, starts)

let shared_prefix a b =
  let m = min (Array.length a) (Array.length b) in
  let p = ref 0 in
  while !p < m && a.(!p) == b.(!p) do
    incr p
  done;
  !p

(* One BMC session: incrementally unrolled transition relation.
   [push_cycle] allocates a cycle's nets as one block of variables, so net
   [n] at cycle [c] is variable [base.(c) + n].  Every cycle's gate clauses
   are the same clauses moved to that cycle's variables: the session
   replays the first [prefix_len] of its template's block, then [rest]. *)
type session = {
  nl : Netlist.t;
  solver : Sat.t;
  base : int array;  (* first variable of each encoded cycle *)
  mutable depth : int;  (* cycles encoded *)
  const_true : int;
  tmpl : template;
  prefix_len : int;
  rest : Sat.block;
}

let new_session nl ~max_cycles =
  let solver = scratch_solver () in
  let const_true = Sat.new_var solver in
  Sat.add_clause_array solver [| const_true |];
  let cells = Netlist.cells nl in
  let w = Domain.DLS.get template in
  let tmpl, shared =
    match Option.map (fun t -> (t, shared_prefix cells t.cells)) (Weak.get w 0) with
    | Some (t, p) when p > 0 -> (t, p)
    | _ ->
      let block, starts = encode_cells cells 0 in
      let t = { cells; block; starts } in
      Weak.set w 0 (Some t);
      (t, Array.length cells)
  in
  {
    nl;
    solver;
    base = Array.make (max 0 max_cycles) 0;
    depth = 0;
    const_true;
    tmpl;
    prefix_len = tmpl.starts.(shared);
    rest = fst (encode_cells cells shared);
  }

(* The variable of net [n] at cycle [c]. *)
let net_var s c n =
  if n < 0 || n >= Netlist.num_nets s.nl then
    invalid_arg (Printf.sprintf "Formal: net %d out of range" n);
  s.base.(c) + n

(* Extend the unrolling by one cycle. *)
let push_cycle s =
  let base = Sat.new_vars s.solver (Netlist.num_nets s.nl) in
  s.base.(s.depth) <- base;
  s.depth <- s.depth + 1;
  Sat.add_block s.solver ~shift:(base - 1) ~len:s.prefix_len s.tmpl.block;
  Sat.add_block s.solver ~shift:(base - 1) s.rest;
  let cells = Netlist.cells s.nl in
  List.iter
    (fun id ->
      let c = cells.(id) in
      let q = base + c.output in
      if s.depth = 1 then
        (* cycle 0: reset state *)
        Sat.add_clause_array s.solver [| (if c.reset_value then q else -q) |]
      else begin
        let d = s.base.(s.depth - 2) + c.inputs.(0) in
        Sat.add_clause_array s.solver [| -q; d |];
        Sat.add_clause_array s.solver [| q; -d |]
      end)
    (Netlist.dffs s.nl)

(* Tseitin encoding of an expression at a given cycle; returns a literal. *)
let rec lit_of_expr s cycle = function
  | Const true -> s.const_true
  | Const false -> -s.const_true
  | Input (port, bit) -> net_var s cycle (Netlist.net_of_port_bit s.nl port bit)
  | Net n -> net_var s cycle n
  | Not e -> -lit_of_expr s cycle e
  | And (a, b) ->
    let la = lit_of_expr s cycle a and lb = lit_of_expr s cycle b in
    let v = Sat.new_var s.solver in
    Sat.add_clause_array s.solver [| -v; la |];
    Sat.add_clause_array s.solver [| -v; lb |];
    Sat.add_clause_array s.solver [| v; -la; -lb |];
    v
  | Or (a, b) ->
    let la = lit_of_expr s cycle a and lb = lit_of_expr s cycle b in
    let v = Sat.new_var s.solver in
    Sat.add_clause_array s.solver [| v; -la |];
    Sat.add_clause_array s.solver [| v; -lb |];
    Sat.add_clause_array s.solver [| -v; la; lb |];
    v
  | Xor (a, b) ->
    let la = lit_of_expr s cycle a and lb = lit_of_expr s cycle b in
    let v = Sat.new_var s.solver in
    Sat.add_clause_array s.solver [| -v; la; lb |];
    Sat.add_clause_array s.solver [| -v; -la; -lb |];
    Sat.add_clause_array s.solver [| v; -la; lb |];
    Sat.add_clause_array s.solver [| v; la; -lb |];
    v

let extract_trace s watch bound =
  let inputs =
    List.map
      (fun (p : Netlist.port) ->
        let per_cycle =
          Array.init bound (fun c ->
              let width = Array.length p.port_nets in
              let v = ref (Bitvec.zero width) in
              Array.iteri
                (fun i n -> if Sat.value s.solver (net_var s c n) then v := Bitvec.set_bit !v i true)
                p.port_nets;
              !v)
        in
        (p.port_name, per_cycle))
      (Netlist.inputs s.nl)
  in
  let observed =
    List.map
      (fun (name, net) ->
        (name, Array.init bound (fun c -> Sat.value s.solver (net_var s c net))))
      watch
  in
  { Trace.netlist_name = Netlist.name s.nl; cycles = bound; inputs; observed }

type run_stats = { rs_solver : Sat.stats; rs_calls : int; rs_deepest_unsat : int }

let check_cover_stats ?(assumes = []) ?(watch = []) ?max_cycles ?(max_conflicts = 200_000)
    ?(start_cycle = 1) nl ~cover =
  let depth = sequential_depth nl in
  let complete_bound = Option.map (fun d -> d + 1) depth in
  let max_cycles =
    match (max_cycles, complete_bound) with
    | Some m, _ -> m
    | None, Some b -> b
    | None, None -> 8
  in
  let start_cycle = max 1 start_cycle in
  let s = new_session nl ~max_cycles in
  let budget = ref max_conflicts in
  let calls = ref 0 in
  let effort = ref Sat.zero_stats in
  (* bounds below [start_cycle] are encoded (so the transition relation and
     the per-cycle assumes constrain later cycles) but not queried: the
     caller vouches that they were proven unreachable by an earlier run *)
  let deepest = ref (start_cycle - 1) in
  let rec try_bound k =
    if k > max_cycles then
      match complete_bound with
      | Some b when max_cycles >= b -> Unreachable
      | _ -> Bounded_unreachable max_cycles
    else begin
      push_cycle s;
      (* assumptions for this cycle's constraints *)
      List.iter
        (fun e -> Sat.add_clause_array s.solver [| lit_of_expr s (k - 1) e |])
        assumes;
      if k < start_cycle then try_bound (k + 1)
      else begin
        (* the span must close before the Unsat branch recurses, so
           successive bounds are siblings under the check_cover span
           rather than an ever-deeper nest *)
        let tele = Telemetry.enabled () in
        if tele then Telemetry.begin_span ~cat:"formal" "formal.bound";
        let cover_lit = lit_of_expr s (k - 1) cover in
        incr calls;
        let before = Sat.stats s.solver in
        let r = Sat.solve ~assumptions:[ cover_lit ] ~max_conflicts:!budget s.solver in
        let used = Sat.stats_diff (Sat.stats s.solver) before in
        effort := Sat.stats_sum !effort used;
        budget := !budget - used.Sat.conflicts;
        if tele then
          Telemetry.end_span
            ~args:
              [
                ("bound", Telemetry.Int k);
                ("result", Telemetry.Str (Sat.result_name r));
                ("conflicts", Telemetry.Int used.Sat.conflicts);
                ("budget_left", Telemetry.Int !budget);
              ]
            ();
        match r with
        | Sat.Sat -> Trace_found (extract_trace s watch k)
        | Sat.Unsat ->
          (* the boundary case: an Unsat that exactly exhausts the budget
             still proved bound [k] — record it so a resumed run restarts
             at [k + 1] rather than bound 0 *)
          deepest := k;
          if !budget <= 0 then Timeout !deepest else try_bound (k + 1)
        | Sat.Unknown -> Timeout !deepest
      end
    end
  in
  let tele = Telemetry.enabled () in
  if tele then Telemetry.begin_span ~cat:"formal" "formal.check_cover";
  let outcome = try_bound 1 in
  if tele then begin
    let outcome_name =
      match outcome with
      | Trace_found _ -> "trace_found"
      | Unreachable -> "unreachable"
      | Bounded_unreachable _ -> "bounded_unreachable"
      | Timeout _ -> "timeout"
    in
    Telemetry.end_span
      ~args:
        [
          ("netlist", Telemetry.Str (Netlist.name nl));
          ("outcome", Telemetry.Str outcome_name);
          ("calls", Telemetry.Int !calls);
          ("conflicts", Telemetry.Int !effort.Sat.conflicts);
          ("deepest_unsat", Telemetry.Int !deepest);
        ]
      ()
  end;
  (outcome, { rs_solver = !effort; rs_calls = !calls; rs_deepest_unsat = !deepest })

let check_cover ?assumes ?watch ?max_cycles ?max_conflicts ?start_cycle nl ~cover =
  fst (check_cover_stats ?assumes ?watch ?max_cycles ?max_conflicts ?start_cycle nl ~cover)
