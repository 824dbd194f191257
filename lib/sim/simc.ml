(* Compiled word-parallel gate-level simulation.

   Where Sim64 interprets the netlist cell by cell on every settle, Simc
   compiles it once at construction: the combinational logic is ranked
   (topological levels), dead logic outside the fanin cone of the outputs
   and register D pins is dropped, wire cells (Buf/Not/Tie) collapse into
   read descriptors, input inversions are absorbed into complementing
   opcodes, and what remains is emitted as one flat superop program — a
   contiguous [int array] of (opcode, dst, src0, src1) quadruples over a
   preallocated word-per-net state array.  The settle loop is then a single
   threaded-dispatch pass with no graph traversal and no per-cycle
   allocation; registers commit through a double-buffered swap.

   Settling is lazy and change-gated: every state write (an input port,
   a register commit) compares the old word with the new one, and only a
   changed word that some compiled op reads marks the program stale.  The
   program then runs at most once per observation point, and not at all
   when nothing it reads has moved — a pipeline bubble on held inputs, or
   an output read straight from a register after an edge.  A write-only
   cycle loop therefore executes the program at most once per cycle where
   Sim64's step settles twice.

   Lane conventions are exactly Sim64's: bit [k] of every word is
   simulation lane [k], and only land/lor/lxor/lnot/lsr touch words.  An
   active mask restricts profile sampling to chosen lanes.  With
   [~profile:true] the compiler switches to a conservative mode (every
   cell emitted, no aliasing, slot = net) so the SP/toggle counters
   observe every net: per lane they equal a scalar Sim's counters
   exactly. *)

let lanes = Sim64.lanes
let all_lanes = Sim64.all_lanes
let popcount = Sim64.popcount

(* --- superop ISA ---

   Opcodes 0-10 mirror Sim64 (the conservative/profile compile emits only
   these); 11-13 are the polarity-absorbing forms the optimizer uses so a
   negated operand never needs a materialized Not cell.  Mux packs its
   second data operand and the select into src1 as two 31-bit fields. *)
let op_tie0 = 0

and op_tie1 = 1

and op_buf = 2

and op_not = 3

and op_and2 = 4

and op_or2 = 5

and op_xor2 = 6

and op_nand2 = 7

and op_nor2 = 8

and op_xnor2 = 9

and op_mux2 = 10

and op_andn = 11 (* src0 land lnot src1 *)

and op_orn = 12 (* src0 lor lnot src1 *)

and op_muxn = 13 (* mux with the selected-high operand complemented *)

let opcode_of_kind : Cell.Kind.t -> int = function
  | Cell.Kind.Tie0 -> op_tie0
  | Cell.Kind.Tie1 -> op_tie1
  | Cell.Kind.Buf -> op_buf
  | Cell.Kind.Not -> op_not
  | Cell.Kind.And2 -> op_and2
  | Cell.Kind.Or2 -> op_or2
  | Cell.Kind.Xor2 -> op_xor2
  | Cell.Kind.Nand2 -> op_nand2
  | Cell.Kind.Nor2 -> op_nor2
  | Cell.Kind.Xnor2 -> op_xnor2
  | Cell.Kind.Mux2 -> op_mux2
  | Cell.Kind.Dff -> invalid_arg "Simc: Dff is not a combinational opcode"

(* --- the engine --- *)

type t = {
  netlist : Netlist.t;
  cells : Netlist.cell array;
  num_nets : int;
  state : int array;  (* one slot per net plus a trailing hardwired-0 slot *)
  code : int array;  (* packed superops: (op, dst, src0, src1) stride 4 *)
  segs : int array;  (* same-opcode runs: (opcode, stop offset into code) stride 2 *)
  n_ops : int;
  rd_slot : int array;  (* net -> slot holding its (possibly inverted) value *)
  rd_neg : int array;  (* net -> 0 or all_lanes: value = state.(slot) lxor neg *)
  reads : bool array;  (* slot -> some compiled op reads it *)
  dff_d_slot : int array;  (* resolved D read descriptor per DFF *)
  dff_d_neg : int array;
  dff_q : int array;  (* Q net (always its own slot) per DFF *)
  dff_reset : int array;  (* reset word per DFF: 0 or all-lanes *)
  q_next : int array;  (* double buffer for the register commit *)
  ones : int array;  (* SP counters; empty when profiling is off *)
  toggles : int array;
  prev : int array;
  fb_val : int array;  (* memo for fallback reads of eliminated nets *)
  fb_stamp : int array;
  mutable fb_epoch : int;
  mutable dirty : bool;  (* a word some op reads changed since the last run *)
  mutable lane_samples : int;
  mutable toggle_slots : int;
  mutable cycles_sampled : int;
  mutable cycle : int;
  mutable active : int;
}

let netlist t = t.netlist
let program_length t = t.n_ops

(* Hot-path counters, allocation-free either way (see Sim64). *)
let tele_cycles = Telemetry.Counter.make "simc.cycles"
let tele_gate_evals = Telemetry.Counter.make "simc.gate_evals"
let tele_lane_samples = Telemetry.Counter.make "simc.lane_samples"

(* Compile-time counters: compiles, superops emitted, cells collapsed into
   read descriptors, cells dropped as dead. *)
let tele_compiles = Telemetry.Counter.make "simc.compiles"
let tele_ops = Telemetry.Counter.make "simc.compiled_ops"
let tele_folded = Telemetry.Counter.make "simc.cells_folded"
let tele_dead = Telemetry.Counter.make "simc.cells_dead"

(* The dispatch loop.  The program is scheduled as same-opcode runs (see
   [compile]), so the opcode match runs once per segment and each segment
   body is a tight branch-predictable loop over its ops.  Every index in
   [code] was validated at compile time (slots are net ids or the const
   slot), so the unsafe accesses cannot go out of bounds. *)
let exec t =
  let code = t.code and v = t.state and segs = t.segs in
  let n_segs = Array.length segs lsr 1 in
  let i = ref 0 in
  for s = 0 to n_segs - 1 do
    let op = Array.unsafe_get segs (2 * s) in
    let stop = Array.unsafe_get segs ((2 * s) + 1) in
    (match op with
    | 0 (* Tie0 *) ->
      while !i < stop do
        Array.unsafe_set v (Array.unsafe_get code (!i + 1)) 0;
        i := !i + 4
      done
    | 1 (* Tie1 *) ->
      while !i < stop do
        Array.unsafe_set v (Array.unsafe_get code (!i + 1)) all_lanes;
        i := !i + 4
      done
    | 2 (* Buf *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (Array.unsafe_get v (Array.unsafe_get code (!i + 2)));
        i := !i + 4
      done
    | 3 (* Not *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (lnot (Array.unsafe_get v (Array.unsafe_get code (!i + 2))));
        i := !i + 4
      done
    | 4 (* And2 *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (Array.unsafe_get v (Array.unsafe_get code (!i + 2))
          land Array.unsafe_get v (Array.unsafe_get code (!i + 3)));
        i := !i + 4
      done
    | 5 (* Or2 *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (Array.unsafe_get v (Array.unsafe_get code (!i + 2))
          lor Array.unsafe_get v (Array.unsafe_get code (!i + 3)));
        i := !i + 4
      done
    | 6 (* Xor2 *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (Array.unsafe_get v (Array.unsafe_get code (!i + 2))
          lxor Array.unsafe_get v (Array.unsafe_get code (!i + 3)));
        i := !i + 4
      done
    | 7 (* Nand2 *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (lnot
             (Array.unsafe_get v (Array.unsafe_get code (!i + 2))
             land Array.unsafe_get v (Array.unsafe_get code (!i + 3))));
        i := !i + 4
      done
    | 8 (* Nor2 *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (lnot
             (Array.unsafe_get v (Array.unsafe_get code (!i + 2))
             lor Array.unsafe_get v (Array.unsafe_get code (!i + 3))));
        i := !i + 4
      done
    | 9 (* Xnor2 *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (lnot
             (Array.unsafe_get v (Array.unsafe_get code (!i + 2))
             lxor Array.unsafe_get v (Array.unsafe_get code (!i + 3))));
        i := !i + 4
      done
    | 10 (* Mux2: src1 packs (sel << 31) | data1 *) ->
      while !i < stop do
        let s1 = Array.unsafe_get code (!i + 3) in
        let s = Array.unsafe_get v (s1 lsr 31) in
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          ((Array.unsafe_get v (s1 land 0x7fffffff) land s)
          lor (Array.unsafe_get v (Array.unsafe_get code (!i + 2)) land lnot s));
        i := !i + 4
      done
    | 11 (* AndN *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (Array.unsafe_get v (Array.unsafe_get code (!i + 2))
          land lnot (Array.unsafe_get v (Array.unsafe_get code (!i + 3))));
        i := !i + 4
      done
    | 12 (* OrN *) ->
      while !i < stop do
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          (Array.unsafe_get v (Array.unsafe_get code (!i + 2))
          lor lnot (Array.unsafe_get v (Array.unsafe_get code (!i + 3))));
        i := !i + 4
      done
    | _ (* 13 MuxN *) ->
      while !i < stop do
        let s1 = Array.unsafe_get code (!i + 3) in
        let s = Array.unsafe_get v (s1 lsr 31) in
        Array.unsafe_set v
          (Array.unsafe_get code (!i + 1))
          ((lnot (Array.unsafe_get v (s1 land 0x7fffffff)) land s)
          lor (Array.unsafe_get v (Array.unsafe_get code (!i + 2)) land lnot s));
        i := !i + 4
      done)
  done

(* Every write to an input or register word goes through here.  An
   unchanged word costs nothing; a changed one invalidates the fallback
   memo, and marks the program stale only if some op reads it — a pass
   over unchanged read slots would rewrite the same words. *)
let write t slot w =
  if t.state.(slot) <> w then begin
    t.state.(slot) <- w;
    t.fb_epoch <- t.fb_epoch + 1;
    if t.reads.(slot) then t.dirty <- true
  end

let ensure_settled t =
  if t.dirty then begin
    exec t;
    t.dirty <- false;
    (* any memoized fallback value predates this state *)
    t.fb_epoch <- t.fb_epoch + 1;
    Telemetry.Counter.add tele_gate_evals t.n_ops
  end

(* Exact value of any net, including nets the optimizer eliminated: live
   nets read through their descriptor; dead nets are interpreted on demand
   from the netlist, memoized per settle epoch.  Callers must have settled
   first. *)
let rec fb_eval t n =
  let s = t.rd_slot.(n) in
  if s >= 0 then t.state.(s) lxor t.rd_neg.(n)
  else if t.fb_stamp.(n) = t.fb_epoch then t.fb_val.(n)
  else begin
    let v =
      match Netlist.driver t.netlist n with
      | Netlist.Driven_by_input _ -> t.state.(n)
      | Netlist.Driven_by_cell id ->
        let c = t.cells.(id) in
        (match c.Netlist.kind with
        | Cell.Kind.Tie0 -> 0
        | Cell.Kind.Tie1 -> all_lanes
        | Cell.Kind.Buf -> fb_eval t c.inputs.(0)
        | Cell.Kind.Not -> lnot (fb_eval t c.inputs.(0))
        | Cell.Kind.And2 -> fb_eval t c.inputs.(0) land fb_eval t c.inputs.(1)
        | Cell.Kind.Or2 -> fb_eval t c.inputs.(0) lor fb_eval t c.inputs.(1)
        | Cell.Kind.Xor2 -> fb_eval t c.inputs.(0) lxor fb_eval t c.inputs.(1)
        | Cell.Kind.Nand2 -> lnot (fb_eval t c.inputs.(0) land fb_eval t c.inputs.(1))
        | Cell.Kind.Nor2 -> lnot (fb_eval t c.inputs.(0) lor fb_eval t c.inputs.(1))
        | Cell.Kind.Xnor2 -> lnot (fb_eval t c.inputs.(0) lxor fb_eval t c.inputs.(1))
        | Cell.Kind.Mux2 ->
          let s = fb_eval t c.inputs.(2) in
          (fb_eval t c.inputs.(1) land s) lor (fb_eval t c.inputs.(0) land lnot s)
        | Cell.Kind.Dff -> t.state.(c.output))
    in
    t.fb_stamp.(n) <- t.fb_epoch;
    t.fb_val.(n) <- v;
    v
  end

(* --- compilation --- *)

let compile ~optimize netlist =
  let num_nets = Netlist.num_nets netlist in
  let const_slot = num_nets in
  if const_slot >= 1 lsl 30 then invalid_arg "Simc: netlist too large to compile";
  let cells = Netlist.cells netlist in
  (* topological rank, one pass over the (acyclic) topo order: a
     combinational cell is 1 + the highest rank among its combinational
     drivers; register Qs, primary inputs and undriven nets count as 0 *)
  let rank = Array.make (max (Array.length cells) 1) 0 in
  Array.iter
    (fun id ->
      let r = ref 0 in
      Array.iter
        (fun n ->
          match Netlist.driver netlist n with
          | Netlist.Driven_by_cell d when d >= 0 && cells.(d).Netlist.kind <> Cell.Kind.Dff ->
            r := max !r rank.(d)
          | _ -> ())
        cells.(id).Netlist.inputs;
      rank.(id) <- !r + 1)
    (Netlist.topo_order netlist);
  let rd_slot = Array.make (max num_nets 1) (-1) in
  let rd_neg = Array.make (max num_nets 1) 0 in
  (* primary inputs and register Qs are state: they read as themselves *)
  List.iter
    (fun (p : Netlist.port) -> Array.iter (fun n -> rd_slot.(n) <- n) p.port_nets)
    (Netlist.inputs netlist);
  List.iter (fun id -> rd_slot.(cells.(id).Netlist.output) <- cells.(id).Netlist.output)
    (Netlist.dffs netlist);
  (* dead-code elimination: only cells in the combinational fanin cone of
     an output port or a register D pin are compiled *)
  let live = Array.make (max (Array.length cells) 1) (not optimize) in
  if optimize then begin
    let need = Array.make (max num_nets 1) false in
    let stack = ref [] in
    let root n =
      if not need.(n) then begin
        need.(n) <- true;
        stack := n :: !stack
      end
    in
    List.iter
      (fun (p : Netlist.port) -> Array.iter root p.port_nets)
      (Netlist.outputs netlist);
    List.iter (fun id -> root cells.(id).Netlist.inputs.(0)) (Netlist.dffs netlist);
    let rec drain () =
      match !stack with
      | [] -> ()
      | n :: rest ->
        stack := rest;
        (match Netlist.driver netlist n with
        | Netlist.Driven_by_input _ -> ()
        | Netlist.Driven_by_cell id ->
          let c = cells.(id) in
          if c.Netlist.kind <> Cell.Kind.Dff && not live.(id) then begin
            live.(id) <- true;
            Array.iter root c.inputs
          end);
        drain ()
    in
    drain ()
  end;
  (* emission order: ascending (rank, cell id) — a valid topological order,
     deterministic across runs *)
  let order =
    Array.to_list cells
    |> List.filter (fun (c : Netlist.cell) -> c.kind <> Cell.Kind.Dff && live.(c.id))
    |> List.map (fun (c : Netlist.cell) -> c.id)
    |> List.sort (fun a b ->
           let c = compare rank.(a) rank.(b) in
           if c <> 0 then c else compare a b)
  in
  let ops = ref [] and n_ops = ref 0 and folded = ref 0 in
  let emit op dst s0 s1 =
    ops := (op, dst, s0, s1) :: !ops;
    incr n_ops
  in
  let alias out s n =
    rd_slot.(out) <- s;
    rd_neg.(out) <- n;
    incr folded
  in
  let compute out op s0 s1 neg =
    emit op out s0 s1;
    rd_slot.(out) <- out;
    rd_neg.(out) <- neg
  in
  List.iter
    (fun id ->
      let c = cells.(id) in
      let out = c.Netlist.output in
      if not optimize then begin
        (* conservative: plain opcode per cell, slot = net — every net
           holds its own value, which the profile counters require *)
        let a = Array.length c.inputs in
        let i0 = if a > 0 then c.inputs.(0) else 0
        and i1 = if a > 1 then c.inputs.(1) else 0
        and i2 = if a > 2 then c.inputs.(2) else 0 in
        if c.kind = Cell.Kind.Mux2 then compute out op_mux2 i0 (i1 lor (i2 lsl 31)) 0
        else compute out (opcode_of_kind c.kind) i0 i1 0
      end
      else begin
        let desc n = (rd_slot.(n), rd_neg.(n)) in
        match c.kind with
        | Cell.Kind.Dff -> assert false
        | Cell.Kind.Tie0 -> alias out const_slot 0
        | Cell.Kind.Tie1 -> alias out const_slot all_lanes
        | Cell.Kind.Buf ->
          let s, n = desc c.inputs.(0) in
          alias out s n
        | Cell.Kind.Not ->
          let s, n = desc c.inputs.(0) in
          alias out s (n lxor all_lanes)
        | Cell.Kind.And2 | Cell.Kind.Nand2 | Cell.Kind.Or2 | Cell.Kind.Nor2 | Cell.Kind.Xor2
        | Cell.Kind.Xnor2 ->
          let sa, na = desc c.inputs.(0) and sb, nb = desc c.inputs.(1) in
          let inv =
            match c.kind with
            | Cell.Kind.Nand2 | Cell.Kind.Nor2 | Cell.Kind.Xnor2 -> all_lanes
            | _ -> 0
          in
          (match c.kind with
          | Cell.Kind.Xor2 | Cell.Kind.Xnor2 ->
            (* input/output inversions all fold into the descriptor *)
            if sa = const_slot && sb = const_slot then
              alias out const_slot (na lxor nb lxor inv)
            else if sa = const_slot then alias out sb (nb lxor na lxor inv)
            else if sb = const_slot then alias out sa (na lxor nb lxor inv)
            else compute out op_xor2 sa sb (na lxor nb lxor inv)
          | Cell.Kind.And2 | Cell.Kind.Nand2 ->
            if sa = const_slot then
              if na = 0 then alias out const_slot inv else alias out sb (nb lxor inv)
            else if sb = const_slot then
              if nb = 0 then alias out const_slot inv else alias out sa (na lxor inv)
            else if na = 0 && nb = 0 then compute out op_and2 sa sb inv
            else if na = 0 then compute out op_andn sa sb inv
            else if nb = 0 then compute out op_andn sb sa inv
            else (* ¬a ∧ ¬b = nor(a, b) *) compute out op_nor2 sa sb inv
          | _ (* Or2 | Nor2 *) ->
            if sa = const_slot then
              if na = 0 then alias out sb (nb lxor inv) else alias out const_slot (all_lanes lxor inv)
            else if sb = const_slot then
              if nb = 0 then alias out sa (na lxor inv) else alias out const_slot (all_lanes lxor inv)
            else if na = 0 && nb = 0 then compute out op_or2 sa sb inv
            else if na = 0 then compute out op_orn sa sb inv
            else if nb = 0 then compute out op_orn sb sa inv
            else (* ¬a ∨ ¬b = nand(a, b) *) compute out op_nand2 sa sb inv)
        | Cell.Kind.Mux2 ->
          let sa, na = desc c.inputs.(0)
          and sb, nb = desc c.inputs.(1)
          and ss, ns = desc c.inputs.(2) in
          if ss = const_slot then begin
            (* constant select picks one branch *)
            let s, n = if ns = 0 then (sa, na) else (sb, nb) in
            alias out s n
          end
          else begin
            (* an inverted select swaps the branches *)
            let sa, na, sb, nb = if ns = 0 then (sa, na, sb, nb) else (sb, nb, sa, na) in
            if sa = const_slot && sb = const_slot then begin
              if na = nb then alias out const_slot na
              else if na = 0 then (* mux(0, 1, s) = s *) alias out ss 0
              else alias out ss all_lanes
            end
            else if sa = sb && na = nb then alias out sa na
            else begin
              let s1 = sb lor (ss lsl 31) in
              (* a selection of complemented operands is the complemented
                 selection, so equal branch inversions move to the output
                 and a single mismatched one becomes MuxN *)
              if na = nb then compute out op_mux2 sa s1 na
              else if na = 0 then compute out op_muxn sa s1 0
              else compute out op_muxn sa s1 all_lanes
            end
          end
      end)
    order;
  let n = !n_ops in
  let emitted = Array.make (max n 1) (0, 0, 0, 0) in
  List.iteri (fun j op -> emitted.(n - 1 - j) <- op) !ops;
  (* Schedule: greedy opcode-affine list scheduling.  Any topological
     order of the op dependency graph is a correct program; this one
     drains all ready ops of one opcode before switching to the next, so
     the program becomes a short sequence of long same-opcode runs — the
     executor then dispatches once per run instead of once per op, and
     each run body is a branch-predictable tight loop.  Each op writes a
     distinct slot (its cell's output net), so dependencies are exactly
     producer-of-read-slot edges. *)
  let producer = Array.make (num_nets + 1) (-1) in
  Array.iteri (fun j (_, dst, _, _) -> producer.(dst) <- j) emitted;
  let indeg = Array.make (max n 1) 0 in
  let succs = Array.make (max n 1) [] in
  let add_dep j src =
    let k = producer.(src) in
    if k >= 0 && k <> j then begin
      indeg.(j) <- indeg.(j) + 1;
      succs.(k) <- j :: succs.(k)
    end
  in
  Array.iteri
    (fun j (op, _, s0, s1) ->
      if op >= 2 then add_dep j s0;
      if op = op_mux2 || op = op_muxn then begin
        add_dep j (s1 land 0x7fffffff);
        add_dep j (s1 lsr 31)
      end
      else if op >= 4 then add_dep j s1)
    emitted;
  let buckets = Array.make 14 [] in
  Array.iteri
    (fun j (op, _, _, _) -> if indeg.(j) = 0 then buckets.(op) <- j :: buckets.(op))
    emitted;
  (* emission order is reversed by the bucket push, giving a deterministic
     (if arbitrary) order within each run *)
  let code = Array.make (max (4 * n) 1) 0 in
  let segs = ref [] and n_segs = ref 0 in
  let pos = ref 0 in
  let place j =
    let op, dst, s0, s1 = emitted.(j) in
    let base = 4 * !pos in
    code.(base) <- op;
    code.(base + 1) <- dst;
    code.(base + 2) <- s0;
    code.(base + 3) <- s1;
    incr pos;
    (match !segs with
    | (o, _) :: rest when o = op -> segs := (o, base + 4) :: rest
    | _ ->
      segs := (op, base + 4) :: !segs;
      incr n_segs);
    List.iter
      (fun k ->
        indeg.(k) <- indeg.(k) - 1;
        if indeg.(k) = 0 then begin
          let kop, _, _, _ = emitted.(k) in
          buckets.(kop) <- k :: buckets.(kop)
        end)
      succs.(j)
  in
  while !pos < n do
    let b = ref 0 in
    while buckets.(!b) = [] do
      incr b
    done;
    let op = !b in
    let rec drain () =
      match buckets.(op) with
      | [] -> ()
      | j :: rest ->
        buckets.(op) <- rest;
        place j;
        drain ()
    in
    drain ()
  done;
  let seg_table = Array.make (2 * !n_segs) 0 in
  List.iteri
    (fun j (op, stop) ->
      let k = 2 * (!n_segs - 1 - j) in
      seg_table.(k) <- op;
      seg_table.(k + 1) <- stop)
    !segs;
  (* the slots the program reads: a write to any other slot cannot change
     what a pass computes *)
  let reads = Array.make (num_nets + 1) false in
  Array.iter
    (fun (op, _, s0, s1) ->
      if op >= 2 then reads.(s0) <- true;
      if op = op_mux2 || op = op_muxn then begin
        reads.(s1 land 0x7fffffff) <- true;
        reads.(s1 lsr 31) <- true
      end
      else if op >= 4 then reads.(s1) <- true)
    emitted;
  let dead = ref 0 in
  Array.iter
    (fun (c : Netlist.cell) ->
      if c.kind <> Cell.Kind.Dff && not live.(c.id) then incr dead)
    cells;
  Telemetry.Counter.incr tele_compiles;
  Telemetry.Counter.add tele_ops n;
  Telemetry.Counter.add tele_folded !folded;
  Telemetry.Counter.add tele_dead !dead;
  (code, n, seg_table, rd_slot, rd_neg, reads)

let reset t =
  Array.fill t.state 0 (Array.length t.state) 0;
  if Array.length t.ones > 0 then begin
    Array.fill t.ones 0 (Array.length t.ones) 0;
    Array.fill t.toggles 0 (Array.length t.toggles) 0;
    Array.fill t.prev 0 (Array.length t.prev) 0
  end;
  t.lane_samples <- 0;
  t.toggle_slots <- 0;
  t.cycles_sampled <- 0;
  t.cycle <- 0;
  t.active <- all_lanes;
  for i = 0 to Array.length t.dff_q - 1 do
    t.state.(t.dff_q.(i)) <- t.dff_reset.(i)
  done;
  t.dirty <- true;
  ensure_settled t

let create ?(profile = false) netlist =
  let n = Netlist.num_nets netlist in
  let cells = Netlist.cells netlist in
  let dff_ids = Array.of_list (Netlist.dffs netlist) in
  let nd = Array.length dff_ids in
  let code, n_ops, segs, rd_slot, rd_neg, reads = compile ~optimize:(not profile) netlist in
  let t =
    {
      netlist;
      cells;
      num_nets = n;
      state = Array.make (n + 1) 0;
      code;
      segs;
      n_ops;
      rd_slot;
      rd_neg;
      reads;
      dff_d_slot = Array.map (fun id -> rd_slot.(cells.(id).Netlist.inputs.(0))) dff_ids;
      dff_d_neg = Array.map (fun id -> rd_neg.(cells.(id).Netlist.inputs.(0))) dff_ids;
      dff_q = Array.map (fun id -> cells.(id).Netlist.output) dff_ids;
      dff_reset =
        Array.map (fun id -> if cells.(id).Netlist.reset_value then all_lanes else 0) dff_ids;
      q_next = Array.make (max nd 1) 0;
      ones = (if profile then Array.make (max n 1) 0 else [||]);
      toggles = (if profile then Array.make (max n 1) 0 else [||]);
      prev = (if profile then Array.make (max n 1) 0 else [||]);
      fb_val = Array.make (max n 1) 0;
      fb_stamp = Array.make (max n 1) 0;
      fb_epoch = 1;
      dirty = true;
      lane_samples = 0;
      toggle_slots = 0;
      cycles_sampled = 0;
      cycle = 0;
      active = all_lanes;
    }
  in
  reset t;
  t

(* --- driving inputs --- *)

let check_lane fn lane =
  if lane < 0 || lane >= lanes then
    invalid_arg (Printf.sprintf "Simc.%s: lane %d out of range [0, %d)" fn lane lanes)

let set_active_mask t m = t.active <- m
let active_mask t = t.active

(* Non-allocating port lookup (Netlist.find_input builds a closure and an
   option per call, which would put words on the minor heap in the
   per-cycle driving loop). *)
let rec find_in_ports what name ports =
  match ports with
  | [] -> invalid_arg (Printf.sprintf "Netlist: no %s port named %s" what name)
  | (p : Netlist.port) :: rest ->
    if String.equal p.Netlist.port_name name then p else find_in_ports what name rest

let find_input t name = find_in_ports "input" name (Netlist.inputs t.netlist)
let find_output t name = find_in_ports "output" name (Netlist.outputs t.netlist)

let set_input_words t port words =
  let p = find_input t port in
  let nets = p.Netlist.port_nets in
  let width = Array.length nets in
  if Array.length words <> width then
    invalid_arg
      (Printf.sprintf "Simc.set_input_words: port %s has width %d, got %d words" port width
         (Array.length words));
  for i = 0 to width - 1 do
    write t nets.(i) words.(i)
  done

let set_input_all t port v =
  let p = find_input t port in
  let width = Array.length p.port_nets in
  if Bitvec.width v <> width then
    invalid_arg
      (Printf.sprintf "Simc.set_input_all: port %s has width %d, value has width %d" port width
         (Bitvec.width v));
  Array.iteri (fun i n -> write t n (if Bitvec.bit v i then all_lanes else 0)) p.port_nets

let set_input t ~lane port v =
  check_lane "set_input" lane;
  let p = find_input t port in
  let width = Array.length p.port_nets in
  if Bitvec.width v <> width then
    invalid_arg
      (Printf.sprintf "Simc.set_input: port %s has width %d, value has width %d" port width
         (Bitvec.width v));
  let bit = 1 lsl lane in
  Array.iteri
    (fun i n ->
      write t n (if Bitvec.bit v i then t.state.(n) lor bit else t.state.(n) land lnot bit))
    p.port_nets

let set_input_bit t ~lane port bit v =
  check_lane "set_input_bit" lane;
  let p = find_input t port in
  if bit < 0 || bit >= Array.length p.Netlist.port_nets then
    invalid_arg (Printf.sprintf "Simc.set_input_bit: port %s has no bit %d" port bit);
  let m = 1 lsl lane in
  let n = p.Netlist.port_nets.(bit) in
  write t n (if v then t.state.(n) lor m else t.state.(n) land lnot m)

(* --- the clock --- *)

(* In profile mode the compile was conservative (slot = net for every
   net), so reading [state] directly here observes every net's value, as
   the scalar Sim's counters do, lane by lane.  A machine unit samples
   lane 0 alone (mask 1), where each popcount is just the low bit. *)
let sample_sp t =
  if Array.length t.ones > 0 then begin
    let m = t.active in
    let lanes_here = popcount m in
    if lanes_here > 0 then begin
      let count_toggles = t.cycles_sampled > 0 in
      if m = 1 then
        for n = 0 to t.num_nets - 1 do
          let v = t.state.(n) land 1 and p = t.prev.(n) in
          t.ones.(n) <- t.ones.(n) + v;
          if count_toggles then t.toggles.(n) <- t.toggles.(n) + (v lxor (p land 1));
          t.prev.(n) <- v lor (p land lnot 1)
        done
      else
        for n = 0 to t.num_nets - 1 do
          let v = t.state.(n) in
          t.ones.(n) <- t.ones.(n) + popcount (v land m);
          if count_toggles then
            t.toggles.(n) <- t.toggles.(n) + popcount ((v lxor t.prev.(n)) land m);
          t.prev.(n) <- v land m lor (t.prev.(n) land lnot m)
        done;
      t.lane_samples <- t.lane_samples + lanes_here;
      Telemetry.Counter.add tele_lane_samples lanes_here;
      if count_toggles then t.toggle_slots <- t.toggle_slots + lanes_here;
      t.cycles_sampled <- t.cycles_sampled + 1
    end
  end

let settle t = ensure_settled t

let step ?(sample = true) t =
  ensure_settled t;
  if sample then sample_sp t;
  let nd = Array.length t.dff_q in
  (* double-buffered commit: capture every D word, then update every Q *)
  for i = 0 to nd - 1 do
    Array.unsafe_set t.q_next i
      (Array.unsafe_get t.state (Array.unsafe_get t.dff_d_slot i)
      lxor Array.unsafe_get t.dff_d_neg i)
  done;
  (* lazy settle: a changed Q that some op reads makes the program rerun
     at the next observation *)
  for i = 0 to nd - 1 do
    write t (Array.unsafe_get t.dff_q i) (Array.unsafe_get t.q_next i)
  done;
  t.cycle <- t.cycle + 1;
  Telemetry.Counter.incr tele_cycles

let hold_clock t =
  ensure_settled t;
  sample_sp t

let cycle t = t.cycle

(* --- observation --- *)

let net_word t n =
  ensure_settled t;
  fb_eval t n

let net t ~lane n =
  check_lane "net" lane;
  (net_word t n lsr lane) land 1 = 1

let port_words t (p : Netlist.port) =
  ensure_settled t;
  Array.map (fun n -> fb_eval t n) p.port_nets

let port_value t lane (p : Netlist.port) =
  ensure_settled t;
  let nets = p.port_nets in
  let v = ref 0 in
  for i = 0 to Array.length nets - 1 do
    v := !v lor (((fb_eval t nets.(i) lsr lane) land 1) lsl i)
  done;
  Bitvec.create ~width:(Array.length nets) !v

let output_words t port = port_words t (find_output t port)

let output t ~lane port =
  check_lane "output" lane;
  port_value t lane (find_output t port)

let input_value t ~lane port =
  check_lane "input_value" lane;
  port_value t lane (find_input t port)

let peek_cell_word t name =
  let c = Netlist.find_cell t.netlist name in
  net_word t c.output

(* --- profiling --- *)

let check_profiling t =
  if Array.length t.ones = 0 then
    invalid_arg "Simc: simulator was created without ~profile:true";
  if t.lane_samples = 0 then invalid_arg "Simc: no cycles sampled yet"

let sp t n =
  check_profiling t;
  float_of_int t.ones.(n) /. float_of_int t.lane_samples

let sp_of_cell t name =
  let c = Netlist.find_cell t.netlist name in
  sp t c.output

let toggle_rate t n =
  check_profiling t;
  if t.toggle_slots = 0 then 0.0 else float_of_int t.toggles.(n) /. float_of_int t.toggle_slots

let samples t = t.lane_samples
let cycles_sampled t = t.cycles_sampled

let ones_count t n =
  if Array.length t.ones = 0 then
    invalid_arg "Simc: simulator was created without ~profile:true";
  t.ones.(n)

let toggles_count t n =
  if Array.length t.toggles = 0 then
    invalid_arg "Simc: simulator was created without ~profile:true";
  t.toggles.(n)

(* --- snapshots --- *)

type snapshot = {
  sn_state : int array;
  sn_cycle : int;
  sn_active : int;
  sn_ones : int array;
  sn_toggles : int array;
  sn_prev : int array;
  sn_lane_samples : int;
  sn_toggle_slots : int;
  sn_cycles_sampled : int;
}

let snapshot t =
  ensure_settled t;
  {
    sn_state = Array.copy t.state;
    sn_cycle = t.cycle;
    sn_active = t.active;
    sn_ones = Array.copy t.ones;
    sn_toggles = Array.copy t.toggles;
    sn_prev = Array.copy t.prev;
    sn_lane_samples = t.lane_samples;
    sn_toggle_slots = t.toggle_slots;
    sn_cycles_sampled = t.cycles_sampled;
  }

let restore t s =
  if Array.length s.sn_state <> Array.length t.state then
    invalid_arg "Simc.restore: snapshot is from a netlist with a different net count";
  Array.blit s.sn_state 0 t.state 0 (Array.length t.state);
  t.cycle <- s.sn_cycle;
  t.active <- s.sn_active;
  if Array.length t.ones > 0 && Array.length s.sn_ones = Array.length t.ones then begin
    Array.blit s.sn_ones 0 t.ones 0 (Array.length t.ones);
    Array.blit s.sn_toggles 0 t.toggles 0 (Array.length t.toggles);
    Array.blit s.sn_prev 0 t.prev 0 (Array.length t.prev)
  end;
  t.lane_samples <- s.sn_lane_samples;
  t.toggle_slots <- s.sn_toggle_slots;
  t.cycles_sampled <- s.sn_cycles_sampled;
  (* rerunning the program from restored state is deterministic, so a
     forced settle also invalidates the fallback memo *)
  t.dirty <- true

(* --- batch driving --- *)

let run_random ?(seed = 0x5eed) t ~cycles =
  let rng = Random.State.make [| seed |] in
  let ports = Netlist.inputs t.netlist in
  for _ = 1 to cycles do
    List.iter
      (fun (p : Netlist.port) ->
        Array.iter (fun n -> write t n (Sim64.random_word rng)) p.port_nets)
      ports;
    step t
  done

(* --- the single-lane engine view --- *)

module Lane = struct
  type simc = t
  type t = { sim : simc; lane : int }

  let netlist v = netlist v.sim
  let reset v = reset v.sim
  let set_input v port value = set_input v.sim ~lane:v.lane port value
  let set_input_bit v port bit value = set_input_bit v.sim ~lane:v.lane port bit value
  let settle v = settle v.sim
  let step ?sample v = step ?sample v.sim
  let hold_clock v = hold_clock v.sim
  let cycle v = cycle v.sim
  let net v n = net v.sim ~lane:v.lane n
  let output v port = output v.sim ~lane:v.lane port
  let sp v n = sp v.sim n
  let sp_of_cell v name = sp_of_cell v.sim name
  let toggle_rate v n = toggle_rate v.sim n
  let samples v = samples v.sim
end

let lane_view t lane =
  check_lane "lane_view" lane;
  { Lane.sim = t; lane }
