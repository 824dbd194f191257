(* Adversarial wearout search — see attack.mli for the model.

   The evaluator is [Vega.replay_sp]: a candidate stream is replayed
   lane-parallel on the target netlist and scored as the mean BTI stress
   duty over the target cells' output nets.  The SAT assist encodes the
   netlist combinationally (truth-table clauses per cell, steady-state
   [q = d] constraints per DFF: holding inputs constant, an acyclic
   pipeline settles to exactly that fixpoint), pins the opcode port to
   each valid operation in turn, and asks for an input assignment that
   drives the target cells low — a "hold" pattern the mutation pool can
   smear across stream segments. *)

type config = {
  atk_seed : int;
  atk_len : int;
  atk_iters : int;
  atk_sat_assist : bool;
  atk_temp : float;
  atk_aging : Aging.config;
}

let default_config =
  {
    atk_seed = 0xA77;
    atk_len = 64;
    atk_iters = 40;
    atk_sat_assist = true;
    atk_temp = 0.05;
    atk_aging = Aging.default_config;
  }

type cell_stress = {
  cs_cell : string;
  cs_baseline_sp : float;
  cs_attacked_sp : float;
}

type result = {
  atk_cells : cell_stress list;
  atk_baseline : float;
  atk_best : float;
  atk_evals : int;
  atk_sat_patterns : int;
  atk_ops : (string * Bitvec.t) list array;
  atk_sp_of_net : Netlist.net -> float;
  atk_samples : int;
}

let skew r = r.atk_best -. r.atk_baseline

let tele_evals = Telemetry.Counter.make "attack.evals"
let tele_sat_patterns = Telemetry.Counter.make "attack.sat_patterns"
let tele_accepts = Telemetry.Counter.make "attack.accepts"

(* ---- default victims: cells on the worst fresh critical paths ---- *)

let default_targets ?(n = 16) nl =
  let report =
    Sta.analyze ~timing:(Sta.fresh_timing Cell.Library.c28) ~clock_period_ps:1.0 nl
  in
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let count = ref 0 in
  List.iter
    (fun (p : Sta.path) ->
      List.iter
        (fun cid ->
          if !count < n then begin
            let name = (Netlist.cell nl cid).Netlist.name in
            if not (Hashtbl.mem seen name) then begin
              Hashtbl.replace seen name ();
              out := name :: !out;
              incr count
            end
          end)
        (List.rev p.Sta.through))
    report.Sta.setup_violations;
  List.rev !out

(* ---- SAT-assisted steady-state cone fixing ---- *)

let sat_stress_patterns (target : Lift.target) cells =
  let nl = target.Lift.netlist in
  let s = Sat.create () in
  let vars = Hashtbl.create 512 in
  let var n =
    match Hashtbl.find_opt vars n with
    | Some v -> v
    | None ->
      let v = Sat.new_var s in
      Hashtbl.replace vars n v;
      v
  in
  List.iter
    (fun (p : Netlist.port) -> Array.iter (fun n -> ignore (var n)) p.Netlist.port_nets)
    (Netlist.inputs nl);
  Array.iter
    (fun (c : Netlist.cell) ->
      let o = var c.Netlist.output in
      if c.Netlist.kind = Cell.Kind.Dff then begin
        (* steady state: with inputs held, the settled fixpoint has q = d *)
        let d = var c.Netlist.inputs.(0) in
        Sat.add_clause s [ -o; d ];
        Sat.add_clause s [ o; -d ]
      end
      else begin
        let ins = Array.map var c.Netlist.inputs in
        let k = Array.length ins in
        for m = 0 to (1 lsl k) - 1 do
          let bits = Array.init k (fun i -> m land (1 lsl i) <> 0) in
          let out = Cell.Kind.eval c.Netlist.kind bits in
          Sat.add_clause s
            ((if out then o else -o)
            :: Array.to_list (Array.mapi (fun i v -> if bits.(i) then -v else v) ins))
        done
      end)
    (Netlist.cells nl);
  let port_lits name bv =
    match
      List.find_opt (fun (p : Netlist.port) -> p.Netlist.port_name = name) (Netlist.inputs nl)
    with
    | None -> []
    | Some p ->
      Array.to_list
        (Array.mapi (fun i n -> if Bitvec.bit bv i then var n else -var n) p.Netlist.port_nets)
  in
  (* pin the opcode port to each valid operation so found patterns stay
     materializable as real instructions *)
  let opcode_assumptions =
    match target.Lift.kind with
    | Lift.Alu_module _ ->
      List.map
        (fun op -> port_lits Alu.op_port (Bitvec.create ~width:4 (Alu.op_code op)))
        Alu.all_ops
    | Lift.Fpu_module _ ->
      List.map
        (fun op ->
          port_lits Fpu.op_port (Bitvec.create ~width:3 (Fpu_format.op_code op))
          @ port_lits Fpu.in_valid_port (Bitvec.create ~width:1 1))
        Fpu_format.all_ops
  in
  let low_lits names =
    List.map (fun cname -> -var (Netlist.find_cell nl cname).Netlist.output) names
  in
  let model_pattern () =
    List.map
      (fun (p : Netlist.port) ->
        let w = Array.length p.Netlist.port_nets in
        let v = ref 0 in
        Array.iteri
          (fun i n -> if Sat.value s (var n) then v := !v lor (1 lsl i))
          p.Netlist.port_nets;
        (p.Netlist.port_name, Bitvec.create ~width:w !v))
      (Netlist.inputs nl)
  in
  let solve_for names =
    let lows = low_lits names in
    let rec try_ops = function
      | [] -> None
      | op_lits :: rest -> (
        match Sat.solve ~assumptions:(op_lits @ lows) ~max_conflicts:100_000 s with
        | Sat.Sat -> Some (model_pattern ())
        | Sat.Unsat | Sat.Unknown -> try_ops rest)
    in
    try_ops opcode_assumptions
  in
  (* all targets low at once, then each individually *)
  let patterns =
    List.filter_map Fun.id (solve_for cells :: List.map (fun c -> solve_for [ c ]) cells)
  in
  (* drop duplicates, keep order *)
  let rec dedup acc = function
    | [] -> List.rev acc
    | p :: rest -> if List.mem p acc then dedup acc rest else dedup (p :: acc) rest
  in
  dedup [] patterns

(* ---- the search ---- *)

let search ?(config = default_config) (target : Lift.target) ~cells =
  Telemetry.with_span ~cat:"attack" "attack.search" @@ fun () ->
  if cells = [] then invalid_arg "Attack.search: no target cells";
  if config.atk_len <= 0 then invalid_arg "Attack.search: stream length must be positive";
  if config.atk_iters < 0 then invalid_arg "Attack.search: iteration count must be non-negative";
  let nl = target.Lift.netlist in
  let nets =
    List.map
      (fun c ->
        match Netlist.find_cell nl c with
        | cell -> cell.Netlist.output
        | exception Not_found ->
          invalid_arg (Printf.sprintf "Attack.search: no cell named %s in %s" c (Netlist.name nl)))
      cells
  in
  let n_cells = float_of_int (List.length nets) in
  let evals = ref 0 in
  let eval ops =
    incr evals;
    Telemetry.Counter.incr tele_evals;
    match Vega.replay_sp target ops with
    | None -> (neg_infinity, 0, fun (_ : Netlist.net) -> 0.5)
    | Some (samples, sp) ->
      let duty =
        List.fold_left (fun acc n -> acc +. Aging.duty_of_sp config.atk_aging (sp n)) 0.0 nets
      in
      (duty /. n_cells, samples, sp)
  in
  let rng = Random.State.make [| config.atk_seed; 0xa77ac |] in
  let baseline =
    Testgen.random_unit_ops ~seed:config.atk_seed ~len:config.atk_len target.Lift.kind
  in
  let base_obj, base_samples, base_sp = eval baseline in
  let sat_pats = if config.atk_sat_assist then sat_stress_patterns target cells else [] in
  Telemetry.Counter.add tele_sat_patterns (List.length sat_pats);
  let cur = ref baseline and cur_obj = ref base_obj in
  let best = ref baseline and best_obj = ref base_obj in
  let best_sp = ref base_sp and best_samples = ref base_samples in
  let consider cand obj samples sp =
    if obj > !best_obj then begin
      best := cand;
      best_obj := obj;
      best_sp := sp;
      best_samples := samples
    end
  in
  (* seed candidates: each SAT pattern held for the whole stream *)
  List.iter
    (fun pat ->
      let cand = Array.make config.atk_len pat in
      let obj, samples, sp = eval cand in
      consider cand obj samples sp;
      if obj >= !cur_obj then begin
        cur := cand;
        cur_obj := obj
      end)
    sat_pats;
  let zero_assignment a = List.map (fun (p, v) -> (p, Bitvec.zero (Bitvec.width v))) a in
  let mutate ops =
    let ops = Array.copy ops in
    let n = Array.length ops in
    let seg () =
      let i = Random.State.int rng n in
      (i, i + Random.State.int rng (n - i))
    in
    (match Random.State.int rng (if sat_pats = [] then 4 else 5) with
    | 0 ->
      (* point mutation: one fresh random operation *)
      let i = Random.State.int rng n in
      ops.(i) <-
        (Testgen.random_unit_ops ~seed:(Random.State.bits rng) ~len:1 target.Lift.kind).(0)
    | 1 ->
      (* spread: copy one position over another *)
      let i = Random.State.int rng n and j = Random.State.int rng n in
      ops.(i) <- ops.(j)
    | 2 ->
      (* hold: smear one operation across a segment (kills toggling) *)
      let i, j = seg () in
      for k = i to j do
        ops.(k) <- ops.(i)
      done
    | 3 ->
      (* blackout: all-zero operands across a segment *)
      let i, j = seg () in
      let z = zero_assignment ops.(i) in
      for k = i to j do
        ops.(k) <- z
      done
    | _ ->
      (* SAT pattern: hold a solver-derived stress assignment *)
      let pat = List.nth sat_pats (Random.State.int rng (List.length sat_pats)) in
      let i, j = seg () in
      for k = i to j do
        ops.(k) <- pat
      done);
    ops
  in
  for it = 1 to config.atk_iters do
    let cand = mutate !cur in
    let obj, samples, sp = eval cand in
    let temp =
      config.atk_temp *. (1.0 -. (float_of_int it /. float_of_int (max 1 config.atk_iters)))
    in
    let accept =
      obj >= !cur_obj
      || (temp > 0.0 && Random.State.float rng 1.0 < exp ((obj -. !cur_obj) /. temp))
    in
    if accept then begin
      Telemetry.Counter.incr tele_accepts;
      cur := cand;
      cur_obj := obj
    end;
    consider cand obj samples sp
  done;
  {
    atk_cells =
      List.map2
        (fun c n -> { cs_cell = c; cs_baseline_sp = base_sp n; cs_attacked_sp = !best_sp n })
        cells nets;
    atk_baseline = base_obj;
    atk_best = !best_obj;
    atk_evals = !evals;
    atk_sat_patterns = List.length sat_pats;
    atk_ops = !best;
    atk_sp_of_net = !best_sp;
    atk_samples = !best_samples;
  }

(* ---- time to first violation under an aging corner ---- *)

let time_to_violation ?(years_max = 30.0) ?(precision = 0.05) ~timing_of_years ~clock_period_ps
    nl =
  let violates y = Sta.violating_pairs ~timing:(timing_of_years y) ~clock_period_ps nl <> [] in
  if not (violates years_max) then None
  else if violates 0.0 then Some 0.0
  else begin
    let lo = ref 0.0 and hi = ref years_max in
    while !hi -. !lo > precision do
      let mid = 0.5 *. (!lo +. !hi) in
      if violates mid then hi := mid else lo := mid
    done;
    Some !hi
  end

(* ---- stream materialization ---- *)

let workload_program (kind : Lift.module_kind) ops =
  let body =
    List.concat_map
      (fun assignment ->
        let get p = try List.assoc p assignment with Not_found -> Bitvec.zero 1 in
        match kind with
        | Lift.Alu_module _ ->
          let op =
            match
              List.find_opt
                (fun o -> Alu.op_code o = Bitvec.to_int (get Alu.op_port))
                Alu.all_ops
            with
            | Some o -> o
            | None -> Alu.Add
          in
          [
            Isa.Li (1, Bitvec.to_int (get Alu.a_port));
            Isa.Li (2, Bitvec.to_int (get Alu.b_port));
            Isa.Alu (op, 3, 1, 2);
          ]
        | Lift.Fpu_module _ ->
          if Bitvec.to_int (get Fpu.in_valid_port) = 0 then []
          else begin
            let op =
              match
                List.find_opt
                  (fun o -> Fpu_format.op_code o = Bitvec.to_int (get Fpu.op_port))
                  Fpu_format.all_ops
              with
              | Some o -> o
              | None -> Fpu_format.Fadd
            in
            [
              Isa.Li (1, Bitvec.to_int (get Fpu.a_port));
              Isa.Li (2, Bitvec.to_int (get Fpu.b_port));
              Isa.Fmv_wx (1, 1);
              Isa.Fmv_wx (2, 2);
              Isa.Fop (op, 3, 1, 2);
            ]
          end)
      (Array.to_list ops)
  in
  Isa.assemble (body @ [ Isa.Ecall Isa.exit_ok ])

(* ---- reporting ---- *)

let render r =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Adversarial stress search: %d target cell(s), %d evals, %d SAT pattern(s)\n"
    (List.length r.atk_cells) r.atk_evals r.atk_sat_patterns;
  add "  objective (mean BTI stress duty): baseline %.4f -> attack %.4f (skew +%.4f)\n"
    r.atk_baseline r.atk_best (skew r);
  List.iter
    (fun c -> add "  cell %-24s sp %.4f -> %.4f\n" c.cs_cell c.cs_baseline_sp c.cs_attacked_sp)
    r.atk_cells;
  add "  profile: %d samples over %d operations\n" r.atk_samples (Array.length r.atk_ops);
  Buffer.contents buf
