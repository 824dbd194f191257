type alu_backend = Alu_functional | Alu_netlist of Netlist.t
type fpu_backend = Fpu_functional | Fpu_netlist of Netlist.t

type config = {
  width : int;
  fmt : Fpu_format.fmt;
  mem_words : int;
  fpu_watchdog : int;
  rng_seed : int;
}

let default_config =
  { width = 16; fmt = Fpu_format.binary16; mem_words = 4096; fpu_watchdog = 64; rng_seed = 7 }

type outcome = Exited of int | Stalled | Out_of_fuel

let pp_outcome fmt = function
  | Exited code -> Format.fprintf fmt "exited(%d)" code
  | Stalled -> Format.pp_print_string fmt "stalled"
  | Out_of_fuel -> Format.pp_print_string fmt "out-of-fuel"

(* Every netlist unit runs on the compiled simulator.  A unit drives the
   same stimulus on every lane and reads lane 0, and its profile mask is
   pinned to lane 0, so it is observationally a scalar simulator: same
   values and the same SP/toggle counters as a scalar [Sim]. *)

let us_reset s =
  Simc.reset s;
  Simc.set_active_mask s 1

let us_set_input_bit s name i b =
  Simc.set_input_all s name (Bitvec.set_bit (Simc.input_value s ~lane:0 name) i b)

let us_output s name = Simc.output s ~lane:0 name

(* A 2-stage pipelined gate-level unit: issuing steps the simulator once and
   retires the previously issued operation at the same edge.  The simulator
   is compiled on first use, so a machine built only for its configuration
   pays no compile. *)
type pipe_unit = {
  usim : Simc.t Lazy.t;
  has_fault_port : bool;
  mutable pending : int option;
      (* destination register of the in-flight operation; for the FPU,
         [dest land 0x100 <> 0] marks an integer (comparison) destination *)
}

type op_stats = {
  alu_ops : (Alu.op * int) list;
  fpu_ops : (Fpu_format.op * int) list;
  loads : int;
  stores : int;
  branches : int;
  branches_taken : int;
  jumps : int;
  moves : int;
  other : int;
}

type t = {
  cfg : config;
  regs : Bitvec.t array;
  fregs : Bitvec.t array;
  memory : Bitvec.t array;
  mutable flags : Fpu_format.flags;
  mutable cycles : int;
  mutable retired : int;
  alu_counts : int array;  (* indexed by Alu.op_code *)
  fpu_counts : int array;  (* indexed by Fpu_format.op_code *)
  mutable n_loads : int;
  mutable n_stores : int;
  mutable n_branches : int;
  mutable n_branches_taken : int;
  mutable n_jumps : int;
  mutable n_moves : int;
  mutable n_other : int;
  mutable rng : Random.State.t;
  mutable alu_fn : bool;
  mutable fpu_fn : bool;
  mutable alu_unit : pipe_unit option;
  mutable fpu_unit : pipe_unit option;
  on_alu_op : Alu.op -> Bitvec.t -> Bitvec.t -> unit;
  on_fpu_op : Fpu_format.op -> Bitvec.t -> Bitvec.t -> unit;
}

let port_width nl name = Array.length (Netlist.find_input nl name).Netlist.port_nets

let has_input nl name =
  List.exists (fun (p : Netlist.port) -> String.equal p.port_name name) (Netlist.inputs nl)

let make_unit_sim ?(profile = false) nl =
  let s = Simc.create ~profile nl in
  Simc.set_active_mask s 1;
  s

let sim u = Lazy.force u.usim

let make_unit ~profile nl =
  {
    usim = lazy (make_unit_sim ~profile nl);
    has_fault_port = has_input nl Fault.random_port;
    pending = None;
  }

let installed_unit s =
  {
    usim = Lazy.from_val s;
    has_fault_port = has_input (Simc.netlist s) Fault.random_port;
    pending = None;
  }

let create ?(config = default_config) ?(profile_units = false)
    ?(on_alu_op = fun _ _ _ -> ()) ?(on_fpu_op = fun _ _ _ -> ()) ~alu ~fpu () =
  if Fpu_format.width config.fmt > config.width then
    invalid_arg "Machine.create: FP format wider than the integer registers";
  (match alu with
  | Alu_functional -> ()
  | Alu_netlist nl ->
    if port_width nl Alu.a_port <> config.width then
      invalid_arg "Machine.create: ALU netlist width does not match config");
  (match fpu with
  | Fpu_functional -> ()
  | Fpu_netlist nl ->
    if port_width nl Fpu.a_port <> Fpu_format.width config.fmt then
      invalid_arg "Machine.create: FPU netlist format does not match config");
  {
    cfg = config;
    regs = Array.make 32 (Bitvec.zero config.width);
    fregs = Array.make 32 (Bitvec.zero (Fpu_format.width config.fmt));
    memory = Array.make config.mem_words (Bitvec.zero config.width);
    flags = Fpu_format.no_flags;
    cycles = 0;
    retired = 0;
    alu_counts = Array.make 16 0;
    fpu_counts = Array.make 8 0;
    n_loads = 0;
    n_stores = 0;
    n_branches = 0;
    n_branches_taken = 0;
    n_jumps = 0;
    n_moves = 0;
    n_other = 0;
    rng = Random.State.make [| config.rng_seed |];
    on_alu_op;
    on_fpu_op;
    alu_fn = (match alu with Alu_functional -> true | Alu_netlist _ -> false);
    fpu_fn = (match fpu with Fpu_functional -> true | Fpu_netlist _ -> false);
    alu_unit =
      (match alu with
      | Alu_functional -> None
      | Alu_netlist nl -> Some (make_unit ~profile:profile_units nl));
    fpu_unit =
      (match fpu with
      | Fpu_functional -> None
      | Fpu_netlist nl -> Some (make_unit ~profile:profile_units nl));
  }

let config t = t.cfg

let reset t =
  Array.fill t.regs 0 32 (Bitvec.zero t.cfg.width);
  Array.fill t.fregs 0 32 (Bitvec.zero (Fpu_format.width t.cfg.fmt));
  Array.fill t.memory 0 t.cfg.mem_words (Bitvec.zero t.cfg.width);
  t.flags <- Fpu_format.no_flags;
  t.cycles <- 0;
  t.retired <- 0;
  Array.fill t.alu_counts 0 (Array.length t.alu_counts) 0;
  Array.fill t.fpu_counts 0 (Array.length t.fpu_counts) 0;
  t.n_loads <- 0;
  t.n_stores <- 0;
  t.n_branches <- 0;
  t.n_branches_taken <- 0;
  t.n_jumps <- 0;
  t.n_moves <- 0;
  t.n_other <- 0;
  let reset_unit u =
    us_reset (sim u);
    u.pending <- None
  in
  Option.iter reset_unit t.alu_unit;
  Option.iter reset_unit t.fpu_unit

let cycles t = t.cycles
let instructions_retired t = t.retired

let op_stats t =
  {
    alu_ops =
      List.filter_map
        (fun op ->
          let n = t.alu_counts.(Alu.op_code op) in
          if n > 0 then Some (op, n) else None)
        Alu.all_ops;
    fpu_ops =
      List.filter_map
        (fun op ->
          let n = t.fpu_counts.(Fpu_format.op_code op) in
          if n > 0 then Some (op, n) else None)
        Fpu_format.all_ops;
    loads = t.n_loads;
    stores = t.n_stores;
    branches = t.n_branches;
    branches_taken = t.n_branches_taken;
    jumps = t.n_jumps;
    moves = t.n_moves;
    other = t.n_other;
  }
let reg t r = if r = 0 then Bitvec.zero t.cfg.width else t.regs.(r)
let set_reg t r v = if r <> 0 then t.regs.(r) <- v
let freg t r = t.fregs.(r)
let set_freg t r v = t.fregs.(r) <- v
let fflags t = t.flags

let mem_addr t a =
  let m = ((a mod t.cfg.mem_words) + t.cfg.mem_words) mod t.cfg.mem_words in
  m

let mem t a = t.memory.(mem_addr t a)
let set_mem t a v = t.memory.(mem_addr t a) <- v
let alu_sim t = Option.map sim t.alu_unit
let fpu_sim t = Option.map sim t.fpu_unit

exception Stall_detected
exception Exit_program of int

let alu_functional t = t.alu_fn
let fpu_functional t = t.fpu_fn

(* ---- gate-level ALU protocol ---- *)

let drive_fault t u =
  if u.has_fault_port then
    us_set_input_bit (sim u) Fault.random_port 0 (Random.State.bool t.rng)

let alu_retire t u =
  match u.pending with
  | None -> ()
  | Some rd ->
    set_reg t rd (us_output (sim u) Alu.r_port);
    u.pending <- None

let alu_bubble t u =
  drive_fault t u;
  Simc.step (sim u);
  t.cycles <- t.cycles + 1;
  alu_retire t u

let alu_drain t u = if u.pending <> None then alu_bubble t u

let alu_issue t u op a b rd =
  Simc.set_input_all (sim u) Alu.op_port (Bitvec.create ~width:4 (Alu.op_code op));
  Simc.set_input_all (sim u) Alu.a_port a;
  Simc.set_input_all (sim u) Alu.b_port b;
  drive_fault t u;
  Simc.step (sim u);
  alu_retire t u;
  u.pending <- Some rd

(* Compute an ALU value immediately (branch comparisons): run the operation
   through the pipe and drain it. *)
let alu_value t op a b =
  t.on_alu_op op a b;
  match t.alu_unit with
  | None -> Alu.golden ~width:t.cfg.width op a b
  | Some u ->
    alu_drain t u;
    Simc.set_input_all (sim u) Alu.op_port (Bitvec.create ~width:4 (Alu.op_code op));
    Simc.set_input_all (sim u) Alu.a_port a;
    Simc.set_input_all (sim u) Alu.b_port b;
    drive_fault t u;
    Simc.step (sim u);
    drive_fault t u;
    Simc.step (sim u);
    t.cycles <- t.cycles + 1;
    us_output (sim u) Alu.r_port

(* ---- gate-level FPU protocol ---- *)

let fpu_wait_valid t u =
  let rec wait n =
    if Bitvec.to_int (us_output (sim u) Fpu.valid_port) = 1 then ()
    else if n >= t.cfg.fpu_watchdog then raise Stall_detected
    else begin
      Simc.set_input_all (sim u) Fpu.in_valid_port (Bitvec.zero 1);
      drive_fault t u;
      Simc.step (sim u);
      t.cycles <- t.cycles + 1;
      wait (n + 1)
    end
  in
  wait 0

let fpu_retire t u =
  match u.pending with
  | None -> ()
  | Some dest ->
    fpu_wait_valid t u;
    let r = us_output (sim u) Fpu.r_port in
    let fl = Fpu_format.flags_of_int (Bitvec.to_int (us_output (sim u) Fpu.flags_port)) in
    t.flags <- Fpu_format.flags_union t.flags fl;
    if dest land 0x100 <> 0 then
      set_reg t (dest land 0xff) (Bitvec.create ~width:t.cfg.width (Bitvec.to_int r land 1))
    else set_freg t (dest land 0xff) r;
    u.pending <- None

let fpu_bubble t u =
  Simc.set_input_all (sim u) Fpu.in_valid_port (Bitvec.zero 1);
  drive_fault t u;
  Simc.step (sim u);
  t.cycles <- t.cycles + 1;
  fpu_retire t u

let fpu_drain t u = if u.pending <> None then fpu_bubble t u

let fpu_issue t u op a b dest =
  Simc.set_input_all (sim u) Fpu.op_port (Bitvec.create ~width:3 (Fpu_format.op_code op));
  Simc.set_input_all (sim u) Fpu.a_port a;
  Simc.set_input_all (sim u) Fpu.b_port b;
  Simc.set_input_all (sim u) Fpu.in_valid_port (Bitvec.one 1);
  drive_fault t u;
  Simc.step (sim u);
  (match u.pending with
  | None -> ()
  | Some _ ->
    (* the previous token reaches the output at this edge *)
    fpu_retire t u);
  u.pending <- Some dest

(* ---- mid-run backend swapping ----

   Swapping drains the unit's in-flight operation first (which may raise
   [Stall_detected] on a wedged FPU), so the architectural state is
   consistent across the swap.  The displaced simulator is returned with
   its state intact; re-installing it later resumes exactly where it left
   off, which lets a caller flip between a golden and a fault-instrumented
   replica of the same unit without paying a recompile on every flip.
   [None] selects the functional golden backend. *)

let swap_alu_unit t replacement =
  Option.iter (fun u -> alu_drain t u) t.alu_unit;
  let old = Option.map sim t.alu_unit in
  (match replacement with
  | None ->
    t.alu_unit <- None;
    t.alu_fn <- true
  | Some s ->
    let nl = Simc.netlist s in
    if port_width nl Alu.a_port <> t.cfg.width then
      invalid_arg "Machine.swap_alu_unit: ALU netlist width does not match config";
    t.alu_unit <- Some (installed_unit s);
    t.alu_fn <- false);
  old

let swap_fpu_unit t replacement =
  Option.iter (fun u -> fpu_drain t u) t.fpu_unit;
  let old = Option.map sim t.fpu_unit in
  (match replacement with
  | None ->
    t.fpu_unit <- None;
    t.fpu_fn <- true
  | Some s ->
    let nl = Simc.netlist s in
    if port_width nl Fpu.a_port <> Fpu_format.width t.cfg.fmt then
      invalid_arg "Machine.swap_fpu_unit: FPU netlist format does not match config";
    t.fpu_unit <- Some (installed_unit s);
    t.fpu_fn <- false);
  old

(* ---- architectural snapshots (checkpoint/rollback support) ----

   A snapshot drains in-flight unit operations first (which may raise
   [Stall_detected]) and then captures the full architectural state:
   registers, memory, flags, cycle/instruction counters, op-mix counters,
   the RNG state, and the gate-level state of any unit simulators.
   [restore] rewinds all of it, so execution after a restore is
   bit-identical to execution after the snapshot was taken.  If a unit
   backend was swapped between snapshot and restore (recovery onto a
   golden unit), the architectural state is still restored exactly and the
   incompatible unit simulator is simply reset. *)

type snapshot = {
  s_regs : Bitvec.t array;
  s_fregs : Bitvec.t array;
  s_memory : Bitvec.t array;
  s_flags : Fpu_format.flags;
  s_cycles : int;
  s_retired : int;
  s_alu_counts : int array;
  s_fpu_counts : int array;
  s_misc_counts : int array;
  s_rng : Random.State.t;
  s_alu_sim : Simc.snapshot option;
  s_fpu_sim : Simc.snapshot option;
}

let snapshot t =
  Option.iter (fun u -> alu_drain t u) t.alu_unit;
  Option.iter (fun u -> fpu_drain t u) t.fpu_unit;
  {
    s_regs = Array.copy t.regs;
    s_fregs = Array.copy t.fregs;
    s_memory = Array.copy t.memory;
    s_flags = t.flags;
    s_cycles = t.cycles;
    s_retired = t.retired;
    s_alu_counts = Array.copy t.alu_counts;
    s_fpu_counts = Array.copy t.fpu_counts;
    s_misc_counts =
      [| t.n_loads; t.n_stores; t.n_branches; t.n_branches_taken; t.n_jumps; t.n_moves; t.n_other |];
    s_rng = Random.State.copy t.rng;
    s_alu_sim = Option.map (fun u -> Simc.snapshot (sim u)) t.alu_unit;
    s_fpu_sim = Option.map (fun u -> Simc.snapshot (sim u)) t.fpu_unit;
  }

let restore t s =
  Array.blit s.s_regs 0 t.regs 0 (Array.length t.regs);
  Array.blit s.s_fregs 0 t.fregs 0 (Array.length t.fregs);
  Array.blit s.s_memory 0 t.memory 0 (Array.length t.memory);
  t.flags <- s.s_flags;
  t.cycles <- s.s_cycles;
  t.retired <- s.s_retired;
  Array.blit s.s_alu_counts 0 t.alu_counts 0 (Array.length t.alu_counts);
  Array.blit s.s_fpu_counts 0 t.fpu_counts 0 (Array.length t.fpu_counts);
  t.n_loads <- s.s_misc_counts.(0);
  t.n_stores <- s.s_misc_counts.(1);
  t.n_branches <- s.s_misc_counts.(2);
  t.n_branches_taken <- s.s_misc_counts.(3);
  t.n_jumps <- s.s_misc_counts.(4);
  t.n_moves <- s.s_misc_counts.(5);
  t.n_other <- s.s_misc_counts.(6);
  t.rng <- Random.State.copy s.s_rng;
  let restore_unit u snap =
    u.pending <- None;
    match snap with
    | Some ss -> ( try Simc.restore (sim u) ss with Invalid_argument _ -> us_reset (sim u))
    | None -> us_reset (sim u)
  in
  Option.iter (fun u -> restore_unit u s.s_alu_sim) t.alu_unit;
  Option.iter (fun u -> restore_unit u s.s_fpu_sim) t.fpu_unit

(* ---- hazard bookkeeping ---- *)

let alu_reads = function
  | Isa.Alu (_, _, r1, r2) -> [ r1; r2 ]
  | Isa.Alui (_, _, r1, _) -> [ r1 ]
  | _ -> []

let is_alu_instr = function Isa.Alu _ | Isa.Alui _ -> true | _ -> false
let is_fpu_instr = function Isa.Fop _ | Isa.Fcmp _ -> true | _ -> false

let fpu_freg_reads = function
  | Isa.Fop (_, _, f1, f2) | Isa.Fcmp (_, _, f1, f2) -> [ f1; f2 ]
  | _ -> []

let sync_units t instr =
  (match t.alu_unit with
  | Some u when u.pending <> None ->
    let hazard =
      (not (is_alu_instr instr)) || List.exists (fun r -> Some r = u.pending) (alu_reads instr)
    in
    if hazard then alu_drain t u
  | _ -> ());
  match t.fpu_unit with
  | Some u when u.pending <> None ->
    let hazard =
      if not (is_fpu_instr instr) then true
      else begin
        match u.pending with
        | Some dest when dest land 0x100 = 0 ->
          List.exists (fun f -> f = dest land 0xff) (fpu_freg_reads instr)
        | Some _ -> true  (* integer destination: conservatively drain *)
        | None -> false
      end
    in
    if hazard then fpu_drain t u
  | _ -> ()

(* ---- instruction cost model (backend independent) ---- *)

let base_cost = function
  | Isa.Li _ | Isa.Nop -> 1
  | Isa.Alu _ | Isa.Alui _ -> 1
  | Isa.Lw _ | Isa.Sw _ | Isa.Flw _ | Isa.Fsw _ -> 2
  | Isa.Beq _ | Isa.Bne _ | Isa.Blt _ | Isa.Bge _ | Isa.Bltu _ | Isa.Bgeu _ -> 1
  | Isa.Jal _ | Isa.Jalr _ -> 2
  | Isa.Fop _ | Isa.Fcmp _ -> 2
  | Isa.Fmv_wx _ | Isa.Fmv_xw _ -> 1
  | Isa.Csr_fflags _ -> 1
  | Isa.Ecall _ -> 1
  | Isa.Label _ -> 0

type slice_outcome = Paused of int | Completed of outcome

let run_raw ~on_instr ~pc ~budget t (prog : Isa.program) =
  let start_pc = pc and max_instructions = budget in
  let w = t.cfg.width in
  let fpw = Fpu_format.width t.cfg.fmt in
  let imm v = Bitvec.create ~width:w v in
  let exec_alu op rd r1 b2 =
    t.on_alu_op op (reg t r1) b2;
    match t.alu_unit with
    | None -> set_reg t rd (Alu.golden ~width:w op (reg t r1) b2)
    | Some u -> alu_issue t u op (reg t r1) b2 rd
  in
  let exec_fpu_arith op fd f1 f2 =
    t.on_fpu_op op (freg t f1) (freg t f2);
    match t.fpu_unit with
    | None ->
      let r, fl = Softfloat.apply t.cfg.fmt op (freg t f1) (freg t f2) in
      t.flags <- Fpu_format.flags_union t.flags fl;
      set_freg t fd r
    | Some u -> fpu_issue t u op (freg t f1) (freg t f2) fd
  in
  let exec_fpu_cmp op rd f1 f2 =
    t.on_fpu_op op (freg t f1) (freg t f2);
    match t.fpu_unit with
    | None ->
      let r, fl = Softfloat.apply t.cfg.fmt op (freg t f1) (freg t f2) in
      t.flags <- Fpu_format.flags_union t.flags fl;
      set_reg t rd (Bitvec.create ~width:w (Bitvec.to_int r land 1))
    | Some u -> fpu_issue t u op (freg t f1) (freg t f2) (rd lor 0x100)
  in
  let branch_taken cond target pc =
    if cond then begin
      t.cycles <- t.cycles + 1;
      t.n_branches_taken <- t.n_branches_taken + 1;
      Isa.label_address prog target
    end
    else pc + 1
  in
  let cmp_eq a b = Bitvec.is_zero (alu_value t Alu.Sub a b) in
  let cmp_lt a b = Bitvec.to_int (alu_value t Alu.Slt a b) = 1 in
  let cmp_ltu a b = Bitvec.to_int (alu_value t Alu.Sltu a b) = 1 in
  let rec loop pc fuel =
    if fuel <= 0 then Paused pc
    else if pc < 0 || pc >= Array.length prog.instrs then Completed (Exited Isa.exit_ok)
    else begin
      let instr = prog.instrs.(pc) in
      on_instr pc;
      sync_units t instr;
      t.cycles <- t.cycles + base_cost instr;
      t.retired <- t.retired + 1;
      (match instr with
      | Isa.Alu (op, _, _, _) | Isa.Alui (op, _, _, _) ->
        t.alu_counts.(Alu.op_code op) <- t.alu_counts.(Alu.op_code op) + 1
      | Isa.Fop (op, _, _, _) | Isa.Fcmp (op, _, _, _) ->
        t.fpu_counts.(Fpu_format.op_code op) <- t.fpu_counts.(Fpu_format.op_code op) + 1
      | Isa.Lw _ | Isa.Flw _ -> t.n_loads <- t.n_loads + 1
      | Isa.Sw _ | Isa.Fsw _ -> t.n_stores <- t.n_stores + 1
      | Isa.Beq _ | Isa.Bne _ | Isa.Blt _ | Isa.Bge _ | Isa.Bltu _ | Isa.Bgeu _ ->
        t.n_branches <- t.n_branches + 1
      | Isa.Jal _ | Isa.Jalr _ -> t.n_jumps <- t.n_jumps + 1
      | Isa.Fmv_wx _ | Isa.Fmv_xw _ -> t.n_moves <- t.n_moves + 1
      | Isa.Li _ | Isa.Csr_fflags _ | Isa.Ecall _ | Isa.Label _ | Isa.Nop ->
        t.n_other <- t.n_other + 1);
      let next =
        match instr with
        | Isa.Li (rd, v) ->
          set_reg t rd (imm v);
          pc + 1
        | Isa.Alu (op, rd, r1, r2) ->
          exec_alu op rd r1 (reg t r2);
          pc + 1
        | Isa.Alui (op, rd, r1, v) ->
          exec_alu op rd r1 (imm v);
          pc + 1
        | Isa.Lw (rd, base, off) ->
          set_reg t rd (mem t (Bitvec.to_int (reg t base) + off));
          pc + 1
        | Isa.Sw (rs, base, off) ->
          set_mem t (Bitvec.to_int (reg t base) + off) (reg t rs);
          pc + 1
        | Isa.Beq (a, b, l) -> branch_taken (cmp_eq (reg t a) (reg t b)) l pc
        | Isa.Bne (a, b, l) -> branch_taken (not (cmp_eq (reg t a) (reg t b))) l pc
        | Isa.Blt (a, b, l) -> branch_taken (cmp_lt (reg t a) (reg t b)) l pc
        | Isa.Bge (a, b, l) -> branch_taken (not (cmp_lt (reg t a) (reg t b))) l pc
        | Isa.Bltu (a, b, l) -> branch_taken (cmp_ltu (reg t a) (reg t b)) l pc
        | Isa.Bgeu (a, b, l) -> branch_taken (not (cmp_ltu (reg t a) (reg t b))) l pc
        | Isa.Jal (rd, l) ->
          set_reg t rd (imm (pc + 1));
          Isa.label_address prog l
        | Isa.Jalr (rd, rs) ->
          let target = Bitvec.to_int (reg t rs) in
          set_reg t rd (imm (pc + 1));
          target
        | Isa.Fop (op, fd, f1, f2) ->
          exec_fpu_arith op fd f1 f2;
          pc + 1
        | Isa.Fcmp (op, rd, f1, f2) ->
          exec_fpu_cmp op rd f1 f2;
          pc + 1
        | Isa.Flw (fd, base, off) ->
          let v = mem t (Bitvec.to_int (reg t base) + off) in
          set_freg t fd (Bitvec.create ~width:fpw (Bitvec.to_int v));
          pc + 1
        | Isa.Fsw (fs, base, off) ->
          set_mem t
            (Bitvec.to_int (reg t base) + off)
            (Bitvec.create ~width:w (Bitvec.to_int (freg t fs)));
          pc + 1
        | Isa.Fmv_wx (fd, rs) ->
          set_freg t fd (Bitvec.create ~width:fpw (Bitvec.to_int (reg t rs)));
          pc + 1
        | Isa.Fmv_xw (rd, fs) ->
          set_reg t rd (Bitvec.create ~width:w (Bitvec.to_int (freg t fs)));
          pc + 1
        | Isa.Csr_fflags rd ->
          set_reg t rd (imm (Fpu_format.flags_to_int t.flags));
          t.flags <- Fpu_format.no_flags;
          pc + 1
        | Isa.Ecall code -> raise (Exit_program code)
        | Isa.Label _ -> pc + 1
        | Isa.Nop -> pc + 1
      in
      loop next (fuel - 1)
    end
  in
  try loop start_pc max_instructions with
  | Exit_program code ->
    (* drain in-flight operations so architectural state is final *)
    (try
       Option.iter (fun u -> alu_drain t u) t.alu_unit;
       Option.iter (fun u -> fpu_drain t u) t.fpu_unit;
       Completed (Exited code)
     with Stall_detected -> Completed Stalled)
  | Stall_detected -> Completed Stalled

let run ?(max_instructions = 1_000_000) ?(on_instr = fun _ -> ()) t prog =
  match run_raw ~on_instr ~pc:0 ~budget:max_instructions t prog with
  | Paused _ -> Out_of_fuel
  | Completed o -> o

(* Run a bounded slice of [prog] starting at [pc]; [Paused pc'] hands back
   the resume point with in-flight unit operations drained, so the machine
   state at the pause is architectural (a snapshot or an interleaved test
   run can safely happen before resuming).  A drain that wedges surfaces
   as [Completed Stalled] — the watchdog outcome. *)
let run_slice ?(on_instr = fun _ -> ()) ~pc ~budget t prog =
  match run_raw ~on_instr ~pc ~budget t prog with
  | Paused pc' -> (
    try
      Option.iter (fun u -> alu_drain t u) t.alu_unit;
      Option.iter (fun u -> fpu_drain t u) t.fpu_unit;
      Paused pc'
    with Stall_detected -> Completed Stalled)
  | Completed _ as c -> c
