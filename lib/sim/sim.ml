type t = {
  netlist : Netlist.t;
  values : bool array;  (* indexed by net *)
  ones : int array;  (* SP counters; empty when profiling is off *)
  toggles : int array;  (* transition counters; empty when profiling is off *)
  prev : bool array;  (* previous sampled values, for toggle counting *)
  mutable samples : int;
  mutable cycle : int;
  scratch : bool array array;  (* per-arity input buffers, avoids allocation *)
}

let make ?(profile = false) netlist =
  let n = Netlist.num_nets netlist in
  {
    netlist;
    values = Array.make (max n 1) false;
    ones = (if profile then Array.make (max n 1) 0 else [||]);
    toggles = (if profile then Array.make (max n 1) 0 else [||]);
    prev = (if profile then Array.make (max n 1) false else [||]);
    samples = 0;
    cycle = 0;
    scratch = Array.init 4 (fun a -> Array.make a false);
  }

let netlist t = t.netlist

let eval_cell t (c : Netlist.cell) =
  let arity = Array.length c.inputs in
  let buf = t.scratch.(arity) in
  for i = 0 to arity - 1 do
    buf.(i) <- t.values.(c.inputs.(i))
  done;
  t.values.(c.output) <- Cell.Kind.eval c.kind buf

(* Hot-path counters: a guarded int store, so instrumentation adds no
   allocation whether the sink is on or off. *)
let tele_cycles = Telemetry.Counter.make "sim.cycles"
let tele_gate_evals = Telemetry.Counter.make "sim.gate_evals"

let settle t =
  let cells = Netlist.cells t.netlist in
  let order = Netlist.topo_order t.netlist in
  Array.iter (fun id -> eval_cell t cells.(id)) order;
  Telemetry.Counter.add tele_gate_evals (Array.length order)

let reset t =
  Array.fill t.values 0 (Array.length t.values) false;
  if Array.length t.ones > 0 then begin
    Array.fill t.ones 0 (Array.length t.ones) 0;
    Array.fill t.toggles 0 (Array.length t.toggles) 0;
    Array.fill t.prev 0 (Array.length t.prev) false
  end;
  t.samples <- 0;
  t.cycle <- 0;
  let cells = Netlist.cells t.netlist in
  List.iter
    (fun id ->
      let c = cells.(id) in
      t.values.(c.output) <- c.reset_value)
    (Netlist.dffs t.netlist);
  settle t

let create ?profile netlist =
  let t = make ?profile netlist in
  reset t;
  t

let set_input t port v =
  let p = Netlist.find_input t.netlist port in
  let width = Array.length p.port_nets in
  if Bitvec.width v <> width then
    invalid_arg
      (Printf.sprintf "Sim.set_input: port %s has width %d, value has width %d" port width
         (Bitvec.width v));
  Array.iteri (fun i n -> t.values.(n) <- Bitvec.bit v i) p.port_nets

let set_input_bit t port bit v =
  let p = Netlist.find_input t.netlist port in
  if bit < 0 || bit >= Array.length p.port_nets then
    invalid_arg (Printf.sprintf "Sim.set_input_bit: port %s has no bit %d" port bit);
  t.values.(p.port_nets.(bit)) <- v

let sample_sp t =
  if Array.length t.ones > 0 then begin
    for n = 0 to Array.length t.values - 1 do
      if t.values.(n) then t.ones.(n) <- t.ones.(n) + 1;
      if t.samples > 0 && t.values.(n) <> t.prev.(n) then
        t.toggles.(n) <- t.toggles.(n) + 1;
      t.prev.(n) <- t.values.(n)
    done;
    t.samples <- t.samples + 1
  end

let step ?(sample = true) t =
  settle t;
  if sample then sample_sp t;
  let cells = Netlist.cells t.netlist in
  let dffs = Netlist.dffs t.netlist in
  (* Two-phase edge: latch all D values, then update all Qs. *)
  let captured = List.map (fun id -> (id, t.values.(cells.(id).inputs.(0)))) dffs in
  List.iter (fun (id, d) -> t.values.(cells.(id).output) <- d) captured;
  t.cycle <- t.cycle + 1;
  Telemetry.Counter.incr tele_cycles;
  settle t

let hold_clock t =
  settle t;
  sample_sp t

let cycle t = t.cycle
let net t n = t.values.(n)

(* ---- state snapshots (checkpoint/rollback support) ---- *)

type snapshot = {
  snap_values : bool array;
  snap_ones : int array;
  snap_toggles : int array;
  snap_prev : bool array;
  snap_samples : int;
  snap_cycle : int;
}

let snapshot t =
  {
    snap_values = Array.copy t.values;
    snap_ones = Array.copy t.ones;
    snap_toggles = Array.copy t.toggles;
    snap_prev = Array.copy t.prev;
    snap_samples = t.samples;
    snap_cycle = t.cycle;
  }

let restore t s =
  if Array.length s.snap_values <> Array.length t.values then
    invalid_arg "Sim.restore: snapshot was taken on a different netlist";
  Array.blit s.snap_values 0 t.values 0 (Array.length t.values);
  if Array.length t.ones > 0 && Array.length s.snap_ones = Array.length t.ones then begin
    Array.blit s.snap_ones 0 t.ones 0 (Array.length t.ones);
    Array.blit s.snap_toggles 0 t.toggles 0 (Array.length t.toggles);
    Array.blit s.snap_prev 0 t.prev 0 (Array.length t.prev)
  end;
  t.samples <- s.snap_samples;
  t.cycle <- s.snap_cycle

let port_value t (p : Netlist.port) =
  let width = Array.length p.port_nets in
  let v = ref (Bitvec.zero width) in
  Array.iteri (fun i n -> if t.values.(n) then v := Bitvec.set_bit !v i true) p.port_nets;
  !v

let output t port = port_value t (Netlist.find_output t.netlist port)
let input_value t port = port_value t (Netlist.find_input t.netlist port)

let peek_cell t name =
  let c = Netlist.find_cell t.netlist name in
  t.values.(c.output)

let check_profiling t =
  if Array.length t.ones = 0 then
    invalid_arg "Sim: simulator was created without ~profile:true";
  if t.samples = 0 then invalid_arg "Sim: no cycles sampled yet"

let sp t n =
  check_profiling t;
  float_of_int t.ones.(n) /. float_of_int t.samples

let sp_of_cell t name =
  let c = Netlist.find_cell t.netlist name in
  sp t c.output

let sp_profile t =
  check_profiling t;
  Array.to_list (Netlist.cells t.netlist)
  |> List.map (fun (c : Netlist.cell) -> (c.name, sp t c.output))

let toggle_rate t n =
  check_profiling t;
  if t.samples < 2 then 0.0 else float_of_int t.toggles.(n) /. float_of_int (t.samples - 1)

let samples t = t.samples

let run t ~cycles ~stimulus =
  for i = 0 to cycles - 1 do
    List.iter (fun (port, v) -> set_input t port v) (stimulus i);
    step t
  done

let run_random ?(seed = 0x5eed) t ~cycles =
  let rng = Random.State.make [| seed |] in
  let ports = Netlist.inputs t.netlist in
  for _ = 1 to cycles do
    List.iter
      (fun (p : Netlist.port) ->
        let width = Array.length p.port_nets in
        let v =
          if width <= 30 then Random.State.bits rng
          else Random.State.bits rng lor (Random.State.bits rng lsl 30)
        in
        set_input t p.port_name (Bitvec.create ~width v))
      ports;
    step t
  done
