(* Word-parallel ("parallel-pattern") gate-level simulation, PPSFP-style:
   every net holds one native int whose bits are independent simulation
   lanes, so a single land/lor/lxor evaluates [lanes] patterns at once.

   Its one job is the short detection sweep: compile a fresh faulty
   netlist, run it for a few cycles, compare outputs.  Compiling here is a
   single copy of the topo order into opcode arrays, several times
   cheaper than Simc's optimizing compile, which is what such sweeps pay
   for most.

   Words are treated strictly as bit patterns: only land/lor/lxor/lnot/lsr
   touch them (never asr, never arithmetic), so the top (sign) bit is an
   ordinary lane.  [lnot] flips all [Sys.int_size] value bits, which is why
   no per-gate masking is needed: every bit of the word IS a lane. *)

let lanes = Sys.int_size
let all_lanes = -1 (* as a bit pattern: every lane bit set *)

(* 16-bit-table popcount over the full native word.  SWAR constants such as
   0x5555555555555555 do not fit in a 63-bit literal, so a lookup table it
   is; four probes per word, still far cheaper than 63 branches. *)
let pop_table =
  let t = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec count x = if x = 0 then 0 else (x land 1) + count (x lsr 1) in
    Bytes.unsafe_set t i (Char.unsafe_chr (count i))
  done;
  t

let popcount x =
  (* [lsr] on the 63-bit int leaves the top chunk below 2^15, in range. *)
  Bytes.get_uint8 pop_table (x land 0xffff)
  + Bytes.get_uint8 pop_table ((x lsr 16) land 0xffff)
  + Bytes.get_uint8 pop_table ((x lsr 32) land 0xffff)
  + Bytes.get_uint8 pop_table (x lsr 48)

let random_word rng =
  (* 63 independent random bits *)
  Random.State.bits rng
  lor (Random.State.bits rng lsl 30)
  lor ((Random.State.bits rng land 0x7) lsl 60)

(* Combinational cells are compiled once into a flat "program" (parallel
   arrays of int opcodes and net indices in topo order) so the settle loop
   is a single tight pass with an integer dispatch — no per-cell closure,
   no scratch-buffer copying, no [Cell.Kind.eval] arity checks. *)
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
  | Cell.Kind.Dff -> invalid_arg "Sim64: Dff is not a combinational opcode"

type t = {
  netlist : Netlist.t;
  values : int array;  (* indexed by net; one lane per bit *)
  prog_op : int array;  (* compiled topo-order combinational program *)
  prog_in0 : int array;
  prog_in1 : int array;
  prog_in2 : int array;
  prog_out : int array;
  dff_d : int array;  (* D input net per DFF *)
  dff_q : int array;  (* Q output net per DFF *)
  dff_reset : int array;  (* reset word per DFF: 0 or all-lanes *)
  edge_buf : int array;  (* captured D words; avoids per-edge allocation *)
}

let compile netlist =
  let cells = Netlist.cells netlist in
  let topo = Netlist.topo_order netlist in
  let n = Array.length topo in
  let prog_op = Array.make n 0
  and prog_in0 = Array.make n 0
  and prog_in1 = Array.make n 0
  and prog_in2 = Array.make n 0
  and prog_out = Array.make n 0 in
  Array.iteri
    (fun i id ->
      let c = cells.(id) in
      prog_op.(i) <- opcode_of_kind c.Netlist.kind;
      let arity = Array.length c.inputs in
      if arity > 0 then prog_in0.(i) <- c.inputs.(0);
      if arity > 1 then prog_in1.(i) <- c.inputs.(1);
      if arity > 2 then prog_in2.(i) <- c.inputs.(2);
      prog_out.(i) <- c.output)
    topo;
  (prog_op, prog_in0, prog_in1, prog_in2, prog_out)

(* Hot-path counters.  [Counter.add] is a guarded int store — no
   allocation either way — which is what lets the settle loop stay
   instrumented permanently (the overhead regression test asserts
   identical [Gc.minor_words] with the sink disabled). *)
let tele_cycles = Telemetry.Counter.make "sim64.cycles"
let tele_gate_evals = Telemetry.Counter.make "sim64.gate_evals"

let settle t =
  let v = t.values in
  let op = t.prog_op
  and i0 = t.prog_in0
  and i1 = t.prog_in1
  and i2 = t.prog_in2
  and out = t.prog_out in
  let n = Array.length op in
  for i = 0 to n - 1 do
    let r =
      match op.(i) with
      | 0 (* Tie0 *) -> 0
      | 1 (* Tie1 *) -> all_lanes
      | 2 (* Buf *) -> v.(i0.(i))
      | 3 (* Not *) -> lnot v.(i0.(i))
      | 4 (* And2 *) -> v.(i0.(i)) land v.(i1.(i))
      | 5 (* Or2 *) -> v.(i0.(i)) lor v.(i1.(i))
      | 6 (* Xor2 *) -> v.(i0.(i)) lxor v.(i1.(i))
      | 7 (* Nand2 *) -> lnot (v.(i0.(i)) land v.(i1.(i)))
      | 8 (* Nor2 *) -> lnot (v.(i0.(i)) lor v.(i1.(i)))
      | 9 (* Xnor2 *) -> lnot (v.(i0.(i)) lxor v.(i1.(i)))
      | 10 (* Mux2: inputs.(2) selects between inputs.(0) and inputs.(1) *) ->
        let s = v.(i2.(i)) in
        (v.(i1.(i)) land s) lor (v.(i0.(i)) land lnot s)
      | _ -> assert false
    in
    v.(out.(i)) <- r
  done;
  Telemetry.Counter.add tele_gate_evals n

(* The trailing [settle] leaves every net consistent, mirroring [Sim]. *)
let reset t =
  Array.fill t.values 0 (Array.length t.values) 0;
  for i = 0 to Array.length t.dff_q - 1 do
    t.values.(t.dff_q.(i)) <- t.dff_reset.(i)
  done;
  settle t

let create netlist =
  let n = Netlist.num_nets netlist in
  let cells = Netlist.cells netlist in
  let dff_ids = Array.of_list (Netlist.dffs netlist) in
  let nd = Array.length dff_ids in
  let prog_op, prog_in0, prog_in1, prog_in2, prog_out = compile netlist in
  let t =
    {
      netlist;
      values = Array.make (max n 1) 0;
      prog_op;
      prog_in0;
      prog_in1;
      prog_in2;
      prog_out;
      dff_d = Array.map (fun id -> cells.(id).Netlist.inputs.(0)) dff_ids;
      dff_q = Array.map (fun id -> cells.(id).Netlist.output) dff_ids;
      dff_reset =
        Array.map (fun id -> if cells.(id).Netlist.reset_value then all_lanes else 0) dff_ids;
      edge_buf = Array.make (max nd 1) 0;
    }
  in
  reset t;
  t

let set_input_words t port words =
  let p = Netlist.find_input t.netlist port in
  let width = Array.length p.port_nets in
  if Array.length words <> width then
    invalid_arg
      (Printf.sprintf "Sim64.set_input_words: port %s has width %d, got %d words" port width
         (Array.length words));
  Array.iteri (fun i n -> t.values.(n) <- words.(i)) p.port_nets

let step t =
  settle t;
  let nd = Array.length t.dff_d in
  (* Two-phase edge: latch all D words, then update all Qs. *)
  for i = 0 to nd - 1 do
    t.edge_buf.(i) <- t.values.(t.dff_d.(i))
  done;
  for i = 0 to nd - 1 do
    t.values.(t.dff_q.(i)) <- t.edge_buf.(i)
  done;
  Telemetry.Counter.incr tele_cycles;
  settle t

let net_word t n = t.values.(n)

let output_words t port =
  Array.map (fun n -> t.values.(n)) (Netlist.find_output t.netlist port).Netlist.port_nets
