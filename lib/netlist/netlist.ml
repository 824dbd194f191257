type net = int

type cell = {
  id : int;
  kind : Cell.Kind.t;
  name : string;
  inputs : net array;
  output : net;
  clock_domain : int;
  reset_value : bool;
}

type port = { port_name : string; port_nets : net array }

type driver = Driven_by_cell of int | Driven_by_input of string * int

(* Cell name -> id.  A netlist built by extending another keeps that one's
   table and holds only its new names in [table]; a lookup walks the chain,
   which is cut to a flat table every [max_names_depth] links.  Never
   mutated once the netlist is built, so domains may share it. *)
type names = { table : (string, int) Hashtbl.t; up : names option; depth : int }

let max_names_depth = 8

let rec find_id names name =
  match Hashtbl.find_opt names.table name with
  | Some _ as id -> id
  | None -> ( match names.up with Some up -> find_id up name | None -> None)

type t = {
  name : string;
  cells : cell array;
  num_nets : int;
  inputs : port list;
  outputs : port list;
  drivers : driver array;
  readers : int list array;
  topo : int array option Atomic.t;  (* computed on first read *)
  dffs : int list;
  by_name : names;
}

let cycle_error name = invalid_arg (Printf.sprintf "Netlist %s: combinational cycle detected" name)

(* Kahn topological sort over combinational cells only.  The result
   doubles as the FIFO queue: cells enter it in the order they are emitted.
   [indeg] is -1 for a DFF, so its readers never queue it. *)
let kahn name cells drivers readers =
  let comb_driven n =
    match drivers.(n) with
    | Driven_by_cell id -> not (Cell.Kind.is_sequential cells.(id).kind)
    | Driven_by_input _ -> false
  in
  let indeg = Array.make (Array.length cells) (-1) in
  let ncomb = ref 0 in
  Array.iter
    (fun (c : cell) ->
      if not (Cell.Kind.is_sequential c.kind) then begin
        incr ncomb;
        indeg.(c.id) <- Array.fold_left (fun d n -> if comb_driven n then d + 1 else d) 0 c.inputs
      end)
    cells;
  let topo = Array.make !ncomb 0 in
  let tail = ref 0 in
  Array.iteri
    (fun id d ->
      if d = 0 then begin
        topo.(!tail) <- id;
        incr tail
      end)
    indeg;
  let head = ref 0 in
  while !head < !tail do
    let id = topo.(!head) in
    incr head;
    List.iter
      (fun rid ->
        let d = indeg.(rid) in
        if d > 0 then begin
          indeg.(rid) <- d - 1;
          if d = 1 then begin
            topo.(!tail) <- rid;
            incr tail
          end
        end)
      readers.(cells.(id).output)
  done;
  if !tail <> !ncomb then cycle_error name;
  topo

let name t = t.name
let num_cells t = Array.length t.cells
let num_nets t = t.num_nets
let cell t i = t.cells.(i)
let cells t = t.cells
let inputs t = t.inputs
let outputs t = t.outputs

let find_port ports what name =
  match List.find_opt (fun p -> String.equal p.port_name name) ports with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Netlist: no %s port named %s" what name)

let find_input t name = find_port t.inputs "input" name
let find_output t name = find_port t.outputs "output" name
let driver t n = t.drivers.(n)
let readers t n = t.readers.(n)

let output_readers t n =
  List.concat_map
    (fun p ->
      Array.to_list p.port_nets
      |> List.mapi (fun i pn -> (i, pn))
      |> List.filter_map (fun (i, pn) -> if pn = n then Some (p.port_name, i) else None))
    t.outputs

(* Domains share netlists, so two may both find the cache empty: each
   computes the same array and either may land. *)
let topo_order t =
  match Atomic.get t.topo with
  | Some topo -> topo
  | None ->
    let topo = kahn t.name t.cells t.drivers t.readers in
    Atomic.set t.topo (Some topo);
    topo
let dffs t = t.dffs

let find_cell t name =
  match find_id t.by_name name with
  | Some i -> t.cells.(i)
  | None -> raise Not_found

let net_name t n =
  match t.drivers.(n) with
  | Driven_by_input (port, bit) -> Printf.sprintf "%s[%d]" port bit
  | Driven_by_cell id ->
    let c = t.cells.(id) in
    let pin = if Cell.Kind.is_sequential c.kind then "Q" else "Y" in
    Printf.sprintf "%s.%s" c.name pin

let net_of_port_bit t port bit =
  let p =
    match List.find_opt (fun p -> String.equal p.port_name port) (t.inputs @ t.outputs) with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "Netlist: no port named %s" port)
  in
  if bit < 0 || bit >= Array.length p.port_nets then
    invalid_arg (Printf.sprintf "Netlist: port %s has no bit %d" port bit);
  p.port_nets.(bit)

let fanout_cone t start_net =
  let seen = Array.make (Array.length t.cells) false in
  let rec visit_net n =
    List.iter
      (fun id ->
        if not seen.(id) then begin
          seen.(id) <- true;
          visit_net t.cells.(id).output
        end)
      t.readers.(n)
  in
  visit_net start_net;
  let acc = ref [] in
  for id = Array.length t.cells - 1 downto 0 do
    if seen.(id) then acc := id :: !acc
  done;
  !acc

let fanin_cone t end_net =
  let seen = Array.make (Array.length t.cells) false in
  let rec visit_net n =
    match t.drivers.(n) with
    | Driven_by_input _ -> ()
    | Driven_by_cell id ->
      if not seen.(id) then begin
        seen.(id) <- true;
        Array.iter visit_net t.cells.(id).inputs
      end
  in
  visit_net end_net;
  let acc = ref [] in
  for id = Array.length t.cells - 1 downto 0 do
    if seen.(id) then acc := id :: !acc
  done;
  !acc

let logic_depth t =
  let depth = Array.make t.num_nets 0 in
  Array.iter
    (fun id ->
      let c = t.cells.(id) in
      let d = Array.fold_left (fun acc n -> max acc depth.(n)) 0 c.inputs in
      depth.(c.output) <- d + 1)
    (topo_order t);
  Array.fold_left max 0 depth

let stats t =
  let counts = Hashtbl.create 16 in
  Array.iter
    (fun (c : cell) ->
      let n = try Hashtbl.find counts c.kind with Not_found -> 0 in
      Hashtbl.replace counts c.kind (n + 1))
    t.cells;
  List.filter_map
    (fun k -> match Hashtbl.find_opt counts k with Some n -> Some (k, n) | None -> None)
    Cell.Kind.all

let sanitize_id s =
  String.map (fun c -> if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' then c else '_') s

let to_verilog t =
  let buf = Buffer.create 4096 in
  let net_id n = Printf.sprintf "n%d" n in
  let ports =
    List.map (fun p -> (p, "input")) t.inputs @ List.map (fun p -> (p, "output")) t.outputs
  in
  Buffer.add_string buf (Printf.sprintf "module %s (clk, rst" (sanitize_id t.name));
  List.iter (fun (p, _) -> Buffer.add_string buf (Printf.sprintf ", %s" p.port_name)) ports;
  Buffer.add_string buf ");\n  input wire clk, rst;\n";
  List.iter
    (fun (p, dir) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s wire [%d:0] %s;\n" dir (Array.length p.port_nets - 1) p.port_name))
    ports;
  for n = 0 to t.num_nets - 1 do
    Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (net_id n))
  done;
  for n = 0 to t.num_nets - 1 do
    match t.drivers.(n) with
    | Driven_by_input (port, bit) ->
      Buffer.add_string buf (Printf.sprintf "  assign %s = %s[%d];\n" (net_id n) port bit)
    | Driven_by_cell _ -> ()
  done;
  Array.iter
    (fun (c : cell) ->
      let args = Array.to_list c.inputs |> List.map net_id |> String.concat ", " in
      if Cell.Kind.is_sequential c.kind then
        Buffer.add_string buf
          (Printf.sprintf "  DFF #(.INIT(1'b%d), .DOMAIN(%d)) %s (.C(clk), .R(rst), .D(%s), .Q(%s));\n"
             (if c.reset_value then 1 else 0)
             c.clock_domain (sanitize_id c.name) args (net_id c.output))
      else if args = "" then
        Buffer.add_string buf
          (Printf.sprintf "  %s %s (%s);\n" (Cell.Kind.to_string c.kind) (sanitize_id c.name)
             (net_id c.output))
      else
        Buffer.add_string buf
          (Printf.sprintf "  %s %s (%s, %s);\n" (Cell.Kind.to_string c.kind)
             (sanitize_id c.name) (net_id c.output) args))
    t.cells;
  List.iter
    (fun p ->
      Array.iteri
        (fun i n ->
          Buffer.add_string buf (Printf.sprintf "  assign %s[%d] = %s;\n" p.port_name i (net_id n)))
        p.port_nets)
    t.outputs;
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let to_dot t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" (sanitize_id t.name));
  List.iter
    (fun p ->
      Array.iteri
        (fun i _ ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s[%d]\" [shape=cds,style=filled,fillcolor=lightgray];\n"
               p.port_name i))
        p.port_nets)
    t.inputs;
  Array.iter
    (fun (c : cell) ->
      let shape = if Cell.Kind.is_sequential c.kind then "box3d" else "box" in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [shape=%s,label=\"%s\\n%s\"];\n" c.name shape c.name
           (Cell.Kind.to_string c.kind)))
    t.cells;
  Array.iter
    (fun (c : cell) ->
      Array.iter
        (fun n ->
          match t.drivers.(n) with
          | Driven_by_input (port, bit) ->
            Buffer.add_string buf (Printf.sprintf "  \"%s[%d]\" -> \"%s\";\n" port bit c.name)
          | Driven_by_cell src ->
            Buffer.add_string buf
              (Printf.sprintf "  \"%s\" -> \"%s\";\n" t.cells.(src).name c.name))
        c.inputs)
    t.cells;
  List.iter
    (fun p ->
      Array.iteri
        (fun i n ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s[%d]out\" [shape=cds,style=filled,fillcolor=lightyellow,label=\"%s[%d]\"];\n"
               p.port_name i p.port_name i);
          match t.drivers.(n) with
          | Driven_by_cell src ->
            Buffer.add_string buf
              (Printf.sprintf "  \"%s\" -> \"%s[%d]out\";\n" t.cells.(src).name p.port_name i)
          | Driven_by_input (port, bit) ->
            Buffer.add_string buf
              (Printf.sprintf "  \"%s[%d]\" -> \"%s[%d]out\";\n" port bit p.port_name i))
        p.port_nets)
    t.outputs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

module Raw = struct
  type rcell = {
    rc_name : string;
    rc_kind : Cell.Kind.t;
    rc_inputs : net array;
    rc_output : net;
    rc_clock_domain : int;
    rc_reset_value : bool;
  }

  type rport = { rp_name : string; rp_nets : net array }

  type t = {
    r_name : string;
    r_num_nets : int;
    r_cells : rcell array;
    r_inputs : rport list;
    r_outputs : rport list;
  }
end

let raw_of name num_nets cells inputs outputs =
  let rport p = { Raw.rp_name = p.port_name; rp_nets = Array.copy p.port_nets } in
  {
    Raw.r_name = name;
    r_num_nets = num_nets;
    r_cells =
      Array.map
        (fun (c : cell) ->
          {
            Raw.rc_name = c.name;
            rc_kind = c.kind;
            rc_inputs = Array.copy c.inputs;
            rc_output = c.output;
            rc_clock_domain = c.clock_domain;
            rc_reset_value = c.reset_value;
          })
        cells;
    r_inputs = List.map rport inputs;
    r_outputs = List.map rport outputs;
  }

let raw t = raw_of t.name t.num_nets t.cells t.inputs t.outputs

module Builder = struct
  type netlist = t

  (* An extending builder starts from the parent's cell records and copies
     one only when it is first edited; the parent is never mutated. *)
  type t = {
    b_netlist_name : string;
    parent : netlist option;
    mutable next_net : int;
    mutable cells_arr : cell array;  (* cells indexed by id; grows *)
    mutable count : int;
    mutable rev_inputs : port list;
    mutable rev_outputs : port list;
    names : (string, int) Hashtbl.t;  (* cells added to this builder *)
    mutable anon : int;
    mutable copied : int list;  (* ids of the parent's records copied on edit *)
  }

  let create netlist_name =
    {
      b_netlist_name = netlist_name;
      parent = None;
      next_net = 0;
      cells_arr = [||];
      count = 0;
      rev_inputs = [];
      rev_outputs = [];
      names = Hashtbl.create 64;
      anon = 0;
      copied = [];
    }

  let push_cell b c =
    if b.count >= Array.length b.cells_arr then begin
      let cap = max 64 (2 * Array.length b.cells_arr) in
      let arr = Array.make cap c in
      Array.blit b.cells_arr 0 arr 0 b.count;
      b.cells_arr <- arr
    end;
    b.cells_arr.(b.count) <- c;
    b.count <- b.count + 1

  let of_netlist (nl : netlist) =
    {
      (create nl.name) with
      parent = Some nl;
      next_net = nl.num_nets;
      cells_arr =
        (* room for the cells an extension adds, so that the first of them
           does not double the copy *)
        (match nl.cells with
        | [||] -> [||]
        | cells -> Array.append cells (Array.make 64 cells.(0)));
      count = Array.length nl.cells;
      rev_inputs = List.rev nl.inputs;
      rev_outputs = List.rev nl.outputs;
      names = Hashtbl.create 16;
    }

  (* Is [c], at [id], still the parent's own record? *)
  let shared b id c =
    match b.parent with Some p -> id < Array.length p.cells && p.cells.(id) == c | None -> false

  (* The cell at [id], copied first if it is still the parent's. *)
  let own b id =
    let c = b.cells_arr.(id) in
    if not (shared b id c) then c
    else begin
      let c = { c with inputs = Array.copy c.inputs } in
      b.cells_arr.(id) <- c;
      b.copied <- id :: b.copied;
      c
    end

  let fresh_net b =
    let n = b.next_net in
    b.next_net <- n + 1;
    n

  let add_input b name width =
    if List.exists (fun p -> String.equal p.port_name name) b.rev_inputs then
      invalid_arg (Printf.sprintf "Builder.add_input: duplicate port %s" name);
    let nets = Array.init width (fun _ -> fresh_net b) in
    b.rev_inputs <- { port_name = name; port_nets = nets } :: b.rev_inputs;
    nets

  let add_output b name nets =
    if List.exists (fun p -> String.equal p.port_name name) b.rev_outputs then
      invalid_arg (Printf.sprintf "Builder.add_output: duplicate port %s" name);
    b.rev_outputs <- { port_name = name; port_nets = Array.copy nets } :: b.rev_outputs

  let add_cell_with_id ?name ?(clock_domain = -1) ?(reset_value = false) b kind inputs =
    let arity = Cell.Kind.arity kind in
    if Array.length inputs <> arity then
      invalid_arg
        (Printf.sprintf "Builder.add_cell: %s expects %d inputs, got %d"
           (Cell.Kind.to_string kind) arity (Array.length inputs));
    Array.iter
      (fun n ->
        if n < 0 || n >= b.next_net then
          invalid_arg (Printf.sprintf "Builder.add_cell: unknown net %d" n))
      inputs;
    let name =
      match name with
      | Some n -> n
      | None ->
        b.anon <- b.anon + 1;
        Printf.sprintf "_%s_%d" (String.lowercase_ascii (Cell.Kind.to_string kind)) b.anon
    in
    let in_parent = match b.parent with Some p -> find_id p.by_name name <> None | None -> false in
    if in_parent || Hashtbl.mem b.names name then
      invalid_arg (Printf.sprintf "Builder.add_cell: duplicate cell name %s" name);
    let id = b.count in
    Hashtbl.replace b.names name id;
    let output = fresh_net b in
    push_cell b
      {
        id;
        kind;
        name;
        inputs = Array.copy inputs;
        output;
        clock_domain = (if Cell.Kind.is_sequential kind then clock_domain else -1);
        reset_value;
      };
    (id, output)

  let add_cell ?name ?clock_domain ?reset_value b kind inputs =
    snd (add_cell_with_id ?name ?clock_domain ?reset_value b kind inputs)

  let num_cells b = b.count

  let rewire_input b ~cell_id ~pin net =
    if cell_id < 0 || cell_id >= b.count then
      invalid_arg (Printf.sprintf "Builder.rewire_input: no cell %d" cell_id);
    let c = b.cells_arr.(cell_id) in
    if pin < 0 || pin >= Array.length c.inputs then
      invalid_arg (Printf.sprintf "Builder.rewire_input: cell %s has no pin %d" c.name pin);
    if net < 0 || net >= b.next_net then
      invalid_arg (Printf.sprintf "Builder.rewire_input: unknown net %d" net);
    (own b cell_id).inputs.(pin) <- net

  let rewire_output b ~port ~bit net =
    if net < 0 || net >= b.next_net then
      invalid_arg (Printf.sprintf "Builder.rewire_output: unknown net %d" net);
    let rec go = function
      | [] -> invalid_arg (Printf.sprintf "Builder.rewire_output: no output port %s" port)
      | p :: rest when String.equal p.port_name port ->
        if bit < 0 || bit >= Array.length p.port_nets then
          invalid_arg (Printf.sprintf "Builder.rewire_output: port %s has no bit %d" port bit);
        (* copy: [of_netlist] shares port-net arrays with the source netlist *)
        let nets = Array.copy p.port_nets in
        nets.(bit) <- net;
        { p with port_nets = nets } :: rest
      | p :: rest -> p :: go rest
    in
    b.rev_outputs <- go b.rev_outputs

  let set_kind b ~cell_id kind =
    if cell_id < 0 || cell_id >= b.count then
      invalid_arg (Printf.sprintf "Builder.set_kind: no cell %d" cell_id);
    let c = b.cells_arr.(cell_id) in
    if Cell.Kind.arity kind <> Array.length c.inputs then
      invalid_arg
        (Printf.sprintf "Builder.set_kind: %s expects %d inputs, cell %s has %d"
           (Cell.Kind.to_string kind) (Cell.Kind.arity kind) c.name (Array.length c.inputs));
    if Cell.Kind.is_sequential kind <> Cell.Kind.is_sequential c.kind then
      invalid_arg
        (Printf.sprintf "Builder.set_kind: cannot change sequentiality of cell %s" c.name);
    b.cells_arr.(cell_id) <- { (own b cell_id) with kind }

  let cell_output b id =
    if id < 0 || id >= b.count then
      invalid_arg (Printf.sprintf "Builder.cell_output: no cell %d" id);
    b.cells_arr.(id).output

  let raw b =
    raw_of b.b_netlist_name b.next_net (Array.sub b.cells_arr 0 b.count) (List.rev b.rev_inputs)
      (List.rev b.rev_outputs)

  let by_name b cells =
    match b.parent with
    | Some p when p.by_name.depth < max_names_depth ->
      { table = Hashtbl.copy b.names; up = Some p.by_name; depth = p.by_name.depth + 1 }
    | _ ->
      let table = Hashtbl.create (Array.length cells) in
      Array.iter (fun (c : cell) -> Hashtbl.replace table c.name c.id) cells;
      { table; up = None; depth = 0 }

  let undriven = Driven_by_cell (-1)

  (* Undriven nets that nothing reads are tolerated (they arise from
     rewiring); undriven nets that feed a cell or output port are errors. *)
  let check_driven b num_nets drivers what name n =
    let driven =
      n >= 0 && n < num_nets
      && match drivers.(n) with Driven_by_cell id -> id >= 0 | Driven_by_input _ -> true
    in
    if not driven then
      invalid_arg
        (Printf.sprintf "Netlist %s: %s %s reads undriven net %d" b.b_netlist_name what name n)

  (* Every table derived from every cell: the netlist [finish] gives, and
     the reference its extension path is tested against. *)
  let finish_full b =
    let num_nets = b.next_net in
    (* the parent's untouched records are reused as they are; the
       builder's own are copied, so later edits cannot reach the result *)
    let cells =
      Array.init b.count (fun i ->
          let c = b.cells_arr.(i) in
          if shared b i c then c else { c with inputs = Array.copy c.inputs })
    in
    let inputs = List.rev b.rev_inputs and outputs = List.rev b.rev_outputs in
    let drivers = Array.make (max num_nets 1) undriven in
    let driven = Array.make num_nets false in
    List.iter
      (fun p ->
        Array.iteri
          (fun bit n ->
            if driven.(n) then
              invalid_arg (Printf.sprintf "Netlist %s: net %d driven twice" b.b_netlist_name n);
            driven.(n) <- true;
            drivers.(n) <- Driven_by_input (p.port_name, bit))
          p.port_nets)
      inputs;
    Array.iter
      (fun (c : cell) ->
        if driven.(c.output) then
          invalid_arg
            (Printf.sprintf "Netlist %s: net %d (output of %s) driven twice" b.b_netlist_name
               c.output c.name);
        driven.(c.output) <- true;
        drivers.(c.output) <- Driven_by_cell c.id)
      cells;
    let check_driven = check_driven b num_nets drivers in
    Array.iter (fun (c : cell) -> Array.iter (check_driven "cell" c.name) c.inputs) cells;
    List.iter (fun p -> Array.iter (check_driven "output port" p.port_name) p.port_nets) outputs;
    let readers = Array.make (max num_nets 1) [] in
    Array.iter
      (fun (c : cell) -> Array.iter (fun n -> readers.(n) <- c.id :: readers.(n)) c.inputs)
      cells;
    for n = 0 to num_nets - 1 do
      readers.(n) <- List.rev readers.(n)
    done;
    let topo = kahn b.b_netlist_name cells drivers readers in
    let dffs =
      Array.to_list cells
      |> List.filter_map (fun c -> if Cell.Kind.is_sequential c.kind then Some c.id else None)
    in
    {
      name = b.b_netlist_name;
      cells;
      num_nets;
      inputs;
      outputs;
      drivers;
      readers;
      topo = Atomic.make (Some topo);
      dffs;
      by_name = by_name b cells;
    }

  (* Merge two ascending id lists. *)
  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | x :: a', y :: _ when x <= y -> x :: merge a' b
    | _, y :: b' -> y :: merge a b'

  (* [finish] of a builder from [of_netlist p]: the parent's tables patched
     where the builder changed them, so the cost follows the edits.  Only
     the cells the builder copied or appended read differently from [p];
     [p]'s nets keep their drivers (a cell keeps its output, ports stay),
     every new net is a new port bit or a new cell's output, and a DFF
     stays a DFF.  So the checks and reader lists that can change are
     those of the changed cells, and every new combinational cycle runs
     through one of them.  The topological order is left to
     [topo_order]. *)
  let finish_extension b (p : netlist) =
    let num_nets = b.next_net in
    let pcells = Array.length p.cells and pnets = p.num_nets in
    let copied = List.sort_uniq compare b.copied in
    let appended = List.init (b.count - pcells) (fun i -> pcells + i) in
    let changed = copied @ appended in
    let cells = Array.sub b.cells_arr 0 b.count in
    List.iter
      (fun id -> cells.(id) <- { (cells.(id)) with inputs = Array.copy cells.(id).inputs })
      changed;
    let inputs = List.rev b.rev_inputs and outputs = List.rev b.rev_outputs in
    let drivers = Array.make (max num_nets 1) undriven in
    Array.blit p.drivers 0 drivers 0 pnets;
    List.iter
      (fun port ->
        Array.iteri
          (fun bit n -> if n >= pnets then drivers.(n) <- Driven_by_input (port.port_name, bit))
          port.port_nets)
      inputs;
    List.iter (fun id -> drivers.(cells.(id).output) <- Driven_by_cell id) appended;
    let check_driven = check_driven b num_nets drivers in
    List.iter
      (fun id -> Array.iter (check_driven "cell" cells.(id).name) cells.(id).inputs)
      changed;
    List.iter (fun p -> Array.iter (check_driven "output port" p.port_name) p.port_nets) outputs;
    (* reader lists: a copied cell leaves the lists of its old inputs, and
       every changed cell joins those of its new ones, in id order *)
    let readers = Array.make (max num_nets 1) [] in
    Array.blit p.readers 0 readers 0 pnets;
    let is_copied = Hashtbl.create 8 in
    List.iter (fun id -> Hashtbl.replace is_copied id ()) copied;
    let joins = Hashtbl.create 64 in
    List.iter
      (fun id -> Array.iter (fun n -> Hashtbl.replace joins n []) p.cells.(id).inputs)
      copied;
    let join id n =
      Hashtbl.replace joins n (id :: Option.value ~default:[] (Hashtbl.find_opt joins n))
    in
    List.iter (fun id -> Array.iter (join id) cells.(id).inputs) (List.rev changed);
    Hashtbl.iter
      (fun n ids ->
        let kept = List.filter (fun id -> not (Hashtbl.mem is_copied id)) readers.(n) in
        readers.(n) <- merge kept ids)
      joins;
    (* a new combinational cycle: a depth-first walk along readers from
       each changed combinational cell, over combinational cells *)
    let comb id = not (Cell.Kind.is_sequential cells.(id).kind) in
    let on_stack = Hashtbl.create 16 (* true on the stack, false done *) in
    let rec visit id =
      Hashtbl.replace on_stack id true;
      List.iter
        (fun r ->
          if comb r then
            match Hashtbl.find_opt on_stack r with
            | Some true -> cycle_error b.b_netlist_name
            | None -> visit r
            | Some false -> ())
        readers.(cells.(id).output);
      Hashtbl.replace on_stack id false
    in
    List.iter (fun id -> if comb id && not (Hashtbl.mem on_stack id) then visit id) changed;
    let dffs = p.dffs @ List.filter (fun id -> not (comb id)) appended in
    {
      name = b.b_netlist_name;
      cells;
      num_nets;
      inputs;
      outputs;
      drivers;
      readers;
      topo = Atomic.make None;
      dffs;
      by_name = by_name b cells;
    }

  let finish b = match b.parent with Some p -> finish_extension b p | None -> finish_full b
end
