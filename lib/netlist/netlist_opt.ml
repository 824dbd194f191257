type stats = {
  cells_before : int;
  cells_after : int;
  folded : int;
  dead_removed : int;
}

type value = Const of bool | Same of Netlist.net

let fold kind (v : value array) =
  match kind with
  | Cell.Kind.Tie0 -> Some (Const false)
  | Cell.Kind.Tie1 -> Some (Const true)
  | Cell.Kind.Buf -> Some v.(0)
  | Cell.Kind.Not -> (
    match v.(0) with Const b -> Some (Const (not b)) | Same _ -> None)
  | Cell.Kind.And2 | Cell.Kind.Or2 | Cell.Kind.Xor2 | Cell.Kind.Nand2 | Cell.Kind.Nor2
  | Cell.Kind.Xnor2 -> (
    match (v.(0), v.(1)) with
    | Const a, Const b -> Some (Const (Cell.Kind.eval kind [| a; b |]))
    | Const cb, (Same _ as other) | (Same _ as other), Const cb -> (
      (* one constant input *)
      match (kind, cb) with
      | Cell.Kind.And2, false -> Some (Const false)
      | Cell.Kind.And2, true -> Some other
      | Cell.Kind.Or2, true -> Some (Const true)
      | Cell.Kind.Or2, false -> Some other
      | Cell.Kind.Xor2, false -> Some other
      | Cell.Kind.Nand2, false -> Some (Const true)
      | Cell.Kind.Nor2, true -> Some (Const false)
      | Cell.Kind.Xnor2, true -> Some other
      | _ -> None  (* would need an inverter: keep the gate *))
    | Same a, Same b when a = b -> (
      match kind with
      | Cell.Kind.And2 | Cell.Kind.Or2 -> Some v.(0)
      | Cell.Kind.Xor2 -> Some (Const false)
      | Cell.Kind.Xnor2 -> Some (Const true)
      | _ -> None  (* NAND/NOR of x,x is NOT x: keep *))
    | _ -> None)
  | Cell.Kind.Mux2 -> (
    match v.(2) with
    | Const false -> Some v.(0)
    | Const true -> Some v.(1)
    | Same _ -> (
      match (v.(0), v.(1)) with
      | Same a, Same b when a = b -> Some v.(0)
      | Const a, Const b when a = b -> Some (Const a)
      | _ -> None))
  | Cell.Kind.Dff -> None

(* Value of every original net after folding, as a resolver, plus the
   number of gates folded away (tie cells are constants already, not
   folds).  Primary inputs and DFF outputs stay canonical; comb cells fold
   in topological order. *)
let classify nl =
  let cls = Array.init (Netlist.num_nets nl) (fun i -> Same i) in
  let folded = ref 0 in
  let rec resolve net =
    match cls.(net) with
    | Const b -> Const b
    | Same m when m = net -> Same net
    | Same m -> resolve m
  in
  Array.iter
    (fun id ->
      let c = Netlist.cell nl id in
      match fold c.Netlist.kind (Array.map resolve c.Netlist.inputs) with
      | None -> ()
      | Some v -> (
        cls.(c.Netlist.output) <- v;
        match c.Netlist.kind with
        | Cell.Kind.Tie0 | Cell.Kind.Tie1 -> ()
        | _ -> incr folded))
    (Netlist.topo_order nl);
  (resolve, !folded)

let identity net = Same net

(* Liveness on the original graph: nets needed by output ports, walking
   backward through kept logic and registers. *)
let live_under resolve nl =
  let live = Array.make (Netlist.num_cells nl) false in
  let seen_net = Array.make (Netlist.num_nets nl) false in
  let rec need net =
    match resolve net with
    | Const _ -> ()
    | Same canon ->
      if not seen_net.(canon) then begin
        seen_net.(canon) <- true;
        match Netlist.driver nl canon with
        | Netlist.Driven_by_input _ -> ()
        | Netlist.Driven_by_cell id ->
          live.(id) <- true;
          Array.iter need (Netlist.cell nl id).Netlist.inputs
      end
  in
  List.iter
    (fun (p : Netlist.port) -> Array.iter need p.Netlist.port_nets)
    (Netlist.outputs nl);
  live

let live_cells nl = live_under identity nl

(* Rebuild the live cells whose output is its own canonical value, with
   every reference resolved; constants become shared tie cells named
   [_opt_tie0]/[_opt_tie1].  Ports keep their order, so interfaces match
   exactly.  Registers go first with a placeholder D pin, rewired once
   every driver exists: the placeholder borrows an input-port net when
   there is one, else one bootstrap net that ends undriven and unread, so
   the rebuild leaves no other net over.  Returns the netlist and the
   number of tie cells added. *)
let rebuild nl resolve live =
  let b = Netlist.Builder.create (Netlist.name nl) in
  let net_map = Array.make (Netlist.num_nets nl) (-1) in
  List.iter
    (fun (p : Netlist.port) ->
      let width = Array.length p.Netlist.port_nets in
      let nets = Netlist.Builder.add_input b p.Netlist.port_name width in
      Array.iteri (fun i orig -> net_map.(orig) <- nets.(i)) p.Netlist.port_nets)
    (Netlist.inputs nl);
  let ties = ref 0 in
  let tie0 = ref None and tie1 = ref None in
  let tie v =
    let cache = if v then tie1 else tie0 in
    match !cache with
    | Some n -> n
    | None ->
      let n =
        Netlist.Builder.add_cell ~name:(if v then "_opt_tie1" else "_opt_tie0") b
          (if v then Cell.Kind.Tie1 else Cell.Kind.Tie0)
          [||]
      in
      incr ties;
      cache := Some n;
      n
  in
  let placeholder =
    lazy
      (match List.find_opt (fun p -> Array.length p.Netlist.port_nets > 0) (Netlist.inputs nl) with
      | Some p -> net_map.(p.Netlist.port_nets.(0))
      | None -> Netlist.Builder.fresh_net b)
  in
  let new_net_of orig =
    match resolve orig with
    | Const v -> tie v
    | Same canon ->
      let n = net_map.(canon) in
      if n < 0 then invalid_arg "Netlist_opt: dangling reference (internal)";
      n
  in
  let dff_ids = ref [] in
  List.iter
    (fun id ->
      let c = Netlist.cell nl id in
      if live.(id) then begin
        let new_id, out =
          Netlist.Builder.add_cell_with_id ~name:c.Netlist.name
            ~clock_domain:c.Netlist.clock_domain ~reset_value:c.Netlist.reset_value b
            c.Netlist.kind
            (Array.map (fun _ -> Lazy.force placeholder) c.Netlist.inputs)
        in
        dff_ids := (id, new_id) :: !dff_ids;
        net_map.(c.Netlist.output) <- out
      end)
    (Netlist.dffs nl);
  Array.iter
    (fun id ->
      let c = Netlist.cell nl id in
      let canonical =
        match resolve c.Netlist.output with Same s -> s = c.Netlist.output | Const _ -> false
      in
      if live.(id) && canonical then begin
        let inputs = Array.map new_net_of c.Netlist.inputs in
        net_map.(c.Netlist.output) <-
          Netlist.Builder.add_cell ~name:c.Netlist.name b c.Netlist.kind inputs
      end)
    (Netlist.topo_order nl);
  List.iter
    (fun (orig_id, new_id) ->
      Array.iteri
        (fun pin orig -> Netlist.Builder.rewire_input b ~cell_id:new_id ~pin (new_net_of orig))
        (Netlist.cell nl orig_id).Netlist.inputs)
    !dff_ids;
  List.iter
    (fun (p : Netlist.port) ->
      Netlist.Builder.add_output b p.Netlist.port_name (Array.map new_net_of p.Netlist.port_nets))
    (Netlist.outputs nl);
  (Netlist.Builder.finish b, !ties)

let sweep nl =
  let live = live_cells nl in
  if Array.for_all Fun.id live then nl else fst (rebuild nl identity live)

let optimize nl =
  let resolve, folded = classify nl in
  let optimized, ties = rebuild nl resolve (live_under resolve nl) in
  let dead_removed = Netlist.num_cells nl - folded - (Netlist.num_cells optimized - ties) in
  ( optimized,
    {
      cells_before = Netlist.num_cells nl;
      cells_after = Netlist.num_cells optimized;
      folded;
      dead_removed = max 0 dead_removed;
    } )
