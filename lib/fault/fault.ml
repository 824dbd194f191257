type constant = C0 | C1 | C_random
type activation = Any_transition | Rising_edge | Falling_edge
type violation_kind = Setup_violation | Hold_violation

type spec = {
  start_dff : string;
  end_dff : string;
  kind : violation_kind;
  constant : constant;
  activation : activation;
}

let random_port = "c_fault"

let describe s =
  Printf.sprintf "%s %s~>%s C=%s %s"
    (match s.kind with Setup_violation -> "setup" | Hold_violation -> "hold")
    s.start_dff s.end_dff
    (match s.constant with C0 -> "0" | C1 -> "1" | C_random -> "rand")
    (match s.activation with
    | Any_transition -> "any"
    | Rising_edge -> "rising"
    | Falling_edge -> "falling")

let variants ?(mitigation = false) ~start_dff ~end_dff kind =
  let base constant activation = { start_dff; end_dff; kind; constant; activation } in
  if mitigation then
    [ base C0 Rising_edge; base C0 Falling_edge; base C1 Rising_edge; base C1 Falling_edge ]
  else [ base C0 Any_transition; base C1 Any_transition ]

let select_names = [ "_fault_diff"; "_fault_rise"; "_fault_fall"; "_fault_meta" ]

let select_cells nl =
  Array.to_list (Netlist.cells nl)
  |> List.filter_map (fun (c : Netlist.cell) ->
         if List.mem c.Netlist.name select_names then Some c.Netlist.name else None)

let find_dff nl name =
  let c = Netlist.find_cell nl name in
  if not (Cell.Kind.is_sequential c.kind) then
    invalid_arg (Printf.sprintf "Fault: cell %s is not a DFF" name);
  c

module B = Netlist.Builder

(* Build the failure-model logic: the condition under which Y samples the
   wrong constant, and the faulty-D mux.  [resolve] maps original nets to
   their shadow copies when the model drives a shadow replica (identity for
   failing netlists); it matters when the launching flip-flop X itself sits
   inside the affected cone (state feedback through Y).  Returns the net
   carrying Y's faulty D value. *)
let build_fault_d ?(resolve = fun n -> n) b nl spec =
  let x = find_dff nl spec.start_dff and y = find_dff nl spec.end_dff in
  let c_net =
    match spec.constant with
    | C0 -> B.add_cell ~name:"_fault_c0" b Cell.Kind.Tie0 [||]
    | C1 -> B.add_cell ~name:"_fault_c1" b Cell.Kind.Tie1 [||]
    | C_random -> (B.add_input b random_port 1).(0)
  in
  let xq = resolve x.output in
  let wrong =
    if x.id = y.id then
      (* self-loop: Y's captured value depends on its own same-cycle value;
         the flip-flop goes metastable and always yields C (Section 3.3.1) *)
      B.add_cell ~name:"_fault_meta" b Cell.Kind.Tie1 [||]
    else begin
      match spec.kind with
      | Setup_violation ->
        (* X(t) vs X(t-1): retain X's output for one cycle *)
        let hist =
          B.add_cell ~name:"_fault_hist" ~clock_domain:x.clock_domain b Cell.Kind.Dff [| xq |]
        in
        (match spec.activation with
        | Any_transition -> B.add_cell ~name:"_fault_diff" b Cell.Kind.Xor2 [| xq; hist |]
        | Rising_edge ->
          let nh = B.add_cell ~name:"_fault_nh" b Cell.Kind.Not [| hist |] in
          B.add_cell ~name:"_fault_rise" b Cell.Kind.And2 [| xq; nh |]
        | Falling_edge ->
          let nx = B.add_cell ~name:"_fault_nx" b Cell.Kind.Not [| xq |] in
          B.add_cell ~name:"_fault_fall" b Cell.Kind.And2 [| nx; hist |])
      | Hold_violation ->
        (* X(t) vs X(t+1): X's next value is its current D input *)
        let xd = resolve x.inputs.(0) in
        (match spec.activation with
        | Any_transition -> B.add_cell ~name:"_fault_diff" b Cell.Kind.Xor2 [| xq; xd |]
        | Rising_edge ->
          let nq = B.add_cell ~name:"_fault_nq" b Cell.Kind.Not [| xq |] in
          B.add_cell ~name:"_fault_rise" b Cell.Kind.And2 [| xd; nq |]
        | Falling_edge ->
          let nd = B.add_cell ~name:"_fault_nd" b Cell.Kind.Not [| xd |] in
          B.add_cell ~name:"_fault_fall" b Cell.Kind.And2 [| nd; xq |])
    end
  in
  let y_d = resolve y.inputs.(0) in
  (* mux inputs (a, b, s): s=wrong selects the constant *)
  B.add_cell ~name:"_fault_mux" b Cell.Kind.Mux2 [| y_d; c_net; wrong |]

let failing_netlist nl spec =
  let b = B.of_netlist nl in
  let y = find_dff nl spec.end_dff in
  let fault_d = build_fault_d b nl spec in
  B.rewire_input b ~cell_id:y.id ~pin:0 fault_d;
  B.finish b

type instrumented = {
  netlist : Netlist.t;
  shadow_of : (Netlist.net * Netlist.net) list;
  cover : Formal.expr;
  watch : (string * Netlist.net) list;
}

let instrument nl spec =
  let y = find_dff nl spec.end_dff in
  let cone = Netlist.fanout_cone nl y.output in
  let cone = if List.mem y.id cone then cone else y.id :: cone in
  let b = B.of_netlist nl in
  (* Pass 1: shadow copies, initially wired to the original nets. *)
  let copy_net = Hashtbl.create 64 in
  let copies =
    List.map
      (fun id ->
        let c = Netlist.cell nl id in
        let new_id, out =
          B.add_cell_with_id ~name:(c.name ^ "_s") ~clock_domain:c.clock_domain
            ~reset_value:c.reset_value b c.kind (Array.copy c.inputs)
        in
        Hashtbl.replace copy_net c.output out;
        (c, new_id))
      cone
  in
  let resolve n = match Hashtbl.find_opt copy_net n with Some s -> s | None -> n in
  (* Pass 2: repoint shadow-cell inputs into the shadow domain. *)
  List.iter
    (fun ((c : Netlist.cell), new_id) ->
      Array.iteri
        (fun pin n ->
          match Hashtbl.find_opt copy_net n with
          | Some s -> B.rewire_input b ~cell_id:new_id ~pin s
          | None -> ())
        c.inputs)
    copies;
  (* Failure model feeds only the shadow Y. *)
  let fault_d = build_fault_d ~resolve b nl spec in
  let shadow_y_id =
    List.assoc y.id (List.map (fun ((c : Netlist.cell), i) -> (c.id, i)) copies)
  in
  B.rewire_input b ~cell_id:shadow_y_id ~pin:0 fault_d;
  (* Export shadowed output ports and collect cover targets. *)
  let shadow_of = ref [] in
  List.iter
    (fun (p : Netlist.port) ->
      let affected = Array.exists (fun n -> Hashtbl.mem copy_net n) p.port_nets in
      if affected then begin
        let nets = Array.map resolve p.port_nets in
        B.add_output b (p.port_name ^ "_s") nets;
        Array.iter
          (fun n ->
            match Hashtbl.find_opt copy_net n with
            | Some s -> shadow_of := (n, s) :: !shadow_of
            | None -> ())
          p.port_nets
      end)
    (Netlist.outputs nl);
  let shadow_of = List.rev !shadow_of in
  if shadow_of = [] then
    invalid_arg
      (Printf.sprintf "Fault.instrument_shadow: %s cannot influence any output port"
         (describe spec));
  let cover =
    match shadow_of with
    | (n, s) :: rest ->
      List.fold_left
        (fun acc (n, s) -> Formal.Or (acc, Formal.nets_differ n s))
        (Formal.nets_differ n s) rest
    | [] -> assert false
  in
  let netlist = B.finish b in
  let watch =
    List.concat_map
      (fun (n, s) ->
        let name = Netlist.net_name netlist n in
        [ (name, n); (name ^ "_s", s) ])
      shadow_of
  in
  { netlist; shadow_of; cover; watch }

let instrument_shadow nl spec =
  if Telemetry.enabled () then
    Telemetry.with_span ~cat:"fault" "fault.instrument" (fun () -> instrument nl spec)
  else instrument nl spec
