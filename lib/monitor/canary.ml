(* Aged-replica canary insertion: see canary.mli for the scheme.

   Wiring per canary (one shared arm cell per netlist):

                 launch DFF Q ----+--------------------------+
                                  |                          |
                                  |   replica of the path's  |
                                  |   combinational chain    |
                                  |   (side inputs shared)   |
                                  v                          v
                            [rep0]..[repN] = chain      [hist DFF]
                                  |                          |
                 +----------------+                 XOR <----+  (transition?)
                 |                |                  |
                 |             [Not]        [And] <--+-- arm (Tie0/Tie1)
                 |                |           |
                 |                v           |
                 +---------> [Mux2  a=chain  b=~chain  s=sel]
                 |                      |
                 v                      v
            [fresh DFF]            [aged DFF]
                 |                      |
                 +-----> [Xor2 cmp] <---+
                             |
                    [Or2] <--+   +--(sticky self-loop)
                      |          |
                      v          |
                 [sticky DFF] ---+-----> canary_trip[i]

   The replica chain re-computes the monitored path from the *same* side
   inputs, so fresh and aged replicas always capture the same value while
   disarmed; armed, the aged replica's capture is flipped for exactly the
   cycles in which the launching register toggles — the cycles where a
   path aged past the clock period would capture stale data. *)

let trip_port = "canary_trip"
let arm_cell = "_canary_arm"

type canary = {
  cn_index : int;
  cn_start : string;
  cn_end : string;
  cn_cells : int;
  cn_arrival_ps : float;
  cn_slack_ps : float;
}

let tele_inserted = Telemetry.Counter.make "canary.inserted"
let tele_cells = Telemetry.Counter.make "canary.replica_cells"
let tele_verified = Telemetry.Counter.make "canary.verified"

let trip_nets nl =
  List.find_map
    (fun (p : Netlist.port) -> if p.Netlist.port_name = trip_port then Some p.Netlist.port_nets else None)
    (Netlist.outputs nl)

let has_canaries nl = trip_nets nl <> None
let count nl = match trip_nets nl with None -> 0 | Some nets -> Array.length nets
let arm_cells nl = if has_canaries nl then [ arm_cell ] else []

let armed nl =
  match Netlist.find_cell nl arm_cell with
  | c -> c.Netlist.kind = Cell.Kind.Tie1
  | exception Not_found -> false

let set_arm value nl =
  let c =
    match Netlist.find_cell nl arm_cell with
    | c -> c
    | exception Not_found -> invalid_arg "Canary.arm: netlist has no canaries"
  in
  let b = Netlist.Builder.of_netlist nl in
  Netlist.Builder.set_kind b ~cell_id:c.Netlist.id
    (if value then Cell.Kind.Tie1 else Cell.Kind.Tie0);
  Netlist.Builder.finish b

let arm nl = set_arm true nl
let disarm nl = set_arm false nl

(* ---- planning ---- *)

let plan ?(count = 2) ?(pessimism = 1.25) nl ~timing ~clock_period_ps =
  if count <= 0 then invalid_arg "Canary.plan: count must be positive";
  if pessimism <= 0.0 then invalid_arg "Canary.plan: pessimism must be positive";
  (* arrival * pessimism > period  <=>  violating at period / pessimism *)
  let report = Sta.analyze ~timing ~clock_period_ps:(clock_period_ps /. pessimism) nl in
  let seen = Hashtbl.create 8 in
  let rec pick acc n = function
    | [] -> List.rev acc
    | _ when n >= count -> List.rev acc
    | (p : Sta.path) :: rest -> (
      match (p.Sta.start, p.Sta.finish) with
      | Sta.From_dff _, Sta.At_dff end_id when not (Hashtbl.mem seen end_id) ->
        Hashtbl.replace seen end_id ();
        pick (p :: acc) (n + 1) rest
      | _ -> pick acc n rest)
  in
  pick [] 0 report.Sta.setup_violations

(* ---- insertion ---- *)

let insert nl paths =
  if has_canaries nl then invalid_arg "Canary.insert: netlist already has canaries";
  let b = Netlist.Builder.of_netlist nl in
  let _, arm_net = Netlist.Builder.add_cell_with_id ~name:arm_cell b Cell.Kind.Tie0 [||] in
  let insert_one i (p : Sta.path) =
    let prefix = Printf.sprintf "_cn%d" i in
    let start_id, end_id =
      match (p.Sta.start, p.Sta.finish, p.Sta.check) with
      | Sta.From_dff s, Sta.At_dff e, Sta.Setup -> (s, e)
      | _ ->
        invalid_arg
          (Printf.sprintf "Canary.insert: canary %d is not a register-launched setup path" i)
    in
    let start_cell = Netlist.cell nl start_id in
    let end_cell = Netlist.cell nl end_id in
    let launch_q = start_cell.Netlist.output in
    (* replicate the combinational chain; side inputs stay shared *)
    let chain_out =
      List.fold_left
        (fun (prev, k) cid ->
          let c = Netlist.cell nl cid in
          let pin = ref (-1) in
          Array.iteri (fun j n -> if !pin < 0 && n = fst prev then pin := j) c.Netlist.inputs;
          if !pin < 0 then
            invalid_arg
              (Printf.sprintf "Canary.insert: canary %d's path does not thread through cell %s" i
                 c.Netlist.name);
          let inputs = Array.copy c.Netlist.inputs in
          inputs.(!pin) <- snd prev;
          let r =
            Netlist.Builder.add_cell
              ~name:(Printf.sprintf "%s_rep%d" prefix k)
              b c.Netlist.kind inputs
          in
          ((c.Netlist.output, r), k + 1))
        ((launch_q, launch_q), 0)
        p.Sta.through
      |> fun ((_, replica), _) -> replica
    in
    (* launch-transition detector: Q vs its one-cycle history *)
    let hist =
      Netlist.Builder.add_cell ~name:(prefix ^ "_hist")
        ~clock_domain:start_cell.Netlist.clock_domain ~reset_value:start_cell.Netlist.reset_value
        b Cell.Kind.Dff [| launch_q |]
    in
    let trans =
      Netlist.Builder.add_cell ~name:(prefix ^ "_trans") b Cell.Kind.Xor2 [| launch_q; hist |]
    in
    let sel = Netlist.Builder.add_cell ~name:(prefix ^ "_sel") b Cell.Kind.And2 [| trans; arm_net |] in
    let corrupt = Netlist.Builder.add_cell ~name:(prefix ^ "_late") b Cell.Kind.Not [| chain_out |] in
    (* Mux2 computes [if s then b else a] over inputs [a; b; s] *)
    let aged_d =
      Netlist.Builder.add_cell ~name:(prefix ^ "_aged_d") b Cell.Kind.Mux2
        [| chain_out; corrupt; sel |]
    in
    let fresh_ff =
      Netlist.Builder.add_cell ~name:(prefix ^ "_fresh")
        ~clock_domain:end_cell.Netlist.clock_domain ~reset_value:end_cell.Netlist.reset_value b
        Cell.Kind.Dff [| chain_out |]
    in
    let aged_ff =
      Netlist.Builder.add_cell ~name:(prefix ^ "_aged")
        ~clock_domain:end_cell.Netlist.clock_domain ~reset_value:end_cell.Netlist.reset_value b
        Cell.Kind.Dff [| aged_d |]
    in
    let cmp =
      Netlist.Builder.add_cell ~name:(prefix ^ "_cmp") b Cell.Kind.Xor2 [| fresh_ff; aged_ff |]
    in
    (* sticky trip latch: st' = st or cmp (pin 1 rewired onto the loop) *)
    let or_id, or_net =
      Netlist.Builder.add_cell_with_id ~name:(prefix ^ "_hold") b Cell.Kind.Or2 [| cmp; cmp |]
    in
    let sticky =
      Netlist.Builder.add_cell ~name:(prefix ^ "_sticky")
        ~clock_domain:end_cell.Netlist.clock_domain ~reset_value:false b Cell.Kind.Dff [| or_net |]
    in
    Netlist.Builder.rewire_input b ~cell_id:or_id ~pin:1 sticky;
    ( sticky,
      {
        cn_index = i;
        cn_start = start_cell.Netlist.name;
        cn_end = end_cell.Netlist.name;
        cn_cells = List.length p.Sta.through;
        cn_arrival_ps = p.Sta.delay_ps;
        cn_slack_ps = p.Sta.slack_ps;
      } )
  in
  let stickies, canaries = List.split (List.mapi insert_one paths) in
  Netlist.Builder.add_output b trip_port (Array.of_list stickies);
  let out = Netlist.Builder.finish b in
  Telemetry.Counter.add tele_inserted (List.length canaries);
  List.iter (fun c -> Telemetry.Counter.add tele_cells c.cn_cells) canaries;
  (out, canaries)

let describe canaries =
  String.concat ""
    (List.map
       (fun c ->
         Printf.sprintf "canary %d: %s -> %s, %d replica cells, arrival %.1f ps (slack %.1f ps)\n"
           c.cn_index c.cn_start c.cn_end c.cn_cells c.cn_arrival_ps c.cn_slack_ps)
       canaries)

(* ---- verification gate ---- *)

let trip_expr nl =
  match trip_nets nl with
  | None | Some [||] -> Formal.Const false
  | Some nets ->
    Array.fold_left (fun acc n -> Formal.Or (acc, Formal.Net n)) (Formal.Const false) nets

let verify ?(check_trip = true) ?max_conflicts ~original nl =
  let ( let* ) = Result.bind in
  let* () =
    match Check.errors (Check.lint_netlist nl) with
    | [] -> Ok ()
    | diags -> Error ("monitored netlist fails lint:\n" ^ Check.render ~design:(Netlist.name nl) diags)
  in
  (* inertness proof: the canary logic (armed or not) never feeds an
     original comparison point, so no tie_low is needed here *)
  let* () =
    match Cec.check ~free_inputs:true ?max_conflicts original nl with
    | Cec.Equivalent -> Ok ()
    | v -> Error ("monitored netlist is not inert w.r.t. original outputs: " ^ Cec.describe v)
  in
  let* () =
    if not check_trip then Ok ()
    else begin
      let disarmed = if armed nl then disarm nl else nl in
      match Formal.check_cover ?max_conflicts disarmed ~cover:(trip_expr disarmed) with
      | Formal.Unreachable | Formal.Bounded_unreachable _ -> Ok ()
      | Formal.Trace_found t ->
        Error
          (Printf.sprintf "disarmed canary trips spontaneously (broken comparator?):\n%s"
             (Formal.Trace.to_string t))
      | Formal.Timeout _ -> Error "disarmed trip cover: solver budget exhausted"
    end
  in
  let* () =
    if not check_trip then Ok ()
    else begin
      let live = if armed nl then nl else arm nl in
      match Formal.check_cover ?max_conflicts live ~cover:(trip_expr live) with
      | Formal.Trace_found _ -> Ok ()
      | Formal.Unreachable | Formal.Bounded_unreachable _ ->
        Error "armed canary can never trip (stuck comparator?)"
      | Formal.Timeout _ -> Error "armed trip cover: solver budget exhausted"
    end
  in
  Telemetry.Counter.incr tele_verified;
  Ok ()
