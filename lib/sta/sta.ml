type startpoint = From_dff of int | From_input of string * int
type endpoint = At_dff of int
type check = Setup | Hold

type path = {
  start : startpoint;
  finish : endpoint;
  through : int list;
  delay_ps : float;
  slack_ps : float;
  check : check;
}

type endpoint_slack = { ep : endpoint; setup_slack_ps : float; hold_slack_ps : float }

type report = {
  clock_period_ps : float;
  endpoint_slacks : endpoint_slack list;
  setup_violations : path list;
  hold_violations : path list;
  wns_setup_ps : float;
  wns_hold_ps : float;
  truncated : bool;
}

type timing_source = {
  cell_delay : Netlist.cell -> Cell.timing;
  dff_timing : Cell.dff_timing;
  clock_arrival_ps : int -> float;
  input_arrival_ps : float;
}

let fresh_timing ?(derate = 1.0) ?(clock_tree = Clock_tree.single_domain) lib =
  let cell_delay (c : Netlist.cell) =
    let t = Cell.Library.timing lib c.kind in
    { t with Cell.tpd_max_ps = t.Cell.tpd_max_ps *. derate }
  in
  let buf = Cell.Library.timing lib Cell.Kind.Buf in
  let buffer_delay ~sp:_ = buf.Cell.tpd_max_ps *. derate in
  {
    cell_delay;
    dff_timing = Cell.Library.dff lib;
    clock_arrival_ps = (fun dom -> Clock_tree.arrival_ps clock_tree ~buffer_delay dom);
    input_arrival_ps = 0.0;
  }

let aged_timing ?(derate = 1.0) ?(clock_tree = Clock_tree.single_domain) ?toggle_of_net
    ~sp_of_net ~years aglib =
  let celllib = Aging.Timing_library.cell_library aglib in
  let em_factor net =
    match toggle_of_net with
    | None -> 1.0
    | Some f ->
      Aging.em_delay_factor (Aging.Timing_library.config aglib) ~toggle_rate:(f net) ~years
  in
  let cell_delay (c : Netlist.cell) =
    let aged = Aging.Timing_library.aged_timing aglib c.kind ~sp:(sp_of_net c.output) ~years in
    { aged with Cell.tpd_max_ps = aged.Cell.tpd_max_ps *. derate *. em_factor c.output }
  in
  let buf_fresh = Cell.Library.timing celllib Cell.Kind.Buf in
  let buffer_delay ~sp =
    buf_fresh.Cell.tpd_max_ps *. derate *. Aging.Timing_library.factor aglib Cell.Kind.Buf ~sp ~years
  in
  {
    cell_delay;
    dff_timing = Cell.Library.dff celllib;
    clock_arrival_ps = (fun dom -> Clock_tree.arrival_ps clock_tree ~buffer_delay dom);
    input_arrival_ps = 0.0;
  }

(* Per-call state of the timing kernel shared by [analyze],
   [endpoint_pairs] and [pair_path].  [timing.cell_delay] runs at most once
   per cell, on first touch, so a one-pair query pays only for the cells
   its DP touches; clock arrivals are taken once per domain.  The DP memo
   is one float array whose entries count only when stamped with the
   current cone's epoch, so starting the next endpoint's cone is one
   increment; [incone] marks the nets of that cone with the same epoch.
   Nothing outlives the call: fleet domains run calls concurrently and
   repair edits the netlist between them. *)
type kernel = {
  nl : Netlist.t;
  cells : Netlist.cell array;
  timing : timing_source;
  dmax : float array;
  dmin : float array;
  known : Bytes.t;
  mutable clocks : (int * float) list;
  memo : float array;
  stamp : int array;
  incone : int array;
  mutable epoch : int;
}

let kernel timing nl =
  let nc = max 1 (Netlist.num_cells nl) and nn = max 1 (Netlist.num_nets nl) in
  {
    nl;
    cells = Netlist.cells nl;
    timing;
    dmax = Array.make nc 0.0;
    dmin = Array.make nc 0.0;
    known = Bytes.make nc '\000';
    clocks = [];
    memo = Array.make nn 0.0;
    stamp = Array.make nn 0;
    incone = Array.make nn 0;
    epoch = 0;
  }

let delay k chk id =
  if Bytes.get k.known id = '\000' then begin
    let d = k.timing.cell_delay k.cells.(id) in
    k.dmax.(id) <- d.Cell.tpd_max_ps;
    k.dmin.(id) <- d.Cell.tpd_min_ps;
    Bytes.set k.known id '\001'
  end;
  match chk with Setup -> k.dmax.(id) | Hold -> k.dmin.(id)

let clock k dom =
  match List.assoc_opt dom k.clocks with
  | Some arr -> arr
  | None ->
    let arr = k.timing.clock_arrival_ps dom in
    k.clocks <- (dom, arr) :: k.clocks;
    arr

(* Data launch at a register's Q pin, and required arrival at a capturing
   register's D pin. *)
let launch k chk sid =
  let arr = clock k k.cells.(sid).clock_domain and dff = k.timing.dff_timing in
  match chk with
  | Setup -> arr +. dff.Cell.clk_to_q_max_ps
  | Hold -> arr +. dff.Cell.clk_to_q_min_ps

let required k chk ~clock_period_ps ep_id =
  let cap_arr = clock k k.cells.(ep_id).clock_domain and dff = k.timing.dff_timing in
  match chk with
  | Setup -> clock_period_ps +. cap_arr -. dff.Cell.setup_ps
  | Hold -> cap_arr +. dff.Cell.hold_ps

let slack chk ~required arrival =
  match chk with Setup -> required -. arrival | Hold -> arrival -. required

(* Start the backward DP towards [d_net], invalidating the previous cone:
   the returned function gives the max (setup) or min (hold)
   combinational delay from a net to [d_net], non-finite when no path
   connects them.  Its first call walks backward once over combinational
   drivers, marking [d_net]'s fan-in cone: exactly the nets with a path
   to [d_net], so a net outside it is answered at once, and a reader
   whose output lies outside is skipped.  Such a reader's tail was
   non-finite, adding nothing to the fold, so the float operations, their
   order and the first-touch [cell_delay] calls are those of the unmarked
   DP.  A cone that is never queried (every pair skipped) costs no walk. *)
let cone k chk d_net =
  k.epoch <- k.epoch + 1;
  let epoch = k.epoch in
  let rec mark net =
    if k.incone.(net) <> epoch then begin
      k.incone.(net) <- epoch;
      match Netlist.driver k.nl net with
      | Netlist.Driven_by_cell id when id >= 0 && not (Cell.Kind.is_sequential k.cells.(id).kind)
        ->
        Array.iter mark k.cells.(id).inputs
      | Netlist.Driven_by_cell _ | Netlist.Driven_by_input _ -> ()
    end
  in
  let worse a b = match chk with Setup -> Float.max a b | Hold -> Float.min a b in
  let neutral = match chk with Setup -> neg_infinity | Hold -> infinity in
  let rec tail net =
    if k.incone.(net) <> epoch then neutral
    else if k.stamp.(net) = epoch then k.memo.(net)
    else begin
      let direct = if net = d_net then 0.0 else neutral in
      let through =
        List.fold_left
          (fun acc rid ->
            let g = k.cells.(rid) in
            if Cell.Kind.is_sequential g.kind || k.incone.(g.output) <> epoch then acc
            else begin
              let t = tail g.output in
              if Float.is_finite t then worse acc (delay k chk rid +. t) else acc
            end)
          neutral (Netlist.readers k.nl net)
      in
      let d = worse direct through in
      k.memo.(net) <- d;
      k.stamp.(net) <- epoch;
      d
    end
  in
  let marked = ref false in
  fun net ->
    if not !marked then begin
      mark d_net;
      marked := true
    end;
    tail net

(* Maximum and minimum data arrival time at every net, relative to the
   launching clock edge at t = 0 (clock arrivals shift launch times per
   domain). *)
let propagate_arrivals ~constrain_inputs k =
  let n = Netlist.num_nets k.nl in
  let at_max = Array.make (max n 1) neg_infinity in
  let at_min = Array.make (max n 1) infinity in
  for net = 0 to n - 1 do
    match Netlist.driver k.nl net with
    | Netlist.Driven_by_input _ ->
      if constrain_inputs then begin
        at_max.(net) <- k.timing.input_arrival_ps;
        at_min.(net) <- k.timing.input_arrival_ps
      end
    | Netlist.Driven_by_cell id when id >= 0 ->
      if Cell.Kind.is_sequential k.cells.(id).kind then begin
        at_max.(net) <- launch k Setup id;
        at_min.(net) <- launch k Hold id
      end
    | Netlist.Driven_by_cell _ ->
      (* undriven net (legal when unread, e.g. after Builder rewiring):
         launches no timing path *)
      ()
  done;
  Array.iter
    (fun id ->
      let c = k.cells.(id) in
      if Array.length c.inputs > 0 then begin
        let mx = Array.fold_left (fun acc i -> Float.max acc at_max.(i)) neg_infinity c.inputs in
        let mn = Array.fold_left (fun acc i -> Float.min acc at_min.(i)) infinity c.inputs in
        at_max.(c.output) <- mx +. delay k Setup id;
        at_min.(c.output) <- mn +. delay k Hold id
      end
      (* Tie cells never transition: like unconstrained inputs, they launch
         no timing path (at_max stays -inf, at_min +inf). *))
    (Netlist.topo_order k.nl);
  (at_max, at_min)

exception Cap_reached

let analyze ?(constrain_inputs = false) ?(max_violating_paths = 10_000) ~timing
    ~clock_period_ps nl =
  let k = kernel timing nl in
  let cells = k.cells in
  let at_max, at_min = propagate_arrivals ~constrain_inputs k in
  let truncated = ref false in
  let endpoint_slacks =
    List.map
      (fun id ->
        let d_net = cells.(id).inputs.(0) in
        let slack_at chk arrival = slack chk ~required:(required k chk ~clock_period_ps id) arrival in
        let setup_slack_ps = slack_at Setup at_max.(d_net) in
        let hold_slack_ps = slack_at Hold at_min.(d_net) in
        { ep = At_dff id; setup_slack_ps; hold_slack_ps })
      (Netlist.dffs nl)
  in
  (* Backward DFS recovering all violating paths to one endpoint. *)
  let enumerate chk (ep_id : int) acc =
    let results = ref acc in
    let count = ref (List.length acc) in
    let record p =
      if !count >= max_violating_paths then begin
        truncated := true;
        raise Cap_reached
      end;
      results := p :: !results;
      incr count
    in
    let source_launch net =
      match Netlist.driver nl net with
      | Netlist.Driven_by_input _ ->
        if constrain_inputs then Some timing.input_arrival_ps else None
      | Netlist.Driven_by_cell id ->
        if Cell.Kind.is_sequential cells.(id).kind then Some (launch k chk id) else None
    in
    let startpoint_of net =
      match Netlist.driver nl net with
      | Netlist.Driven_by_input (port, bit) -> From_input (port, bit)
      | Netlist.Driven_by_cell id -> From_dff id
    in
    let required = required k chk ~clock_period_ps ep_id in
    let prune net suffix =
      match chk with
      | Setup -> at_max.(net) +. suffix <= required
      | Hold -> at_min.(net) +. suffix >= required
    in
    let rec visit net suffix through =
      if not (prune net suffix) then begin
        match source_launch net with
        | Some launch_ps ->
          let arrival = launch_ps +. suffix in
          let slack_ps = slack chk ~required arrival in
          if slack_ps < 0.0 then
            record
              {
                start = startpoint_of net;
                finish = At_dff ep_id;
                through;
                delay_ps = arrival;
                slack_ps;
                check = chk;
              }
        | None ->
          (match Netlist.driver nl net with
          | Netlist.Driven_by_input _ -> ()
          | Netlist.Driven_by_cell id ->
            let step = delay k chk id in
            Array.iter (fun i -> visit i (suffix +. step) (id :: through)) cells.(id).inputs)
      end
    in
    (try visit cells.(ep_id).inputs.(0) 0.0 [] with Cap_reached -> ());
    !results
  in
  let worst_first paths = List.sort (fun a b -> Float.compare a.slack_ps b.slack_ps) paths in
  let collect chk slack_of =
    List.fold_left
      (fun acc es ->
        if slack_of es < 0.0 then
          match es.ep with At_dff id -> enumerate chk id acc
        else acc)
      [] endpoint_slacks
    |> worst_first
  in
  let setup_violations = collect Setup (fun e -> e.setup_slack_ps) in
  let hold_violations = collect Hold (fun e -> e.hold_slack_ps) in
  let wns slack_of =
    List.fold_left (fun acc e -> Float.min acc (slack_of e)) 0.0 endpoint_slacks
  in
  {
    clock_period_ps;
    endpoint_slacks;
    setup_violations;
    hold_violations;
    wns_setup_ps = wns (fun e -> e.setup_slack_ps);
    wns_hold_ps = wns (fun e -> e.hold_slack_ps);
    truncated = !truncated;
  }

(* Setup slacks at a period so long that nothing violates: [1e9 - slack]
   is each endpoint's required period.  No path is enumerated. *)
let critical_path_ps ~timing nl =
  let probe = analyze ~max_violating_paths:0 ~timing ~clock_period_ps:1e9 nl in
  List.fold_left
    (fun acc e -> Float.max acc (1e9 -. e.setup_slack_ps))
    0.0 probe.endpoint_slacks

(* Exact per-(startpoint, endpoint) worst slacks: for each endpoint, one
   backward DP over its fan-in cone computes the max (resp. min) path delay
   from every net to the endpoint's D pin, from which each launching
   register's worst arrival follows directly.  Unlike path enumeration this
   is immune to path-count explosion. *)
let endpoint_pairs ?(constrain_inputs = false) ?(skip = fun _ _ _ -> false) ~timing
    ~clock_period_ps nl =
  let k = kernel timing nl in
  let results = ref [] in
  let for_check chk =
    List.iter
      (fun ep_id ->
        let required = required k chk ~clock_period_ps ep_id in
        let tail = cone k chk k.cells.(ep_id).inputs.(0) in
        let consider start launch_ps net =
          (* Skipped pairs do no DP work at all: when every pair of an
             endpoint is skipped, its fan-in cone is never traversed. *)
          if not (skip start (At_dff ep_id) chk) then begin
            let t = tail net in
            if Float.is_finite t then
              let s = slack chk ~required (launch_ps +. t) in
              results := (start, At_dff ep_id, chk, s) :: !results
          end
        in
        (* launching registers *)
        List.iter
          (fun sid -> consider (From_dff sid) (launch k chk sid) k.cells.(sid).output)
          (Netlist.dffs nl);
        (* primary inputs, when constrained *)
        if constrain_inputs then
          List.iter
            (fun (p : Netlist.port) ->
              Array.iteri
                (fun bit net -> consider (From_input (p.port_name, bit)) timing.input_arrival_ps net)
                p.port_nets)
            (Netlist.inputs nl))
      (Netlist.dffs nl)
  in
  for_check Setup;
  for_check Hold;
  List.rev !results

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Some affected] (by cell id) when [nl] extends [nl0] under the same
   clocks and register timing, [None] when only a full sweep is exact.
   A cell is changed when it is new or its kind, inputs, domain or delays
   differ; an endpoint is affected when it is changed or a changed cell's
   output reaches its register combinationally.  Every other endpoint's
   fan-in cone consists of unchanged cells reading unchanged nets, and
   each of its startpoints launches as before, so its DP — and each of
   its pair slacks — is the parent's, bit for bit. *)
let affected_endpoints ~nl0 ~timing0 ~timing nl =
  let n0 = Netlist.num_cells nl0 and n = Netlist.num_cells nl in
  let cells0 = Netlist.cells nl0 and cells = Netlist.cells nl in
  let extends =
    n >= n0
    &&
    let rec same i =
      i >= n0
      || String.equal cells.(i).name cells0.(i).name
         && cells.(i).output = cells0.(i).output
         && same (i + 1)
    in
    same 0
  in
  let d = timing.dff_timing and d0 = timing0.dff_timing in
  let same_regs =
    same_bits d.Cell.clk_to_q_min_ps d0.Cell.clk_to_q_min_ps
    && same_bits d.Cell.clk_to_q_max_ps d0.Cell.clk_to_q_max_ps
    && same_bits d.Cell.setup_ps d0.Cell.setup_ps
    && same_bits d.Cell.hold_ps d0.Cell.hold_ps
  in
  let same_clocks () =
    List.sort_uniq Int.compare (List.map (fun id -> cells.(id).clock_domain) (Netlist.dffs nl))
    |> List.for_all (fun dom ->
           same_bits (timing.clock_arrival_ps dom) (timing0.clock_arrival_ps dom))
  in
  if not (extends && same_regs && same_clocks ()) then None
  else begin
    (* a register launches from its clock and [dff_timing] alone, so
       new D wiring re-times it as an endpoint but not its readers *)
    let launches_anew (c : Netlist.cell) =
      c.id >= n0
      ||
      let c0 = cells0.(c.id) in
      c.kind <> c0.kind || c.clock_domain <> c0.clock_domain
      || (not (Cell.Kind.is_sequential c.kind))
         &&
         let t = timing.cell_delay c and t0 = timing0.cell_delay c0 in
         not
           (same_bits t.Cell.tpd_max_ps t0.Cell.tpd_max_ps
           && same_bits t.Cell.tpd_min_ps t0.Cell.tpd_min_ps)
    in
    let rewired (c : Netlist.cell) = c.id < n0 && c.inputs <> cells0.(c.id).inputs in
    let affected = Array.make n false and seen = Array.make n false in
    let rec reach net =
      List.iter
        (fun rid ->
          if Cell.Kind.is_sequential cells.(rid).kind then affected.(rid) <- true
          else if not seen.(rid) then begin
            seen.(rid) <- true;
            reach cells.(rid).output
          end)
        (Netlist.readers nl net)
    in
    Array.iter
      (fun (c : Netlist.cell) ->
        if Cell.Kind.is_sequential c.kind then begin
          let anew = launches_anew c in
          if anew || rewired c then affected.(c.id) <- true;
          if anew then reach c.output
        end
        else if rewired c || launches_anew c then reach c.output)
      cells;
    Some affected
  end

let retime_pairs ?(on_retime = fun ~retimed:_ ~total:_ -> ()) ~parent:(nl0, timing0, pairs0)
    ~timing ~clock_period_ps nl =
  let eps = Netlist.dffs nl in
  let total = List.length eps in
  match affected_endpoints ~nl0 ~timing0 ~timing nl with
  | None ->
    on_retime ~retimed:total ~total;
    endpoint_pairs ~timing ~clock_period_ps nl
  | Some affected ->
    on_retime ~retimed:(List.length (List.filter (fun e -> affected.(e)) eps)) ~total;
    (* bucket both lists by (check, endpoint), keeping each bucket's
       order, then emit the buckets in [endpoint_pairs] order *)
    let n = Netlist.num_cells nl in
    let slot chk e = match chk with Setup -> e | Hold -> n + e in
    let blocks pairs =
      let a = Array.make (2 * n) [] in
      List.iter (fun ((_, At_dff e, chk, _) as p) -> a.(slot chk e) <- p :: a.(slot chk e)) pairs;
      a
    in
    let parent = blocks pairs0 in
    let skip _ (At_dff e) _ = not affected.(e) in
    let fresh = blocks (endpoint_pairs ~skip ~timing ~clock_period_ps nl) in
    List.concat_map
      (fun chk ->
        List.concat_map
          (fun e -> List.rev (if affected.(e) then fresh else parent).(slot chk e))
          eps)
      [ Setup; Hold ]

let violating_pairs ?constrain_inputs ?skip ~timing ~clock_period_ps nl =
  endpoint_pairs ?constrain_inputs ?skip ~timing ~clock_period_ps nl
  |> List.filter (fun (_, _, _, slack) -> slack < 0.0)
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b)

(* Worst path of one pair: run the per-endpoint DP of [endpoint_pairs] for
   the one endpoint, then walk forward from the launching net choosing at
   each step a reader that achieves the memoized extremal tail — the walk
   reconstructs an argmax (argmin for hold) path without enumerating the
   cone. *)
let pair_path ?(constrain_inputs = false) ~timing ~clock_period_ps nl start
    (At_dff ep_id) chk =
  let k = kernel timing nl in
  let cells = k.cells in
  let d_net = cells.(ep_id).inputs.(0) in
  let required = required k chk ~clock_period_ps ep_id in
  let tail = cone k chk d_net in
  let source =
    match start with
    | From_dff sid -> Some (cells.(sid).output, launch k chk sid)
    | From_input (p, b) ->
      if constrain_inputs then
        Some (Netlist.net_of_port_bit nl p b, timing.input_arrival_ps)
      else None
  in
  match source with
  | None -> None
  | Some (net0, launch_ps) ->
    let t0 = tail net0 in
    if not (Float.is_finite t0) then None
    else begin
      let pick net =
        let t = tail net in
        List.find_opt
          (fun rid ->
            let g = cells.(rid) in
            (not (Cell.Kind.is_sequential g.kind))
            && Float.is_finite (tail g.output)
            && Float.abs (delay k chk rid +. tail g.output -. t)
               <= 1e-6 *. (1.0 +. Float.abs t))
          (Netlist.readers nl net)
      in
      let rec walk net acc =
        if net = d_net then List.rev acc
        else
          match pick net with
          | None -> List.rev acc
          | Some rid -> walk cells.(rid).output (rid :: acc)
      in
      let arrival = launch_ps +. t0 in
      Some
        {
          start;
          finish = At_dff ep_id;
          through = walk net0 [];
          delay_ps = arrival;
          slack_ps = slack chk ~required arrival;
          check = chk;
        }
    end

let describe_startpoint nl = function
  | From_dff id -> (Netlist.cell nl id).name
  | From_input (port, bit) -> Printf.sprintf "%s[%d]" port bit

let describe_endpoint nl (At_dff id) = (Netlist.cell nl id).name

let describe_path nl p =
  let mid = List.map (fun id -> (Netlist.cell nl id).name) p.through in
  let chain =
    String.concat " -> " ((describe_startpoint nl p.start :: mid) @ [ describe_endpoint nl p.finish ])
  in
  Printf.sprintf "%s (%s, slack %.1f ps)" chain
    (match p.check with Setup -> "setup" | Hold -> "hold")
    p.slack_ps

let render_report nl r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Timing report (clock period %.1f ps)\n" r.clock_period_ps;
  add "  endpoints: %d   setup WNS: %.1f ps   hold WNS: %.1f ps%s\n"
    (List.length r.endpoint_slacks) r.wns_setup_ps r.wns_hold_ps
    (if r.truncated then "   [path enumeration truncated]" else "");
  let show title paths =
    add "  %s violations: %d\n" title (List.length paths);
    List.iteri
      (fun i p -> if i < 20 then add "    %s\n" (describe_path nl p))
      paths;
    if List.length paths > 20 then add "    ... (%d more)\n" (List.length paths - 20)
  in
  show "setup" r.setup_violations;
  show "hold" r.hold_violations;
  let worst =
    List.sort
      (fun a b -> Float.compare a.setup_slack_ps b.setup_slack_ps)
      r.endpoint_slacks
  in
  add "  tightest endpoints (setup slack):\n";
  List.iteri
    (fun i es ->
      if i < 8 then
        add "    %-12s setup %8.1f ps   hold %s\n" (describe_endpoint nl es.ep)
          es.setup_slack_ps
          (if Float.is_finite es.hold_slack_ps then Printf.sprintf "%8.1f ps" es.hold_slack_ps
           else "unconstrained"))
    worst;
  Buffer.contents buf
