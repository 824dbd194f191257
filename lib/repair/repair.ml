(* Aging-aware netlist repair: see repair.mli for the contract.

   Structure of this file:
     1. types mirrored from the interface + small helpers
     2. live-area accounting (dead logic is swept by Netlist_opt.sweep,
        a rebuild that keeps instance names: Builder cannot remove cells)
     3. the name-keyed SP view (profiled SP survives rewrites and the
        sweep because it is keyed by instance name, not net index)
     4. edit application (each ledger edit re-derives its context from
        the current netlist, which makes the ledger replayable)
     5. JSON codecs for the ledger (checkpoint format)
     6. the 64-lane random differential used to bound approximate edits
     7. candidate search along the extremal path of a pair
     8. the verification gate (slack / collateral / area / lint / CEC)
     9. the greedy worst-first driver, checkpoint replay, and rendering *)

type rung = Strengthen | Dup_vote | Rebalance | Approx

let rung_name = function
  | Strengthen -> "strengthen"
  | Dup_vote -> "dup-vote"
  | Rebalance -> "rebalance"
  | Approx -> "approx"

let rung_of_name = function
  | "strengthen" -> Strengthen
  | "dup-vote" -> Dup_vote
  | "rebalance" -> Rebalance
  | "approx" -> Approx
  | s -> invalid_arg ("Repair.rung_of_name: " ^ s)

type edit =
  | Buf_elim of { eb_reader : string; eb_pin : int }
  | Not_not of { en_reader : string; en_pin : int }
  | Fuse_inv of { ef_reader : string; ef_pin : int; ef_kind : Cell.Kind.t }
  | Chain_balance of { ec_reader : string; ec_pin : int; ec_chain : string list }
  | Shannon of { es_reader : string; es_pin : int; es_late : string }
  | Hold_pad of { eh_reader : string; eh_pin : int; eh_bufs : int }
  | Vote3 of { ev_reader : string; ev_pin : int }
  | Approx_tie of { ea_reader : string; ea_pin : int; ea_value : bool }

let describe_edit = function
  | Buf_elim { eb_reader; eb_pin } -> Printf.sprintf "buf-elim %s.%d" eb_reader eb_pin
  | Not_not { en_reader; en_pin } -> Printf.sprintf "not-not %s.%d" en_reader en_pin
  | Fuse_inv { ef_reader; ef_pin; ef_kind } ->
      Printf.sprintf "fuse %s.%d -> %s" ef_reader ef_pin (Cell.Kind.to_string ef_kind)
  | Chain_balance { ec_reader; ec_pin; ec_chain } ->
      Printf.sprintf "balance %s.%d chain(%d)" ec_reader ec_pin (List.length ec_chain)
  | Shannon { es_reader; es_pin; es_late } ->
      Printf.sprintf "shannon %s.%d late=%s" es_reader es_pin es_late
  | Hold_pad { eh_reader; eh_pin; eh_bufs } ->
      Printf.sprintf "hold-pad %s.%d +%dbuf" eh_reader eh_pin eh_bufs
  | Vote3 { ev_reader; ev_pin } -> Printf.sprintf "vote3 %s.%d" ev_reader ev_pin
  | Approx_tie { ea_reader; ea_pin; ea_value } ->
      Printf.sprintf "tie %s.%d=%d" ea_reader ea_pin (if ea_value then 1 else 0)

type verification = Verified_cec | Verified_bound of float

type committed = {
  cm_seq : int;
  cm_pair : string;
  cm_rung : rung;
  cm_edit : edit;
  cm_verification : verification;
  cm_slack_before_ps : float;
  cm_slack_after_ps : float;
  cm_cells_added : int;
}

type pair_status = Repaired | Improved | Unrepaired of string

type pair_outcome = {
  po_pair : string;
  po_check : Sta.check;
  po_slack_before_ps : float;
  po_slack_after_ps : float;
  po_edits : int;
  po_status : pair_status;
}

type config = {
  rp_max_rewrites : int;
  rp_max_area_frac : float;
  rp_max_pair_edits : int;
  rp_rungs : rung list;
  rp_approx_bound : float option;
  rp_approx_cycles : int;
  rp_seed : int;
  rp_max_conflicts : int;
  rp_max_cone : int;
}

let default_config =
  {
    rp_max_rewrites = 64;
    rp_max_area_frac = 0.25;
    rp_max_pair_edits = 8;
    rp_rungs = [ Strengthen; Dup_vote; Rebalance ];
    rp_approx_bound = None;
    rp_approx_cycles = 256;
    rp_seed = 7;
    rp_max_conflicts = 200_000;
    rp_max_cone = 48;
  }

type result = {
  rs_netlist : Netlist.t;
  rs_sp_of_net : Netlist.net -> float;
  rs_outcomes : pair_outcome list;
  rs_ledger : committed list;
  rs_rewrites : int;
  rs_rejected : int;
  rs_cec_failures : int;
  rs_cells_before : int;
  rs_cells_after : int;
  rs_area_before_um2 : float;
  rs_area_after_um2 : float;
  rs_resumed_pairs : int;
}

let tele_committed = Telemetry.Counter.make "repair.committed"
let tele_rejected = Telemetry.Counter.make "repair.rejected"
let tele_pairs = Telemetry.Counter.make "repair.pairs"
let tele_cec = Telemetry.Counter.make "repair.cec_proofs"
let tele_resumed = Telemetry.Counter.make "repair.resumed_pairs"

exception Reject of string

let rejectf fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

let complement_kind = function
  | Cell.Kind.And2 -> Some Cell.Kind.Nand2
  | Cell.Kind.Nand2 -> Some Cell.Kind.And2
  | Cell.Kind.Or2 -> Some Cell.Kind.Nor2
  | Cell.Kind.Nor2 -> Some Cell.Kind.Or2
  | Cell.Kind.Xor2 -> Some Cell.Kind.Xnor2
  | Cell.Kind.Xnor2 -> Some Cell.Kind.Xor2
  | _ -> None

let comb_driver nl net =
  match Netlist.driver nl net with
  | Netlist.Driven_by_input _ -> None
  | Netlist.Driven_by_cell id ->
      let c = Netlist.cell nl id in
      if Cell.Kind.is_sequential c.Netlist.kind then None else Some c

(* ------------------------------------------------------------------ *)
(* Live-area accounting                                                *)

let live_area celllib nl =
  let live = Netlist_opt.live_cells nl in
  let a = ref 0.0 in
  Array.iteri
    (fun id alive ->
      if alive then
        a :=
          !a
          +. (Cell.Library.physical celllib (Netlist.cell nl id).Netlist.kind)
               .Cell.area_um2)
    live;
  !a

(* ------------------------------------------------------------------ *)
(* Name-keyed SP view                                                  *)

type sp_state = {
  sp_cell : (string, float) Hashtbl.t;  (* instance name -> output SP *)
  sp_port : (string, float) Hashtbl.t;  (* "port[bit]" -> SP *)
}

let sp_key p b = Printf.sprintf "%s[%d]" p b

let sp_init nl sp_of_net =
  let st = { sp_cell = Hashtbl.create 997; sp_port = Hashtbl.create 97 } in
  Array.iter
    (fun c -> Hashtbl.replace st.sp_cell c.Netlist.name (sp_of_net c.Netlist.output))
    (Netlist.cells nl);
  List.iter
    (fun p ->
      Array.iteri
        (fun b n -> Hashtbl.replace st.sp_port (sp_key p.Netlist.port_name b) (sp_of_net n))
        p.Netlist.port_nets)
    (Netlist.inputs nl);
  st

(* New cells without a provenance assignment default to SP 0: maximum BTI
   aging, so the re-scored slack of anything they drive is a lower bound. *)
let sp_view st nl net =
  match Netlist.driver nl net with
  | Netlist.Driven_by_input (p, b) -> (
      match Hashtbl.find_opt st.sp_port (sp_key p b) with Some s -> s | None -> 0.0)
  | Netlist.Driven_by_cell id -> (
      let c = Netlist.cell nl id in
      match c.Netlist.kind with
      | Cell.Kind.Tie0 -> 0.0
      | Cell.Kind.Tie1 -> 1.0
      | _ -> (
          match Hashtbl.find_opt st.sp_cell c.Netlist.name with
          | Some s -> s
          | None -> 0.0))

(* ------------------------------------------------------------------ *)
(* Edit application                                                    *)

(* [apply_edit sp_of nl ~seq edit] re-derives the edit's context from
   [nl], applies it through a Builder and returns the candidate netlist
   plus SP provenance assignments (instance name, output SP) for the new
   cells.  Raises [Reject] when the context no longer matches. *)
let apply_edit sp_of nl ~seq edit =
  let nm suffix = Printf.sprintf "_rp%d_%s" seq suffix in
  let find name =
    match Netlist.find_cell nl name with
    | c -> c
    | exception Not_found -> rejectf "edit: no cell named %s" name
  in
  let pin_net (c : Netlist.cell) pin =
    if pin < 0 || pin >= Array.length c.Netlist.inputs then
      rejectf "edit: pin %d out of range on %s" pin c.Netlist.name;
    c.Netlist.inputs.(pin)
  in
  match edit with
  | Buf_elim { eb_reader; eb_pin } -> (
      let r = find eb_reader in
      match comb_driver nl (pin_net r eb_pin) with
      | Some buf when buf.Netlist.kind = Cell.Kind.Buf ->
          let b = Netlist.Builder.of_netlist nl in
          Netlist.Builder.rewire_input b ~cell_id:r.Netlist.id ~pin:eb_pin
            buf.Netlist.inputs.(0);
          (Netlist.Builder.finish b, [])
      | _ -> rejectf "buf-elim: %s.%d does not read a BUF" eb_reader eb_pin)
  | Not_not { en_reader; en_pin } -> (
      let r = find en_reader in
      match comb_driver nl (pin_net r en_pin) with
      | Some outer when outer.Netlist.kind = Cell.Kind.Not -> (
          match comb_driver nl outer.Netlist.inputs.(0) with
          | Some inner when inner.Netlist.kind = Cell.Kind.Not ->
              let b = Netlist.Builder.of_netlist nl in
              Netlist.Builder.rewire_input b ~cell_id:r.Netlist.id ~pin:en_pin
                inner.Netlist.inputs.(0);
              (Netlist.Builder.finish b, [])
          | _ -> rejectf "not-not: %s.%d does not read NOT(NOT(x))" en_reader en_pin)
      | _ -> rejectf "not-not: %s.%d does not read a NOT" en_reader en_pin)
  | Fuse_inv { ef_reader; ef_pin; ef_kind } -> (
      let r = find ef_reader in
      match comb_driver nl (pin_net r ef_pin) with
      | Some inv when inv.Netlist.kind = Cell.Kind.Not -> (
          match comb_driver nl inv.Netlist.inputs.(0) with
          | Some g when complement_kind g.Netlist.kind = Some ef_kind ->
              let b = Netlist.Builder.of_netlist nl in
              let out =
                Netlist.Builder.add_cell ~name:(nm "fuse") b ef_kind
                  (Array.copy g.Netlist.inputs)
              in
              Netlist.Builder.rewire_input b ~cell_id:r.Netlist.id ~pin:ef_pin out;
              (* the fused cell computes NOT(g): same function as the
                 inverter's output, so it inherits that SP exactly *)
              (Netlist.Builder.finish b, [ (nm "fuse", sp_of inv.Netlist.output) ])
          | _ -> rejectf "fuse: %s.%d is not NOT(g) with complement %s" ef_reader ef_pin
                   (Cell.Kind.to_string ef_kind))
      | _ -> rejectf "fuse: %s.%d does not read a NOT" ef_reader ef_pin)
  | Chain_balance { ec_reader; ec_pin; ec_chain } ->
      let r = find ec_reader in
      let chain = List.map find ec_chain in
      let kind =
        match chain with
        | [] | [ _ ] -> rejectf "balance: chain shorter than 2"
        | c :: _ -> c.Netlist.kind
      in
      (match kind with
      | Cell.Kind.And2 | Cell.Kind.Or2 | Cell.Kind.Xor2 -> ()
      | k -> rejectf "balance: %s is not associative" (Cell.Kind.to_string k));
      (* collect leaves: both inputs of the deepest cell, then the side
         input of every later cell (its other input must be its
         predecessor's output, consumed exactly once) *)
      let leaves = ref [] and prev = ref None in
      List.iter
        (fun c ->
          if c.Netlist.kind <> kind then
            rejectf "balance: %s breaks the %s chain" c.Netlist.name
              (Cell.Kind.to_string kind);
          (match !prev with
          | None ->
              leaves := [ c.Netlist.inputs.(1); c.Netlist.inputs.(0) ]
          | Some (p : Netlist.cell) ->
              let i0 = c.Netlist.inputs.(0) and i1 = c.Netlist.inputs.(1) in
              if i0 = p.Netlist.output && i1 = p.Netlist.output then
                rejectf "balance: %s reads its predecessor twice" c.Netlist.name
              else if i0 = p.Netlist.output then leaves := i1 :: !leaves
              else if i1 = p.Netlist.output then leaves := i0 :: !leaves
              else rejectf "balance: %s does not read its predecessor" c.Netlist.name);
          prev := Some c)
        chain;
      let root = match !prev with Some c -> c | None -> assert false in
      if pin_net r ec_pin <> root.Netlist.output then
        rejectf "balance: %s.%d does not read the chain root" ec_reader ec_pin;
      let b = Netlist.Builder.of_netlist nl in
      let assigns = ref [] and fresh = ref 0 in
      let new_cell nets =
        let name = nm (Printf.sprintf "bal%d" !fresh) in
        incr fresh;
        let out = Netlist.Builder.add_cell ~name b kind nets in
        (name, out)
      in
      (* pairwise reduction of the leaf list = a balanced tree; the
         multiset of leaves is unchanged and [kind] is associative and
         commutative, so the root computes the same function *)
      let rec reduce nets =
        match nets with
        | [ n ] -> n
        | _ ->
            let rec pair = function
              | a :: b :: rest ->
                  let _, out = new_cell [| a; b |] in
                  out :: pair rest
              | rest -> rest
            in
            reduce (pair nets)
      in
      let tree_root = reduce (List.rev !leaves) in
      Netlist.Builder.rewire_input b ~cell_id:r.Netlist.id ~pin:ec_pin tree_root;
      (* internal nodes are pinned at SP 0 (max aging, sound); the root
         recomputes the old root's function and inherits its SP *)
      let sp_root = sp_of root.Netlist.output in
      let cand = Netlist.Builder.finish b in
      let root_name =
        match Netlist.driver cand tree_root with
        | Netlist.Driven_by_cell id -> (Netlist.cell cand id).Netlist.name
        | Netlist.Driven_by_input _ -> rejectf "balance: degenerate chain"
      in
      assigns := [ (root_name, sp_root) ];
      (cand, !assigns)
  | Shannon { es_reader; es_pin; es_late } ->
      let r = find es_reader in
      let d_net = pin_net r es_pin in
      let late = find es_late in
      let late_net = late.Netlist.output in
      (* cone = combinational cells both reachable from the late net and
         able to reach the pin *)
      let ncells = Netlist.num_cells nl in
      let fwd = Array.make (max 1 ncells) false in
      let q = Queue.create () in
      let push_readers net =
        List.iter
          (fun rid ->
            let g = Netlist.cell nl rid in
            if (not (Cell.Kind.is_sequential g.Netlist.kind)) && not fwd.(rid) then begin
              fwd.(rid) <- true;
              Queue.add rid q
            end)
          (Netlist.readers nl net)
      in
      push_readers late_net;
      while not (Queue.is_empty q) do
        push_readers (Netlist.cell nl (Queue.pop q)).Netlist.output
      done;
      let bwd = Array.make (max 1 ncells) false in
      let qb = Queue.create () in
      let push_back net =
        match comb_driver nl net with
        | Some c when not bwd.(c.Netlist.id) ->
            bwd.(c.Netlist.id) <- true;
            Queue.add c.Netlist.id qb
        | _ -> ()
      in
      push_back d_net;
      while not (Queue.is_empty qb) do
        Array.iter push_back (Netlist.cell nl (Queue.pop qb)).Netlist.inputs
      done;
      let cone =
        Array.to_list (Netlist.topo_order nl)
        |> List.filter (fun id -> fwd.(id) && bwd.(id))
      in
      if cone = [] then rejectf "shannon: no cone between %s and %s.%d" es_late es_reader es_pin;
      (match Netlist.driver nl d_net with
      | Netlist.Driven_by_cell id when fwd.(id) && bwd.(id) -> ()
      | _ -> rejectf "shannon: pin driver outside the cone");
      let b = Netlist.Builder.of_netlist nl in
      let tie0 = ref None and tie1 = ref None in
      let tie v =
        let cache = if v then tie1 else tie0 in
        match !cache with
        | Some n -> n
        | None ->
            let n =
              Netlist.Builder.add_cell ~name:(nm (if v then "t1" else "t0")) b
                (if v then Cell.Kind.Tie1 else Cell.Kind.Tie0)
                [||]
            in
            cache := Some n;
            n
      in
      let materialize = function Netlist_opt.Const bv -> tie bv | Netlist_opt.Same n -> n in
      let assigns = ref [] in
      let copy_cofactor tag value =
        let map = Hashtbl.create 97 in
        let abstract net =
          if net = late_net then Netlist_opt.Const value
          else
            match Netlist.driver nl net with
            | Netlist.Driven_by_cell did when Hashtbl.mem map did -> Hashtbl.find map did
            | _ -> Netlist_opt.Same net
        in
        let k = ref 0 in
        List.iter
          (fun id ->
            let c = Netlist.cell nl id in
            let vals = Array.map abstract c.Netlist.inputs in
            let v =
              match Netlist_opt.fold c.Netlist.kind vals with
              | Some v -> v
              | None ->
                  let nets = Array.map materialize vals in
                  let name = nm (Printf.sprintf "%s%d" tag !k) in
                  incr k;
                  let out = Netlist.Builder.add_cell ~name b c.Netlist.kind nets in
                  assigns := (name, 0.0) :: !assigns;
                  Netlist_opt.Same out
            in
            Hashtbl.replace map id v)
          cone;
        match Netlist.driver nl d_net with
        | Netlist.Driven_by_cell id -> Hashtbl.find map id
        | Netlist.Driven_by_input _ -> assert false
      in
      let f0 = copy_cofactor "s0c" false in
      let f1 = copy_cofactor "s1c" true in
      let mux =
        Netlist.Builder.add_cell ~name:(nm "mux") b Cell.Kind.Mux2
          [| materialize f0; materialize f1; late_net |]
      in
      Netlist.Builder.rewire_input b ~cell_id:r.Netlist.id ~pin:es_pin mux;
      (* the mux recomputes the original pin function and inherits its SP *)
      assigns := (nm "mux", sp_of d_net) :: !assigns;
      (Netlist.Builder.finish b, !assigns)
  | Hold_pad { eh_reader; eh_pin; eh_bufs } ->
      if eh_bufs < 1 || eh_bufs > 64 then rejectf "hold-pad: %d buffers" eh_bufs;
      let r = find eh_reader in
      let src = pin_net r eh_pin in
      let sp_src = sp_of src in
      let b = Netlist.Builder.of_netlist nl in
      let cur = ref src and assigns = ref [] in
      for k = 0 to eh_bufs - 1 do
        let name = nm (Printf.sprintf "pad%d" k) in
        cur := Netlist.Builder.add_cell ~name b Cell.Kind.Buf [| !cur |];
        assigns := (name, sp_src) :: !assigns
      done;
      Netlist.Builder.rewire_input b ~cell_id:r.Netlist.id ~pin:eh_pin !cur;
      (Netlist.Builder.finish b, !assigns)
  | Vote3 { ev_reader; ev_pin } -> (
      let r = find ev_reader in
      match comb_driver nl (pin_net r ev_pin) with
      | Some g when Cell.Kind.arity g.Netlist.kind > 0 ->
          let b = Netlist.Builder.of_netlist nl in
          let a = g.Netlist.output in
          let ga =
            Netlist.Builder.add_cell ~name:(nm "va") b g.Netlist.kind
              (Array.copy g.Netlist.inputs)
          in
          let gb =
            Netlist.Builder.add_cell ~name:(nm "vb") b g.Netlist.kind
              (Array.copy g.Netlist.inputs)
          in
          (* maj(a,ga,gb) = (a & ga) | (gb & (a | ga)) *)
          let m_ab = Netlist.Builder.add_cell ~name:(nm "vand") b Cell.Kind.And2 [| a; ga |] in
          let o_ab = Netlist.Builder.add_cell ~name:(nm "vor") b Cell.Kind.Or2 [| a; ga |] in
          let m_c = Netlist.Builder.add_cell ~name:(nm "vsel") b Cell.Kind.And2 [| gb; o_ab |] in
          let v = Netlist.Builder.add_cell ~name:(nm "vmaj") b Cell.Kind.Or2 [| m_ab; m_c |] in
          Netlist.Builder.rewire_input b ~cell_id:r.Netlist.id ~pin:ev_pin v;
          (* every voter node computes the replicated function (the
             replicas agree), so all inherit the driver's SP exactly *)
          let s = sp_of a in
          ( Netlist.Builder.finish b,
            List.map (fun suffix -> (nm suffix, s)) [ "va"; "vb"; "vand"; "vor"; "vsel"; "vmaj" ] )
      | _ -> rejectf "vote3: %s.%d is not driven by a replicable cell" ev_reader ev_pin)
  | Approx_tie { ea_reader; ea_pin; ea_value } ->
      let r = find ea_reader in
      if Cell.Kind.is_sequential r.Netlist.kind then
        rejectf "approx: refusing to tie a register D pin (would be NL011)";
      ignore (pin_net r ea_pin);
      let b = Netlist.Builder.of_netlist nl in
      let t =
        Netlist.Builder.add_cell ~name:(nm "tie") b
          (if ea_value then Cell.Kind.Tie1 else Cell.Kind.Tie0)
          [||]
      in
      Netlist.Builder.rewire_input b ~cell_id:r.Netlist.id ~pin:ea_pin t;
      (Netlist.Builder.finish b, [])

(* ------------------------------------------------------------------ *)
(* Ledger JSON codecs (checkpoint format)                              *)

let kind_of_string s =
  match List.find_opt (fun k -> Cell.Kind.to_string k = s) Cell.Kind.all with
  | Some k -> k
  | None -> invalid_arg ("Repair: unknown cell kind " ^ s)

let edit_to_json edit =
  let base t reader pin rest =
    Json.Obj
      ([ ("edit", Json.String t); ("reader", Json.String reader); ("pin", Json.Int pin) ]
      @ rest)
  in
  match edit with
  | Buf_elim { eb_reader; eb_pin } -> base "buf-elim" eb_reader eb_pin []
  | Not_not { en_reader; en_pin } -> base "not-not" en_reader en_pin []
  | Fuse_inv { ef_reader; ef_pin; ef_kind } ->
      base "fuse" ef_reader ef_pin [ ("kind", Json.String (Cell.Kind.to_string ef_kind)) ]
  | Chain_balance { ec_reader; ec_pin; ec_chain } ->
      base "balance" ec_reader ec_pin
        [ ("chain", Json.List (List.map (fun s -> Json.String s) ec_chain)) ]
  | Shannon { es_reader; es_pin; es_late } ->
      base "shannon" es_reader es_pin [ ("late", Json.String es_late) ]
  | Hold_pad { eh_reader; eh_pin; eh_bufs } ->
      base "hold-pad" eh_reader eh_pin [ ("bufs", Json.Int eh_bufs) ]
  | Vote3 { ev_reader; ev_pin } -> base "vote3" ev_reader ev_pin []
  | Approx_tie { ea_reader; ea_pin; ea_value } ->
      base "tie" ea_reader ea_pin [ ("value", Json.Bool ea_value) ]

let jok = function Ok v -> v | Error e -> invalid_arg ("Repair: malformed ledger: " ^ e)
let jmem name j = jok (Json.member name j)
let jstr name j = jok (Json.to_str (jmem name j))
let jint name j = jok (Json.to_int (jmem name j))
let jfloat name j = jok (Json.to_float (jmem name j))
let jbool name j = jok (Json.to_bool (jmem name j))
let jlist name j = jok (Json.to_list (jmem name j))

let edit_of_json j =
  let reader = jstr "reader" j in
  let pin = jint "pin" j in
  match jstr "edit" j with
  | "buf-elim" -> Buf_elim { eb_reader = reader; eb_pin = pin }
  | "not-not" -> Not_not { en_reader = reader; en_pin = pin }
  | "fuse" ->
      Fuse_inv
        { ef_reader = reader; ef_pin = pin; ef_kind = kind_of_string (jstr "kind" j) }
  | "balance" ->
      Chain_balance
        { ec_reader = reader; ec_pin = pin;
          ec_chain = List.map (fun v -> jok (Json.to_str v)) (jlist "chain" j) }
  | "shannon" -> Shannon { es_reader = reader; es_pin = pin; es_late = jstr "late" j }
  | "hold-pad" -> Hold_pad { eh_reader = reader; eh_pin = pin; eh_bufs = jint "bufs" j }
  | "vote3" -> Vote3 { ev_reader = reader; ev_pin = pin }
  | "tie" -> Approx_tie { ea_reader = reader; ea_pin = pin; ea_value = jbool "value" j }
  | t -> invalid_arg ("Repair: unknown ledger edit " ^ t)

let committed_to_json c =
  Json.Obj
    [
      ("seq", Json.Int c.cm_seq);
      ("pair", Json.String c.cm_pair);
      ("rung", Json.String (rung_name c.cm_rung));
      ("edit", edit_to_json c.cm_edit);
      ( "verification",
        match c.cm_verification with
        | Verified_cec -> Json.String "cec"
        | Verified_bound r -> Json.Float r );
      ("slack_before_ps", Json.Float c.cm_slack_before_ps);
      ("slack_after_ps", Json.Float c.cm_slack_after_ps);
      ("cells_added", Json.Int c.cm_cells_added);
    ]

(* ------------------------------------------------------------------ *)
(* 64-lane random differential (approximate-edit bound)                *)

let lane_mask = Sim64.all_lanes

let rand_word rng =
  (Random.State.bits rng
  lor (Random.State.bits rng lsl 30)
  lor (Random.State.bits rng lsl 60))
  land lane_mask

(* Fraction of differing output bits between the two netlists under
   [cycles] cycles of shared uniform-random stimulus, Sim64.lanes lanes
   per cycle.  Deterministic for a given seed. *)
let error_rate ~seed ~cycles ref_nl cand_nl =
  let sa = Sim64.create ref_nl and sb = Sim64.create cand_nl in
  Sim64.reset sa;
  Sim64.reset sb;
  let rng = Random.State.make [| 0x5eed; seed |] in
  let ins = Netlist.inputs ref_nl in
  let outs = List.map (fun p -> p.Netlist.port_name) (Netlist.outputs ref_nl) in
  let mism = ref 0 and total = ref 0 in
  for _ = 1 to cycles do
    List.iter
      (fun p ->
        let words = Array.map (fun _ -> rand_word rng) p.Netlist.port_nets in
        Sim64.set_input_words sa p.Netlist.port_name words;
        Sim64.set_input_words sb p.Netlist.port_name words)
      ins;
    Sim64.step sa;
    Sim64.step sb;
    List.iter
      (fun name ->
        let wa = Sim64.output_words sa name and wb = Sim64.output_words sb name in
        Array.iteri
          (fun i w ->
            mism := !mism + Sim64.popcount ((w lxor wb.(i)) land lane_mask);
            total := !total + Sim64.lanes)
          wa)
      outs
  done;
  float_of_int !mism /. float_of_int (max 1 !total)

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)

(* The exact aged slack of every register pair of one netlist version:
   [Sta.endpoint_pairs] under [tb_timing], with a by-pair lookup and the
   violating subset in [Sta.violating_pairs] order (worst first). *)
type table = {
  tb_nl : Netlist.t;
  tb_timing : Sta.timing_source;
  tb_pairs : (Sta.startpoint * Sta.endpoint * Sta.check * float) list;
  tb_slack : (Sta.startpoint * Sta.endpoint * Sta.check, float) Hashtbl.t Lazy.t;
  tb_violating : (Sta.startpoint * Sta.endpoint * Sta.check * float) list;
}

type state = {
  cfg : config;
  sp : sp_state;
  celllib : Cell.Library.t;
  derate : float;
  clock_tree : Clock_tree.t;
  years : float;
  clock_period_ps : float;
  aglib : Aging.Timing_library.t;
  original : Netlist.t;
  codes0 : string list;
  area0 : float;
  mutable nl : Netlist.t;
  mutable seq : int;
  mutable rewrites : int;
  mutable rejected : int;
  mutable cec_failures : int;
  mutable ledger : committed list;  (* newest first *)
  mutable table : table option;  (* of [nl]; [None] until needed *)
  log : string -> unit;
}

let timing_of st nl =
  Sta.aged_timing ~derate:st.derate ~clock_tree:st.clock_tree
    ~sp_of_net:(sp_view st.sp nl) ~years:st.years st.aglib

let pair_path st nl (s, e, c) =
  Telemetry.with_span ~cat:"repair" "repair.pair_path" @@ fun () ->
  Sta.pair_path ~timing:(timing_of st nl) ~clock_period_ps:st.clock_period_ps nl s e c

(* Time [nl] in full, or from [parent]'s table when [nl] is a candidate
   edit of the parent's netlist — only the endpoints the edit reaches are
   re-timed, and the table is the same as a full sweep's, bit for bit. *)
let build_table ?parent st nl =
  let timing = timing_of st nl and clock_period_ps = st.clock_period_ps in
  let tele = Telemetry.enabled () in
  if tele then Telemetry.begin_span ~cat:"repair" "repair.retime";
  let retimed = ref (-1) in
  let pairs =
    match parent with
    | None -> Sta.endpoint_pairs ~timing ~clock_period_ps nl
    | Some p ->
        Sta.retime_pairs
          ~on_retime:(fun ~retimed:r ~total:_ -> retimed := r)
          ~parent:(p.tb_nl, p.tb_timing, p.tb_pairs) ~timing ~clock_period_ps nl
  in
  if tele then begin
    let total = List.length (Netlist.dffs nl) in
    let retimed = if !retimed < 0 then total else !retimed in
    Telemetry.end_span
      ~args:[ ("endpoints_retimed", Telemetry.Int retimed); ("endpoints_total", Telemetry.Int total) ]
      ()
  end;
  {
    tb_nl = nl;
    tb_timing = timing;
    tb_pairs = pairs;
    tb_slack =
      lazy
        (let h = Hashtbl.create 1024 in
         List.iter (fun (s, e, c, slack) -> Hashtbl.replace h (s, e, c) slack) pairs;
         h);
    tb_violating =
      List.filter (fun (_, _, _, slack) -> slack < 0.0) pairs
      |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare a b);
  }

let current_table st =
  match st.table with
  | Some t -> t
  | None ->
      let t = build_table st st.nl in
      st.table <- Some t;
      t

(* ------------------------------------------------------------------ *)
(* Candidate search along the extremal path                            *)

let pin_of (c : Netlist.cell) net =
  let rec go k =
    if k >= Array.length c.Netlist.inputs then None
    else if c.Netlist.inputs.(k) = net then Some k
    else go (k + 1)
  in
  go 0

let setup_candidates st nl (path : Sta.path) =
  let cells = Array.of_list (List.map (Netlist.cell nl) path.Sta.through) in
  let n = Array.length cells in
  let (Sta.At_dff cap_id) = path.Sta.finish in
  let capture = Netlist.cell nl cap_id in
  let consumer i = if i = n - 1 then capture else cells.(i + 1) in
  (* strengthen: scan from the capture side inward *)
  let strengthen = ref [] in
  for i = 0 to n - 1 do
    let c = cells.(i) in
    let cons = consumer i in
    match pin_of cons c.Netlist.output with
    | None -> ()
    | Some pin -> (
        match c.Netlist.kind with
        | Cell.Kind.Buf ->
            strengthen :=
              (Strengthen, Buf_elim { eb_reader = cons.Netlist.name; eb_pin = pin })
              :: !strengthen
        | Cell.Kind.Not -> (
            match comb_driver nl c.Netlist.inputs.(0) with
            | Some g when g.Netlist.kind = Cell.Kind.Not ->
                strengthen :=
                  (Strengthen, Not_not { en_reader = cons.Netlist.name; en_pin = pin })
                  :: !strengthen
            | Some g -> (
                match complement_kind g.Netlist.kind with
                | Some fused ->
                    strengthen :=
                      ( Strengthen,
                        Fuse_inv
                          { ef_reader = cons.Netlist.name; ef_pin = pin; ef_kind = fused } )
                      :: !strengthen
                | None -> ())
            | None -> ())
        | _ -> ())
  done;
  (* associative chain runs of length >= 3 along the path *)
  let chains = ref [] in
  let i = ref 0 in
  while !i < n do
    let k = cells.(!i).Netlist.kind in
    let assoc =
      match k with Cell.Kind.And2 | Cell.Kind.Or2 | Cell.Kind.Xor2 -> true | _ -> false
    in
    if assoc then begin
      let j = ref !i in
      let extends t =
        t + 1 < n
        && cells.(t + 1).Netlist.kind = k
        &&
        let nx = cells.(t + 1) and p = cells.(t) in
        let i0 = nx.Netlist.inputs.(0) = p.Netlist.output
        and i1 = nx.Netlist.inputs.(1) = p.Netlist.output in
        (i0 || i1) && not (i0 && i1)
      in
      while extends !j do
        incr j
      done;
      let len = !j - !i + 1 in
      (if len >= 3 then
         let cons = consumer !j in
         match pin_of cons cells.(!j).Netlist.output with
         | Some pin ->
             let chain =
               Array.to_list (Array.sub cells !i len)
               |> List.map (fun (c : Netlist.cell) -> c.Netlist.name)
             in
             chains :=
               ( Rebalance,
                 Chain_balance { ec_reader = cons.Netlist.name; ec_pin = pin; ec_chain = chain } )
               :: !chains
         | None -> ());
      i := !j + 1
    end
    else incr i
  done;
  (* Shannon restructure against the late signal m cells up the path *)
  let shannons = ref [] in
  for m = min 4 n downto 2 do
    let late_name =
      if m < n then Some cells.(n - m - 1).Netlist.name
      else
        match path.Sta.start with
        | Sta.From_dff id -> Some (Netlist.cell nl id).Netlist.name
        | Sta.From_input _ -> None
    in
    match late_name with
    | Some late ->
        shannons :=
          ( Rebalance,
            Shannon { es_reader = capture.Netlist.name; es_pin = 0; es_late = late } )
          :: !shannons
    | None -> ()
  done;
  (* approximate constant tie on the pin the worst path enters through *)
  let approx =
    match st.cfg.rp_approx_bound with
    | None -> []
    | Some _ when n = 0 -> []
    | Some _ -> (
        let last = cells.(n - 1) in
        let prev_net =
          if n >= 2 then Some cells.(n - 2).Netlist.output
          else
            match path.Sta.start with
            | Sta.From_dff id -> Some (Netlist.cell nl id).Netlist.output
            | Sta.From_input _ -> None
        in
        match prev_net with
        | None -> []
        | Some pnet -> (
            match pin_of last pnet with
            | None -> []
            | Some pin ->
                let v = sp_view st.sp nl pnet >= 0.5 in
                [ ( Approx,
                    Approx_tie { ea_reader = last.Netlist.name; ea_pin = pin; ea_value = v } ) ]))
  in
  List.concat_map
    (fun rung ->
      match rung with
      | Strengthen -> List.filter (fun (r, _) -> r = Strengthen) !strengthen
      | Rebalance -> List.rev !chains @ !shannons
      | Dup_vote -> []
      | Approx -> approx)
    st.cfg.rp_rungs

let hold_candidates st nl (path : Sta.path) =
  let (Sta.At_dff cap_id) = path.Sta.finish in
  let capture = Netlist.cell nl cap_id in
  let deficit = -.path.Sta.slack_ps in
  let buf_min = (Cell.Library.timing st.celllib Cell.Kind.Buf).Cell.tpd_min_ps in
  let bufs =
    max 1 (int_of_float (Float.ceil (deficit /. Float.max buf_min 1.0)))
  in
  let pad =
    (Strengthen, Hold_pad { eh_reader = capture.Netlist.name; eh_pin = 0; eh_bufs = min bufs 32 })
  in
  let vote =
    match comb_driver nl capture.Netlist.inputs.(0) with
    | Some g when Cell.Kind.arity g.Netlist.kind > 0 ->
        [ (Dup_vote, Vote3 { ev_reader = capture.Netlist.name; ev_pin = 0 }) ]
    | _ -> []
  in
  List.concat_map
    (fun rung ->
      match rung with
      | Strengthen -> [ pad ]
      | Dup_vote -> vote
      | Rebalance | Approx -> [])
    st.cfg.rp_rungs

let candidates st nl (path : Sta.path) =
  match path.Sta.check with
  | Sta.Setup -> setup_candidates st nl path
  | Sta.Hold -> hold_candidates st nl path

(* ------------------------------------------------------------------ *)
(* The verification gate                                               *)

type accepted = {
  ac_nl : Netlist.t;
  ac_table : table;
  ac_verification : verification;
  ac_slack_after : float;
  ac_cells_added : int;
}

let evaluate st pair slack_before edit =
  try
    let cand, assigns =
      Telemetry.with_span ~cat:"repair" "repair.edit" (fun () ->
          apply_edit (sp_view st.sp st.nl) st.nl ~seq:st.seq edit)
    in
    List.iter (fun (n, s) -> Hashtbl.replace st.sp.sp_cell n s) assigns;
    let cleanup () = List.iter (fun (n, _) -> Hashtbl.remove st.sp.sp_cell n) assigns in
    (try
       (* gate 1: the pair's aged slack must strictly improve *)
       let slack' =
         match pair_path st cand pair with Some p -> p.Sta.slack_ps | None -> infinity
       in
       if not (slack' > slack_before +. 1e-6) then
         rejectf "no slack improvement (%.1f -> %.1f ps)" slack_before slack';
       (* gate 2: no collateral damage — the violating set must not gain
          members and no member may get worse.  Candidates keep every
          cell id, so a pair is the same pair in both tables. *)
       let cur = current_table st in
       let table = build_table ~parent:cur st cand in
       let cur_slack = Lazy.force cur.tb_slack in
       List.iter
         (fun (s, e, c, s') ->
           match Hashtbl.find_opt cur_slack (s, e, c) with
           | Some s0 when s0 < 0.0 ->
               if s' < s0 -. 1e-6 then rejectf "worsens pair %s" (Spbound.pair_key cand s e c)
           | _ -> rejectf "creates new violating pair %s" (Spbound.pair_key cand s e c))
         table.tb_violating;
       (* gate 3: area budget over live cells *)
       let area' = live_area st.celllib cand in
       if area' > st.area0 *. (1.0 +. st.cfg.rp_max_area_frac) then
         rejectf "area budget exceeded (%.1f -> %.1f um2)" st.area0 area';
       (* gate 4: the swept candidate must not introduce a lint code *)
       let swept =
         Telemetry.with_span ~cat:"repair" "repair.sweep" (fun () -> Netlist_opt.sweep cand)
       in
       let diags =
         Telemetry.with_span ~cat:"repair" "repair.lint" (fun () -> Check.lint_netlist swept)
       in
       (match Check.errors diags with
       | [] -> ()
       | d :: _ -> rejectf "lint error %s" (Check.code_id d.Check.code));
       List.iter
         (fun d ->
           let c = Check.code_id d.Check.code in
           if not (List.mem c st.codes0) then rejectf "introduces lint %s" c)
         diags;
       (* gate 5: the proof *)
       let verification =
         match edit with
         | Approx_tie _ ->
             let bound =
               match st.cfg.rp_approx_bound with
               | Some b -> b
               | None -> rejectf "approximation disabled"
             in
             let rate =
               Telemetry.with_span ~cat:"repair" "repair.differential" (fun () ->
                   error_rate ~seed:st.cfg.rp_seed ~cycles:st.cfg.rp_approx_cycles
                     st.original cand)
             in
             if rate > bound then rejectf "error rate %.6f above bound %.6f" rate bound;
             Verified_bound rate
         | _ -> (
             Telemetry.Counter.incr tele_cec;
             match
               Telemetry.with_span ~cat:"repair" "repair.cec" (fun () ->
                   Cec.check ~max_conflicts:st.cfg.rp_max_conflicts st.nl cand)
             with
             | Cec.Equivalent -> Verified_cec
             | Cec.Inequivalent cex ->
                 st.cec_failures <- st.cec_failures + 1;
                 rejectf "CEC refuted the rewrite at %s" cex.Cec.cex_site
             | Cec.Unknown -> rejectf "CEC inconclusive (conflict budget)")
       in
       Ok
         {
           ac_nl = cand;
           ac_table = table;
           ac_verification = verification;
           ac_slack_after = slack';
           ac_cells_added = Netlist.num_cells cand - Netlist.num_cells st.nl;
         }
     with e ->
       cleanup ();
       raise e)
  with
  | Reject msg -> Error msg
  | Invalid_argument msg -> Error ("builder rejected: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Greedy driver                                                       *)

let commit st pkey rung edit acc slack_before =
  st.nl <- acc.ac_nl;
  st.table <- Some acc.ac_table;
  st.ledger <-
    {
      cm_seq = st.seq;
      cm_pair = pkey;
      cm_rung = rung;
      cm_edit = edit;
      cm_verification = acc.ac_verification;
      cm_slack_before_ps = slack_before;
      cm_slack_after_ps = acc.ac_slack_after;
      cm_cells_added = acc.ac_cells_added;
    }
    :: st.ledger;
  st.seq <- st.seq + 1;
  st.rewrites <- st.rewrites + 1;
  Telemetry.Counter.incr tele_committed;
  st.log
    (Printf.sprintf "  commit [%s] %s  %.1f -> %.1f ps" (rung_name rung)
       (describe_edit edit) slack_before acc.ac_slack_after)

(* Repair one pair in place.  Returns the reason the pair could not be
   fully repaired, or [None] if its slack is non-negative on exit. *)
let repair_one st pair pkey =
  let rec go n last_reason =
    if st.rewrites >= st.cfg.rp_max_rewrites then Some "rewrite budget exhausted"
    else if n >= st.cfg.rp_max_pair_edits then Some "per-pair edit cap reached"
    else
      match pair_path st st.nl pair with
      | None -> None
      | Some path when path.Sta.slack_ps >= 0.0 -> None
      | Some path ->
          let slack = path.Sta.slack_ps in
          let cands = candidates st st.nl path in
          let rec try_cands reason = function
            | [] -> `Stuck reason
            | (rung, edit) :: rest -> (
                match evaluate st pair slack edit with
                | Ok acc -> `Committed (rung, edit, acc)
                | Error msg ->
                    st.rejected <- st.rejected + 1;
                    Telemetry.Counter.incr tele_rejected;
                    st.log (Printf.sprintf "  reject %s: %s" (describe_edit edit) msg);
                    try_cands (Some msg) rest)
          in
          (match try_cands last_reason cands with
          | `Stuck r ->
              Some (Option.value r ~default:"no applicable rewrite on the critical path")
          | `Committed (rung, edit, acc) ->
              commit st pkey rung edit acc slack;
              go (n + 1) None)
  in
  go 0 None

let replay_pair st pkey edits_json =
  List.iter
    (fun cj ->
      let edit = edit_of_json (jmem "edit" cj) in
      let rung = rung_of_name (jstr "rung" cj) in
      let verification =
        match jmem "verification" cj with
        | Json.String "cec" -> Verified_cec
        | v -> Verified_bound (jok (Json.to_float v))
      in
      let cand, assigns =
      Telemetry.with_span ~cat:"repair" "repair.edit" (fun () ->
          apply_edit (sp_view st.sp st.nl) st.nl ~seq:st.seq edit)
    in
      List.iter (fun (n, s) -> Hashtbl.replace st.sp.sp_cell n s) assigns;
      st.nl <- cand;
      st.ledger <-
        {
          cm_seq = st.seq;
          cm_pair = pkey;
          cm_rung = rung;
          cm_edit = edit;
          cm_verification = verification;
          cm_slack_before_ps = jfloat "slack_before_ps" cj;
          cm_slack_after_ps = jfloat "slack_after_ps" cj;
          cm_cells_added = jint "cells_added" cj;
        }
        :: st.ledger;
      st.seq <- st.seq + 1;
      st.rewrites <- st.rewrites + 1)
    edits_json;
  st.table <- None

let digest cfg nl ~clock_period_ps ~years =
  Resilience.digest_of_strings
    [
      "vega-repair/1";
      Resilience.netlist_digest nl;
      Printf.sprintf "%.17g" clock_period_ps;
      Printf.sprintf "%.17g" years;
      string_of_int cfg.rp_max_rewrites;
      Printf.sprintf "%.17g" cfg.rp_max_area_frac;
      string_of_int cfg.rp_max_pair_edits;
      String.concat "," (List.map rung_name cfg.rp_rungs);
      (match cfg.rp_approx_bound with
      | None -> "approx-off"
      | Some b -> Printf.sprintf "%.17g" b);
      string_of_int cfg.rp_approx_cycles;
      string_of_int cfg.rp_seed;
      string_of_int cfg.rp_max_conflicts;
      string_of_int cfg.rp_max_cone;
    ]

let run ?(config = default_config) ?checkpoint ?(log = fun _ -> ()) ~netlist
    ~sp_of_net ~clock_period_ps ~years ~derate ~clock_tree ~aglib ~pairs () =
  Telemetry.with_span ~cat:"repair" "repair.run" @@ fun () ->
  let diags0 = Check.lint_netlist netlist in
  (match Check.errors diags0 with
  | [] -> ()
  | d :: _ ->
      invalid_arg
        (Printf.sprintf "Repair.run: netlist fails lint %s at %s"
           (Check.code_id d.Check.code) d.Check.loc));
  let celllib = Aging.Timing_library.cell_library aglib in
  let st =
    {
      cfg = config;
      sp = sp_init netlist sp_of_net;
      celllib;
      derate;
      clock_tree;
      years;
      clock_period_ps;
      aglib;
      original = netlist;
      codes0 = List.map (fun d -> Check.code_id d.Check.code) diags0;
      area0 = live_area celllib netlist;
      nl = netlist;
      seq = 0;
      rewrites = 0;
      rejected = 0;
      cec_failures = 0;
      ledger = [];
      table = None;
      log;
    }
  in
  ignore (current_table st);
  let resumed = ref 0 in
  let worked =
    List.mapi
      (fun i (s, e, c, slack0) ->
        Telemetry.Counter.incr tele_pairs;
        let pkey = Spbound.pair_key netlist s e c in
        let ck_key = Printf.sprintf "pair-%04d" i in
        let cached =
          match checkpoint with
          | Some ck -> Resilience.Checkpoint.load ck ck_key
          | None -> None
        in
        let before = st.rewrites in
        let reason =
          match cached with
          | Some j ->
              incr resumed;
              Telemetry.Counter.incr tele_resumed;
              let edits = jlist "edits" j in
              log (Printf.sprintf "pair %s: replaying %d edit(s) from checkpoint" pkey
                     (List.length edits));
              replay_pair st pkey edits;
              (* restore the exploration counters too, so a resumed run's
                 report is byte-identical to an uninterrupted one *)
              st.rejected <- st.rejected + jint "rejected" j;
              jstr "reason" j
          | None ->
              log (Printf.sprintf "pair %s: slack %.1f ps" pkey slack0);
              let rejected_before = st.rejected in
              let stuck =
                Telemetry.with_span ~cat:"repair" "repair.pair" (fun () ->
                    repair_one st (s, e, c) pkey)
              in
              let reason = Option.value stuck ~default:"" in
              (match checkpoint with
              | Some ck ->
                  let mine =
                    List.rev
                      (List.filteri (fun k _ -> k < st.rewrites - before) st.ledger)
                  in
                  Resilience.Checkpoint.store ck ck_key
                    (Json.Obj
                       [
                         ("pair", Json.String pkey);
                         ("edits", Json.List (List.map committed_to_json mine));
                         ("rejected", Json.Int (st.rejected - rejected_before));
                         ("reason", Json.String reason);
                       ])
              | None -> ());
              reason
        in
        ((s, e, c), pkey, slack0, st.rewrites - before, reason))
      pairs
  in
  (* statuses are judged against the final netlist so later pairs' edits
     (which the gate guarantees never hurt) are reflected everywhere *)
  let final_slack = Lazy.force (current_table st).tb_slack in
  let outcomes =
    List.map
      (fun (pair, pkey, slack0, edits, reason) ->
        let _, _, c = pair in
        let slack_after =
          Option.value (Hashtbl.find_opt final_slack pair) ~default:infinity
        in
        let status =
          if slack_after >= 0.0 then Repaired
          else if slack_after > slack0 +. 1e-6 then Improved
          else Unrepaired (if reason = "" then "no applicable rewrite" else reason)
        in
        {
          po_pair = pkey;
          po_check = c;
          po_slack_before_ps = slack0;
          po_slack_after_ps = slack_after;
          po_edits = edits;
          po_status = status;
        })
      worked
  in
  let final = Netlist_opt.sweep st.nl in
  {
    rs_netlist = final;
    rs_sp_of_net = sp_view st.sp final;
    rs_outcomes = outcomes;
    rs_ledger = List.rev st.ledger;
    rs_rewrites = st.rewrites;
    rs_rejected = st.rejected;
    rs_cec_failures = st.cec_failures;
    rs_cells_before = Netlist.num_cells netlist;
    rs_cells_after = Netlist.num_cells final;
    rs_area_before_um2 = st.area0;
    rs_area_after_um2 = live_area celllib final;
    rs_resumed_pairs = !resumed;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let check_name = function Sta.Setup -> "setup" | Sta.Hold -> "hold"

let render r =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "Netlist repair: %s\n" (Netlist.name r.rs_netlist);
  let count p = List.length (List.filter p r.rs_outcomes) in
  let n_rep = count (fun o -> o.po_status = Repaired) in
  let n_imp = count (fun o -> o.po_status = Improved) in
  let n_unr = List.length r.rs_outcomes - n_rep - n_imp in
  pf "  pairs %d: repaired %d, improved %d, unrepaired %d\n"
    (List.length r.rs_outcomes) n_rep n_imp n_unr;
  let per_rung rg = List.length (List.filter (fun c -> c.cm_rung = rg) r.rs_ledger) in
  pf "  rewrites %d (strengthen %d, dup-vote %d, rebalance %d, approx %d), rejected %d, cec failures %d\n"
    r.rs_rewrites (per_rung Strengthen) (per_rung Dup_vote) (per_rung Rebalance)
    (per_rung Approx) r.rs_rejected r.rs_cec_failures;
  let growth =
    if r.rs_area_before_um2 > 0.0 then
      100.0 *. (r.rs_area_after_um2 -. r.rs_area_before_um2) /. r.rs_area_before_um2
    else 0.0
  in
  pf "  cells %d -> %d, live area %.2f -> %.2f um2 (%+.1f%%)\n" r.rs_cells_before
    r.rs_cells_after r.rs_area_before_um2 r.rs_area_after_um2 growth;
  let recovered =
    List.fold_left
      (fun acc o ->
        if o.po_slack_before_ps < 0.0 then
          acc +. (Float.min o.po_slack_after_ps 0.0 -. o.po_slack_before_ps)
        else acc)
      0.0 r.rs_outcomes
  in
  pf "  recovered slack %.1f ps, resumed pairs %d\n" recovered r.rs_resumed_pairs;
  pf "\n  %-40s %6s %10s %10s %6s  %s\n" "pair" "check" "before" "after" "edits" "status";
  List.iter
    (fun o ->
      let status =
        match o.po_status with
        | Repaired -> "repaired"
        | Improved -> "improved"
        | Unrepaired why -> Printf.sprintf "unrepaired (%s)" why
      in
      let key =
        match String.index_opt o.po_pair ':' with
        | Some i -> String.sub o.po_pair 0 i
        | None -> o.po_pair
      in
      pf "  %-40s %6s %10.1f %10.1f %6d  %s\n" key (check_name o.po_check)
        o.po_slack_before_ps o.po_slack_after_ps o.po_edits status)
    r.rs_outcomes;
  pf "\n  ledger:\n";
  if r.rs_ledger = [] then pf "    (none)\n"
  else
    List.iter
      (fun c ->
        let proof =
          match c.cm_verification with
          | Verified_cec -> "cec"
          | Verified_bound rate -> Printf.sprintf "err %.6f" rate
        in
        pf "    %3d. [%s] %s  %s  %.1f -> %.1f ps (+%d cells, %s)\n" c.cm_seq
          (rung_name c.cm_rung) (describe_edit c.cm_edit) c.cm_pair
          c.cm_slack_before_ps c.cm_slack_after_ps c.cm_cells_added proof)
      r.rs_ledger;
  Buffer.contents b
