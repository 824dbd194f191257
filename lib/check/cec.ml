(* Register-correspondence CEC over a shared hash-consed CNF encoding.

   Both netlists are lowered into one AIG-style node table (constant
   folding + commutative normalization + structural hashing), so common
   subcircuits get the *same* literal.  Equivalence of a netlist with its
   optimized or fault-tied-inactive twin then discharges structurally:
   every comparison point folds to a constant-false difference and the SAT
   solver is never even called.  Real differences leave a miter clause the
   CDCL engine decides.

   The Tseitin clauses are therefore only recorded while encoding, in
   emission order, and handed to a solver on the path that calls it: the
   solver sees the same variables and clauses in the same order as if they
   had been added eagerly, so its search is unchanged. *)

type cex = {
  cex_inputs : (string * Bitvec.t) list;
  cex_states : (string * bool) list;
  cex_site : string;
}

type verdict = Equivalent | Inequivalent of cex | Unknown

type node_key = And of int * int | Xor of int * int

exception Early of verdict

let port_widths l =
  List.map (fun (p : Netlist.port) -> (p.Netlist.port_name, Array.length p.Netlist.port_nets)) l

let check_interfaces ~free_inputs ~kind here_name there_name here there =
  List.iter
    (fun (name, w) ->
      match List.assoc_opt name there with
      | Some w' when w <> w' ->
        invalid_arg
          (Printf.sprintf "Cec.check: %s port %s has width %d in %s but %d in %s" kind name w
             here_name w' there_name)
      | Some _ -> ()
      | None ->
        if not free_inputs then
          invalid_arg
            (Printf.sprintf "Cec.check: %s port %s of %s has no counterpart in %s" kind name
               here_name there_name))
    here

let check ?(free_inputs = false) ?(tie_low = []) ?max_conflicts a b =
  let an = Netlist.name a and bn = Netlist.name b in
  let an, bn = if an = bn then (an ^ "(left)", bn ^ "(right)") else (an, bn) in
  let ia = port_widths (Netlist.inputs a) and ib = port_widths (Netlist.inputs b) in
  check_interfaces ~free_inputs ~kind:"input" an bn ia ib;
  check_interfaces ~free_inputs ~kind:"input" bn an ib ia;
  let oa = port_widths (Netlist.outputs a) and ob = port_widths (Netlist.outputs b) in
  check_interfaces ~free_inputs ~kind:"output" an bn oa ob;
  check_interfaces ~free_inputs ~kind:"output" bn an ob oa;
  (* variables are numbered here and clauses collected, newest first,
     until a SAT call needs them *)
  let nvars = ref 0 in
  let new_var () =
    incr nvars;
    !nvars
  in
  let clauses = ref [] in
  let add_clause c = clauses := c :: !clauses in
  let tt = new_var () in
  add_clause [| tt |];
  let nodes : (node_key, int) Hashtbl.t = Hashtbl.create 4096 in
  let mk_and x y =
    if x = -tt || y = -tt then -tt
    else if x = tt then y
    else if y = tt then x
    else if x = y then x
    else if x = -y then -tt
    else begin
      let x, y = if x < y then (x, y) else (y, x) in
      match Hashtbl.find_opt nodes (And (x, y)) with
      | Some v -> v
      | None ->
        let v = new_var () in
        add_clause [| -v; x |];
        add_clause [| -v; y |];
        add_clause [| v; -x; -y |];
        Hashtbl.replace nodes (And (x, y)) v;
        v
    end
  in
  let mk_or x y = -mk_and (-x) (-y) in
  let mk_xor x y =
    if x = tt then -y
    else if x = -tt then y
    else if y = tt then -x
    else if y = -tt then x
    else if x = y then -tt
    else if x = -y then tt
    else begin
      let sign = x < 0 <> (y < 0) in
      let x, y = (abs x, abs y) in
      let x, y = if x < y then (x, y) else (y, x) in
      let v =
        match Hashtbl.find_opt nodes (Xor (x, y)) with
        | Some v -> v
        | None ->
          let v = new_var () in
          add_clause [| -v; x; y |];
          add_clause [| -v; -x; -y |];
          add_clause [| v; -x; y |];
          add_clause [| v; x; -y |];
          Hashtbl.replace nodes (Xor (x, y)) v;
          v
      in
      if sign then -v else v
    end
  in
  let mk_mux a0 b0 sel = mk_or (mk_and sel b0) (mk_and (-sel) a0) in
  let tied = Hashtbl.create 8 in
  List.iter (fun name -> Hashtbl.replace tied name ()) tie_low;
  (* Shared input variables, keyed by (port, bit) across both netlists. *)
  let input_vars : (string * int, int) Hashtbl.t = Hashtbl.create 64 in
  let input_var name bit =
    match Hashtbl.find_opt input_vars (name, bit) with
    | Some v -> v
    | None ->
      let v = new_var () in
      Hashtbl.replace input_vars (name, bit) v;
      v
  in
  (* Register correspondence: DFFs present (by instance name) in both
     netlists share one free Q variable — and must agree on reset value
     and clock domain, otherwise the induction hypothesis is unsound. *)
  let dff_table nl =
    let t = Hashtbl.create 32 in
    List.iter
      (fun id ->
        let c = Netlist.cell nl id in
        Hashtbl.replace t c.Netlist.name c)
      (Netlist.dffs nl);
    t
  in
  let dffs_a = dff_table a and dffs_b = dff_table b in
  let matched =
    Hashtbl.fold (fun name _ acc -> if Hashtbl.mem dffs_b name then name :: acc else acc) dffs_a []
    |> List.sort compare
  in
  let fail_cex site = raise (Early (Inequivalent { cex_inputs = []; cex_states = []; cex_site = site })) in
  let check_matched () =
    List.iter
      (fun name ->
        let ca = Hashtbl.find dffs_a name and cb = Hashtbl.find dffs_b name in
        if ca.Netlist.reset_value <> cb.Netlist.reset_value then
          fail_cex
            (Printf.sprintf "register %s (reset value %b in %s vs %b in %s)" name
               ca.Netlist.reset_value an cb.Netlist.reset_value bn);
        if ca.Netlist.clock_domain <> cb.Netlist.clock_domain then
          fail_cex
            (Printf.sprintf "register %s (clock domain %d in %s vs %d in %s)" name
               ca.Netlist.clock_domain an cb.Netlist.clock_domain bn))
      matched
  in
  let shared_q : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let q_var nl_dffs name =
    if not (Hashtbl.mem nl_dffs name) then assert false
    else
      match Hashtbl.find_opt shared_q name with
      | Some v -> v
      | None ->
        let v = new_var () in
        if List.mem name matched then Hashtbl.replace shared_q name v;
        v
  in
  let encode nl nl_dffs =
    let lits = Array.make (max (Netlist.num_nets nl) 1) 0 in
    List.iter
      (fun (p : Netlist.port) ->
        Array.iteri (fun bit n -> lits.(n) <- input_var p.Netlist.port_name bit) p.Netlist.port_nets)
      (Netlist.inputs nl);
    List.iter
      (fun id ->
        let c = Netlist.cell nl id in
        lits.(c.Netlist.output) <-
          (if Hashtbl.mem tied c.Netlist.name then -tt else q_var nl_dffs c.Netlist.name))
      (Netlist.dffs nl);
    Array.iter
      (fun id ->
        let c = Netlist.cell nl id in
        let l =
          if Hashtbl.mem tied c.Netlist.name then -tt
          else begin
            let i k = lits.(c.Netlist.inputs.(k)) in
            match c.Netlist.kind with
            | Cell.Kind.Tie0 -> -tt
            | Cell.Kind.Tie1 -> tt
            | Cell.Kind.Buf -> i 0
            | Cell.Kind.Not -> -(i 0)
            | Cell.Kind.And2 -> mk_and (i 0) (i 1)
            | Cell.Kind.Nand2 -> -mk_and (i 0) (i 1)
            | Cell.Kind.Or2 -> mk_or (i 0) (i 1)
            | Cell.Kind.Nor2 -> -mk_or (i 0) (i 1)
            | Cell.Kind.Xor2 -> mk_xor (i 0) (i 1)
            | Cell.Kind.Xnor2 -> -mk_xor (i 0) (i 1)
            | Cell.Kind.Mux2 -> mk_mux (i 0) (i 1) (i 2)
            | Cell.Kind.Dff -> assert false
          end
        in
        lits.(c.Netlist.output) <- l)
      (Netlist.topo_order nl);
    lits
  in
  try
    check_matched ();
    let la = encode a dffs_a and lb = encode b dffs_b in
    (* Comparison points: common output-port bits, then matched registers'
       next-state (D) functions. *)
    let points = ref [] in
    List.iter
      (fun (p : Netlist.port) ->
        match
          List.find_opt (fun (q : Netlist.port) -> q.Netlist.port_name = p.Netlist.port_name)
            (Netlist.outputs b)
        with
        | None -> ()
        | Some q ->
          Array.iteri
            (fun bit n ->
              points :=
                ( Printf.sprintf "output %s[%d]" p.Netlist.port_name bit,
                  la.(n),
                  lb.(q.Netlist.port_nets.(bit)) )
                :: !points)
            p.Netlist.port_nets)
      (Netlist.outputs a);
    List.iter
      (fun name ->
        if not (Hashtbl.mem tied name) then begin
          let ca = Hashtbl.find dffs_a name and cb = Hashtbl.find dffs_b name in
          points :=
            ( Printf.sprintf "register %s.D" name,
              la.(ca.Netlist.inputs.(0)),
              lb.(cb.Netlist.inputs.(0)) )
            :: !points
        end)
      matched;
    let points = List.rev !points in
    let diffs =
      List.filter_map
        (fun (site, x, y) ->
          let d = mk_xor x y in
          if d = -tt then None else Some (site, d))
        points
    in
    let build_cex value site =
      let chunk name w bit_at =
        if w <= Bitvec.max_width then [ (name, Bitvec.of_bits (List.init w bit_at)) ]
        else begin
          let acc = ref [] in
          let lo = ref 0 in
          while !lo < w do
            let hi = min (!lo + Bitvec.max_width) w - 1 in
            acc :=
              ( Printf.sprintf "%s[%d:%d]" name hi !lo,
                Bitvec.of_bits (List.init (hi - !lo + 1) (fun i -> bit_at (!lo + i))) )
              :: !acc;
            lo := hi + 1
          done;
          List.rev !acc
        end
      in
      let seen = Hashtbl.create 16 in
      let cex_inputs =
        List.concat_map
          (fun (p : Netlist.port) ->
            let name = p.Netlist.port_name in
            if Hashtbl.mem seen name then []
            else begin
              Hashtbl.replace seen name ();
              chunk name (Array.length p.Netlist.port_nets) (fun bit ->
                  match Hashtbl.find_opt input_vars (name, bit) with
                  | Some v -> value v
                  | None -> false)
            end)
          (Netlist.inputs a @ Netlist.inputs b)
      in
      let cex_states =
        List.map
          (fun name ->
            ( name,
              match Hashtbl.find_opt shared_q name with Some v -> value v | None -> false ))
          matched
      in
      { cex_inputs; cex_states; cex_site = site }
    in
    if diffs = [] then Equivalent
    else begin
      match List.find_opt (fun (_, d) -> d = tt) diffs with
      | Some (site, _) ->
        (* Constant-true difference: *every* assignment distinguishes the
           netlists, in particular all-zeros — no SAT call needed. *)
        Inequivalent (build_cex (fun _ -> false) site)
      | None -> (
        let s = Sat.create () in
        ignore (Sat.new_vars s !nvars);
        List.iter (Sat.add_clause_array s) (List.rev !clauses);
        Sat.add_clause s (List.map snd diffs);
        match Sat.solve ?max_conflicts s with
        | Sat.Unsat -> Equivalent
        | Sat.Unknown -> Unknown
        | Sat.Sat ->
          let model = Sat.model s in
          let value v = model.(v) in
          let lit_true l = if l > 0 then value l else not (value (-l)) in
          let site =
            match List.find_opt (fun (_, d) -> lit_true d) diffs with
            | Some (site, _) -> site
            | None -> fst (List.hd diffs)
          in
          Inequivalent (build_cex value site))
    end
  with Early v -> v

let describe = function
  | Equivalent -> "equivalent (proven by register-correspondence CEC)"
  | Unknown -> "unknown (SAT conflict budget exhausted)"
  | Inequivalent cex ->
    let buf = Buffer.create 128 in
    Buffer.add_string buf (Printf.sprintf "INEQUIVALENT at %s" cex.cex_site);
    if cex.cex_inputs <> [] then
      Buffer.add_string buf
        (Printf.sprintf "\n  inputs: %s"
           (String.concat ", "
              (List.map (fun (n, v) -> Printf.sprintf "%s = %s" n (Bitvec.to_string v)) cex.cex_inputs)));
    if cex.cex_states <> [] then
      Buffer.add_string buf
        (Printf.sprintf "\n  states: %s"
           (String.concat ", "
              (List.map (fun (n, v) -> Printf.sprintf "%s = %d" n (Bool.to_int v)) cex.cex_states)));
    Buffer.contents buf
