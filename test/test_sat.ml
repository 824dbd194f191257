(* Unit and property tests for the CDCL SAT solver, including a brute-force
   cross-check on random small instances. *)

let check_result = Alcotest.(check (of_pp (fun fmt (r : Sat.result) ->
    Format.pp_print_string fmt
      (match r with Sat.Sat -> "SAT" | Sat.Unsat -> "UNSAT" | Sat.Unknown -> "UNKNOWN"))))

let fresh_vars n =
  let s = Sat.create () in
  let vars = Array.init n (fun _ -> Sat.new_var s) in
  (s, vars)

let test_trivial_sat () =
  let s, v = fresh_vars 1 in
  Sat.add_clause s [ v.(0) ];
  check_result "unit clause" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "model" true (Sat.value s v.(0))

let test_trivial_unsat () =
  let s, v = fresh_vars 1 in
  Sat.add_clause s [ v.(0) ];
  Sat.add_clause s [ -v.(0) ];
  check_result "x and not x" Sat.Unsat (Sat.solve s)

let test_empty_clause () =
  let s, _ = fresh_vars 1 in
  Sat.add_clause s [];
  check_result "empty clause" Sat.Unsat (Sat.solve s)

let test_no_clauses () =
  let s, _ = fresh_vars 3 in
  check_result "no constraints" Sat.Sat (Sat.solve s)

let test_implication_chain () =
  let s, v = fresh_vars 20 in
  for i = 0 to 18 do
    Sat.add_clause s [ -v.(i); v.(i + 1) ]
  done;
  Sat.add_clause s [ v.(0) ];
  check_result "chain" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "chain forces last" true (Sat.value s v.(19))

let test_pigeonhole () =
  (* 4 pigeons, 3 holes: classic small UNSAT instance. *)
  let pigeons = 4 and holes = 3 in
  let s = Sat.create () in
  let x = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (Array.to_list x.(p))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ -x.(p1).(h); -x.(p2).(h) ]
      done
    done
  done;
  check_result "pigeonhole 4-3" Sat.Unsat (Sat.solve s)

let test_assumptions () =
  let s, v = fresh_vars 2 in
  Sat.add_clause s [ -v.(0); v.(1) ];
  check_result "assume x0" Sat.Sat (Sat.solve ~assumptions:[ v.(0) ] s);
  Alcotest.(check bool) "propagated" true (Sat.value s v.(1));
  check_result "conflicting assumptions" Sat.Unsat
    (Sat.solve ~assumptions:[ v.(0); -v.(1) ] s);
  check_result "solver reusable after assumption unsat" Sat.Sat (Sat.solve s)

let test_incremental () =
  let s, v = fresh_vars 3 in
  Sat.add_clause s [ v.(0); v.(1) ];
  check_result "first solve" Sat.Sat (Sat.solve s);
  Sat.add_clause s [ -v.(0) ];
  Sat.add_clause s [ -v.(1) ];
  check_result "after more clauses" Sat.Unsat (Sat.solve s)

let test_budget () =
  (* A hard instance with a tiny conflict budget must return Unknown.
     Pigeonhole 8-7 takes well over 16 conflicts. *)
  let pigeons = 8 and holes = 7 in
  let s = Sat.create () in
  let x = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (Array.to_list x.(p))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ -x.(p1).(h); -x.(p2).(h) ]
      done
    done
  done;
  check_result "budget exhausted" Sat.Unknown (Sat.solve ~max_conflicts:16 s)

let test_xor_chain () =
  (* x1 xor x2 xor ... xor x8 = 1, all equal pairs: satisfiable parity. *)
  let s, v = fresh_vars 3 in
  (* encode x0 xor x1 = x2 *)
  Sat.add_clause s [ -v.(0); -v.(1); -v.(2) ];
  Sat.add_clause s [ v.(0); v.(1); -v.(2) ];
  Sat.add_clause s [ v.(0); -v.(1); v.(2) ];
  Sat.add_clause s [ -v.(0); v.(1); v.(2) ];
  Sat.add_clause s [ v.(2) ];
  check_result "xor encoding" Sat.Sat (Sat.solve s);
  Alcotest.(check bool) "xor holds" true (Sat.value s v.(0) <> Sat.value s v.(1))

let test_dimacs () =
  let s, v = fresh_vars 3 in
  Sat.add_clause s [ v.(0); -v.(1) ];
  Sat.add_clause s [ v.(1); v.(2) ];
  let d = Sat.to_dimacs s in
  Alcotest.(check string) "dimacs text" "p cnf 3 2\n-2 1 0\n2 3 0\n" d;
  (* incremental additions after a solve still export correctly (unit
     clauses are absorbed by root-level propagation, so add a binary one) *)
  ignore (Sat.solve s);
  Sat.add_clause s [ -v.(2); -v.(0) ];
  let lines = String.split_on_char '\n' (Sat.to_dimacs s) in
  Alcotest.(check string) "updated header" "p cnf 3 3" (List.hd lines)

(* Brute-force cross-check on random instances. *)

let brute_force nvars clauses =
  let rec go assignment v =
    if v > nvars then
      List.for_all
        (fun clause ->
          List.exists
            (fun l ->
              let value = List.nth assignment (abs l - 1) in
              if l > 0 then value else not value)
            clause)
        clauses
    else go (assignment @ [ true ]) (v + 1) || go (assignment @ [ false ]) (v + 1)
  in
  go [] 1

let arb_instance =
  let gen =
    QCheck.Gen.(
      int_range 3 8 >>= fun nvars ->
      int_range 1 30 >>= fun nclauses ->
      let gen_lit = int_range 1 nvars >>= fun v -> oneofl [ v; -v ] in
      list_repeat nclauses (list_size (int_range 1 3) gen_lit) >>= fun clauses ->
      return (nvars, clauses))
  in
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "vars=%d clauses=[%s]" n
        (String.concat "; "
           (List.map (fun c -> String.concat "," (List.map string_of_int c)) cs)))
    gen

let prop_matches_brute_force =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"solver agrees with brute force" arb_instance
       (fun (nvars, clauses) ->
         let s = Sat.create () in
         for _ = 1 to nvars do
           ignore (Sat.new_var s)
         done;
         List.iter (Sat.add_clause s) clauses;
         let expect = brute_force nvars clauses in
         match Sat.solve s with
         | Sat.Sat ->
           expect
           && List.for_all
                (fun clause ->
                  List.exists
                    (fun l -> if l > 0 then Sat.value s l else not (Sat.value s (-l)))
                    clause)
                clauses
         | Sat.Unsat -> not expect
         | Sat.Unknown -> false))

let prop_model_under_assumptions =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"assumptions respected in model" arb_instance
       (fun (nvars, clauses) ->
         let s = Sat.create () in
         for _ = 1 to nvars do
           ignore (Sat.new_var s)
         done;
         List.iter (Sat.add_clause s) clauses;
         match Sat.solve ~assumptions:[ 1; -2 ] s with
         | Sat.Sat -> Sat.value s 1 && not (Sat.value s 2)
         | Sat.Unsat | Sat.Unknown -> true))

(* Differential test of [add_clause]'s normalisation against the list code
   it replaced, written out here as the oracle: sort ascending and merge
   duplicates, drop tautologies and clauses already satisfied at the root,
   then drop literals false at the root.  [root l] is 1 / -1 / 0 for a
   literal true / false / unassigned at the root. *)
type intake = Skipped | Empty | Unit of int | Stored of int list

let list_normalise root lits =
  let lits = List.sort_uniq compare lits in
  let taut = List.exists (fun l -> List.mem (-l) lits) lits in
  let satisfied = List.exists (fun l -> root l = 1) lits in
  if taut || satisfied then Skipped
  else
    match List.filter (fun l -> root l <> -1) lits with
    | [] -> Empty
    | [ l ] -> Unit l
    | lits -> Stored lits

(* A model of the solver's root level under the oracle: the intake of every
   clause, in order, with units closed under naive unit propagation over the
   stored clauses.  A root conflict (empty clause, or a unit that propagates
   to one) ends the intake: later clauses are skipped. *)
let model_intake nvars clauses =
  let assign = Array.make (nvars + 1) 0 in
  let root l = if l > 0 then assign.(l) else -assign.(-l) in
  let set l = assign.(abs l) <- (if l > 0 then 1 else -1) in
  let stored = ref [] and ok = ref true in
  let propagate () =
    let changed = ref true in
    while !ok && !changed do
      changed := false;
      List.iter
        (fun c ->
          if !ok && not (List.exists (fun l -> root l = 1) c) then
            match List.filter (fun l -> root l = 0) c with
            | [] -> ok := false
            | [ l ] ->
              set l;
              changed := true
            | _ -> ())
        !stored
    done
  in
  List.map
    (fun c ->
      if not !ok then Skipped
      else
        let r = list_normalise root c in
        (match r with
        | Skipped -> ()
        | Empty -> ok := false
        | Unit l ->
          set l;
          propagate ()
        | Stored lits -> stored := lits :: !stored);
        r)
    clauses

(* Mostly short clauses over few variables, where duplicates, tautologies
   and root units are common; some instances have up to 40 variables and
   clauses of up to 60 literals, as in the wide difference ORs of [Cec]. *)
let arb_raw_clauses =
  let gen =
    QCheck.Gen.(
      frequency [ (4, int_range 1 8); (1, int_range 9 40) ] >>= fun nvars ->
      let gen_lit = int_range 1 nvars >>= fun v -> oneofl [ v; -v ] in
      (* a long clause mostly follows one polarity per variable, so that it
         is not almost surely a tautology *)
      array_repeat nvars bool >>= fun pol ->
      let gen_long_lit =
        int_range 1 nvars >>= fun v ->
        let l = if pol.(v - 1) then v else -v in
        frequency [ (19, return l); (1, return (-l)) ]
      in
      let gen_clause =
        frequency
          [
            (1, return []);
            (5, list_repeat 1 gen_lit);
            (20, int_range 2 6 >>= fun n -> list_repeat n gen_lit);
            ((if nvars > 8 then 12 else 3), int_range 7 60 >>= fun n -> list_repeat n gen_long_lit);
          ]
      in
      list_size (int_range 0 25) gen_clause >>= fun clauses ->
      return (nvars, clauses))
  in
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "vars=%d clauses=[%s]" n
        (String.concat "; " (List.map (fun c -> String.concat "," (List.map string_of_int c)) cs)))
    gen

let last_dimacs_clause s =
  let lines = String.split_on_char '\n' (Sat.to_dimacs s) in
  List.nth lines (List.length lines - 2)

let prop_intake_matches_list_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"add_clause matches the list normalisation"
       arb_raw_clauses (fun (nvars, clauses) ->
         let solver () =
           let s = Sat.create () in
           for _ = 1 to nvars do
             ignore (Sat.new_var s)
           done;
           s
         in
         let intake = model_intake nvars clauses in
         (* [raw] gets the clauses as generated; [pre] gets what the oracle
            says the old intake kept, so its own normalisation is the
            identity and its trajectory is the old solver's *)
         let raw = solver () and pre = solver () in
         (* a stored clause is checked literal for literal as it lands:
            later root propagation reorders literals inside clauses *)
         let stored_as_oracle =
           List.for_all2
             (fun c r ->
               Sat.add_clause raw c;
               match r with
               | Skipped -> true
               | Empty ->
                 Sat.add_clause pre [];
                 true
               | Unit l ->
                 Sat.add_clause pre [ l ];
                 true
               | Stored lits ->
                 Sat.add_clause pre lits;
                 last_dimacs_clause raw
                 = String.concat "" (List.map (Printf.sprintf "%d ") lits) ^ "0")
             clauses intake
         in
         let nstored = List.length (List.filter (function Stored _ -> true | _ -> false) intake) in
         let same_intake =
           stored_as_oracle
           && Sat.num_clauses raw = nstored
           && Sat.to_dimacs raw = Sat.to_dimacs pre
         in
         let r_raw = Sat.solve raw and r_pre = Sat.solve pre in
         same_intake
         && r_raw = r_pre
         && (nvars > 8 || r_raw = if brute_force nvars clauses then Sat.Sat else Sat.Unsat)
         && Sat.stats raw = Sat.stats pre))

(* [Sat.reset] against [Sat.create]: one solver, reset between instances,
   must give what a fresh solver per instance gives.  An instance is fed in
   two halves with a solve after each, so learned clauses, saved phases and
   a spent budget from the first solve carry into the second.  The fresh
   side uses the list API one variable at a time; the reused side uses
   [new_vars] and [add_clause_array], so this also checks that those match
   [new_var] and [add_clause]. *)
type instance = {
  nvars : int;
  first : int list list;
  second : int list list;
  assumptions : int list;
  max_conflicts : int option;
}

type observation = {
  o_results : Sat.result list;
  o_raised : int;  (* clauses refused with [Invalid_argument] *)
  o_stats : Sat.stats;
  o_models : bool array option list;
  o_dimacs : string;
  o_sizes : int * int;
}

let feed s inst ~vars ~add =
  vars s inst.nvars;
  let raised = ref 0 in
  let add_all =
    List.iter (fun c -> try add s c with Invalid_argument _ -> incr raised)
  in
  let solve () =
    let r = Sat.solve ~assumptions:inst.assumptions ?max_conflicts:inst.max_conflicts s in
    (r, if r = Sat.Sat then Some (Sat.model s) else None)
  in
  add_all inst.first;
  let r1, m1 = solve () in
  add_all inst.second;
  let r2, m2 = solve () in
  {
    o_results = [ r1; r2 ];
    o_raised = !raised;
    o_stats = Sat.stats s;
    o_models = [ m1; m2 ];
    o_dimacs = Sat.to_dimacs s;
    o_sizes = (Sat.num_vars s, Sat.num_clauses s);
  }

let fresh_run inst =
  feed (Sat.create ()) inst
    ~vars:(fun s n ->
      for _ = 1 to n do
        ignore (Sat.new_var s)
      done)
    ~add:Sat.add_clause

let reused_run s inst =
  Sat.reset s;
  feed s inst
    ~vars:(fun s n -> ignore (Sat.new_vars s n))
    ~add:(fun s c -> Sat.add_clause_array s (Array.of_list c))

let pigeonhole_clauses ~pigeons ~holes =
  let x p h = (p * holes) + h + 1 in
  List.init pigeons (fun p -> List.init holes (x p))
  @ List.concat
      (List.init holes (fun h ->
           List.concat
             (List.init pigeons (fun p1 ->
                  List.init (pigeons - p1 - 1) (fun k -> [ -x p1 h; -x (p1 + 1 + k) h ])))))

(* The three endings the differential must cover, whatever the random
   instances around them do.  The budget is large enough for a restart,
   so the cumulative restart count is compared too. *)
let root_unsat =
  { nvars = 3; first = [ [ 1; 2 ]; [ 3 ]; [ -3 ] ]; second = [ [ -1; 2 ] ]; assumptions = [];
    max_conflicts = None }

let budget_unknown =
  { nvars = 42; first = pigeonhole_clauses ~pigeons:7 ~holes:6; second = [];
    assumptions = []; max_conflicts = Some 150 }

let raised_unknown_var =
  { nvars = 4; first = [ [ 1; -2 ]; [ 2; 5; 3 ]; [ -4; 0 ] ]; second = [ [ 3; 4 ]; [ -1 ] ];
    assumptions = [ 3 ]; max_conflicts = None }

let gen_instance =
  QCheck.Gen.(
    int_range 3 12 >>= fun nvars ->
    let gen_lit = int_range 1 nvars >>= fun v -> oneofl [ v; -v ] in
    let gen_clauses = list_size (int_range 0 25) (list_size (int_range 1 4) gen_lit) in
    gen_clauses >>= fun first ->
    gen_clauses >>= fun second ->
    list_size (int_range 0 2) gen_lit >>= fun assumptions ->
    opt ~ratio:0.3 (int_range 0 8) >>= fun max_conflicts ->
    return { nvars; first; second; assumptions; max_conflicts })

let arb_sessions =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 4) gen_instance >>= fun random ->
      shuffle_l ([ root_unsat; budget_unknown; raised_unknown_var ] @ random))
  in
  let print_clauses cs =
    String.concat "; " (List.map (fun c -> String.concat "," (List.map string_of_int c)) cs)
  in
  QCheck.make
    ~print:(fun insts ->
      String.concat "\n"
        (List.map
           (fun i ->
             Printf.sprintf "vars=%d first=[%s] second=[%s] assume=[%s] budget=%s" i.nvars
               (print_clauses i.first) (print_clauses i.second)
               (String.concat "," (List.map string_of_int i.assumptions))
               (match i.max_conflicts with Some b -> string_of_int b | None -> "-"))
           insts))
    gen

let test_reset_endings () =
  let fresh = List.map fresh_run [ root_unsat; budget_unknown; raised_unknown_var ] in
  let results = List.map (fun o -> List.nth o.o_results 1) fresh in
  Alcotest.(check (list string)) "endings" [ "unsat"; "unknown"; "sat" ]
    (List.map Sat.result_name results);
  Alcotest.(check bool) "budget run restarted" true
    ((List.nth fresh 1).o_stats.Sat.restarts > 0);
  Alcotest.(check int) "unknown variables refused" 2 (List.nth fresh 2).o_raised

let prop_reset_is_create =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"reset solver matches a fresh solver" arb_sessions
       (fun insts ->
         let s = Sat.create () in
         List.for_all (fun inst -> reused_run s inst = fresh_run inst) insts))

(* [Sat.add_block] against [Sat.add_clause_array]: a clause list fed one
   clause at a time, moved up by a shift, must give what the same list
   gives as a block replayed at that shift.  A few root units come first
   (so replayed literals can be false or true at the root), and the block
   is replayed twice, at successive shifts, like two cycles of a BMC
   unrolling; the list's own unit clauses land mid-block. *)
let arb_block_case =
  let gen =
    QCheck.Gen.(
      QCheck.gen arb_raw_clauses >>= fun (nvars, clauses) ->
      int_range 0 20 >>= fun shift ->
      list_size (int_range 0 3) (int_range 1 (shift + (2 * nvars)) >>= fun v -> oneofl [ v; -v ])
      >>= fun units -> return (nvars, clauses, shift, units))
  in
  QCheck.make
    ~print:(fun (n, cs, shift, units) ->
      Printf.sprintf "vars=%d shift=%d units=[%s] clauses=[%s]" n shift
        (String.concat "," (List.map string_of_int units))
        (String.concat "; " (List.map (fun c -> String.concat "," (List.map string_of_int c)) cs)))
    gen

let prop_block_matches_clauses =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"block replay matches add_clause_array" arb_block_case
       (fun (nvars, clauses, shift, units) ->
         let setup () =
           let s = Sat.create () in
           ignore (Sat.new_vars s (shift + (2 * nvars)));
           List.iter (fun u -> Sat.add_clause_array s [| u |]) units;
           s
         in
         let move k l = if l > 0 then l + k else l - k in
         let one = setup () and blk = setup () in
         let b = Sat.block () in
         List.iter (fun c -> Sat.block_add b (Array.of_list c)) clauses;
         List.iter
           (fun k ->
             List.iter (fun c -> Sat.add_clause_array one (Array.of_list (List.map (move k) c)))
               clauses;
             Sat.add_block blk ~shift:k b)
           [ shift; shift + nvars ];
         let observe s =
           let r = Sat.solve s in
           (Sat.to_dimacs s, r, (if r = Sat.Sat then Some (Sat.model s) else None), Sat.stats s)
         in
         let before = Sat.to_dimacs one = Sat.to_dimacs blk in
         before && observe one = observe blk))

let test_block_range () =
  let b = Sat.block () in
  Sat.block_add b [| 2; 1 |];
  let first = Sat.block_size b in
  Sat.block_add b [| 3; -1 |];
  let s = Sat.create () in
  ignore (Sat.new_vars s 2);
  Sat.add_block s ~shift:0 ~len:first b;
  Alcotest.(check string) "prefix in range replays" "p cnf 2 1\n1 2 0\n" (Sat.to_dimacs s);
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ ->
      Alcotest.(check string) (what ^ " leaves the solver as it was") "p cnf 2 1\n1 2 0\n"
        (Sat.to_dimacs s)
  in
  refused "variable beyond num_vars" (fun () -> Sat.add_block s ~shift:0 b);
  refused "shifted beyond num_vars" (fun () -> Sat.add_block s ~shift:1 ~len:first b);
  refused "negative shift" (fun () -> Sat.add_block s ~shift:(-1) ~len:first b);
  refused "length past the block" (fun () -> Sat.add_block s ~shift:0 ~len:(Sat.block_size b + 1) b);
  Alcotest.check_raises "literal 0" (Invalid_argument "Sat.block_add: literal 0") (fun () ->
      Sat.block_add b [| 1; 0 |]);
  (* the one bound per prefix: a middle prefix is checked against the
     clauses before it only, and a refusal names the first literal out of
     range, as a per-literal scan would *)
  let b = Sat.block () in
  Sat.block_add b [| 2; 1 |];
  Sat.block_add b [| 3; -1 |];
  let two = Sat.block_size b in
  Sat.block_add b [| -9; 4; 7 |];
  Sat.block_add b [| 12 |];
  let s = Sat.create () in
  ignore (Sat.new_vars s 4);
  Sat.add_block s ~shift:1 ~len:two b;
  let dimacs = "p cnf 4 2\n2 3 0\n-2 4 0\n" in
  Alcotest.(check string) "valid prefix of a block whose tail is out of range" dimacs
    (Sat.to_dimacs s);
  Alcotest.check_raises "out-of-range prefix names its first literal"
    (Invalid_argument "Sat.add_clause: unknown variable 9") (fun () -> Sat.add_block s ~shift:0 b);
  Alcotest.(check string) "refused prefix leaves the solver as it was" dimacs (Sat.to_dimacs s);
  Alcotest.check_raises "shifted prefix names its first literal"
    (Invalid_argument "Sat.add_clause: unknown variable 5") (fun () ->
      Sat.add_block s ~shift:2 ~len:two b);
  Alcotest.(check string) "refused shift leaves the solver as it was" dimacs (Sat.to_dimacs s)

(* The one range check per replay against a scan of every literal of the
   prefix: [add_block] refuses exactly when a stored clause before [len]
   names a variable past [num_vars] once shifted.  Tautologies are dropped
   by [block_add], so their variables never count. *)
let prop_block_range =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name:"block range check matches a literal scan"
       QCheck.(quad arb_raw_clauses (int_range 0 40) (int_range 0 6) small_nat)
       (fun ((_, clauses), nvars, shift, cut) ->
         let tautology c = List.exists (fun l -> List.mem (-l) c) c in
         let b = Sat.block () in
         let sizes = ref [] in
         List.iter
           (fun c ->
             Sat.block_add b (Array.of_list c);
             sizes := Sat.block_size b :: !sizes)
           clauses;
         let sizes = Array.of_list (0 :: List.rev !sizes) in
         let k = cut mod Array.length sizes in
         let top =
           List.fold_left
             (fun m c ->
               if tautology c then m else List.fold_left (fun m l -> max m (abs l)) m c)
             0
             (List.filteri (fun i _ -> i < k) clauses)
         in
         let s = Sat.create () in
         ignore (Sat.new_vars s nvars);
         let empty = Sat.to_dimacs s in
         let out_of_range = top > 0 && top + shift > nvars in
         match Sat.add_block s ~shift ~len:sizes.(k) b with
         | () -> not out_of_range
         | exception Invalid_argument _ -> out_of_range && Sat.to_dimacs s = empty))

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "no clauses" `Quick test_no_clauses;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "conflict budget" `Quick test_budget;
          Alcotest.test_case "xor chain" `Quick test_xor_chain;
          Alcotest.test_case "dimacs export" `Quick test_dimacs;
          Alcotest.test_case "reset differential endings" `Quick test_reset_endings;
          Alcotest.test_case "block range check" `Quick test_block_range;
        ] );
      ( "properties",
        [
          prop_matches_brute_force;
          prop_model_under_assumptions;
          prop_intake_matches_list_oracle;
          prop_reset_is_create;
          prop_block_matches_clauses;
          prop_block_range;
        ]
      );
    ]
