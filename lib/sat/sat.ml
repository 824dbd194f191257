type result = Sat | Unsat | Unknown

(* A copy of the first [n] elements of [data] with room to grow: 4 slots
   at first, then twice the size. *)
let grown data n =
  let d = Array.make (max 4 (2 * n)) 0 in
  Array.blit data 0 d 0 n;
  d

(* Growable int-array vector, allocated on the first push. *)
module Vec = struct
  type t = { mutable data : int array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let push v x =
    if v.size = Array.length v.data then v.data <- grown v.data v.size;
    v.data.(v.size) <- x;
    v.size <- v.size + 1

  let get v i = v.data.(i)
  let size v = v.size
  let shrink v n = v.size <- n
end

type t = {
  mutable nvars : int;
  (* every clause, problem and learned, as a length header followed by its
     literals; a clause is named by the offset of its header *)
  mutable arena : int array;
  mutable arena_len : int;
  mutable nproblem : int;
  (* per-variable state, index 1..nvars (0 unused) *)
  mutable assign : int array;  (* 0 / 1 / -1 *)
  mutable level : int array;
  mutable reason : int array;  (* clause offset or -1 *)
  mutable activity : float array;
  mutable polarity : bool array;  (* saved phase *)
  mutable seen : bool array;
  (* watch lists, indexed by literal index: list [i] is the first
     [wsize.(i)] slots of [watches.(i)] *)
  mutable watches : int array array;
  mutable wsize : int array;
  (* heap of decision candidates *)
  mutable heap : int array;
  mutable heap_pos : int array;  (* -1 when absent *)
  mutable heap_size : int;
  problem_idx : Vec.t;  (* offsets of problem (non-learned) clauses *)
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable var_inc : float;
  mutable ok : bool;  (* false once root-level conflict found *)
  mutable model_arr : bool array;
  mutable last_result : result;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
}

type stats = { conflicts : int; decisions : int; propagations : int; restarts : int }

let create () =
  {
    nvars = 0;
    arena = Array.make 256 0;
    arena_len = 0;
    nproblem = 0;
    assign = Array.make 8 0;
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    polarity = Array.make 8 false;
    seen = Array.make 8 false;
    watches = Array.make 16 [||];
    wsize = Array.make 16 0;
    heap = Array.make 8 0;
    heap_pos = Array.make 8 (-1);
    heap_size = 0;
    problem_idx = Vec.create ();
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    var_inc = 1.0;
    ok = true;
    model_arr = [||];
    last_result = Unknown;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
  }

(* Back to the state of [create ()], keeping every array.  A variable's
   slots are re-initialised when [new_vars] hands it out again, so only the
   scalars and the stacks need clearing here. *)
let reset t =
  t.nvars <- 0;
  t.arena_len <- 0;
  t.nproblem <- 0;
  Vec.shrink t.problem_idx 0;
  t.heap_size <- 0;
  Vec.shrink t.trail 0;
  Vec.shrink t.trail_lim 0;
  t.qhead <- 0;
  t.var_inc <- 1.0;
  t.ok <- true;
  t.model_arr <- [||];
  t.last_result <- Unknown;
  t.conflicts <- 0;
  t.decisions <- 0;
  t.propagations <- 0;
  t.restarts <- 0

let num_vars t = t.nvars
let num_clauses t = t.nproblem
let stats_conflicts (t : t) = t.conflicts
let stats_decisions (t : t) = t.decisions
let stats_propagations (t : t) = t.propagations

let stats (t : t) =
  {
    conflicts = t.conflicts;
    decisions = t.decisions;
    propagations = t.propagations;
    restarts = t.restarts;
  }

let stats_diff a b =
  {
    conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    restarts = a.restarts - b.restarts;
  }

let stats_sum a b =
  {
    conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
  }

let zero_stats = { conflicts = 0; decisions = 0; propagations = 0; restarts = 0 }

let lit_idx l = if l > 0 then 2 * l else (-2 * l) + 1

let grow_arrays t n =
  let old = Array.length t.assign in
  if n >= old then begin
    let cap = max (2 * old) (n + 1) in
    let grow a def =
      let a' = Array.make cap def in
      Array.blit a 0 a' 0 old;
      a'
    in
    t.assign <- grow t.assign 0;
    t.level <- grow t.level 0;
    t.reason <- grow t.reason (-1);
    t.activity <- grow t.activity 0.0;
    t.polarity <- grow t.polarity false;
    t.seen <- grow t.seen false;
    t.heap <- grow t.heap 0;
    t.heap_pos <- grow t.heap_pos (-1);
    let oldw = Array.length t.watches in
    let capw = 2 * cap + 2 in
    if capw > oldw then begin
      let w = Array.make capw [||] in
      Array.blit t.watches 0 w 0 oldw;
      t.watches <- w;
      let ws = Array.make capw 0 in
      Array.blit t.wsize 0 ws 0 oldw;
      t.wsize <- ws
    end
  end

(* max-heap on activity *)
let heap_less t a b = t.activity.(a) > t.activity.(b)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(b) <- i;
  t.heap_pos.(a) <- j

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less t t.heap.(i) t.heap.(p) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_size && heap_less t t.heap.(l) t.heap.(!best) then best := l;
  if r < t.heap_size && heap_less t t.heap.(r) t.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) = -1 then begin
    t.heap.(t.heap_size) <- v;
    t.heap_pos.(v) <- t.heap_size;
    t.heap_size <- t.heap_size + 1;
    heap_up t (t.heap_size - 1)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  if t.heap_size > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_size);
    t.heap_pos.(t.heap.(0)) <- 0
  end;
  t.heap_pos.(v) <- -1;
  if t.heap_size > 0 then heap_down t 0;
  v

let new_vars t n =
  if n < 0 then invalid_arg "Sat.new_vars: negative count";
  let first = t.nvars + 1 in
  t.nvars <- t.nvars + n;
  grow_arrays t t.nvars;
  for v = first to t.nvars do
    t.assign.(v) <- 0;
    t.level.(v) <- 0;
    t.reason.(v) <- -1;
    t.activity.(v) <- 0.0;
    t.polarity.(v) <- false;
    t.seen.(v) <- false;
    t.heap_pos.(v) <- -1;
    t.wsize.(2 * v) <- 0;
    t.wsize.((2 * v) + 1) <- 0;
    heap_insert t v
  done;
  first

let new_var t = new_vars t 1

let lit_value t l =
  let s = t.assign.(abs l) in
  if s = 0 then 0 else if l > 0 then s else -s

let decision_level t = Vec.size t.trail_lim

let enqueue t l reason =
  let v = abs l in
  t.assign.(v) <- (if l > 0 then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.polarity.(v) <- l > 0;
  Vec.push t.trail l

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 1 to t.nvars do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

let decay_activities t = t.var_inc <- t.var_inc /. 0.95

(* Make room for [n] ints at the end of the arena. *)
let reserve t n =
  let stop = t.arena_len + n in
  if stop > Array.length t.arena then begin
    let a = Array.make (max stop (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 a 0 t.arena_len;
    t.arena <- a
  end

(* Append the first [len] literals of [lits] as a clause; returns its
   offset. *)
let store_clause t lits len =
  reserve t (1 + len);
  let ci = t.arena_len in
  t.arena.(ci) <- len;
  Array.blit lits 0 t.arena (ci + 1) len;
  t.arena_len <- ci + 1 + len;
  ci

let push_watch t i ci =
  let n = t.wsize.(i) in
  if n = Array.length t.watches.(i) then t.watches.(i) <- grown t.watches.(i) n;
  t.watches.(i).(n) <- ci;
  t.wsize.(i) <- n + 1

let watch_clause t ci =
  push_watch t (lit_idx (-t.arena.(ci + 1))) ci;
  push_watch t (lit_idx (-t.arena.(ci + 2))) ci

(* Propagate all enqueued facts.  Returns the offset of a conflicting
   clause or -1. *)
let propagate t =
  let a = t.arena in
  let confl = ref (-1) in
  while !confl = -1 && t.qhead < Vec.size t.trail do
    let p = Vec.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    (* clauses watching -p (p just became true, so -p became false).  A new
       watch never lands on this list: its literal is not false. *)
    let pi = lit_idx p in
    let wl = t.watches.(pi) in
    let n = t.wsize.(pi) in
    let keep = ref 0 in
    let i = ref 0 in
    while !i < n do
      let ci = wl.(!i) in
      incr i;
      (* the clause's literals are a.(l0) .. a.(l0 + a.(ci) - 1) *)
      let l0 = ci + 1 in
      (* Ensure the false literal is at position 1. *)
      if a.(l0) = -p then begin
        a.(l0) <- a.(l0 + 1);
        a.(l0 + 1) <- -p
      end;
      if lit_value t a.(l0) = 1 then begin
        (* clause satisfied; keep watching *)
        wl.(!keep) <- ci;
        incr keep
      end
      else begin
        (* find a new literal to watch *)
        let stop = l0 + a.(ci) in
        let found = ref false in
        let j = ref (l0 + 2) in
        while (not !found) && !j < stop do
          if lit_value t a.(!j) <> -1 then begin
            a.(l0 + 1) <- a.(!j);
            a.(!j) <- -p;
            push_watch t (lit_idx (-a.(l0 + 1))) ci;
            found := true
          end;
          incr j
        done;
        if not !found then begin
          (* unit or conflicting *)
          wl.(!keep) <- ci;
          incr keep;
          if lit_value t a.(l0) = -1 then begin
            confl := ci;
            (* copy remaining watches back *)
            while !i < n do
              wl.(!keep) <- wl.(!i);
              incr keep;
              incr i
            done
          end
          else enqueue t a.(l0) ci
        end
      end
    done;
    t.wsize.(pi) <- !keep
  done;
  !confl

let backtrack t lvl =
  if decision_level t > lvl then begin
    let bound = Vec.get t.trail_lim lvl in
    for i = Vec.size t.trail - 1 downto bound do
      let v = abs (Vec.get t.trail i) in
      t.assign.(v) <- 0;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    Vec.shrink t.trail bound;
    Vec.shrink t.trail_lim lvl;
    t.qhead <- Vec.size t.trail
  end

(* First-UIP conflict analysis.  Returns (learnt clause, backtrack level);
   learnt.(0) is the asserting literal. *)
let analyze t confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref 0 in
  let bt = ref 0 in
  let index = ref (Vec.size t.trail - 1) in
  let ci = ref confl in
  let continue_loop = ref true in
  let a = t.arena in
  while !continue_loop do
    let l0 = !ci + 1 in
    let start = if !p = 0 then 0 else 1 in
    for k = l0 + start to l0 + a.(!ci) - 1 do
      let q = a.(k) in
      let v = abs q in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump_var t v;
        if t.level.(v) = decision_level t then incr counter
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !bt then bt := t.level.(v)
        end
      end
    done;
    (* next literal on trail to resolve *)
    while not t.seen.(abs (Vec.get t.trail !index)) do
      decr index
    done;
    p := Vec.get t.trail !index;
    decr index;
    t.seen.(abs !p) <- false;
    decr counter;
    if !counter = 0 then continue_loop := false
    else begin
      ci := t.reason.(abs !p);
      (* ensure the resolved literal is at position 0 of its reason *)
      let l0 = !ci + 1 in
      if a.(l0) <> !p then begin
        let pos = ref l0 in
        while a.(!pos) <> !p do
          incr pos
        done;
        a.(!pos) <- a.(l0);
        a.(l0) <- !p
      end
    end
  done;
  let learnt = Array.of_list ((- !p) :: !learnt) in
  Array.iter (fun q -> t.seen.(abs q) <- false) learnt;
  (learnt, !bt)

(* Sort [a] ascending and merge duplicates in place; returns the length
   of the strictly ascending result, or -1 for a tautology. *)
let normalize a =
  (* insertion sort: almost every clause has two to four literals, and
     the widest ones (Cec's difference OR) come once per check *)
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done;
  (* merge duplicates: [a.(0) .. a.(m-1)] strictly ascending *)
  let m = ref 0 in
  for i = 0 to Array.length a - 1 do
    if !m = 0 || a.(!m - 1) <> a.(i) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  let m = !m in
  (* tautology: negatives come first, by decreasing variable, then
     positives by increasing variable, so walk the two runs outward from
     their boundary like a merge *)
  let p = ref 0 in
  while !p < m && a.(!p) < 0 do
    incr p
  done;
  let taut = ref false in
  let i = ref (!p - 1) and j = ref !p in
  while (not !taut) && !i >= 0 && !j < m do
    let vn = -a.(!i) and vp = a.(!j) in
    if vn = vp then taut := true else if vn < vp then decr i else incr j
  done;
  if !taut then -1 else m

(* Root-level intake of one normalised clause: the [len] literals of [src]
   from [pos], each moved [shift] variables up.  The literals not false at
   the root are written straight after the arena's end, keeping their
   order; one true there satisfies the clause. *)
let store_root t src pos len shift =
  reserve t (1 + len);
  let a = t.arena and ci = t.arena_len in
  let satisfied = ref false and k = ref 0 in
  for i = pos to pos + len - 1 do
    let l = src.(i) in
    let l = if l > 0 then l + shift else l - shift in
    match lit_value t l with
    | 1 -> satisfied := true
    | -1 -> ()
    | _ ->
      a.(ci + 1 + !k) <- l;
      incr k
  done;
  if not !satisfied then
    match !k with
    | 0 -> t.ok <- false
    | 1 ->
      enqueue t a.(ci + 1) (-1);
      if propagate t <> -1 then t.ok <- false
    | k ->
      a.(ci) <- k;
      t.arena_len <- ci + 1 + k;
      t.nproblem <- t.nproblem + 1;
      Vec.push t.problem_idx ci;
      watch_clause t ci

let check_range t lits pos len shift =
  for i = pos to pos + len - 1 do
    let v = abs lits.(i) in
    if v < 1 || v + shift > t.nvars then
      invalid_arg (Printf.sprintf "Sat.add_clause: unknown variable %d" (v + shift))
  done

let add_clause_array t a =
  check_range t a 0 (Array.length a) 0;
  if t.ok then begin
    backtrack t 0;
    t.last_result <- Unknown;
    let m = normalize a in
    if m >= 0 then store_root t a 0 m 0
  end

let add_clause t lits = add_clause_array t (Array.of_list lits)

(* A block is a [Vec.t] of normalised clauses, each its slot [top] (the
   largest variable of the clauses before it), a length header, then its
   literals; [top] is the largest variable of all of them.  A replay of the
   clauses before size [len] then checks its range once: the slot at
   [len], or [top] at the end. *)
type block = { clauses : Vec.t; mutable top : int }

let block () = { clauses = Vec.create (); top = 0 }
let block_size b = Vec.size b.clauses

let block_add b a =
  if Array.exists (( = ) 0) a then invalid_arg "Sat.block_add: literal 0";
  let m = normalize a in
  if m >= 0 then begin
    let v = b.clauses in
    Vec.push v b.top;
    Vec.push v m;
    for i = 0 to m - 1 do
      Vec.push v a.(i);
      b.top <- max b.top (abs a.(i))
    done
  end

let add_block t ~shift ?len (b : block) =
  let size = Vec.size b.clauses in
  let len = Option.value len ~default:size in
  if shift < 0 || len < 0 || len > size then invalid_arg "Sat.add_block: bad range";
  let d = b.clauses.Vec.data in
  let top = if len = size then b.top else d.(len) in
  if top + shift > t.nvars then begin
    (* find the first literal out of range, for the error message *)
    let pos = ref 0 in
    while !pos < len do
      check_range t d (!pos + 2) d.(!pos + 1) shift;
      pos := !pos + 2 + d.(!pos + 1)
    done
  end;
  if t.ok then begin
    backtrack t 0;
    t.last_result <- Unknown;
    let pos = ref 0 in
    while t.ok && !pos < len do
      store_root t d (!pos + 2) d.(!pos + 1) shift;
      pos := !pos + 2 + d.(!pos + 1)
    done
  end

(* Luby restart sequence: 1 1 2 1 1 2 4 ... *)
let luby i =
  let rec compute i =
    let k = ref 1 in
    while (1 lsl !k) - 1 < i + 1 do
      incr k
    done;
    let k = !k in
    if (1 lsl k) - 1 = i + 1 then 1 lsl (k - 1)
    else compute (i + 1 - (1 lsl (k - 1)))
  in
  compute i

let pick_branch_var t =
  let rec go () =
    if t.heap_size = 0 then 0
    else
      let v = heap_pop t in
      if t.assign.(v) = 0 then v else go ()
  in
  go ()

let solve_core ?(assumptions = []) ?max_conflicts t =
  if not t.ok then Unsat
  else begin
    backtrack t 0;
    t.last_result <- Unknown;
    let assumptions = Array.of_list assumptions in
    let budget = match max_conflicts with Some b -> t.conflicts + b | None -> max_int in
    let restart_base = 64 in
    let restart_num = ref 0 in
    let next_restart = ref (t.conflicts + (restart_base * luby 0)) in
    let result = ref None in
    (try
       while !result = None do
         let confl = propagate t in
         if confl >= 0 then begin
           t.conflicts <- t.conflicts + 1;
           if decision_level t = 0 then begin
             t.ok <- false;
             result := Some Unsat
           end
           else if decision_level t <= Array.length assumptions then
             (* conflict while the assumption prefix is active *)
             result := Some Unsat
           else begin
             let learnt, bt = analyze t confl in
             (* never undo the assumption prefix *)
             let bt = max bt (min (decision_level t - 1) (Array.length assumptions)) in
             backtrack t bt;
             if Array.length learnt = 1 then begin
               if lit_value t learnt.(0) = 0 then enqueue t learnt.(0) (-1)
             end
             else begin
               let ci = store_clause t learnt (Array.length learnt) in
               watch_clause t ci;
               enqueue t learnt.(0) ci
             end;
             decay_activities t;
             if t.conflicts >= budget then result := Some Unknown
           end
         end
         else if t.conflicts >= !next_restart && decision_level t > Array.length assumptions
         then begin
           incr restart_num;
           t.restarts <- t.restarts + 1;
           next_restart := t.conflicts + (restart_base * luby !restart_num);
           backtrack t (Array.length assumptions)
         end
         else if decision_level t < Array.length assumptions then begin
           let a = assumptions.(decision_level t) in
           match lit_value t a with
           | 1 -> Vec.push t.trail_lim (Vec.size t.trail)  (* dummy level *)
           | -1 -> result := Some Unsat
           | _ ->
             Vec.push t.trail_lim (Vec.size t.trail);
             t.decisions <- t.decisions + 1;
             enqueue t a (-1)
         end
         else begin
           let v = pick_branch_var t in
           if v = 0 then begin
             (* full assignment: SAT *)
             t.model_arr <- Array.init (t.nvars + 1) (fun i -> i > 0 && t.assign.(i) = 1);
             result := Some Sat
           end
           else begin
             Vec.push t.trail_lim (Vec.size t.trail);
             t.decisions <- t.decisions + 1;
             enqueue t (if t.polarity.(v) then v else -v) (-1)
           end
         end
       done
     with Exit -> ());
    let r = match !result with Some r -> r | None -> Unknown in
    backtrack t 0;
    t.last_result <- r;
    r
  end

(* Telemetry wrapper: a span per solve call carrying the per-call stats
   delta, plus process-wide counters fed from the same delta.  The entire
   instrumented path is skipped behind one [Telemetry.enabled] check so a
   disabled sink never allocates the span or its argument list. *)

let tele_calls = Telemetry.Counter.make "sat.solve.calls"
let tele_conflicts = Telemetry.Counter.make "sat.conflicts"
let tele_decisions = Telemetry.Counter.make "sat.decisions"
let tele_propagations = Telemetry.Counter.make "sat.propagations"
let tele_restarts = Telemetry.Counter.make "sat.restarts"

let result_name = function Sat -> "sat" | Unsat -> "unsat" | Unknown -> "unknown"

let solve ?assumptions ?max_conflicts t =
  if not (Telemetry.enabled ()) then solve_core ?assumptions ?max_conflicts t
  else begin
    Telemetry.begin_span ~cat:"sat" "sat.solve";
    let before = stats t in
    let finish r =
      let d = stats_diff (stats t) before in
      Telemetry.Counter.incr tele_calls;
      Telemetry.Counter.add tele_conflicts d.conflicts;
      Telemetry.Counter.add tele_decisions d.decisions;
      Telemetry.Counter.add tele_propagations d.propagations;
      Telemetry.Counter.add tele_restarts d.restarts;
      Telemetry.end_span
        ~args:
          [
            ("result", Telemetry.Str (result_name r));
            ("conflicts", Telemetry.Int d.conflicts);
            ("decisions", Telemetry.Int d.decisions);
            ("propagations", Telemetry.Int d.propagations);
            ("restarts", Telemetry.Int d.restarts);
          ]
        ()
    in
    match solve_core ?assumptions ?max_conflicts t with
    | r ->
      finish r;
      r
    | exception e ->
      finish Unknown;
      raise e
  end

let value t v =
  if t.last_result <> Sat then invalid_arg "Sat.value: last result was not Sat";
  if v < 1 || v > t.nvars then invalid_arg "Sat.value: unknown variable";
  t.model_arr.(v)

let to_dimacs t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" t.nvars t.nproblem);
  for k = 0 to Vec.size t.problem_idx - 1 do
    let ci = Vec.get t.problem_idx k in
    for i = ci + 1 to ci + t.arena.(ci) do
      Buffer.add_string buf (Printf.sprintf "%d " t.arena.(i))
    done;
    Buffer.add_string buf "0\n"
  done;
  Buffer.contents buf

let model t =
  if t.last_result <> Sat then invalid_arg "Sat.model: last result was not Sat";
  Array.copy t.model_arr
