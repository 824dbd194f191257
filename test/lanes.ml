(* Per-lane port values packed into word-parallel stimulus: one word per
   port bit, bit [k] of each word holding lane [k]'s value of that bit. *)
let pack w vals =
  Array.init w (fun bit ->
      let word = ref 0 in
      Array.iteri
        (fun lane v -> if (v lsr bit) land 1 = 1 then word := !word lor (1 lsl lane))
        vals;
      !word)
