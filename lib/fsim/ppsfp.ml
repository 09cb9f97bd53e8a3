open Bigarray

type words = (int64, int64_elt, c_layout) Array1.t

let words n : words =
  let a = Array1.create int64 c_layout n in
  Array1.fill a 0L;
  a

(* Kernel state of one grading job over faults [lo, hi).  A node is a
   fanout-free-region root when its fanout (pins, duplicates counted)
   is not exactly 1 or when it is a primary output; every other node
   feeds exactly one pin, [pin.(u)] of gate [next.(u)]. *)
type state = {
  circuit : Circuit.Netlist.t;
  is_output : bool array;
  next : int array;                (* -1 at a root *)
  pin : int array;
  (* Faulty values, meaningful only where stamp.(u) = generation, and
     one int array of per-level stacks for the root propagation: level
     l owns stack.(base.(l)) .. stack.(base.(l) + top.(l) - 1). *)
  fval : words;
  stamp : int array;
  sched : int array;
  stack : int array;
  base : int array;
  top : int array;
  mutable generation : int;
  (* Per root, meaningful only where rstamp.(r) = block: the union of
     its live faults' local masks, then (once propagated) the mask of
     patterns on which flipping the root reaches a primary output. *)
  rmask : words;
  rstamp : int array;
  mutable block : int;
  roots : int array;               (* roots needed by this block *)
  mutable nroots : int;
  mutable propagated : int;        (* roots propagated this block *)
  faults : Faults.Fault.t array;
  lo : int;
  (* Per fault of the range, at index fi - lo. *)
  local : words;                   (* difference mask at the root *)
  root : int array;                (* root reached by the local walk *)
  alive : int array;               (* live faults, first [nalive] *)
  mutable nalive : int;
}

let make_state (c : Circuit.Netlist.t) faults lo hi =
  let n = Circuit.Netlist.num_nodes c in
  (* The kernel indexes unchecked from here on, so every site must name
     a node and, for a branch, an input pin of it. *)
  for fi = lo to hi - 1 do
    let inside v = v >= 0 && v < n in
    match faults.(fi).Faults.Fault.site with
    | Faults.Fault.Stem v when inside v -> ()
    | Faults.Fault.Branch { gate; pin } when inside gate ->
      if pin < 0 || pin >= Array.length c.fanins.(gate) then
        invalid_arg "Ppsfp: branch fault on a pin the gate does not have"
    | Faults.Fault.Stem _ | Faults.Fault.Branch _ ->
      invalid_arg "Ppsfp: fault site outside the circuit"
  done;
  let is_output = Array.make n false in
  Array.iter (fun id -> is_output.(id) <- true) c.outputs;
  let next = Array.make n (-1) and pin = Array.make n 0 in
  Array.iteri
    (fun g srcs ->
      Array.iteri
        (fun p u ->
          if Array.length c.fanouts.(u) = 1 && not is_output.(u) then begin
            next.(u) <- g;
            pin.(u) <- p
          end)
        srcs)
    c.fanins;
  let depth = Circuit.Netlist.depth c in
  let base = Array.make (depth + 1) 0 in
  Array.iter (fun l -> if l < depth then base.(l + 1) <- base.(l + 1) + 1) c.levels;
  for l = 1 to depth do
    base.(l) <- base.(l) + base.(l - 1)
  done;
  let m = hi - lo in
  { circuit = c; is_output; next; pin; fval = words n;
    stamp = Array.make n (-1); sched = Array.make n (-1);
    stack = Array.make n 0; base; top = Array.make (depth + 1) 0;
    generation = 0; rmask = words n; rstamp = Array.make n (-1); block = 0;
    roots = Array.make n 0; nroots = 0; propagated = 0; faults; lo;
    local = words m; root = Array.make m 0; alive = Array.init m Fun.id;
    nalive = m }

(* Gate evaluation, closure-free per kind so that every word stays
   unboxed.  Pin [i] of a gate reads [w] when it is the overridden pin
   [p], else its fanin's faulty value where this generation stamped
   one, else the good value.  The local walk overrides one pin with
   nothing stamped; the root propagation overrides none ([p < 0]). *)
let[@inline] input st (good : int64 array) srcs i p w =
  if i = p then w
  else
    let u = Array.unsafe_get srcs i in
    if Array.unsafe_get st.stamp u = st.generation then Array1.unsafe_get st.fval u
    else Array.unsafe_get good u

let[@inline] and_inputs st good srcs p w =
  let acc = ref (input st good srcs 0 p w) in
  for i = 1 to Array.length srcs - 1 do
    acc := Int64.logand !acc (input st good srcs i p w)
  done;
  !acc

let[@inline] or_inputs st good srcs p w =
  let acc = ref (input st good srcs 0 p w) in
  for i = 1 to Array.length srcs - 1 do
    acc := Int64.logor !acc (input st good srcs i p w)
  done;
  !acc

let[@inline] xor_inputs st good srcs p w =
  let acc = ref (input st good srcs 0 p w) in
  for i = 1 to Array.length srcs - 1 do
    acc := Int64.logxor !acc (input st good srcs i p w)
  done;
  !acc

let[@inline] eval st (good : int64 array) u p w =
  let srcs = Array.unsafe_get st.circuit.fanins u in
  match Array.unsafe_get st.circuit.kinds u with
  | Circuit.Gate.Input -> Array.unsafe_get good u
  | Circuit.Gate.Const0 -> 0L
  | Circuit.Gate.Const1 -> -1L
  | Circuit.Gate.Buf -> input st good srcs 0 p w
  | Circuit.Gate.Not -> Int64.lognot (input st good srcs 0 p w)
  | Circuit.Gate.And -> and_inputs st good srcs p w
  | Circuit.Gate.Nand -> Int64.lognot (and_inputs st good srcs p w)
  | Circuit.Gate.Or -> or_inputs st good srcs p w
  | Circuit.Gate.Nor -> Int64.lognot (or_inputs st good srcs p w)
  | Circuit.Gate.Xor -> xor_inputs st good srcs p w
  | Circuit.Gate.Xnor -> Int64.lognot (xor_inputs st good srcs p w)

(* Step 1: walk live fault [k]'s effect along its single path to its
   root with every side input at its good value, store the difference
   mask there in [local.{k}], and fold it into the root's [rmask],
   queueing the root the first time this block needs it.  Nothing may
   be stamped with the current generation. *)
let walk st (good : int64 array) ~live k =
  let fault = Array.unsafe_get st.faults (st.lo + k) in
  let forced =
    match fault.Faults.Fault.polarity with
    | Faults.Fault.Stuck_at_0 -> 0L
    | Faults.Fault.Stuck_at_1 -> -1L
  in
  let node = ref 0 and d = ref forced in
  (match fault.Faults.Fault.site with
  | Faults.Fault.Stem v -> node := v
  | Faults.Fault.Branch { gate; pin } ->
    node := gate;
    d := eval st good gate pin forced);
  d := Int64.logand live (Int64.logxor (Array.unsafe_get good !node) !d);
  while !d <> 0L && Array.unsafe_get st.next !node >= 0 do
    let u = !node in
    let g = Array.unsafe_get st.next u in
    d :=
      Int64.logxor (Array.unsafe_get good g)
        (eval st good g (Array.unsafe_get st.pin u)
           (Int64.logxor (Array.unsafe_get good u) !d));
    node := g
  done;
  Array1.unsafe_set st.local k !d;
  if !d <> 0L then begin
    let r = !node in
    Array.unsafe_set st.root k r;
    if Array.unsafe_get st.rstamp r = st.block then
      Array1.unsafe_set st.rmask r (Int64.logor (Array1.unsafe_get st.rmask r) !d)
    else begin
      Array.unsafe_set st.rstamp r st.block;
      Array1.unsafe_set st.rmask r !d;
      Array.unsafe_set st.roots st.nroots r;
      st.nroots <- st.nroots + 1
    end
  end

(* Push the not-yet-scheduled fanouts of [u] onto their level stacks;
   returns the highest scheduled level, at least [hi]. *)
let schedule_fanouts st u hi =
  let c = st.circuit in
  let outs = Array.unsafe_get c.fanouts u in
  let hi = ref hi in
  for i = 0 to Array.length outs - 1 do
    let v = Array.unsafe_get outs i in
    if Array.unsafe_get st.sched v <> st.generation then begin
      Array.unsafe_set st.sched v st.generation;
      let l = Array.unsafe_get c.levels v in
      let t = Array.unsafe_get st.top l in
      Array.unsafe_set st.stack (Array.unsafe_get st.base l + t) v;
      Array.unsafe_set st.top l (t + 1);
      if l > !hi then hi := l
    end
  done;
  !hi

(* Step 2: flip root [r] on the patterns of its [rmask] and carry the
   flip level by level through its fanout cone; [rmask.{r}] becomes the
   patterns on which some primary output diverges.  Each pattern is an
   independent simulation, so a pattern already observed needs no
   further work: differences are masked to the unobserved patterns, a
   difference that reaches an output stops there, and the walk ends
   once every flipped pattern is observed. *)
let propagate_root st (good : int64 array) r =
  let c = st.circuit in
  st.generation <- st.generation + 1;
  let flip = Array1.unsafe_get st.rmask r in
  Array1.unsafe_set st.fval r (Int64.logxor (Array.unsafe_get good r) flip);
  Array.unsafe_set st.stamp r st.generation;
  let observed = ref 0L in
  let hi = ref (schedule_fanouts st r 0) in
  let level = ref (Array.unsafe_get c.levels r + 1) in
  while !level <= !hi do
    let l = !level in
    let first = Array.unsafe_get st.base l in
    if !observed <> flip then
      for j = first to first + Array.unsafe_get st.top l - 1 do
        let u = Array.unsafe_get st.stack j in
        let fresh = eval st good u (-1) 0L in
        let diff =
          Int64.logand (Int64.logxor fresh (Array.unsafe_get good u))
            (Int64.lognot !observed)
        in
        if diff <> 0L then begin
          if Array.unsafe_get st.is_output u then
            observed := Int64.logor !observed diff
          else begin
            Array1.unsafe_set st.fval u fresh;
            Array.unsafe_set st.stamp u st.generation;
            hi := schedule_fanouts st u !hi
          end
        end
      done;
    Array.unsafe_set st.top l 0;
    incr level
  done;
  Array1.unsafe_set st.rmask r !observed

(* Constant-time lowest-set-bit: isolate the bit with [w land (-w)],
   then perfect-hash the 64 single-bit words through a de Bruijn
   multiply.  The table is built from the same multiply, so it is
   correct for any valid de Bruijn constant. *)
let debruijn = 0x03F79D71B4CB0A89L

let debruijn_index =
  let table = Array.make 64 0 in
  for i = 0 to 63 do
    let hash =
      Int64.to_int
        (Int64.shift_right_logical (Int64.mul (Int64.shift_left 1L i) debruijn) 58)
    in
    table.(hash) <- i
  done;
  table

let lowest_set_bit w =
  if w = 0L then invalid_arg "lowest_set_bit: zero word";
  let isolated = Int64.logand w (Int64.neg w) in
  debruijn_index.(Int64.to_int
                    (Int64.shift_right_logical (Int64.mul isolated debruijn) 58))

(* Branch-free SWAR popcount: pairwise sums, then nibble sums, then one
   multiply to fold the byte counts into the top byte. *)
let popcount w =
  let open Int64 in
  let w = sub w (logand (shift_right_logical w 1) 0x5555555555555555L) in
  let w =
    add
      (logand w 0x3333333333333333L)
      (logand (shift_right_logical w 2) 0x3333333333333333L)
  in
  let w = logand (add w (shift_right_logical w 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul w 0x0101010101010101L) 56)

(* Index of the k-th (1-based) set bit: clear the k-1 lowest set bits
   with [w land (w - 1)], then take the lowest survivor. *)
let nth_set_bit w k =
  if k < 1 then invalid_arg "nth_set_bit: k must be >= 1";
  let w = ref w in
  for _ = 2 to k do
    if !w = 0L then invalid_arg "nth_set_bit: fewer than k set bits";
    w := Int64.logand !w (Int64.sub !w 1L)
  done;
  if !w = 0L then invalid_arg "nth_set_bit: fewer than k set bits";
  lowest_set_bit !w

(* Drop-after-n bookkeeping shared by the block loops: fold the
   detection mask of fault [fi] on one block into its running count and
   report whether the fault stays alive.  The count saturates at [n]
   and the index of the n-th detecting pattern is recorded exactly
   once; with [n = 1] the recorded index is [lowest_set_bit mask], the
   first detection. *)
let record_detections ~n ~block_start ~detections ~nth mask fi =
  if mask = 0L then true
  else begin
    let seen = detections.(fi) in
    let hits = popcount mask in
    if seen + hits >= n then begin
      detections.(fi) <- n;
      nth.(fi) <- Some (block_start + nth_set_bit mask (n - seen));
      false
    end
    else begin
      detections.(fi) <- seen + hits;
      true
    end
  end

type block = {
  block_start : int;
  patterns : int;
  live : int64;
  good : unit -> int64 array;
}

let blocks ?(presimulate = false) c patterns =
  let start = ref 0 in
  List.map
    (fun b ->
      let good =
        if presimulate then Fun.const (Logicsim.Packed.eval_block c b)
        else fun () -> Logicsim.Packed.eval_block c b
      in
      let block =
        { block_start = !start; patterns = b.Logicsim.Packed.pattern_count;
          live = Logicsim.Packed.live_mask b; good }
      in
      start := !start + block.patterns;
      block)
    (Logicsim.Packed.blocks_of_patterns c patterns)

type grading = {
  detections : int array;
  nth : int option array;
  graded : int;
}

(* Step 2 for every root the block needs, polling [cancel] every 256
   propagations; false when the token fired before all were done. *)
let propagate_roots st good cancel =
  let i = ref 0 and cut = ref false in
  while (not !cut) && !i < st.nroots do
    let r = Array.unsafe_get st.roots !i in
    if not (Array.unsafe_get st.is_output r) then begin
      if st.propagated land 255 = 255 && Robust.Cancel.stop_requested cancel then
        cut := true
      else begin
        propagate_root st good r;
        st.propagated <- st.propagated + 1
      end
    end;
    incr i
  done;
  not !cut

(* Step 3: a live fault is detected where its local mask meets its
   root's observability; drop-after-n compacts the live list. *)
let detect st ~n ~block_start ~detections ~nth =
  let kept = ref 0 in
  for i = 0 to st.nalive - 1 do
    let k = Array.unsafe_get st.alive i in
    let d = Array1.unsafe_get st.local k in
    let mask =
      if d = 0L then 0L
      else Int64.logand d (Array1.unsafe_get st.rmask (Array.unsafe_get st.root k))
    in
    if mask = 0L || record_detections ~n ~block_start ~detections ~nth mask (st.lo + k)
    then begin
      Array.unsafe_set st.alive !kept k;
      incr kept
    end
  done;
  st.nalive <- !kept

(* The one propagation block loop: drop-after-n over faults [lo, hi).
   The good machine of a block is simulated only while faults of the
   range are alive.  The cancel token is polled before each such block
   and between root propagations; a block it cuts is not graded, so the
   returned count is an exact prefix and progress covers only it. *)
let grade_range ~engine ~n ~cancel ~progress c faults blocks ~detections ~nth
    lo hi =
  let st = make_state c faults lo hi in
  let span suffix = "fsim." ^ engine ^ suffix in
  let goodsim = span ".goodsim" and local = span ".local" and roots = span ".roots" in
  let grade_block b =
    if Instrument.observing () then Instrument.count_fault_evals ~engine st.nalive;
    let good = Obs.Trace.with_span goodsim b.good in
    st.block <- st.block + 1;
    (* A fresh generation: the local walk sees no stamped node. *)
    st.generation <- st.generation + 1;
    st.nroots <- 0;
    st.propagated <- 0;
    Obs.Trace.with_span local (fun () ->
        for i = 0 to st.nalive - 1 do
          walk st good ~live:b.live (Array.unsafe_get st.alive i)
        done);
    let complete = Obs.Trace.with_span roots (fun () -> propagate_roots st good cancel) in
    if Instrument.observing () then
      Instrument.count_root_propagations ~engine st.propagated;
    if complete then
      detect st ~n ~block_start:b.block_start ~detections ~nth;
    complete
  in
  let graded = ref 0 in
  let stopped = ref false in
  List.iter
    (fun b ->
      if not !stopped then begin
        if st.nalive > 0 then
          stopped := Robust.Cancel.stop_requested cancel || not (grade_block b);
        if not !stopped then begin
          graded := !graded + b.patterns;
          Obs.Progress.step progress b.patterns
        end
      end)
    blocks;
  !graded

let grade ?(cancel = Robust.Cancel.none) ?n c faults patterns =
  let nf = Array.length faults in
  Instrument.grading_run ~name:"ppsfp" ?n ~faults:nf
    ~patterns:(Array.length patterns)
  @@ fun ~engine ~n ->
  let blocks = blocks c patterns in
  let progress =
    Instrument.progress_start ~engine ~patterns:(Array.length patterns)
  in
  let detections = Array.make nf 0 in
  let nth = Array.make nf None in
  let graded =
    grade_range ~engine ~n ~cancel ~progress c faults blocks ~detections ~nth
      0 nf
  in
  Obs.Progress.finish progress;
  { detections; nth; graded }

let run ?cancel c faults patterns = (grade ?cancel c faults patterns).nth

let run_counts ?cancel ~n c faults patterns =
  let g = grade ?cancel ~n c faults patterns in
  (g.detections, g.nth)
