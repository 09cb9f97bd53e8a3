type state = {
  circuit : Circuit.Netlist.t;
  is_output : bool array;
  (* Copy-on-write faulty values: fval.(u) is meaningful only when
     stamp.(u) = generation. *)
  fval : int64 array;
  stamp : int array;
  sched : int array;
  buckets : int list array;
  mutable generation : int;
}

let make_state (c : Circuit.Netlist.t) =
  let n = Circuit.Netlist.num_nodes c in
  let is_output = Array.make n false in
  Array.iter (fun id -> is_output.(id) <- true) c.outputs;
  { circuit = c; is_output; fval = Array.make n 0L; stamp = Array.make n (-1);
    sched = Array.make n (-1); buckets = Array.make (Circuit.Netlist.depth c + 1) [];
    generation = 0 }

let eval_faulty st good u =
  let c = st.circuit in
  let srcs = c.fanins.(u) in
  let value src = if st.stamp.(src) = st.generation then st.fval.(src) else good.(src) in
  let fold op =
    let acc = ref (value srcs.(0)) in
    for i = 1 to Array.length srcs - 1 do
      acc := op !acc (value srcs.(i))
    done;
    !acc
  in
  match c.kinds.(u) with
  | Circuit.Gate.Input -> good.(u)
  | Circuit.Gate.Const0 -> 0L
  | Circuit.Gate.Const1 -> -1L
  | Circuit.Gate.Buf -> value srcs.(0)
  | Circuit.Gate.Not -> Int64.lognot (value srcs.(0))
  | Circuit.Gate.And -> fold Int64.logand
  | Circuit.Gate.Nand -> Int64.lognot (fold Int64.logand)
  | Circuit.Gate.Or -> fold Int64.logor
  | Circuit.Gate.Nor -> Int64.lognot (fold Int64.logor)
  | Circuit.Gate.Xor -> fold Int64.logxor
  | Circuit.Gate.Xnor -> Int64.lognot (fold Int64.logxor)

let seed_word st good fault =
  let forced =
    match fault.Faults.Fault.polarity with Faults.Fault.Stuck_at_0 -> 0L | Faults.Fault.Stuck_at_1 -> -1L
  in
  match fault.Faults.Fault.site with
  | Faults.Fault.Stem v -> (v, forced)
  | Faults.Fault.Branch { gate; pin } ->
    let c = st.circuit in
    let srcs = c.fanins.(gate) in
    let value i = if i = pin then forced else good.(srcs.(i)) in
    let fold op =
      let acc = ref (value 0) in
      for i = 1 to Array.length srcs - 1 do
        acc := op !acc (value i)
      done;
      !acc
    in
    let w =
      match c.kinds.(gate) with
      | Circuit.Gate.Input | Circuit.Gate.Const0 | Circuit.Gate.Const1 ->
        invalid_arg "Ppsfp: branch fault on a node without input pins"
      | Circuit.Gate.Buf -> value 0
      | Circuit.Gate.Not -> Int64.lognot (value 0)
      | Circuit.Gate.And -> fold Int64.logand
      | Circuit.Gate.Nand -> Int64.lognot (fold Int64.logand)
      | Circuit.Gate.Or -> fold Int64.logor
      | Circuit.Gate.Nor -> Int64.lognot (fold Int64.logor)
      | Circuit.Gate.Xor -> fold Int64.logxor
      | Circuit.Gate.Xnor -> Int64.lognot (fold Int64.logxor)
    in
    (gate, w)

(* Propagate one fault through its cone; returns the mask of patterns
   (within [live]) on which some primary output diverges. *)
let propagate st good ~live fault =
  st.generation <- st.generation + 1;
  let c = st.circuit in
  let node, w = seed_word st good fault in
  if Int64.logand (Int64.logxor w good.(node)) live = 0L then 0L
  else begin
    st.fval.(node) <- w;
    st.stamp.(node) <- st.generation;
    let out_diff = ref 0L in
    if st.is_output.(node) then
      out_diff := Int64.logand (Int64.logxor w good.(node)) live;
    let max_level = ref c.levels.(node) in
    let schedule u =
      if st.sched.(u) <> st.generation then begin
        st.sched.(u) <- st.generation;
        let l = c.levels.(u) in
        st.buckets.(l) <- u :: st.buckets.(l);
        if l > !max_level then max_level := l
      end
    in
    Array.iter schedule c.fanouts.(node);
    let level = ref (c.levels.(node) + 1) in
    while !level <= !max_level do
      let bucket = st.buckets.(!level) in
      st.buckets.(!level) <- [];
      List.iter
        (fun u ->
          let fresh = eval_faulty st good u in
          if Int64.logand (Int64.logxor fresh good.(u)) live <> 0L then begin
            st.fval.(u) <- fresh;
            st.stamp.(u) <- st.generation;
            if st.is_output.(u) then
              out_diff :=
                Int64.logor !out_diff
                  (Int64.logand (Int64.logxor fresh good.(u)) live);
            Array.iter schedule c.fanouts.(u)
          end)
        bucket;
      incr level
    done;
    !out_diff
  end

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

(* The one propagation block loop: drop-after-n over faults [lo, hi).
   The good machine of a block is simulated only while faults of the
   range are alive, and the cancel token is polled at the same point;
   once it fires, no later block is graded, so the returned count is an
   exact prefix. *)
let grade_range ~engine ~n ~cancel ~progress c faults blocks ~detections ~nth
    lo hi =
  let st = make_state c in
  let alive = ref (List.init (hi - lo) (fun i -> lo + i)) in
  let graded = ref 0 in
  let stopped = ref false in
  List.iter
    (fun b ->
      if !alive <> [] && not !stopped then begin
        if Robust.Cancel.stop_requested cancel then stopped := true
        else begin
          if Instrument.observing () then
            Instrument.count_fault_evals ~engine (List.length !alive);
          let good = b.good () in
          alive :=
            List.filter
              (fun fi ->
                record_detections ~n ~block_start:b.block_start ~detections
                  ~nth (propagate st good ~live:b.live faults.(fi)) fi)
              !alive
        end
      end;
      if not !stopped then graded := !graded + b.patterns;
      Obs.Progress.step progress b.patterns)
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
