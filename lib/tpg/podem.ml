type result = Test of bool array | Untestable | Aborted

type stats = { backtracks : int; implications : int }

(* One machine's value on a line.  The search keeps two planes of
   these — the good machine and the faulty machine — and a line carries
   the fault effect when both are defined and differ. *)
type t3 = Unknown | Zero | One

let t3_of_bool b = if b then One else Zero

let negate = function Unknown -> Unknown | Zero -> One | One -> Zero

type plane = Good | Faulty

exception Conflict
exception Abort_search

type state = {
  c : Circuit.Netlist.t;
  stuck : t3;
  stem : int;          (* faulted stem node, or -1 *)
  branch_gate : int;   (* gate whose input pin is faulted, or -1 *)
  branch_pin : int;
  good : t3 array;
  faulty : t3 array;
  (* Assignments in order, for chronological backtracking; a value only
     ever moves from Unknown to defined. *)
  mutable trail : (plane * int) list;
  queue : int Queue.t;  (* gates awaiting (re)implication *)
  in_queue : bool array;
  mutable implications : int;
}

let plane_values st = function Good -> st.good | Faulty -> st.faulty

(* The value pin [k] of [gate] sees: a branch fault sitting right there
   overrides the driver in the faulty machine. *)
let pin st plane gate k =
  if plane = Faulty && gate = st.branch_gate && k = st.branch_pin then st.stuck
  else (plane_values st plane).(st.c.fanins.(gate).(k))

(* A stem fault disconnects its node's faulty value from the node's
   inputs: no implication crosses it in the faulty machine. *)
let cut st plane node = plane = Faulty && node = st.stem

let enqueue st gate =
  if not st.in_queue.(gate) then begin
    st.in_queue.(gate) <- true;
    Queue.add gate st.queue
  end

let rec set st plane node v =
  let values = plane_values st plane in
  match values.(node) with
  | Unknown ->
    values.(node) <- v;
    st.trail <- (plane, node) :: st.trail;
    (* A changed line can imply its own gate's inputs (backward) and
       every consumer (forward, and their other inputs backward). *)
    enqueue st node;
    Array.iter (enqueue st) st.c.fanouts.(node);
    (* Both machines see the same primary inputs, except the faulty
       value of a faulted input stem. *)
    if st.c.kinds.(node) = Circuit.Gate.Input && node <> st.stem then
      set st (match plane with Good -> Faulty | Faulty -> Good) node v
  | existing -> if existing <> v then raise Conflict

(* [ctl] is the controlling value of an AND/NAND/OR/NOR gate, [out] the
   output it forces. *)
let controlling kind =
  let ctl = Circuit.Gate.controlling_value kind = Some true in
  (t3_of_bool ctl, t3_of_bool (ctl <> Circuit.Gate.inverts kind))

(* Three-valued forward evaluation of [gate] from its pin values. *)
let eval st plane gate =
  let arity = Array.length st.c.fanins.(gate) in
  match st.c.kinds.(gate) with
  | Circuit.Gate.Input -> (plane_values st plane).(gate)
  | Circuit.Gate.Const0 -> Zero
  | Circuit.Gate.Const1 -> One
  | Circuit.Gate.Buf -> pin st plane gate 0
  | Circuit.Gate.Not -> negate (pin st plane gate 0)
  | (Circuit.Gate.And | Circuit.Gate.Nand | Circuit.Gate.Or | Circuit.Gate.Nor)
    as kind ->
    let ctl, forced = controlling kind in
    let rec scan k unknown =
      if k = arity then if unknown then Unknown else negate forced
      else
        match pin st plane gate k with
        | Unknown -> scan (k + 1) true
        | v -> if v = ctl then forced else scan (k + 1) unknown
    in
    scan 0 false
  | (Circuit.Gate.Xor | Circuit.Gate.Xnor) as kind ->
    let rec scan k parity =
      if k = arity then t3_of_bool parity
      else
        match pin st plane gate k with
        | Unknown -> Unknown
        | One -> scan (k + 1) (not parity)
        | Zero -> scan (k + 1) parity
    in
    scan 0 (kind = Circuit.Gate.Xnor)

(* Backward implication: the input values a defined output forces. *)
let imply_backward st plane gate out =
  let srcs = st.c.fanins.(gate) in
  let arity = Array.length srcs in
  let force k v =
    if not (plane = Faulty && gate = st.branch_gate && k = st.branch_pin) then
      set st plane srcs.(k) v
  in
  let unknown_pins () =
    List.filter (fun k -> pin st plane gate k = Unknown) (List.init arity Fun.id)
  in
  match st.c.kinds.(gate) with
  | Circuit.Gate.Input | Circuit.Gate.Const0 | Circuit.Gate.Const1 -> ()
  | Circuit.Gate.Buf -> force 0 out
  | Circuit.Gate.Not -> force 0 (negate out)
  | (Circuit.Gate.And | Circuit.Gate.Nand | Circuit.Gate.Or | Circuit.Gate.Nor)
    as kind ->
    let ctl, forced = controlling kind in
    if out <> forced then List.iter (fun k -> force k (negate ctl)) (unknown_pins ())
    else if not (List.exists (fun k -> pin st plane gate k = ctl) (List.init arity Fun.id))
    then begin
      (* Some input must be controlling: forced when only one can be. *)
      match unknown_pins () with
      | [] -> raise Conflict
      | [ k ] -> force k ctl
      | _ :: _ :: _ -> ()
    end
  | Circuit.Gate.Xor | Circuit.Gate.Xnor ->
    (match unknown_pins () with
    | [ k ] ->
      (* The missing input is whatever makes the parity come out. *)
      let parity = ref (out = One) in
      for j = 0 to arity - 1 do
        if pin st plane gate j = One then parity := not !parity
      done;
      if st.c.kinds.(gate) = Circuit.Gate.Xnor then parity := not !parity;
      force k (t3_of_bool !parity)
    | [] | _ :: _ :: _ -> ())

let imply st plane gate =
  if not (cut st plane gate || st.c.kinds.(gate) = Circuit.Gate.Input) then begin
    let forward = eval st plane gate in
    if forward <> Unknown then set st plane gate forward;
    let out = (plane_values st plane).(gate) in
    if out <> Unknown then imply_backward st plane gate out
  end

(* Run forward and backward implication to a fixpoint; raises
   [Conflict] when the assignments so far are contradictory. *)
let propagate st =
  while not (Queue.is_empty st.queue) do
    let gate = Queue.pop st.queue in
    st.in_queue.(gate) <- false;
    st.implications <- st.implications + 1;
    imply st Good gate;
    imply st Faulty gate
  done

(* Undo every assignment made since the trail was [mark]. *)
let backtrack_to st mark =
  while st.trail != mark do
    match st.trail with
    | (plane, node) :: rest ->
      (plane_values st plane).(node) <- Unknown;
      st.trail <- rest
    | [] -> assert false
  done;
  Queue.iter (fun gate -> st.in_queue.(gate) <- false) st.queue;
  Queue.clear st.queue

let has_unknown st node = st.good.(node) = Unknown || st.faulty.(node) = Unknown

let divergent g f = g <> Unknown && f <> Unknown && g <> f

let po_divergent st =
  Array.exists (fun po -> divergent st.good.(po) st.faulty.(po)) st.c.outputs

(* D-frontier: gates not yet settled in both machines with the fault
   effect on some input, in topological order. *)
let d_frontier st =
  let c = st.c in
  Array.fold_right
    (fun gate acc ->
      let arity = Array.length c.fanins.(gate) in
      let rec effect k =
        k < arity && (divergent (pin st Good gate k) (pin st Faulty gate k) || effect (k + 1))
      in
      if arity > 0 && has_unknown st gate && effect 0 then gate :: acc else acc)
    c.topo_order []

(* Can the effect still reach a primary output through unsettled lines? *)
let x_path_exists st frontier =
  let c = st.c in
  let visited = Array.make (Circuit.Netlist.num_nodes c) false in
  let rec bfs = function
    | [] -> false
    | node :: rest ->
      if visited.(node) then bfs rest
      else begin
        visited.(node) <- true;
        Circuit.Netlist.is_output c node
        || bfs
             (Array.fold_left
                (fun acc dst ->
                  if (not visited.(dst)) && has_unknown st dst then dst :: acc else acc)
                rest c.fanouts.(node))
      end
  in
  bfs frontier

(* J-frontier: the first gate with a defined output its inputs do not
   yet imply.  With none left, every completion of the unassigned
   inputs reproduces all defined values — the D-algorithm's
   termination condition. *)
let first_unjustified st =
  let unjustified plane gate =
    (not (cut st plane gate))
    && (plane_values st plane).(gate) <> Unknown
    && eval st plane gate = Unknown
  in
  Array.find_opt
    (fun gate -> unjustified Good gate || unjustified Faulty gate)
    st.c.topo_order

let generate ?(backtrack_limit = 1000) ?time_budget_s
    ?(cancel = Robust.Cancel.none) (c : Circuit.Netlist.t) fault =
  (match time_budget_s with
  | Some b when b <= 0.0 ->
    invalid_arg "Podem.generate: time budget must be > 0"
  | Some _ | None -> ());
  (* Per-fault wall-clock budget, on the same monotonic clock as the
     run deadline; checked with the cancel token at every decision and
     backtrack, both of which map to [Aborted] — a typed verdict, never
     an escaping exception. *)
  let deadline =
    Option.map (fun b -> Obs.Clock.now_s () +. b) time_budget_s
  in
  let should_stop () =
    Robust.Cancel.stop_requested cancel
    || match deadline with Some d -> Obs.Clock.now_s () >= d | None -> false
  in
  let num_nodes = Circuit.Netlist.num_nodes c in
  let stuck_bit = Faults.Fault.polarity_bit fault.Faults.Fault.polarity in
  (* [line] is the faulty line seen from the good machine: the stem
     node, or the node driving the faulted pin. *)
  let stem, branch_gate, branch_pin, line =
    match fault.Faults.Fault.site with
    | Faults.Fault.Stem v -> (v, -1, -1, v)
    | Faults.Fault.Branch { gate; pin } -> (-1, gate, pin, c.fanins.(gate).(pin))
  in
  let st =
    { c; stuck = t3_of_bool stuck_bit; stem; branch_gate; branch_pin;
      good = Array.make num_nodes Unknown;
      faulty = Array.make num_nodes Unknown;
      trail = []; queue = Queue.create ();
      in_queue = Array.make num_nodes false; implications = 0 }
  in
  let backtracks = ref 0 in

  (* The shallowest unsettled fanin of [gate]; the search is correct for
     any choice, the order only shapes its effort.  At an implication
     fixpoint every gate unsettled in some machine has one (with all its
     pins defined it would have been evaluated), and an unsettled primary
     input is unassigned, so the walks below always end at a free
     input. *)
  let shallowest_unknown gate =
    let best =
      Array.fold_left
        (fun best src ->
          if not (has_unknown st src) then best
          else if best >= 0 && c.levels.(best) <= c.levels.(src) then best
          else src)
        (-1) c.fanins.(gate)
    in
    assert (best >= 0);
    best
  in
  (* Walk the objective [node = value] back to a free primary input
     through unsettled lines. *)
  let rec backtrace node value =
    match c.kinds.(node) with
    | Circuit.Gate.Input -> (node, value)
    | kind ->
      let value = value <> Circuit.Gate.inverts kind in
      backtrace (shallowest_unknown node) value
  in
  (* Objective at [gate]: its shallowest unsettled input at the
     non-controlling value (to propagate the effect through it) or at
     the controlling value (to justify its output), backtraced to a
     free primary input. *)
  let objective gate ~controlling =
    let v =
      match Circuit.Gate.controlling_value c.kinds.(gate) with
      | Some ctl -> if controlling then ctl else not ctl
      | None -> false
    in
    backtrace (shallowest_unknown gate) v
  in

  (* Depth-first search over primary-input assignments (PODEM's decision
     rule) with chronological backtracking: drive the effect through the
     first D-frontier gate until an output diverges, then justify the
     J-frontier.  [true] once a test is found, left in the good plane's
     input values. *)
  let rec search () =
    if should_stop () then raise Abort_search;
    match propagate st with
    | exception Conflict -> false
    | () ->
      if po_divergent st then
        match first_unjustified st with
        | None -> true
        | Some gate -> decide (objective gate ~controlling:true)
      else begin
        match d_frontier st with
        | [] -> false
        | gate :: _ as frontier ->
          x_path_exists st frontier && decide (objective gate ~controlling:false)
      end
  and decide (pi, v) =
    let mark = st.trail in
    let try_value v =
      (set st Good pi (t3_of_bool v);
       search ())
      || (backtrack_to st mark; false)
    in
    try_value v
    || begin
      incr backtracks;
      if !backtracks > backtrack_limit || should_stop () then raise Abort_search;
      try_value (not v)
    end
  in
  let search_from_activation () =
    (* Detection requires the good machine to drive the faulty line to
       the complement of the stuck value, and the faulty machine holds
       the stuck value at a faulted stem: assert both up front.  So do
       the constants, which no implication event would otherwise
       reach. *)
    match
      if stem >= 0 then set st Faulty stem st.stuck;
      set st Good line (t3_of_bool (not stuck_bit));
      Array.iter
        (fun node ->
          match c.kinds.(node) with
          | Circuit.Gate.Const0 | Circuit.Gate.Const1 ->
            let v = eval st Good node in
            set st Good node v;
            if node <> stem then set st Faulty node v
          | _ -> ())
        c.topo_order
    with
    | exception Conflict -> Untestable
    | () ->
      if search () then
        Test (Array.map (fun pi -> st.good.(pi) = One) c.inputs)
      else Untestable
  in

  let verdict =
    Obs.Trace.with_span "podem.generate" (fun () ->
        let verdict = try search_from_activation () with Abort_search -> Aborted in
        Obs.Trace.add_int "backtracks" !backtracks;
        Obs.Trace.add_int "implications" st.implications;
        verdict)
  in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr "atpg.podem.calls";
    Obs.Metrics.incr ~by:(float_of_int !backtracks) "atpg.podem.backtracks";
    Obs.Metrics.incr ~by:(float_of_int st.implications) "atpg.podem.implications"
  end;
  (verdict, { backtracks = !backtracks; implications = st.implications })
