type t = {
  circuit : Circuit.Netlist.t;
  dominators : Dominators.t;
  implication : Implication.t option;
  prob : Signal_prob.t;
  detectability : Detectability.t;
}

let build ?(learn_depth = Some 1) (c : Circuit.Netlist.t) =
  Obs.Trace.with_span "analysis.build" @@ fun () ->
  let dominators = Dominators.compute c in
  let implication =
    match learn_depth with
    | None -> None
    | Some depth -> Some (Implication.learn ~depth c)
  in
  let prob = Signal_prob.analyze c in
  let detectability = Detectability.analyze ~dominators prob in
  { circuit = c; dominators; implication; prob; detectability }

let implication t = t.implication
let dominators t = t.dominators
let prob t = t.prob
let detectability t = t.detectability
