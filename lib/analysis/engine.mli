(** One-stop bundle of the static analyses over a netlist.

    [build] runs the dominator pass always (it is a single linear
    sweep) and the implication engine when a learning depth is given,
    under one ["analysis.build"] span.  Consumers — lint, hybrid ATPG's
    random/deterministic cutover, the [lsiq analyze] command — take
    this bundle instead of wiring the passes individually. *)

type t = {
  circuit : Circuit.Netlist.t;
  dominators : Dominators.t;
  implication : Implication.t option;  (** [None] when learning was off *)
  prob : Signal_prob.t;                (** Static signal-probability bounds. *)
  detectability : Detectability.t;     (** Per-fault detection-probability bounds. *)
}

val build : ?learn_depth:int option -> Circuit.Netlist.t -> t
(** [build ?learn_depth c] — [learn_depth] defaults to [Some 1]; [None]
    skips the implication engine entirely (dominators,
    signal-probability and detectability passes always run; all three
    are linear sweeps plus one [O(N^2/w)] reconvergence pass).  Exact
    ROBDD analysis is not bundled: callers run {!Exact.analyze} with
    their own budget. *)

val implication : t -> Implication.t option
val dominators : t -> Dominators.t
val prob : t -> Signal_prob.t
val detectability : t -> Detectability.t
