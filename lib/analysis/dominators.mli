(** Structural (observability) dominators of every netlist line.

    A node [d] is an {e absolute dominator} of node [n] when every path
    from [n]'s output stem to any primary output passes through [d] —
    the fault-propagation bottlenecks of the circuit.  They are the
    backbone of unique sensitization in deterministic ATPG (a fault
    effect sitting at [n] {e must} traverse each dominator, so side
    inputs of the dominators can be scheduled early) and of cheap
    unobservability reasoning (a blocked dominator kills every path).

    Computed as a dominator tree over the fanout DAG with a virtual
    sink fed by all primary outputs.  Because the graph is acyclic and
    nodes are processed in reverse topological order (all fanouts
    before the node), a single Cooper–Harvey–Kennedy intersection pass
    yields the exact tree — no iteration to a fixpoint is needed. *)

type t

val compute : Circuit.Netlist.t -> t
(** One pass over the netlist; instrumented as the
    ["analysis.dominators"] span. *)

val idom : t -> int -> int option
(** Immediate dominator of node [id]: the nearest node (other than
    [id] itself) through which every [id]-to-output path passes.
    [None] when the stem is unobservable, or when no single node
    bottlenecks the propagation (the only common point is the virtual
    sink — e.g. the stem of a primary output). *)

val dominators : t -> int -> int list
(** All strict absolute dominators of [id], nearest first (the [idom]
    chain).  Empty for unobservable stems and for primary outputs. *)

val dominates : t -> int -> over:int -> bool
(** [dominates t d ~over:n] — is [d] a strict absolute dominator of
    [n]? *)

val unobservable_stems : t -> int list
(** Nodes with no path to any primary output, in node order — dead
    logic as seen from the outputs. *)
