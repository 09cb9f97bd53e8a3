(** PODEM — path-oriented decision making (Goel, 1981).

    Deterministic test generation for a single stuck-at fault: a
    branch-and-bound search over primary-input assignments only (PODEM's
    decision rule), over two three-valued circuit planes — the good and
    the faulty machine.  After every decision, event-driven forward
    {e and backward} implication runs to a fixpoint in both planes, so
    forced values and conflicts surface early; D-frontier tracking and
    an X-path check prune dead branches, and a trail undoes assignments
    on backtrack.  A test is reported once a primary output diverges
    between the planes and every defined line is implied by its fanins
    (the D-algorithm's empty J-frontier), so any completion of the
    unassigned inputs detects the fault.  Complete: with an unbounded
    backtrack budget, [Untestable] is a proof of redundancy. *)

type result =
  | Test of bool array
      (** Primary-input pattern (don't-cares filled with 0). *)
  | Untestable
      (** The search space is exhausted: the fault is redundant. *)
  | Aborted
      (** Backtrack limit, per-fault time budget, or the run's cancel
          token fired before a verdict. *)

type stats = { backtracks : int; implications : int }

val generate :
  ?backtrack_limit:int ->
  ?time_budget_s:float ->
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t -> result * stats
(** [generate c fault] searches for a test.  Default backtrack limit is
    1000; backtrace follows the shallowest unsettled fanin.
    [time_budget_s] bounds this fault's wall-clock search time and
    [cancel] aborts cooperatively (both checked at every decision and
    backtrack); either yields the
    typed [Aborted] verdict, never an exception.  A time budget makes
    verdicts timing-dependent — runs that must be reproducible should
    bound the search with [backtrack_limit] alone.  Raises
    [Invalid_argument] when [time_budget_s <= 0].  The returned pattern is
    guaranteed (and test-suite verified) to detect the fault under the
    fault simulator.  [implications] counts gate implication steps (one
    per gate taken off the event queue). *)
