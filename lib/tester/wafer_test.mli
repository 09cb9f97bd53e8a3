(** The virtual wafer test system (the reproduction's Sentry 600).

    Runs an ordered test program against every chip of a manufactured
    lot, records the first failing pattern of each chip, and reduces
    the outcomes to the paper's Table-1 presentation: cumulative
    fraction of chips failed as a function of fault coverage.

    Two tester fidelities:
    - {!Table_lookup}: a chip fails at the earliest first-detection
      pattern of any of its faults (single-fault superposition — the
      assumption behind the paper's urn model).  O(1) per chip fault.
    - {!Exact_multifault}: the chip's complete fault set is injected
      simultaneously and simulated, so masking between coexisting
      faults is honoured.  Ablation C of [lsiq experiments ablation]
      compares the two. *)

type mode = Table_lookup | Exact_multifault

type outcome = {
  chip_id : int;
  fault_count : int;
  first_fail : int option;  (** Pattern index, [None] = passed. *)
}

type result = {
  outcomes : outcome array;
  pattern_count : int;
  lot_size : int;
}

val test_lot :
  ?mode:mode ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  Pattern_set.t ->
  Fab.Lot.t ->
  result
(** [test_lot c universe program lot]: the universe must be the one the
    lot's fault indices refer to and the program was simulated
    against.  Raises [Invalid_argument] on an empty lot — every
    fraction below divides by the lot size, and an empty lot would
    silently turn them all into NaN. *)

type lot_run = {
  tested : outcome array;  (** Prefix of the lot, length [dies_done]. *)
  dies_done : int;
  resumed_from : int;      (** 0 on a fresh run. *)
  completed : bool;
}

val test_lot_restart :
  ?mode:mode ->
  ?cancel:Robust.Cancel.t ->
  ?every:int ->
  ?resume:bool ->
  checkpoint:string ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  Pattern_set.t ->
  Fab.Lot.t ->
  (lot_run, string) Stdlib.result
(** {!test_lot} with a die-granular checkpoint: per-die outcomes are
    snapshotted crash-safely every [every] dies (default 64) and once
    more at exit, and [cancel] stops between dies with the tested
    prefix durable.  Dies are independent, so a resumed run is
    bit-identical to an uninterrupted one.  The ["tester.lot.segment"]
    failpoint fires after each periodic save — the crash-recovery smoke
    kills there.  [Error] carries an unreadable/mismatched-checkpoint
    message (the meta header fingerprints circuit, universe and lot
    sizes, total injected faults, pattern count and tester mode; the
    payload must be a prefix of this lot — no more dies than it has,
    outcome [i] carrying die [i]'s chip id and fault count, and every
    first failure inside the program).
    Raises [Invalid_argument] as {!test_lot}, or when [every < 1]. *)

val result_of_run : Pattern_set.t -> Fab.Lot.t -> lot_run -> result
(** Package a {e completed} run for the reduction helpers below.
    Raises [Invalid_argument] when [completed] is false — partial
    outcomes would silently skew every fraction. *)

val failed_by : result -> int -> int
(** Chips failed within the first [k] patterns.  [first_fail] indices
    are 0-based, so this counts outcomes with [first_fail < k]: a chip
    with [first_fail = Some 0] fails the very first applied pattern
    and is already counted by [failed_by result 1], while
    [failed_by result 0] (no patterns applied yet) is always 0. *)

val fraction_failed_by : result -> int -> float
(** [failed_by] over the lot size (never NaN: lots are non-empty). *)

val apparent_yield : result -> float
(** Fraction of chips passing the whole program — what the line sees,
    as opposed to the true yield. *)

val test_escapes : result -> int
(** Defective chips that passed: the bad-chips-tested-good count whose
    expectation is the paper's Ybg (Eq. 6/7). *)

type row = {
  coverage : float;         (** Fault coverage at the checkpoint. *)
  patterns_applied : int;
  cumulative_failed : int;
  fraction_failed : float;
}

val rows_at_patterns : result -> Pattern_set.t -> checkpoints:int list -> row list
(** Table-1-style rows at explicit pattern counts. *)

val rows_at_coverages : result -> Pattern_set.t -> coverages:float list -> row list
(** Table-1-style rows at the first pattern reaching each coverage
    level (levels the program never reaches are skipped).  Checkpoint
    lookup binary-searches the monotone cumulative-coverage curve —
    O(log patterns) per level. *)

val rows_at_n_detect_coverages :
  result -> Pattern_set.t -> coverages:float list -> row list
(** {!rows_at_coverages} against the program's {e n-detect} coverage
    curve: each row sits at the first pattern count whose n-detect
    coverage reaches the target, and the row's [coverage] field
    reports the n-detect figure.  The same lot fails later on the
    n-detect axis than on the 1-detect axis — reaching coverage [f]
    n-times-over takes more patterns.  Raises [Invalid_argument] when
    the program carries no n-detect grading
    ({!Pattern_set.grade_n_detect}). *)
