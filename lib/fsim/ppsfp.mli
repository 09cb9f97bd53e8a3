(** Parallel-pattern single-fault propagation (PPSFP) fault simulation
    over fanout-free regions.

    A node is a fanout-free-region (FFR) root when its fanout, counted
    in pins (a gate fed twice by one node counts twice), is not exactly
    1, or when it is a primary output.  Every other node feeds exactly
    one pin, so the nodes that reach a root only through single-fanout
    nodes form its region, a tree.  For each 64-pattern block the good
    machine is simulated once, then:

    + each live fault's effect is walked along its single path to its
      root with every side input at its good value, giving a local
      difference mask [D];
    + each root that some live fault reaches with [D <> 0] is flipped
      once, on the union of those masks, and the flip is carried level
      by level through the root's fanout cone, giving the root's
      observability mask [O];
    + a fault is detected on [D land O].

    This is exact in two-valued simulation (Antreich & Schulz, IEEE
    TCAD 1987; Maamari & Rajski, IEEE TCAD 1990): every path from a
    fault inside an FFR to an output passes through the root, and no
    node inside an FFR is an output, so the faulty circuit differs from
    the good one inside the region only along the walked path, and
    beyond it only as a function of the root's value.  A fault whose
    effect dies on the way is abandoned early, and dropped faults skip
    later blocks.  The kernel allocates nothing per fault evaluation
    (only a recorded detection reaches the heap): faulty
    values, root masks and local masks live in [Bigarray] int64 stores
    (8 B per node each for the first two, 8 B per fault of the range
    for the third), and scheduled nodes in one int array of per-level
    stacks.

    One block loop ({!grade_range}) serves first detection,
    n-detection and every {!Par} shard; results are byte-identical to
    {!Serial} (differential-tested). *)

type grading = {
  detections : int array;
      (** Per fault, detecting patterns seen, saturated at [n]. *)
  nth : int option array;
      (** Per fault, index of the [n]-th detecting pattern ([None] when
          fewer than [n] graded patterns detect it). *)
  graded : int;
      (** Patterns graded: the full count, or on a cancelled run the
          prefix graded before the token fired.  Every recorded index
          lies below it. *)
}
(** Result of one grading job with the drop-after-n policy: a fault
    leaves the simulation once [n] patterns have detected it.  With
    [n = 1], [nth] is the first-detection array. *)

val grade :
  ?cancel:Robust.Cancel.t ->
  ?n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> grading
(** Grade every fault.  Without [n], first detection (reported as
    engine ["ppsfp"]); with [n], n-detection (["ndetect.ppsfp"]).
    [cancel] is polled per 64-pattern block and every 256 root
    propagations; a block it cuts is not graded, nor is any later one.
    Raises [Invalid_argument] when [n < 1]. *)

val run :
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> int option array
(** [nth] of {!grade} without [n]: same contract as {!Serial.run}, per
    fault the first detecting pattern index, with fault dropping. *)

val run_counts :
  ?cancel:Robust.Cancel.t ->
  n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  int array * int option array
(** [(detections, nth)] of {!grade} with [n].  With [n = 1] the result
    is bit-identical to {!run}: [nth] equals the first-detection array
    and [detections] is its indicator.  Raises [Invalid_argument] when
    [n < 1]. *)

(** {2 The block kernel}

    Exposed so that {!Par} runs the identical loop from several
    domains, each over its own fault range, against good-machine blocks
    simulated once and shared read-only. *)

type block = {
  block_start : int;            (** Pattern index of bit 0. *)
  patterns : int;               (** Live patterns in the block. *)
  live : int64;                 (** Mask of the live patterns. *)
  good : unit -> int64 array;   (** Good-machine node values. *)
}

val blocks :
  ?presimulate:bool -> Circuit.Netlist.t -> bool array array -> block list
(** The pattern set as 64-pattern blocks, in order.  By default [good]
    simulates the block on every call and keeps nothing alive; with
    [~presimulate:true] every block is simulated up front and [good]
    returns the stored values, which makes the list safe to share
    between domains. *)

val grade_range :
  engine:string ->
  n:int ->
  cancel:Robust.Cancel.t ->
  progress:Obs.Progress.t ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  block list ->
  detections:int array ->
  nth:int option array ->
  int -> int -> int
(** [grade_range ... blocks ~detections ~nth lo hi] grades faults
    [lo, hi) with the drop-after-n policy, writing only their slots of
    [detections]/[nth], and returns the number of patterns graded (a
    block prefix; short of the total only when [cancel] fired).  Fault
    evaluations and root propagations count under [engine], and each
    block graded with live faults records the spans
    ["fsim.<engine>.goodsim"], [".local"] and [".roots"] (the three
    steps above, detection aside); [progress] steps once per graded
    block.  A block's [good] is called only while faults of the range
    are alive.  Raises [Invalid_argument] when a fault of the range
    names no node of the circuit, or a pin its gate does not have. *)

val lowest_set_bit : int64 -> int
(** Index of the lowest set bit (constant time; raises
    [Invalid_argument] on zero).  Bit [i] is pattern [i] of a block. *)

val popcount : int64 -> int
(** Number of set bits (branch-free SWAR). *)

val nth_set_bit : int64 -> int -> int
(** [nth_set_bit w k] is the index of the [k]-th (1-based) set bit of
    [w]; [nth_set_bit w 1 = lowest_set_bit w].  Raises
    [Invalid_argument] when [w] has fewer than [k] set bits or
    [k < 1]. *)

val record_detections :
  n:int ->
  block_start:int ->
  detections:int array ->
  nth:int option array ->
  int64 -> int -> bool
(** Drop-after-n bookkeeping shared by the block loops: fold the
    detection [mask] of fault [fi] on the block starting at pattern
    [block_start] into [detections.(fi)] (saturating at [n]), record
    the n-th detecting pattern index in [nth.(fi)] when the count
    reaches [n], and return whether the fault stays alive (i.e. still
    needs detections). *)
