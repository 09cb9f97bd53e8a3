(** Serial fault simulation.

    The straightforward algorithm: for every fault, re-simulate the
    whole circuit with the fault injected and compare primary outputs
    against the good machine.  Patterns are still processed 64 at a
    time through {!Logicsim.Packed}, so "serial" refers to faults, not
    patterns.  Used as the oracle for {!Ppsfp} and for small circuits. *)

val eval_with_fault :
  Circuit.Netlist.t -> Faults.Fault.t -> Logicsim.Packed.block -> int64 array
(** Full faulty-machine simulation of one block; result indexed by node. *)

val detect_word :
  Circuit.Netlist.t ->
  good_outputs:int64 array ->
  Faults.Fault.t ->
  Logicsim.Packed.block ->
  int64
(** Bit mask (within the block's live mask) of patterns on which at
    least one primary output of the faulty machine differs from
    [good_outputs]. *)

val grade :
  ?cancel:Robust.Cancel.t ->
  ?n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  Ppsfp.grading
(** The oracle's one block loop: same contract as {!Ppsfp.grade}
    (drop-after-n, first detection without [n]), with every fault
    re-simulated through the whole circuit by {!detect_word}.  Reports
    as engine ["serial"] / ["ndetect.serial"].  Raises
    [Invalid_argument] when [n < 1]. *)

val run :
  ?cancel:Robust.Cancel.t ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> int option array
(** [run c faults patterns] returns, for each fault, the index of the
    first pattern that detects it ([None] = undetected): the [nth] of
    {!grade} without [n].  Detected faults are dropped from later
    blocks.  [cancel] is polled at every 64-pattern block boundary;
    after it fires the remaining blocks are skipped, leaving a
    well-defined partial result (every recorded detection is real;
    undetected may mean unsimulated). *)

val run_counts :
  ?cancel:Robust.Cancel.t ->
  n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  int array * int option array
(** [(detections, nth)] of {!grade} with [n]; same contract as
    {!Ppsfp.run_counts}.  With [n = 1] the result is bit-identical to
    {!run}.  Raises [Invalid_argument] when [n < 1]. *)

val eval_with_fault_set :
  Circuit.Netlist.t -> Faults.Fault.t array -> Logicsim.Packed.block -> int64 array
(** Multiple-fault machine: all faults of the set injected at once.
    Used by the virtual tester to model a defective chip {e exactly},
    including masking between coexisting faults.  If the set contains
    both polarities on one line, stuck-at-1 wins (deterministic,
    documented arbitrariness — physical defects do not do this). *)

val first_fail_with_fault_set :
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> int option
(** First pattern on which the multiple-fault machine differs from the
    good machine at any primary output. *)
