(** Checkpointable fault simulation with crash-safe resume.

    Runs any {!Coverage.engine} over the pattern set in segments of
    [every] patterns (rounded up to whole 64-pattern blocks), writing a
    {!Robust.Checkpoint} of the per-fault first-detection state after
    each segment.  A run killed at any instant — including mid-write —
    resumes from the last complete segment and produces a result
    bit-identical to an uninterrupted run: per-fault results do not
    depend on the other faults in the array, and block-aligned segment
    boundaries preserve the 64-bit pattern packing.

    Cancellation ([deadline], SIGINT) is honoured between segments
    only, so the on-disk checkpoint always describes a whole-segment
    prefix.  The ["fsim.restart.segment"] failpoint fires after each
    checkpoint write — the crash-recovery smoke kills there. *)

type outcome = {
  profile : Coverage.profile;
      (** [pattern_count] is [patterns_done]: the full request when
          [completed], else the prefix graded before cancellation. *)
  patterns_done : int;
  resumed_from : int;  (** 0 on a fresh run *)
  completed : bool;
}

val run :
  ?engine:Coverage.engine ->
  ?cancel:Robust.Cancel.t ->
  ?every:int ->
  ?resume:bool ->
  checkpoint:string ->
  seed:int ->
  Circuit.Netlist.t ->
  Faults.Fault.t array ->
  bool array array ->
  (outcome, string) result
(** [Error] carries an unreadable/mismatched-checkpoint message (the
    meta header records circuit, engine family, seed and sizes; all
    must match the resuming invocation — except the {!Coverage.Par}
    domain count, which never affects results).  The payload must also
    describe a prefix of this run: [patterns_done] within the pattern
    set and every recorded detection below it.  Raises
    [Invalid_argument] when [every < 1]. *)
