(** Multicore PPSFP fault simulation.

    Shards the fault universe across OCaml 5 domains; every domain runs
    the {!Ppsfp.grade_range} block loop over its shard with a private
    state, against good-machine blocks evaluated once and shared
    read-only.  Sharding is deterministic (contiguous fault ranges) and
    per-fault results do not depend on the other faults in a shard, so
    the merged output is {e bit-identical} to {!Ppsfp.grade} for every
    domain count. *)

val grade :
  ?cancel:Robust.Cancel.t ->
  ?domains:int ->
  ?n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  Ppsfp.grading
(** Same contract as {!Ppsfp.grade}, reported as engine ["par"] /
    ["ndetect.par"].  [domains] defaults to
    [Domain.recommended_domain_count ()] and is clamped to the fault
    count; it must be >= 1.  [grade ~domains:1] runs in the calling
    domain without spawning.

    [cancel] is polled per block in every shard, so shards of a
    cancelled run may stop at different blocks.  [graded] is then the
    shortest shard prefix, and detections at or past it are dropped
    (their count is set to [n - 1]); counts of faults still undetected
    may include hits past the prefix.

    Shards run supervised: a shard whose domain dies (including at the
    ["fsim.par.shard"] failpoint) has its result range wiped and is
    retried on a fresh domain, then recomputed serially in the calling
    domain as a deterministic fallback — the merged result stays
    bit-identical.  Retries and fallbacks are counted in the
    ["fsim.par.shard_retries"] / ["fsim.par.shard_fallbacks"] metrics.
    Raises [Invalid_argument] when [n < 1] or [domains < 1]. *)

val run :
  ?cancel:Robust.Cancel.t ->
  ?domains:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array -> int option array
(** [nth] of {!grade} without [n]: per fault, the first detecting
    pattern index, as {!Ppsfp.run}. *)

val run_counts :
  ?cancel:Robust.Cancel.t ->
  ?domains:int ->
  n:int ->
  Circuit.Netlist.t -> Faults.Fault.t array -> bool array array ->
  int array * int option array
(** [(detections, nth)] of {!grade} with [n], as {!Ppsfp.run_counts}. *)
