(* Multicore PPSFP: shard the fault universe across domains, each
   running Ppsfp.grade_range over its shard.  The good-machine blocks
   are evaluated once up front and shared read-only.

   Per-fault results are independent of every other fault (dropping
   only skips already-detected faults), so any deterministic sharding
   merges to exactly the serial answer.  We use contiguous shards for
   cache locality; each worker writes its own disjoint slices of the
   shared result arrays, and Domain.join publishes the writes.

   Shard supervision: each shard runs under per-domain exception
   capture (a domain that dies would otherwise take the whole run down
   at [Domain.join]).  A failed shard's result range is wiped and the
   shard re-run on a fresh domain up to [max_shard_retries] times; if
   every retry fails it is recomputed serially in the calling domain as
   a deterministic last resort.  Because per-fault results are
   independent and each shard owns a disjoint range,
   recompute-after-reset merges bit-identically with the untouched
   shards.  The ["fsim.par.shard"] failpoint sits in front of every
   supervised attempt (never the serial fallback), so recovery is
   testable end to end. *)
let shard_failpoint = "fsim.par.shard"

let max_shard_retries = 1

let grade ?(cancel = Robust.Cancel.none) ?domains ?n c faults patterns =
  let nf = Array.length faults in
  let np = Array.length patterns in
  let requested =
    match domains with Some d -> d | None -> Domain.recommended_domain_count ()
  in
  if requested < 1 then invalid_arg "Par: need at least one domain";
  let domains = max 1 (min requested nf) in
  Instrument.grading_run ~name:"par" ?n ~faults:nf ~patterns:np
  @@ fun ~engine ~n ->
  Obs.Trace.add_int "domains" domains;
  let detections = Array.make nf 0 in
  let nth = Array.make nf None in
  let graded =
    if nf = 0 then np
    else begin
      let blocks =
        Obs.Trace.with_span ("fsim." ^ engine ^ ".prepare") (fun () ->
            Ppsfp.blocks ~presimulate:true c patterns)
      in
      (* One shared task; every shard walks every block, so the atomic
         counter ends at patterns x domains whatever the interleaving. *)
      let progress = Instrument.progress_start ~engine ~patterns:(np * domains) in
      let bounds d = d * nf / domains in
      let observing = Instrument.observing () in
      (* Per-shard graded prefix, wall time and detection counts; each
         worker writes only its own slot, Domain.join publishes the
         writes (same discipline as the result arrays). *)
      let shard_graded = Array.make domains np in
      let shard_wall = Array.make domains 0.0 in
      let shard_detected = Array.make domains 0 in
      let reset lo hi =
        Array.fill detections lo (hi - lo) 0;
        Array.fill nth lo (hi - lo) None
      in
      let graded_shard i lo hi () =
        Obs.Trace.with_span (Printf.sprintf "fsim.%s.shard[%d]" engine i)
          (fun () ->
            let t0 = if observing then Obs.Trace.now_s () else 0.0 in
            shard_graded.(i) <-
              Ppsfp.grade_range ~engine ~n ~cancel ~progress c faults blocks
                ~detections ~nth lo hi;
            if observing then begin
              let detected = ref 0 in
              for fi = lo to hi - 1 do
                if nth.(fi) <> None then incr detected
              done;
              shard_wall.(i) <- Obs.Trace.now_s () -. t0;
              shard_detected.(i) <- !detected;
              Obs.Trace.add_int "faults" (hi - lo);
              Obs.Trace.add_int "detected" !detected
            end)
      in
      let attempt_shard i lo hi () =
        Robust.Inject.hit shard_failpoint;
        graded_shard i lo hi ()
      in
      let failures = Array.make domains None in
      let captured i lo hi () =
        try attempt_shard i lo hi ()
        with e -> failures.(i) <- Some e
      in
      let workers =
        Array.init (domains - 1) (fun i ->
            let lo = bounds (i + 1) and hi = bounds (i + 2) in
            Domain.spawn (captured (i + 1) lo hi))
      in
      captured 0 0 (bounds 1) ();
      Array.iter Domain.join workers;
      let prefix = "fsim." ^ engine in
      Array.iteri
        (fun i failure ->
          match failure with
          | None -> ()
          | Some _ ->
            let lo = bounds i and hi = bounds (i + 1) in
            let rec retry attempt =
              if attempt > max_shard_retries then begin
                (* Serial last resort in the calling domain, without the
                   failpoint: deterministic by construction. *)
                reset lo hi;
                Obs.Metrics.incr (prefix ^ ".shard_fallbacks");
                graded_shard i lo hi ()
              end
              else begin
                reset lo hi;
                Obs.Metrics.incr (prefix ^ ".shard_retries");
                match Domain.join (Domain.spawn (attempt_shard i lo hi)) with
                | () -> ()
                | exception _ -> retry (attempt + 1)
              end
            in
            retry 1)
        failures;
      Obs.Progress.finish progress;
      if Obs.Metrics.enabled () then begin
        Array.iteri
          (fun i wall ->
            Obs.Metrics.observe (prefix ^ ".shard_wall_s") wall;
            Obs.Metrics.observe (prefix ^ ".shard_detected")
              (float_of_int shard_detected.(i)))
          shard_wall;
        let total = Array.fold_left ( +. ) 0.0 shard_wall in
        let mean = total /. float_of_int domains in
        let slowest = Array.fold_left max 0.0 shard_wall in
        if mean > 0.0 then
          Obs.Metrics.set (prefix ^ ".shard_imbalance") (slowest /. mean)
      end;
      Array.fold_left min np shard_graded
    end
  in
  (* A cancelled run may stop its shards at different blocks: keep only
     the prefix every shard graded, so no recorded index lies past it. *)
  if graded < np then
    Array.iteri
      (fun fi d ->
        match d with
        | Some k when k >= graded ->
          nth.(fi) <- None;
          detections.(fi) <- n - 1
        | Some _ | None -> ())
      nth;
  { Ppsfp.detections; nth; graded }

let run ?cancel ?domains c faults patterns =
  (grade ?cancel ?domains c faults patterns).Ppsfp.nth

let run_counts ?cancel ?domains ~n c faults patterns =
  let g = grade ?cancel ?domains ~n c faults patterns in
  (g.Ppsfp.detections, g.Ppsfp.nth)
