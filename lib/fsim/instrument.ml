let observing () = Obs.Trace.enabled () || Obs.Metrics.enabled ()

let engine_run ~engine ~faults ~patterns f =
  Obs.Trace.with_span ("fsim." ^ engine) (fun () ->
      Obs.Trace.add_int "faults" faults;
      Obs.Trace.add_int "patterns" patterns;
      let metrics = Obs.Metrics.enabled () in
      let t0 = if metrics then Obs.Trace.now_s () else 0.0 in
      let result = f () in
      if metrics then begin
        let wall = Obs.Trace.now_s () -. t0 in
        let prefix = "fsim." ^ engine in
        Obs.Metrics.incr (prefix ^ ".runs");
        Obs.Metrics.incr ~by:(float_of_int patterns) (prefix ^ ".patterns");
        if wall > 0.0 then
          Obs.Metrics.set (prefix ^ ".patterns_per_sec")
            (float_of_int patterns /. wall)
      end;
      result)

let progress_start ~engine ~patterns =
  Obs.Progress.start ~label:("fsim." ^ engine) ~total:patterns ()

let count_fault_evals ~engine n =
  if n > 0 then begin
    Obs.Trace.add_int "fault_evals" n;
    if Obs.Metrics.enabled () then
      Obs.Metrics.incr ~by:(float_of_int n) ("fsim." ^ engine ^ ".fault_evals")
  end

let count_root_propagations ~engine n =
  if n > 0 then begin
    Obs.Trace.add_int "root_propagations" n;
    if Obs.Metrics.enabled () then
      Obs.Metrics.incr ~by:(float_of_int n)
        ("fsim." ^ engine ^ ".root_propagations")
  end

let grading_run ~name ?n ~faults ~patterns f =
  match n with
  | None -> engine_run ~engine:name ~faults ~patterns (fun () -> f ~engine:name ~n:1)
  | Some n ->
    if n < 1 then invalid_arg (Printf.sprintf "%s: n must be >= 1" name);
    let engine = "ndetect." ^ name in
    engine_run ~engine ~faults ~patterns (fun () ->
        Obs.Trace.add_int "n" n;
        f ~engine ~n)
