type mode = Table_lookup | Exact_multifault

type outcome = { chip_id : int; fault_count : int; first_fail : int option }

type result = { outcomes : outcome array; pattern_count : int; lot_size : int }

let test_chip mode c universe program (chip : Fab.Lot.chip) =
  let fault_count = Array.length chip.Fab.Lot.fault_indices in
  let first_fail =
    if fault_count = 0 then None
    else
      match mode with
      | Table_lookup -> Pattern_set.first_fail program chip.Fab.Lot.fault_indices
      | Exact_multifault ->
        let faults = Array.map (fun i -> universe.(i)) chip.Fab.Lot.fault_indices in
        Fsim.Serial.first_fail_with_fault_set c faults program.Pattern_set.patterns
  in
  { chip_id = chip.Fab.Lot.chip_id; fault_count; first_fail }

let test_lot ?(mode = Table_lookup) c universe program (lot : Fab.Lot.t) =
  if lot.Fab.Lot.universe_size <> Array.length universe then
    invalid_arg "Wafer_test.test_lot: lot was manufactured against a different universe";
  if Array.length lot.Fab.Lot.chips = 0 then
    invalid_arg "Wafer_test.test_lot: empty lot (yield and fail fractions are undefined)";
  { outcomes = Array.map (test_chip mode c universe program) lot.Fab.Lot.chips;
    pattern_count = Pattern_set.pattern_count program;
    lot_size = Array.length lot.Fab.Lot.chips }

(* ---- checkpointed lot testing -------------------------------------- *)

type lot_run = {
  tested : outcome array;
  dies_done : int;
  resumed_from : int;
  completed : bool;
}

let lot_kind = "lot"
let segment_failpoint = "tester.lot.segment"

let mode_tag = function Table_lookup -> "table" | Exact_multifault -> "exact"

(* The lot itself is re-derived from its seed by the caller, so the
   meta header fingerprints it with sizes plus the total injected
   fault-instance count — cheap, and any seed/scale drift changes it. *)
let lot_meta_fields ~mode c universe program (lot : Fab.Lot.t) =
  let lot_faults =
    Array.fold_left
      (fun acc ch -> acc + Array.length ch.Fab.Lot.fault_indices)
      0 lot.Fab.Lot.chips
  in
  [ ("circuit", Report.Json.String c.Circuit.Netlist.name);
    ("universe", Report.Json.Int (Array.length universe));
    ("patterns", Report.Json.Int (Pattern_set.pattern_count program));
    ("lot_size", Report.Json.Int (Array.length lot.Fab.Lot.chips));
    ("lot_faults", Report.Json.Int lot_faults);
    ("mode", Report.Json.String (mode_tag mode)) ]

let outcome_to_json o =
  Report.Json.List
    [ Report.Json.Int o.chip_id;
      Report.Json.Int o.fault_count;
      Report.Json.Int (match o.first_fail with Some i -> i | None -> -1) ]

let outcome_of_json = function
  | Report.Json.List
      [ Report.Json.Int chip_id;
        Report.Json.Int fault_count;
        Report.Json.Int ff ] when ff >= -1 ->
    Ok { chip_id; fault_count; first_fail = (if ff >= 0 then Some ff else None) }
  | _ -> Error "checkpoint outcomes must be [chip_id; faults; first_fail] ints"

let lot_payload ~dies_done tested_rev =
  [ Report.Json.Obj
      [ ("dies_done", Report.Json.Int dies_done);
        ("outcomes", Report.Json.List (List.rev_map outcome_to_json tested_rev))
      ] ]

(* Returns (dies_done, outcomes newest-first).  A checkpoint only counts
   if it describes a prefix of this lot under this program: at most the
   lot's dies, outcome [i] belongs to die [i] (same chip id and fault
   count), and every first failure is a pattern the program has.
   Anything else would report escapes and failures that never
   happened. *)
let lot_restore ~pattern_count (lot : Fab.Lot.t) payload =
  let n = Array.length lot.Fab.Lot.chips in
  let check i o =
    let chip = lot.Fab.Lot.chips.(i) in
    if o.chip_id <> chip.Fab.Lot.chip_id then
      Error
        (Printf.sprintf "checkpoint outcome %d has chip_id %d, expected %d" i
           o.chip_id chip.Fab.Lot.chip_id)
    else if o.fault_count <> Array.length chip.Fab.Lot.fault_indices then
      Error
        (Printf.sprintf "checkpoint outcome %d has %d faults, the die has %d" i
           o.fault_count (Array.length chip.Fab.Lot.fault_indices))
    else
      match o.first_fail with
      | Some ff when ff >= pattern_count ->
        Error
          (Printf.sprintf
             "checkpoint outcome %d fails at pattern %d of a %d-pattern program"
             i ff pattern_count)
      | _ -> Ok o
  in
  match payload with
  | [ Report.Json.Obj kvs ] ->
    (match
       (List.assoc_opt "dies_done" kvs, List.assoc_opt "outcomes" kvs)
     with
    | Some (Report.Json.Int dies_done), Some (Report.Json.List _)
      when dies_done < 0 || dies_done > n ->
      Error
        (Printf.sprintf "checkpoint dies_done %d is outside [0, %d]" dies_done n)
    | Some (Report.Json.Int dies_done), Some (Report.Json.List outs)
      when List.length outs = dies_done ->
      List.fold_left
        (fun acc o ->
          match acc with
          | Error _ as e -> e
          | Ok (i, rev) ->
            (match Result.bind (outcome_of_json o) (check i) with
            | Ok o -> Ok (i + 1, o :: rev)
            | Error _ as e -> e))
        (Ok (0, [])) outs
      |> Result.map (fun (_, rev) -> (dies_done, rev))
    | Some (Report.Json.Int _), Some (Report.Json.List _) ->
      Error "checkpoint outcome count does not match dies_done"
    | _ -> Error "checkpoint payload is missing dies_done/outcomes")
  | _ -> Error "checkpoint payload must be exactly one state line"

let test_lot_restart ?(mode = Table_lookup) ?(cancel = Robust.Cancel.none)
    ?(every = 64) ?(resume = false) ~checkpoint c universe program
    (lot : Fab.Lot.t) =
  if every < 1 then invalid_arg "Wafer_test.test_lot_restart: every must be >= 1";
  if lot.Fab.Lot.universe_size <> Array.length universe then
    invalid_arg
      "Wafer_test.test_lot_restart: lot was manufactured against a different \
       universe";
  if Array.length lot.Fab.Lot.chips = 0 then
    invalid_arg "Wafer_test.test_lot_restart: empty lot";
  let n = Array.length lot.Fab.Lot.chips in
  let fields = lot_meta_fields ~mode c universe program lot in
  let start =
    if not resume then Ok (0, [])
    else
      match Robust.Checkpoint.load ~path:checkpoint with
      | Error msg -> Error (Printf.sprintf "cannot resume: %s" msg)
      | Ok (file_meta, payload) ->
        (match
           Robust.Checkpoint.validate ~kind:lot_kind ~expect:fields file_meta
         with
        | Error _ as e -> e
        | Ok () ->
          lot_restore ~pattern_count:(Pattern_set.pattern_count program) lot
            payload)
  in
  match start with
  | Error _ as e -> e
  | Ok (resumed_from, tested_rev0) ->
    Obs.Trace.with_span "tester.lot.restart" @@ fun () ->
    Obs.Trace.add_int "resumed_from" resumed_from;
    let tested_rev = ref tested_rev0 in
    let pos = ref resumed_from in
    let save () =
      Robust.Checkpoint.save ~path:checkpoint
        ~meta:(Robust.Checkpoint.meta ~kind:lot_kind ~fields)
        ~payload:(lot_payload ~dies_done:!pos !tested_rev)
    in
    if resumed_from = 0 then save ();
    let since = ref 0 in
    while !pos < n && not (Robust.Cancel.stop_requested cancel) do
      tested_rev :=
        test_chip mode c universe program lot.Fab.Lot.chips.(!pos) :: !tested_rev;
      incr pos;
      incr since;
      if !since >= every then begin
        since := 0;
        save ();
        (* The crash drill kills here: the first [pos] dies are durable. *)
        Robust.Inject.hit segment_failpoint
      end
    done;
    if !since > 0 then save ();
    Obs.Trace.add_int "dies_done" !pos;
    if Obs.Metrics.enabled () then
      Obs.Metrics.incr
        ~by:(float_of_int (!pos - resumed_from))
        "tester.lot.dies";
    Ok
      { tested = Array.of_list (List.rev !tested_rev);
        dies_done = !pos;
        resumed_from;
        completed = !pos >= n }

let result_of_run program (lot : Fab.Lot.t) run =
  if not run.completed then
    invalid_arg "Wafer_test.result_of_run: lot run is incomplete";
  { outcomes = run.tested;
    pattern_count = Pattern_set.pattern_count program;
    lot_size = Array.length lot.Fab.Lot.chips }

let failed_by result k =
  Array.fold_left
    (fun acc o ->
      match o.first_fail with Some i when i < k -> acc + 1 | Some _ | None -> acc)
    0 result.outcomes

let fraction_failed_by result k =
  float_of_int (failed_by result k) /. float_of_int result.lot_size

let apparent_yield result =
  let passed =
    Array.fold_left
      (fun acc o -> if o.first_fail = None then acc + 1 else acc)
      0 result.outcomes
  in
  float_of_int passed /. float_of_int result.lot_size

let test_escapes result =
  Array.fold_left
    (fun acc o ->
      if o.first_fail = None && o.fault_count > 0 then acc + 1 else acc)
    0 result.outcomes

type row = {
  coverage : float;
  patterns_applied : int;
  cumulative_failed : int;
  fraction_failed : float;
}

let row_at result program k =
  { coverage = Pattern_set.coverage_after program k;
    patterns_applied = k;
    cumulative_failed = failed_by result k;
    fraction_failed = fraction_failed_by result k }

let rows_at_patterns result program ~checkpoints =
  List.map (row_at result program) checkpoints

(* First k in [1, total] with coverage_at k >= target, None when even
   the full program falls short.  coverage_at must be monotone
   non-decreasing in k (cumulative coverage is), which makes the
   predicate [coverage_at k >= target] monotone and binary-searchable:
   O(log total) instead of the former linear scan. *)
let first_reaching ~total coverage_at target =
  if total < 1 || coverage_at total < target then None
  else begin
    (* Invariant: coverage_at !hi >= target; !lo is below target
       (lo = 0 stands for the empty prefix, coverage 0 <= any target
       reachable here). *)
    let lo = ref 0 and hi = ref total in
    while !hi - !lo > 1 do
      let mid = !lo + ((!hi - !lo) / 2) in
      if coverage_at mid >= target then hi := mid else lo := mid
    done;
    Some !hi
  end

let rows_at_coverages result program ~coverages =
  let total = result.pattern_count in
  List.filter_map
    (fun target ->
      Option.map (row_at result program)
        (first_reaching ~total
           (fun k -> Pattern_set.coverage_after program k)
           target))
    coverages

let rows_at_n_detect_coverages result program ~coverages =
  match Pattern_set.n_detect program with
  | None ->
    invalid_arg
      "Wafer_test.rows_at_n_detect_coverages: pattern set carries no \
       n-detect grading (run Pattern_set.grade_n_detect first)"
  | Some cs ->
    let coverage_at k = Fsim.Coverage.n_detect_coverage_after cs k in
    let total = result.pattern_count in
    List.filter_map
      (fun target ->
        Option.map
          (fun k -> { (row_at result program k) with coverage = coverage_at k })
          (first_reaching ~total coverage_at target))
      coverages
