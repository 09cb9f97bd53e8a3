(* Output checks of the benchmark workloads.

   Each check compares a workload result against a reference that is
   computed once, outside the timed region; the comparison itself is
   cheap.  That split is what lets every run also prove that each check
   bites: [corrupt_*] builds a copy of the real result with one value
   wrong, and the same comparison must then reject it. *)

(* Faults [sample] of a first-detection array must carry the first
   detecting pattern the serial oracle reports for them ([oracle.(k)]
   belongs to [sample.(k)]). *)
let same_first_detection ~sample ~oracle (first_detection : int option array) =
  Array.length sample = Array.length oracle
  && Array.for_all2 (fun i o -> first_detection.(i) = o) sample oracle

(* Move fault [i]'s first detection one pattern later (or make an
   undetected fault detected). *)
let corrupt_first_detection i (first_detection : int option array) =
  let wrong = Array.copy first_detection in
  wrong.(i) <- (match wrong.(i) with Some k -> Some (k + 1) | None -> Some 0);
  wrong

(* Every fault of the ATPG universe ends detected, proved untestable,
   aborted or unknown — never two of these, never none. *)
let atpg_accounts_for_every_fault (report : Tpg.Atpg.report) =
  let p = report.Tpg.Atpg.profile in
  Fsim.Coverage.detected_count p + report.Tpg.Atpg.untestable
  + report.Tpg.Atpg.aborted + report.Tpg.Atpg.unknown
  = p.Fsim.Coverage.universe_size

let corrupt_atpg_report (report : Tpg.Atpg.report) =
  { report with Tpg.Atpg.aborted = report.Tpg.Atpg.aborted + 1 }

(* Die [k]'s outcome must equal the first pattern that detects any of
   its faults in the graded program. *)
let outcomes_match_lookup program (lot : Fab.Lot.t)
    (outcomes : Tester.Wafer_test.outcome array) =
  Array.length outcomes = Array.length lot.Fab.Lot.chips
  && Array.for_all2
       (fun (chip : Fab.Lot.chip) (o : Tester.Wafer_test.outcome) ->
         o.Tester.Wafer_test.first_fail
         = Tester.Pattern_set.first_fail program chip.Fab.Lot.fault_indices)
       lot.Fab.Lot.chips outcomes

(* Flip the outcome of the first die: a failing die passes, a passing
   one fails the first pattern.  [None] for an empty lot, so the caller
   can report the check as vacuous. *)
let corrupt_outcomes (outcomes : Tester.Wafer_test.outcome array) =
  if outcomes = [||] then None
  else begin
    let wrong = Array.copy outcomes in
    let o = wrong.(0) in
    wrong.(0) <-
      { o with
        Tester.Wafer_test.first_fail =
          (match o.Tester.Wafer_test.first_fail with
           | Some _ -> None
           | None -> Some 0) };
    Some wrong
  end

(* [sample_indices ~seed ~n k]: [k] distinct fault indices below [n],
   sorted, drawn from their own generator so the sample is a function
   of the seed alone. *)
let sample_indices ~seed ~n k =
  let rng = Stats.Rng.create ~seed () in
  let chosen = Hashtbl.create k in
  let k = min k n in
  while Hashtbl.length chosen < k do
    Hashtbl.replace chosen (Stats.Rng.int rng n) ()
  done;
  let sample = Array.of_seq (Hashtbl.to_seq_keys chosen) in
  Array.sort compare sample;
  sample

(* The serial engine's first detections for the sampled faults. *)
let serial_oracle circuit universe patterns sample =
  Fsim.Serial.run circuit (Array.map (fun i -> universe.(i)) sample) patterns

type verdict = { name : string; passed : bool; bites : bool }

(* [verdict name ~check ~corrupted]: the check on the real result, and
   whether it rejects the corrupted copy ([None] = nothing to corrupt,
   reported as not biting). *)
let verdict name ~check ~corrupted =
  let bites = match corrupted with Some wrong -> not (wrong ()) | None -> false in
  { name; passed = check (); bites }
