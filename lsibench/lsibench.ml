(* One benchmark run per process.

   Usage: lsibench.exe run|traced WORKLOAD SEED SECONDS

   [run] sets the workload up, runs it once and checks its outputs, then
   runs it again, round after round, while the next round would end
   within SECONDS (at least two rounds when SECONDS > 0, one when it is
   0).  Every round must give the first round's result.  A run is a
   fixed sequence of steps (the calls into the library layers), each
   timed on its own; run_s is the sum over the steps of each step's
   fastest round.  The host this runs on is shared: the same
   memory-bound step slows by a third or more for seconds to minutes at
   a time while an ALU-bound loop stays within 5%, so the fastest of the
   samples spread over a run is what repeats best from run to run.
   [setups] set-ups per process give the median set-up time.  [traced] sets up once and makes one round with the span
   tracer and the metrics registry on, and reports per-layer figures as
   well.  Either way the process prints one JSON object as its last
   stdout line; lsibench/run.py starts the processes and reports from
   them.  The heap high-water mark is read after the first round,
   before the other set-ups and rounds, so it is that of one run.

   Every input is a function of SEED, except the circuit, which each
   workload fixes (the lsi_chip of its scale at generator seed 1981, the
   reproduction's default design, or the 5,000-gate random circuit
   rand:64,5000,32,1), and paper-pipeline's ATPG, which is seeded as
   Pipeline.execute seeds it for seed 1981.  SEED drives the random
   patterns, the functional walk and the lots.  A different chip moves
   the PODEM abort count, and with it run time, several-fold, and a
   different ATPG seed still by a tenth or more, which would leave no
   room for a bound on run_s. *)

let now = Obs.Clock.now_s

(* Wall time of the calls into each library layer, by span name.  Each
   call runs inside a trace span of the same name. *)
let spent : (string, float) Hashtbl.t = Hashtbl.create 16

let add_spent name dt =
  Hashtbl.replace spent name
    (dt +. Option.value ~default:0.0 (Hashtbl.find_opt spent name))

(* While a round runs, its layer calls, latest first: name, time and
   whether the call is outermost, i.e. one of the round's steps.  They
   reach [spent] only after the round, so that every round allocates
   the same. *)
let in_round = ref false
let calls : (string * float * bool) list ref = ref []
let depth = ref 0

let layer name f =
  let t0 = now () in
  incr depth;
  let result =
    Fun.protect ~finally:(fun () -> decr depth) (fun () ->
        Obs.Trace.with_span name f)
  in
  let dt = now () -. t0 in
  if !in_round then calls := (name, dt, !depth = 0) :: !calls
  else add_spent name dt;
  result

let timed f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

type gc_delta = { minor : float; promoted : float; major_collections : int }

let with_gc f =
  let s0 = Gc.quick_stat () in
  let result = f () in
  let s1 = Gc.quick_stat () in
  ( result,
    { minor = s1.Gc.minor_words -. s0.Gc.minor_words;
      promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections } )

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let metric name = Option.value ~default:0.0 (Obs.Metrics.value name)

(* The library's fault-evaluation counters, summed over the engines the
   workloads use; they count only while the metrics registry is on. *)
let fault_evals () =
  List.fold_left
    (fun acc engine -> acc +. metric ("fsim." ^ engine ^ ".fault_evals"))
    0.0 [ "par"; "ppsfp" ]

(* [graded name f]: [f] inside layer [name], with its GC and
   fault-evaluation deltas. *)
let graded name f =
  let evals0 = fault_evals () in
  let result, gc = layer name (fun () -> with_gc f) in
  (result, gc, fault_evals () -. evals0)

(* ---- set-up ---------------------------------------------------------- *)

type inputs = { circuit : Circuit.Netlist.t; universe : Faults.Fault.t array }

let setup build () =
  let circuit = layer "circuit.build" build in
  let universe =
    layer "fault.collapse" (fun () ->
        Faults.Collapse.representatives
          (Faults.Collapse.equivalence circuit (Faults.Universe.all circuit)))
  in
  { circuit; universe }

let chip_seed = Experiments.Pipeline.default_config.Experiments.Pipeline.seed

let lsi_chip scale () = Circuit.Generators.lsi_chip ~seed:chip_seed ~scale ()

(* ---- the fab line and the section-5 estimate -------------------------- *)

(* The physical defect process of [config], as Pipeline.execute builds
   it. *)
let defect_of (config : Experiments.Pipeline.config) ~universe_size =
  let open Experiments.Pipeline in
  let defect_density =
    Fab.Yield_model.solve_defect_density ~target_yield:config.target_yield
      ~area:1.0 ~variance_ratio:config.variance_ratio
  in
  let yield_model =
    Fab.Yield_model.create ~defect_density ~area:1.0
      ~variance_ratio:config.variance_ratio
  in
  let lambda = Fab.Yield_model.lambda yield_model in
  Fab.Defect.create ~yield_model
    ~fault_multiplicity:(calibrated_multiplicity config ~lambda)
    ~universe_size ()

let ideal_lot (config : Experiments.Pipeline.config) ~universe_size rng =
  let open Experiments.Pipeline in
  Fab.Lot.manufacture_ideal ~yield_:config.target_yield ~n0:config.target_n0
    ~universe_size rng ~count:config.lot_size

(* The Table-1 checkpoints of a program: (coverage, pattern prefix) at
   the first prefix reaching each of the paper's coverage levels, one
   per distinct prefix, as Experiments.Table1 lists them.  Any tested
   lot will do as [outcome]; the prefixes depend on the program only. *)
let table1_checkpoints outcome program =
  let coverages =
    List.map
      (fun row -> row.Experiments.Paper_data.coverage_percent /. 100.0)
      Experiments.Paper_data.table1
  in
  let seen = Hashtbl.create 8 in
  Tester.Wafer_test.rows_at_coverages outcome program ~coverages
  |> List.filter_map (fun row ->
         let k = row.Tester.Wafer_test.patterns_applied in
         if Hashtbl.mem seen k then None
         else begin
           Hashtbl.add seen k ();
           Some (row.Tester.Wafer_test.coverage, k)
         end)

(* The section-5 estimate: a fit of the Eq. 9 family to a tested lot,
   read at [checkpoints]. *)
let fit_at checkpoints lot outcome =
  fst
    (Quality.Estimate.fit_n0 ~yield_:(Fab.Lot.empirical_yield lot)
       (List.map
          (fun (coverage, k) ->
            { Quality.Estimate.coverage;
              fraction_failed = Tester.Wafer_test.fraction_failed_by outcome k })
          checkpoints))

(* Mean |fitted n0 - the lot's true n0| over [accuracy_lots] ideal-line
   lots of the paper's size, tested by table lookup against [program]
   and fitted at its Table-1 checkpoints.  The n0 accuracy of the
   workloads whose own lot does not measure it: fsim-5k has no lot, and
   the one ideal 277-chip lot of paper-pipeline is one draw of these,
   whose error is mostly its own sampling noise. *)
let accuracy_lots = 400

let mean_n0_error ~seed inputs program =
  let config = Experiments.Pipeline.default_config in
  let tested k =
    let rng = Stats.Rng.create ~seed:((seed * 7919) + k) () in
    let lot = ideal_lot config ~universe_size:(Array.length inputs.universe) rng in
    (lot, Tester.Wafer_test.test_lot inputs.circuit inputs.universe program lot)
  in
  let lots = List.init accuracy_lots tested in
  let checkpoints = table1_checkpoints (snd (List.hd lots)) program in
  let error (lot, outcome) =
    Float.abs
      (fit_at checkpoints lot outcome -. Fab.Lot.mean_faults_on_defective lot)
  in
  List.fold_left (fun acc lot -> acc +. error lot) 0.0 lots
  /. float_of_int accuracy_lots

let faults_injected (lot : Fab.Lot.t) =
  Array.fold_left
    (fun acc chip -> acc + Array.length chip.Fab.Lot.fault_indices)
    0 lot.Fab.Lot.chips

(* ---- measured rounds ---------------------------------------------------- *)

type ('p, 'r) measured = {
  inputs : inputs;
  prepared : 'p;
  result : 'r;  (* of the first round *)
  gc : gc_delta;  (* of the first round *)
  first_round_s : float;
  run_s : float;  (* the sum over the steps of each step's fastest round *)
  rounds : int;
  unrepeated : int;
      (* Rounds whose result, step count or minor-heap allocation
         differs from the first round's. *)
  peak_heap_mb : float;
  setups_s : float list;
  spent_in : string -> float;
      (* Layer times of the first set-up and the first round, frozen
         right after it so that later rounds and the checks do not add
         to them. *)
}

(* No round starts that would end later than this after the process
   started, so that the checks still finish within run.py's limit. *)
let round_budget_s = 140.0

(* Set up, make the run's other inputs with [prepare] (untimed) and run
   [f] in rounds: the first one, whose heap high-water mark is read
   right after it, then [setups - 1] more set-ups for their median
   time, then more rounds while the next one, if it takes as long as
   the last, ends within [seconds] of the start (at least two rounds
   when [seconds] > 0).  Each round and each set-up starts after a full
   major collection, so that it does not pay for the garbage of the one
   before it.  [same a b] says whether two
   rounds gave the same result; on one domain ([domains] = 1) they must
   also allocate the same. *)
let measure ~setups ~seconds ~domains build ~prepare ~same f =
  let started = now () in
  let timed_setup () =
    Gc.full_major ();
    timed (setup build)
  in
  let inputs, first_setup = timed_setup () in
  let prepared = prepare inputs in
  let round () =
    Gc.full_major ();
    calls := [];
    in_round := true;
    let (result, gc), round_s =
      timed (fun () -> with_gc (fun () -> f inputs prepared))
    in
    in_round := false;
    let calls = List.rev !calls in
    List.iter (fun (name, dt, _) -> add_spent name dt) calls;
    let times =
      Array.of_list
        (List.filter_map (fun (_, dt, step) -> if step then Some dt else None) calls)
    in
    (result, gc, round_s, times)
  in
  let result, gc, first_round_s, fastest = round () in
  let peak_heap_mb = peak_heap_mb () in
  let frozen = Hashtbl.copy spent in
  let later_setups = List.init (setups - 1) (fun _ -> snd (timed_setup ())) in
  let min_rounds = if seconds > 0.0 then 2 else 1 in
  let rec more rounds unrepeated last_s =
    let elapsed = now () -. started in
    if (rounds < min_rounds || elapsed +. last_s <= seconds)
       && elapsed +. last_s < round_budget_s
    then begin
      let r, g, round_s, times = round () in
      let repeats =
        same r result
        && (domains > 1 || g.minor = gc.minor)
        && Array.length times = Array.length fastest
      in
      if repeats then
        Array.iteri (fun i t -> fastest.(i) <- Float.min fastest.(i) t) times;
      more (rounds + 1) (if repeats then unrepeated else unrepeated + 1) round_s
    end
    else (rounds, unrepeated)
  in
  let rounds, unrepeated = more 1 0 first_round_s in
  { inputs; prepared; result; gc; first_round_s;
    run_s = Array.fold_left ( +. ) 0.0 fastest;
    rounds; unrepeated; peak_heap_mb;
    setups_s = first_setup :: later_setups;
    spent_in =
      (fun name -> Option.value ~default:0.0 (Hashtbl.find_opt frozen name)) }

(* ---- what one process reports ------------------------------------------ *)

type report = {
  setup_s : float list;
  run_s : float;
  rounds : int;
  unrepeated : int;
  peak_heap_mb : float;
  coverage : float;
  n0_abs_err : float;
  checks : Checks.verdict list;
  sizes : (string * int) list;
  domains : int;
  exact : (string * float) list;
      (* Work counts that must repeat exactly between runs of the same
         code and seed. *)
  layers : (string * float) list;  (* Per-layer figures; traced runs only. *)
}

(* The per-layer figures that are work counts, exact like [exact]. *)
let exact_layers =
  [ "fsim.fault_evals"; "tpg.podem.calls"; "tpg.podem.backtracks";
    "tpg.podem.implications"; "logicsim.gate_evals" ]

let report_of m ~coverage ~n0_abs_err ~checks ~sizes ~domains ~exact ~layers =
  { setup_s = m.setups_s; run_s = m.run_s; rounds = m.rounds;
    unrepeated = m.unrepeated; peak_heap_mb = m.peak_heap_mb;
    coverage; n0_abs_err; checks; sizes; domains;
    exact = exact @ List.filter (fun (k, _) -> List.mem k exact_layers) layers;
    layers }

(* Figures every traced workload reports.  [top] are the layer spans the
   run is made of; the time they leave uncovered is the harness's own. *)
let common_layers m ~top ~grade:(grade_gc, evals) =
  let covered = List.fold_left (fun acc name -> acc +. m.spent_in name) 0.0 top in
  [ ("circuit.build_s", m.spent_in "circuit.build");
    ("circuit.gates", float_of_int (Circuit.Netlist.num_gates m.inputs.circuit));
    ("fault.collapse_s", m.spent_in "fault.collapse");
    ("fault.representatives", float_of_int (Array.length m.inputs.universe));
    ("fsim.grade_s", m.spent_in "fsim.grade");
    ("fsim.fault_evals", evals);
    ("fsim.minor_words", grade_gc.minor);
    ("fsim.promoted_words", grade_gc.promoted);
    ( "fsim.minor_words_per_fault_eval",
      if evals > 0.0 then grade_gc.minor /. evals else 0.0 );
    ("experiments.other_s", m.first_round_s -. covered);
    ("gc.minor_words", m.gc.minor);
    ("gc.promoted_words", m.gc.promoted);
    ("gc.major_collections", float_of_int m.gc.major_collections) ]

(* Standalone good-machine simulation of [patterns]: the logicsim
   layer's share of a grade. *)
let goodsim_layers inputs patterns =
  let blocks, goodsim_s =
    timed (fun () ->
        let blocks = Logicsim.Packed.blocks_of_patterns inputs.circuit patterns in
        List.iter
          (fun block -> ignore (Logicsim.Packed.eval_block inputs.circuit block))
          blocks;
        List.length blocks)
  in
  [ ("logicsim.goodsim_s", goodsim_s);
    ( "logicsim.gate_evals",
      float_of_int (Circuit.Netlist.num_gates inputs.circuit * blocks) ) ]

let lot_layers m lot outcome ~fit ~true_n0 =
  let chips = Fab.Lot.size lot in
  let test_s = m.spent_in "tester.test_lot" in
  [ ("fab.lot_s", m.spent_in "fab.lot");
    ("fab.chips", float_of_int chips);
    ("fab.defective", float_of_int (chips - Fab.Lot.good_count lot));
    ("fab.faults_injected", float_of_int (faults_injected lot));
    ("tester.test_lot_s", test_s);
    ("tester.ms_per_die", 1000.0 *. test_s /. float_of_int chips);
    ("tester.dies", float_of_int chips);
    ("tester.escapes", float_of_int (Tester.Wafer_test.test_escapes outcome));
    ("quality.fit_s", m.spent_in "quality.fit");
    ("quality.fit_n0", fit);
    ("quality.true_n0", true_n0) ]

let lot_exact m lot outcome =
  [ ("tester.escapes", float_of_int (Tester.Wafer_test.test_escapes outcome));
    ("fab.faults_injected", float_of_int (faults_injected lot));
    ("gc.minor_words", m.gc.minor) ]

let oracle_verdict name ~sample ~oracle first =
  Checks.verdict name
    ~check:(fun () -> Checks.same_first_detection ~sample ~oracle first)
    ~corrupted:
      (Some
         (fun () ->
           Checks.same_first_detection ~sample ~oracle
             (Checks.corrupt_first_detection sample.(0) first)))

let oracle_sample = 256

let fsim_domains = 2

(* The traced run grades the workload's patterns once more with the
   other engine: on one domain where the workload grades on
   [fsim_domains] ([own_par]), on [fsim_domains] where it grades on one.
   Both profiles must be equal; the two times give the Par speed-up, and
   the registry holds the shard walls of the Par grade. *)
let engine_comparison m ~own_par patterns (profile : Fsim.Coverage.profile) =
  let other, other_s =
    timed (fun () ->
        Fsim.Coverage.profile
          ~engine:
            (if own_par then Fsim.Coverage.Parallel
             else Fsim.Coverage.Par { domains = fsim_domains })
          m.inputs.circuit m.inputs.universe patterns)
  in
  let own_s = m.spent_in "fsim.grade" in
  let one_s, par_s = if own_par then (other_s, own_s) else (own_s, other_s) in
  let shard_wall q =
    Option.value ~default:0.0 (Obs.Metrics.quantile "fsim.par.shard_wall_s" q)
  in
  let first = profile.Fsim.Coverage.first_detection in
  ( Checks.verdict "par-matches-single-domain"
      ~check:(fun () -> profile = other)
      ~corrupted:
        (Some
           (fun () ->
             { profile with
               Fsim.Coverage.first_detection = Checks.corrupt_first_detection 0 first }
             = other)),
    [ ("fsim.par.shard_wall_max_s", shard_wall 1.0);
      ("fsim.par.shard_wall_min_s", shard_wall 0.0);
      ("fsim.par.shard_imbalance", metric "fsim.par.shard_imbalance");
      ("fsim.ppsfp_1d_s", one_s);
      ("fsim.par_speedup", if par_s > 0.0 then one_s /. par_s else 0.0) ] )

(* ---- workload: paper-pipeline ----------------------------------------- *)

(* Experiments.Pipeline.execute for the default configuration (no lint
   exclusion, equivalence collapsing, no n-detect grading), with the
   chip and its collapsed universe passed in, and ATPG seeded with
   [atpg_seed] where execute takes [config.seed + 1], so that the chip
   and its test generation stay fixed while [config.seed] varies the
   functional walk and the lot.  The [stages-match-pipeline-execute]
   check holds it to Pipeline.execute. *)
let pipeline_stages ~atpg_seed (config : Experiments.Pipeline.config)
    { circuit; universe } () =
  let open Experiments.Pipeline in
  let atpg_report =
    layer "tpg.atpg" (fun () ->
        Tpg.Atpg.run
          ~config:{ config.atpg with Tpg.Atpg.seed = atpg_seed }
          circuit universe)
  in
  let walk_count =
    match config.program_style with
    | Functional_prelude count -> count
    | Atpg_only -> invalid_arg "pipeline_stages: functional prelude expected"
  in
  let program, grade_gc, evals =
    layer "tester.program" (fun () ->
        let rng = Stats.Rng.create ~seed:(config.seed + 3) () in
        let walk = Tpg.Random_tpg.random_walk rng circuit ~count:walk_count () in
        let combined = Array.append walk atpg_report.Tpg.Atpg.patterns in
        graded "fsim.grade" (fun () ->
            Tester.Pattern_set.of_simulation ~engine:config.fsim_engine circuit
              universe combined))
  in
  let defect, lot =
    layer "fab.lot" (fun () ->
        let defect = defect_of config ~universe_size:(Array.length universe) in
        let rng = Stats.Rng.create ~seed:(config.seed + 2) () in
        (defect, ideal_lot config ~universe_size:(Array.length universe) rng))
  in
  let outcome =
    layer "tester.test_lot" (fun () ->
        Tester.Wafer_test.test_lot ~mode:config.tester_mode circuit universe
          program lot)
  in
  let run =
    { config; circuit; universe; untestable = [||]; atpg_report; program;
      defect; lot; outcome }
  in
  let fit =
    layer "quality.fit" (fun () -> fst (Experiments.Fig5.fit_simulated run))
  in
  (run, fit, (grade_gc, evals))

let same_run (a : Experiments.Pipeline.run) (b : Experiments.Pipeline.run) =
  a.atpg_report = b.atpg_report
  && a.program = b.program
  && a.lot = b.lot
  && a.outcome = b.outcome

let podem_layers ~traced =
  let ms =
    List.filter_map
      (fun (s : Obs.Trace.span) ->
        if s.Obs.Trace.name = "podem.generate" then
          Some (1000.0 *. (s.Obs.Trace.t1 -. s.Obs.Trace.t0))
        else None)
      (if traced then Obs.Trace.spans () else [])
    |> Array.of_list
  in
  Array.sort compare ms;
  let pick q =
    if ms = [||] then 0.0
    else ms.(int_of_float (q *. float_of_int (Array.length ms - 1)))
  in
  ( [ ("tpg.podem.calls", metric "atpg.podem.calls");
      ("tpg.podem.backtracks", metric "atpg.podem.backtracks");
      ("tpg.podem.implications", metric "atpg.podem.implications") ],
    [ ("tpg.podem.p50_call_ms", pick 0.5); ("tpg.podem.max_call_ms", pick 1.0) ] )

let paper_pipeline ~seed ~traced ~setups ~seconds =
  let config = { Experiments.Pipeline.default_config with seed } in
  let m =
    measure ~setups ~seconds ~domains:1 (lsi_chip config.Experiments.Pipeline.scale)
      ~prepare:(fun _ -> ())
      ~same:(fun (run, fit, _) (run', fit', _) -> same_run run run' && fit = fit')
      (pipeline_stages ~atpg_seed:(chip_seed + 1) config)
  in
  (* Read the registry and the trace before the checks run PODEM again. *)
  let podem_counts, podem_times = podem_layers ~traced in
  let run, fit, grade = m.result in
  let open Experiments.Pipeline in
  let report = run.atpg_report and program = run.program in
  let n0_abs_err = mean_n0_error ~seed m.inputs program in
  let sample =
    Checks.sample_indices ~seed ~n:(Array.length m.inputs.universe) oracle_sample
  in
  let oracle =
    Checks.serial_oracle m.inputs.circuit m.inputs.universe
      program.Tester.Pattern_set.patterns sample
  in
  (* The same stages against Pipeline.execute itself, on the scale-4
     chip of this seed with a short PODEM budget: small enough to run in
     every process. *)
  let small =
    { config with
      scale = 4;
      atpg = { config.atpg with Tpg.Atpg.backtrack_limit = 100 } }
  in
  let reference = Experiments.Pipeline.execute small in
  let replica, _, _ =
    pipeline_stages ~atpg_seed:(small.seed + 1) small
      (setup (fun () -> Circuit.Generators.lsi_chip ~seed ~scale:4 ()) ())
      ()
  in
  let outcomes = run.outcome.Tester.Wafer_test.outcomes in
  let checks =
    [ Checks.verdict "atpg-accounts-for-every-fault"
        ~check:(fun () -> Checks.atpg_accounts_for_every_fault report)
        ~corrupted:
          (Some
             (fun () ->
               Checks.atpg_accounts_for_every_fault
                 (Checks.corrupt_atpg_report report)));
      Checks.verdict "tester-matches-lookup"
        ~check:(fun () -> Checks.outcomes_match_lookup program run.lot outcomes)
        ~corrupted:
          (Option.map
             (fun wrong () -> Checks.outcomes_match_lookup program run.lot wrong)
             (Checks.corrupt_outcomes outcomes));
      oracle_verdict "program-matches-serial-oracle" ~sample ~oracle
        program.Tester.Pattern_set.profile.Fsim.Coverage.first_detection;
      Checks.verdict "stages-match-pipeline-execute"
        ~check:(fun () -> same_run reference replica)
        ~corrupted:
          (Option.map
             (fun outcomes () ->
               same_run reference
                 { replica with
                   outcome = { replica.outcome with Tester.Wafer_test.outcomes } })
             (Checks.corrupt_outcomes replica.outcome.Tester.Wafer_test.outcomes)) ]
  in
  let targets =
    report.Tpg.Atpg.deterministic_patterns + report.Tpg.Atpg.untestable
    + report.Tpg.Atpg.aborted + report.Tpg.Atpg.unknown
  in
  let checks, layers =
    if not traced then (checks, [])
    else
      let calls = List.assoc "tpg.podem.calls" podem_counts in
      let par_check, par_layers =
        engine_comparison m ~own_par:false program.Tester.Pattern_set.patterns
          program.Tester.Pattern_set.profile
      in
      ( checks @ [ par_check ],
      common_layers m ~grade
        ~top:[ "tpg.atpg"; "tester.program"; "fab.lot"; "tester.test_lot"; "quality.fit" ]
      @ goodsim_layers m.inputs program.Tester.Pattern_set.patterns
      @ lot_layers m run.lot run.outcome ~fit ~true_n0:(true_n0 run)
      @ podem_counts @ podem_times
      @ [ ("tpg.atpg_s", m.spent_in "tpg.atpg");
          ("tpg.aborted", float_of_int report.Tpg.Atpg.aborted);
          ("tpg.untestable", float_of_int report.Tpg.Atpg.untestable);
          ( "tpg.resolved_ratio",
            if calls > 0.0 then
              (calls -. float_of_int report.Tpg.Atpg.aborted) /. calls
            else 0.0 );
          ( "tpg.patterns",
            float_of_int
              (report.Tpg.Atpg.random_patterns
              + report.Tpg.Atpg.deterministic_patterns) );
          ("tester.program_s", m.spent_in "tester.program") ]
      @ par_layers )
  in
  report_of m
    ~coverage:(Tester.Pattern_set.final_coverage program)
    ~n0_abs_err ~checks
    ~sizes:
      [ ("gates", Circuit.Netlist.num_gates m.inputs.circuit);
        ("faults", Array.length m.inputs.universe);
        ("patterns", Tester.Pattern_set.pattern_count program);
        ("dies", Fab.Lot.size run.lot);
        ("atpg_targets", targets) ]
    ~domains:1
    ~exact:
      (lot_exact m run.lot run.outcome
      @ [ ("tpg.aborted", float_of_int report.Tpg.Atpg.aborted) ])
    ~layers

(* ---- workload: fsim-5k ------------------------------------------------- *)

(* The circuit is fixed like the chips of the other workloads; SEED
   drives the patterns.  This is `lsiq fsim -c rand:64,5000,32,1`. *)
let fsim_circuit_seed = 1

let fsim_5k ~seed ~traced ~setups ~seconds =
  let m =
    measure ~setups ~seconds ~domains:fsim_domains
      (fun () ->
        Circuit.Generators.random_circuit ~inputs:64 ~gates:5000 ~outputs:32
          ~seed:fsim_circuit_seed)
      ~prepare:(fun inputs ->
        Tpg.Random_tpg.uniform
          (Stats.Rng.create ~seed:(seed + 1) ())
          inputs.circuit ~count:1024)
      ~same:(fun (profile, _, _) (profile', _, _) -> profile = profile')
      (fun inputs patterns ->
        graded "fsim.grade" (fun () ->
            Fsim.Coverage.profile
              ~engine:(Fsim.Coverage.Par { domains = fsim_domains })
              inputs.circuit inputs.universe patterns))
  in
  let profile, grade_gc, evals = m.result in
  let patterns = m.prepared in
  let program = Tester.Pattern_set.make patterns profile in
  let n0_abs_err = mean_n0_error ~seed m.inputs program in
  let sample =
    Checks.sample_indices ~seed ~n:(Array.length m.inputs.universe) oracle_sample
  in
  let oracle = Checks.serial_oracle m.inputs.circuit m.inputs.universe patterns sample in
  let first = profile.Fsim.Coverage.first_detection in
  let oracle_check = oracle_verdict "profile-matches-serial-oracle" ~sample ~oracle first in
  let checks, layers =
    if not traced then ([ oracle_check ], [])
    else begin
      let par_check, par_layers =
        engine_comparison m ~own_par:true patterns profile
      in
      ( [ oracle_check; par_check ],
        common_layers m ~top:[ "fsim.grade" ] ~grade:(grade_gc, evals)
        @ goodsim_layers m.inputs patterns
        @ par_layers )
    end
  in
  report_of m
    ~coverage:(Fsim.Coverage.final_coverage profile)
    ~n0_abs_err ~checks
    ~sizes:
      [ ("gates", Circuit.Netlist.num_gates m.inputs.circuit);
        ("faults", Array.length m.inputs.universe);
        ("patterns", Array.length patterns) ]
    ~domains:fsim_domains
    ~exact:[]
    ~layers

(* ---- main --------------------------------------------------------------- *)

(* Each workload with its set-ups per untraced process: enough that the
   median set-up time of one invocation is steady, from ~5 ms (lsi:8)
   to ~0.2 s (5,000 gates). *)
let workloads =
  [ ("paper-pipeline", (41, paper_pipeline));
    ("fsim-5k", (11, fsim_5k)) ]

let to_json workload seed traced (r : report) =
  let open Report.Json in
  let floats l = Obj (List.map (fun (k, v) -> (k, Float v)) l) in
  Obj
    [ ("workload", String workload);
      ("seed", Int seed);
      ("traced", Bool traced);
      ("setup_s", List (List.map (fun s -> Float s) r.setup_s));
      ("run_s", Float r.run_s);
      ("rounds", Int r.rounds);
      ("unrepeated", Int r.unrepeated);
      ("peak_heap_mb", Float r.peak_heap_mb);
      ("coverage", Float r.coverage);
      ("n0_abs_err", Float r.n0_abs_err);
      ( "checks",
        List
          (List.map
             (fun (v : Checks.verdict) ->
               Obj
                 [ ("name", String v.Checks.name);
                   ("passed", Bool v.Checks.passed);
                   ("bites", Bool v.Checks.bites) ])
             r.checks) );
      ("sizes", Obj (List.map (fun (k, v) -> (k, Int v)) r.sizes));
      ("domains", Int r.domains);
      ("exact", floats r.exact);
      ("layers", floats r.layers) ]

let usage () =
  prerr_endline "usage: lsibench.exe run|traced WORKLOAD SEED SECONDS";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; mode; workload; seed; seconds ] ->
    let traced =
      match mode with "run" -> false | "traced" -> true | _ -> usage ()
    in
    let seed = match int_of_string_opt seed with Some s -> s | None -> usage () in
    let seconds =
      match float_of_string_opt seconds with
      | Some s when s >= 0.0 -> s
      | _ -> usage ()
    in
    let setups, run =
      match List.assoc_opt workload workloads with
      | Some workload -> workload
      | None ->
        Printf.eprintf "lsibench: unknown workload %S\n" workload;
        exit 2
    in
    if traced then begin
      Obs.Trace.set_enabled true;
      Obs.Metrics.set_enabled true
    end;
    let report =
      if traced then run ~seed ~traced ~setups:1 ~seconds:0.0
      else run ~seed ~traced ~setups ~seconds
    in
    print_endline (Report.Json.to_string (to_json workload seed traced report))
  | _ -> usage ()
