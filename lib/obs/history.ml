type kind = Time | Exact

type metric = { block : string; name : string; kind : kind; value : float }

type verdict = Same | Faster | Slower | Changed | Added | Removed

type row = {
  r_block : string;
  r_name : string;
  r_kind : kind;
  r_base : float option;
  r_cur : float option;
  r_verdict : verdict;
}

let field name = function
  | Report.Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let as_number = function
  | Some (Report.Json.Float f) -> Some f
  | Some (Report.Json.Int n) -> Some (float_of_int n)
  | _ -> None

let as_int = function
  | Some (Report.Json.Int n) -> Some n
  | _ -> None

let as_string = function Some (Report.Json.String s) -> Some s | _ -> None

let as_list = function Some (Report.Json.List l) -> l | _ -> []

let host_key doc =
  match field "host" doc with
  | Some host ->
    let int name = Option.value ~default:0 (as_int (field name host)) in
    Printf.sprintf "cores=%d ocaml=%s word=%d" (int "cores")
      (Option.value ~default:"?" (as_string (field "ocaml_version" host)))
      (int "word_size")
  | None -> "unknown-host"

(* Flatten the comparable metrics of one BENCH_fsim.json document.
   Times are compared with slack; counts and coverages are exact. *)
let metrics_of_doc doc =
  let out = ref [] in
  let push block name kind value = out := { block; name; kind; value } :: !out in
  let number json name = as_number (field name json) in
  let time block json name =
    match number json name with Some v -> push block name Time v | None -> ()
  in
  let exact block json name =
    match number json name with Some v -> push block name Exact v | None -> ()
  in
  List.iter
    (fun run ->
      match (as_string (field "engine" run), as_int (field "domains" run)) with
      | Some engine, Some domains ->
        let block = Printf.sprintf "runs/%s@d%d" engine domains in
        time block run "min_s";
        exact block run "faults";
        exact block run "patterns"
      | _ -> ())
    (as_list (field "runs" doc));
  List.iter
    (fun row ->
      match as_int (field "n" row) with
      | Some n ->
        let block = Printf.sprintf "ndetect/n=%d" n in
        time block row "min_s";
        exact block row "coverage"
      | None -> ())
    (as_list (field "ndetect" doc));
  (match field "analysis" doc with
  | Some analysis ->
    (match field "dominators" analysis with
    | Some dom -> time "analysis/dominators" dom "min_s"
    | None -> ());
    List.iter
      (fun imp ->
        match as_int (field "depth" imp) with
        | Some depth ->
          time (Printf.sprintf "analysis/implications@d%d" depth) imp "min_s"
        | None -> ())
      (as_list (field "implications" analysis))
  | None -> ());
  (match field "testability" doc with
  | Some testability ->
    List.iter
      (fun curve ->
        match
          (as_string (field "circuit" curve), as_int (field "patterns" curve))
        with
        | Some circuit, Some patterns ->
          let block = Printf.sprintf "testability/%s@n%d" circuit patterns in
          exact block curve "predicted_lo";
          exact block curve "predicted_hi";
          exact block curve "exact"
        | _ -> ())
      (as_list (field "curves" testability));
    (match field "hybrid" testability with
    | Some hybrid ->
      exact "testability/hybrid" hybrid "hybrid_coverage";
      exact "testability/hybrid" hybrid "hybrid_patterns"
    | None -> ())
  | None -> ());
  (match field "bdd" doc with
  | Some bdd ->
    List.iter
      (fun row ->
        match as_string (field "circuit" row) with
        | Some circuit ->
          let block = Printf.sprintf "bdd/%s" circuit in
          exact block row "dfs_nodes";
          exact block row "sifted_nodes";
          exact block row "untestable";
          exact block row "exact_width";
          exact block row "interval_width"
        | None -> ())
      (as_list (field "circuits" bdd));
    (match field "equiv" bdd with
    | Some equiv -> exact "bdd/equiv" equiv "counterexample_inputs"
    | None -> ())
  | None -> ());
  List.rev !out

let entry ~time_unix doc =
  Report.Json.Obj
    [ ("time_unix", Report.Json.Float time_unix); ("bench", doc) ]

let doc_of_entry line = field "bench" line

let append ~path line =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Report.Json.to_string line);
  output_char oc '\n';
  close_out oc

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    In_channel.with_open_text path (fun ic ->
        let rec loop lineno acc =
          match In_channel.input_line ic with
          | None -> Ok (List.rev acc)
          | Some line when String.trim line = "" -> loop (lineno + 1) acc
          | Some line ->
            (match Report.Json.parse line with
            | Ok json -> loop (lineno + 1) (json :: acc)
            | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
        in
        loop 1 [])

let compare_docs ?(time_ratio = 1.5) ?(time_floor_s = 0.002) ~baseline
    ~current () =
  let base_metrics = metrics_of_doc baseline in
  let cur_metrics = metrics_of_doc current in
  let key m = (m.block, m.name) in
  let find metrics k = List.find_opt (fun m -> key m = k) metrics in
  let keys =
    List.map key base_metrics
    @ List.filter
        (fun k -> not (List.exists (fun m -> key m = k) base_metrics))
        (List.map key cur_metrics)
  in
  List.map
    (fun ((block, name) as k) ->
      let base = find base_metrics k and cur = find cur_metrics k in
      let kind =
        match (base, cur) with
        | Some m, _ | None, Some m -> m.kind
        | None, None -> Exact
      in
      let verdict =
        match (base, cur) with
        | None, Some _ -> Added
        | Some _, None -> Removed
        | None, None -> Same
        | Some b, Some c -> (
          match kind with
          | Exact -> if b.value = c.value then Same else Changed
          | Time ->
            if
              c.value > b.value *. time_ratio
              && c.value -. b.value > time_floor_s
            then Slower
            else if
              b.value > c.value *. time_ratio
              && b.value -. c.value > time_floor_s
            then Faster
            else Same)
      in
      { r_block = block; r_name = name; r_kind = kind;
        r_base = Option.map (fun m -> m.value) base;
        r_cur = Option.map (fun m -> m.value) cur;
        r_verdict = verdict })
    keys

let regressions rows =
  List.filter
    (fun r -> match r.r_verdict with Slower | Changed -> true | _ -> false)
    rows

let verdict_name = function
  | Same -> "same"
  | Faster -> "faster"
  | Slower -> "SLOWER"
  | Changed -> "CHANGED"
  | Added -> "added"
  | Removed -> "removed"

let render rows =
  let cell = function
    | Some v -> Printf.sprintf "%.6g" v
    | None -> "-"
  in
  let delta r =
    match (r.r_base, r.r_cur) with
    | Some b, Some c when r.r_kind = Time && b > 0.0 ->
      Printf.sprintf "%+.1f%%" (100.0 *. ((c /. b) -. 1.0))
    | Some b, Some c when b <> c -> Printf.sprintf "%+.6g" (c -. b)
    | _ -> ""
  in
  Report.Table.render
    ~aligns:[ Report.Table.Left; Left; Right; Right; Right; Left ]
    ~headers:[ "block"; "metric"; "baseline"; "current"; "delta"; "verdict" ]
    (List.map
       (fun r ->
         [ r.r_block; r.r_name; cell r.r_base; cell r.r_cur; delta r;
           verdict_name r.r_verdict ])
       rows)
