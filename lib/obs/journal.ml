type host = { hostname : string; cores : int; ocaml_version : string }

type outcome = Finished | Failed of string | Interrupted

type event =
  | Run_start of {
      time_unix : float;
      argv : string list;
      seed : int option;
      circuit : string option;
      git_rev : string option;
      host : host;
    }
  | Progress of {
      t_s : float;
      label : string;
      stage : string option;
      task : int;
      items : int;
      total : int option;
      rate : float;
      eta_s : float option;
    }
  | Metrics_snapshot of { t_s : float; metrics : Report.Json.t }
  | Run_end of {
      t_s : float;
      outcome : outcome;
      results : (string * Report.Json.t) list;
    }

let ring_cap = 256

type state = {
  mutable oc : out_channel option;
  ring : event option array;
  mutable ring_next : int;  (* next write slot; count = min written cap *)
  mutable ring_count : int;
  mutable headlines : (string * Report.Json.t) list;  (* newest first *)
  mutable t0 : float;
}

let enabled_flag = Atomic.make false
let mutex = Mutex.create ()

let st =
  { oc = None; ring = Array.make ring_cap None; ring_next = 0; ring_count = 0;
    headlines = []; t0 = Clock.now_s () }

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Must be called with [mutex] held. *)
let clear_run_state () =
  Array.fill st.ring 0 ring_cap None;
  st.ring_next <- 0;
  st.ring_count <- 0;
  st.headlines <- [];
  st.t0 <- Clock.now_s ()

let reset () =
  Mutex.lock mutex;
  clear_run_state ();
  Mutex.unlock mutex

let detach () =
  Mutex.lock mutex;
  (match st.oc with
  | Some oc ->
    st.oc <- None;
    Mutex.unlock mutex;
    close_out oc
  | None -> Mutex.unlock mutex)

let attach ~path =
  detach ();
  let oc = open_out path in
  Mutex.lock mutex;
  st.oc <- Some oc;
  clear_run_state ();
  Mutex.unlock mutex

(* ---- JSON encoding ------------------------------------------------- *)

let opt f = function Some v -> f v | None -> Report.Json.Null

let host_to_json h =
  Report.Json.Obj
    [ ("hostname", Report.Json.String h.hostname);
      ("cores", Report.Json.Int h.cores);
      ("ocaml_version", Report.Json.String h.ocaml_version) ]

let event_to_json = function
  | Run_start { time_unix; argv; seed; circuit; git_rev; host } ->
    Report.Json.Obj
      [ ("ev", Report.Json.String "run_start");
        ("time_unix", Report.Json.Float time_unix);
        ("argv",
         Report.Json.List (List.map (fun a -> Report.Json.String a) argv));
        ("seed", opt (fun s -> Report.Json.Int s) seed);
        ("circuit", opt (fun c -> Report.Json.String c) circuit);
        ("git_rev", opt (fun r -> Report.Json.String r) git_rev);
        ("host", host_to_json host) ]
  | Progress { t_s; label; stage; task; items; total; rate; eta_s } ->
    Report.Json.Obj
      ([ ("ev", Report.Json.String "progress");
         ("t", Report.Json.Float t_s);
         ("label", Report.Json.String label) ]
      @ (match stage with
        | Some s -> [ ("stage", Report.Json.String s) ]
        | None -> [])
      @ [ ("task", Report.Json.Int task);
          ("items", Report.Json.Int items);
          ("total", opt (fun t -> Report.Json.Int t) total);
          ("rate", Report.Json.Float rate);
          ("eta_s", opt (fun e -> Report.Json.Float e) eta_s) ])
  | Metrics_snapshot { t_s; metrics } ->
    Report.Json.Obj
      [ ("ev", Report.Json.String "metrics_snapshot");
        ("t", Report.Json.Float t_s);
        ("metrics", metrics) ]
  | Run_end { t_s; outcome; results } ->
    Report.Json.Obj
      [ ("ev", Report.Json.String "run_end");
        ("t", Report.Json.Float t_s);
        ("outcome",
         (match outcome with
         | Finished -> Report.Json.String "ok"
         | Interrupted -> Report.Json.String "interrupted"
         | Failed msg ->
           Report.Json.Obj [ ("error", Report.Json.String msg) ]));
        ("results", Report.Json.Obj results) ]

(* ---- JSON decoding ------------------------------------------------- *)

let field name = function
  | Report.Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let as_string = function Some (Report.Json.String s) -> Some s | _ -> None

let as_int = function
  | Some (Report.Json.Int n) -> Some n
  | Some (Report.Json.Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let as_float = function
  | Some (Report.Json.Float f) -> Some f
  | Some (Report.Json.Int n) -> Some (float_of_int n)
  | _ -> None

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let require what = function Some v -> Ok v | None -> Error ("missing " ^ what)

let event_of_json json =
  let* ev = require "ev" (as_string (field "ev" json)) in
  match ev with
  | "run_start" ->
    let* time_unix = require "time_unix" (as_float (field "time_unix" json)) in
    let* argv =
      match field "argv" json with
      | Some (Report.Json.List l) ->
        let rec strings acc = function
          | [] -> Ok (List.rev acc)
          | Report.Json.String s :: rest -> strings (s :: acc) rest
          | _ -> Error "argv: non-string element"
        in
        strings [] l
      | _ -> Error "missing argv"
    in
    let* host_json = require "host" (field "host" json) in
    let* hostname = require "hostname" (as_string (field "hostname" host_json)) in
    let* cores = require "cores" (as_int (field "cores" host_json)) in
    let* ocaml_version =
      require "ocaml_version" (as_string (field "ocaml_version" host_json))
    in
    Ok
      (Run_start
         { time_unix; argv;
           seed = as_int (field "seed" json);
           circuit = as_string (field "circuit" json);
           git_rev = as_string (field "git_rev" json);
           host = { hostname; cores; ocaml_version } })
  | "progress" ->
    let* t_s = require "t" (as_float (field "t" json)) in
    let* label = require "label" (as_string (field "label" json)) in
    let* task = require "task" (as_int (field "task" json)) in
    let* items = require "items" (as_int (field "items" json)) in
    let* rate = require "rate" (as_float (field "rate" json)) in
    Ok
      (Progress
         { t_s; label;
           stage = as_string (field "stage" json);
           task; items;
           total = as_int (field "total" json);
           rate;
           eta_s = as_float (field "eta_s" json) })
  | "metrics_snapshot" ->
    let* t_s = require "t" (as_float (field "t" json)) in
    let* metrics = require "metrics" (field "metrics" json) in
    Ok (Metrics_snapshot { t_s; metrics })
  | "run_end" ->
    let* t_s = require "t" (as_float (field "t" json)) in
    let* outcome =
      match field "outcome" json with
      | Some (Report.Json.String "ok") -> Ok Finished
      | Some (Report.Json.String "interrupted") -> Ok Interrupted
      | Some (Report.Json.Obj [ ("error", Report.Json.String msg) ]) ->
        Ok (Failed msg)
      | _ -> Error "bad outcome"
    in
    let* results =
      match field "results" json with
      | Some (Report.Json.Obj kvs) -> Ok kvs
      | _ -> Error "missing results"
    in
    Ok (Run_end { t_s; outcome; results })
  | other -> Error ("unknown event type " ^ other)

(* ---- emission ------------------------------------------------------ *)

(* Pre-write hook on the file sink; the fault-injection harness points
   it at a failpoint.  It may raise, so the write path must release the
   mutex on the way out — the in-memory ring keeps the event either
   way. *)
let sink_hook = Atomic.make (fun () -> ())
let set_sink_hook f = Atomic.set sink_hook f

let emit event =
  if Atomic.get enabled_flag then begin
    Mutex.lock mutex;
    match
      st.ring.(st.ring_next) <- Some event;
      st.ring_next <- (st.ring_next + 1) mod ring_cap;
      if st.ring_count < ring_cap then st.ring_count <- st.ring_count + 1;
      match st.oc with
      | Some oc ->
        (Atomic.get sink_hook) ();
        output_string oc (Report.Json.to_string (event_to_json event));
        output_char oc '\n';
        flush oc
      | None -> ()
    with
    | () -> Mutex.unlock mutex
    | exception e ->
      Mutex.unlock mutex;
      raise e
  end

let tail () =
  Mutex.lock mutex;
  let out = ref [] in
  for i = 1 to st.ring_count do
    let slot = (st.ring_next - i + (2 * ring_cap)) mod ring_cap in
    match st.ring.(slot) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  let events = !out in
  Mutex.unlock mutex;
  events

let t_now () = Clock.now_s () -. st.t0

(* Best-effort git revision without spawning a subprocess: env
   override first, then walk up from the cwd for .git/HEAD and chase
   one level of symbolic ref (loose ref file or packed-refs). *)
let git_rev () =
  match Sys.getenv_opt "LSIQ_GIT_REV" with
  | Some rev when rev <> "" -> Some rev
  | _ ->
    let read_first_line path =
      if Sys.file_exists path then
        In_channel.with_open_text path In_channel.input_line
      else None
    in
    let rec find_git_dir dir depth =
      if depth > 16 then None
      else
        let candidate = Filename.concat dir ".git" in
        if Sys.file_exists candidate && Sys.is_directory candidate then
          Some candidate
        else
          let parent = Filename.dirname dir in
          if String.equal parent dir then None
          else find_git_dir parent (depth + 1)
    in
    (match find_git_dir (Sys.getcwd ()) 0 with
    | None -> None
    | Some git_dir ->
      (match read_first_line (Filename.concat git_dir "HEAD") with
      | None -> None
      | Some head ->
        let prefix = "ref: " in
        if String.length head > String.length prefix
           && String.starts_with ~prefix head
        then begin
          let refname =
            String.sub head (String.length prefix)
              (String.length head - String.length prefix)
            |> String.trim
          in
          match read_first_line (Filename.concat git_dir refname) with
          | Some hash -> Some (String.trim hash)
          | None ->
            (* loose ref absent: scan packed-refs for "<hash> <refname>" *)
            let packed = Filename.concat git_dir "packed-refs" in
            if not (Sys.file_exists packed) then None
            else
              In_channel.with_open_text packed (fun ic ->
                  let rec scan () =
                    match In_channel.input_line ic with
                    | None -> None
                    | Some line ->
                      (match String.index_opt line ' ' with
                      | Some i
                        when String.equal
                               (String.sub line (i + 1)
                                  (String.length line - i - 1))
                               refname ->
                        Some (String.sub line 0 i)
                      | _ -> scan ())
                  in
                  scan ())
        end
        else Some (String.trim head)))

let run_start ~argv ?seed ?circuit () =
  if Atomic.get enabled_flag then
    emit
      (Run_start
         { time_unix = Unix.gettimeofday ();
           argv = Array.to_list argv;
           seed; circuit;
           git_rev = git_rev ();
           host =
             { hostname = Unix.gethostname ();
               cores = Domain.recommended_domain_count ();
               ocaml_version = Sys.ocaml_version } })

let progress ~label ?stage ~task ~items ?total ~rate ?eta_s () =
  if Atomic.get enabled_flag then
    emit (Progress { t_s = t_now (); label; stage; task; items; total; rate;
                     eta_s })

let metrics_snapshot metrics =
  if Atomic.get enabled_flag then
    emit (Metrics_snapshot { t_s = t_now (); metrics })

let headline key json =
  if Atomic.get enabled_flag then begin
    Mutex.lock mutex;
    let replaced = ref false in
    let updated =
      List.map
        (fun (k, v) ->
          if String.equal k key then begin
            replaced := true;
            (k, json)
          end
          else (k, v))
        st.headlines
    in
    st.headlines <- (if !replaced then updated else (key, json) :: updated);
    Mutex.unlock mutex
  end

let run_end ~outcome =
  if Atomic.get enabled_flag then begin
    Mutex.lock mutex;
    let results = List.rev st.headlines in
    Mutex.unlock mutex;
    emit (Run_end { t_s = t_now (); outcome; results })
  end

(* ---- reading back -------------------------------------------------- *)

let read_file path =
  match
    In_channel.with_open_text path (fun ic ->
        let rec loop lineno acc =
          match In_channel.input_line ic with
          | None -> Ok (List.rev acc)
          | Some line when String.trim line = "" -> loop (lineno + 1) acc
          | Some line ->
            (match Report.Json.parse line with
            | Error msg ->
              Error (Printf.sprintf "line %d: %s" lineno msg)
            | Ok json ->
              (match event_of_json json with
              | Error msg ->
                Error (Printf.sprintf "line %d: %s" lineno msg)
              | Ok event -> loop (lineno + 1) (event :: acc)))
        in
        loop 1 [])
  with
  | result -> result
  | exception Sys_error msg -> Error msg

(* ---- rendering ----------------------------------------------------- *)

let render_summary events =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_start = ref 0 and n_progress = ref 0 in
  let n_metrics = ref 0 and n_end = ref 0 in
  let last_metrics = ref (Report.Json.Obj []) in
  (* last progress event per (label, task), insertion-ordered *)
  let tasks : ((string * int) * (int * int option * float)) list ref =
    ref []
  in
  List.iter
    (fun event ->
      match event with
      | Run_start { time_unix; argv; seed; circuit; git_rev; host } ->
        Stdlib.incr n_start;
        addf "run: %s\n" (String.concat " " argv);
        let describe label = function
          | Some s -> addf "%s: %s\n" label s
          | None -> ()
        in
        describe "circuit" circuit;
        (match seed with Some s -> addf "seed: %d\n" s | None -> ());
        let t = Unix.gmtime time_unix in
        addf "started: %04d-%02d-%02dT%02d:%02d:%02dZ on %s (%d core%s, OCaml %s)\n"
          (t.tm_year + 1900) (t.tm_mon + 1) t.tm_mday t.tm_hour t.tm_min
          t.tm_sec host.hostname host.cores
          (if host.cores = 1 then "" else "s")
          host.ocaml_version;
        describe "git" git_rev
      | Progress { label; task; items; total; rate; _ } ->
        Stdlib.incr n_progress;
        let key = (label, task) in
        if List.mem_assoc key !tasks then
          tasks :=
            List.map
              (fun (k, v) ->
                if k = key then (k, (items, total, rate)) else (k, v))
              !tasks
        else tasks := !tasks @ [ (key, (items, total, rate)) ]
      | Metrics_snapshot { metrics; _ } ->
        Stdlib.incr n_metrics;
        last_metrics := metrics
      | Run_end { t_s; outcome; results } ->
        Stdlib.incr n_end;
        (match outcome with
        | Finished -> addf "outcome: ok after %.3f s\n" t_s
        | Interrupted -> addf "outcome: INTERRUPTED after %.3f s\n" t_s
        | Failed msg -> addf "outcome: FAILED after %.3f s: %s\n" t_s msg);
        if results <> [] then begin
          addf "headline:\n";
          List.iter
            (fun (k, v) -> addf "  %-24s %s\n" k (Report.Json.to_string v))
            results
        end)
    events;
  if !tasks <> [] then begin
    addf "progress:\n";
    (* aggregate task instances per label: total items and final state *)
    let by_label : (string * (int * int)) list ref = ref [] in
    List.iter
      (fun ((label, _), (items, _, _)) ->
        match List.assoc_opt label !by_label with
        | Some (n, sum) ->
          by_label :=
            List.map
              (fun (l, v) ->
                if String.equal l label then (l, (n + 1, sum + items))
                else (l, v))
              !by_label
        | None -> by_label := !by_label @ [ (label, (1, items)) ])
      !tasks;
    List.iter
      (fun (label, (n, sum)) ->
        if n = 1 then addf "  %-24s %d items\n" label sum
        else addf "  %-24s %d items across %d tasks\n" label sum n)
      !by_label
  end;
  (* Fault-simulation kernel work from the last metrics snapshot: per
     engine, fanout-free-region root propagations per fault eval. *)
  (match !last_metrics with
  | Report.Json.Obj fields ->
    let counter name =
      match List.assoc_opt name fields with
      | Some (Report.Json.Obj m) -> (
        match List.assoc_opt "value" m with
        | Some (Report.Json.Float v) -> Some v
        | _ -> None)
      | _ -> None
    in
    let suffix = ".root_propagations" in
    let kernels =
      List.filter_map
        (fun (name, _) ->
          if String.starts_with ~prefix:"fsim." name
             && String.ends_with ~suffix name
          then
            let engine =
              String.sub name 0 (String.length name - String.length suffix)
            in
            match (counter name, counter (engine ^ ".fault_evals")) with
            | Some roots, Some evals when evals > 0.0 ->
              Some (engine, roots, evals)
            | _ -> None
          else None)
        fields
    in
    if kernels <> [] then begin
      addf "kernel:\n";
      List.iter
        (fun (engine, roots, evals) ->
          addf "  %-24s %.0f root propagations / %.0f fault evals = %.3f per fault eval\n"
            engine roots evals (roots /. evals))
        kernels
    end
  | _ -> ());
  addf "events: %d (%d run_start, %d progress, %d metrics_snapshot, %d run_end)\n"
    (!n_start + !n_progress + !n_metrics + !n_end)
    !n_start !n_progress !n_metrics !n_end;
  Buffer.contents buf
