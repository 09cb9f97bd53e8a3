let n0_family = List.init 12 (fun i -> float_of_int (i + 1))

let series ~reject =
  List.map
    (fun n0 ->
      let f y =
        match Quality.Requirement.required_coverage ~yield_:y ~n0 ~reject with
        | Some f -> f
        | None -> 1.0
      in
      Report.Series.of_fn ~label:(Printf.sprintf "n0=%g" n0) ~f ~lo:0.005 ~hi:0.995
        ~steps:99)
    n0_family

let checkpoints () =
  List.filter_map
    (fun cp ->
      if cp.Paper_data.figure = "Fig.2" || cp.Paper_data.figure = "Fig.4" then begin
        let reproduced =
          match
            Quality.Requirement.required_coverage ~yield_:cp.Paper_data.yield_
              ~n0:cp.Paper_data.n0 ~reject:cp.Paper_data.reject
          with
          | Some f -> f
          | None -> nan
        in
        Some
          (Printf.sprintf "%s y=%.2f n0=%g r=%.3g" cp.Paper_data.figure
             cp.Paper_data.yield_ cp.Paper_data.n0 cp.Paper_data.reject,
           cp.Paper_data.coverage, reproduced)
      end
      else None)
    Paper_data.requirement_checkpoints

let render_figure ~name ~reject =
  Report.Ascii_plot.render
    ~title:
      (Printf.sprintf "%s: required coverage vs yield for r = %g (n0 = 1..12 top to bottom)"
         name reject)
    ~x_label:"yield y" ~y_label:"required fault coverage f" (series ~reject)
