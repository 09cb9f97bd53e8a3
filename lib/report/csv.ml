let needs_quoting s =
  String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n' || ch = '\r') s

let escape_field s =
  if needs_quoting s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        if ch = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf ch)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let of_rows rows =
  rows
  |> List.map (fun row -> String.concat "," (List.map escape_field row))
  |> String.concat "\n"
  |> fun body -> body ^ "\n"

let of_series series =
  let rows =
    List.concat_map
      (fun s ->
        Array.to_list s.Series.points
        |> List.map (fun (x, y) ->
               [ s.Series.label; Printf.sprintf "%.17g" x; Printf.sprintf "%.17g" y ]))
      series
  in
  of_rows ([ "series"; "x"; "y" ] :: rows)

let parse text =
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let n = String.length text in
  let rec scan i in_quotes =
    if i >= n then begin
      if Buffer.length buf > 0 || !fields <> [] then flush_row ();
      List.rev !rows
    end
    else begin
      let ch = text.[i] in
      if in_quotes then begin
        if ch = '"' then
          if i + 1 < n && text.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            scan (i + 2) true
          end
          else scan (i + 1) false
        else begin
          Buffer.add_char buf ch;
          scan (i + 1) true
        end
      end
      else
        match ch with
        | '"' -> scan (i + 1) true
        | ',' ->
          flush_field ();
          scan (i + 1) false
        | '\r' -> scan (i + 1) false
        | '\n' ->
          flush_row ();
          scan (i + 1) false
        | _ ->
          Buffer.add_char buf ch;
          scan (i + 1) false
    end
  in
  scan 0 false
