(** Minimal CSV output (and a matching reader for round-trip tests). *)

val escape_field : string -> string
(** RFC-4180 quoting when the field contains a comma, quote or newline. *)

val of_rows : string list list -> string

val of_series : Series.t list -> string
(** Long format: [label,x,y] per line with a header row. *)

val parse : string -> string list list
(** Parse CSV text (quotes and escaped quotes honoured). *)
