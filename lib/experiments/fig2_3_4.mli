(** Figs. 2, 3, 4 — required fault coverage versus yield for field
    reject rates 1/100, 1/200 and 1/1000, one curve per n0 = 1..12
    (Eq. 11 inverted). *)

val n0_family : float list
(** n0 = 1..12 as in Fig. 5's family. *)

val series : reject:float -> Report.Series.t list
(** Required-coverage-vs-yield curves for one figure. *)

val checkpoints : unit -> (string * float * float) list
(** Paper graph-read values vs reproduced, for the quoted points of
    Figs. 2 and 4. *)

val render_figure : name:string -> reject:float -> string
