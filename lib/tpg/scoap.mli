(** SCOAP testability analysis (Goldstein 1979).

    Combinational controllabilities CC0/CC1 (cost of driving a node to
    0/1 from the primary inputs) and observability CO (cost of
    propagating a node to a primary output), computed with the standard
    additive rules.  Costs are saturating integers; unreachable
    combinations (e.g. forcing a constant) saturate at {!infinite}.

    Consumer: hard-fault reporting ({!hardest_faults}, used by lint and
    [lsiq stafan]). *)

type t

val infinite : int
(** Saturation value for impossible goals.  Set to [max_int / 4]
    rather than [max_int] deliberately: {!saturating_add} computes
    [a + b] {e before} clamping, so the representable headroom must
    cover at least the sum of two saturated operands plus the [+ 1]
    depth bumps — with [max_int / 4] even
    [infinite + infinite + infinite] stays far below [max_int], and no
    intermediate can wrap to a negative cost.  The regression tests in
    [test/test_tpg.ml] pin this down. *)

val saturating_add : int -> int -> int
(** [min infinite (a + b)] — the only addition used anywhere in the
    cost propagation.  Results never exceed {!infinite} and, given the
    headroom above, never overflow for any pair of in-range costs. *)

val analyze : Circuit.Netlist.t -> t

val cc0 : t -> int -> int
(** Cost of setting node [id] to 0. *)

val cc1 : t -> int -> int
(** Cost of setting node [id] to 1. *)

val co : t -> int -> int
(** Observability of node [id]'s stem (min over its fanout branches;
    0 on primary outputs). *)

val co_pin : t -> gate:int -> pin:int -> int
(** Observability of one gate input pin (a fanout branch). *)

val fault_difficulty : t -> Circuit.Netlist.t -> Faults.Fault.t -> int
(** Detection-cost estimate of a stuck-at fault: cost of driving its
    line to the opposite value plus the line's observability — the
    standard SCOAP testability figure of merit. *)

val hardest_faults :
  t -> Circuit.Netlist.t -> Faults.Fault.t array -> count:int ->
  (Faults.Fault.t * int) list
(** The [count] faults with the highest difficulty, hardest first. *)

val hardest_to_csv :
  t -> Circuit.Netlist.t -> Faults.Fault.t array -> count:int -> string
(** {!hardest_faults} as CSV with a [fault,difficulty,saturated]
    header; [saturated] marks costs pinned at {!infinite}. *)

val hardest_to_json :
  t -> Circuit.Netlist.t -> Faults.Fault.t array -> count:int ->
  Report.Json.t
(** {!hardest_faults} as a JSON array of
    [{"fault"; "difficulty"; "saturated"}] objects. *)
