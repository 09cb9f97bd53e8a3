(** Integrated-circuit yield models.

    The paper's Eq. 3 is Stapper's composite (negative-binomial) model
    [y = (1 + X D0 A)^(-1/X)] with defect density [D0], chip area [A]
    and [X] the normalized variance of [D0].  The other classical
    models the paper cites ([7]–[12]) are provided for comparison:
    Poisson (Price/Seeds small-lambda limit),
    Murphy, and Seeds. *)

type t = {
  defect_density : float;  (** D0: average defects per unit area. *)
  area : float;            (** A: chip area, same units. *)
  variance_ratio : float;  (** X: Var(D0)/D0², 0 = Poisson limit. *)
}

val create :
  defect_density:float -> area:float -> variance_ratio:float -> t

val lambda : t -> float
(** D0·A — the mean number of physical defects per chip. *)

val stapper_yield : t -> float
(** Eq. 3: [(1 + X D0 A)^(-1/X)]; continuous at X=0 where it equals
    {!poisson_yield}. *)

val poisson_yield : t -> float
(** [exp (-D0 A)] — the classical Price/Seeds exponential. *)

val murphy_yield : t -> float
(** Murphy's bell-shaped integrand approximation
    [((1 - e^{-D0 A}) / (D0 A))²]. *)

val seeds_yield : t -> float
(** Seeds' exponential-distribution model [1 / (1 + D0 A)]. *)

val clustering_alpha : t -> float
(** α = 1/X, the negative-binomial shape parameter; [infinity] at X=0. *)

val defect_count_distribution : t -> Dist_kind.t
(** The per-chip physical-defect count law implied by the model:
    NegBinomial(mean = D0·A, α = 1/X), degenerating to Poisson at X=0. *)

val solve_defect_density : target_yield:float -> area:float -> variance_ratio:float -> float
(** Invert {!stapper_yield} for D0: the calibration step used to hit a
    requested process yield (e.g. the paper's 7 %). *)
