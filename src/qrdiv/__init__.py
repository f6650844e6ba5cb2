"""Quantum relative entropies, geometric-mean interpolations, and
barycentric Renyi divergences at desk scale (dense matrices, dim <= 64)."""

from .barycentric import (
    BarycenterResult,
    GcqChannel,
    SolverOptions,
    barycentric_q,
    barycentric_renyi,
    barycentric_renyi_full,
    dual_renyi,
)
from .classical import (
    WeightMeasure,
    WeightedFamily,
    classical_rel_entropy,
    classical_renyi,
    hellinger_arc_point,
    multivariate_q,
)
from .relent import (
    BelavkinStaszewski,
    DivergenceValue,
    GeomWeighted,
    MeasuredProjective,
    Mixture,
    Umegaki,
    axioms_check,
    bs_rel_entropy,
    measured_lower_bound,
    parse_kind,
    parse_kinds,
    rel_entropy,
    umegaki,
)
from .renyi import (
    MaxRenyiValue,
    ReverseTest,
    max_fdivergence,
    max_relative_entropy,
    max_renyi,
    optimal_reverse_test,
    reg_measured_renyi,
    renyi_alpha_z,
)
from .supports import (
    OpConvexFn,
    abs_cont_part,
    kubo_ando_mean,
    kubo_ando_mean_real,
    neg_log,
    neg_power,
    perspective,
    power_fn,
    x_log_x,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
