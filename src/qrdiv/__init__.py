"""Quantum relative entropies, geometric-mean interpolations, and
barycentric Renyi divergences at desk scale (dense matrices, dim <= 64).

Submodules load on first use (PEP 562): ``import qrdiv`` imports neither
numpy nor any solver until one of the names below is read.
"""

import importlib

# the module that defines each exported name
_EXPORTS = {
    "barycentric": (
        "BarycenterResult", "GcqChannel", "SolverOptions", "barycentric_q", "barycentric_renyi",
        "barycentric_renyi_full", "dual_renyi",
    ),
    "classical": (
        "WeightMeasure", "WeightedFamily", "classical_rel_entropy", "classical_renyi",
        "hellinger_arc_point", "multivariate_q",
    ),
    "kinds": (
        "BelavkinStaszewski", "GeomWeighted", "MeasuredProjective", "Mixture", "Umegaki",
        "parse_kind", "parse_kinds",
    ),
    "relent": (
        "DivergenceValue", "axioms_check", "bs_rel_entropy", "measured_lower_bound", "rel_entropy",
        "umegaki",
    ),
    "renyi": (
        "MaxRenyiValue", "ReverseTest", "max_fdivergence", "max_relative_entropy", "max_renyi",
        "optimal_reverse_test", "reg_measured_renyi", "renyi_alpha_z",
    ),
    "supports": (
        "OpConvexFn", "abs_cont_part", "kubo_ando_mean", "kubo_ando_mean_real", "neg_log",
        "neg_power", "perspective", "power_fn", "x_log_x",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("barycentric", "classical", "errors", "hermitian", "relent", "renyi", "supports")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
