"""Accuracy on ill-conditioned inputs: the closed forms against 50-digit
mpmath references, two-copy additivity, and the center solver on commuting
pairs of condition number 1e8.

F_kappa draws states U diag(w / sum w) U* with w = exp(uniform(-ln kappa, 0))
per entry, w[0] = 1 and w[1] = 1 / kappa (so the condition number is
kappa), and then a Haar unitary U.
"""

import math

import mp_reference as mpr
import numpy as np
import pytest

from qrdiv.barycentric import SolverOptions, barycentric_renyi
from qrdiv.classical import classical_renyi
from qrdiv.errors import InfiniteLimit
from qrdiv.hermitian import sample_unitary, tensor
from qrdiv.relent import BelavkinStaszewski, GeomWeighted, Umegaki, bs_rel_entropy, rel_entropy
from qrdiv.renyi import max_fdivergence, max_relative_entropy, max_renyi, renyi_alpha_z
from qrdiv.supports import neg_log, perspective, x_log_x

_GEOM = GeomWeighted(Umegaki(), 0.5)


def _weights(d, kappa, rng):
    w = np.exp(rng.uniform(-math.log(kappa), 0.0, d))
    w[0], w[1] = 1.0, 1.0 / kappa
    return w


def _state(d, kappa, rng):
    w = _weights(d, kappa, rng)
    u = sample_unitary(d, rng)
    return (u * (w / w.sum())) @ u.conj().T


# (name, float64 value, mpmath reference)
_FORMS = [
    ("bs", bs_rel_entropy, mpr.bs),
    ("geom:um:0.5", lambda r, s: rel_entropy(_GEOM, r, s).value,
     lambda r, s: mpr.geom_um(0.5, r, s)),
    ("max_renyi(0.5)", lambda r, s: max_renyi(0.5, r, s).value,
     lambda r, s: mpr.max_renyi(0.5, r, s)),
    ("az(0.7, 0.3)", lambda r, s: renyi_alpha_z(0.7, 0.3, r, s),
     lambda r, s: mpr.alpha_z(0.7, 0.3, r, s)),
    ("dmax", max_relative_entropy, mpr.dmax),
]


def _bound(name, kappa):
    if name == "az(0.7, 0.3)":
        # past kappa = 1e4 the product has an eigenvalue near 1e-18, which
        # enters as w^0.3: float64 cannot resolve it
        return 1e-6 if kappa <= 1e4 else 1e-3
    return {"bs": 1e-8, "geom:um:0.5": 1e-5, "max_renyi(0.5)": 1e-4, "dmax": 1e-8}[name]


@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e5, 1e6])
def test_closed_forms_match_mpmath_on_ill_conditioned_states(kappa):
    rng = np.random.default_rng(1)
    errors = {name: 0.0 for name, *_ in _FORMS}
    for _ in range(4):
        rho = _state(4, kappa, rng)
        sig = _state(4, kappa, rng)
        for name, value, ref in _FORMS:
            errors[name] = max(errors[name], abs(value(rho, sig) - float(ref(rho, sig))))
    assert all(err <= _bound(name, kappa) for name, err in errors.items()), errors


def _products(kappa, seed=5):
    rng = np.random.default_rng(seed)
    return [tuple(_state(2, kappa, rng) for _ in range(4)) for _ in range(4)]


@pytest.mark.parametrize("name, kappa", [("bs", 1e3), ("geom:um:0.5", 1e3),
                                         ("max_renyi(0.5)", 1e3), ("az(0.7, 0.3)", 1e2)])
def test_two_copy_additivity_on_ill_conditioned_factors(name, kappa):
    value = {n: v for n, v, _ in _FORMS}[name]
    worst = 0.0
    for r1, s1, r2, s2 in _products(kappa):
        joint = value(tensor(r1, r2), tensor(s1, s2))
        worst = max(worst, abs(joint - value(r1, s1) - value(r2, s2)))
    assert worst <= 1e-6


@pytest.mark.parametrize("seed", [5, 7])
def test_max_renyi_on_kappa_1e4_factors(seed):
    # condition number 1e8 for the product: sigma^{-1/2} rho_ac sigma^{-1/2}
    # has entries near 1e8, whose rounding asymmetry lies near 1e-8
    for r1, s1, r2, s2 in _products(1e4, seed):
        joint = max_renyi(0.5, tensor(r1, r2), tensor(s1, s2)).value
        parts = max_renyi(0.5, r1, s1).value + max_renyi(0.5, r2, s2).value
        assert abs(joint - parts) <= 1e-2


def test_center_solver_on_commuting_kappa_1e8_pairs():
    rng = np.random.default_rng(12)
    opts = SolverOptions(restarts=0)
    for _ in range(6):
        u = sample_unitary(6, rng)
        p = _weights(6, 1e8, rng)
        q = _weights(6, 1e8, rng)
        p, q = p / p.sum(), q / q.sum()
        rho, sig = (u * p) @ u.conj().T, (u * q) @ u.conj().T
        bs = barycentric_renyi(0.3, (BelavkinStaszewski(),) * 2, rho, sig, opts)
        assert abs(bs - classical_renyi(0.3, p, q)) <= 1e-6
        # geom,geom is not asserted against the classical value: the stop
        # test leaves it up to about 2e-3 off on these pairs
        assert math.isfinite(barycentric_renyi(0.3, (_GEOM, _GEOM), rho, sig, opts))


def test_max_fdivergence_where_the_product_rounds_to_zero():
    # condition number 5e8 per input: X = sigma^{-1/2} rho sigma^{-1/2}
    # spans about 1e-12 to 1e6, so its smallest eigenvalue can round to
    # <= 0 (on 2 of these 6 pairs), where f takes f(0+)
    rng = np.random.default_rng(0)
    for _ in range(6):
        u, v = sample_unitary(3, rng), sample_unitary(3, rng)
        rho = (u * np.array([1.0, 0.3, 2e-9])) @ u.conj().T
        sig = (v * np.array([1e3, 1.0, 2e-6])) @ v.conj().T
        # the maximal f-divergence of x log x is the BS relative entropy
        assert abs(max_fdivergence(x_log_x(), rho, sig) - float(mpr.bs(rho, sig))) <= 1e-5
        try:
            assert math.isfinite(np.trace(perspective(neg_log(), rho, sig)).real)
        except InfiniteLimit:
            pass  # -log has no finite f(0+)


def test_ranks_of_unnormalized_pairs_use_the_input_cutoff():
    # 5e-7 lies below rho's cutoff 1e-9 * 1e3 but above that of its
    # compression to ker sigma, so a rank counted with the compression's own
    # cutoff would drop the support of rho_ac (D_0.5^max = +inf) or go negative
    dmax = math.log(1e3)
    for p, q in (([1e3, 5e-7], [1.0, 0.0]), ([1e3, 0.0, 5e-7, 5e-7], [1.0, 1.0, 0.0, 0.0])):
        rho, sig = np.diag(p).astype(complex), np.diag(q).astype(complex)
        assert max_relative_entropy(rho, sig) == pytest.approx(dmax, abs=1e-12)
        # the trace of rho below its cutoff, outside supp sigma, is not a
        # singular index of the reverse test, as it is not a support of rho
        assert max_renyi(0.5, rho, sig).value <= dmax + 1e-12
    # the same for the rank of P_rho P_sigma in the alpha-z product: a
    # rounding eigenvalue near 1e-9 would enter as w^0.3
    u = sample_unitary(3, np.random.default_rng(3))
    rho = (u * np.array([1e3, 5e-7, 1.0])) @ u.conj().T
    sig = (u * np.array([0.0, 1.0, 1.0])) @ u.conj().T
    expected = math.log(np.trace(rho).real) / 0.3  # Q = 1 on the third direction
    assert renyi_alpha_z(0.7, 0.3, rho, sig) == pytest.approx(expected, abs=1e-9)
