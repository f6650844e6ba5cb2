"""Property tests of the zero rule: every kind decides which parts of rho
and sigma are zero from their supports, at any trace scale."""

import math

import numpy as np
import pytest

from qrdiv.hermitian import SUPPORT_RTOL, sample_state, sample_unitary, spectrum
from qrdiv.relent import (
    GeomWeighted,
    MeasuredProjective,
    Umegaki,
    bs_rel_entropy,
    rel_entropy,
    umegaki,
)
from qrdiv.renyi import (
    max_fdivergence,
    max_relative_entropy,
    optimal_reverse_test,
    renyi_alpha_z,
)
from qrdiv.supports import x_log_x
from support_reference import leaky_eigenvector_pair

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GEOM = GeomWeighted(Umegaki(), 0.5)
KINDS = {
    "um": umegaki,
    "bs": bs_rel_entropy,
    "geom:um:0.5": lambda r, s: rel_entropy(GEOM, r, s).value,
    "fdiv:xlogx": lambda r, s: max_fdivergence(x_log_x(), r, s),
}


def _near_cutoff(draw):
    """An eigenvalue within 10x of SUPPORT_RTOL, on either side of it but
    not within 0.2% of it, where the rounding of lambda_max decides."""
    return SUPPORT_RTOL * 10.0 ** draw(st.floats(-1.0, 1.0).filter(lambda t: abs(t) > 1e-3))


@st.composite
def support_cases(draw):
    """(rho, sigma, a, b): rho and sigma at d in {2, 3} with largest
    eigenvalue 1, and independent trace scales a, b in [1e-6, 1e6].

    sigma = W diag(q) W* has k >= 0 zero eigenvalues. rho is either a
    generic full-rank state, or block diagonal between supp sigma and
    ker sigma: a rotated block of eigenvalues on supp sigma, and on
    ker sigma eigenvalues 0, near the cutoff or of order 1. One of rho's
    blocks or sigma may carry an eigenvalue within 10x of SUPPORT_RTOL;
    never both rho and sigma, whose product would then have a condition
    number of 1e16 to 1e20, past float64.
    """
    d = draw(st.integers(2, 3))
    k = draw(st.integers(0, d - 1))
    near = draw(st.sampled_from(("none", "rho", "sigma")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = sample_unitary(d, rng)
    q = np.zeros(d)
    q[:d - k] = rng.uniform(0.1, 1.0, d - k)
    q[0] = 1.0
    if d - k > 1 and near == "sigma":
        q[d - k - 1] = _near_cutoff(draw)
    sigma = (w * q) @ w.conj().T
    if draw(st.booleans()):
        rho = sample_state(d, d, rng)
        rho = rho / np.linalg.eigvalsh(rho)[-1]
    else:
        x = np.zeros(d)
        x[:d - k] = rng.uniform(0.1, 1.0, d - k)
        x[0] = 1.0
        if d - k > 1 and near == "rho" and draw(st.booleans()):
            x[d - k - 1] = _near_cutoff(draw)
        for i in range(d - k, d):
            outside = [0.0, rng.uniform(0.1, 1.0)]
            if near == "rho":
                outside.append(_near_cutoff(draw))
            x[i] = draw(st.sampled_from(outside))
        y = np.eye(d, dtype=complex)
        y[:d - k, :d - k] = sample_unitary(d - k, rng)
        rho = w @ (y * x) @ y.conj().T @ w.conj().T
    a, b = (10.0 ** draw(st.floats(-6.0, 6.0)) for _ in range(2))
    return rho, sigma, a, b


def _rank(a) -> int:
    return spectrum(a).basis.shape[1]


# rho with a part outside supp sigma, and that part's trace below 1e-10 of
# the traces' sum; rho inside supp sigma whose eigenvector test would fail
@hypothesis.example((np.diag([1.0, 1e-2]), np.diag([1.0, 0.0]), 1e-3, 1e6))
@hypothesis.example((*leaky_eigenvector_pair(), 1.0, 1.0))
@hypothesis.example((*leaky_eigenvector_pair(), 10.0, 1.0))
@hypothesis.given(support_cases())
def test_kinds_share_the_zero_rule_at_every_scale(case):
    rho, sigma, a, b = case
    ra, sb = a * rho, b * sigma
    vals = {name: f(ra, sb) for name, f in KINDS.items()}
    # the maximal f-divergence of x log x is the BS relative entropy, so
    # they must agree on finiteness: both read the same supports
    assert math.isfinite(vals["fdiv:xlogx"]) == math.isfinite(vals["bs"])
    if math.isfinite(vals["bs"]):
        assert abs(vals["fdiv:xlogx"] - vals["bs"]) <= 1e-5 * (a + abs(vals["bs"]))
    # scaling law D(a rho || b sigma) = a D(rho || sigma) + a Tr rho log(a / b),
    # wherever the cutoff, relative to max(1, lambda_max), keeps the same
    # eigenvalues at both scales
    if (_rank(ra), _rank(sb)) != (_rank(rho), _rank(sigma)):
        return
    tr = float(np.trace(rho).real)
    for name, f in KINDS.items():
        v1 = f(rho, sigma)
        if not math.isfinite(v1):
            assert vals[name] == v1, name
            continue
        expect = a * v1 + a * tr * math.log(a / b)
        scale = a * (1.0 + abs(v1) + tr * abs(math.log(a / b)))
        assert abs(vals[name] - expect) <= 1e-6 * scale, name


# sigma with an eigenvalue above its cutoff but below the cutoff of Tr sigma
@hypothesis.example((np.diag([1.0, 0.5, 0.2, 0.1]), np.diag([1.0, 1.0, 1.0, 1.5e-9]), 1.0, 1.0))
@hypothesis.given(support_cases())
def test_reverse_test_reproduces_both_inputs(case):
    rho, sigma, a, b = case
    ra, sb = a * rho, b * sigma
    rt = optimal_reverse_test(ra, sb)
    assert np.abs(rt.apply(rt.q) - sb).max() <= 1e-6 * max(1.0, b)
    assert np.abs(rt.apply(rt.p) - ra).max() <= 1e-6 * max(1.0, a)


def test_leaky_eigenvector_pair_is_inside_the_support_for_every_kind():
    # every kind reads ran(rho) <= ran(sigma) off rho's compression to
    # ker sigma, so none is +inf here, and each obeys the scaling law
    rho, sigma = leaky_eigenvector_pair()
    kinds = {
        "um": umegaki,
        "bs": bs_rel_entropy,
        "geom:um:0.5": lambda r, s: rel_entropy(GEOM, r, s).value,
        "dmax": max_relative_entropy,
        "az(1.5, inf)": lambda r, s: renyi_alpha_z(1.5, math.inf, r, s),
        "az(2, 2)": lambda r, s: renyi_alpha_z(2.0, 2.0, r, s),
        "meas": lambda r, s: rel_entropy(MeasuredProjective(), r, s).value,
    }
    tr = float(np.trace(rho).real)
    for name, f in kinds.items():
        v1, v10 = f(rho, sigma), f(10.0 * rho, sigma)
        assert math.isfinite(v1) and math.isfinite(v10), name
        # D(10 rho || sigma) = 10 D + 10 Tr rho log 10; the Renyi kinds and
        # D_max move by log 10 (their alpha - 1 normalization takes Tr rho)
        if name in ("dmax", "az(1.5, inf)", "az(2, 2)"):
            expect = v1 + math.log(10.0)
        else:
            expect = 10.0 * v1 + 10.0 * tr * math.log(10.0)
        assert abs(v10 - expect) <= 1e-6 * abs(expect), name
    assert abs(bs_rel_entropy(rho, sigma) - max_fdivergence(x_log_x(), rho, sigma)) <= 1e-5
