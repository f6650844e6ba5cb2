"""Property test of the alpha = inf dual behind um,bs and um against a um/bs
mixture: the returned bracket is closed within tol, its lower end is the
objective at the returned pure center, and its upper end bounds the
objective at every pure state of the support meet."""

import math

import numpy as np
import pytest

from qrdiv.barycentric import SolverOptions, barycentric_renyi_full
from qrdiv.hermitian import sample_state, sample_unitary, spectrum
from qrdiv.relent import BelavkinStaszewski, Mixture, Umegaki, bs_rel_entropy, umegaki

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

UM, BS = Umegaki(), BelavkinStaszewski()


@st.composite
def dual_cases(draw):
    """(rho, sigma, t): d in 2..6, sigma of rank r >= 1 and rho of rank
    k <= r inside supp sigma, each scaled to a trace in [1e-3, 1e3]; t in
    {0.25, 0.5, 1} is the weight of bs in the second generator."""
    d = draw(st.integers(2, 6))
    r = draw(st.integers(1, d))
    k = draw(st.integers(1, r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = sample_unitary(d, rng)[:, :r]
    sig = v @ sample_state(r, r, rng) @ v.conj().T
    rho = v @ sample_state(r, k, rng) @ v.conj().T
    tr_rho, tr_sig = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    return tr_rho * rho, tr_sig * sig, draw(st.sampled_from((0.25, 0.5, 1.0)))


@hypothesis.given(dual_cases(), st.integers(0, 2**32 - 1))
def test_dual_brackets_the_sup_over_pure_states(case, seed):
    rho, sig, t = case
    q1 = BS if t == 1.0 else Mixture(((t, BS), (1.0 - t, UM)))
    tol = SolverOptions().tol
    res = barycentric_renyi_full(math.inf, (UM, q1), rho, sig)
    assert res["converged"] and 0.0 <= res["gap"] <= tol

    def obj(omega):
        return (t * bs_rel_entropy(omega, sig) + (1.0 - t) * umegaki(omega, sig)
                - umegaki(omega, rho))

    assert abs(obj(res["center"]) - res["value"]) <= 1e-10
    # the meet of the supports is supp rho, as supp rho <= supp sigma
    b = spectrum(rho).basis
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(b.shape[1], 20)) + 1j * rng.normal(size=(b.shape[1], 20))
    for x in (b @ g).T:
        x = x / np.linalg.norm(x)
        assert obj(np.outer(x, x.conj())) <= res["value"] + res["gap"] + 1e-10
