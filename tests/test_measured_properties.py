"""Property tests of the measured relative-entropy ascent."""

import math

import numpy as np
import pytest

from qrdiv.classical import classical_rel_entropy
from qrdiv.hermitian import sample_state, spectral_decompose
from qrdiv.relent import measured_lower_bound, umegaki

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def scaled_pairs(draw):
    """(rho, sigma) at d in {2, 3, 4}: rho of any rank, sigma of full rank,
    each with a trace in [1e-3, 1e3]."""
    d = draw(st.integers(2, 4))
    rank = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tr_r, tr_s = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    return tr_r * sample_state(d, rank, rng), tr_s * sample_state(d, d, rng)


def _classical_in(u, rho, sigma):
    """The relative entropy of the diagonals of u* rho u and u* sigma u."""
    return classical_rel_entropy(np.diagonal(u.conj().T @ rho @ u).real,
                                 np.diagonal(u.conj().T @ sigma @ u).real)


@hypothesis.given(scaled_pairs())
def test_measured_bound_lies_between_its_starts_and_umegaki(pair):
    # a start's value can only rise, so no stop rule may return below the
    # identity start or the joint-diagonalizer start, which the ascent takes
    # from the pair scaled to unit trace; the value is the one of the basis
    # returned
    rho, sigma = pair
    v, u = measured_lower_bound(rho, sigma, restarts=2, iters=50)
    assert abs(v - _classical_in(u, rho, sigma)) <= 1e-12 * max(1.0, abs(v))
    _, u_joint = spectral_decompose(rho / np.trace(rho).real
                                    + math.sqrt(2.0) * sigma / np.trace(sigma).real)
    assert v >= _classical_in(np.eye(rho.shape[0]), rho, sigma) - 1e-12
    assert v >= _classical_in(u_joint, rho, sigma) - 1e-12
    assert v <= umegaki(rho, sigma) + 1e-12
