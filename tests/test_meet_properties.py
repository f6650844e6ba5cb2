"""Property tests of the support-meet rule: ``support_meet`` spans the meet
that ``meet_bases`` decomposes, decomposes nothing when one support lies in
the other, and the center solves on its basis agree with solves on
``meet_bases``' basis; and ``barycentric_q`` and the two-variable divergence
read one +inf gate and one meet on the near-cutoff pairs."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from qrdiv import hermitian
from qrdiv.barycentric import (
    GcqChannel,
    SolverOptions,
    _center,
    barycentric_q,
    barycentric_renyi,
    barycentric_renyi_full,
)
from qrdiv.hermitian import meet_bases, sample_unitary, spectrum, support_leq, support_meet
from qrdiv.relent import BelavkinStaszewski, Umegaki
from support_reference import leaky_eigenvector_pair, leaky_meet_pair

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

UM, BS = Umegaki(), BelavkinStaszewski()
SHAPES = ("rho_in_sigma", "sigma_in_rho", "equal", "full", "proper")


def _on(v, rng, trace):
    """A PSD operator of the given trace whose support is ran(v), for v
    with orthonormal columns, with eigenvalues in [0.1, 1] before scaling."""
    k = v.shape[1]
    y = v @ sample_unitary(k, rng)
    a = (y * rng.uniform(0.1, 1.0, k)) @ y.conj().T
    return a * (trace / np.trace(a).real)


@st.composite
def meet_cases(draw):
    """(shape, rho, sigma) at d in 2..6 with traces in [1e-3, 1e3]. The
    supports are nested either way (a generic subspace of the other
    support, possibly all of it), equal, both of full rank, or have a
    proper meet M = ran(W_M) of dimension m >= 1: supp rho is M plus k1
    further columns of W, and supp sigma M plus a generic k2-dimensional
    subspace of M's complement, with k1 + k2 <= d - m so that the two
    meet in M alone."""
    shape = draw(st.sampled_from(SHAPES))
    d = draw(st.integers(3 if shape == "proper" else 2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tr_rho, tr_sig = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))
    w = sample_unitary(d, rng)
    if shape == "full":
        sr = ss = w
    elif shape == "proper":
        m = draw(st.integers(1, d - 2))
        k1 = draw(st.integers(1, d - m - 1))
        k2 = draw(st.integers(1, d - m - k1))
        z = w[:, m:] @ sample_unitary(d - m, rng)[:, :k2]
        sr, ss = w[:, :m + k1], np.hstack([w[:, :m], z])
    else:
        big = w[:, :draw(st.integers(1, d))]
        small = big if shape == "equal" else big @ sample_unitary(
            big.shape[1], rng)[:, :draw(st.integers(1, big.shape[1]))]
        sr, ss = (small, big) if shape != "sigma_in_rho" else (big, small)
    return shape, _on(sr, rng, tr_rho), _on(ss, rng, tr_sig)


@hypothesis.given(meet_cases())
def test_support_meet_spans_the_decomposed_meet(case):
    shape, rho, sigma = case
    sr, ss = spectrum(rho), spectrum(sigma)
    # a function-scoped fixture would span every example: the handle is
    # patched here, as the lapack fixture patches it
    handle = SimpleNamespace(eigh_lo=mock.Mock(wraps=hermitian._lapack.eigh_lo),
                             eigvalsh_lo=mock.Mock(wraps=hermitian._lapack.eigvalsh_lo))
    with mock.patch.object(hermitian, "_lapack", handle):
        b = support_meet(sr, ss)
    # one support lies in the other: its basis is the meet, no decomposition
    assert handle.eigh_lo.call_count == (1 if shape == "proper" else 0)
    assert handle.eigvalsh_lo.call_count == 0
    b0 = meet_bases(sr.proj, ss.proj)[0]
    assert b.shape == b0.shape
    assert np.abs(b @ b.conj().T - b0 @ b0.conj().T).max() <= 1e-10


@hypothesis.given(meet_cases())
def test_solves_on_the_helper_basis_match_the_decomposed_meet(case):
    rho, sigma = case[1:]
    sr, ss = spectrum(rho), spectrum(sigma)
    b0 = meet_bases(sr.proj, ss.proj)[0]
    opts = SolverOptions(restarts=0)
    for kinds in ((UM, BS), (BS, BS)):
        res = barycentric_renyi_full(0.5, kinds, rho, sigma, opts)
        _, radius, _, _, conv = _center((0.5, 0.5), kinds, (rho, sigma), (sr, ss), b0, opts)
        ref = (-radius - math.log(np.trace(rho).real)) / (0.5 - 1.0)
        assert res["converged"] and conv
        assert abs(res["value"] - ref) <= 1e-10, (kinds, res["value"], ref)


def test_meet_stays_inside_a_support_the_inclusion_rule_accepts():
    # ran(rho) <= ran(sigma) by the inclusion rule, but supp rho is no meet
    # basis; the meet is e1
    rho, sigma = leaky_meet_pair()
    sr, ss = spectrum(rho), spectrum(sigma)
    assert support_leq(sr, ss)
    b = support_meet(sr, ss)
    assert b.shape[1] == 1
    assert np.abs(ss.kernel.conj().T @ b).max() <= 1e-12
    # the values on the meet e1; a meet along supp rho, which leaks 0.77
    # into ker sigma, moves um,um by 7.4e-5
    pinned = {(UM, UM): 0.510825626165991, (UM, BS): 0.5108256261659907,
              (BS, BS): 0.5108256157367025}
    for kinds, value in pinned.items():
        assert abs(barycentric_renyi(0.5, kinds, rho, sigma) - value) <= 1e-12, kinds


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("kinds", [(UM, UM), (UM, BS), (BS, BS)], ids=["um,um", "um,bs", "bs,bs"])
@pytest.mark.parametrize("pair", [leaky_eigenvector_pair, leaky_meet_pair])
def test_barycentric_q_and_the_two_variable_divergence_share_one_gate(pair, kinds, alpha):
    # the two-variable divergence is the normalized P = (alpha, 1 - alpha)
    # case of Q_P: both entry points decide Q = +inf and the meet alike,
    # here where an eigenvector of rho leaves supp sigma that the inclusion
    # rule keeps inside it
    rho, sigma = pair()
    opts = SolverOptions(restarts=0)
    res = barycentric_q(kinds, GcqChannel((0, 1), (rho, sigma)), (alpha, 1.0 - alpha), opts)
    value = (math.log(res.q_value) - math.log(np.trace(rho).real)) / (alpha - 1.0)
    ref = barycentric_renyi_full(alpha, kinds, rho, sigma, opts)["value"]
    assert abs(value - ref) <= 1e-12, (value, ref)
