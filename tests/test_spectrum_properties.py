"""Property tests of the Spectrum layout: every constructor yields
non-increasing eigenvalues, so the support and kernel bases are the
leading and trailing columns of ``u``, the eigenvectors with ``w > cut``
and ``w <= cut``."""

import numpy as np
import pytest

from qrdiv.barycentric import _Term
from qrdiv.hermitian import (
    CLUSTER_RTOL,
    SUPPORT_RTOL,
    _cut_spectrum,
    _derived_spectrum,
    eigh_desc,
    sample_state,
    sample_unitary,
    spectrum,
)
from qrdiv.relent import BelavkinStaszewski, GeomWeighted, Umegaki

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def eigenvalue_cases(draw):
    """(a, rng): a PSD a = W diag(q) W* at d in 1..5, with W Haar, and a
    generator for the other operands. Each entry of q after the leading 1
    is zero, within 10x of SUPPORT_RTOL on either side, a near copy of the
    previous entry (relative gap up to CLUSTER_RTOL / 2), or in [0.1, 1];
    q is then scaled by 10^[-3, 3]."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = [1.0]
    for _ in range(d - 1):
        kind = draw(st.sampled_from(("zero", "near-cutoff", "cluster", "regular")))
        if kind == "zero":
            q.append(0.0)
        elif kind == "near-cutoff":
            q.append(SUPPORT_RTOL * 10.0 ** draw(st.floats(-1.0, 1.0)))
        elif kind == "cluster":
            q.append(q[-1] * (1.0 - draw(st.floats(0.0, CLUSTER_RTOL / 2))))
        else:
            q.append(draw(st.floats(0.1, 1.0)))
    w = sample_unitary(d, rng)
    a = (w * (np.array(q) * 10.0 ** draw(st.floats(-3.0, 3.0)))) @ w.conj().T
    return (a + a.conj().T) / 2, rng


def _assert_layout(sp):
    w = sp.w
    assert np.all(w[:-1] >= w[1:]), w
    keep = w > sp.cut
    assert sp.rank == np.count_nonzero(keep)
    assert np.array_equal(sp.basis, sp.u[:, keep])
    assert np.array_equal(sp.kernel, sp.u[:, ~keep])


@hypothesis.given(eigenvalue_cases())
def test_every_spectrum_constructor_yields_descending_eigenvalues(case):
    a, rng = case
    d = len(a)
    sp = spectrum(a)
    _assert_layout(sp)
    _assert_layout(_cut_spectrum(*eigh_desc(a)))
    for rank in range(d + 1):
        _assert_layout(_derived_spectrum(a, rank))
    if not sp.rank:
        return
    v = sp.basis
    b = sample_state(d, d, rng)
    for rank in range(sp.rank + 1):
        _assert_layout(sp.graded(v.conj().T @ b @ v, rank))
    # an orthonormal basis of the whole support: compressed reads it off sp
    turned = v @ sample_unitary(sp.rank, rng)
    _assert_layout(sp.compressed(turned))
    for kind in (BelavkinStaszewski(), GeomWeighted(Umegaki(), 0.5)):
        _assert_layout(_Term(1.0, kind, a, turned, sp).g_spec)


def test_basis_and_kernel_are_read_only_views_of_u():
    sp = spectrum(np.diag([0.5, 0.5, 0.0]))
    for part in (sp.basis, sp.kernel):
        assert np.shares_memory(part, sp.u)
        with pytest.raises(ValueError):
            part[0, 0] = 1.0
