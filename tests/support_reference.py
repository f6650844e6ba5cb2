"""Independent routes to the absolutely continuous part and the operator
perspective, for tests that check ``qrdiv.supports`` against them; and the
near-cutoff pairs that tests of the support rules pin.

Each route works in the input basis with full-space projections and the
eps-smoothed inputs, unlike the library's split into supp sigma and
ker sigma, so that an error in one route shows as a disagreement.
"""

import math

import numpy as np

from qrdiv.hermitian import _derived_spectrum, herm_part, meet_bases, sample_unitary, spectrum


def abs_cont_part_kernel_formula(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Independent route: S rho^{1/2} K rho^{1/2} S with K the projection
    onto the kernel of rho^{1/2} (I - S) rho^{1/2}, whose rank is rank rho
    less the dimension of the meet of the supports."""
    rho = np.asarray(rho, dtype=complex)
    sr, ss = spectrum(rho), spectrum(sigma)
    s, eye = ss.proj, np.eye(rho.shape[0])
    root = sr.power(0.5)
    rank = sr.basis.shape[1] - meet_bases(sr.proj, s)[0].shape[1]
    k = eye - _derived_spectrum(root @ (eye - s) @ root, rank).proj
    return herm_part(s @ root @ k @ root @ s)


def perspective_smoothed(fn, rho: np.ndarray, sigma: np.ndarray, eps: float) -> np.ndarray:
    """P_f(rho + eps I, sigma + eps I) evaluated directly (all invertible)."""
    d = rho.shape[0]
    re = np.asarray(rho, dtype=complex) + eps * np.eye(d)
    se = np.asarray(sigma, dtype=complex) + eps * np.eye(d)
    sse = spectrum(se)
    sh = sse.power(0.5)
    shi = sse.power(-0.5)
    return sh @ _derived_spectrum(shi @ re @ shi, d).fn(fn.f, on_support_only=False) @ sh


# ---------------------------------------------------------------------------
# near-cutoff pairs: ran(rho) <= ran(sigma) by the inclusion rule, though an
# eigenvector of rho leaves supp sigma


def leaky_eigenvector_pair():
    """(rho, sigma) with supp rho = supp sigma, where rho's eigenvalue just
    above its cutoff has an eigenvector good to only about eps / 1e-9, so
    that it leaves supp sigma by 1.26e-7 while rho's compression to
    ker sigma is at rounding level."""
    w = sample_unitary(3, 16)
    y = np.eye(3, dtype=complex)
    y[:2, :2] = sample_unitary(2, 1016)
    sigma = (w * [1.0, 0.5, 0.0]) @ w.conj().T
    rho = w @ (y * [1.0, 1.01e-9, 0.0]) @ y.conj().T @ w.conj().T
    return rho, sigma


def leaky_meet_pair():
    """(rho, sigma) where rho's eigenvalue 1.2e-9 sits just above its
    cutoff, on a vector that leaves supp sigma at weight 0.6: rho's
    compression to ker sigma, 7.2e-10, is below that cutoff, but supp rho
    is no meet basis; the meet is W e1."""
    w = sample_unitary(3, 5)
    sigma = (w * [0.6, 0.4, 0.0]) @ w.conj().T
    v1, v2 = np.eye(3)[0], np.array([0.0, math.sqrt(0.4), math.sqrt(0.6)])
    rho = w @ (np.outer(v1, v1) + 1.2e-9 * np.outer(v2, v2)) @ w.conj().T
    return rho, sigma
