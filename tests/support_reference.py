"""Independent routes to the absolutely continuous part and the operator
perspective, for tests that check ``qrdiv.supports`` against them.

Each works in the input basis with full-space projections and the
eps-smoothed inputs, unlike the library's split into supp sigma and
ker sigma, so that an error in one route shows as a disagreement.
"""

import numpy as np

from qrdiv.hermitian import _derived_spectrum, herm_part, meet_bases, spectrum


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
