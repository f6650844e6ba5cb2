"""Absolutely continuous parts, operator perspective functions, and
Kubo-Ando weighted geometric means.

The gamma in {0, 1} endpoints of the geometric mean follow the continuity
convention: ``sigma #_0 rho`` is the part of sigma absolutely continuous
w.r.t. rho, and ``sigma #_1 rho`` the part of rho absolutely continuous
w.r.t. sigma.

Absolutely continuous parts, perspectives and means are taken in the
coordinates of one split of the space: the eigenbasis B of supp sigma and a
basis C of ker sigma, from sigma's one decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter, InfiniteLimit, NotInvertible
from .hermitian import Spectrum, eigh_desc, herm_part, operands

INF = float("inf")


@dataclass(frozen=True)
class OpConvexFn:
    """Scalar function on (0, inf) together with its boundary limits.

    ``transpose_at_zero_plus`` is the limit at 0+ of x * f(1/x), i.e. the
    slope of f at infinity. The operator-convexity flag is declared, not
    verified.
    """

    name: str
    f: Callable[[float], float]
    f_at_zero_plus: float
    transpose_at_zero_plus: float
    is_operator_convex: bool = True

    def transpose(self) -> "OpConvexFn":
        return OpConvexFn(
            name=f"transpose({self.name})",
            f=lambda x: x * self.f(1.0 / x),
            f_at_zero_plus=self.transpose_at_zero_plus,
            transpose_at_zero_plus=self.f_at_zero_plus,
            is_operator_convex=self.is_operator_convex,
        )


def power_fn(alpha: float) -> OpConvexFn:
    """x^alpha for alpha in [0, 2]; operator convex on [1, 2], concave on [0, 1]."""
    if not 0.0 <= alpha <= 2.0:
        raise BadParameter(f"power exponent {alpha} outside [0, 2]")
    return OpConvexFn(
        name=f"pow[{alpha}]",
        f=lambda x: x**alpha,
        f_at_zero_plus=1.0 if alpha == 0.0 else 0.0,
        transpose_at_zero_plus=0.0 if alpha < 1.0 else (1.0 if alpha == 1.0 else INF),
        is_operator_convex=alpha >= 1.0,
    )


def x_log_x() -> OpConvexFn:
    return OpConvexFn("xlogx", lambda x: x * math.log(x), 0.0, INF)


def neg_log() -> OpConvexFn:
    return OpConvexFn("neglog", lambda x: -math.log(x), INF, 0.0)


def neg_power(gamma: float) -> OpConvexFn:
    if not 0.0 < gamma < 1.0:
        raise BadParameter(f"-x^gamma needs gamma in (0, 1), got {gamma}")
    return OpConvexFn(f"negpow[{gamma}]", lambda x: -(x**gamma), 0.0, 0.0)


# ---------------------------------------------------------------------------
# absolutely continuous part


def abs_cont_part(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Largest 0 <= C <= rho with ran(C) inside ran(sigma), via the Schur
    complement of rho with respect to the kernel of sigma."""
    (rho, _), (sr, ss) = operands(rho, sigma)
    return ss.basis @ _abs_cont(rho, sr.cut, ss.basis, ss.kernel)[0] @ ss.basis.conj().T


def _abs_cont(rho: np.ndarray, cut: float, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """(B* rho_ac B, k): the part of rho absolutely continuous w.r.t. ran(B)
    in B's coordinates, the Schur complement
    B* rho B - B* rho C (C* rho C)^+ C* rho B, for orthonormal bases B of a
    subspace and C of its complement, and the rank k of C* rho C against
    ``cut``, rho's own (``hermitian.compressed_rank``), so that
    rank rho_ac = rank rho - k."""
    top = b.conj().T @ rho @ b
    if not c.shape[1]:
        return top, 0
    x = b.conj().T @ rho @ c
    kc = Spectrum(*eigh_desc(c.conj().T @ rho @ c), cut)
    return top - x @ kc.power(-1.0) @ x.conj().T, kc.rank


# ---------------------------------------------------------------------------
# operator perspective


def perspective(fn: OpConvexFn, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Operator perspective P_f(rho, sigma), the eps -> 0 limit of
    (sigma+eps)^{1/2} f((sigma+eps)^{-1/2}(rho+eps)(sigma+eps)^{-1/2}) (sigma+eps)^{1/2}.

    Closed form, in the eigenbasis V of supp sigma:
    sigma^{1/2} f(X) sigma^{1/2} with X = sigma^{-1/2} rho_ac sigma^{-1/2}
    graded there (``Spectrum.graded``), plus transpose(0+) (rho - rho_ac),
    where rho_ac is the part of rho absolutely continuous w.r.t. supp sigma.
    X has the rank of rho_ac, rank rho - k with k the rank of the
    compression of rho to ker sigma against rho's own cutoff (the rank
    ``_abs_cont`` returns); its other eigenvalues, and any that round to 0,
    take f(0+). Those carry f(0+) (sigma - sigma_ac), sigma_ac the part of
    sigma absolutely continuous w.r.t. supp rho, so no sigma_ac is formed.
    An infinite boundary limit needs a zero deficiency (0 * inf = 0);
    otherwise the limit does not exist (InfiniteLimit).
    """
    (rho, _), (sr, ss) = operands(rho, sigma)
    rho_ac, k = _abs_cont(rho, sr.cut, ss.basis, ss.kernel)
    out = _graded_perspective(fn, ss, rho_ac, sr.rank - k)
    if k:
        if not math.isfinite(fn.transpose_at_zero_plus):
            raise InfiniteLimit(f"{fn.name}: infinite boundary limit against a nonzero rho part")
        out = out + fn.transpose_at_zero_plus * (rho - ss.basis @ rho_ac @ ss.basis.conj().T)
    return herm_part(out)


def _graded_perspective(fn: OpConvexFn, ss: Spectrum, rho_ac: np.ndarray, rank: int
                        ) -> np.ndarray:
    """sigma^{1/2} f(X) sigma^{1/2} for sigma's Spectrum ``ss`` and X the
    graded sigma^{-1/2} rho_ac sigma^{-1/2} of the given rank, ``rho_ac``
    given in the coordinates of ss.basis; an eigenvalue of X at 0 takes
    f(0+), and InfiniteLimit if that is infinite."""
    x = ss.graded(rho_ac, rank)
    if not math.isfinite(fn.f_at_zero_plus) and x.w.size and x.w[-1] <= 0.0:
        raise InfiniteLimit(f"{fn.name}: infinite f(0+) at a zero eigenvalue of "
                            "sigma^{-1/2} rho_ac sigma^{-1/2}")
    return ss.ungraded(x.fn(lambda t: fn.f(t) if t > 0.0 else fn.f_at_zero_plus, False))


# ---------------------------------------------------------------------------
# Kubo-Ando weighted geometric means


def kubo_ando_mean(gamma: float, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """sigma #_gamma rho for gamma in [0, 1] and arbitrary PSD inputs."""
    if not 0.0 <= gamma <= 1.0:
        raise BadParameter(f"gamma {gamma} outside [0, 1]")
    if gamma == 0.0:
        return abs_cont_part(sigma, rho)
    if gamma == 1.0:
        return abs_cont_part(rho, sigma)
    return perspective(power_fn(gamma), rho, sigma)


def kubo_ando_mean_real(gamma: float, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """sigma #_gamma rho for any finite real gamma; both inputs must be invertible."""
    if not math.isfinite(gamma):
        raise BadParameter(f"gamma must be finite, got {gamma}")
    (rho, _), (sr, ss) = operands(rho, sigma)
    for name, s in (("rho", sr), ("sigma", ss)):
        if s.w[-1] <= s.cut:
            raise NotInvertible(f"{name} has an eigenvalue at or below the cutoff")
    v = ss.basis
    x = ss.graded(v.conj().T @ rho @ v, len(rho))
    return ss.ungraded(x.fn(lambda t: t**gamma, False))
