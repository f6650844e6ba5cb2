"""Classical relative entropy, Renyi divergences, and the multi-variate
Q_P for finitely supported signed weights.

Divergence values are floats; +inf encodes the support-violation cases.
Classical vectors are treated as exact data: an entry is in the support
iff it is > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousDefinition,
    BadParameter,
    DisjointSupports,
    LengthMismatch,
)
from .kinds import _check_alpha

INF = float("inf")

PROBABILITY = "probability"
ONE_POSITIVE_SIGNED = "one_positive_signed"
OTHER = "other"


def classify_weights(weights) -> str:
    """Signed-measure class of weights summing to 1.

    probability: all weights >= 0. one_positive_signed: exactly one positive
    weight, the rest <= 0. other: anything else.
    """
    w = np.asarray(weights, dtype=float)
    if abs(w.sum() - 1.0) > 1e-12:
        raise BadParameter(f"weights sum to {w.sum()!r}, expected 1")
    if np.all(w >= 0.0):
        return PROBABILITY
    if np.sum(w > 0.0) == 1:
        return ONE_POSITIVE_SIGNED
    return OTHER


@dataclass(frozen=True)
class WeightMeasure:
    """Finitely supported signed measure on labels, summing to 1."""

    labels: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.weights):
            raise LengthMismatch("labels and weights differ in length")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        classify_weights(self.weights)  # validates the sum

    @property
    def kind_class(self) -> str:
        return classify_weights(self.weights)


@dataclass(frozen=True)
class WeightedFamily:
    """Weight measure P plus one nonnegative vector w_x per label."""

    labels: tuple
    weights: tuple
    values: np.ndarray  # len(labels) x |I|, entrywise >= 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != len(self.labels):
            raise LengthMismatch("values must be one row per label")
        if np.any(vals < 0.0):
            raise BadParameter("values must be entrywise nonnegative")
        if len(self.weights) != len(self.labels):
            raise LengthMismatch("labels and weights differ in length")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "values", vals)
        classify_weights(self.weights)

    @property
    def kind_class(self) -> str:
        return classify_weights(self.weights)


def _check_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise LengthMismatch(f"shapes {p.shape} vs {q.shape}")
    if np.any(p < 0) or np.any(q < 0):
        raise BadParameter("entries must be nonnegative")
    return p, q


def _q_alpha_rows(alpha, p, q) -> np.ndarray:
    """sum p^alpha q^(1-alpha) over the common support, along the last
    axis; +inf for alpha > 1 where supp p is not inside supp q. Unchecked."""
    both = (p > 0) & (q > 0)
    terms = np.where(both, p, 1.0) ** alpha * np.where(both, q, 1.0) ** (1.0 - alpha)
    qa = np.sum(np.where(both, terms, 0.0), axis=-1)
    if alpha > 1:
        qa = np.where(np.any((p > 0) & (q == 0.0), axis=-1), INF, qa)
    return qa


def _kl_rows(pq) -> tuple[np.ndarray, np.ndarray]:
    """(sum p (log p - log q) along the last axis, log p - log q) for
    nonnegative p, q stacked as pq = (p, q) along the first axis. The
    log-ratio is 0 off supp p and +inf where q = 0 < p. Unchecked; the
    caller ignores divide-by-zero warnings."""
    lp, lq = np.log(np.where(pq[0] > 0, pq, 1.0))
    diff = lp - lq
    return (pq[0] * diff).sum(axis=-1), diff


def _renyi_rows(alpha, p, q) -> np.ndarray:
    """Renyi alpha-divergence along the last axis of nonnegative arrays;
    alpha = None is the relative entropy sum p (log p - log q), alpha = 1
    that normalized by sum p. +inf encodes the support violations. Rows p
    must be nonzero unless alpha is None (D(0||q) = 0). Unchecked, and the
    caller ignores divide-by-zero warnings: the checked forms are
    classical_rel_entropy and classical_renyi."""
    if alpha is None or alpha == 1:
        kl = _kl_rows(np.stack((p, q)))[0]
        return kl if alpha is None else kl / np.sum(p, axis=-1)
    sp = p > 0
    if alpha == INF:
        # p / 0 = +inf flags a support violation
        return np.log(np.max(np.where(sp, p / np.where(sp, q, 1.0), -INF), axis=-1))
    log_mass = np.log(np.sum(p, axis=-1))
    if alpha == 0:
        return log_mass - np.log(np.sum(np.where(sp, q, 0.0), axis=-1))
    qa = _q_alpha_rows(alpha, p, q)
    return np.where(qa == 0.0, INF, (np.log(qa) - log_mass) / (alpha - 1.0))


def classical_rel_entropy(p, q) -> float:
    """Kullback-Leibler divergence sum p (log p - log q); +inf unless
    supp p is contained in supp q. D(0||q) = 0 and D(p||0) = +inf."""
    p, q = _check_pair(p, q)
    with np.errstate(divide="ignore"):
        return float(_renyi_rows(None, p, q))


def classical_q_alpha(alpha: float, p, q) -> float:
    """Q_alpha = sum p^alpha q^(1-alpha) with the standard zero conventions;
    +inf for alpha > 1 when supp p is not inside supp q."""
    p, q = _check_pair(p, q)
    if alpha <= 0 or alpha == 1:
        raise BadParameter("classical_q_alpha needs alpha in (0,1) or (1,inf)")
    return float(_q_alpha_rows(alpha, p, q))


def classical_renyi(alpha, p, q) -> float:
    """Renyi alpha-divergence for alpha in [0, inf]; alpha = 1 is the
    relative entropy normalized by sum p."""
    p, q = _check_pair(p, q)
    _check_alpha(alpha)
    if p.sum() == 0.0:
        raise BadParameter("first argument must be nonzero")
    with np.errstate(divide="ignore"):
        return float(_renyi_rows(alpha, p, q))


def multivariate_q(family: WeightedFamily) -> float:
    """Multi-variate Renyi Q_P(w): per-index weighted geometric products with
    the 0 / 1 / +inf gate on the zero pattern.

    Defined only when the two definitions (limit and variational) provably
    agree: equal supports on supp P, or P probability / one-positive-signed.
    """
    w = family.values
    pw = np.asarray(family.weights, dtype=float)
    active = pw != 0.0
    cls = family.kind_class
    supports = [frozenset(np.flatnonzero(w[x] > 0.0)) for x in range(w.shape[0])]
    act_supports = {supports[x] for x in np.flatnonzero(active)}
    if cls == OTHER and len(act_supports) > 1:
        raise AmbiguousDefinition(
            "signed weights outside the admissible classes with unequal supports"
        )
    total = 0.0
    for i in range(w.shape[1]):
        zero_mass = float(np.sum(pw[active & (w[:, i] == 0.0)]))
        if zero_mass > 0.0:
            continue
        pos = active & (w[:, i] > 0.0)
        prod = float(np.exp(np.sum(pw[pos] * np.log(w[pos, i]))))
        if zero_mass < 0.0:
            return INF
        total += prod
    return total


def hellinger_arc_point(alpha: float, p, q) -> np.ndarray:
    """Normalized p^alpha q^(1-alpha) on the common support (Hellinger arc)."""
    p, q = _check_pair(p, q)
    both = (p > 0) & (q > 0)
    if not np.any(both):
        raise DisjointSupports("no common support index")
    omega = np.zeros_like(p)
    omega[both] = p[both] ** alpha * q[both] ** (1.0 - alpha)
    return omega / omega.sum()
