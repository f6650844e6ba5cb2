"""Weighted divergence radii / centers, multi-variate barycentric Q, the
two-variable barycentric Renyi divergences with their alpha in {0, 1, inf}
limits, and the derived geometric means.

Every value reads its kinds as generators (``_generators``: a mixture and a
geom over a mixture split by linearity, geom over BS is BS) and reaches the
center problem inf_omega sum_x P(x) D^{q_x}(omega || W_x) through one
function, ``_center``: the closed-form center when every generator is
Umegaki, else descent in the exponential parametrization
omega = exp(H) / Tr exp(H) on the compressed feasible subspace. Every convex
problem (every weight positive, measured terms included) takes mirror steps,
as does one of um and bs terms at any weight; one with a negative weight and
a measured or geom term steps in H. A convex problem runs one start (the
warm one where it is taken), and the random starts
(``SolverOptions.restarts``) run only where a weight is negative. Each
iterate is decomposed once: H's eigh gives omega and log omega, and memoized
decompositions serve every term's value and gradient (``_Iterate``). Every
generator has an analytic omega-gradient; the measured kind's is Danskin's
at its ascent's best basis (``_Iterate.measured``). At alpha = inf, Umegaki
first generators against Umegaki and BS second ones give a pure center from
a 1-D convex dual (``renyi._um_first_top``), and all-BS generators D_max.

The feasible subspace is the meet of the supports at nonzero weights, and
Q = +inf where an input at a positive weight has a part outside the support
of one at a negative weight (``support_leq``): ``_feasible_meet`` reads
both for every entry point. The meet, ``hermitian.support_meet``, is the
support of an input that lies in every other one, with that input's
eigenbasis as B, and only a proper meet from a decomposition of the
projections' sum. Where B spans an input's whole support, its compressions
are read off its spectrum: B* f(W) B = (B* V) f(w) (B* V)* for the support
eigenbasis V (``Spectrum.compressed``), for the um term's B* log W B and for
g = B* W^+ B of a bs or geom term with its powers and -log g; otherwise
they are formed, and g is decomposed once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .classical import classify_weights, OTHER
from .errors import BadParameter, DimensionMismatch, UnsupportedWeights
from .hermitian import (
    CLUSTER_RTOL,
    Spectrum,
    _derived_spectrum,
    eigh,
    operands,
    sample_hermitian,
    spectrum,
    support_leq,
    support_meet,
)
from .kinds import _check_alpha, _whole_counts
from .relent import (
    BelavkinStaszewski,
    EntropyKind,
    GeomWeighted,
    MeasuredProjective,
    Mixture,
    Umegaki,
    _empty_meet_renyi,
    _measured_lower_bound,
    _measured_slopes,
    _rel_entropy,
    _support_value,
)
from .renyi import _dmax_top, _log_euclidean_h, _nonzero_trace, _um_first_top

INF = float("inf")
# stop when the descent direction's norm falls below this
_GRAD_TOL = 1e-6
# largest Frobenius norm of a Barzilai-Borwein trial step in H
_MAX_BB_STEP = 10.0
# halvings before a line search gives up: past 12, only noise-level decreases passed
_MAX_HALVINGS = 20
# accepted values the nonmonotone (GLL) line search compares a trial against
_NM_WINDOW = 10


@dataclass(frozen=True)
class GcqChannel:
    """Labeled family (W_x) of PSD operators on a common space, read once
    (``hermitian.operands``) into ``operators`` and their ``spectra``."""

    labels: tuple
    operators: tuple  # of ndarray
    spectra: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.operators) != len(self.labels):
            raise DimensionMismatch("one operator per label required")
        ops, sps = operands(*self.operators)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "spectra", sps)
        if not any(sp.rank for sp in sps):
            raise BadParameter("at least one W_x must have an eigenvalue above its support cutoff")


@dataclass
class SolverOptions:
    iters: int = 500
    tol: float = 1e-8
    restarts: int = 4
    seed: int = 0
    warm_start: bool = True
    use_closed_form: bool = True

    def __post_init__(self):
        self.iters, self.restarts, self.seed = _whole_counts(
            "iters, restarts and seed", self.iters, self.restarts, self.seed)
        real = (int, float, np.integer, np.floating)  # any but a bool, stored as a float
        if isinstance(self.tol, bool) or not (isinstance(self.tol, real) and 0 < self.tol < INF):
            raise BadParameter(f"tol must be finite and > 0, got {self.tol!r}")
        self.tol = float(self.tol)
        if not (self.warm_start or self.restarts):
            raise BadParameter("the solver needs warm_start or restarts >= 1")


@dataclass
class BarycenterResult:
    q_value: float
    radius: float
    center: Optional[np.ndarray] = None
    geo_mean: Optional[np.ndarray] = None
    iterations: int = 0
    objective_gap: float = 0.0
    converged: bool = True

    def to_json(self) -> dict:
        from .hermitian import _json_float, matrix_to_json

        out = {
            "q_value": _json_float(self.q_value),
            "radius": _json_float(self.radius),
            "iterations": self.iterations,
            "objective_gap": self.objective_gap,
            "converged": self.converged,
        }
        if self.center is not None:
            out["center"] = matrix_to_json(self.center)
        if self.geo_mean is not None:
            out["geo_mean"] = matrix_to_json(self.geo_mean)
        return out


# ---------------------------------------------------------------------------
# compressed objective terms


class _Term:
    """One summand weight * D^kind(omega || W) on the compressed subspace, in
    mode um, bs, meas or geom (over um or meas; ``meas`` the measured kind)."""

    def __init__(self, weight: float, kind: EntropyKind, w_full: np.ndarray, basis: np.ndarray,
                 spec=None):
        """``spec`` is the Spectrum of ``w_full`` when the caller holds it."""
        self.weight = weight
        self.kind = kind
        self.basis = basis
        self.w_full = w_full
        self.spec = spectrum(w_full if spec is None else spec)
        base = kind.base if isinstance(kind, GeomWeighted) else kind
        self.meas = base if isinstance(base, MeasuredProjective) else None
        if isinstance(kind, Umegaki):
            self.mode = "um"
            self.logw = _log_euclidean_h((1.0,), (self.spec,), basis)
        elif isinstance(kind, MeasuredProjective):
            self.mode = "meas"
        elif isinstance(kind, (BelavkinStaszewski, GeomWeighted)):
            # ran(basis) lies in supp W: sig_eff = g^{-1}, g = B* W^+ B, is W's part absolutely
            # continuous there (all W #_g omega sees); g's spectrum gives its powers and -log g,
            # and g has the full rank of the block. Where ran(basis) is supp W, g's
            # eigenvalues are 1/w and its eigenvectors B* V, from W's own; else one eigh
            self.mode = "bs" if isinstance(kind, BelavkinStaszewski) else "geom"
            c = self.spec.compressed(basis)
            if c is None:
                g = basis.conj().T @ self.spec.power(-1.0) @ basis
                self.g_spec = _derived_spectrum(g, basis.shape[1])
            else:
                self.g_spec = Spectrum(1.0 / c.w[::-1], c.u[:, ::-1], 0.0)
            self.sig_isqrt = self.g_spec.power(0.5)
            if self.mode == "bs":
                self.sig_eff = self.g_spec.power(-1.0)
            else:
                self.sig_sqrt = self.g_spec.power(-0.5)

    def value(self, pt: _Iterate) -> float:
        if self.meas:
            # geom: D^meas(omega || M) / (1 - g) for the mean M = W #_g omega
            val = pt.measured(self)[0]
            return val if self.mode == "meas" else val / (1.0 - self.kind.gamma)
        if self.mode in ("um", "geom"):
            # geom: D^um(omega || M) / (1 - g)
            # Tr(omega L) = <L, omega> for Hermitian L
            if self.mode == "um":
                return pt.ent - float(np.vdot(self.logw, pt.omega).real)
            logm = pt.mean_eig(self)[2]
            return (pt.ent - float(np.vdot(logm, pt.omega).real)) / (1.0 - self.kind.gamma)
        # bs: Tr(sig_eff U diag(eta) U*) = sum_i eta_i C_ii, C = U* sig_eff U
        # eta = w log w, 0 at w = 0 (where the floor makes it 0 * log 1e-300)
        w, _, c = pt.bs_eig(self)
        w = np.maximum(w, 0.0)
        return float((w * np.log(np.maximum(w, 1e-300))) @ c.diagonal().real)

    def grad_omega(self, pt: _Iterate) -> np.ndarray:
        """Euclidean omega-gradient, up to a multiple of the identity."""
        if self.mode == "bs":
            return self._pullback(pt, lambda x: x * np.log(x), lambda x: np.log(x) + 1.0)
        if self.mode == "um":
            return pt.log_omega - self.logw
        # geom: D(omega || M) / (1 - g) with M = S X^g S has the gradient
        # (d1 - S^{-1} D(X^g)_X[S Y S] S^{-1}) / (1 - g), for d1 and -Y the
        # partial gradients of D(omega || M) in omega and in M
        if self.meas:
            # Danskin at the best basis U: d1 = U diag(log a/b) U*, Y = U diag(a/b) U*
            _, ub, da, db = pt.measured(self)
            d1 = (ub * da) @ ub.conj().T
            if self.mode == "meas":
                return d1
            y = -(ub * db) @ ub.conj().T
        else:
            # um: d1 = log omega - log M and Y = Dlog_M[omega]
            mu, q, logm, _ = pt.mean_eig(self)
            dlog = _divided_diff(mu, np.log, lambda x: 1.0 / x)
            y = q @ (dlog * (q.conj().T @ pt.omega @ q)) @ q.conj().T
            d1 = pt.log_omega - logm
        g = self.kind.gamma
        z = self.sig_sqrt @ y @ self.sig_sqrt
        adj = self._pullback(pt, lambda x: x**g, lambda x: g * x ** (g - 1.0), z)
        return (d1 - adj) / (1.0 - g)

    def _pullback(self, pt: _Iterate, f, fprime, z: Optional[np.ndarray] = None) -> np.ndarray:
        """omega-gradient of Tr(z f(X)) for X = S^{-1} omega S^{-1} = U diag(x) U*,
        S = sig_eff^{1/2}, z = sig_eff where None: S^{-1} Df_X[z] S^{-1} =
        A (f^[1](x) o U* z U) A* with A = S^{-1} U, from X's memoized eigh."""
        x, u, c = pt.bs_eig(self)
        zu = c if z is None else u.conj().T @ z @ u
        a = self.sig_isqrt @ u
        return a @ (_divided_diff(np.maximum(x, 1e-300), f, fprime) * zu) @ a.conj().T


def _generators(weight: float, kind: EntropyKind) -> list[tuple[float, EntropyKind]]:
    """weight * D^kind as (w, q) pairs, one per generator with a nonzero
    weight, so that each term keeps its analytic gradient and each dispatch
    reads one structure: a mixture (flat by construction) and a geom over a
    mixture split by linearity, D^{sum_i w_i q_i, #g} = sum_i w_i D^{q_i, #g},
    and a geom over BS is BS (the fixed point D^{bs, #g} = D^bs)."""
    if isinstance(kind, GeomWeighted) and isinstance(kind.base, Mixture):
        kind = Mixture(tuple((w, GeomWeighted(k, kind.gamma)) for w, k in kind.base.components))
    elif isinstance(kind, GeomWeighted) and isinstance(kind.base, BelavkinStaszewski):
        kind = kind.base
    if isinstance(kind, Mixture):
        return [g for w, k in kind.components for g in _generators(weight * w, k)]
    return [(weight, kind)] if weight != 0.0 else []


def _divided_diff(w: np.ndarray, f, fprime) -> np.ndarray:
    """First divided-difference matrix f^[1](w_i, w_j) of ascending w;
    eigenvalues closer than the clustering threshold use the derivative
    branch."""
    # the ends of an ascending w hold its largest magnitude
    tol = CLUSTER_RTOL * max(1.0, abs(float(w[0])), abs(float(w[-1])))
    fw = f(w)
    dw = w[:, None] - w[None, :]
    out = fprime(0.5 * (w[:, None] + w[None, :]))
    return np.divide(fw[:, None] - fw[None, :], dw, out=out, where=np.abs(dw) > tol)


class _Iterate:
    """One point H of the descent with omega = exp(H) / Tr exp(H).

    H's one eigh gives omega and log omega = U diag(log p) U*, with
    log p = w - log sum exp(w) read off H's eigenvalues w: exact where p
    underflows, so no floor is needed. Tr omega log omega, eigh(sig_eff^{-1/2}
    omega sig_eff^{-1/2}) = U diag(x) U* with U* sig_eff U (bs, geom),
    eigh(W #_g omega) (geom) and the measured ascent (meas) are taken on
    first use and shared by each term's value and gradient.
    """

    def __init__(self, h: np.ndarray):
        self.h = h
        self.w, self.u = eigh((h + h.conj().T) / 2)
        self.uh = self.u.conj().T
        # eigh's w ascends: w[-1] is the largest, and z normalises exp(w - w[-1])
        self.ew = np.exp(self.w - self.w[-1])
        self.z = float(np.sum(self.ew))
        self.omega = (self.u * (self.ew / self.z)) @ self.uh
        self._bs_eig: dict = {}
        self._mean_eig: dict = {}
        self._measured: dict = {}

    @cached_property
    def logp(self) -> np.ndarray:
        return self.w - self.w[-1] - math.log(self.z)

    @cached_property
    def ent(self) -> float:  # Tr omega log omega
        return float(np.exp(self.logp) @ self.logp)

    @cached_property
    def log_omega(self) -> np.ndarray:
        return (self.u * self.logp) @ self.uh

    def bs_eig(self, term: _Term):
        """(x, U, C) for X = U diag(x) U* and C = U* sig_eff U (None for geom)."""
        if term not in self._bs_eig:
            m = term.sig_isqrt @ self.omega @ term.sig_isqrt
            x, u = eigh((m + m.conj().T) / 2)
            c = u.conj().T @ term.sig_eff @ u if term.mode == "bs" else None
            self._bs_eig[term] = x, u, c
        return self._bs_eig[term]

    def mean_eig(self, term: _Term):
        """(mu, Q, log M, M) for W #_g omega = M = S X^g S = Q diag(mu) Q*, with
        S = sig_eff^{1/2} and X = S^{-1} omega S^{-1} from bs_eig."""
        if term not in self._mean_eig:
            x, v, _ = self.bs_eig(term)
            sv = term.sig_sqrt @ v
            m = (sv * np.maximum(x, 1e-300) ** term.kind.gamma) @ sv.conj().T
            mu, q = eigh((m + m.conj().T) / 2)
            mu = np.maximum(mu, 1e-300)
            self._mean_eig[term] = mu, q, (q * np.log(mu)) @ q.conj().T, m
        return self._mean_eig[term]

    def measured(self, term: _Term):
        """(value, B*U, da, db): D^meas(B omega B* || T) for T = W (meas) or
        B M B* (geom) by rel_entropy's ascent, its best basis U and the
        slopes in a = diag(U* B omega B* U) and b = diag(U* T U). The ascent
        takes no gate: ran(B) lies in supp W, and so in supp T. It reads T's
        spectrum, term.spec or M's from mean_eig, to certify its starts."""
        if term not in self._measured:
            basis = term.basis
            if term.mode == "meas":
                target, spec = term.w_full, term.spec
            else:
                mu, q, _, m = self.mean_eig(term)
                target = basis @ m @ basis.conj().T
                # B M B* has M's eigenvalues, on the eigenvectors B Q, and no
                # kernel where B is square
                spec = (Spectrum(mu[::-1], (basis @ q)[:, ::-1], 0.0)
                        if basis.shape[0] == basis.shape[1] else None)
            omega = basis @ self.omega @ basis.conj().T
            val, u, *_ = _measured_lower_bound(omega, target, spec, None, term.meas.restarts,
                                               term.meas.iters, 0)
            a = np.sum(u.conj() * (omega @ u), axis=0).real
            b = np.sum(u.conj() * (target @ u), axis=0).real
            self._measured[term] = (val, basis.conj().T @ u, *_measured_slopes(None, a, b))
        return self._measured[term]


def _trace_zero(h: np.ndarray) -> np.ndarray:
    """h less its trace part, which omega = exp(H)/Tr exp(H) does not see."""
    out = h.copy()
    out.flat[::len(h) + 1] -= h.trace().real / len(h)
    return out


def _dexp_push(pt: _Iterate, g: np.ndarray) -> np.ndarray:
    """Pushforward of an omega-gradient to the H parametrization of
    omega = exp(H)/Tr exp(H), the step direction of a solve with a negative
    weight and a measured or geom term."""
    eh = (pt.u * pt.ew) @ pt.uh  # exp(H - w_max)
    dd = _divided_diff(pt.w - pt.w[-1], np.exp, np.exp)
    t = pt.u @ (dd * (pt.uh @ g @ pt.u)) @ pt.uh
    tr_og = float(np.vdot(g, eh).real) / pt.z
    return (t - tr_og * eh) / pt.z


def center_solver(terms: list[_Term], basis: np.ndarray, options: Optional[SolverOptions] = None):
    """Minimize sum of t.weight * D^{t.kind}(omega || W_t) over the terms t,
    built on ``basis`` (orthonormal, d x m, m >= 1), over states supported in
    ran(basis), from the warm start (if taken), then ``restarts`` random ones,
    each drawn when reached; a convex problem (every weight positive) ends
    with its first start of finite value, as every start reaches its minimum.
    Every convex problem, whatever its kinds, takes mirror steps, as does one
    with a negative weight whose terms are all um or bs; the rest step in H.
    Returns (center, value, gap, iterations, converged) of the lowest run; the
    iterations are those of the returned start, both runs where it was redone.
    """
    opts = options or SolverOptions()
    m = basis.shape[1]

    def f_of(pt: _Iterate) -> float:
        return sum(t.weight * t.value(pt) for t in terms)

    # every weight positive: the problem is convex, and the line search takes
    # the nonmonotone test (a negative weight keeps the monotone rule, as the
    # window doubles the iterations there)
    convex = all(t.weight > 0 for t in terms)
    # where a weight is negative, measured and geom terms step in H
    # coordinates, as mirror descent stalls there
    mirror = convex or all(t.mode in ("um", "bs") for t in terms)
    rng = np.random.default_rng(opts.seed) if opts.restarts else None
    starts = (sample_hermitian(m, rng) for _ in range(opts.restarts))
    if opts.warm_start:
        # sum of weight * log W (log sig_eff = -log g for bs) over um and bs terms
        logs = [t.weight * (t.logw if t.mode == "um" else -t.g_spec.log())
                for t in terms if t.mode in ("um", "bs")]
        starts = chain([sum(logs, np.zeros((m, m), dtype=complex))], starts)

    def direction_at(pt: _Iterate) -> np.ndarray:
        g = sum((t.weight * t.grad_omega(pt) for t in terms[1:]),
                terms[0].weight * terms[0].grad_omega(pt))
        if mirror:
            # mirror descent: step along the omega-space gradient, with the
            # trace multiplier projected out (stationary iff G is a multiple
            # of the identity)
            return _trace_zero(g)
        return _dexp_push(pt, g)

    def descend(cur: _Iterate, val: float, bb_steps: bool, iters: int):
        """(lowest-value iterate, its value, iterations, converged) of a run
        of at most ``iters`` iterations from the start ``cur`` of value
        ``val``. ``bb_steps`` tries the Barzilai-Borwein step first and, on a
        convex problem, tests it against the largest of the last
        ``_NM_WINDOW`` accepted values."""
        recent = deque([val], maxlen=_NM_WINDOW if bb_steps and convex else 1)
        low, low_val = cur, val
        converged = False
        it = 0
        # the first trial step, 2 t_prev, is 1 on a convex problem: the
        # weights sum to 1, so on commuting inputs the unit mirror step
        # lands on the optimum; 2 where a weight is negative
        t_prev = 0.5 if convex else 1.0
        h_prev = grad_prev = None
        for it in range(1, iters + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                grad = direction_at(cur)
                gn = math.sqrt(float(np.vdot(grad, grad).real))
            if not math.isfinite(gn):
                # a gradient overflows at the boundary: this run ends here
                break
            if gn < _GRAD_TOL:
                converged = True
                break
            t_step, accepted = min(2.0 * t_prev, 4.0), False
            if bb_steps and h_prev is not None:
                # Barzilai-Borwein trial step from s = H_k - H_{k-1} and
                # y = D_k - D_{k-1}: BB1 <s,s>/<s,y> on even iterations,
                # BB2 <s,y>/<y,y> on odd ones, capped in norm; the
                # nonmonotone test below decides
                s, y = cur.h - h_prev, grad - grad_prev
                sy = float(np.vdot(s, y).real)
                if sy > 0:
                    bb = (float(np.vdot(s, s).real) / sy if it % 2 == 0
                          else sy / float(np.vdot(y, y).real))
                    t_step = min(bb, _MAX_BB_STEP / gn)
            h_prev, grad_prev = cur.h, grad
            # Grippo-Lampariello-Lucidi: a trial must fall below the largest
            # recent value (the current one in a window of 1)
            ref = max(recent)
            for _ in range(_MAX_HALVINGS):
                h_new = _trace_zero(cur.h - t_step * grad)
                if (h_new == cur.h).all():
                    # the step vanishes in rounding, as does every shorter one
                    break
                cand = _Iterate(h_new)
                v_new = f_of(cand)
                if math.isfinite(v_new) and v_new < ref - 1e-6 * t_step * gn * gn:
                    accepted = True
                    break
                t_step /= 2
            if not accepted:
                converged = gn < 10 * _GRAD_TOL
                break
            # progress counts from the lowest value so far: under the window
            # an accepted step may rise, which is no sign of convergence
            decrease = low_val - v_new
            # the accepted candidate keeps its decompositions for the next
            # direction
            cur, val, t_prev = cand, v_new, t_step
            recent.append(val)
            if val < low_val:
                low, low_val = cur, val
            if 0 < decrease < opts.tol and gn < 10 * _GRAD_TOL:
                converged = True
                break
        return low, low_val, it, converged

    best_val, best, best_iters, best_conv, first = INF, None, 0, False, None
    for h in starts:
        first = h if first is None else first
        # at trace zero, as every trial is: a trace part inflates the first BB step
        start = _Iterate(_trace_zero(h))
        start_val = f_of(start)
        if not math.isfinite(start_val):
            continue
        cur, val, it, converged = descend(start, start_val, True, opts.iters)
        if not converged and it < opts.iters:
            # at the floor of the objective's evaluation noise, where a run
            # stops depends on its path: a run that stops unconverged is
            # redone from the same start with the doubling trial step alone,
            # within the iterations left, and the converged or else the lower
            # of the two is kept
            cur2, val2, it2, conv2 = descend(start, start_val, False, opts.iters - it)
            if conv2 or val2 < val:
                cur, val, converged = cur2, val2, conv2
            it += it2
        if val < best_val - 1e-15:
            best_val, best, best_iters, best_conv = val, cur, it, converged
        if convex:
            break
    center = basis @ (best or _Iterate(first)).omega @ basis.conj().T
    gap = 0.0 if best_conv else opts.tol
    return center, best_val, gap, best_iters, best_conv


# ---------------------------------------------------------------------------
# multi-variate barycentric Q


def _feasible_meet(weights, spectra) -> Optional[np.ndarray]:
    """Orthonormal basis of the center problem's feasible subspace, the meet
    (``support_meet``) of the supports at nonzero weights, positive ones
    first; None where Q = +inf, as an operator at a positive weight has a
    part outside the support of one at a negative weight (``support_leq``)."""
    pos = [sp for w, sp in zip(weights, spectra) if w > 0]
    neg = [sp for w, sp in zip(weights, spectra) if w < 0]
    if not all(support_leq(p, n) for p in pos for n in neg):
        return None
    return support_meet(*pos, *neg)


def _center(weights, kinds, ops, spectra, basis: np.ndarray, options: Optional[SolverOptions]):
    """(center, radius, gap, iterations, converged) for the radius
    inf over states omega in ran(basis) of sum_x P(x) D^{q_x}(omega || W_x)
    (``basis`` orthonormal, d x m), with one term per generator of each q_x.
    All Umegaki generators take the closed form: center exp(H)/Tr exp(H) and
    radius -log Tr exp(H) for H = sum P(x) w log W_x compressed to ran(basis)."""
    if basis.shape[1] == 0:
        return None, INF, 0.0, 0, True
    gens = [(w, q, op, sp) for p, k, op, sp in zip(weights, kinds, ops, spectra)
            for w, q in _generators(p, k)]
    if (options or SolverOptions()).use_closed_form and all(q == Umegaki() for _, q, _, _ in gens):
        h = _log_euclidean_h([w for w, *_ in gens], [sp for *_, sp in gens], basis)
        ww, u = eigh((h + h.conj().T) / 2)
        q = float(np.sum(np.exp(ww)))
        center = basis @ ((u * np.exp(ww)) @ u.conj().T / q) @ basis.conj().T
        return center, -math.log(q), 0.0, 0, True
    terms = [_Term(w, q, op, basis, sp) for w, q, op, sp in gens]
    return center_solver(terms, basis, options)


def barycentric_q(
    kinds: Sequence[EntropyKind],
    channel: GcqChannel,
    weights: Sequence[float],
    options: Optional[SolverOptions] = None,
) -> BarycenterResult:
    """P-weighted barycentric Q of a gcq channel: Q = exp(-radius) with
    radius = inf over states omega in the feasible subspace of
    sum_x P(x) D^{q_x}(omega || W_x). ``_feasible_meet`` reads that subspace,
    and Q = +inf for signed P, before any solver call (Q = 0 on an empty meet).
    """
    weights = [float(w) for w in weights]
    cls = classify_weights(weights)
    if len(kinds) != len(channel.operators) or len(weights) != len(channel.operators):
        raise DimensionMismatch("kinds/weights/operators must align")
    if cls == OTHER:
        sps = [sp for sp, w in zip(channel.spectra, weights) if w != 0.0]
        if not all(support_leq(s, sps[0]) and support_leq(sps[0], s) for s in sps[1:]):
            raise UnsupportedWeights(
                "signed weights outside the admissible classes need equal supports"
            )
    basis = _feasible_meet(weights, channel.spectra)
    if basis is None:
        return BarycenterResult(q_value=INF, radius=-INF)

    center, radius, gap, iters, conv = _center(
        weights, kinds, channel.operators, channel.spectra, basis, options)
    q = math.exp(-radius) if math.isfinite(radius) else (0.0 if radius == INF else INF)
    geo = None if center is None else q * center
    return BarycenterResult(q_value=q, radius=radius, center=center, geo_mean=geo,
                            iterations=iters, objective_gap=gap, converged=conv)


# ---------------------------------------------------------------------------
# two-variable barycentric Renyi divergences


def barycentric_renyi(
    alpha: float,
    kinds: tuple[EntropyKind, EntropyKind],
    rho: np.ndarray,
    sigma: np.ndarray,
    options: Optional[SolverOptions] = None,
) -> float:
    """Barycentric Renyi alpha-divergence generated by (D^{q0}, D^{q1}).

    alpha = 1 returns D^{q1}(rho||sigma) / Tr rho; alpha = inf evaluates the
    sup of D^{q1}(omega||sigma) - D^{q0}(omega||rho) over states in ran(rho).
    At alpha = inf, generators read as in ``_generators`` (so geom:bs counts
    as bs): q0 = um with q1 = t bs + (1 - t) um is attained at a pure state
    and solved by the 1-D dual
    min_{s>0} lambda_max(B*(t s sigma^+ + L)B) - t(log s + 1),
    L = log rho - (1 - t) log sigma, on the support meet ran(B): the value is
    the objective at the returned pure center, within the returned gap
    (at most ``tol`` when converged) of the sup. t = 0 (um,um) is the top
    eigenvalue of B*(log rho - log sigma)B, and all-BS generators give
    D_max(rho||sigma); both are exact. Every other pair (bs,um among them),
    and ``use_closed_form=False``, runs the solver, whose value is only a
    lower bound on the supremum (it may be unattained, and the solver can
    stall well below it). A rho below the support cutoff (an empty meet)
    gives -inf above alpha = 1 and +inf below it. At alpha = 0 with
    supp sigma <= supp rho the radius is -log Tr sigma for every kind, with
    center sigma / Tr sigma: D^{q1} is monotone under the trace map, so
    D^{q1}(omega || sigma) >= D(Tr omega || Tr sigma) = -log Tr sigma for
    every state omega, with equality at omega = sigma / Tr sigma, which lies
    in the meet.
    """
    res = barycentric_renyi_full(alpha, kinds, rho, sigma, options)
    return res["value"]


def barycentric_renyi_full(
    alpha: float,
    kinds: tuple[EntropyKind, EntropyKind],
    rho: np.ndarray,
    sigma: np.ndarray,
    options: Optional[SolverOptions] = None,
) -> dict:
    _check_alpha(alpha)
    (rho, sigma), (sr, ss) = operands(rho, sigma)
    tr_rho = _nonzero_trace(rho)
    q0, q1 = kinds
    out = {"value": INF, "center": None, "gap": 0.0, "iterations": 0, "converged": True}

    if alpha == 1:
        gate = _support_value(1, sr, ss)
        out["value"] = (_rel_entropy(q1, rho, sr, sigma, ss, 0).value / tr_rho
                        if gate is None else gate)
        return out

    # the center problem's weights, (1, -1) at alpha = inf; its +inf gate and
    # meet are barycentric_q's, but the alpha -> 0 limit keeps supp rho
    weights = (1.0, -1.0) if alpha == INF else (alpha, 1.0 - alpha)
    basis = support_meet(sr, ss) if alpha == 0 else _feasible_meet(weights, (sr, ss))
    if basis is None or not basis.shape[1]:
        # +inf from the supports; on an empty meet log Q_alpha = -inf
        out["value"] = INF if basis is None else _empty_meet_renyi(alpha)
        return out
    opts = options or SolverOptions()
    if alpha == 0 and opts.use_closed_form and basis.shape[1] == ss.rank:
        # the meet is supp sigma: sigma / Tr sigma is feasible and attains
        # the bound -log Tr sigma (see barycentric_renyi)
        w = ss.w[:ss.rank]
        tr_sig = float(np.sum(w))
        out.update(value=math.log(tr_rho) - math.log(tr_sig),
                   center=(ss.basis * w) @ ss.basis.conj().T / tr_sig)
        return out

    if alpha == INF:
        # q0's generators all um and q1's um or bs, q1 = t bs + u um: a pure
        # state attains the sup, which is a 1-D convex dual (t = 0: the top
        # eigenvalue of B*(log rho - log sigma)B); all generators bs:
        # D_max(rho || sigma), an upper bound by the antimonotonicity of BS in
        # its second argument and attained on a pure state. Every other pair
        # is solved (an all-um pair never reaches _center's closed form).
        um, bs = Umegaki(), BelavkinStaszewski()
        w0, w1 = {}, {}
        for tally, kind in ((w0, q0), (w1, q1)):
            for w, q in _generators(1.0, kind):
                tally[q] = tally.get(q, 0.0) + w
        pure = None
        if opts.use_closed_form and set(w0) == {um} and set(w1) <= {um, bs}:
            value, v, gap, iters = _um_first_top(sr, ss, basis, w1.get(bs, 0.0), w1.get(um, 0.0),
                                                 tol=opts.tol)
            pure = basis @ v
        elif opts.use_closed_form and set(w0) == set(w1) == {bs}:
            (value, pure), gap, iters = _dmax_top(rho, ss, sr.rank), 0.0, 0
        if pure is not None:
            out.update(value=value, center=np.outer(pure, pure.conj()), gap=gap,
                       iterations=iters, converged=gap <= opts.tol)
            return out
    center, radius, gap, iters, conv = _center(weights, kinds, (rho, sigma), (sr, ss), basis,
                                               options)

    # psi_alpha = -radius; D_alpha = (psi_alpha - log Tr rho)/(alpha - 1)
    value = -radius if alpha == INF else (-radius - math.log(tr_rho)) / (alpha - 1.0)
    out.update(value=value, center=center, gap=gap, iterations=iters, converged=conv)
    return out


def dual_renyi(
    alpha: float,
    kinds: tuple[EntropyKind, EntropyKind],
    rho: np.ndarray,
    sigma: np.ndarray,
    options: Optional[SolverOptions] = None,
) -> float:
    """Dual collection at alpha in (0, 1): evaluates the primal at 1 - alpha
    with swapped arguments; equals the primal with swapped kinds."""
    if not 0.0 < alpha < 1.0:
        raise BadParameter(f"alpha must be in (0, 1), got {alpha}")
    inner = barycentric_renyi(1.0 - alpha, kinds, sigma, rho, options)
    tr_rho = _nonzero_trace(np.asarray(rho))
    tr_sigma = float(np.trace(np.asarray(sigma)).real)
    return (alpha * inner + math.log(tr_rho) - math.log(tr_sigma)) / (1.0 - alpha)
