"""Weighted divergence radii / centers, multi-variate barycentric Q, the
two-variable barycentric Renyi divergences with their alpha in {0, 1, inf}
limits, and the derived geometric means.

Every value reads its kinds as generators (``_generators``: a mixture and a
geom over a mixture split by linearity, geom over BS is BS) and reaches the
center problem inf_omega sum_x P(x) D^{q_x}(omega || W_x) through one
function, ``_center``: the closed-form center when every generator is
Umegaki, else descent in the exponential parametrization
omega = exp(H) / Tr exp(H) on the compressed feasible subspace. Each iterate
is decomposed once: H's eigh gives omega and log omega, and memoized
decompositions serve every term's value and gradient (``_Iterate``).
Umegaki, BS and geom:um terms have analytic gradients; central finite
differences on the H coordinates serve only the measured kind and caller
objectives. At alpha = inf, Umegaki first generators against Umegaki and
BS second ones give a pure center from a 1-D convex dual
(``renyi._um_first_top``), and all-BS generators D_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .classical import classify_weights, OTHER
from .errors import BadParameter, DimensionMismatch, UnsupportedWeights
from .hermitian import (
    _check_shapes,
    projection_meet,
    sample_hermitian,
    spectrum,
    support_basis,
    support_leq,
)
from .relent import (
    BelavkinStaszewski,
    EntropyKind,
    GeomWeighted,
    Mixture,
    Umegaki,
    rel_entropy,
)
from .renyi import _dmax_top, _log_euclidean_h, _um_first_top

INF = float("inf")
# central finite-difference step on the H coordinates
_FD_STEP = 1e-5
# stop when the descent direction's norm falls below this
_GRAD_TOL = 1e-6
# largest Frobenius norm of a Barzilai-Borwein trial step in H
_MAX_BB_STEP = 10.0


@dataclass(frozen=True)
class GcqChannel:
    """Labeled family (W_x) of PSD operators on a common space."""

    labels: tuple
    operators: tuple  # of ndarray

    def __post_init__(self):
        ops = tuple(np.asarray(w, dtype=complex) for w in self.operators)
        if len(ops) != len(self.labels):
            raise DimensionMismatch("one operator per label required")
        d = ops[0].shape[0]
        if any(w.shape != (d, d) for w in ops):
            raise DimensionMismatch("operators must share one dimension")
        if all(np.trace(w).real <= 1e-14 for w in ops):
            raise BadParameter("at least one W_x must be nonzero")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @cached_property
    def spectra(self) -> tuple:
        """The Spectrum of each W_x, decomposed once."""
        return tuple(spectrum(w) for w in self.operators)

    def support_meets(self, weights: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """(S_+, S_-): meets of the supports over positive / negative weights
        (empty meets default to the identity)."""
        d = self.dim
        s_plus = np.eye(d, dtype=complex)
        s_minus = np.eye(d, dtype=complex)
        for w, sp in zip(weights, self.spectra):
            if w > 0:
                s_plus = projection_meet(s_plus, sp.proj)
            elif w < 0:
                s_minus = projection_meet(s_minus, sp.proj)
        return s_plus, s_minus


@dataclass
class SolverOptions:
    iters: int = 500
    tol: float = 1e-8
    restarts: int = 4
    seed: int = 0
    warm_start: bool = True
    use_closed_form: bool = True


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
        from .hermitian import matrix_to_json

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


def _json_float(x: float):
    if x == INF:
        return "+inf"
    if x == -INF:
        return "-inf"
    return x


# ---------------------------------------------------------------------------
# compressed objective terms


class _Term:
    """One summand weight * D^kind(omega || W) on the compressed subspace;
    only mode "gen" (not um, bs or geom:um) lacks an analytic gradient."""

    def __init__(self, weight: float, kind: EntropyKind, w_full: np.ndarray, basis: np.ndarray,
                 spec=None):
        """``spec`` is the Spectrum of ``w_full`` when the caller holds it."""
        self.weight = weight
        self.kind = kind
        self.basis = basis
        self.w_full = w_full
        self.mode = "gen"
        spec = w_full if spec is None else spec
        if isinstance(kind, Umegaki):
            self.mode = "um"
            self.logw = basis.conj().T @ spectrum(spec).log() @ basis
        elif isinstance(kind, BelavkinStaszewski) or (
            isinstance(kind, GeomWeighted) and isinstance(kind.base, Umegaki)
        ):
            # ran(basis) lies in supp W, so sig_eff is also W's compressed
            # part absolutely continuous there: all that W #_g omega sees
            self.mode = "bs" if isinstance(kind, BelavkinStaszewski) else "geom"
            g = basis.conj().T @ spectrum(spec).power(-1.0) @ basis
            self.sig_eff = spectrum(g).power(-1.0)
            self.sig_spec = spectrum(self.sig_eff)
            self.sig_isqrt = self.sig_spec.power(-0.5)
            if self.mode == "geom":
                self.sig_sqrt = self.sig_spec.power(0.5)

    def value(self, pt: _Iterate) -> float:
        if self.mode in ("um", "geom"):
            # geom: D^um(omega || M) / (1 - g) for the mean M = W #_g omega
            ent = float(np.exp(pt.logp) @ pt.logp)
            if self.mode == "um":
                return ent - float(np.trace(pt.omega @ self.logw).real)
            logm = pt.mean_eig(self)[2]
            return (ent - float(np.trace(pt.omega @ logm).real)) / (1.0 - self.kind.gamma)
        if self.mode == "bs":
            w, u = pt.bs_eig(self)
            w = np.clip(w, 0.0, None)
            eta = np.where(w > 0, w * np.log(np.clip(w, 1e-300, None)), 0.0)
            f = (u * eta) @ u.conj().T
            return float(np.trace(self.sig_eff @ f).real)
        omega_full = self.basis @ pt.omega @ self.basis.conj().T
        return rel_entropy(self.kind, omega_full, self.w_full).value

    def grad_omega(self, pt: _Iterate) -> np.ndarray:
        """Euclidean omega-gradient, up to a multiple of the identity."""
        if self.mode == "bs":
            return self._pullback(pt, lambda x: x * np.log(x), lambda x: np.log(x) + 1.0,
                                  self.sig_eff)
        if self.mode == "um":
            return pt.log_omega - self.logw
        # geom: with M = S X^g S, d Tr(omega log M) = Tr(log M d omega)
        # + Tr(Y dM) for Y = Dlog_M[omega], and Tr(Y dM) = Tr(Z dX^g)
        # for Z = S Y S
        g = self.kind.gamma
        mu, q, logm = pt.mean_eig(self)
        dlog = _divided_diff(mu, np.log, lambda x: 1.0 / x)
        y = q @ (dlog * (q.conj().T @ pt.omega @ q)) @ q.conj().T
        z = self.sig_sqrt @ y @ self.sig_sqrt
        adj = self._pullback(pt, lambda x: x**g, lambda x: g * x ** (g - 1.0), z)
        return (pt.log_omega - logm - adj) / (1.0 - g)

    def _pullback(self, pt: _Iterate, f, fprime, z: np.ndarray) -> np.ndarray:
        """omega-gradient of Tr(z f(X)) for X = S^{-1} omega S^{-1}, S =
        sig_eff^{1/2}: S^{-1} Df_X[z] S^{-1}, from X's memoized eigh."""
        w, u = pt.bs_eig(self)
        w = np.clip(w, 1e-300, None)
        t = u @ (_divided_diff(w, f, fprime) * (u.conj().T @ z @ u)) @ u.conj().T
        return self.sig_isqrt @ t @ self.sig_isqrt


class _ObjectiveTerm:
    """A caller's objective on full-space states, as one generic term."""

    mode, weight = "gen", 1.0

    def __init__(self, objective, basis: np.ndarray):
        self.objective, self.basis = objective, basis

    def value(self, pt: _Iterate) -> float:
        return self.objective(self.basis @ pt.omega @ self.basis.conj().T)


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
    """First divided-difference matrix f^[1](w_i, w_j); eigenvalues closer
    than the clustering threshold use the derivative branch."""
    from .hermitian import CLUSTER_RTOL

    n = len(w)
    tol = CLUSTER_RTOL * max(1.0, float(np.max(np.abs(w))) if n else 1.0)
    fw = f(w)
    dw = w[:, None] - w[None, :]
    out = fprime(0.5 * (w[:, None] + w[None, :]))
    return np.divide(fw[:, None] - fw[None, :], dw, out=out, where=np.abs(dw) > tol)


class _Iterate:
    """One point H of the descent with omega = exp(H) / Tr exp(H).

    H's one eigh gives omega and log omega = U diag(log p) U*, with
    log p = w - log sum exp(w) read off H's eigenvalues w: exact where p
    underflows, so no floor is needed. eigh(sig_eff^{-1/2} omega
    sig_eff^{-1/2}) (bs, geom) and eigh(W #_g omega) (geom) are taken on
    first use and shared by each term's value and gradient.
    """

    def __init__(self, h: np.ndarray):
        self.h = h
        self.w, self.u = np.linalg.eigh((h + h.conj().T) / 2)
        self.shift = np.max(self.w)
        self.ew = np.exp(self.w - self.shift)
        self.eh = (self.u * self.ew) @ self.u.conj().T  # exp(H - shift)
        self.omega = self.eh / np.trace(self.eh).real
        self._bs_eig: dict = {}
        self._mean_eig: dict = {}

    @cached_property
    def logp(self) -> np.ndarray:
        return self.w - self.shift - math.log(np.sum(self.ew))

    @cached_property
    def log_omega(self) -> np.ndarray:
        return (self.u * self.logp) @ self.u.conj().T

    def bs_eig(self, term: _Term):
        if term not in self._bs_eig:
            m = term.sig_isqrt @ self.omega @ term.sig_isqrt
            self._bs_eig[term] = np.linalg.eigh((m + m.conj().T) / 2)
        return self._bs_eig[term]

    def mean_eig(self, term: _Term):
        """(mu, Q, log M) for W #_g omega = M = S X^g S = Q diag(mu) Q*, with
        S = sig_eff^{1/2} and X = S^{-1} omega S^{-1} from bs_eig."""
        if term not in self._mean_eig:
            x, v = self.bs_eig(term)
            sv = term.sig_sqrt @ v
            m = (sv * np.clip(x, 1e-300, None) ** term.kind.gamma) @ sv.conj().T
            mu, q = np.linalg.eigh((m + m.conj().T) / 2)
            mu = np.clip(mu, 1e-300, None)
            self._mean_eig[term] = mu, q, (q * np.log(mu)) @ q.conj().T
        return self._mean_eig[term]


def _dexp_push(pt: _Iterate, g: np.ndarray) -> np.ndarray:
    """Pushforward of an omega-gradient to the H parametrization of
    omega = exp(H)/Tr exp(H)."""
    v = pt.u
    z = float(np.sum(pt.ew))
    dd = _divided_diff(pt.w - pt.shift, np.exp, np.exp)
    gv = v.conj().T @ g @ v
    t = v @ (dd * gv) @ v.conj().T
    tr_og = float(np.trace(pt.eh / z @ g).real)
    return (t - tr_og * pt.eh) / z


def _herm_basis(m: int) -> list[np.ndarray]:
    """Orthonormal basis of the m x m Hermitian matrices: the FD directions."""
    basis = []
    for i in range(m):
        e = np.zeros((m, m), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(m):
        for j in range(i + 1, m):
            e = np.zeros((m, m), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2)
            basis.append(e)
            e = np.zeros((m, m), dtype=complex)
            e[i, j], e[j, i] = 1j / math.sqrt(2), -1j / math.sqrt(2)
            basis.append(e)
    return basis


def center_solver(
    objective,
    s_plus: np.ndarray,
    options: Optional[SolverOptions] = None,
    terms: Optional[list[_Term]] = None,
):
    """Minimize the weighted-divergence objective over states supported in
    ran(S_+) (``s_plus`` is the projection or its Spectrum).

    ``objective`` maps a full-space state to a float; it is only used when
    ``terms`` (the structured compressed form) is not supplied. Returns
    (center, value, gap, iterations, converged); the iterations are those of
    the returned start, both runs where it was redone.
    """
    opts = options or SolverOptions()
    basis = support_basis(s_plus)
    m = basis.shape[1]
    if m == 0:
        return None, INF, 0.0, 0, True
    if terms is None:
        terms = [_ObjectiveTerm(objective, basis)]

    def f_of(pt: _Iterate) -> float:
        return sum(t.weight * t.value(pt) for t in terms)

    analytic = [t for t in terms if t.mode != "gen"]
    generic = [t for t in terms if t.mode == "gen"]
    # geom terms step in H coordinates: mirror descent stalls on them at
    # negative weight
    mirror = all(t.mode in ("um", "bs") for t in terms)

    def gen_value(pt: _Iterate) -> float:
        return sum(t.weight * t.value(pt) for t in generic)

    hbasis = _herm_basis(m) if generic else []
    rng = np.random.default_rng(opts.seed)

    starts: list[np.ndarray] = []
    if opts.warm_start:
        h0 = np.zeros((m, m), dtype=complex)
        for t in terms:
            if t.mode == "um":
                h0 = h0 + t.weight * t.logw
            elif t.mode == "bs":
                h0 = h0 + t.weight * t.sig_spec.log()
        starts.append(h0)
    for _ in range(opts.restarts):
        starts.append(sample_hermitian(m, rng))
    if not starts:
        raise BadParameter("the solver needs warm_start or restarts >= 1")

    def direction_at(pt: _Iterate) -> np.ndarray:
        g = np.zeros((m, m), dtype=complex)
        for t in analytic:
            g = g + t.weight * t.grad_omega(pt)
        if mirror:
            # mirror descent: step along the omega-space gradient, with the
            # trace multiplier projected out (stationary iff G is a multiple
            # of the identity)
            return g - (np.trace(g).real / m) * np.eye(m)
        grad = _dexp_push(pt, g)
        for e in hbasis:
            vp = gen_value(_Iterate(pt.h + _FD_STEP * e))
            vm = gen_value(_Iterate(pt.h - _FD_STEP * e))
            grad = grad + ((vp - vm) / (2 * _FD_STEP)) * e
        return grad

    def descend(h: np.ndarray, bb_steps: bool, iters: int):
        """(last iterate, value, iterations, converged) of a run of at most
        ``iters`` iterations from H = h, or None where the start's value is
        not finite. ``bb_steps`` tries the Barzilai-Borwein step first."""
        cur = _Iterate(h)
        val = f_of(cur)
        if not math.isfinite(val):
            return None
        converged = False
        it = 0
        t_prev = 1.0
        h_prev = grad_prev = None
        for it in range(1, iters + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                grad = direction_at(cur)
                gn = float(np.linalg.norm(grad))
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
                # BB2 <s,y>/<y,y> on odd ones, capped in norm; the Armijo
                # test below still decides
                s, y = cur.h - h_prev, grad - grad_prev
                sy = float(np.vdot(s, y).real)
                if sy > 0:
                    bb = (float(np.vdot(s, s).real) / sy if it % 2 == 0
                          else sy / float(np.vdot(y, y).real))
                    t_step = min(bb, _MAX_BB_STEP / gn)
            h_prev, grad_prev = cur.h, grad
            for _ in range(60):
                h_new = cur.h - t_step * grad
                h_new = h_new - (np.trace(h_new).real / m) * np.eye(m)
                cand = _Iterate(h_new)
                v_new = f_of(cand)
                if math.isfinite(v_new) and v_new < val - 1e-6 * t_step * gn * gn:
                    accepted = True
                    break
                t_step /= 2
            if not accepted:
                converged = gn < 10 * _GRAD_TOL
                break
            decrease = val - v_new
            # the accepted candidate keeps its decompositions for the next
            # direction
            cur, val, t_prev = cand, v_new, t_step
            if decrease < opts.tol and gn < 10 * _GRAD_TOL:
                converged = True
                break
        return cur, val, it, converged

    best_val, best, best_iters, best_conv = INF, None, 0, False
    for h in starts:
        run = descend(h, True, opts.iters)
        if run is None:
            continue
        cur, val, it, converged = run
        if not converged and it < opts.iters:
            # at the floor of the objective's evaluation noise, where a run
            # stops depends on its path: a run that stops unconverged is
            # redone from h with the doubling trial step alone, within the
            # iterations left, and the converged or else the lower of the
            # two is kept
            cur2, val2, it2, conv2 = descend(h, False, opts.iters - it)
            if conv2 or val2 < val:
                cur, val, converged = cur2, val2, conv2
            it += it2
        if val < best_val - 1e-15:
            best_val, best, best_iters, best_conv = val, cur, it, converged
    center_c = (best or _Iterate(starts[0])).omega
    center = basis @ center_c @ basis.conj().T
    gap = 0.0 if best_conv else opts.tol
    return center, best_val, gap, best_iters, best_conv


# ---------------------------------------------------------------------------
# multi-variate barycentric Q


def _center(weights, kinds, ops, spectra, meet, options: Optional[SolverOptions]):
    """(center, radius, gap, iterations, converged) for the radius
    inf over states omega in ran(meet) of sum_x P(x) D^{q_x}(omega || W_x)
    (``meet`` a Spectrum), with one term per generator of each q_x. All
    Umegaki generators take the closed form: center exp(H)/Tr exp(H) and
    radius -log Tr exp(H) for H = sum P(x) w log W_x compressed to ran(meet)."""
    basis = meet.basis
    if basis.shape[1] == 0:
        return None, INF, 0.0, 0, True
    gens = [(w, q, op, sp) for p, k, op, sp in zip(weights, kinds, ops, spectra)
            for w, q in _generators(p, k)]
    if (options or SolverOptions()).use_closed_form and all(q == Umegaki() for _, q, _, _ in gens):
        h = _log_euclidean_h([w for w, *_ in gens], [sp for *_, sp in gens], basis)
        ww, u = np.linalg.eigh((h + h.conj().T) / 2)
        q = float(np.sum(np.exp(ww)))
        center = basis @ ((u * np.exp(ww)) @ u.conj().T / q) @ basis.conj().T
        return center, -math.log(q), 0.0, 0, True
    terms = [_Term(w, q, op, basis, sp) for w, q, op, sp in gens]
    return center_solver(None, meet, options, terms=terms)


def barycentric_q(
    kinds: Sequence[EntropyKind],
    channel: GcqChannel,
    weights: Sequence[float],
    options: Optional[SolverOptions] = None,
) -> BarycenterResult:
    """P-weighted barycentric Q of a gcq channel: Q = exp(-radius) with
    radius = inf over states omega in ran(S_+) of sum_x P(x) D^{q_x}(omega || W_x).

    Support-projection fast paths (Q = 0 for probability P with S_+ = 0,
    Q = +inf for signed P with S_+ not below S_-) run before any solver call.
    """
    weights = [float(w) for w in weights]
    cls = classify_weights(weights)
    if len(kinds) != len(channel.operators) or len(weights) != len(channel.operators):
        raise DimensionMismatch("kinds/weights/operators must align")
    if cls == OTHER:
        sups = [sp.proj for sp, w in zip(channel.spectra, weights) if w != 0.0]
        if any(np.max(np.abs(s - sups[0])) > 1e-7 for s in sups[1:]):
            raise UnsupportedWeights(
                "signed weights outside the admissible classes need equal supports"
            )
    s_plus, s_minus = channel.support_meets(weights)
    sp_plus = spectrum(s_plus)
    if any(w < 0 for w in weights) and not support_leq(sp_plus, s_minus):
        return BarycenterResult(q_value=INF, radius=-INF)

    center, radius, gap, iters, conv = _center(
        weights, kinds, channel.operators, channel.spectra, sp_plus, options)
    q = math.exp(-radius) if math.isfinite(radius) else (0.0 if radius == INF else INF)
    geo = None if center is None else q * center
    return BarycenterResult(
        q_value=q,
        radius=radius,
        center=center,
        geo_mean=geo,
        iterations=iters,
        objective_gap=gap,
        converged=conv,
    )


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
    rho, sigma = _check_shapes(rho, sigma)
    tr_rho = float(np.trace(rho).real)
    if tr_rho <= 0:
        raise BadParameter("first argument must be nonzero")
    if not (alpha == INF or alpha >= 0):
        raise BadParameter(f"alpha must be >= 0, got {alpha}")
    q0, q1 = kinds
    out = {"value": INF, "center": None, "gap": 0.0, "iterations": 0, "converged": True}

    if alpha == 1:
        out["value"] = rel_entropy(q1, rho, sigma).value / tr_rho
        return out

    # +inf from the supports alone: ran(rho) <= ran(sigma) above alpha = 1,
    # a nonzero meet below it
    sr, ss = spectrum(rho), spectrum(sigma)
    if alpha > 1 and not support_leq(sr, ss):
        return out
    p = projection_meet(sr.proj, ss.proj)
    if alpha < 1 and np.trace(p).real < 0.5:
        return out
    meet = spectrum(p)
    basis = meet.basis
    if basis.shape[1] == 0:
        # above alpha = 1, rho is below the support cutoff: every eigenvalue
        # counts as zero, log Q_alpha = -inf and so does the value
        out["value"] = -INF
        return out
    opts = options or SolverOptions()
    if alpha == 0 and opts.use_closed_form and basis.shape[1] == ss.basis.shape[1]:
        # the meet is supp sigma: sigma / Tr sigma is feasible and attains
        # the bound -log Tr sigma (see barycentric_renyi)
        w = ss.w[ss.w > ss.cut]
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
            (value, pure), gap, iters = _dmax_top(rho, ss), 0.0, 0
        if pure is not None:
            out.update(value=value, center=np.outer(pure, pure.conj()), gap=gap,
                       iterations=iters, converged=gap <= opts.tol)
            return out
        weights = (1.0, -1.0)
    else:
        weights = (0.0, 1.0) if alpha == 0 else (alpha, 1.0 - alpha)
    center, radius, gap, iters, conv = _center(weights, kinds, (rho, sigma), (sr, ss), meet,
                                               options)

    # psi_alpha = -radius; D_alpha = (psi_alpha - log Tr rho)/(alpha - 1)
    if alpha == INF:
        value = -radius
    elif alpha == 0:
        value = radius + math.log(tr_rho)
    else:
        value = (-radius - math.log(tr_rho)) / (alpha - 1.0)
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
    tr_rho = float(np.trace(np.asarray(rho)).real)
    tr_sigma = float(np.trace(np.asarray(sigma)).real)
    inner = barycentric_renyi(1.0 - alpha, kinds, sigma, rho, options)
    return (alpha * inner + math.log(tr_rho) - math.log(tr_sigma)) / (1.0 - alpha)
