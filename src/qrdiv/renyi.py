"""Reference two-variable Renyi divergences: the (alpha, z) family with its
log-Euclidean z = inf limit, maximal Renyi divergences via the optimal
reverse test and via geometric-mean traces, max-relative entropy, maximal
f-divergences, and the regularized-measured closed forms. D_1 and D_max
read what the supports decide once per call (``relent._support_value``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import classical_renyi
from .errors import BadParameter, InfiniteLimit
from .hermitian import (
    Spectrum,
    _derived_spectrum,
    compressed_rank,
    eig_clusters,
    eigh,
    eigvalsh,
    herm_part,
    operands,
    spectrum,
    support_leq,
    support_meet,
)
from .kinds import _check_alpha
from .relent import _empty_meet_renyi, _support_value, _umegaki
from .supports import OpConvexFn, _abs_cont, kubo_ando_mean, perspective, power_fn

INF = float("inf")


def _log_euclidean_h(weights, ops, basis: np.ndarray) -> np.ndarray:
    """H = sum_x P(x) B* log W_x B, the log-Euclidean exponent compressed to
    ran(B), inside every supp W_x; ``ops`` are matrices or their spectra,
    and zero weights are skipped. Where ran(B) is all of supp W_x, the term
    is read off W_x's spectrum (``Spectrum.compressed``)."""
    h = np.zeros((basis.shape[1],) * 2, dtype=complex)
    for w, op in zip(weights, ops):
        if w != 0.0:
            sp = spectrum(op)
            c = sp.compressed(basis)
            h = h + w * (basis.conj().T @ sp.log() @ basis if c is None else c.log())
    return h


def _um_first_top(
    rho, sigma, basis: np.ndarray, t: float = 0.0, u: float = 1.0, tol: float = 0.0
) -> tuple[float, np.ndarray, float, int]:
    """sup over states omega in ran(B) of
    t BS(omega||sigma) + u D(omega||sigma) - D(omega||rho), with D Umegaki,
    t, u >= 0 and t + u = 1, on a nonzero ran(B) inside ran(sigma)
    (``rho``, ``sigma`` matrices or spectra). Returns (value, v, gap, steps):
    the value is the objective at the pure state B v v* B*, and value + gap
    an upper bound on the sup.

    Pure states suffice. Write omega = sum_i p_i e_i e_i* and
    X = omega^{1/2} sigma^+ omega^{1/2}, so <e_i|X|e_i> = p_i <e_i|sigma^+|e_i>.
    Jensen on the spectral measure of X at e_i gives
    <e_i|log X|e_i> <= log <e_i|X|e_i>, and summing with weights p_i,
    BS(omega||sigma) + S(omega) <= sum_i p_i log <e_i|sigma^+|e_i>. The
    objective is t (BS(omega||sigma) + S(omega)) + Tr omega L with
    L = log rho - u log sigma, hence at most sum_i p_i f(e_i e_i*). On a pure
    B v it is t log <v|A|v> + <v|L|v> with A = B* sigma^+ B and L compressed
    to ran(B). (Mixture weights sum to 1 within 1e-12; the slack
    (1 - t - u) S(omega) is below 1e-12 log d.)

    The dual. The pairs (<v|A|v>, <v|L|v>) over unit v fill a convex set
    (Toeplitz-Hausdorff for A + iL), on which t log a + l is concave. With
    log a = min_{s>0} s a - log s - 1 and the minimax theorem,
        value = min_{s>0} lambda_max(t s A + L) - t (log s + 1).
    Every s gives an upper bound, and the top eigenvector v_s of t s A + L
    the lower bound t log <v_s|A|v_s> + <v_s|L|v_s>; they differ by
    t (x - 1 - log x) with x = s <v_s|A|v_s>, which is nondecreasing in s.

    Each step takes one eigh of t s A + L at log s, which narrows the exact
    bracket [-log lambda_max(A), -log lambda_min(A)] on the sign of x - 1
    and gives the derivatives of phi(log s) = lambda_max(t s A + L)
    - t (log s + 1) in log s: phi' = t (x - 1) and
    phi'' = t x + 2 (t s)^2 sum_{j != top} |<v_j|A|v_s>|^2 / (lambda_top - lambda_j),
    all read off one product V* (A v_s). The next point is the Newton step
    on log x, whose derivative is phi'' / (t x): its zero is that of phi',
    and it is linear in log s while v_s stays put, so that on a commuting
    pair off a crossing of eigenvalues the step is exact. The step is taken
    only strictly inside the bracket and only while it is at most half the
    step before last (the rtsafe rule; the first point, the bracket's
    midpoint, counts as a bisection); otherwise the step bisects. Where the
    top eigenvalue is degenerate at the minimizer (as for commuting pairs
    at a crossing) phi has a kink, Newton's point overshoots it and the
    steps bisect, and no single eigenvector attains the value; each step
    then also tries the v with s <v|A|v> = 1 in the span of the
    eigenvectors whose eigenvalues lie within the current gap of the top,
    which is at most that spread below the upper bound.

    The loop stops once the best upper bound minus the best lower bound is
    at most ``tol``, or the bracket reaches float resolution; ``gap`` is
    that difference, floored at 0 against rounding. t = 0 is the
    log-Euclidean limit: lambda_max(L), with no s, gap 0 and 0 steps.
    """
    h = _log_euclidean_h((1.0, -u), (rho, sigma), basis)
    ell = (h + h.conj().T) / 2
    if t == 0.0:
        w, vecs = eigh(ell)
        return float(w[-1]), vecs[:, -1], 0.0, 0
    ss = spectrum(sigma)
    c = ss.compressed(basis)
    if c is None:
        a = basis.conj().T @ ss.power(-1.0) @ basis
        wa = eigvalsh((a + a.conj().T) / 2)
        lo, hi = -math.log(wa[-1]), -math.log(wa[0])
    else:
        # ran(B) is supp sigma: A has the eigenvalues 1/s of sigma's support
        a = c.power(-1.0)
        lo, hi = math.log(c.w[-1]), math.log(c.w[0])
    a = (a + a.conj().T) / 2
    best_up, best_lo, best_v = INF, -INF, None
    steps = 0
    log_s = 0.5 * (lo + hi)
    step = step_old = log_s - lo
    while True:
        s = math.exp(log_s)
        w, vecs = eigh(t * s * a + ell)
        steps += 1
        best_up = min(best_up, float(w[-1]) - t * (log_s + 1.0))
        # <v_j|A|v> for every eigenvector v_j, v the top one
        c = vecs.conj().T @ (a @ vecs[:, -1])
        av = float(c[-1].real)
        x = s * av
        low = t * math.log(av) + float(w[-1]) - t * x
        if low > best_lo:
            best_lo, best_v = low, vecs[:, -1]
        near = vecs[:, w >= w[-1] - (t * (x - 1.0 - math.log(x)))]
        if near.shape[1] > 1:
            mu, e = eigh(s * (near.conj().T @ a @ near))
            if mu[0] <= 1.0 <= mu[-1]:
                c2 = (mu[-1] - 1.0) / (mu[-1] - mu[0]) if mu[-1] > mu[0] else 0.0
                v = near @ (math.sqrt(c2) * e[:, 0] + math.sqrt(1.0 - c2) * e[:, -1])
                v = v / np.linalg.norm(v)
                low = t * math.log(float(np.vdot(v, a @ v).real)) + float(np.vdot(v, ell @ v).real)
                if low > best_lo:
                    best_lo, best_v = low, v
        if best_up - best_lo <= tol or not lo < log_s < hi:
            break
        if x < 1.0:
            lo = log_s
        else:
            hi = log_s
        # Newton on log x, with (log x)' = phi'' / (t x) and
        # phi'' / t = x + 2 t s^2 sum_j |c_j|^2 / (w_top - w_j); a degenerate
        # top makes the sum inf or nan, and the test below bisects
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = x + 2.0 * t * s * s * float(np.sum(np.abs(c[:-1]) ** 2 / (w[-1] - w[:-1])))
        newton = x * math.log(x) / curv
        if lo < log_s - newton < hi and abs(newton) <= 0.5 * step_old:
            step_old, step = step, abs(newton)
            log_s -= newton
        else:
            step_old, step = step, 0.5 * (hi - lo)
            log_s = lo + step
    return best_lo, best_v, max(best_up - best_lo, 0.0), steps


def _nonzero_trace(rho: np.ndarray) -> float:
    """Tr rho of a read operand; BadParameter unless it is positive."""
    tr_rho = float(np.trace(rho).real)
    if tr_rho <= 0:
        raise BadParameter("first argument must be nonzero")
    return tr_rho


def renyi_alpha_z(alpha: float, z: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Renyi (alpha, z)-divergence; z = inf gives the log-Euclidean family
    on the compression to the support meet, including its alpha = inf
    limit (alpha = inf needs z = inf)."""
    if not (z == INF or z > 0):
        raise BadParameter(f"z must be positive or inf, got {z}")
    _check_alpha(alpha)
    if alpha == INF and z != INF:
        raise BadParameter(f"alpha = inf is defined here for z = inf only, got z = {z}")
    (rho, _), (sr, ss) = operands(rho, sigma)
    tr_rho = _nonzero_trace(rho)
    if alpha == 1:
        gate = _support_value(1, sr, ss)
        return _umegaki(rho, sr, ss) / tr_rho if gate is None else gate
    leq = support_leq(sr, ss)
    if alpha > 1 and not leq:
        return INF
    if z == INF:
        # on the support meet, the basis barycentric_renyi_full's closed
        # forms take, so that the two agree bitwise
        b = support_meet(sr, ss)
        if b.shape[1] == 0:
            q = 0.0
        elif alpha == INF:
            return _um_first_top(sr, ss, b)[0]
        else:
            h = _log_euclidean_h((alpha, 1.0 - alpha), (sr, ss), b)
            q = float(np.sum(np.exp(eigh(herm_part(h))[0])))
    else:
        # the product has the rank of P_rho P_sigma, that of rho's compression to supp sigma
        rank = sr.rank if leq else compressed_rank(sr, ss.basis)
        a = sr.power(alpha / (2.0 * z))
        w = _derived_spectrum(a @ ss.power((1.0 - alpha) / z) @ a, rank).w
        q = float(np.sum(w**z))
    if q <= 0.0:
        return _empty_meet_renyi(alpha)  # log q = -inf
    return (math.log(q) - math.log(tr_rho)) / (alpha - 1.0)


def max_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D_inf: log of the smallest lambda with rho <= lambda sigma; -inf
    when rho is below the support cutoff."""
    (rho, _), (sr, ss) = operands(rho, sigma)
    gate = _support_value(INF, sr, ss)
    return _dmax_top(rho, ss, sr.rank)[0] if gate is None else gate


def _dmax_top(rho: np.ndarray, ss: Spectrum, rank: int) -> tuple[float, np.ndarray]:
    """(D_max(rho || sigma), psi) for a nonzero rho with ran(rho) <= ran(sigma),
    sigma's Spectrum ``ss`` and ``rank`` the rank of rho.

    D_max is the log of the top eigenvalue lambda of
    X = sigma^{-1/2} rho sigma^{-1/2}, graded in sigma's eigenbasis V, with
    top eigenvector x; y = sigma^{-1/2} V x
    solves rho y = lambda sigma y. The unit vector psi ~ rho y lies in
    ran(rho) and has <psi|sigma^+|psi> = lambda <psi|rho^+|psi>, so on the
    pure state psi psi* BS(.||sigma) - BS(.||rho) reaches D_max.
    """
    v = ss.basis
    x = ss.graded(v.conj().T @ rho @ v, rank)
    psi = rho @ (v @ (x.u[:, 0] / ss.root))
    return float(np.log(x.w[0])), psi / np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# optimal reverse test and maximal Renyi divergences


@dataclass(frozen=True)
class ReverseTest:
    """Classical pair (p, q) plus the channel Gamma on basis indicators,
    satisfying Gamma(p) = rho and Gamma(q) = sigma."""

    p: np.ndarray
    q: np.ndarray
    gamma_map: list  # density matrix per index

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(self.gamma_map[0])
        for x, g in zip(vec, self.gamma_map):
            out = out + float(x) * g
        return out


def _reverse_pq(rho: np.ndarray, sr, ss):
    """The classical pair (p, q) of ``optimal_reverse_test`` on the spectra
    sr, ss of rho and sigma, with what its channel is built from:
    (p, q, x, clusters, rho_ac), ``x`` the graded Spectrum of
    sigma^{-1/2} rho_ac sigma^{-1/2} in sigma's eigenbasis B and ``clusters``
    its eigenvalue blocks, p and q ending in the singular index.

    A block's mass is ||B s^{1/2} x_i||^2 = sum_j s_j |x_ji|^2 summed over
    its eigenvectors x_i (B is an isometry), so no d x d matrix is formed."""
    b = ss.basis
    rho_ac, outside = _abs_cont(rho, sr.cut, b, ss.kernel)
    # X = sigma^{-1/2} rho_ac sigma^{-1/2} has rank rho_ac = rank rho - outside;
    # its eigenvalues span about kappa(rho) kappa(sigma), so eig_clusters
    # groups them relative to each eigenvalue
    x = ss.graded(rho_ac, sr.rank - outside)
    clusters = eig_clusters(x.w)
    # positive masses, as s > 0 on supp sigma
    masses = ss.w[:ss.rank] @ np.abs(x.u) ** 2
    q = [float(np.sum(masses[idx])) for idx in clusters]
    p = [float(np.mean(x.w[idx])) * m for idx, m in zip(clusters, q)]
    # the singular index: rho's part outside supp sigma, by D_max's inclusion rule
    p.append(float(np.trace(rho).real - np.trace(rho_ac).real) if outside else 0.0)
    q.append(0.0)
    return np.array(p), np.array(q), x, clusters, rho_ac


def optimal_reverse_test(rho: np.ndarray, sigma: np.ndarray) -> ReverseTest:
    """Matsumoto's reverse test from the spectral decomposition of
    sigma^{-1/2} rho_ac sigma^{-1/2}, taken in the eigenbasis B of supp
    sigma; optimal for every maximal Renyi divergence with alpha in [0, 2]
    and at alpha = inf."""
    (rho, _), (sr, ss) = operands(rho, sigma)
    p, q, x, clusters, rho_ac = _reverse_pq(rho, sr, ss)
    b = ss.basis
    gammas = []
    for idx, mass in zip(clusters, q):
        # sigma^{1/2} times the block's eigenvectors
        v = b @ (ss.root[:, None] * x.u[:, idx])
        gammas.append(v @ v.conj().T / mass)
    # any state is admissible on a null singular index
    d = rho.shape[0]
    gammas.append((rho - b @ rho_ac @ b.conj().T) / p[-1] if p[-1] > 0
                  else np.eye(d, dtype=complex) / d)
    return ReverseTest(p, q, gammas)


@dataclass(frozen=True)
class MaxRenyiValue:
    value: float
    upper_bound_only: bool = False


def max_renyi(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> MaxRenyiValue:
    """Maximal Renyi alpha-divergence via the optimal reverse test.

    Exact for alpha in [0, 2] and alpha = inf; for alpha in (2, inf) the
    reverse test is not optimal and the value is flagged as an upper bound.
    """
    _check_alpha(alpha)
    (rho, _), (sr, ss) = operands(rho, sigma)
    _nonzero_trace(rho)
    if alpha == INF:
        gate = _support_value(INF, sr, ss)
        return MaxRenyiValue(_dmax_top(rho, ss, sr.rank)[0] if gate is None else gate)
    if not sr.rank:
        return MaxRenyiValue(_empty_meet_renyi(alpha), upper_bound_only=alpha > 2)
    p, q = _reverse_pq(rho, sr, ss)[:2]
    return MaxRenyiValue(classical_renyi(alpha, p, q), upper_bound_only=alpha > 2)


def max_q_alpha_mean_route(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Q_alpha^max as a geometric-mean trace: Tr sigma #_alpha rho for
    alpha in [0, 1], and its continuation, the maximal f-divergence of
    x^alpha (``max_fdivergence(power_fn(alpha))``, +inf unless
    supp rho <= supp sigma), for alpha in (1, 2]. Independent of the
    reverse-test route."""
    if 0.0 <= alpha <= 1.0:
        return float(np.trace(kubo_ando_mean(alpha, rho, sigma)).real)
    if not 1.0 < alpha <= 2.0:
        raise BadParameter(f"mean route needs alpha in [0, 2], got {alpha}")
    return max_fdivergence(power_fn(alpha), rho, sigma)


def max_fdivergence(fn: OpConvexFn, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Maximal f-divergence: trace of the perspective closed form, equal to
    the classical f-divergence of the optimal reverse test."""
    if not fn.is_operator_convex:
        raise BadParameter(f"{fn.name} is not declared operator convex")
    if not math.isfinite(fn.f_at_zero_plus):
        raise BadParameter(f"{fn.name}: f(0+) must be finite")
    try:
        return float(np.trace(perspective(fn, rho, sigma)).real)
    except InfiniteLimit:
        return INF


def reg_measured_renyi(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Regularized measured Renyi divergence: D_{alpha,alpha} for
    alpha >= 1/2 (max-relative entropy at alpha = inf), D_{alpha,1-alpha}
    below 1/2."""
    _check_alpha(alpha)
    if alpha == INF:
        return max_relative_entropy(rho, sigma)
    if alpha >= 0.5:
        return renyi_alpha_z(alpha, alpha, rho, sigma)
    return renyi_alpha_z(alpha, 1.0 - alpha, rho, sigma)
