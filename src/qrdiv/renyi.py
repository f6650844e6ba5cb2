"""Reference two-variable Renyi divergences: the (alpha, z) family with its
log-Euclidean z = inf limit, maximal Renyi divergences via the optimal
reverse test and via geometric-mean traces, max-relative entropy, maximal
f-divergences, and the regularized-measured closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import classical_renyi
from .errors import BadParameter, InfiniteLimit
from .hermitian import (
    SUPPORT_RTOL,
    _check_shapes,
    _derived_spectrum,
    eig_clusters,
    meet_bases,
    spectral_decompose,
    spectrum,
    support_cutoff,
    support_leq,
)
from .relent import _empty_meet_renyi, umegaki
from .supports import OpConvexFn, _abs_cont, perspective

INF = float("inf")


def _log_euclidean_h(weights, ops, basis: np.ndarray) -> np.ndarray:
    """H = sum_x P(x) B* log W_x B, the log-Euclidean exponent compressed to
    ran(B); ``ops`` are matrices or their spectra, and zero weights are
    skipped."""
    h = np.zeros((basis.shape[1],) * 2, dtype=complex)
    for w, op in zip(weights, ops):
        if w != 0.0:
            h = h + w * (basis.conj().T @ spectrum(op).log() @ basis)
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
    Each step bisects u = log s on the sign of x - 1, starting from the
    exact bracket [-log lambda_max(A), -log lambda_min(A)], at one eigh of
    t s A + L. Where the top eigenvalue is degenerate at the minimizer (as
    for commuting pairs) no single eigenvector attains the value; the step
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
        w, vecs = np.linalg.eigh(ell)
        return float(w[-1]), vecs[:, -1], 0.0, 0
    a = basis.conj().T @ spectrum(sigma).power(-1.0) @ basis
    a = (a + a.conj().T) / 2
    wa = np.linalg.eigvalsh(a)
    lo, hi = -math.log(wa[-1]), -math.log(wa[0])
    best_up, best_lo, best_v = INF, -INF, None
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        s = math.exp(mid)
        w, vecs = np.linalg.eigh(t * s * a + ell)
        steps += 1
        best_up = min(best_up, float(w[-1]) - t * (mid + 1.0))
        cands = [vecs[:, -1]]
        x = s * float(np.vdot(cands[0], a @ cands[0]).real)
        near = vecs[:, w >= w[-1] - (t * (x - 1.0 - math.log(x)))]
        if near.shape[1] > 1:
            mu, e = np.linalg.eigh(s * (near.conj().T @ a @ near))
            if mu[0] <= 1.0 <= mu[-1]:
                c2 = (mu[-1] - 1.0) / (mu[-1] - mu[0]) if mu[-1] > mu[0] else 0.0
                cands.append(near @ (math.sqrt(c2) * e[:, 0] + math.sqrt(1.0 - c2) * e[:, -1]))
        for v in cands:
            v = v / np.linalg.norm(v)
            low = t * math.log(float(np.vdot(v, a @ v).real)) + float(np.vdot(v, ell @ v).real)
            if low > best_lo:
                best_lo, best_v = low, v
        if best_up - best_lo <= tol or not lo < mid < hi:
            break
        if x < 1.0:
            lo = mid
        else:
            hi = mid
    return best_lo, best_v, max(best_up - best_lo, 0.0), steps


def renyi_alpha_z(alpha: float, z: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Renyi (alpha, z)-divergence; z = inf gives the log-Euclidean family
    on the compression to the support meet, including its alpha = inf
    limit (alpha = inf needs z = inf)."""
    rho, sigma = _check_shapes(rho, sigma)
    if not (z == INF or z > 0):
        raise BadParameter(f"z must be positive or inf, got {z}")
    if alpha < 0:
        raise BadParameter(f"alpha must be >= 0, got {alpha}")
    if alpha == INF and z != INF:
        raise BadParameter(f"alpha = inf is defined here for z = inf only, got z = {z}")
    tr_rho = float(np.trace(rho).real)
    if tr_rho <= 0:
        raise BadParameter("first argument must be nonzero")
    if alpha == 1:
        u = umegaki(rho, sigma)
        return u / tr_rho if math.isfinite(u) else INF
    sr, ss = spectrum(rho), spectrum(sigma)
    leq = support_leq(sr, ss)
    if alpha > 1 and not leq:
        return INF
    if z == INF:
        b, _ = meet_bases(sr.proj, ss.proj)
        if b.shape[1] == 0:
            q = 0.0
        elif alpha == INF:
            return _um_first_top(sr, ss, b)[0]
        else:
            w, _ = spectral_decompose(_log_euclidean_h((alpha, 1.0 - alpha), (sr, ss), b))
            q = float(np.sum(np.exp(w)))
    else:
        # the product has the rank of P_rho P_sigma: rank rho when supp rho <= supp
        # sigma, else that of rho compressed to supp sigma, cut with rho's cutoff
        rank = (sr.basis.shape[1] if leq else int(np.sum(
            np.linalg.eigvalsh(ss.basis.conj().T @ rho @ ss.basis) > sr.cut)))
        a = sr.power(alpha / (2.0 * z))
        w = _derived_spectrum(a @ ss.power((1.0 - alpha) / z) @ a, rank).w
        q = float(np.sum(w**z))
    if q <= 0.0:
        return _empty_meet_renyi(alpha)  # log q = -inf
    return (math.log(q) - math.log(tr_rho)) / (alpha - 1.0)


def max_relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """D_inf: log of the smallest lambda with rho <= lambda sigma; -inf
    when rho is below the support cutoff."""
    rho, sigma = _check_shapes(rho, sigma)
    sr, ss = spectrum(rho), spectrum(sigma)
    if not sr.basis.size:
        return -INF
    if not support_leq(sr, ss):
        return INF
    return _dmax_top(rho, ss, sr.basis.shape[1])[0]


def _dmax_top(rho: np.ndarray, sigma, rank: int) -> tuple[float, np.ndarray | None]:
    """(D_max(rho || sigma), psi) for ran(rho) <= ran(sigma) (``sigma`` a
    matrix or its Spectrum) and ``rank`` the rank of rho.

    D_max is the log of the top eigenvalue lambda of
    sigma^{-1/2} rho sigma^{-1/2}, with top eigenvector x; y = sigma^{-1/2} x
    solves rho y = lambda sigma y. The unit vector psi ~ rho y lies in
    ran(rho) and has <psi|sigma^+|psi> = lambda <psi|rho^+|psi>, so on the
    pure state psi psi* BS(.||sigma) - BS(.||rho) reaches D_max. psi is None
    when rho = 0 (D_max = -inf).
    """
    shi = spectrum(sigma).power(-0.5)
    x = _derived_spectrum(shi @ rho @ shi, rank)
    if x.w[0] <= 0:
        return -INF, None
    psi = rho @ (shi @ x.u[:, 0])
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


def optimal_reverse_test(rho: np.ndarray, sigma: np.ndarray) -> ReverseTest:
    """Matsumoto's reverse test from the spectral decomposition of
    sigma^{-1/2} rho_ac sigma^{-1/2}, taken in the eigenbasis B of supp
    sigma; optimal for every maximal Renyi divergence with alpha in [0, 2]
    and at alpha = inf."""
    rho, sigma = _check_shapes(rho, sigma)
    d = rho.shape[0]
    tau0 = np.eye(d, dtype=complex) / d  # any state is admissible on a null index
    sr, ss = spectrum(rho), spectrum(sigma)
    b = ss.basis
    rho_ac, outside = _abs_cont(rho, sr.cut, b, ss.kernel)
    root = np.sqrt(ss.w[:b.shape[1]])
    # X = sigma^{-1/2} rho_ac sigma^{-1/2} has rank rho_ac = rank rho - outside;
    # its eigenvalues span about kappa(rho) kappa(sigma), so eig_clusters
    # groups them relative to each eigenvalue
    x = _derived_spectrum(rho_ac / np.outer(root, root), sr.basis.shape[1] - outside)
    # rho has a part outside supp sigma iff C* rho C has rank against rho's
    # own cutoff, the rule D_max's support test uses
    missing = float(np.trace(rho).real - np.trace(rho_ac).real)
    sing = outside > 0

    p, q, gammas = [], [], []
    mass_cut = support_cutoff(np.array([np.trace(sigma).real]))
    for idx in eig_clusters(x.w):
        lam = float(np.mean(x.w[idx]))
        v = b @ (root[:, None] * x.u[:, idx])  # sigma^{1/2} times the eigenvectors
        mass = float(np.sum(np.abs(v) ** 2))
        p.append(lam * mass)
        q.append(mass)
        gammas.append(v @ v.conj().T / mass if mass > mass_cut else tau0)
    p.append(missing if sing else 0.0)
    q.append(0.0)
    gammas.append((rho - b @ rho_ac @ b.conj().T) / missing if sing else tau0)
    return ReverseTest(np.array(p), np.array(q), gammas)


@dataclass(frozen=True)
class MaxRenyiValue:
    value: float
    upper_bound_only: bool = False


def max_renyi(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> MaxRenyiValue:
    """Maximal Renyi alpha-divergence via the optimal reverse test.

    Exact for alpha in [0, 2] and alpha = inf; for alpha in (2, inf) the
    reverse test is not optimal and the value is flagged as an upper bound.
    """
    rho, sigma = _check_shapes(rho, sigma)
    tr_rho = float(np.trace(rho).real)
    if tr_rho <= 0:
        raise BadParameter("first argument must be nonzero")
    if alpha == INF:
        return MaxRenyiValue(max_relative_entropy(rho, sigma))
    if alpha < 0:
        raise BadParameter(f"alpha must be >= 0, got {alpha}")
    # lambda_max >= Tr rho / d, so only a trace at most d * SUPPORT_RTOL can
    # leave every eigenvalue of rho below the support cutoff
    if tr_rho <= rho.shape[0] * SUPPORT_RTOL and not spectrum(rho).basis.size:
        return MaxRenyiValue(_empty_meet_renyi(alpha), upper_bound_only=alpha > 2)
    rt = optimal_reverse_test(rho, sigma)
    val = classical_renyi(alpha, rt.p, rt.q)
    return MaxRenyiValue(val, upper_bound_only=alpha > 2)


def max_q_alpha_mean_route(alpha: float, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Q_alpha^max as a geometric-mean trace: Tr sigma #_alpha rho for
    alpha in [0, 1], and Tr sigma (sigma^{-1/2} rho sigma^{-1/2})^alpha for
    alpha in (1, 2] on support-dominated pairs. Independent of the
    reverse-test route."""
    from .supports import kubo_ando_mean

    rho, sigma = _check_shapes(rho, sigma)
    if 0.0 <= alpha <= 1.0:
        return float(np.trace(kubo_ando_mean(alpha, rho, sigma)).real)
    if not 1.0 < alpha <= 2.0:
        raise BadParameter(f"mean route needs alpha in [0, 2], got {alpha}")
    sr, ss = spectrum(rho), spectrum(sigma)
    if not support_leq(sr, ss):
        return INF
    shi = ss.power(-0.5)
    x = _derived_spectrum(shi @ rho @ shi, sr.basis.shape[1])
    return float(np.trace(sigma @ x.power(alpha)).real)


def max_fdivergence(fn: OpConvexFn, rho: np.ndarray, sigma: np.ndarray) -> float:
    """Maximal f-divergence: trace of the perspective closed form, equal to
    the classical f-divergence of the optimal reverse test."""
    rho, sigma = _check_shapes(rho, sigma)
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
    rho, sigma = _check_shapes(rho, sigma)
    if alpha == INF:
        return max_relative_entropy(rho, sigma)
    if alpha < 0:
        raise BadParameter(f"alpha must be >= 0, got {alpha}")
    if alpha >= 0.5:
        return renyi_alpha_z(alpha, alpha, rho, sigma)
    return renyi_alpha_z(alpha, 1.0 - alpha, rho, sigma)
