"""Quantum relative entropies used as generators: Umegaki,
Belavkin-Staszewski (= maximal), a certified projective-measured lower
bound, gamma-weighted geometric compositions, and convex mixtures.

Every kind satisfies (and is tested against) the quantum-relative-entropy
axioms: classical reduction, non-negativity on states, the scaling law,
and finiteness exactly on support-dominated pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .classical import _kl_rows, _renyi_rows, classical_rel_entropy
from .errors import BadParameter
from .hermitian import (_check_shapes, _derived_spectrum, sample_unitary, spectral_decompose,
                        spectrum, support_leq)
# the grammar lives in .kinds; its names stay importable from here
from .kinds import (  # noqa: F401
    Barycentric,
    BelavkinStaszewski,
    EntropyKind,
    EvalSpec,
    GeomWeighted,
    MaxRenyi,
    MeasuredProjective,
    Mixture,
    RenyiAlphaZ,
    Umegaki,
    _whole_counts,
    parse_alpha,
    parse_grid,
    parse_kind,
    parse_kinds,
)
from .supports import kubo_ando_mean

INF = float("inf")


@dataclass(frozen=True)
class DivergenceValue:
    value: float
    optimizer_artifacts: Optional[dict] = None
    certificate_gap: Optional[float] = None


# ---------------------------------------------------------------------------
# concrete relative entropies


def _is_zero(a: np.ndarray) -> bool:
    return float(np.trace(a).real) <= 1e-14 * max(1, a.shape[0])


def _empty_meet_renyi(alpha: Optional[float]) -> float:
    """A Renyi alpha-divergence (alpha = None: the relative entropy) on an
    empty support meet, as for a rho whose every eigenvalue is below the
    support cutoff: log Q_alpha = -inf, so +inf below alpha = 1, 0.0 at
    alpha = 1 and -inf above it."""
    if alpha is None or alpha == 1:
        return 0.0
    return INF if alpha < 1 else -INF


def umegaki(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr rho (nlog rho - nlog sigma); +inf unless ran(rho) <= ran(sigma)."""
    rho, sigma = _check_shapes(rho, sigma)
    if _is_zero(rho):
        return 0.0
    if _is_zero(sigma):
        return INF
    sr, ss = spectrum(rho), spectrum(sigma)
    if not sr.basis.size:
        return 0.0  # every eigenvalue of rho is below the support cutoff
    if not support_leq(sr, ss):
        return INF
    return float(np.trace(rho @ (sr.log() - ss.log())).real)


def bs_rel_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Belavkin-Staszewski (= maximal) relative entropy
    Tr rho nlog(rho^{1/2} sigma^{-1} rho^{1/2}), taken in supp rho's
    eigenbasis V as Tr rho_c log Y with rho_c = V* rho V and
    Y = rho_c^{1/2} V* sigma^+ V rho_c^{1/2} of full rank."""
    rho, sigma = _check_shapes(rho, sigma)
    if _is_zero(rho):
        return 0.0
    if _is_zero(sigma):
        return INF
    sr, ss = spectrum(rho), spectrum(sigma)
    if not sr.basis.size:
        return 0.0  # every eigenvalue of rho is below the support cutoff
    if not support_leq(sr, ss):
        return INF
    v = sr.basis
    r = sr.w[:v.shape[1]]  # rho_c = diag(r)
    rh = np.sqrt(r)
    y = _derived_spectrum(rh[:, None] * (v.conj().T @ ss.power(-1.0) @ v) * rh, r.size)
    return float(r @ y.log().diagonal().real)


def _measured_point(alpha, pair, u):
    """The ascent's one kernel, on a stack of bases ``u`` of shape (k, d, d)
    and ``pair`` = (rho, sigma) stacked as shape (2, 1, d, d).

    Returns (f, pu, ab, diff): pu = pair @ u, the clipped diagonals
    ab = (a, b) of u* rho u and u* sigma u, each read from pu alone, the
    classical values f = f(a, b) of shape (k,), and diff = log a - log b on
    supp a for alpha = None and 1 (None for other alpha). The caller ignores
    divide-by-zero warnings. ``_riemannian_gradient`` reads the gradient at
    one basis of the stack from the same arrays.
    """
    pu = pair @ u
    ab = np.maximum((u.conj() * pu).sum(axis=-2).real, 0.0)
    if alpha is None or alpha == 1:
        f, diff = _kl_rows(ab)
        return (f if alpha is None else f / ab[0].sum(axis=-1)), pu, ab, diff
    return _renyi_rows(alpha, ab[0], ab[1]), pu, ab, None


def _measured_slopes(alpha, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives of the classical objective in a and in b.

    Entries with a = 0 or b = 0 get slope 0, which is exact: a PSD matrix
    with a zero diagonal entry has that whole row zero, so that entry does
    not move to first order, and the other argument's slope there is 0.
    """
    da, db = np.zeros_like(a), np.zeros_like(b)
    both = (a > 0) & (b > 0)
    x, y = a[both], b[both]
    if alpha is None or alpha == 1:
        da[both], db[both] = np.log(x) - np.log(y), -x / y
        if alpha == 1:
            da, db = da / a.sum(), db / a.sum()
    elif alpha == INF:
        # subgradient at the first argmax of a / b
        ratio = np.full(a.shape, -INF)
        ratio[both] = x / y
        i = int(np.argmax(ratio))
        da[i], db[i] = 1.0 / a[i], -1.0 / b[i]
    elif alpha == 0:
        db[both] = -1.0 / b[a > 0].sum()
    else:
        q = x**alpha * y ** (1.0 - alpha)
        qa = q.sum()
        da[both] = alpha * q / x / (qa * (alpha - 1.0))
        db[both] = -q / y / qa
    return da, db


def _riemannian_gradient(alpha, u, pu, ab, diff, i) -> np.ndarray:
    """Skew-Hermitian M with d/dt f(u e^{tK}) = Re Tr(M K) at t = 0, for
    the basis u at index i of a ``_measured_point`` stack (pu, ab, diff),
    where f is finite.

    d/dt diag(A) = diag([A, K]) for A = u* rho u, so M = [D_a, A] + [D_b, B]
    for B = u* sigma u and the diagonal slope matrices D_a, D_b. For
    alpha = None and 1 the slopes are diff and -a/b: a finite f has b > 0
    wherever a > 0, and diff = 0 where a = 0.
    """
    a, b = ab[:, i]
    slopes = np.zeros((2, a.size))
    if diff is None:
        slopes[:] = _measured_slopes(alpha, a, b)
    else:
        slopes[0] = diff[i]
        np.divide(-a, b, out=slopes[1], where=a > 0)
        if alpha == 1:
            slopes /= a.sum()
    return ((slopes[:, :, None] - slopes[:, None, :]) * (u.conj().T @ pu[:, i])).sum(axis=0)


@lru_cache(maxsize=None)
def _generator_maps(d):
    """Linear maps for the n = d(d-1) skew generators K_p, taken pair by
    pair (j, k), j < k, in ``np.triu_indices`` order, each pair's
    E_jk - E_kj before i(E_jk + E_kj).

    Returns (pair_diff, lin, to_gen). ``pair_diff`` (d, n/2) maps a vector
    f to 2 (f_k - f_j) on each pair. ``lin`` (d^2, n n/2 + n d) maps a
    flattened d x d matrix X to the entries [X, K_p]_jk of every generator
    p on every pair (j, k), followed by the diagonals diag([X, K_p]).
    ``to_gen`` maps coordinates s to -i sum_p s_p K_p, flattened.
    """
    js, ks = np.triu_indices(d, 1)
    pairs = js.size
    pair_diff = np.zeros((d, pairs))
    pair_diff[js, np.arange(pairs)], pair_diff[ks, np.arange(pairs)] = -2.0, 2.0
    e = np.zeros((pairs, d, d), dtype=complex)
    e[np.arange(pairs), js, ks] = 1.0
    gens = np.stack((e - e.transpose(0, 2, 1), 1j * (e + e.transpose(0, 2, 1))), axis=1)
    gens = gens.reshape(2 * pairs, d, d)
    basis = np.eye(d * d).reshape(d * d, 1, d, d)
    comm = basis @ gens - gens @ basis  # [E_rc, K_p], shape (d^2, n, d, d)
    lin = np.concatenate((comm[:, :, js, ks].reshape(d * d, -1),
                          comm.diagonal(axis1=2, axis2=3).reshape(d * d, -1)), axis=1)
    maps = pair_diff, lin, (-1j * gens).reshape(2 * pairs, d * d).T
    for m in maps:
        m.flags.writeable = False  # shared by every caller through the cache
    return maps


def _newton_system(alpha, u, pu, ab, diff, i) -> tuple[np.ndarray, np.ndarray]:
    """(g, H): the gradient and the Hessian of the relative-entropy objective
    (alpha = None or 1) in the coordinates s of u exp(sum_p s_p K_p), at the
    basis u at index i of a ``_measured_point`` stack whose diagonals a, b
    are positive; the generators K_p are ordered as in ``_generator_maps``.

    With f_A = log a - log b, f_B = -a/b and J_X the (d, n) matrix whose
    column p is diag([X, K_p]) for X = A, B, g = J_A^T f_A + J_B^T f_B and
    H = G^T diag(1/a) G + (T + T^T)/2, G = J_A - diag(a/b) J_B (the
    objective's second derivatives in a and b have rank one), with
    T_pq = sum_X Re Tr([K_q, diag(f_X)] [X, K_p]) from the second-order
    term of e^{-K} X e^{K}.
    """
    a, b = ab[:, i]
    d = a.size
    n, pairs = d * (d - 1), d * (d - 1) // 2
    pair_diff, lin, _ = _generator_maps(d)
    y = (u.conj().T @ pu[:, i]).reshape(2, d * d) @ lin
    f = np.stack((diff[i], -a / b))
    # [K_q, diag(f_X)] is nonzero only at (j, k) and (k, j), so for Hermitian
    # W = [X, K_p], Re Tr([K_q, diag(f_X)] W) = 2 (f_X,k - f_X,j) times Re W_jk
    # (real K_q) or Im W_jk (imaginary K_q): T's columns (Re, Im) per pair
    w = y[:, :n * pairs].reshape(2, n, pairs)
    t = (w * (f @ pair_diff)[:, None, :]).sum(axis=0).view(float)
    jac = y[:, n * pairs:].real.reshape(2, n, d)  # J_A^T, J_B^T
    gm = jac[0] - jac[1] * (a / b)  # G^T
    h = (gm / a) @ gm.T + 0.5 * (t + t.T)
    g = jac[0] @ f[0] + jac[1] @ f[1]
    if alpha == 1:
        return g / a.sum(), h / a.sum()
    return g, h


def _newton_generator(alpha, u, pu, ab, diff, i):
    """-i K for the modified Newton step K = sum_p s_p K_p,
    s = -(H - mu I)^{-1} g with mu = max(0, lambda_max + 1e-3 max(1, |lambda|_max))
    over H's eigenvalues, so that H - mu I is negative definite; None where a
    diagonal entry is zero or g^T s <= 0, where the gradient step is taken."""
    a, b = ab[:, i]
    if not (a.all() and b.all()):
        return None  # the clipped diagonals are nonnegative
    g, h = _newton_system(alpha, u, pu, ab, diff, i)
    lam, q = np.linalg.eigh(h)
    mu = max(0.0, lam[-1] + 1e-3 * max(1.0, lam[-1], -lam[0]))
    s = q @ ((q.T @ g) / (mu - lam))
    if not g @ s > 0:
        return None
    return (_generator_maps(a.size)[2] @ s).reshape(a.size, a.size)


def measured_lower_bound(
    rho: np.ndarray,
    sigma: np.ndarray,
    alpha: Optional[float] = None,
    restarts: int = 8,
    iters: int = 200,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Certified lower bound on the measured relative entropy (alpha=None)
    or measured Renyi alpha-divergence, from multi-start Riemannian ascent
    over projective measurement bases.

    ``restarts`` counts all starts, with a floor of two: restarts = 0, 1
    and 2 each run the identity start and the joint-diagonalizer start;
    each further start is a Haar-random basis drawn from ``seed``.

    Returns (value, best basis unitary). Multi-start reduction is the max,
    ties resolved toward the lowest start index. A rho that is zero or below
    the support cutoff gives 0.0 for the relative entropy and the
    empty-meet value (+inf below alpha = 1, -inf above) for Renyi alpha.
    """
    restarts, iters = _whole_counts("meas counts", restarts, iters)
    rho, sigma = _check_shapes(rho, sigma)
    d = rho.shape[0]
    sr = spectrum(rho)
    if not sr.basis.size:
        return _empty_meet_renyi(alpha), np.eye(d, dtype=complex)
    tr_r, tr_s = float(np.trace(rho).real), float(np.trace(sigma).real)
    if alpha is None or alpha >= 1:
        if not support_leq(sr, sigma):
            return INF, np.eye(d, dtype=complex)
    elif abs(np.trace(rho @ sigma).real) <= 1e-14 * tr_r * tr_s:
        return INF, np.eye(d, dtype=complex)  # orthogonal supports, tested on the scale of the inputs
    # ascend on normalized states and restore the exact scaling correction,
    # so the certified bound obeys the scaling law by construction
    if abs(tr_r - 1.0) <= 1e-12 and abs(tr_s - 1.0) <= 1e-12:
        return _measured_ascent(rho, sigma, alpha, restarts, iters, seed)
    val, u = _measured_ascent(rho / tr_r, sigma / tr_s, alpha, restarts, iters, seed)
    if alpha is None:
        return tr_r * val + tr_r * math.log(tr_r) - tr_r * math.log(tr_s), u
    return val + math.log(tr_r) - math.log(tr_s), u


_CHUNK = 4  # trial steps scored per stacked kernel call
_NEWTON_MAX_D = 4  # largest d whose relative-entropy ascent takes Newton steps


@np.errstate(divide="ignore")
def _measured_ascent(rho, sigma, alpha, restarts, iters, seed):
    """Multi-start ascent of measured_lower_bound on a pair of states, under
    one divide-by-zero errstate for all its kernel calls."""
    d = rho.shape[0]
    rng = np.random.default_rng(seed)
    pair = np.stack((rho, sigma))[:, None]
    # the trial steps step / 2^j, j < 25, as factors 2^-j in stacks of _CHUNK
    halvings = np.ldexp(1.0, -np.arange(25))[:, None, None]
    chunks = [halvings[lo:lo + _CHUNK] for lo in range(0, halvings.size, _CHUNK)]
    # deterministic starts: identity and a joint-diagonalizer candidate
    # (exact for commuting pairs), then random bases
    _, u_joint = spectral_decompose(rho + math.sqrt(2.0) * sigma)
    fixed_starts = [np.eye(d, dtype=complex), u_joint]
    best_val, best_u = -INF, np.eye(d, dtype=complex)
    newton = (alpha is None or alpha == 1) and d <= _NEWTON_MAX_D
    for start in range(max(restarts, len(fixed_starts))):
        u = fixed_starts[start] if start < len(fixed_starts) else sample_unitary(d, rng)
        vals, *stack = _measured_point(alpha, pair, u[None])
        val, point = float(vals[0]), (*stack, 0)
        if not math.isfinite(val):
            continue
        step = 0.5
        for _ in range(iters):
            m = _riemannian_gradient(alpha, u, *point)
            mn = math.sqrt(np.vdot(m, m).real)
            # sqrt(2)|M|_F is the norm of the slope vector along the skew
            # generators E_jk - E_kj, i(E_jk + E_kj) (j < k)
            if math.sqrt(2.0) * mn < 1e-10:
                break
            # u e^{tK} = (uV) e^{itw} V* with (w, V) = eigh(K / i): the Newton
            # step walks t = 1, 1/2, ... from at most 1 rad per eigenvalue;
            # the gradient step walks K = -sqrt(2) M / |M|_F from t = step
            gen = _newton_generator(alpha, u, *point) if newton else None
            if gen is None:
                w, v = np.linalg.eigh(m * (1j * math.sqrt(2.0) / mn))
                first = step
            else:
                w, v = np.linalg.eigh(gen)
                first = min(1.0, 1.0 / float(np.abs(w).max()))
            uv, vh, iw = u @ v, v.conj().T, 1j * w
            # backtracking over the trial steps, scored _CHUNK at a time;
            # the first that improves the value is kept
            for chunk in chunks:
                t = first * chunk
                cands = (uv * np.exp(t * iw)) @ vh
                vals, *stack = _measured_point(alpha, pair, cands)
                ok = np.isfinite(vals) & (vals > val + 1e-14)
                i = int(ok.argmax())
                if ok[i]:
                    u, val, point = cands[i], float(vals[i]), (*stack, i)
                    if gen is None:
                        step = min(2.0 * float(t[i, 0, 0]), 0.5)
                    break
            else:
                break  # no trial step improves the value
        if val > best_val:
            best_val, best_u = val, u
    return best_val, best_u


def geom_weighted_value(
    base: EntropyKind, gamma: float, rho: np.ndarray, sigma: np.ndarray, seed: int = 0
) -> DivergenceValue:
    """(1/(1-gamma)) D^base(rho || sigma #_gamma rho); +inf when the mean
    vanishes while rho has a support above the cutoff."""
    mean = kubo_ando_mean(gamma, rho, sigma)
    if _is_zero(mean):
        # a rho below the support cutoff counts as zero, as in bs_rel_entropy
        zero = _is_zero(rho) or not spectrum(rho).basis.size
        return DivergenceValue(0.0 if zero else INF)
    inner = rel_entropy(base, rho, mean, seed=seed)
    scale = 1.0 / (1.0 - gamma)
    gap = None if inner.certificate_gap is None else scale * inner.certificate_gap
    return DivergenceValue(scale * inner.value, inner.optimizer_artifacts, gap)


def rel_entropy(
    kind: EntropyKind, rho: np.ndarray, sigma: np.ndarray, seed: int = 0
) -> DivergenceValue:
    """Evaluate the quantum relative entropy of the given kind.

    For MeasuredProjective the value is a certified lower bound with
    certificate_gap = D^Um - value when both are finite.
    """
    rho, sigma = _check_shapes(rho, sigma)
    if isinstance(kind, Umegaki):
        return DivergenceValue(umegaki(rho, sigma))
    if isinstance(kind, BelavkinStaszewski):
        return DivergenceValue(bs_rel_entropy(rho, sigma))
    if isinstance(kind, MeasuredProjective):
        val, u = measured_lower_bound(
            rho, sigma, alpha=None, restarts=kind.restarts, iters=kind.iters, seed=seed
        )
        gap = None
        if math.isfinite(val):
            up = umegaki(rho, sigma)
            gap = max(up - val, 0.0) if math.isfinite(up) else None
        return DivergenceValue(val, {"basis": u}, gap)
    if isinstance(kind, GeomWeighted):
        return geom_weighted_value(kind.base, kind.gamma, rho, sigma, seed=seed)
    if isinstance(kind, Mixture):
        total, gap = 0.0, None
        for w, comp in kind.components:
            if w == 0.0:
                continue
            sub = rel_entropy(comp, rho, sigma, seed=seed)
            if sub.value == INF:
                return DivergenceValue(INF)
            total += w * sub.value
            if sub.certificate_gap is not None:
                gap = (gap or 0.0) + w * sub.certificate_gap
        return DivergenceValue(total, None, gap)
    raise BadParameter(f"unknown kind {kind!r}")


def kind_is_exact(kind: EntropyKind) -> bool:
    """False when the value is only a certified lower bound."""
    if isinstance(kind, MeasuredProjective):
        return False
    if isinstance(kind, GeomWeighted):
        return kind_is_exact(kind.base)
    if isinstance(kind, Mixture):
        return all(kind_is_exact(k) for _, k in kind.components)
    return True


# ---------------------------------------------------------------------------
# axiom report


def axioms_check(kind: EntropyKind, samples: int = 50, rng_seed: int = 0) -> dict:
    """Sample-based pass/fail report for the quantum-relative-entropy axioms."""
    from .hermitian import partial_trace, sample_cptp, sample_state, tensor

    rng = np.random.default_rng(rng_seed)
    exact = kind_is_exact(kind)
    checks = {
        "classical_reduction": True,
        "non_negativity": True,
        "scaling": True,
        "support_condition": True,
        "dpi_pinch": True,
        "dpi_partial_trace": None if not exact else True,
        "dpi_cptp": None if not exact else True,
        "anti_monotone": None if not exact else True,
    }

    sample_seed = 0

    def val(r, s):
        return rel_entropy(kind, r, s, seed=sample_seed).value

    for n in range(samples):
        sample_seed = int(rng.integers(2**31))
        d = int(rng.integers(2, 5))
        # classical reduction on commuting diagonal pairs
        p = rng.random(d) + 0.05
        q = rng.random(d) + 0.05
        u = sample_unitary(d, rng)
        dp, dq = u @ np.diag(p) @ u.conj().T, u @ np.diag(q) @ u.conj().T
        if abs(val(dp, dq) - classical_rel_entropy(p, q)) > 1e-8:
            checks["classical_reduction"] = False
        # non-negativity on states
        r = sample_state(d, d, rng)
        s = sample_state(d, d, rng)
        v = val(r, s)
        if v < -1e-10:
            checks["non_negativity"] = False
        # scaling law
        t, sc = 0.3 + rng.random(), 0.3 + rng.random()
        expect = t * v + (t * math.log(t) - t * math.log(sc)) * np.trace(r).real
        if exact and abs(val(t * r, sc * s) - expect) > 1e-8:
            checks["scaling"] = False
        if not exact:
            # scaling of a certified bound: compare against itself rescaled
            v2 = val(t * r, sc * s)
            if abs(v2 - (t * v + (t * math.log(t) - t * math.log(sc)))) > 1e-4:
                checks["scaling"] = False
        # support condition
        low = sample_state(d, max(1, d - 1), rng)
        if not math.isfinite(val(low, low)) or math.isfinite(val(s, low)):
            checks["support_condition"] = False
        # DPI under a random pinching
        pproj = sample_state(d, 1, rng)
        pproj = pproj / np.trace(pproj).real
        w, uu = spectral_decompose(pproj)
        b1 = uu[:, :1] @ uu[:, :1].conj().T
        blocks = [b1, np.eye(d) - b1]
        from .hermitian import pinch

        vin = val(r, s)
        vout = val(pinch(r, blocks), pinch(s, blocks))
        slack = 1e-7 if exact else 1e-4
        if vout > vin + slack:
            checks["dpi_pinch"] = False
        if exact:
            # DPI under partial trace on a correlated pair
            r2 = sample_state(d * 2, d * 2, rng)
            s2 = sample_state(d * 2, d * 2, rng)
            if val(partial_trace(r2, (d, 2), 0), partial_trace(s2, (d, 2), 0)) > val(
                r2, s2
            ) + 1e-7:
                checks["dpi_partial_trace"] = False
            # DPI under a sampled CPTP map
            ch = sample_cptp(d, d, 2, int(rng.integers(2**31)))
            if val(ch(r), ch(s)) > vin + 1e-7:
                checks["dpi_cptp"] = False
            # anti-monotonicity in the second argument
            bump = sample_state(d, d, rng) * rng.random()
            if val(r, s + bump) > vin + 1e-9:
                checks["anti_monotone"] = False

    report = {
        "kind": str(kind),
        "samples": samples,
        "checks": checks,
        "all_pass": all(v for v in checks.values() if v is not None),
    }
    return report
