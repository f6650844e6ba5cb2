"""Independent brute-force verifiers: Bloch-sphere grid minimization,
finite-difference differentiation with Richardson extrapolation, and
eps-ladder limit certification. These mint the golden values the tests
freeze and cross-check solver outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter
from .hermitian import spectrum

INF = float("inf")

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def bloch_states(theta: np.ndarray, phi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Batch of qubit states (I + r n.sigma)/2 for flat parameter arrays."""
    nx = r * np.sin(theta) * np.cos(phi)
    ny = r * np.sin(theta) * np.sin(phi)
    nz = r * np.cos(theta)
    out = np.empty((len(theta), 2, 2), dtype=complex)
    out[:, 0, 0] = (1 + nz) / 2
    out[:, 1, 1] = (1 - nz) / 2
    out[:, 0, 1] = (nx - 1j * ny) / 2
    out[:, 1, 0] = (nx + 1j * ny) / 2
    return out


def _eig2(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_plus, lambda_minus, gap) of a batch of 2x2 Hermitian matrices."""
    m = (batch[:, 0, 0].real + batch[:, 1, 1].real) / 2
    s = np.sqrt(
        ((batch[:, 0, 0].real - batch[:, 1, 1].real) / 2) ** 2
        + np.abs(batch[:, 0, 1]) ** 2
    )
    return m + s, np.clip(m - s, 0.0, None), s


def _xlogx(v: np.ndarray) -> np.ndarray:
    return np.where(v > 0, v * np.log(np.clip(v, 1e-300, None)), 0.0)


def batch_umegaki_term(w_op: np.ndarray):
    """Vectorized omega -> D^Um(omega || W) on qubit state batches."""
    lw = spectrum(w_op).log()

    def term(states: np.ndarray) -> np.ndarray:
        lp, lm, _ = _eig2(states)
        ent = _xlogx(lp) + _xlogx(lm)
        cross = np.einsum("nij,ji->n", states, lw).real
        return ent - cross

    return term


def batch_bs_term(w_op: np.ndarray):
    """Vectorized omega -> D^max(omega || W) on qubit batches; W invertible."""
    sw = spectrum(w_op)
    if sw.w[-1] <= sw.cut:
        raise BadParameter("batched BS term needs an invertible second argument")
    wm = sw.power(-0.5)

    def term(states: np.ndarray) -> np.ndarray:
        m = np.einsum("ij,njk,kl->nil", wm, states, wm)
        mp, mm, gap = _eig2(m)
        tr_w = np.trace(w_op).real
        tr_wm = np.einsum("ij,nji->n", w_op, m).real
        out = np.empty(len(states))
        deg = gap < 1e-14
        # nondegenerate: Tr W F_+ = (Tr(W M) - mu_- Tr W) / (mu_+ - mu_-)
        with np.errstate(divide="ignore", invalid="ignore"):
            twfp = (tr_wm - mm * tr_w) / (2 * gap)
        twfm = tr_w - twfp
        out = _xlogx(mp) * twfp + _xlogx(mm) * twfm
        out[deg] = _xlogx(mp[deg]) * tr_w
        return out

    return term


def make_batch_objective(terms):
    """Sum of weighted vectorized terms: list of (weight, term_fn)."""

    def objective(states: np.ndarray) -> np.ndarray:
        total = np.zeros(len(states))
        for w, fn in terms:
            total = total + w * fn(states)
        return total

    return objective


def bloch_grid_min(
    objective,
    resolution: tuple[int, int, int] = (120, 240, 60),
    batch_objective=None,
    refine: int = 2,
    chunk: int = 200_000,
):
    """Exhaustive minimization of a qubit-state objective over a Bloch-ball
    grid (polar x azimuthal x radial, pure boundary included), followed by
    local grid refinement rounds. Returns (state, value).

    The scalar ``objective`` takes one 2x2 state; ``batch_objective`` (if
    given) takes an (N, 2, 2) batch and is used instead for speed.
    """
    nt, np_, nr = resolution

    def evaluate(th, ph, rr):
        states = bloch_states(th, ph, rr)
        if batch_objective is not None:
            vals = np.empty(len(states))
            for lo in range(0, len(states), chunk):
                vals[lo : lo + chunk] = batch_objective(states[lo : lo + chunk])
        else:
            vals = np.array([objective(s) for s in states])
        vals = np.where(np.isfinite(vals), vals, INF)
        k = int(np.argmin(vals))
        return states[k], float(vals[k]), (float(th[k]), float(ph[k]), float(rr[k]))

    def grid(t_lo, t_hi, p_lo, p_hi, r_lo, r_hi):
        t = np.linspace(t_lo, t_hi, nt)
        p = np.linspace(p_lo, p_hi, np_, endpoint=False) if p_hi - p_lo >= 2 * math.pi - 1e-12 else np.linspace(p_lo, p_hi, np_)
        r = np.linspace(max(r_lo, 0.0), min(r_hi, 1.0), nr)
        tt, pp, rr = np.meshgrid(t, p, r, indexing="ij")
        return tt.ravel(), pp.ravel(), rr.ravel()

    th, ph, rr = grid(0.0, math.pi, 0.0, 2 * math.pi, 1.0 / nr, 1.0)
    # include the maximally mixed center
    th = np.concatenate([th, [0.0]])
    ph = np.concatenate([ph, [0.0]])
    rr = np.concatenate([rr, [0.0]])
    state, value, (bt, bp, br) = evaluate(th, ph, rr)

    dt, dp, dr = math.pi / nt, 2 * math.pi / np_, 1.0 / nr
    for _ in range(refine):
        th, ph, rr = grid(bt - 2 * dt, bt + 2 * dt, bp - 2 * dp, bp + 2 * dp, br - 2 * dr, br + 2 * dr)
        s2, v2, (bt2, bp2, br2) = evaluate(th, ph, rr)
        if v2 < value:
            state, value, (bt, bp, br) = s2, v2, (bt2, bp2, br2)
        dt, dp, dr = 4 * dt / nt, 4 * dp / np_, 4 * dr / nr
    return state, value


def fd_derivative(g, t0: float, steps: tuple[float, float] = (1e-3, 1e-4)) -> float:
    """Central difference with Richardson extrapolation over two step sizes."""
    h1, h2 = steps
    d1 = (g(t0 + h1) - g(t0 - h1)) / (2 * h1)
    d2 = (g(t0 + h2) - g(t0 - h2)) / (2 * h2)
    return (h1 * h1 * d2 - h2 * h2 * d1) / (h1 * h1 - h2 * h2)


@dataclass(frozen=True)
class LadderLimit:
    value: float
    error: float
    monotone: bool


def eps_ladder_limit(h, eps: tuple = (1e-3, 1e-4, 1e-5, 1e-6)) -> LadderLimit:
    """Extrapolated eps -> 0 limit of h over a decreasing ladder, with an
    error estimate; flags non-monotone ladders.

    Assumes h(eps) ~ L + c eps^p and estimates p from successive ratios
    (the ladder is geometric with ratio 10).
    """
    v = [float(h(e)) for e in eps]
    diffs = np.diff(v)
    monotone = bool(np.all(diffs >= -1e-14) or np.all(diffs <= 1e-14))
    d1, d0 = v[-2] - v[-1], v[-3] - v[-2]
    if abs(d1) < 1e-15:
        return LadderLimit(v[-1], abs(d1), monotone)
    ratio = d0 / d1
    if not math.isfinite(ratio) or ratio <= 1.0:
        return LadderLimit(v[-1], abs(d1), monotone)
    value = v[-1] - d1 / (ratio - 1.0)
    return LadderLimit(value, abs(d1 / (ratio - 1.0)) * 0.5 + 1e-15, monotone)


# ---------------------------------------------------------------------------
# golden fixtures: JSON lines {id, inputs, oracle, params, value, tol}


def golden_cases() -> list[dict]:
    """Recompute every frozen derived value with its minting oracle."""
    from .classical import classical_rel_entropy, classical_renyi, hellinger_arc_point
    from .hermitian import sample_state

    cases = []

    def add(cid, oracle, params, inputs, value, tol):
        cases.append(
            {
                "id": cid,
                "inputs": inputs,
                "oracle": oracle,
                "params": params,
                "value": value,
                "tol": tol,
            }
        )

    p, q = [0.5, 0.5], [0.25, 0.75]
    add(
        "classical-kl",
        "direct-formula",
        {},
        {"p": p, "q": q},
        classical_rel_entropy(p, q),
        1e-12,
    )
    q2 = [0.125, 0.875]
    add(
        "classical-renyi-2",
        "direct-formula",
        {"alpha": 2},
        {"p": p, "q": q2},
        classical_renyi(2, p, q2),
        1e-12,
    )
    add(
        "classical-dmax",
        "max-ratio",
        {},
        {"p": p, "q": q},
        classical_renyi(INF, p, q),
        1e-12,
    )
    arc = hellinger_arc_point(0.3, p, q2)
    add(
        "hellinger-arc-0.3",
        "direct-formula",
        {"alpha": 0.3},
        {"p": p, "q": q2},
        [float(x) for x in arc],
        1e-12,
    )
    # geometric-weighted Umegaki on a pure state: log <psi| sigma^{-1} psi>
    add(
        "geom-um-pure",
        "inner-product",
        {"sigma": [0.6, 0.4]},
        {"psi": "(1,1)/sqrt(2)"},
        math.log((1 / 0.6 + 1 / 0.4) / 2),
        1e-12,
    )
    # bloch oracle against the all-Umegaki closed form on a fixed qubit pair
    rho = sample_state(2, 2, 11)
    sig = sample_state(2, 2, 12)
    alpha = 0.5
    obj = make_batch_objective(
        [(alpha, batch_umegaki_term(rho)), (1 - alpha, batch_umegaki_term(sig))]
    )
    _, val = bloch_grid_min(None, resolution=(60, 120, 30), batch_objective=obj)
    add(
        "bloch-umegaki-radius",
        "bloch_grid_min",
        {"resolution": [60, 120, 30], "alpha": alpha, "seeds": [11, 12]},
        {"rho_seed": 11, "sigma_seed": 12},
        val,
        2e-4,
    )
    # fd oracle sanity value
    add("fd-exp", "fd_derivative", {"t0": 0.0}, {"g": "exp"}, fd_derivative(math.exp, 0.0), 1e-8)
    return cases


def regenerate_golden(path) -> None:
    with open(path, "w") as fh:
        for case in golden_cases():
            fh.write(json.dumps(case) + "\n")


def load_golden(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]
