"""Hermitian/PSD matrix algebra: spectral calculus, supports, pinchings,
partial traces, and random instance generators.

All matrices are dense complex ``numpy`` arrays. Real powers, logarithms and
generalized inverses of PSD operators are always taken on the support; an
eigenvalue counts as zero iff it is ``<= SUPPORT_RTOL * max(1, lambda_max)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadFactorization,
    BadParameter,
    BadRank,
    DimensionMismatch,
    DomainError,
    NonHermitian,
    NotAResolution,
)

# Relative cutoff below which an eigenvalue of a PSD operator counts as zero.
SUPPORT_RTOL = 1e-9
# Eigenvalues closer than this (relative) are grouped into one spectral block.
CLUSTER_RTOL = 1e-8
# Hermiticity is rejected beyond this absolute asymmetry.
HERM_ATOL = 1e-8


def herm_part(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2.0


def check_hermitian(a: np.ndarray, tol: float = HERM_ATOL) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonHermitian(f"expected a square matrix, got shape {a.shape}")
    asym = np.max(np.abs(a - a.conj().T))
    if asym > tol:
        raise NonHermitian(f"asymmetry {asym:.3e} exceeds tolerance {tol:.1e}")
    return herm_part(a)


def spectral_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and a unitary of eigenvectors of Hermitian ``a``."""
    h = check_hermitian(a)
    w, u = np.linalg.eigh(h)
    return w[::-1].copy(), u[:, ::-1].copy()


def support_cutoff(w: np.ndarray) -> float:
    """Zero threshold for the eigenvalue list of a PSD operator."""
    wmax = float(np.max(w)) if w.size else 0.0
    return SUPPORT_RTOL * max(1.0, wmax)


def eig_clusters(w: np.ndarray) -> list[np.ndarray]:
    """Group (sorted descending) eigenvalues closer than CLUSTER_RTOL * max(1, w_max)."""
    if w.size == 0:
        return []
    tol = CLUSTER_RTOL * max(1.0, float(np.max(np.abs(w))))
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if abs(w[i] - w[groups[-1][-1]]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


def apply_function(a: np.ndarray, f, on_support_only: bool = True) -> np.ndarray:
    """U f(Lambda) U* for PSD ``a``; eigenvalues below the cutoff map to 0 when
    ``on_support_only`` is set.

    Raises DomainError if ``f`` fails or is non-finite at a retained eigenvalue.
    """
    w, u = spectral_decompose(a)
    cut = support_cutoff(w)
    vals = np.zeros_like(w)
    for i, x in enumerate(w):
        if on_support_only and x <= cut:
            continue
        xi = max(x, 0.0) if not on_support_only else x
        try:
            y = f(xi)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"f({xi!r}) failed: {exc}") from exc
        if not np.isfinite(y):
            raise DomainError(f"f({xi!r}) = {y!r} is not finite")
        vals[i] = y
    return (u * vals) @ u.conj().T


def mpower(a: np.ndarray, x: float) -> np.ndarray:
    """Real power on the support (A^x, generalized inverse for x < 0)."""
    return apply_function(a, lambda t: t**x, on_support_only=True)


def nlog_m(a: np.ndarray) -> np.ndarray:
    """Matrix nlog: log on the support, 0 on the kernel."""
    return apply_function(a, math.log, on_support_only=True)


def support_projection(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection A^0 onto the range of PSD ``a``."""
    w, u = spectral_decompose(a)
    cut = support_cutoff(w)
    v = u[:, w > cut]
    return v @ v.conj().T


def support_rank(a: np.ndarray) -> int:
    w, _ = spectral_decompose(a)
    return int(np.sum(w > support_cutoff(w)))


def support_basis(a: np.ndarray) -> np.ndarray:
    """d x r matrix of orthonormal columns spanning the range of PSD ``a``."""
    w, u = spectral_decompose(a)
    return u[:, w > support_cutoff(w)].copy()


def support_leq(a: np.ndarray, b: np.ndarray, tol: float = 1e-7) -> bool:
    """Whether ran(a) is contained in ran(b), for PSD a, b."""
    v = support_basis(a)
    pb = support_projection(b)
    return float(np.max(np.abs(v - pb @ v))) <= tol if v.size else True


def clip_psd(a: np.ndarray) -> np.ndarray:
    """Clip the (small) negative tail of an almost-PSD Hermitian matrix."""
    w, u = spectral_decompose(a)
    w = np.maximum(w, 0.0)
    return (u * w) @ u.conj().T


def projection_meet(p: np.ndarray, q: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """Projection onto ran(P) ∩ ran(Q).

    The intersection is the eigenvalue-2 eigenspace of P + Q (all other
    eigenvalues are 1 ± cos(theta) < 2 for nonzero principal angles).
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if p.shape != q.shape:
        raise DimensionMismatch(f"projections of shapes {p.shape} and {q.shape}")
    w, u = spectral_decompose(p + q)
    v = u[:, w > 2.0 - tol]
    return v @ v.conj().T


def pinch(a: np.ndarray, blocks: list[np.ndarray]) -> np.ndarray:
    """Sum_i P_i A P_i for projections summing to the identity."""
    a = np.asarray(a, dtype=complex)
    total = sum(np.asarray(b, dtype=complex) for b in blocks)
    if np.max(np.abs(total - np.eye(a.shape[0]))) > 1e-9:
        raise NotAResolution("blocks do not sum to the identity")
    out = np.zeros_like(a)
    for b in blocks:
        out += b @ a @ b
    return out


def partial_trace(a: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Partial trace of an operator on H1 (x) H2; ``keep`` is 0 or 1."""
    d1, d2 = dims
    a = np.asarray(a, dtype=complex)
    if a.shape[0] != d1 * d2:
        raise BadFactorization(f"dim {a.shape[0]} != {d1} * {d2}")
    t = a.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("ijkj->ik", t)
    if keep == 1:
        return np.einsum("ijil->jl", t)
    raise BadFactorization(f"keep must be 0 or 1, got {keep}")


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


# ---------------------------------------------------------------------------
# random instances


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_hermitian(dim: int, seed=0, scale: float = 1.0) -> np.ndarray:
    rng = _as_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return herm_part(g) * scale


def sample_state(dim: int, rank: int, seed=0) -> np.ndarray:
    """Random density matrix of the given rank (Ginibre construction)."""
    if rank < 1 or rank > dim:
        raise BadRank(f"rank {rank} not in [1, {dim}]")
    rng = _as_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def sample_unitary(dim: int, seed=0) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    rng = _as_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class CptpChannel:
    """CPTP map in Stinespring form: X -> Tr_env(V X V*)."""

    dim_in: int
    dim_out: int
    env_dim: int
    isometry: np.ndarray  # (dim_out * env_dim) x dim_in, V* V = I

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.isometry @ np.asarray(x, dtype=complex) @ self.isometry.conj().T
        return partial_trace(y, (self.dim_out, self.env_dim), keep=0)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


def sample_cptp(dim_in: int, dim_out: int, env_dim: int, seed=0) -> CptpChannel:
    """Random CPTP map from a Haar isometry into out (x) env."""
    if env_dim < 1:
        raise BadRank("env_dim must be >= 1")
    if dim_out * env_dim < dim_in:
        raise BadRank(f"no isometry from dim {dim_in} into {dim_out}*{env_dim}")
    u = sample_unitary(dim_out * env_dim, seed)
    return CptpChannel(dim_in, dim_out, env_dim, u[:, :dim_in].copy())


# ---------------------------------------------------------------------------
# typed wrappers (validated at construction; used at API and file boundaries)


@dataclass(frozen=True)
class HermitianOperator:
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", check_hermitian(self.mat, tol=1e-12 * 100))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def spectral(self) -> tuple[np.ndarray, np.ndarray]:
        return spectral_decompose(self.mat)


@dataclass(frozen=True)
class ProjectionOperator:
    mat: np.ndarray

    def __post_init__(self):
        p = check_hermitian(self.mat)
        if np.max(np.abs(p @ p - p)) > 1e-9:
            raise NonHermitian("not idempotent within 1e-9")
        object.__setattr__(self, "mat", p)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def rank(self) -> int:
        return int(round(np.trace(self.mat).real))


@dataclass(frozen=True)
class PsdOperator:
    mat: np.ndarray
    support: ProjectionOperator = field(init=False)
    rank: int = field(init=False)

    def __post_init__(self):
        h = check_hermitian(self.mat)
        w, u = np.linalg.eigh(h)
        tol_psd = 1e-10 * max(1.0, float(w[-1]) if w.size else 1.0)
        if w.size and w[0] < -tol_psd:
            raise DomainError(f"eigenvalue {w[0]:.3e} below -{tol_psd:.1e}")
        w = np.maximum(w, 0.0)
        m = (u * w) @ u.conj().T
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "support", ProjectionOperator(support_projection(m)))
        object.__setattr__(self, "rank", support_rank(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


# ---------------------------------------------------------------------------
# shared matrix file format: {"dim": d, "re": [[...]], "im": [[...]]}


def matrix_to_json(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    return {
        "dim": a.shape[0],
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        d = int(obj["dim"])
        re, im = np.array(obj["re"], dtype=float), np.array(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParameter(f"malformed matrix JSON ({type(exc).__name__}: {exc})") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise DimensionMismatch(f"declared dim {d}, data shapes {re.shape} and {im.shape}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise BadParameter("matrix entries must be finite")
    return check_hermitian(re + 1j * im, tol=1e-8)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def save_matrix(path, a: np.ndarray) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(a), fh)
