"""Hermitian/PSD matrix algebra: spectral calculus, supports, pinchings,
partial traces, and random instance generators.

All matrices are dense complex ``numpy`` arrays. Real powers, logarithms and
generalized inverses of PSD operators are always taken on the support. For
an input (or its compression) an eigenvalue counts as zero iff it is
``<= SUPPORT_RTOL * max(1, lambda_max)``; ``spectrum(a)`` decomposes once and
the support and function helpers read it. An operator derived from inputs,
such as sigma^{-1/2} rho sigma^{-1/2}, takes its rank from their supports
instead (``_derived_spectrum``); every such congruence is formed in sigma's
eigenbasis (``Spectrum.graded``). ``spectrum`` is the one input check, read
by every public entry point (``operands``) and the file loader: finite,
square, Hermitian and PSD. A derived operator is decomposed with ``eigh_desc``.
An input's part in a subspace is zero iff its compression there has rank 0
against the input's cutoff (``compressed_rank``, and so ``support_leq``).
The meet of supports is the support of an input that lies (``_lies_in``) in
every other one, and only a proper meet is decomposed (``support_meet``); a
compression B* f(A) B onto a basis of A's whole support is read off A's
spectrum (``Spectrum.compressed``).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# np.linalg's LAPACK gufuncs, read at each call: one name counts every decomposition
from numpy.linalg import _umath_linalg as _lapack

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


def check_hermitian(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a numeric, non-empty, finite (else BadParameter),
    square, Hermitian ``a``: every raw matrix is read here."""
    try:
        a = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"matrix entries must be numbers ({exc})") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonHermitian(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        raise BadParameter("matrix must not be empty")
    if not np.isfinite(a).all():
        raise BadParameter("matrix entries must be finite")
    ah = a.conj().T
    asym = np.abs(a - ah).max()
    if asym > HERM_ATOL:
        raise NonHermitian(f"asymmetry {asym:.3e} exceeds tolerance {HERM_ATOL:.1e}")
    return (a + ah) / 2.0


def _converged(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``w``, unless LAPACK failed on finite ``a``: NaN out, as NaN in may give."""
    if w.size and math.isnan(w[-1]) and np.isfinite(a).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return w


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)``, bitwise, without numpy's dispatch and errstate
    (most of its cost at d <= 4): the package's one route, with ``eigvalsh``."""
    w, u = _lapack.eigh_lo(a)
    return _converged(w, a), u


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``, bitwise, as ``eigh``."""
    return _converged(_lapack.eigvalsh_lo(a), a)


def eigh_desc(a: np.ndarray, part=herm_part) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and a unitary of eigenvectors of ``part(a)``:
    by default the Hermitian part, unchecked, for an operator derived from
    checked inputs (whose asymmetry is rounding)."""
    w, u = eigh(part(a))
    return w[::-1].copy(), u[:, ::-1].copy()


def spectral_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``eigh_desc`` of an input, checked: NonHermitian unless ``a`` is."""
    return eigh_desc(a, check_hermitian)


def eig_clusters(w: np.ndarray) -> list[np.ndarray]:
    """Group (sorted descending) eigenvalues: w_i joins the block of the next
    larger w_j iff |w_i - w_j| <= CLUSTER_RTOL * |w_j|, relative to each
    eigenvalue (exact zeros form one block)."""
    if w.size == 0:
        return []
    groups: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        j = groups[-1][-1]
        if abs(w[i] - w[j]) <= CLUSTER_RTOL * abs(w[j]):
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendata of a Hermitian operator, decomposed once and reused: ``w``
    (descending), the unitary ``u`` and ``cut``, the zero threshold of ``w``
    (the support cutoff for an input, 0 for a derived operator)."""

    w: np.ndarray
    u: np.ndarray
    cut: float

    @cached_property
    def rank(self) -> int:
        """The number r of eigenvalues above ``cut``, by bisection in the ascending ``w[::-1]``."""
        return len(self.w) - bisect_right(self.w[::-1].tolist(), self.cut)

    @cached_property
    def basis(self) -> np.ndarray:
        """d x r orthonormal basis of the support: a read-only view of u[:, :r]."""
        v = self.u[:, :self.rank]
        v.flags.writeable = False
        return v

    @cached_property
    def kernel(self) -> np.ndarray:
        """d x (d - r) orthonormal basis of the kernel: a read-only view of u[:, r:]."""
        k = self.u[:, self.rank:]
        k.flags.writeable = False
        return k

    @cached_property
    def proj(self) -> np.ndarray:
        """Orthogonal projection onto the support."""
        return self.basis @ self.basis.conj().T

    def fn(self, f, on_support_only: bool = True) -> np.ndarray:
        """U f(Lambda) U*; eigenvalues below the cutoff map to 0 when
        ``on_support_only`` is set.

        Raises DomainError if ``f`` fails or is non-finite at a retained
        eigenvalue.
        """
        vals = np.zeros(len(self.w))
        for i, x in enumerate(self.w):
            if on_support_only and x <= self.cut:
                continue
            xi = max(x, 0.0) if not on_support_only else x
            try:
                vals[i] = f(xi)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DomainError(f"f({xi!r}) failed: {exc}") from exc
        return self._assemble(vals)

    def _on_support(self, f) -> np.ndarray:
        """``fn`` for a numpy ``f``, taken in one call over the support."""
        vals = np.zeros(len(self.w))
        with np.errstate(all="ignore"):
            vals[:self.rank] = f(self.w[:self.rank])
        return self._assemble(vals)

    def _assemble(self, vals: np.ndarray) -> np.ndarray:
        """U diag(vals) U*; DomainError where a value is not finite."""
        if not np.isfinite(vals).all():
            raise DomainError(f"f({self.w[~np.isfinite(vals)][0]!r}) is not finite")
        return (self.u * vals) @ self.u.conj().T

    def power(self, x: float) -> np.ndarray:
        """Real power on the support (generalized inverse for x < 0)."""
        return self._on_support(lambda w: w**x)

    def log(self) -> np.ndarray:
        """Log on the support, 0 on the kernel."""
        return self._on_support(np.log)

    def compressed(self, b: np.ndarray) -> "Spectrum | None":
        """The Spectrum of B* A B for an orthonormal ``b`` whose range is
        the whole support, read off this one: the support's eigenvalues with
        the eigenvectors B* V (V = ``basis``), so that B* f(A) B = f(B* A B)
        needs neither f(A) nor a decomposition; None when ``b`` has fewer
        columns than the support (it spans a proper part of it, where the
        compressions must be formed)."""
        if b.shape[1] != self.rank:
            return None
        return Spectrum(self.w[:self.rank], b.conj().T @ self.basis, self.cut)

    @cached_property
    def root(self) -> np.ndarray:
        """s^{1/2} for the support eigenvalues s, in the order of ``basis``."""
        return np.sqrt(self.w[:self.rank])

    def graded(self, r: np.ndarray, rank: int) -> "Spectrum":
        """The derived Spectrum of X = S^{-1/2} A S^{-1/2} on supp S, with the
        caller's ``rank``, formed in S's eigenbasis V (``basis``) from
        r = V* A V: X = r / (s^{1/2} s^{1/2 T}), so each entry is scaled by
        its own pair of eigenvalues and no scales mix in a product. A
        function of X maps back with ``ungraded``; a vector x of X's
        coordinates to S^{+-1/2} as V (s^{+-1/2} x).

        X's entries grow toward its last row and column (s descends). eigh
        keeps the small eigenvalues of a graded matrix whose large entries
        come first, and loses them the other way round (at kappa = 1e8 the
        geometric mean of ``tests/test_conditioning.py``'s pairs is off by
        1e-2 against 4e-9), so X is decomposed in reversed order."""
        x = _derived_spectrum((r / (self.root[:, None] * self.root))[::-1, ::-1], rank)
        return Spectrum(x.w, x.u[::-1].copy(), 0.0)

    def ungraded(self, y: np.ndarray) -> np.ndarray:
        """S^{1/2} Y S^{1/2} = V (Y o s^{1/2} s^{1/2 T}) V* for Y in the
        coordinates of ``graded``."""
        return self.basis @ (y * (self.root[:, None] * self.root)) @ self.basis.conj().T


def spectrum(a) -> Spectrum:
    """The Spectrum of an input ``a``, checked (``check_hermitian``) and PSD,
    no eigenvalue below minus the support cutoff, else BadParameter; a
    Spectrum is returned unchanged."""
    if isinstance(a, Spectrum):
        return a
    sp = _cut_spectrum(*spectral_decompose(a))
    if sp.w.size and sp.w[-1] < -sp.cut:
        raise BadParameter(f"matrix must be PSD, has eigenvalue {sp.w[-1]:.3e}")
    return sp


def _cut_spectrum(w: np.ndarray, u: np.ndarray) -> Spectrum:
    """The Spectrum of eigendata (w descending, u), cut as an input's."""
    return Spectrum(w, u, SUPPORT_RTOL * max(1.0, float(w[0]) if w.size else 0.0))


def operands(*ops) -> tuple[tuple[np.ndarray, ...], tuple[Spectrum, ...]]:
    """The one reader of a public entry point's operands: (arrays, spectra),
    each operand's ``spectrum``, read and checked once, and the operand as a
    complex array; DimensionMismatch unless their shapes agree."""
    spectra = tuple(spectrum(a) for a in ops)
    arrays = tuple(np.asarray(a, dtype=complex) for a in ops)
    if any(a.shape != arrays[0].shape for a in arrays[1:]):
        raise DimensionMismatch(f"shapes {' vs '.join(str(a.shape) for a in arrays)}")
    return arrays, spectra


def _derived_spectrum(m: np.ndarray, rank: int) -> Spectrum:
    """The Spectrum of ``m``, a product of functions of inputs whose rank the
    caller read off their decomposed supports: the top ``rank`` eigenvalues,
    clamped at 0, are the support and the rest are exactly 0. No size cutoff
    applies, since such a product's eigenvalues span about the product of
    the inputs' condition numbers, and ``m`` is symmetrized, not checked."""
    w, u = eigh_desc(m)
    w = np.maximum(w, 0.0)
    w[rank:] = 0.0
    return Spectrum(w, u, 0.0)


def compressed_rank(a, q: np.ndarray, zero_test: bool = False) -> int:
    """The rank of Q* A Q (from all of A's eigenpairs) against A's own
    cutoff, for PSD ``a`` (a matrix or Spectrum) and orthonormal Q: the one
    inclusion rule. With ``zero_test``, 1 stands for any positive rank, and
    Q* A Q is decomposed only where its largest diagonal entry and the trace
    of Q* A_+ Q, which bound its top eigenvalue, straddle the cutoff."""
    sp = spectrum(a)
    if not (q.shape[1] and sp.rank):
        return 0
    y = q.conj().T @ sp.u
    y2 = np.abs(y) ** 2
    if zero_test and float((y2 @ sp.w).max()) > sp.cut:
        return 1
    if zero_test and float(y2.sum(axis=0) @ np.maximum(sp.w, 0.0)) <= sp.cut:
        return 0
    return int(np.count_nonzero(eigvalsh((y * sp.w) @ y.conj().T) > sp.cut))


def support_leq(a, b) -> bool:
    """Whether ran(a) <= ran(b), for PSD a, b (matrices or spectra): a's
    compression to ker b has rank 0 (``compressed_rank``)."""
    return not compressed_rank(a, spectrum(b).kernel, zero_test=True)


def _lies_in(v: np.ndarray, b: np.ndarray) -> bool:
    """Whether ran(v) <= ran(b) for orthonormal v, b, geometrically:
    max abs(v - P_b v) <= 1e-7. A meet basis must lie in every support
    (``Spectrum.compressed``), which ``compressed_rank`` does not ensure."""
    return (not v.size or b.shape[1] == b.shape[0]
            or float(np.abs(v - b @ (b.conj().T @ v)).max()) <= 1e-7)


def meet_bases(*projections: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (B, C) of the meet of the ranges of k projections
    and of its complement: the eigenvalue-k eigenspace of their sum (every
    other unit vector leaves some range and scores below k) and the rest."""
    ps = [np.asarray(p, dtype=complex) for p in projections]
    if any(p.shape != ps[0].shape for p in ps[1:]):
        raise DimensionMismatch(f"projections of shapes {[p.shape for p in ps]}")
    w, u = eigh_desc(sum(ps))
    top = w > len(ps) - 1e-7
    return u[:, top], u[:, ~top]


def support_meet(*spectra) -> np.ndarray:
    """Orthonormal basis of the meet of the supports of PSD operators
    (matrices or spectra): the ``basis`` of the first support that lies in
    every other one (``_lies_in``), so nested supports cost no
    decomposition; only a proper meet is taken from ``meet_bases``."""
    sps = [spectrum(s) for s in spectra]
    for sp in sps:
        if all(_lies_in(sp.basis, other.basis) for other in sps if other is not sp):
            return sp.basis
    return meet_bases(*(sp.proj for sp in sps))[0]


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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = self.isometry @ np.asarray(x, dtype=complex) @ self.isometry.conj().T
        return partial_trace(y, (self.dim_out, self.env_dim), keep=0)


def sample_cptp(dim_in: int, dim_out: int, env_dim: int, seed=0) -> CptpChannel:
    """Random CPTP map from a Haar isometry into out (x) env."""
    if env_dim < 1:
        raise BadRank("env_dim must be >= 1")
    if dim_out * env_dim < dim_in:
        raise BadRank(f"no isometry from dim {dim_in} into {dim_out}*{env_dim}")
    u = sample_unitary(dim_out * env_dim, seed)
    return CptpChannel(dim_in, dim_out, env_dim, u[:, :dim_in].copy())


# ---------------------------------------------------------------------------
# shared matrix file format: {"dim": d, "re": [[...]], "im": [[...]]}


def _json_float(x):
    """A float for a JSON payload: +-inf as the strings "+inf" and "-inf"
    (JSON has no infinity), anything else unchanged."""
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return x


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
    a = re.astype(complex)
    a.imag = im  # re + 1j * im would warn on an infinite im, before the check
    spectrum(a)  # the library's input rule: finite, square, Hermitian and PSD
    return herm_part(a)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))
