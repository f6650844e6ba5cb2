"""The kind-string grammar (README "Kind-string grammar"): the entropy
kinds, the eval specs, and the one reader of kinds, eval forms, --kinds
lists, alphas and grids; each eval form comes back as a frozen spec.

Imports no numpy, so the CLI can reject a malformed argument before it
loads the numeric modules.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Union

from .errors import BadParameter

INF = float("inf")


# ---------------------------------------------------------------------------
# entropy kinds


@dataclass(frozen=True)
class Umegaki:
    def __str__(self):
        return "um"


@dataclass(frozen=True)
class BelavkinStaszewski:
    def __str__(self):
        return "bs"


def _whole_counts(what: str, *counts) -> tuple[int, ...]:
    """Counts as ints; BadParameter unless each is whole and >= 0."""
    try:
        out = tuple(operator.index(n) for n in counts)
    except TypeError:
        out = (-1,)
    if min(out) < 0:
        raise BadParameter(f"{what} must be whole and >= 0, got {', '.join(map(repr, counts))}")
    return out


def _check_alpha(alpha) -> None:
    """BadParameter unless ``alpha`` is a Renyi order: inf or >= 0 (not NaN)."""
    if not (alpha == INF or alpha >= 0):
        raise BadParameter(f"alpha must be >= 0, got {alpha}")


@dataclass(frozen=True)
class MeasuredProjective:
    restarts: int = 8
    iters: int = 200

    def __post_init__(self):
        restarts, iters = _whole_counts("meas counts", self.restarts, self.iters)
        object.__setattr__(self, "restarts", restarts)
        object.__setattr__(self, "iters", iters)

    def __str__(self):
        return f"meas:r{self.restarts}:i{self.iters}"


@dataclass(frozen=True)
class GeomWeighted:
    base: "EntropyKind"
    gamma: float

    def __post_init__(self):
        g = float(self.gamma)
        base = self.base
        # nesting collapses: gamma' = 1 - (1 - g_inner)(1 - g_outer)
        while isinstance(base, GeomWeighted):
            g = 1.0 - (1.0 - base.gamma) * (1.0 - g)
            base = base.base
        if not 0.0 < g < 1.0:
            raise BadParameter(f"gamma {g} outside (0, 1)")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "base", base)

    def __str__(self):
        return f"geom:{self.base}:{self.gamma!r}"


@dataclass(frozen=True)
class Mixture:
    components: tuple  # of (weight, EntropyKind), no component a Mixture

    def __post_init__(self):
        comps = []
        for w, k in self.components:
            w = float(w)
            if not w >= 0:
                raise BadParameter("mixture weights must be nonnegative")
            # nesting flattens: w (sum_i v_i k_i) = sum_i (w v_i) k_i
            sub = k.components if isinstance(k, Mixture) else ((1.0, k),)
            comps.extend((w * v, c) for v, c in sub)
        if not abs(sum(w for w, _ in comps) - 1.0) <= 1e-12:
            raise BadParameter("mixture weights must sum to 1")
        object.__setattr__(self, "components", tuple(comps))

    def __str__(self):
        return "mix:" + "+".join(f"{w!r}*{k}" for w, k in self.components)


EntropyKind = Union[Umegaki, BelavkinStaszewski, MeasuredProjective, GeomWeighted, Mixture]


# ---------------------------------------------------------------------------
# eval specs and the reader


@dataclass(frozen=True)
class Barycentric:  # bary:K0,K1, at an alpha given separately
    kinds: tuple


@dataclass(frozen=True)
class RenyiAlphaZ:  # az:A:Z
    alpha: float
    z: float


@dataclass(frozen=True)
class MaxRenyi:  # max:A
    alpha: float


EvalSpec = Union[EntropyKind, Barycentric, RenyiAlphaZ, MaxRenyi]

# FLOAT is a decimal with an optional signed exponent, INT is digits; no
# number of the grammar is negative, so neither takes a sign
_TOKEN = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[a-z]+(?:-[a-z]+)*|[:,*+]")


class _Reader:
    """Recursive-descent reader over the tokens of one string; spaces
    between tokens are ignored."""

    def __init__(self, text: str, what: str):
        self.text, self.what, self.i = text, what, 0
        self.toks = _TOKEN.findall(text)
        if "".join(self.toks) != "".join(text.split()):
            raise BadParameter(f"bad {what} {text!r}: a character outside the grammar")

    def fail(self, expected: str):
        got = repr(self.toks[self.i]) if self.i < len(self.toks) else "the end"
        raise BadParameter(f"bad {self.what} {self.text!r}: expected {expected}, got {got}")

    def accept(self, *texts: str) -> bool:
        """Read the tokens ``texts`` if they come next."""
        found = self.toks[self.i:self.i + len(texts)] == list(texts)
        self.i += len(texts) if found else 0
        return found

    def expect(self, *texts: str):
        if not self.accept(*texts):
            self.fail(repr("".join(texts)))

    def number(self, inf: bool = False, whole: bool = False):
        """FLOAT, "inf" too where ``inf``, or INT where ``whole``; a FLOAT
        beyond the float range is no number (only the token "inf" is)."""
        if inf and self.accept("inf"):
            return INF
        tok = self.toks[self.i] if self.i < len(self.toks) else ""
        if not (tok.isdigit() if whole else tok[:1].isdigit() or tok[:1] == "."):
            self.fail("a whole number" if whole else "a number")
        value = int(tok) if whole else float(tok)
        if value == INF:
            self.fail("a number within the float range")
        self.i += 1
        return value

    def kind(self) -> EntropyKind:
        if self.accept("um"):
            return Umegaki()
        if self.accept("bs"):
            return BelavkinStaszewski()
        if self.accept("meas"):
            if not self.accept(":", "r"):
                return MeasuredProjective()
            restarts = self.number(whole=True)
            self.expect(":", "i")
            return MeasuredProjective(restarts, self.number(whole=True))
        if self.accept("geom", ":"):
            base = self.kind()
            self.expect(":")
            return GeomWeighted(base, self.number())
        if self.accept("mix", ":"):
            comps = []
            while not comps or self.accept("+"):
                w = self.number()
                self.expect("*")
                comps.append((w, self.kind()))
            return Mixture(tuple(comps))
        self.fail("a kind")

    def item(self) -> EvalSpec:
        if self.accept("meas-lb"):
            return MeasuredProjective()
        if self.accept("bary", ":"):
            k0 = self.kind()
            self.expect(",")
            return Barycentric((k0, self.kind()))
        if self.accept("az", ":"):
            alpha = self.number(inf=True)
            self.expect(":")
            return RenyiAlphaZ(alpha, self.number(inf=True))
        if self.accept("max", ":"):
            return MaxRenyi(self.number(inf=True))
        return self.kind()

    def done(self, value):
        if self.i < len(self.toks):
            self.fail("the end")
        return value


def parse_kind(text: str) -> EvalSpec:
    """Read one ``eval`` string: an entropy kind comes back as itself, an
    eval form as its spec."""
    r = _Reader(text, "kind")
    return r.done(r.item())


def parse_kinds(text: str) -> list[tuple[str, EvalSpec]]:
    """Read a ``list`` (--kinds) as (item text without spaces, spec) pairs;
    a ``bary:`` item reads its own comma."""
    r, items = _Reader(text, "kind list"), []
    while not items or r.accept(","):
        first = r.i
        spec = r.item()
        items.append(("".join(r.toks[first:r.i]), spec))
    return r.done(items)


def parse_alpha(text: str) -> float:
    r = _Reader(text, "alpha")
    return r.done(r.number(inf=True))


def parse_grid(text: str) -> list[float]:
    """``grid``: that many evenly spaced points; a count numpy cannot build
    is a BadParameter."""
    r = _Reader(text, "grid")
    start = r.number()
    r.expect(":")
    stop = r.number()
    r.expect(":")
    count = r.done(r.number(whole=True))
    import numpy as np

    try:
        return [float(x) for x in np.linspace(start, stop, count)]
    except (ValueError, MemoryError) as exc:
        raise BadParameter(f"bad grid {text!r}: {exc}") from exc
