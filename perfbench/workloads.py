"""The four benchmark workloads: seeded inputs, the ops each instance runs,
and the correctness check applied to every op.

Inputs are built here with numpy from the workload seed; qrdiv only ever
receives the finished matrices. Every instance is also written, in qrdiv's
JSON matrix format, to the run's temporary directory.

An op's output is checked after the timed phase, against independent closed
forms or invariants computed then. An op fails if it raised, returned the
wrong exit code, or failed its check.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from qrdiv import (
    BelavkinStaszewski,
    GeomWeighted,
    SolverOptions,
    Umegaki,
    barycentric_renyi_full,
    bs_rel_entropy,
    max_renyi,
    measured_lower_bound,
    parse_kind,
    rel_entropy,
    renyi_alpha_z,
    umegaki,
)
from qrdiv.renyi import max_q_alpha_mean_route

INF = float("inf")
UM, BS = Umegaki(), BelavkinStaszewski()
GEOM = GeomWeighted(Umegaki(), 0.5)
COMBOS = {"um,um": (UM, UM), "um,bs": (UM, BS), "bs,bs": (BS, BS)}
# restarts=0 as in the acceptance criteria; the warm start is kept
FAST = SolverOptions(restarts=0)
SLACK = 1e-8  # ordering slack of criterion 08
MARGIN = 1e-6  # strict qubit margin of criteria 07 and 08
CLOSED_TOL = 1e-9  # agreement of two closed forms
FAMILY_SEED = 20220728
# reference-kernel times taken as nominal speed: medians on the 2-core
# shared machine (2.0 GHz, one BLAS thread) the benchmark was written on
REF_NOMINAL = {"relent-chain": 0.00124, "bary-qubit": 0.00133, "dim-scale": 0.00226, "cli-batch": 0.25}


# ---------------------------------------------------------------------------
# input generation (numpy only)


def ginibre_state(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def haar_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def commuting_pair(rng, d: int):
    p = rng.random(d) + 0.05
    q = rng.random(d) + 0.05
    p, q = p / p.sum(), q / q.sum()
    u = haar_unitary(rng, d)
    return p, q, (u * p) @ u.conj().T, (u * q) @ u.conj().T


def noncommuting_qubits(rng, floor: float = 0.1):
    """Qubit pairs bounded away from commuting, as in criteria 07 and 08."""
    while True:
        rho, sig = ginibre_state(rng, 2, 2), ginibre_state(rng, 2, 2)
        if np.max(np.abs(rho @ sig - sig @ rho)) > floor:
            return rho, sig


def write_matrix(path: str, a: np.ndarray) -> str:
    with open(path, "w") as fh:
        json.dump({"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}, fh)
    return path


def write_pair(tmpdir: str, n: int, rho: np.ndarray, sig: np.ndarray):
    return (
        write_matrix(os.path.join(tmpdir, f"rho{n}.json"), rho),
        write_matrix(os.path.join(tmpdir, f"sigma{n}.json"), sig),
    )


def _classical_kl(p, q) -> float:
    return float(np.sum(p * (np.log(p) - np.log(q))))


def _fidelity_renyi_half(rho, sig) -> float:
    """D_{1/2,1/2} = -2 log ||rho^{1/2} sigma^{1/2}||_1, straight from numpy."""

    def sqrtm(a):
        w, u = np.linalg.eigh((a + a.conj().T) / 2)
        w = np.where(w > 1e-12 * w.max(), w, 0.0)  # rounding noise of a zero
        return (u * np.sqrt(w)) @ u.conj().T

    f = float(np.sum(np.linalg.svd(sqrtm(rho) @ sqrtm(sig), compute_uv=False)))
    return -2.0 * math.log(f) if f > 0 else INF


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def _leq(a, b, slack) -> bool:
    return _finite(a) and _finite(b) and a <= b + slack


def _bary(alpha, kinds, rho, sig):
    r = barycentric_renyi_full(alpha, kinds, rho, sig, FAST)
    return {"value": float(r["value"]), "converged": bool(r["converged"])}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One benchmark workload.

    A run cycles over a fixed set of instances until its time is up, so
    every op is timed several times and a version that is faster does the
    same work more often rather than different work. The pairs come from a
    family drawn once from ``FAMILY_SEED``; the workload seed draws a Haar
    unitary that conjugates both matrices of each pair. Every quantity
    measured is unitarily invariant, so the seed changes every matrix entry
    but not the values, and the costs only where an algorithm depends on
    the basis (the measured-basis ascent starts from the identity basis).
    The solver's iteration counts vary several-fold between random pairs,
    so fresh random pairs per seed would swamp the few solves a run fits.

    ``base_pairs`` builds the family; ``ops`` lists the (label, callable)
    ops of one instance; ``check`` maps the outputs of one instance to one
    verdict per op (None if the op passed, else a reason).
    """

    name = ""
    tail_pct = 95.0
    ref_sizes: tuple = ()  # matrix sizes of the reference kernel
    ref_nominal_s = 1.0  # reference-kernel time that counts as nominal speed
    reference_per_op = False  # kernel after every op, not every instance

    def reference_s(self) -> float:
        """Time of a fixed numpy/Python kernel shaped like this workload's
        spectral work: eigh, a Python loop over the eigenvalues, products.
        It tracks the host's speed, which drifts by tens of percent within
        minutes on a shared machine; the best of three is kept."""
        mats = self.reference_matrices
        best = INF
        for _ in range(3):
            t0 = time.perf_counter()
            for a in mats:
                w, u = np.linalg.eigh(a)
                vals = np.array([math.exp(x / 10.0) for x in w])
                float(np.trace(((u * vals) @ u.conj().T) @ a).real)
            best = min(best, time.perf_counter() - t0)
        return best

    @functools.cached_property
    def reference_matrices(self) -> list:
        rng = np.random.default_rng(0)
        return [ginibre_state(rng, d, d) for d in self.ref_sizes]

    def base_pairs(self, rng) -> list:
        raise NotImplementedError

    def instances(self, seed: int, tmpdir: str) -> list:
        rng = np.random.default_rng(seed)
        out = []
        for n, base in enumerate(self.base_pairs(np.random.default_rng(FAMILY_SEED))):
            v = haar_unitary(rng, base["rho"].shape[0])
            rho, sig = v @ base["rho"] @ v.conj().T, v @ base["sig"] @ v.conj().T
            rp, sp = write_pair(tmpdir, n, rho, sig)
            out.append(dict(base, n=n, rho=rho, sig=sig, rp=rp, sp=sp, tmp=tmpdir))
        return out

    def warmup(self, inst) -> None:
        self.ops(inst)[0][1]()

    def ops(self, inst) -> list:
        raise NotImplementedError

    def check(self, inst, outs: dict) -> list:
        raise NotImplementedError


class RelentChain(Workload):
    """Criterion-08 chain: measured bound, Umegaki, geom:um:0.5, BS.

    Sixteen pairs at d = 2 + n mod 3, except the last, which is at d = 8;
    three of them commute, where the measured bound must be exact.
    """

    name = "relent-chain"
    pairs = 16
    ref_sizes = (2, 3, 4) * 10 + (8,) * 3
    ref_nominal_s = REF_NOMINAL["relent-chain"]

    def base_pairs(self, rng):
        out = []
        for n in range(self.pairs):
            d = 8 if n == self.pairs - 1 else 2 + n % 3
            if n % 5 == 2:
                p, q, rho, sig = commuting_pair(rng, d)
                classical = _classical_kl(p, q)
            else:
                rho, sig = ginibre_state(rng, d, d), ginibre_state(rng, d, d)
                classical = None
            out.append({"d": d, "rho": rho, "sig": sig, "classical": classical})
        return out

    def ops(self, inst):
        r, s, n = inst["rho"], inst["sig"], inst["n"]
        return [
            ("meas", lambda: measured_lower_bound(r, s, restarts=2, iters=50, seed=n)[0]),
            ("um", lambda: umegaki(r, s)),
            ("geom", lambda: rel_entropy(GEOM, r, s).value),
            ("bs", lambda: bs_rel_entropy(r, s)),
        ]

    def check(self, inst, outs):
        chain = [outs.get(k) for k in ("meas", "um", "geom", "bs")]
        verdict = []
        for i, v in enumerate(chain):
            bad = None
            if not _finite(v):
                bad = f"value {v!r} not finite"
            elif i > 0 and not _leq(chain[i - 1], v, SLACK):
                bad = "chain order broken below"
            elif i < 3 and not _leq(v, chain[i + 1], SLACK):
                bad = "chain order broken above"
            elif i < 2 and inst["classical"] is not None:
                if abs(v - inst["classical"]) > SLACK:
                    bad = f"commuting pair: off classical by {abs(v - inst['classical']):.2e}"
            verdict.append(bad)
        return verdict


class BaryQubit(Workload):
    """Barycentric solves on six non-commuting qubit pairs (commutator
    entries above 0.1; the rotation keeps the commutator's norm)."""

    name = "bary-qubit"
    pairs = 6
    ref_sizes = (2,) * 40
    ref_nominal_s = REF_NOMINAL["bary-qubit"]
    alphas = (0.25, 0.75, 1.5, INF)

    def base_pairs(self, rng):
        return [dict(zip(("rho", "sig"), noncommuting_qubits(rng))) for _ in range(self.pairs)]

    def ops(self, inst):
        r, s = inst["rho"], inst["sig"]
        ops = []
        for combo, kinds in COMBOS.items():
            for a in self.alphas:
                ops.append((f"{combo}@{a:g}", lambda a=a, k=kinds: _bary(a, k, r, s)))
        ops.append(("geom,geom@0.5", lambda: _bary(0.5, (GEOM, GEOM), r, s)))
        for a in (0.25, 0.75):
            ops.append((f"max@{a:g}", lambda a=a: max_renyi(a, r, s).value))
        return ops

    def check(self, inst, outs):
        r, s = inst["rho"], inst["sig"]

        def val(label):
            o = outs.get(label)
            return o["value"] if isinstance(o, dict) else o

        bad = {}
        for a in self.alphas:
            um, mix, bs = (val(f"{c}@{a:g}") for c in COMBOS)
            for c, v in zip(COMBOS, (um, mix, bs)):
                if not _finite(v):
                    bad[f"{c}@{a:g}"] = f"value {v!r} not finite"
            if a == INF:
                continue
            ref = renyi_alpha_z(a, INF, r, s)
            if _finite(um) and abs(um - ref) > CLOSED_TOL:
                bad[f"um,um@{a:g}"] = f"all-UM off log-Euclidean by {abs(um - ref):.2e}"
            if a > 1:
                # the weight on the sigma term is negative, so a larger
                # second generator raises the value and a larger first one
                # lowers it: um,bs is the largest of the three
                if not (_leq(um, mix, SLACK) and _leq(bs, mix, SLACK)):
                    bad[f"um,bs@{a:g}"] = "um,bs not the largest at alpha > 1"
                continue
            # the strict qubit margins of criteria 07 and 08
            mx = val(f"max@{a:g}")
            if not _leq(bs, mx, -MARGIN):
                bad[f"bs,bs@{a:g}"] = "BS-BS not strictly below max_renyi"
            if not (_leq(um, mix, -MARGIN) and _leq(mix, bs, -MARGIN)):
                bad.setdefault(f"um,bs@{a:g}", "um,um < um,bs < bs,bs broken")
            ref_mx = math.log(max_q_alpha_mean_route(a, r, s)) / (a - 1.0)
            if not _finite(mx) or abs(mx - ref_mx) > CLOSED_TOL:
                bad[f"max@{a:g}"] = "max_renyi off the geometric-mean route"
        # the geom generator lies between um and bs pointwise, so its
        # barycentric value lies between all-UM and the maximal divergence
        g = val("geom,geom@0.5")
        lo = renyi_alpha_z(0.5, INF, r, s)
        hi = max_renyi(0.5, r, s).value
        if not (_leq(lo, g, SLACK) and _leq(g, hi, SLACK)):
            bad["geom,geom@0.5"] = f"value {g!r} outside [{lo:.6g}, {hi:.6g}]"
        return [bad.get(label) for label, _ in self.ops(inst)]


class DimScale(Workload):
    """Closed forms and solves at d in {8, 16, 32}, two pairs for each of
    three types: both full rank; rho of rank d/2 inside the support of
    sigma; sigma of rank d/2, which breaks support dominance."""

    name = "dim-scale"
    # p95 falls on the cliff between the d = 32 full-rank solves and the
    # rest (8 of 162 ops per cycle); p96 lands inside the full-rank cluster
    tail_pct = 96.0
    ref_sizes = (8, 16, 32, 32) * 3
    ref_nominal_s = REF_NOMINAL["dim-scale"]
    dims = (8, 16, 32)
    types = ("full", "rho_half", "sigma_half")
    per_cell = 2

    def base_pairs(self, rng):
        out = []
        for _ in range(self.per_cell):
            for typ in self.types:
                for d in self.dims:
                    rr = d // 2 if typ == "rho_half" else d
                    sr = d // 2 if typ == "sigma_half" else d
                    out.append({"d": d, "type": typ, "rho": ginibre_state(rng, d, rr),
                                "sig": ginibre_state(rng, d, sr)})
        return out

    def ops(self, inst):
        r, s = inst["rho"], inst["sig"]
        ops = [
            ("um", lambda: umegaki(r, s)),
            ("bs", lambda: bs_rel_entropy(r, s)),
            ("geom", lambda: rel_entropy(GEOM, r, s).value),
            ("az:0.5:0.5", lambda: renyi_alpha_z(0.5, 0.5, r, s)),
            ("az:1.5:inf", lambda: renyi_alpha_z(1.5, INF, r, s)),
            ("max@0.5", lambda: max_renyi(0.5, r, s).value),
        ]
        for combo, kinds in COMBOS.items():
            ops.append((f"{combo}@0.5", lambda k=kinds: _bary(0.5, k, r, s)))
        return ops

    def check(self, inst, outs):
        r, s = inst["rho"], inst["sig"]
        bad = {}

        def val(label):
            o = outs.get(label)
            return o["value"] if isinstance(o, dict) else o

        rel = [val(k) for k in ("um", "geom", "bs")]
        if inst["type"] == "sigma_half":
            for k, v in zip(("um", "geom", "bs"), rel):
                if v != INF:
                    bad[k] = f"support violated but value {v!r} is not +inf"
            if val("az:1.5:inf") != INF:
                bad["az:1.5:inf"] = "support violated at alpha > 1 but value is finite"
        else:
            for i, k in enumerate(("um", "geom", "bs")):
                if not _finite(rel[i]) or (i and not _leq(rel[i - 1], rel[i], SLACK)):
                    bad[k] = "um <= geom <= bs broken"
            ref = barycentric_renyi_full(1.5, (UM, UM), r, s)["value"]
            got = val("az:1.5:inf")
            if not (_finite(got) and abs(got - ref) <= CLOSED_TOL):
                bad["az:1.5:inf"] = "off the all-UM barycentric closed form"
        got = val("az:0.5:0.5")
        ref = _fidelity_renyi_half(r, s)
        if not (_finite(got) and abs(got - ref) <= CLOSED_TOL):
            bad["az:0.5:0.5"] = "off -2 log fidelity"
        mx = val("max@0.5")
        ref_mx = 2.0 * -math.log(max_q_alpha_mean_route(0.5, r, s))
        if not (_finite(mx) and abs(mx - ref_mx) <= CLOSED_TOL):
            bad["max@0.5"] = "max_renyi off the geometric-mean route"
        um, mix, bs = (val(f"{c}@0.5") for c in COMBOS)
        ref = renyi_alpha_z(0.5, INF, r, s)
        if not (_finite(um) and abs(um - ref) <= CLOSED_TOL):
            bad["um,um@0.5"] = "all-UM off log-Euclidean"
        if not (_leq(um, mix, SLACK) and _leq(mix, bs, SLACK)):
            bad["um,bs@0.5"] = "um,um <= um,bs <= bs,bs broken"
        if not _leq(bs, mx, SLACK):
            bad["bs,bs@0.5"] = "BS-BS above max_renyi"
        return [bad.get(label) for label, _ in self.ops(inst)]


# ---------------------------------------------------------------------------
# CLI batch


def fmt(x: float) -> str:
    """The CLI's own value format, applied to in-process values."""
    if x == INF:
        return "+inf"
    if x == -INF:
        return "-inf"
    return f"{x:.12g}"


def _same(printed: str, value: float) -> bool:
    if printed in ("+inf", "-inf") or value in (INF, -INF):
        return printed == fmt(value)
    return abs(float(printed) - float(fmt(value))) <= 1e-12


class CliBatch(Workload):
    """Sequential ``python -m qrdiv.cli`` processes on one qubit pair.

    The last five commands are malformed and must exit 2. The first four of
    those are known defects that exit 1 with a traceback; they stay in the
    batch and count as failed ops until the CLI is fixed.
    """

    name = "cli-batch"
    tail_pct = 75.0
    ref_nominal_s = REF_NOMINAL["cli-batch"]
    # process start-up time drifts by a quarter within seconds, faster than
    # one 13-process batch; a kernel start between commands follows it
    reference_per_op = True
    samples = 2  # separation-dim2 sample count
    KNOWN_DEFECTS = ("bad-alpha", "bad-mix-weight", "az-missing-z", "bad-alpha-grid")

    def __init__(self):
        self.launcher = [sys.executable, "-m", "qrdiv.cli"]
        self.traced = False
        self.records = []  # (label, wall seconds, child span sums or None)

    def reference_s(self) -> float:
        """One bare interpreter start that imports what the CLI imports
        besides qrdiv."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import argparse, json, numpy"],
                       check=True, timeout=60)
        return time.perf_counter() - t0

    def trace_with(self, bootstrap: str) -> None:
        """Run the CLI through a bootstrap that records spans."""
        self.launcher = [sys.executable, bootstrap, "--"]
        self.traced = True

    def base_pairs(self, rng):
        return [dict(zip(("rho", "sig"), noncommuting_qubits(rng)))]

    def warmup(self, inst) -> None:
        pass  # setup_s of this workload is the bare --help process

    def commands(self, inst):
        m = ["--rho", inst["rp"], "--sigma", inst["sp"]]
        return [
            ("eval:um", ["eval", "--kind", "um", *m]),
            ("eval:geom", ["eval", "--kind", "geom:um:0.5", "--out", "json", *m]),
            ("eval:bary", ["eval", "--kind", "bary:um,bs", "--alpha", "0.5",
                           "--with-center", "--out", "json", *m]),
            ("eval:az", ["eval", "--kind", "az:0.5:inf", *m]),
            ("eval:max", ["eval", "--kind", "max:0.5", *m]),
            ("sweep:geom", ["sweep", "--kind", "geom:um", "--gamma-grid", "0.05:0.95:11",
                            "--check-order", *m]),
            ("sweep:order", ["sweep", "--kinds", "bs,um", "--alpha-grid", "1:1:1",
                             "--check-order", *m]),
            # the suite draws its own states, from its default seed 0
            ("verify", ["verify", "--suite", "separation-dim2", "--samples", str(self.samples)]),
            ("bad-alpha", ["eval", "--kind", "um", "--alpha", "abc", *m]),
            ("bad-mix-weight", ["eval", "--kind", "mix:x*um+0.5*bs", *m]),
            ("az-missing-z", ["eval", "--kind", "az:0.5", *m]),
            ("bad-alpha-grid", ["sweep", "--kind", "um", "--alpha-grid", "0:1", *m]),
            ("bad-kind", ["eval", "--kind", "nope", *m]),
        ]

    def _run(self, label, argv, tmpdir):
        env = dict(os.environ)
        spans = None
        if self.traced:
            spans = os.path.join(tmpdir, "child-sums.json")
            env["PERFBENCH_SUMS"] = spans
        t0 = time.perf_counter()
        proc = subprocess.run(self.launcher + argv, capture_output=True, text=True,
                              env=env, timeout=120)
        wall = time.perf_counter() - t0
        sums = None
        if spans and os.path.exists(spans):
            with open(spans) as fh:
                sums = json.load(fh)
            os.remove(spans)
        self.records.append((label, wall, sums))
        return {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr}

    def ops(self, inst):
        return [(label, lambda l=label, a=argv: self._run(l, a, inst["tmp"]))
                for label, argv in self.commands(inst)]

    def check(self, inst, outs):
        from qrdiv.cli import SUITES
        from qrdiv.hermitian import load_matrix

        rho, sig = load_matrix(inst["rp"]), load_matrix(inst["sp"])
        verdicts = []
        for label, _ in self.commands(inst):
            o = outs.get(label)
            if not isinstance(o, dict):
                verdicts.append("process did not run")
                continue
            try:
                verdicts.append(self._check_one(label, o, rho, sig, inst, SUITES))
            except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
                verdicts.append(f"unparseable output: {exc!r}")
        return verdicts

    def _check_one(self, label, o, rho, sig, inst, suites):
        code, out = o["code"], o["out"].strip()
        if label in self.KNOWN_DEFECTS or label == "bad-kind":
            return None if code == 2 else f"exit {code}, expected 2"
        expect_code, problems = 0, []
        if label == "eval:um":
            if not _same(out, umegaki(rho, sig)):
                problems.append("value")
        elif label == "eval:geom":
            if not _same(json.loads(out)["value"], rel_entropy(GEOM, rho, sig).value):
                problems.append("value")
        elif label == "eval:bary":
            res = barycentric_renyi_full(0.5, (UM, BS), rho, sig)
            got = json.loads(out)
            expect_code = 0 if res["converged"] else 3
            c = np.array(got["center"]["re"]) + 1j * np.array(got["center"]["im"])
            if not _same(got["value"], res["value"]) or abs(got["gap"] - res["gap"]) > 1e-12:
                problems.append("value")
            if np.max(np.abs(c - res["center"])) > 1e-12:
                problems.append("center")
        elif label == "eval:az":
            if not _same(out, renyi_alpha_z(0.5, INF, rho, sig)):
                problems.append("value")
        elif label == "eval:max":
            if not _same(out, max_renyi(0.5, rho, sig).value):
                problems.append("value")
        elif label.startswith("sweep:"):
            rows = [ln.split(",") for ln in out.splitlines()[1:]]
            if label == "sweep:geom":
                grid = [float(x) for x in np.linspace(0.05, 0.95, 11)]
                vals = [rel_entropy(parse_kind(f"geom:um:{g:g}"), rho, sig).value for g in grid]
            else:
                vals = [bs_rel_entropy(rho, sig), umegaki(rho, sig)]
            ordered = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
            expect_code = 0 if ordered else 4
            if len(rows) != len(vals) or not all(_same(r[2], v) for r, v in zip(rows, vals)):
                problems.append("values")
        elif label == "verify":
            rep = suites["separation-dim2"](0, self.samples)
            got = json.loads(out)
            expect_code = 0 if rep["passed"] else 5
            if got["passed"] != rep["passed"] or abs(got["min_margin"] - rep["min_margin"]) > 1e-12:
                problems.append("report")
        if code != expect_code:
            problems.append(f"exit {code}, expected {expect_code}")
        return "; ".join(problems) or None


WORKLOADS = {w.name: w for w in (RelentChain, BaryQubit, DimScale, CliBatch)}
