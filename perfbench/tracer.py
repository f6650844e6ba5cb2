"""Spans around qrdiv's public functions and numpy.linalg.eigh, installed
from outside the package, and the per-layer sums derived from them.

Every public function defined in a traced qrdiv module is replaced by a
wrapper in every loaded module that bound it (``from .x import f`` makes a
second binding), so calls between modules, and the benchmark's own calls,
are seen. A span records its
name, start, end, parent span and op id; spans stay in memory until the run
ends. A module's self time is its spans' time minus their child spans' time.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("hermitian", "supports", "classical", "relent", "renyi", "barycentric", "cli")
OP = "bench.op"
MEAS = "relent.measured_lower_bound"
SOLVER = "barycentric.center_solver"
BARY_EVALS = (
    "barycentric.barycentric_renyi_full",
    "barycentric.barycentric_renyi",
    "barycentric.barycentric_q",
    "barycentric.dual_renyi",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        # eigh: matrix dim; barycentric evals: alpha; center_solver: iterations
        self.info = array("d")
        self.cap_hits: set[int] = set()  # center_solver spans that hit the iteration cap
        self.stack: list[int] = []
        self.op_id = -1
        self.enabled = True
        self._restore: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, info: float = 0.0) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.info.append(info)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def run_op(self, fn):
        """Run one benchmark op under a root span."""
        self.op_id += 1
        sid = self.open(self.intern(OP))
        try:
            return fn()
        finally:
            self.close(sid)

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self.intern(name)
        tracer = self

        if name == "linalg.eigh":

            def info(args, kwargs):
                return float(np.shape(args[0])[-1])

        elif name in BARY_EVALS[:2]:

            def info(args, kwargs):
                return float(args[0])

        else:
            info = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer.open(name_id, info(args, kwargs) if info else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if name == SOLVER:
                tracer._solver_done(sid, args, kwargs, result)
            return result

        return wrapper

    def _solver_done(self, sid, args, kwargs, result) -> None:
        from qrdiv.barycentric import SolverOptions

        opts = args[2] if len(args) > 2 else kwargs.get("options")
        cap = (opts or SolverOptions()).iters
        iters, converged = result[3], bool(result[4])
        self.info[sid] = float(iters)
        if iters >= cap and not converged:
            self.cap_hits.add(sid)

    def install(self) -> None:
        """Wrap the public functions of every traced layer, and eigh."""
        import qrdiv  # noqa: F401  (loads every submodule)

        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = __import__(f"qrdiv.{layer}", fromlist=["_"])
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # every loaded module that bound a traced function, the caller's too
        for mod in list(sys.modules.values()):
            for attr, obj in list(getattr(mod, "__dict__", {}).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        self._restore.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = self._wrap("linalg.eigh", np.linalg.eigh)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "info": np.frombuffer(self.info, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def _nearest(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """For each span, the nearest flagged span among itself and its
    ancestors, or -1."""
    out = np.where(flag, np.arange(len(flag)), -1)
    has = parent >= 0
    while True:
        nxt = out.copy()
        take = has & (nxt < 0)
        nxt[take] = out[parent[take]]
        if np.array_equal(nxt, out):
            return out
        out = nxt


def _under(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    return _nearest(flag, parent) >= 0


def _outermost(flag: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Flagged spans with no flagged ancestor."""
    up = np.where(parent >= 0, _under(flag, parent)[np.maximum(parent, 0)], False)
    return flag & ~up


def summarize(tr: Tracer) -> dict:
    """Additive sums over the spans; several processes' sums can be merged
    with ``merge`` before ``layer_metrics`` turns them into ratios."""
    a = tr.arrays()
    names, nid, parent = list(a["names"]), a["name"], a["parent"]
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    self_t = dur - child

    def is_(name):
        return nid == names.index(name) if name in names else np.zeros(len(nid), bool)

    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])[nid] if len(nid) else np.array([])
    s: dict = {"spans": int(len(nid))}
    op = is_(OP)
    s["ops"] = int(op.sum())
    s["op_s"] = float(dur[op].sum())
    for layer in LAYERS + ("linalg",):
        m = layer_of == layer
        s[f"{layer}.calls"] = int(m.sum())
        s[f"{layer}.self_s"] = float(self_t[m].sum())
    eigh = is_("linalg.eigh")
    s["linalg.eigh_d3_sum"] = float(np.sum(a["info"][eigh] ** 3))
    s["hermitian.apply_function_calls"] = int(is_("hermitian.apply_function").sum())

    meas = is_(MEAS)
    in_meas = _under(meas, parent)
    outer_meas = _outermost(meas, parent)
    s["relent.meas_calls"] = int(outer_meas.sum())
    s["relent.meas_s"] = float(dur[outer_meas].sum())
    s["relent.meas_objective_evals"] = int((is_("classical.classical_rel_entropy") & in_meas).sum())
    s["relent.meas_eigh"] = int((eigh & in_meas).sum())
    s["relent.closed_self_s"] = float(self_t[(layer_of == "relent") & ~in_meas].sum())

    solver = is_(SOLVER)
    in_solver = _under(solver, parent)
    evals = np.zeros(len(nid), bool)
    for n in BARY_EVALS:
        evals |= is_(n)
    outer_eval = _outermost(evals, parent)
    # the outermost evaluation each solve ran under
    root = _nearest(outer_eval, parent)
    solved_roots = set(root[solver & (root >= 0)].tolist())
    solves = np.flatnonzero(solver)
    inf_solve = np.array([root[i] >= 0 and math.isinf(a["info"][root[i]]) for i in solves], bool)
    cap = np.array([int(i) in tr.cap_hits for i in solves], bool)
    s["barycentric.evals"] = int(outer_eval.sum())
    s["barycentric.evals_solved"] = len(solved_roots)
    s["barycentric.solver_calls"] = int(solver.sum())
    s["barycentric.solver_s"] = float(dur[solver].sum())
    s["barycentric.solver_self_s"] = float(self_t[solver].sum())
    s["barycentric.solver_iters"] = float(a["info"][solver].sum())
    s["barycentric.solver_eigh"] = int((eigh & in_solver).sum())
    s["barycentric.iter_cap_hits"] = int(cap.sum())
    s["barycentric.inf_solves"] = int(inf_solve.sum())
    s["barycentric.inf_cap_hits"] = int((cap & inf_solve).sum())
    return s


def merge(total: dict, part: dict) -> dict:
    for k, v in part.items():
        total[k] = total.get(k, 0) + v
    return total


def layer_metrics(s: dict, cycles: int, speed: float) -> dict:
    """Per-layer metrics (name -> (value, unit)) from merged span sums.

    Totals are per cycle over the workload's instances, so they do not grow
    with run length; times are scaled to nominal host speed by ``speed``."""

    def ratio(a, b):
        return a / b if b else 0.0

    def count(key):
        return (s[key] / cycles, "count/cycle")

    def secs(key):
        return (s[key] * speed / cycles, "s/cycle")

    m = {
        "linalg.eigh_calls": count("linalg.calls"),
        "linalg.eigh_per_op": (ratio(s["linalg.calls"], s["ops"]), "count/op"),
        "linalg.eigh_self_s": secs("linalg.self_s"),
        "linalg.eigh_d3_sum": (s["linalg.eigh_d3_sum"] / cycles, "d3/cycle"),
        "hermitian.apply_function_calls": count("hermitian.apply_function_calls"),
        "relent.meas_calls": count("relent.meas_calls"),
        "relent.meas_s": secs("relent.meas_s"),
        "relent.meas_objective_evals_per_call": (
            ratio(s["relent.meas_objective_evals"], s["relent.meas_calls"]), "count/call"),
        "relent.meas_eigh_per_call": (ratio(s["relent.meas_eigh"], s["relent.meas_calls"]), "count/call"),
        "relent.closed_self_s": secs("relent.closed_self_s"),
        "barycentric.evals": count("barycentric.evals"),
        "barycentric.closed_form_share": (
            1.0 - ratio(s["barycentric.evals_solved"], s["barycentric.evals"])
            if s["barycentric.evals"] else 0.0, "frac"),
        "barycentric.solver_calls": count("barycentric.solver_calls"),
        "barycentric.solver_s": secs("barycentric.solver_s"),
        "barycentric.solver_self_s": secs("barycentric.solver_self_s"),
        "barycentric.solver_iters_per_solve": (
            ratio(s["barycentric.solver_iters"], s["barycentric.solver_calls"]), "count/solve"),
        "barycentric.solver_eigh_per_iter": (
            ratio(s["barycentric.solver_eigh"], s["barycentric.solver_iters"]), "count/iter"),
        "barycentric.iter_cap_hits": count("barycentric.iter_cap_hits"),
        "barycentric.inf_solves": count("barycentric.inf_solves"),
        "trace.cycles": (cycles, "count"),
        "trace.spans": count("spans"),
    }
    for layer in ("hermitian", "supports", "classical", "renyi"):
        m[f"{layer}.calls"] = count(f"{layer}.calls")
        m[f"{layer}.self_s"] = secs(f"{layer}.self_s")
    for layer in ("hermitian", "supports"):
        m[f"{layer}.self_share"] = (ratio(s[f"{layer}.self_s"], s["op_s"]), "frac")
    return m


def dominant_layer(s: dict) -> str:
    """The layer (or linalg) with the largest self time."""
    return max(LAYERS + ("linalg",), key=lambda layer: s.get(f"{layer}.self_s", 0.0))
