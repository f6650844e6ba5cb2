"""The package namespace: lazy submodule loading and the export list; and
rules over the package source."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import qrdiv

# the export list and, for each name, the module it was first exported from
EXPORTS = {
    "barycentric": ["BarycenterResult", "GcqChannel", "SolverOptions", "barycentric_q",
                    "barycentric_renyi", "barycentric_renyi_full", "dual_renyi"],
    "classical": ["WeightMeasure", "WeightedFamily", "classical_rel_entropy", "classical_renyi",
                  "hellinger_arc_point", "multivariate_q"],
    "relent": ["BelavkinStaszewski", "DivergenceValue", "GeomWeighted", "MeasuredProjective",
               "Mixture", "Umegaki", "axioms_check", "bs_rel_entropy", "measured_lower_bound",
               "parse_kind", "parse_kinds", "rel_entropy", "umegaki"],
    "renyi": ["MaxRenyiValue", "ReverseTest", "max_fdivergence", "max_relative_entropy",
              "max_renyi", "optimal_reverse_test", "reg_measured_renyi", "renyi_alpha_z"],
    "supports": ["OpConvexFn", "abs_cont_part", "kubo_ando_mean", "kubo_ando_mean_real",
                 "neg_log", "neg_power", "perspective", "power_fn", "x_log_x"],
}
SUBMODULES = ["barycentric", "classical", "errors", "hermitian", "relent", "renyi", "supports"]


def test_import_loads_no_numeric_module():
    # in a fresh interpreter, where nothing has imported numpy yet
    env = {**os.environ, "PYTHONPATH": str(Path(qrdiv.__file__).parents[1])}
    code = "import json, sys, qrdiv; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "numpy" not in loaded and "qrdiv.barycentric" not in loaded


def test_export_list_unchanged():
    names = [n for ns in EXPORTS.values() for n in ns]
    assert qrdiv.__all__ == sorted(names + SUBMODULES)
    assert set(qrdiv.__all__) <= set(dir(qrdiv))


def test_every_export_resolves_to_its_module_object():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"qrdiv.{module}")
        for name in names:
            assert getattr(qrdiv, name) is getattr(mod, name), name
    for name in SUBMODULES:
        assert getattr(qrdiv, name) is importlib.import_module(f"qrdiv.{name}")


def test_star_import_binds_every_export():
    ns: dict = {}
    exec("from qrdiv import *", ns)
    assert all(ns[name] is getattr(qrdiv, name) for name in qrdiv.__all__)


def test_no_trace_is_compared_to_a_literal_tolerance():
    # a zero is decided from the inputs' decomposed supports, never by a
    # trace against a constant of its own
    pattern = re.compile(r"trace\(.*[<>]=?\s*\d[\d.]*e-\d")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(Path(qrdiv.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert not hits, hits


def test_only_hermitian_compares_to_the_geometric_tolerance():
    # whether a part of an operator lies outside a support is decided by
    # hermitian.compressed_rank, and whether a subspace lies in a support by
    # hermitian._lies_in; no other module tests a literal 1e-7 of its own
    hits = []
    for path in sorted(Path(qrdiv.__file__).parent.glob("*.py")):
        if path.name == "hermitian.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(x, ast.Constant) and x.value == 1e-7
                    for x in (node.left, *node.comparators)):
                hits.append(f"{path.name}:{node.lineno}")
    assert not hits, hits


def _callers(name: str) -> set:
    """The functions under src/qrdiv (as "file:function") whose own body
    calls ``name``, not counting the functions nested in them."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    callers = set()
    for path in sorted(Path(qrdiv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, defs))]:
            # calls in the scope's own body, not in the functions nested in it
            todo = list(ast.iter_child_nodes(scope))
            while todo:
                node = todo.pop()
                if isinstance(node, defs):
                    continue
                if isinstance(node, ast.Call):
                    f = node.func
                    if getattr(f, "id", getattr(f, "attr", None)) == name:
                        callers.add(f"{path.name}:{getattr(scope, 'name', '<module>')}")
                todo.extend(ast.iter_child_nodes(node))
    return callers


def test_only_spectrum_decomposes_with_the_input_check():
    # an input is checked by its one decomposition, in spectrum(); a matrix
    # derived from inputs goes through the unchecked eigh_desc
    callers = _callers("spectral_decompose")
    assert callers == {"hermitian.py:spectrum"}, callers


def test_only_support_meet_decomposes_a_meet():
    # a support meet is taken by support_meet, which decomposes the sum of
    # the projections only where no support lies in every other one
    callers = _callers("meet_bases")
    assert callers == {"hermitian.py:support_meet"}, callers


def test_only_support_meet_tests_a_subspace_geometrically():
    # the eigenvector test picks a meet basis; whether an operator has a
    # part outside a support, the +inf gate of the center problem among
    # them, is decided by the inclusion rule
    callers = _callers("_lies_in")
    assert callers == {"hermitian.py:support_meet"}, callers


def test_only_hermitian_names_the_lapack_eigensolvers():
    # every decomposition goes through hermitian.eigh or eigvalsh, where one
    # handle counts them: no other module names numpy's eigensolvers or the
    # gufunc module they wrap
    pattern = re.compile(r"linalg\.eig|_umath_linalg")
    hits: dict = {}
    for path in sorted(Path(qrdiv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [f"{getattr(node, 'module', None)}.{a.name}" for a in node.names]
            else:
                continue
            if any(pattern.search(n) for n in names):
                hits.setdefault(path.name, []).append(node.lineno)
    assert list(hits) == ["hermitian.py"], hits
