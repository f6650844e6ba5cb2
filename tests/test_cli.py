import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrdiv
from qrdiv.cli import main
from qrdiv.hermitian import matrix_from_json, matrix_to_json, sample_state


@pytest.fixture()
def mats(tmp_path):
    paths = {}
    for name, seed in (("rho", 1), ("sigma", 2)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(matrix_to_json(sample_state(2, 2, seed))))
        paths[name] = str(p)
    psi = np.array([1.0, 1.0]) / math.sqrt(2)
    p = tmp_path / "pure.json"
    p.write_text(json.dumps(matrix_to_json(np.outer(psi, psi))))
    paths["pure"] = str(p)
    p = tmp_path / "diag.json"
    p.write_text(json.dumps(matrix_to_json(np.diag([0.6, 0.4]))))
    paths["diag"] = str(p)
    return paths


def test_eval_equal_states_zero(mats, capsys):
    code = main(["eval", "--kind", "um", "--rho", mats["rho"], "--sigma", mats["rho"]])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_eval_geom_pure_fixture(mats, capsys):
    code = main(
        ["eval", "--kind", "geom:um:0.5", "--rho", mats["pure"], "--sigma", mats["diag"]]
    )
    assert code == 0
    val = float(capsys.readouterr().out.strip())
    assert abs(val - 0.733969) < 1e-6


def test_eval_bary_commuting_classical(mats, tmp_path, capsys):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps(matrix_to_json(np.diag([0.3, 0.7]))))
    q.write_text(json.dumps(matrix_to_json(np.diag([0.8, 0.2]))))
    code = main(
        ["eval", "--kind", "bary:um,um", "--alpha", "0.5", "--rho", str(p), "--sigma", str(q)]
    )
    assert code == 0
    val = float(capsys.readouterr().out.strip())
    from qrdiv.classical import classical_renyi

    assert abs(val - classical_renyi(0.5, [0.3, 0.7], [0.8, 0.2])) < 1e-9


def test_eval_json_with_center(mats, capsys):
    code = main(
        [
            "eval",
            "--kind",
            "bary:um,bs",
            "--alpha",
            "0.5",
            "--rho",
            mats["rho"],
            "--sigma",
            mats["sigma"],
            "--out",
            "json",
            "--with-center",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "center" in payload and payload["flags"] == []


def test_eval_text_with_center(mats, capsys):
    # text mode prints the value, then the center as a JSON matrix
    code = main(["eval", "--kind", "bary:um,bs", "--alpha", "0.5", "--rho", mats["rho"],
                 "--sigma", mats["sigma"], "--with-center"])
    assert code == 0
    value, center = capsys.readouterr().out.strip().split("\n")
    assert math.isfinite(float(value))
    omega = matrix_from_json(json.loads(center))
    assert abs(np.trace(omega).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(omega)[0] >= -1e-12


def test_eval_parse_error_exit_2(mats, capsys):
    assert main(["eval", "--kind", "nope", "--rho", mats["rho"], "--sigma", mats["sigma"]]) == 2
    assert main(["eval", "--kind", "um", "--rho", "/no/such.json", "--sigma", mats["sigma"]]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--kind", "um", "--alpha", "abc"],
        ["eval", "--kind", "mix:x*um+0.5*bs"],
        ["eval", "--kind", "az:0.5"],
        ["sweep", "--kind", "um", "--alpha-grid", "0:1"],
        ["eval", "--kind", "meas:r2:i-3"],
        ["eval", "--kind", "meas:r-1:i5"],
        ["eval", "--kind", "bary:um,bs", "--alpha", "1e999"],
        ["sweep", "--kind", "bary:um,bs", "--alpha-grid", "0:1e999:3"],
        ["sweep", "--kind", "bary:um,bs", "--alpha-grid", "0:1:100000000000000000000"],
        ["sweep", "--kind", "bary:geom:um,bs", "--gamma-grid", "0.2:0.8:2"],
        ["eval", "--kind", "bary:um,bs"],
        ["sweep", "--kind", "um"],
    ],
    ids=["bad-alpha", "bad-mix-weight", "az-missing-z", "bad-alpha-grid",
         "meas-negative-iters", "meas-negative-restarts", "alpha-overflow",
         "grid-overflow", "grid-count-too-large", "bary-gamma-grid", "bary-without-alpha",
         "sweep-without-grid"],
)
def test_malformed_input_exit_2(mats, capsys, argv):
    assert main([*argv, "--rho", mats["rho"], "--sigma", mats["sigma"]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_non_psd_matrix_exit_2(mats, tmp_path, capsys):
    p = tmp_path / "neg.json"
    p.write_text(json.dumps(matrix_to_json(np.diag([0.6, -0.4]))))
    assert main(["eval", "--kind", "um", "--rho", str(p), "--sigma", mats["sigma"]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_um_geom_bs_alpha_inf_exact(mats, capsys):
    # geom over BS is BS: the pure-state dual of um,bs, not a capped solve
    rs = ["--rho", mats["rho"], "--sigma", mats["sigma"], "--alpha", "inf"]
    assert main(["eval", "--kind", "bary:um,geom:bs:0.5", *rs]) == 0
    out = capsys.readouterr().out
    assert main(["eval", "--kind", "bary:um,bs", *rs]) == 0
    assert out == capsys.readouterr().out


def test_eval_exponent_weight(mats, capsys):
    # the "+" of a signed exponent is part of the number, not a separator
    assert _eval_line(capsys, "mix:1e+0*um", mats["rho"], mats["sigma"]) == _eval_line(
        capsys, "um", mats["rho"], mats["sigma"])


def test_sweep_needs_a_kind(mats, capsys):
    assert main(["sweep", "--alpha-grid", "0:1:2", "--rho", mats["rho"],
                 "--sigma", mats["sigma"]]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_gamma_grid_over_kinds_list(mats, capsys):
    # every listed item reads the grid's ":<gamma>"; a repeated item is its
    # own column, so --check-order compares it only with itself
    rs = ["--rho", mats["rho"], "--sigma", mats["sigma"]]
    code = main(["sweep", "--kinds", "geom:um, geom:um", "--gamma-grid", "0.1:0.9:3",
                 "--check-order", *rs])
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert code == 0
    assert [r[0] for r in rows] == ["geom:um"] * 6
    assert [r[2] for r in rows[:3]] == [r[2] for r in rows[3:]]
    main(["eval", "--kind", "geom:um:0.5", *rs])
    assert rows[1][2] == capsys.readouterr().out.strip()


def test_sweep_gamma_grid_appends_gamma_to_every_item(mats, capsys):
    # each item is read with ":<gamma>" appended, as eval reads it: az:0.5
    # sweeps z, and a mixture under geom: takes the grid's gamma
    rs = ["--rho", mats["rho"], "--sigma", mats["sigma"]]
    assert main(["sweep", "--kinds", "geom:um, az:0.5, geom:mix:0.5*um+0.5*bs",
                 "--gamma-grid", "0.2:0.8:3", *rs]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    items = ("geom:um", "az:0.5", "geom:mix:0.5*um+0.5*bs")
    assert [r[:2] for r in rows] == [[k, g] for k in items for g in ("0.2", "0.5", "0.8")]
    for text, g, value, *_ in rows:
        assert main(["eval", "--kind", f"{text}:{g}", *rs]) == 0
        assert capsys.readouterr().out.strip() == value
    # an item that already ends in its gamma reads one too many
    assert main(["sweep", "--kinds", "geom:um:0.5", "--gamma-grid", "0.2:0.8:2", *rs]) == 2
    capsys.readouterr()
    for kinds in (["--kind", "bary:geom:um,bs"], ["--kind", "bary:um,bs"],
                  ["--kinds", "um, bary:um,bs"]):
        assert main(["sweep", *kinds, "--gamma-grid", "0.2:0.8:2", *rs]) == 2
        assert capsys.readouterr().err == (
            "error: bary kinds require --alpha-grid, not --gamma-grid\n")


def test_eval_non_finite_matrix_exit_2(mats, tmp_path, capsys):
    obj = matrix_to_json(np.diag([0.6, 0.4]))
    obj["re"][0][0] = float("nan")
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(obj))
    assert main(["eval", "--kind", "um", "--rho", str(p), "--sigma", mats["sigma"]]) == 2


def test_eval_infinite_prints_plus_inf(mats, tmp_path, capsys):
    p = tmp_path / "p0.json"
    q = tmp_path / "q0.json"
    p.write_text(json.dumps(matrix_to_json(np.diag([1.0, 0.0]))))
    q.write_text(json.dumps(matrix_to_json(np.diag([0.0, 1.0]))))
    code = main(["eval", "--kind", "um", "--rho", str(p), "--sigma", str(q)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "+inf"


def _eval_line(capsys, kind, rho, sigma, *extra):
    code = main(["eval", "--kind", kind, *extra, "--rho", rho, "--sigma", sigma])
    return code, capsys.readouterr().out.strip()


def test_eval_alpha_inf_closed_forms(mats, tmp_path, capsys):
    # bary:bs,bs at alpha = inf is D_max = max:inf, exact (exit 0)
    paths = []
    for name, seed in (("r3", 3), ("s3", 4)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(matrix_to_json(sample_state(3, 3, seed))))
        paths.append(str(p))
    code, bary = _eval_line(capsys, "bary:bs,bs", *paths, "--alpha", "inf")
    assert code == 0
    assert _eval_line(capsys, "max:inf", *paths) == (0, bary)
    # bary:um,um at alpha = inf is the alpha -> inf limit of az:alpha:inf
    for rho, sig in (paths, (mats["rho"], mats["sigma"])):
        code, bary = _eval_line(capsys, "bary:um,um", rho, sig, "--alpha", "inf")
        assert code == 0
        assert _eval_line(capsys, "az:inf:inf", rho, sig) == (0, bary)
    # alpha = inf with finite z is rejected at the boundary
    assert _eval_line(capsys, "az:inf:0.5", mats["rho"], mats["sigma"])[0] == 2


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_eval_um_bs_alpha_inf_dual(mats, tmp_path, capsys):
    # the pure-state dual closes its gap, so the CLI exits 0, and the value
    # is at least D_max = max:inf (the bs,bs value, with U <= BS); the
    # payload is strict JSON, alpha = inf included
    pairs = [(mats["rho"], mats["sigma"])]
    paths = []
    for name, seed in (("r3", 3), ("s3", 4)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(matrix_to_json(sample_state(3, 3, seed))))
        paths.append(str(p))
    pairs.append(tuple(paths))
    for rho, sig in pairs:
        code = main(["eval", "--kind", "bary:um,bs", "--alpha", "inf", "--out", "json",
                     "--rho", rho, "--sigma", sig])
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 0 and payload["flags"] == [] and payload["alpha"] == "+inf"
        assert 0.0 <= payload["gap"] <= 1e-8
        _, dmax = _eval_line(capsys, "max:inf", rho, sig)
        assert float(payload["value"]) >= float(dmax)


def test_eval_bary_measured_generator(mats, capsys):
    # a measured generator solves through the CLI and prints the library's
    # value to 12 significant digits
    from qrdiv.barycentric import barycentric_renyi
    from qrdiv.relent import BelavkinStaszewski, MeasuredProjective

    code, out = _eval_line(capsys, "bary:meas:r2:i100,bs", mats["rho"], mats["sigma"],
                           "--alpha", "0.5")
    value = barycentric_renyi(0.5, (MeasuredProjective(2, 100), BelavkinStaszewski()),
                              sample_state(2, 2, 1), sample_state(2, 2, 2))
    assert code == 0 and out == f"{value:.12g}"


def test_eval_alpha_only_for_bary(mats, capsys):
    # --alpha moves only bary: kinds; az: and max: carry their own alpha
    rs = ["--rho", mats["rho"], "--sigma", mats["sigma"]]
    for kind in ("um", "geom:um:0.5", "meas-lb", "az:0.5:inf", "max:0.5"):
        assert main(["eval", "--kind", kind, "--alpha", "0.5", *rs]) == 2
        assert capsys.readouterr().err.startswith("error: --alpha applies only to bary:")
    assert main(["eval", "--kind", "bary:um,bs", "--alpha", "0.5", "--out", "json", *rs]) == 0
    assert json.loads(capsys.readouterr().out)["alpha"] == 0.5
    # a sweep's alpha grid passes over the other items unchanged
    assert main(["sweep", "--kinds", "um,max:0.5", "--alpha-grid", "0.25:0.75:3", *rs]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    assert len({r[2] for r in rows[:3]}) == 1 and len({r[2] for r in rows[3:]}) == 1


def test_eval_rho_below_support_cutoff(tmp_path, capsys):
    # every eigenvalue of rho counts as zero: -inf above alpha = 1, +inf below
    # it, and az:alpha:inf agrees with bary:um,um
    rho, sig = tmp_path / "tiny.json", tmp_path / "half.json"
    rho.write_text(json.dumps(matrix_to_json(1e-12 * np.eye(2))))
    sig.write_text(json.dumps(matrix_to_json(np.eye(2) / 2)))
    for alpha, want in (("0.5", "+inf"), ("1.5", "-inf"), ("inf", "-inf")):
        for kind in ("bary:um,um", "bary:bs,bs", "bary:um,bs"):
            assert _eval_line(capsys, kind, str(rho), str(sig), "--alpha", alpha) == (0, want)
        assert _eval_line(capsys, f"az:{alpha}:inf", str(rho), str(sig)) == (0, want)


def test_verify_ordering_suite_reports_worst(capsys):
    code = main(["verify", "--suite", "ordering", "--samples", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["passed"]
    worst = report["worst"]
    assert worst["sample"] in range(3) and worst["margin"] >= -1e-8
    assert " <= " in worst["ordering"]


def test_sweep_gamma_monotone(mats, capsys):
    code = main(
        [
            "sweep",
            "--kind",
            "geom:um",
            "--gamma-grid",
            "0.1:0.9:9",
            "--rho",
            mats["rho"],
            "--sigma",
            mats["sigma"],
            "--check-order",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,alpha_or_gamma,value,gap,flags"
    assert len(lines) == 10


def test_sweep_ordering_columns(mats, capsys):
    code = main(
        [
            "sweep",
            "--kinds",
            "meas-lb,um,geom:um:0.5,bs",
            "--alpha-grid",
            "1:1:1",
            "--rho",
            mats["rho"],
            "--sigma",
            mats["sigma"],
            "--check-order",
        ]
    )
    assert code == 0


def test_sweep_bary_alpha_monotone(mats, capsys):
    code = main(
        [
            "sweep",
            "--kind",
            "bary:um,bs",
            "--alpha-grid",
            "0.2:0.8:4",
            "--rho",
            mats["rho"],
            "--sigma",
            mats["sigma"],
            "--check-order",
        ]
    )
    assert code == 0


def test_sweep_two_bary_kinds(mats, tmp_path, capsys):
    # each bary: item takes the next item as its second component, and the
    # CSV quotes the comma inside the kind
    out = tmp_path / "bary.csv"
    code = main(
        [
            "sweep",
            "--kinds",
            "bary:um,bs,bary:bs,bs",
            "--alpha-grid",
            "0.25:0.75:2",
            "--rho",
            mats["rho"],
            "--sigma",
            mats["sigma"],
            "--out",
            str(out),
            "--check-order",
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "alpha_or_gamma", "value", "gap", "flags"]
    assert [r[0] for r in rows[1:]] == ["bary:um,bs"] * 2 + ["bary:bs,bs"] * 2
    assert all(len(r) == 5 for r in rows)
    assert '"bary:um,bs"' in out.read_text()


def test_sweep_detects_violation(mats, capsys):
    # bs before um is wrongly ordered: exit 4
    code = main(
        [
            "sweep",
            "--kinds",
            "bs,um",
            "--alpha-grid",
            "1:1:1",
            "--rho",
            mats["rho"],
            "--sigma",
            mats["sigma"],
            "--check-order",
        ]
    )
    assert code == 4


def test_sweep_csv_file(mats, tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        [
            "sweep",
            "--kind",
            "geom:um",
            "--gamma-grid",
            "0.2:0.8:4",
            "--rho",
            mats["rho"],
            "--sigma",
            mats["sigma"],
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "kind,alpha_or_gamma,value,gap,flags"
    # deterministic under rerun (byte-stable)
    code = main(
        [
            "sweep",
            "--kind",
            "geom:um",
            "--gamma-grid",
            "0.2:0.8:4",
            "--rho",
            mats["rho"],
            "--sigma",
            mats["sigma"],
            "--out",
            str(tmp_path / "table2.csv"),
        ]
    )
    assert (tmp_path / "table2.csv").read_text() == text


def test_verify_axioms_suite(capsys):
    code = main(["verify", "--suite", "axioms", "--samples", "4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"]


def test_verify_separation_dim2_suite(capsys):
    code = main(["verify", "--suite", "separation-dim2", "--samples", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["passed"]
    assert report["min_margin"] > 0


def test_verify_no_dpi_suite_reports_the_search(monkeypatch, capsys):
    # the search takes thousands of trials; a stub stands in for it, first
    # finding nothing, then a witness
    import qrdiv.cli as cli

    calls = []

    def search(result):
        def find(seed, trials):
            calls.append((seed, trials))
            return result
        return find

    monkeypatch.setattr(cli, "find_no_dpi_witness", search(None))
    assert main(["verify", "--suite", "no-dpi-alpha-gt-1", "--seed", "3", "--samples", "7"]) == 5
    assert json.loads(capsys.readouterr().out) == {
        "suite": "no-dpi-alpha-gt-1", "passed": False, "witness_found": False, "trials": 5000}
    half = np.eye(2) / 2
    monkeypatch.setattr(cli, "find_no_dpi_witness",
                        search((half, half, [half, half], 1.5, 0.25, 42)))
    assert main(["verify", "--suite", "no-dpi-alpha-gt-1", "--samples", "6000"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "suite": "no-dpi-alpha-gt-1", "passed": True, "witness_found": True,
        "alpha": 1.5, "trial": 42, "increase": 0.25}
    assert calls == [(3, 5000), (0, 6000)]


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2


@pytest.mark.parametrize("command", ["eval", "sweep", "verify"])
def test_negative_seed_exit_2(mats, capsys, command):
    # numpy's generators take no negative seed: rejected as an argument
    rs = ["--rho", mats["rho"], "--sigma", mats["sigma"]]
    argv = {
        "eval": ["eval", "--kind", "meas", *rs],
        "sweep": ["sweep", "--kind", "meas", "--alpha-grid", "1:1:1", *rs],
        "verify": ["verify", "--suite", "separation-dim2", "--samples", "1"],
    }[command]
    assert main([*argv, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_samples_below_one_exit_2(capsys, samples):
    # a suite over no samples checks nothing, so it cannot pass
    assert main(["verify", "--suite", "separation-dim2", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--samples" in captured.err


def test_alpha_grid_warns_per_item_it_does_not_move(mats, capsys):
    # one stderr line per item other than bary:; stdout and the exit code
    # are those of the sweep
    rs = ["--rho", mats["rho"], "--sigma", mats["sigma"]]
    assert main(["sweep", "--kinds", "um,bary:um,bs,max:0.5", "--alpha-grid", "0.25:0.75:3",
                 *rs]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"warning: --alpha-grid does not move {item}: only bary: items take alpha"
        for item in ("um", "max:0.5")
    ]
    assert len(captured.out.splitlines()) == 1 + 3 * 3
    assert main(["sweep", "--kind", "geom:um", "--gamma-grid", "0.25:0.75:3", *rs]) == 0
    assert capsys.readouterr().err == ""


_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # any import of numpy now fails
from qrdiv.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_argument_errors_exit_2_without_numpy(tmp_path):
    # every string argument is read before a matrix or a numeric module is
    # loaded; the matrix paths do not exist and are never opened
    rs = ["--rho", str(tmp_path / "r.json"), "--sigma", str(tmp_path / "s.json")]
    cases = [
        (["eval", "--kind", "um", "--alpha", "abc", *rs], 2),
        (["eval", "--kind", "mix:x*um+0.5*bs", *rs], 2),
        (["eval", "--kind", "az:0.5", *rs], 2),
        (["sweep", "--kind", "um", "--alpha-grid", "0:1", *rs], 2),
        (["eval", "--kind", "nope", *rs], 2),
        (["eval", "--kind", "bary:um,bs", *rs], 2),
        (["verify", "--suite", "nope"], 2),
        (["eval", "--kind", "meas", "--seed", "-1", *rs], 2),
        (["verify", "--suite", "ordering", "--samples", "0"], 2),
        (["--help"], 0),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(qrdiv.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps([argv for argv, _ in cases])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [code for _, code in cases]
    assert "Traceback" not in proc.stderr


def test_golden_stdout_fixture(mats, capsys):
    # byte-stable output for a fixed seed and version
    argv = ["eval", "--kind", "bs", "--rho", mats["rho"], "--sigma", mats["sigma"]]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first
