"""qrdiv benchmark: run one workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload relent-chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a qrdiv checkout; the library is imported from
``src/``. ``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer metrics of a traced run, next to an
untraced run of the same length that gives the tracing overhead. The last
line of standard output is one JSON object; the lines before it are a
readable summary. A full report goes to ``.bench_out/``.

Every workload process is a fresh interpreter with one BLAS/OpenMP thread,
PYTHONPATH=src and no QDIV_THREADS. Its inputs are written to a temporary
directory under ``.bench_tmp/``, removed when the run ends.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from tracer import dominant_layer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("relent-chain", "bary-qubit", "dim-scale", "cli-batch")
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 4  # extra set-up-only processes; the measuring ones add more
CHILD_TIMEOUT_S = 170
SRC_MODULES = ("hermitian", "supports", "classical", "relent", "renyi", "barycentric",
               "cli", "oracles", "errors")
CLI_CATEGORIES = {"eval": ("eval:",), "sweep": ("sweep:",), "verify": ("verify",),
                  "error": ("bad-", "az-missing-z")}

# predictions, written before measuring: (workload, claim, what was seen,
# whether the claim holds), all on the traced run's span sums
PREDICTIONS = (
    ("relent-chain", "the measured-basis ascent takes most of the op time",
     lambda s: f"{s['relent.meas_s'] / s['op_s']:.2f} of it",
     lambda s: s["relent.meas_s"] > 0.5 * s["op_s"]),
    ("relent-chain", "no center_solver work",
     lambda s: f"{s['barycentric.solver_calls']} solves",
     lambda s: s["barycentric.solver_calls"] == 0),
    ("bary-qubit", "no relent.meas_* work",
     lambda s: f"{s['relent.meas_calls']} calls", lambda s: s["relent.meas_calls"] == 0),
    ("bary-qubit", "every alpha = inf solve hits the iteration cap",
     lambda s: f"{s['barycentric.inf_cap_hits']} of {s['barycentric.inf_solves']} do",
     lambda s: 0 < s["barycentric.inf_solves"] == s["barycentric.inf_cap_hits"]),
    ("bary-qubit", "barycentric has the largest self time (Python-bound solver)",
     lambda s: f"largest: {dominant_layer(s)}", lambda s: dominant_layer(s) == "barycentric"),
    ("dim-scale", "no relent.meas_* work",
     lambda s: f"{s['relent.meas_calls']} calls", lambda s: s["relent.meas_calls"] == 0),
    ("dim-scale", "linalg (eigh) has the largest self time (LAPACK-bound)",
     lambda s: f"largest: {dominant_layer(s)}", lambda s: dominant_layer(s) == "linalg"),
    ("cli-batch", "importing qrdiv.cli is most of a CLI process",
     lambda s: f"{statistics.median(s['cli_import_s']) / s['median_process_s']:.2f} of it",
     lambda s: statistics.median(s["cli_import_s"]) > 0.5 * s["median_process_s"]),
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QDIV_THREADS"}
    for var in THREAD_VARS:
        env[var] = THREADS
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_json(argv: list, env: dict) -> tuple[dict, float]:
    """Run one child to completion; return its last JSON line and the
    monotonic time just before it was spawned."""
    t0 = time.monotonic()
    # own process group, so a timeout also stops the CLI processes it started
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} exited {proc.returncode}:\n{stderr[-2000:]}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(argv[:4])} printed nothing:\n{stderr[-2000:]}")
    return json.loads(lines[-1]), t0


def child_argv(workload, seed, seconds, mode, tmp, spans_out=None) -> list:
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode, "--tmp", tmp]
    return argv + (["--spans-out", spans_out] if spans_out else [])


def setup_samples(workload, seed, env, tmp_root) -> list:
    """Set-up times: spawn to first timed op, or a bare --help process on
    cli-batch."""
    out = []
    for _ in range(SETUP_SPAWNS + (1 if workload == "cli-batch" else 0)):
        if workload == "cli-batch":
            t0 = time.monotonic()
            subprocess.run([sys.executable, "-m", "qrdiv.cli", "--help"], env=env,
                           capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
            out.append(time.monotonic() - t0)
        else:
            tmp = tempfile.mkdtemp(dir=tmp_root)
            res, t0 = spawn_json(child_argv(workload, seed, 0, "setup", tmp), env)
            out.append(res["t_ready"] - t0)
    return out


def tail(lat_ms: list, preferred: float) -> tuple[float, float]:
    """Latency at the preferred percentile, or at the highest lower one
    that still has ten ops beyond it."""
    pct = min(preferred, 100.0 * (1.0 - 10.0 / len(lat_ms)))
    return float(np.percentile(lat_ms, max(pct, 0.0))), pct


def op_medians(res: dict, col: int = 3) -> list:
    """Each distinct op's median latency over its repeats in the run.
    Column 3 holds latencies at nominal host speed, column 2 raw ones."""
    by_op: dict = {}
    for sample in res["samples"]:
        by_op.setdefault(tuple(sample[:2]), []).append(sample[col])
    return [statistics.median(v) for v in by_op.values()]


def ops_per_s(res: dict, col: int = 3) -> float:
    """Ops in one cycle over the cycle's time with every op at its median,
    so a burst of machine noise in one cycle is outvoted."""
    med = op_medians(res, col)
    return len(med) / sum(med)


def end_to_end(res: dict, setups: list) -> tuple[dict, dict]:
    """The median is taken over the distinct ops' medians: its position then
    does not move with the number of cycles, and it falls between the same
    two ops on every run. The tail is taken over every timed op."""
    lat_ms = [s[3] * 1e3 for s in res["samples"]]
    raw_ms = [s[2] * 1e3 for s in res["samples"]]
    tail_ms, pct = tail(lat_ms, res["tail_pct"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s(res), "1/s"),
        "op_p50_ms": (statistics.median(op_medians(res)) * 1e3, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }, {"tail_pct": pct, "ops": len(lat_ms), "cycles": res["cycles"],
        "setup_samples": len(setups),
        "raw": {"ops_per_s": ops_per_s(res, 2), "op_p50_ms": statistics.median(op_medians(res, 2)) * 1e3,
                "op_tail_ms": tail(raw_ms, pct)[0]},
        "host_speed": host_speed(res)}


def host_speed(res: dict) -> float:
    """Nominal over measured reference-kernel time, median over the run:
    multiply a raw time by it to get the time at nominal host speed."""
    return statistics.median(res["ref_nominal_s"] / r for r in res["ref_s"])


def src_lines() -> dict:
    m = {}
    for mod in SRC_MODULES:
        with open(os.path.join("src", "qrdiv", f"{mod}.py")) as fh:
            m[f"{mod}.src_lines"] = (sum(1 for _ in fh), "lines")
    total = 0
    for path in glob.glob(os.path.join("src", "qrdiv", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    m["src.lines_total"] = (total, "lines")
    return m


def per_layer(workload: str, traced: dict, untraced: dict) -> tuple[dict, list]:
    s = traced["sums"]
    speed = host_speed(traced)
    m = layer_metrics(s, traced["cycles"], speed)
    m["trace.overhead_frac"] = (ops_per_s(untraced) / ops_per_s(traced) - 1.0, "frac")
    m["relent.meas_gap_mean"] = (traced["meas_gap_mean"], "nat")
    m["barycentric.nonconverged_frac"] = (traced["nonconverged_frac"], "frac")
    cli = {k: 0.0 for k in ("import", "work", *CLI_CATEGORIES)}
    if workload == "cli-batch":
        walls = {c: [w for label, w in traced["cli_records"] if label.startswith(p)]
                 for c, p in CLI_CATEGORIES.items()}
        cli = {c: statistics.median(w) * speed for c, w in walls.items() if w}
        cli["import"] = statistics.median(s["cli_import_s"]) * speed
        cli["work"] = statistics.median(s["cli_work_s"]) * speed
        s["median_process_s"] = statistics.median(w for _, w in traced["cli_records"])
    m["cli.import_ms"] = (cli["import"] * 1e3, "ms")
    for c in CLI_CATEGORIES:
        m[f"cli.process_ms.{c}"] = (cli.get(c, 0.0) * 1e3, "ms")
    m["cli.work_ms"] = (cli["work"] * 1e3, "ms")
    m.update(src_lines())
    s["dominant"] = dominant_layer(s)
    checks = [(claim, seen(s), bool(test(s)))
              for wl, claim, seen, test in PREDICTIONS if wl == workload]
    return m, checks


def run_one(workload: str, seed: int, seconds: float, trace: int, env: dict, tmp_root: str) -> dict:
    info: dict = {"threads": {v: THREADS for v in THREAD_VARS}}
    spans_out = os.path.join(".bench_out", f"spans-{workload}.npz")
    if trace:
        half = seconds / 2.0
        untraced, _ = spawn_json(child_argv(workload, seed, half, "run", tempfile.mkdtemp(dir=tmp_root)), env)
        traced, _ = spawn_json(child_argv(workload, seed, half, "trace",
                                          tempfile.mkdtemp(dir=tmp_root), spans_out), env)
        metrics, checks = per_layer(workload, traced, untraced)
        info["predictions"] = checks
        info["dominant_layer"] = traced["sums"].get("dominant")
        runs = (untraced, traced)
    else:
        setups = setup_samples(workload, seed, env, tmp_root)
        res, t0 = spawn_json(child_argv(workload, seed, seconds, "run", tempfile.mkdtemp(dir=tmp_root)), env)
        if workload != "cli-batch":
            setups.append(res["t_ready"] - t0)
        metrics, extra = end_to_end(res, setups)
        info.update(extra)
        info["quality"] = {k: res[k] for k in ("meas_gap_mean", "meas_gap_pairs",
                                              "nonconverged_frac", "finite_alpha_solves")}
        runs = (res,)
    failures = [f for r in runs for f in r["failures"]]
    known = runs[0]["known_defects"]
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": len(failures),
        "correct": all(f["op"] in known for f in failures),
        "metrics": metrics, "info": info, "failures": failures,
    }


def print_summary(r: dict) -> None:
    print(f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"threads {THREADS}  attempted {r['attempted']}  failed {r['failed']}")
    for name, (value, unit) in r["metrics"].items():
        print(f"   {name:40s} {value:14.6g} {unit}")
    info = r["info"]
    if "quality" in info:
        q = info["quality"]
        print(f"   {'failed_frac':40s} {r['failed'] / r['attempted']:14.6g} frac")
        print(f"   {'meas_gap_mean':40s} " + (f"{q['meas_gap_mean']:14.6g} nat over {q['meas_gap_pairs']} "
              "non-commuting pairs" if q["meas_gap_pairs"] else f"{'n/a':>14s}"))
        print(f"   {'nonconverged_frac':40s} " + (f"{q['nonconverged_frac']:14.6g} frac over "
              f"{q['finite_alpha_solves']} finite-alpha solves" if q["finite_alpha_solves"] else f"{'n/a':>14s}"))
        print(f"   {info['cycles']} cycles; op_tail_ms is p{info['tail_pct']:.4g} of {info['ops']} ops; "
              f"setup_s is the median of {info['setup_samples']} set-ups")
        print(f"   times are at nominal host speed; the host ran at {info['host_speed']:.3f} of it; "
              "raw: " + ", ".join(f"{k} {v:.6g}" for k, v in info["raw"].items()))
    if info.get("dominant_layer"):
        print(f"   largest self time: {info['dominant_layer']}")
    for claim, seen, ok in info.get("predictions", ()):
        print(f"   prediction {'holds' if ok else 'DOES NOT HOLD'}: {claim} ({seen})")
    seen = set()
    for f in r["failures"]:
        if f["op"] not in seen:
            seen.add(f["op"])
            print(f"   failed op {f['op']} (instance {f['instance']}): {f['reason'][:160]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "qrdiv", "__init__.py")):
        print("run.py must be started from the root of a qrdiv checkout (no src/qrdiv here)",
              file=sys.stderr)
        return 2
    env = child_env()
    os.makedirs(".bench_tmp", exist_ok=True)
    os.makedirs(".bench_out", exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=".bench_tmp")
    try:
        if args.workload == "all":
            results = [run_one(w, args.seed, args.seconds, t, env, tmp_root)
                       for w in WORKLOAD_NAMES for t in (0, 1)]
        else:
            results = [run_one(args.workload, args.seed, args.seconds, args.trace, env, tmp_root)]
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    for r in results:
        print_summary(r)
        path = os.path.join(".bench_out", f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json")
        with open(path, "w") as fh:
            json.dump(r, fh, indent=1)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{n}" if prefix else n): {"value": v, "unit": u}
                    for r in results for n, (v, u) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
