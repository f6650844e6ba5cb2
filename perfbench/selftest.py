"""Self-test of the benchmark harness, not of qrdiv.

Checks that every metric named in BENCHMARK.json is emitted with its
declared unit on every workload, in both the untraced and the traced run;
that a wrong value is counted as a failed op by the correctness checks; and
that the benchmark refuses to run without the library source. Run it from
the checkout root (about two minutes on two cores):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile


def run_bench(bench: dict, workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    argv = [*bench["command"], "--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=300)


def check_metrics(bench: dict) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc = run_bench(bench, w["name"], trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["attempted"] >= 1 and res["correct"] is True, res
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == declared[trace], (w["name"], trace, set(got) ^ set(declared[trace]))
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok   {w['name']} trace {trace}: {len(got)} metrics with their units")


def check_wrong_values_fail() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import child
    import workloads

    tmp = tempfile.mkdtemp(dir=".bench_tmp")
    try:
        wl = workloads.RelentChain()
        insts = wl.instances(0, tmp)[:3]
        assert child.run_loop(wl, insts, 0.0)["failures"] == []
        right = workloads.umegaki
        workloads.umegaki = lambda r, s: right(r, s) + 1.0
        try:
            res = child.run_loop(wl, insts, 0.0)
        finally:
            workloads.umegaki = right
        assert res["attempted"] == 12 and any(f["op"] == "um" for f in res["failures"]), res
        print("ok   a wrong Umegaki value breaks the chain check and counts as failed")

        cli = workloads.CliBatch()
        inst = cli.instances(0, tmp)[0]
        value = workloads.umegaki(inst["rho"], inst["sig"])
        good = {"code": 0, "out": workloads.fmt(value) + "\n", "err": ""}
        bad = {"code": 0, "out": workloads.fmt(value + 1e-9) + "\n", "err": ""}
        labels = [label for label, _ in cli.commands(inst)]
        i = labels.index("eval:um")
        assert cli.check(inst, {"eval:um": good})[i] is None
        assert cli.check(inst, {"eval:um": bad})[i] is not None
        assert cli.check(inst, {"eval:um": dict(good, code=1)})[i] is not None
        print("ok   a printed value off by 1e-9, or a wrong exit code, counts as failed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_refuses_without_source(bench: dict) -> None:
    bare = tempfile.mkdtemp(dir=".bench_tmp")
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bench, bench["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
        print(f"ok   without src/ the benchmark exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    os.makedirs(".bench_tmp", exist_ok=True)
    check_refuses_without_source(bench)
    check_wrong_values_fail()
    check_metrics(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
