"""One workload process: set up, run the closed loop for the given time,
check every op's output, and print one JSON result line.

Started by run.py in a fresh interpreter, from the checkout root, with
PYTHONPATH=src and fixed BLAS thread counts.

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --tmp DIR --mode setup|run|trace [--spans-out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from time import perf_counter

import workloads
from tracer import Tracer, merge, summarize


def run_loop(workload, instances, seconds: float, tracer=None) -> dict:
    """Closed loop, one op at a time, over whole cycles of the instances,
    while at least half a cycle's time is left of ``seconds`` (at least one
    cycle), so a run measures ``seconds`` on average; outputs are checked
    after the loop.

    The workload's reference kernel runs before the loop and after every
    instance, or after every op when the workload asks for that. Each op's
    latency is also scaled to nominal host speed by the mean of the two
    kernel times around it.
    """
    # (instance, label, seconds, seconds at nominal speed)
    samples, done, ref = [], [], [untraced(tracer, workload.reference_s)]
    t_start = perf_counter()
    while True:
        for inst in instances:
            outs, errs, raw = {}, {}, []
            for label, fn in workload.ops(inst):
                t0 = perf_counter()
                try:
                    outs[label] = tracer.run_op(fn) if tracer else fn()
                except Exception as exc:  # an op that raises is a failed op
                    errs[label] = f"raised {exc!r}"
                raw.append((label, perf_counter() - t0))
                if workload.reference_per_op:
                    scale_since(raw, samples, inst, ref, workload, tracer)
            scale_since(raw, samples, inst, ref, workload, tracer)
            done.append((inst, outs, errs))
        elapsed = perf_counter() - t_start
        if elapsed * (1 + 0.5 / (len(done) // len(instances))) > seconds:
            break
    if tracer:
        tracer.enabled = False
    failures = []
    attempted = 0
    for inst, outs, errs in done:
        labels = [label for label, _ in workload.ops(inst)]
        try:
            verdicts = workload.check(inst, outs)
        except Exception as exc:  # a check that cannot run fails the instance
            verdicts = [f"check raised {exc!r}"] * len(labels)
        for label, verdict in zip(labels, verdicts):
            attempted += 1
            reason = errs.get(label) or verdict
            if reason:
                failures.append({"instance": inst["n"], "op": label, "reason": reason})
    return {
        "elapsed_s": elapsed,
        "cycles": len(done) // len(instances),
        "samples": samples,
        "ref_s": ref,
        "attempted": attempted,
        "failures": failures,
        "done": done,
    }


def scale_since(raw, samples, inst, ref, workload, tracer) -> None:
    """Run the reference kernel (untraced), then move the pending raw
    latencies to ``samples`` with their time at nominal host speed."""
    if not raw:
        return
    ref.append(untraced(tracer, workload.reference_s))
    scale = workload.ref_nominal_s / ((ref[-2] + ref[-1]) / 2)
    samples.extend((inst["n"], label, sec, sec * scale) for label, sec in raw)
    raw.clear()


def untraced(tracer, fn):
    if tracer:
        tracer.enabled = False
    try:
        return fn()
    finally:
        if tracer:
            tracer.enabled = True


def quality(workload, done) -> dict:
    """Output-quality figures that are not timings."""
    gaps, solves, nonconv = [], 0, 0
    for inst, outs, _ in done:
        if workload.name == "relent-chain" and inst.get("classical") is None:
            if all(isinstance(outs.get(k), float) for k in ("meas", "um")):
                gaps.append(outs["um"] - outs["meas"])
        for label, o in outs.items():
            # finite-alpha runs that reach center_solver (all-UM is closed form)
            if isinstance(o, dict) and "converged" in o and not label.startswith("um,um") \
                    and not label.endswith("@inf"):
                solves += 1
                nonconv += not o["converged"]
    return {
        "meas_gap_mean": sum(gaps) / len(gaps) if gaps else 0.0,
        "meas_gap_pairs": len(gaps),
        "nonconverged_frac": nonconv / solves if solves else 0.0,
        "finite_alpha_solves": solves,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], default="run")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    tracer = None
    if args.workload == "cli-batch" and args.mode == "trace":
        workload.trace_with(os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py"))
    instances = workload.instances(args.seed, args.tmp)
    workload.warmup(instances[0])
    t_ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return 0
    if args.mode == "trace" and args.workload != "cli-batch":
        tracer = Tracer()
        tracer.install()
    res = run_loop(workload, instances, args.seconds, tracer)
    rusage = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
    out = {
        "t_ready": t_ready,
        "elapsed_s": res["elapsed_s"],
        "cycles": res["cycles"],
        "samples": res["samples"],
        "ref_s": res["ref_s"],
        "attempted": res["attempted"],
        "failures": res["failures"],
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
        "tail_pct": workload.tail_pct,
        "ref_nominal_s": workload.ref_nominal_s,
        "known_defects": list(getattr(workload, "KNOWN_DEFECTS", ())),
        **quality(workload, res["done"]),
    }
    if args.mode == "trace":
        if tracer:
            out["sums"] = summarize(tracer)
            if args.spans_out:
                tracer.save(args.spans_out)
        else:
            out["sums"] = cli_sums(workload)
    if args.workload == "cli-batch":
        out["cli_records"] = [(label, wall) for label, wall, _ in workload.records]
    print(json.dumps(out))
    return 0


def cli_sums(workload) -> dict:
    """Merge the span sums the traced CLI processes wrote, and add the
    per-process import and wall times."""
    total: dict = {}
    imports, works = [], []
    for label, wall, sums in workload.records:
        if sums:
            imp = sums.pop("cli_import_s")
            imports.append(imp)
            works.append(wall - imp)
            merge(total, sums)
    total["cli_import_s"] = imports
    total["cli_work_s"] = works
    return total


if __name__ == "__main__":
    sys.exit(main())
