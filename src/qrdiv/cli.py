"""Batch front end: evaluate divergences by kind string, sweep alpha/gamma
grids to CSV, and run the verification suites.

Exit codes: 0 ok, 2 parse error, 3 solver non-convergence (value still
printed with its gap), 4 ordering violation under --check-order, 5 suite
failure. Infinite values print as "+inf", never NaN.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .barycentric import barycentric_renyi_full
from .errors import BadParameter, QrdivError
from .hermitian import load_matrix, matrix_to_json
from .relent import parse_kind, rel_entropy
from .renyi import max_renyi, renyi_alpha_z

INF = float("inf")


def fmt_value(x: float) -> str:
    if x == INF:
        return "+inf"
    if x == -INF:
        return "-inf"
    return f"{x:.12g}"


def _parse_alpha(s: str) -> float:
    if s in ("inf", "+inf"):
        return INF
    try:
        return float(s)
    except ValueError as exc:
        raise BadParameter(f"bad alpha {s!r}") from exc


def evaluate_kind(kind_str: str, alpha, rho, sigma, seed: int = 0, options=None):
    """Dispatch a CLI kind string to (value, gap, flags, center)."""
    flags = []
    if kind_str.startswith("bary:"):
        part = kind_str[5:]
        k0_str, _, k1_str = part.partition(",")
        if not k1_str:
            raise QrdivError(f"bary kind needs two components: {kind_str!r}")
        if alpha is None:
            raise QrdivError("bary kinds require --alpha")
        kinds = (parse_kind(k0_str), parse_kind(k1_str))
        res = barycentric_renyi_full(alpha, kinds, rho, sigma, options)
        if not res["converged"]:
            flags.append("not_converged")
        return res["value"], res["gap"], flags, res["center"]
    if kind_str.startswith("az:"):
        parts = kind_str.split(":")
        if len(parts) != 3:
            raise BadParameter(f"az kind needs az:<alpha>:<z>, got {kind_str!r}")
        _, a_str, z_str = parts
        return renyi_alpha_z(_parse_alpha(a_str), _parse_alpha(z_str), rho, sigma), 0.0, flags, None
    if kind_str.startswith("max:"):
        a = _parse_alpha(kind_str[4:])
        mv = max_renyi(a, rho, sigma)
        if mv.upper_bound_only:
            flags.append("upper_bound_only")
        return mv.value, 0.0, flags, None
    if kind_str == "meas-lb":
        kind = parse_kind("meas")
    else:
        kind = parse_kind(kind_str)
    dv = rel_entropy(kind, rho, sigma, seed=seed)
    gap = dv.certificate_gap or 0.0
    if dv.certificate_gap is not None:
        flags.append("lower_bound")
    return dv.value, gap, flags, None


def cmd_eval(args) -> int:
    rho = load_matrix(args.rho)
    sigma = load_matrix(args.sigma)
    alpha = _parse_alpha(args.alpha) if args.alpha is not None else None
    value, gap, flags, center = evaluate_kind(
        args.kind, alpha, rho, sigma, seed=args.seed
    )
    if args.out == "json":
        payload = {
            "kind": args.kind,
            "alpha": alpha,
            "value": fmt_value(value),
            "gap": gap,
            "flags": flags,
        }
        if args.with_center and center is not None:
            payload["center"] = matrix_to_json(center)
        print(json.dumps(payload))
    else:
        print(fmt_value(value))
        if args.with_center and center is not None:
            print(json.dumps(matrix_to_json(center)))
    return 3 if "not_converged" in flags else 0


def _parse_grid(spec: str) -> list[float]:
    try:
        a, b, n = spec.split(":")
        return [float(x) for x in np.linspace(float(a), float(b), int(n))]
    except ValueError as exc:
        raise BadParameter(f"bad grid {spec!r}; expected <start>:<stop>:<count>") from exc


def _split_kinds(spec: str) -> list[str]:
    """Split a --kinds list on commas; a "bary:" kind takes the next item as
    its second component."""
    items = (k.strip() for k in spec.split(","))
    kinds = []
    for k in items:
        if k.startswith("bary:"):
            k = f"{k},{next(items, '')}"
        kinds.append(k)
    return kinds


def cmd_sweep(args) -> int:
    rho = load_matrix(args.rho)
    sigma = load_matrix(args.sigma)
    kinds = _split_kinds(args.kinds) if args.kinds else [args.kind]
    if args.alpha_grid:
        grid = _parse_grid(args.alpha_grid)
        mode = "alpha"
    elif args.gamma_grid:
        grid = _parse_grid(args.gamma_grid)
        mode = "gamma"
    else:
        raise QrdivError("sweep needs --alpha-grid or --gamma-grid")

    jobs = []
    for kind in kinds:
        for g in grid:
            if mode == "gamma":
                jobs.append((f"{kind}:{g:g}", None, kind, g))
            else:
                jobs.append((kind, g, kind, g))

    rows = []
    for kstr, alpha, base, g in jobs:
        value, gap, flags, _ = evaluate_kind(kstr, alpha, rho, sigma, seed=args.seed)
        rows.append((base, g, value, gap, flags))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "alpha_or_gamma", "value", "gap", "flags"])
    for base, g, value, gap, flags in rows:
        writer.writerow([base, f"{g:g}", fmt_value(value), f"{gap:.3g}", "|".join(flags)])
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())

    if args.check_order:
        # per kind: values must be nondecreasing along the grid; with several
        # kinds the columns must be ordered as listed at each grid point
        by_kind: dict[str, list[float]] = {}
        for base, g, value, gap, flags in rows:
            by_kind.setdefault(base, []).append(value)
        for kind, vals in by_kind.items():
            for i in range(1, len(vals)):
                if vals[i] < vals[i - 1] - 1e-9:
                    print(
                        f"order violation: kind {kind} decreases at grid index {i}",
                        file=sys.stderr,
                    )
                    return 4
        if len(kinds) > 1:
            for i in range(len(grid)):
                col = [by_kind[k][i] for k in kinds]
                for j in range(1, len(col)):
                    if col[j] < col[j - 1] - 1e-9:
                        print(
                            f"order violation: kinds {kinds[j-1]} > {kinds[j]} "
                            f"at grid index {i}",
                            file=sys.stderr,
                        )
                        return 4
    return 0


def _suite_axioms(seed: int, samples: int) -> dict:
    from .relent import axioms_check

    out = {}
    for kind_str in ("um", "bs", "geom:um:0.5", "mix:0.5*um+0.5*bs"):
        report = axioms_check(parse_kind(kind_str), samples=samples, rng_seed=seed)
        out[kind_str] = report
    return {"passed": all(r["all_pass"] for r in out.values()), "reports": out}


def _suite_separation_dim2(seed: int, samples: int) -> dict:
    from .hermitian import sample_state
    from .relent import BelavkinStaszewski

    rng = np.random.default_rng(seed)
    worst = INF
    n = 0
    while n < samples:
        rho = sample_state(2, 2, rng)
        sig = sample_state(2, 2, rng)
        if np.max(np.abs(rho @ sig - sig @ rho)) < 1e-3:
            continue
        n += 1
        for alpha in (0.25, 0.5, 0.75):
            bb = barycentric_renyi_full(
                alpha, (BelavkinStaszewski(), BelavkinStaszewski()), rho, sig
            )["value"]
            mx = max_renyi(alpha, rho, sig).value
            worst = min(worst, mx - bb)
    return {"passed": worst > 1e-6, "min_margin": worst, "samples": samples}


def find_no_dpi_witness(seed: int = 0, trials: int = 5000):
    """Search for a pinching that increases the all-Umegaki barycentric
    Renyi divergence at alpha in {1.5, 2}; returns (rho, sigma, blocks,
    alpha, increase, trial) or None.

    Candidates are prefiltered with the log-Euclidean closed form and
    confirmed through the barycentric evaluation itself.
    """
    from .hermitian import pinch, sample_state, sample_unitary
    from .relent import Umegaki

    rng = np.random.default_rng(seed)
    for n in range(trials):
        rho = sample_state(2, 2, rng)
        sig = sample_state(2, 2, rng)
        u = sample_unitary(2, rng)
        p1 = np.outer(u[:, 0], u[:, 0].conj())
        blocks = [p1, np.eye(2) - p1]
        rp, sp = pinch(rho, blocks), pinch(sig, blocks)
        for alpha in (1.5, 2.0):
            vin = renyi_alpha_z(alpha, INF, rho, sig)
            vout = renyi_alpha_z(alpha, INF, rp, sp)
            if math.isfinite(vin) and vout > vin + 1e-9:
                um = (Umegaki(), Umegaki())
                bin_ = barycentric_renyi_full(alpha, um, rho, sig)["value"]
                bout = barycentric_renyi_full(alpha, um, rp, sp)["value"]
                if bout > bin_ + 1e-9:
                    return rho, sig, blocks, alpha, bout - bin_, n
    return None


def _suite_no_dpi(seed: int, samples: int) -> dict:
    trials = max(5000, samples)
    hit = find_no_dpi_witness(seed, trials)
    if hit is None:
        return {"passed": False, "witness_found": False, "trials": trials}
    _, _, _, alpha, increase, trial = hit
    return {
        "passed": True,
        "witness_found": True,
        "alpha": alpha,
        "trial": trial,
        "increase": increase,
    }


def _suite_ordering(seed: int, samples: int) -> dict:
    from .hermitian import sample_state
    from .relent import (
        BelavkinStaszewski,
        GeomWeighted,
        MeasuredProjective,
        Umegaki,
        rel_entropy,
    )

    um, bs = Umegaki(), BelavkinStaszewski()
    rng = np.random.default_rng(seed)
    # (margin, sample, ordering) of the tightest ordering seen
    worst = (INF, None, None)
    for n in range(samples):
        d = int(rng.integers(2, 5))
        rho = sample_state(d, d, rng)
        sig = sample_state(d, d, rng)
        vals = {
            "meas": rel_entropy(MeasuredProjective(restarts=3, iters=60), rho, sig, seed=n).value,
            "um": rel_entropy(um, rho, sig).value,
            "geom:um:0.5": rel_entropy(GeomWeighted(um, 0.5), rho, sig).value,
            "bs": rel_entropy(bs, rho, sig).value,
        }
        # at alpha = inf, from U <= BS and log-Euclidean <= D_max
        for kinds in ((um, um), (um, bs), (bs, bs)):
            vals[f"bary:{kinds[0]},{kinds[1]}@inf"] = barycentric_renyi_full(
                INF, kinds, rho, sig
            )["value"]
        for lo, hi in (
            ("meas", "um"),
            ("um", "geom:um:0.5"),
            ("geom:um:0.5", "bs"),
            ("bary:um,um@inf", "bary:um,bs@inf"),
            ("bary:bs,bs@inf", "bary:um,bs@inf"),
            ("bary:um,um@inf", "bary:bs,bs@inf"),
        ):
            worst = min(worst, (vals[hi] - vals[lo], n, f"{lo} <= {hi}"), key=lambda w: w[0])
    margin, sample, ordering = worst
    return {
        "passed": margin >= -1e-8,
        "samples": samples,
        "worst": {"sample": sample, "ordering": ordering, "margin": margin},
    }


SUITES = {
    "axioms": _suite_axioms,
    "separation-dim2": _suite_separation_dim2,
    "no-dpi-alpha-gt-1": _suite_no_dpi,
    "ordering": _suite_ordering,
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; known: {sorted(SUITES)}", file=sys.stderr)
        return 2
    report = SUITES[args.suite](args.seed, args.samples)
    print(json.dumps({"suite": args.suite, **report}, default=str))
    return 0 if report["passed"] else 5


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qrdiv", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate one divergence")
    pe.add_argument("--kind", required=True)
    pe.add_argument("--alpha", default=None)
    pe.add_argument("--rho", required=True)
    pe.add_argument("--sigma", required=True)
    pe.add_argument("--out", default="text", choices=["text", "json"])
    pe.add_argument("--with-center", action="store_true")
    pe.add_argument("--seed", type=int, default=0)
    pe.set_defaults(func=cmd_eval)

    ps = sub.add_parser("sweep", help="sweep a grid to CSV")
    ps.add_argument("--kind", default=None)
    ps.add_argument("--kinds", default=None)
    ps.add_argument("--alpha-grid", default=None)
    ps.add_argument("--gamma-grid", default=None)
    ps.add_argument("--rho", required=True)
    ps.add_argument("--sigma", required=True)
    ps.add_argument("--out", default="-")
    ps.add_argument("--check-order", action="store_true")
    ps.add_argument("--seed", type=int, default=0)
    ps.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=20)
    pv.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (QrdivError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
