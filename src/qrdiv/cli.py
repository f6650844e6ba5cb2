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

# numeric modules load inside the functions that compute, so a malformed
# argument exits 2 before numpy is imported
from .errors import QrdivError
from .kinds import (
    Barycentric,
    BelavkinStaszewski,
    EvalSpec,
    GeomWeighted,
    MaxRenyi,
    MeasuredProjective,
    RenyiAlphaZ,
    Umegaki,
    parse_alpha,
    parse_grid,
    parse_kind,
    parse_kinds,
)

INF = float("inf")


def fmt_value(x: float) -> str:
    if x == INF:
        return "+inf"
    if x == -INF:
        return "-inf"
    return f"{x:.12g}"


def evaluate(spec: EvalSpec, alpha, rho, sigma, seed: int = 0):
    """Turn a parsed kind or eval spec into (value, gap, flags, center)."""
    if isinstance(spec, Barycentric):
        from .barycentric import barycentric_renyi_full

        res = barycentric_renyi_full(alpha, spec.kinds, rho, sigma)
        flags = [] if res["converged"] else ["not_converged"]
        return res["value"], res["gap"], flags, res["center"]
    if isinstance(spec, RenyiAlphaZ):
        from .renyi import renyi_alpha_z

        return renyi_alpha_z(spec.alpha, spec.z, rho, sigma), 0.0, [], None
    if isinstance(spec, MaxRenyi):
        from .renyi import max_renyi

        mv = max_renyi(spec.alpha, rho, sigma)
        return mv.value, 0.0, ["upper_bound_only"] if mv.upper_bound_only else [], None
    from .relent import rel_entropy

    dv = rel_entropy(spec, rho, sigma, seed=seed)
    if dv.certificate_gap is None:
        return dv.value, 0.0, [], None
    return dv.value, dv.certificate_gap, ["lower_bound"], None


def cmd_eval(args) -> int:
    alpha = parse_alpha(args.alpha) if args.alpha is not None else None
    spec = parse_kind(args.kind)
    if alpha is None and isinstance(spec, Barycentric):
        raise QrdivError("bary kinds require --alpha")
    if alpha is not None and not isinstance(spec, Barycentric):
        raise QrdivError("--alpha applies only to bary: kinds (az: and max: carry their own)")
    from .hermitian import _json_float, load_matrix, matrix_to_json

    rho = load_matrix(args.rho)
    sigma = load_matrix(args.sigma)
    value, gap, flags, center = evaluate(spec, alpha, rho, sigma, args.seed)
    if args.out == "json":
        payload = {
            "kind": args.kind,
            "alpha": _json_float(alpha),
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


def _sweep_items(args, gamma: float | None = None) -> list:
    """(text as written, spec) of each item of --kinds, or of --kind. At a
    ``gamma`` each item is read with ":<gamma>" appended; no item that takes
    a gamma contains a comma, so --kinds is split on its commas."""
    if not args.kinds and args.kind is None:
        raise QrdivError("sweep needs --kind or --kinds")
    if gamma is None:
        return parse_kinds(args.kinds) if args.kinds else [(args.kind, parse_kind(args.kind))]
    texts = args.kinds.split(",") if args.kinds else [args.kind]
    if any("".join(t.split()).startswith("bary:") for t in texts):
        raise QrdivError("bary kinds require --alpha-grid, not --gamma-grid")
    return [("".join(t.split()) if args.kinds else t, parse_kind(f"{t}:{gamma:g}"))
            for t in texts]


def cmd_sweep(args) -> int:
    # every grid and item is read before a matrix is: plan[j] is grid point
    # j as (g, alpha, items)
    if args.alpha_grid:
        items = _sweep_items(args)
        plan = [(g, g, items) for g in parse_grid(args.alpha_grid)]
        for text, spec in items:
            if not isinstance(spec, Barycentric):
                print(f"warning: --alpha-grid does not move {text}: only bary: items take alpha",
                      file=sys.stderr)
    elif args.gamma_grid:
        plan = [(g, None, _sweep_items(args, g)) for g in parse_grid(args.gamma_grid)]
    else:
        raise QrdivError("sweep needs --alpha-grid or --gamma-grid")
    from .hermitian import load_matrix

    rho = load_matrix(args.rho)
    sigma = load_matrix(args.sigma)
    # table[j][i]: item i at grid point j as (text, g, value, gap, flags)
    table = [
        [(text, g, *evaluate(spec, alpha, rho, sigma, args.seed)[:3]) for text, spec in items]
        for g, alpha, items in plan
    ]
    columns = list(zip(*table))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "alpha_or_gamma", "value", "gap", "flags"])
    for text, g, value, gap, flags in (row for col in columns for row in col):
        writer.writerow([text, f"{g:g}", fmt_value(value), f"{gap:.3g}", "|".join(flags)])
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())

    if args.check_order:
        # per item: values must be nondecreasing along the grid; with several
        # items the columns must be ordered as listed at each grid point
        steps = [(f"kind {hi[0]} decreases", i, lo, hi)
                 for col in columns for i, (lo, hi) in enumerate(zip(col, col[1:]), 1)]
        steps += [(f"kinds {lo[0]} > {hi[0]}", i, lo, hi)
                  for i, row in enumerate(table) for lo, hi in zip(row, row[1:])]
        for what, i, lo, hi in steps:
            if hi[2] < lo[2] - 1e-9:
                print(f"order violation: {what} at grid index {i}", file=sys.stderr)
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
    import numpy as np

    from .barycentric import barycentric_renyi_full
    from .hermitian import sample_state
    from .renyi import max_renyi

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
    import numpy as np

    from .barycentric import barycentric_renyi_full
    from .hermitian import pinch, sample_state, sample_unitary
    from .renyi import renyi_alpha_z

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
    import numpy as np

    from .barycentric import barycentric_renyi_full
    from .hermitian import sample_state
    from .relent import rel_entropy

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


def _whole(low: int):
    """An argparse type: a whole number >= ``low``, else exit 2."""

    def read(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if n < low:
            raise argparse.ArgumentTypeError(f"expected a whole number >= {low}, got {text!r}")
        return n

    return read


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
    pe.add_argument("--seed", type=_whole(0), default=0)
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
    ps.add_argument("--seed", type=_whole(0), default=0)
    ps.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True)
    pv.add_argument("--seed", type=_whole(0), default=0)
    pv.add_argument("--samples", type=_whole(1), default=20)
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
