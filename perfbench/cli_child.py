"""Traced stand-in for ``python -m qrdiv.cli``: times the import of
qrdiv.cli, installs the span wrappers, runs the CLI's main on the given
arguments, and writes the span sums to the file named by PERFBENCH_SUMS.

    python3 perfbench/cli_child.py -- eval --kind um --rho R --sigma S
"""

import json
import os
import sys
from time import perf_counter

t0 = perf_counter()
import qrdiv.cli  # noqa: E402

import_s = perf_counter() - t0

from tracer import Tracer, summarize  # noqa: E402  (after the timed import)


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tr = Tracer()
    tr.install()
    try:
        # an uncaught exception propagates as it would under python -m
        return tr.run_op(lambda: qrdiv.cli.main(argv))
    finally:
        tr.uninstall()
        sums = summarize(tr)
        sums["cli_import_s"] = import_s
        with open(os.environ["PERFBENCH_SUMS"], "w") as fh:
            json.dump(sums, fh)


if __name__ == "__main__":
    sys.exit(main())
