"""Per-call cost of Newton's peel: _factor and _solve on the factorizations
that real solves make.

Run from the repository root:

    python3 bench/newton_peel.py --repeat 15 --out newton_peel.json

Each case runs one Newton solve with nsnewton._factor and nsnewton._solve
wrapped, so that every call's arguments are kept: the rows ext of each
factorization, and each solve's factorization and right-hand side. The
cases are the cold start of criterion 1 (make_start, seed 1) at n_div = 8,
16 and 24, and Newton on criterion 4's stream of 100 random tiny MPCCs
(seed 4001), taken as one case. The kept calls are then replayed --repeat
times, all of a case's _factor calls and then all of its _solve calls on
factorizations that are not None; one replay's time divided by its number
of calls is one sample of the per-call time. A _factor call that finds DF
singular by its pattern returns after round 0, so a case's _factor time
mixes those calls with full factorizations. The JSON written to --out (and
printed) gives, per case, the size of its largest DF, the call counts and
the median and quartiles of those samples, with the Python, numpy and scipy
versions, the machine and the BLAS thread count, which is pinned to 1 as in
perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
N_DIVS = (8, 16, 24)
TINY_COUNT = 100  # criterion 4's stream
TINY_SEED = 4001


def _cases():
    """(name, [(problem, start), ...]) of each case: one cold start per
    n_div, then the tiny stream."""
    from helpers_tiny import random_tiny_mpcc
    from mpcckit import FullPoint, IocParams, MultiplierSet, assemble_instance
    from mpcckit.cli import make_start
    import numpy as np

    for n_div in N_DIVS:
        p = assemble_instance(IocParams(n_div=n_div)).problem
        yield f"n_div={n_div}", [(p, FullPoint.from_parts(*make_start(p, 1)))]
    rng = np.random.default_rng(TINY_SEED)
    stream = []
    for _ in range(TINY_COUNT):
        p = random_tiny_mpcc(rng)
        x0 = rng.normal(size=p.n)
        stream.append((p, FullPoint.from_parts(x0, MultiplierSet.zeros(p))))
    yield "tiny", stream


def _record(solves):
    """The _factor calls (problem, ext, pivot_tol) and the _solve calls
    (factor, rhs) that Newton makes on each (problem, start) of solves."""
    from mpcckit import nsnewton

    factor_calls, solve_calls = [], []
    factor, solve = nsnewton._factor, nsnewton._solve

    def factor_spy(problem, ext, pivot_tol):
        factor_calls.append((problem, ext.copy(), pivot_tol))
        return factor(problem, ext, pivot_tol)

    def solve_spy(f, rhs):
        if f is not None:
            solve_calls.append((f, rhs.copy()))
        return solve(f, rhs)

    nsnewton._factor, nsnewton._solve = factor_spy, solve_spy
    try:
        for problem, start in solves:
            nsnewton.solve_newton(problem, z0=start)
    finally:
        nsnewton._factor, nsnewton._solve = factor, solve
    return factor_calls, solve_calls


def _per_call(call, args, repeat, scale):
    """Median and quartiles over repeat replays of call on every args of
    one replay's time per call, times scale."""
    samples = []
    for _ in range(repeat):
        tic = time.perf_counter()
        for a in args:
            call(*a)
        samples.append((time.perf_counter() - tic) / len(args) * scale)
    q1, median, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                      if repeat > 1 else samples * 3)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15,
                        help="replays of each case's calls (default 15)")
    parser.add_argument("--out", type=Path, help="write the JSON here too")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    # must run before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for path in (ROOT / "tests", ROOT / "src"):
        sys.path.insert(0, str(path))
    import numpy
    import scipy
    from mpcckit.nsnewton import _factor, _solve

    cases = {}
    for name, solves in _cases():
        factor_calls, solve_calls = _record(solves)
        cases[name] = {
            "size": max(ext.size for _, ext, _ in factor_calls),
            "factor_calls": len(factor_calls),
            "factor_ms": _per_call(_factor, factor_calls, args.repeat, 1e3),
            "solve_calls": len(solve_calls),
            "solve_us": _per_call(_solve, solve_calls, args.repeat, 1e6),
        }
        # the case's factorizations are freed before the next case solves
        del factor_calls, solve_calls
    result = {
        "environment": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__,
                        "machine": platform.machine(),
                        "blas_threads": BLAS_THREADS},
        "repeat": args.repeat,
        "cases": cases,
    }
    text = json.dumps(result, indent=2)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
