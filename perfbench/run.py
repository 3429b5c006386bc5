"""mpcckit benchmark: time to a certified solution, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload ioc-alm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # each workload, untraced and traced
    python3 perfbench/run.py --write-benchmark-json

A run imports mpcckit from ./src, builds the workload's inputs, then solves
and certifies the workload's fixed set of solves in whole passes, as many as
bring the measured time nearest to --seconds (at least one). The seed sets
the order of the solves within a pass. While the solves run, a fixed
reference kernel (yardstick.py) is timed every half second, and the headline
time `wall_ref` is the median over passes of the pass time, less those
samples, divided by the kernel's median time in that pass; this cancels
most of the drift in a shared machine's speed. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it records spans and call counters and
reports the per-layer metrics. The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

Outputs under perfbench/out/: the deterministic part of a run (statuses,
counts, objective bits) in `<workload>-<code>.det*.json`, which every pass
and every later run of the same code must reproduce byte for byte, and the
timings and spans in separate files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_SECONDS = 30
BLAS_THREADS = 1  # at most nproc; one thread keeps runs steady on a shared box
SETUP_TRIALS = 4  # fresh-process set-up samples per run, besides the run's own
TAIL_BEYOND = 10  # solve_s.tail: highest percentile with this many solves beyond

WORKLOADS = {
    "ioc-alm": "paper Table-1 instance (n_div=8, w_a=0), ALM+SPG cold starts:"
               " time goes to alm, pgrad and compgeo; Newton never runs",
    "ioc-newton": "refined mesh (n_div=16, DF 3010x3010), nonsmooth Newton cold"
                  " starts: dense DF assembly and LU dominate; ALM never runs",
    "tiny-random": "30 random tiny MPCCs, each solved by ALM and Newton and"
                   " checked by branch enumeration: Python call overhead"
                   " dominates",
}

# (name, unit, better, bound). wall_ref is the pass time divided by the
# yardstick's median time in that pass, median over passes. wall_s itself,
# the median pass time in seconds, spread by up to 0.4 of its median over
# ten runs of the same code on a shared host, far past any usable bound. Printed too, but not bounded here: wall_s;
# solve_s.p50, which on ioc-alm is the time of one single solve and on
# tiny-random sits in a sparse gap of a bimodal distribution, so its spread
# across runs exceeds any usable bound; solve_s.tail, which needs 20 solves;
# and check_failures, which must be 0 and is reported as `failed`.
END_TO_END = [
    ("wall_ref", "ref", "lower", 0.25),
    ("converged_frac", "1", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better)
PER_LAYER = [
    ("alm.outer_iters", "count", "lower"),
    ("alm.penalty_increases", "count", "lower"),
    ("alm.oracle_calls", "count", "lower"),
    ("alm.oracle_us", "us", "lower"),
    ("alm.self_s", "s", "lower"),
    ("pgrad.iters", "count", "lower"),
    ("pgrad.budget_hits", "count", "lower"),
    ("pgrad.accept_ratio", "1", "higher"),
    ("pgrad.iter_us", "us", "lower"),
    ("pgrad.self_s", "s", "lower"),
    ("compgeo.project_calls", "count", "lower"),
    ("compgeo.project_us", "us", "lower"),
    ("compgeo.stat_calls", "count", "lower"),
    ("compgeo.stat_us", "us", "lower"),
    ("nsnewton.iters", "count", "lower"),
    ("nsnewton.full_steps", "count", "higher"),
    ("nsnewton.damped_steps", "count", "lower"),
    ("nsnewton.gradient_steps", "count", "lower"),
    ("nsnewton.backtracks", "count", "lower"),
    ("nsnewton.iter_ms", "ms", "lower"),
    ("nsnewton.residual_ms", "ms", "lower"),
    ("nsnewton.df_ms", "ms", "lower"),
    ("nsnewton.merit_ms", "ms", "lower"),
    ("nsnewton.lu_ms", "ms", "lower"),
    ("nsnewton.df_bytes", "bytes", "lower"),
    ("nsnewton.df_density", "1", "lower"),
    ("iocfem.assemble_s", "s", "lower"),
    ("core.classify_ms", "ms", "lower"),
    ("oracle.enumerate_ms", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.wall_ref", "ref", "lower"),
]


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def _limit_blas_threads() -> None:
    # must run before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_workloads():
    """Import mpcckit (through the workloads module) from the checkout."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS}


def _code_key() -> str:
    """Digest of the solver and benchmark sources, naming the det files."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "mpcckit").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _setup_probe(name: str) -> None:
    """Child-process mode: one set-up sample, printed as JSON."""
    _limit_blas_threads()
    tic = time.perf_counter()
    wl = _import_workloads().WORKLOADS[name]
    state = wl.setup(None)
    setup_s = time.perf_counter() - tic
    print(json.dumps({"setup_s": setup_s, "assemble_s": state.assemble_s}))


def _setup_samples(name: str) -> list:
    samples = []
    for _ in range(SETUP_TRIALS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Pass:
    def __init__(self, wall, ref, solves, calls, busy):
        self.wall = wall
        self.ref = ref  # the yardstick's median time during this pass
        self.solves = sorted(solves, key=lambda s: s.id)
        self.calls = calls
        self.busy = busy

    def det_text(self) -> str:
        return json.dumps([{"id": s.id, "solver": s.solver,
                            "converged": s.converged, "check_ok": s.check_ok,
                            **s.det} for s in self.solves],
                          indent=1, sort_keys=True)


def _run_pass(wl, state, order, tracer, yardstick, index) -> Pass:
    """One pass; its wall time counts the solves, not the yardstick."""
    wall = 0.0
    solves = []
    first_sample = len(yardstick.samples)
    for item in order:
        if tracer is not None:
            tracer.solve_id = f"pass{index}/{item}"
        tic, spent = time.perf_counter(), yardstick.spent
        solves.extend(wl.solve(state, item, tracer))
        wall += time.perf_counter() - tic - (yardstick.spent - spent)
    ref = yardstick.median(first_sample)
    calls, busy = tracer.take_counters() if tracer is not None else ({}, {})
    return Pass(wall, ref, solves, calls, busy)


def _gate(path: Path, text: str) -> bool:
    """True if `text` matches the file of an earlier run, or is the first."""
    if path.exists():
        return path.read_text() == text
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return True


def _tail(times):
    """(percentile, value) with at least TAIL_BEYOND solves beyond, or None."""
    pct = math.floor(100 * (len(times) - TAIL_BEYOND) / len(times))
    if pct < 50:
        return None
    return pct, statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def _per_call(busy, calls, name, scale):
    count = calls.get(name, 0)
    return scale * busy.get(name, 0.0) / count if count else 0.0


def _layer_metrics(passes, setup, probes, wall_s, wall_ref) -> dict:
    first = passes[0]
    alm = [s.det for s in first.solves if s.solver == "alm"]
    newton = [s.det for s in first.solves if s.solver == "newton"]
    calls, busy = {}, {}
    for p in passes:
        for k, v in p.calls.items():
            calls[k] = calls.get(k, 0) + v
        for k, v in p.busy.items():
            busy[k] = busy.get(k, 0.0) + v
    n_pass = len(passes)

    def per_pass(*names):
        return sum(busy.get(n, 0.0) for n in names) / n_pass

    def median_of(key):
        return statistics.median(p[key] for p in probes) if probes else 0.0

    pgrad_iters = sum(d["pgrad_iters"] for d in alm)
    oracle_calls = first.calls.get("alm.oracle", 0)
    sub_s = per_pass("pgrad.solve_subproblem")
    rows = [t for p in passes for s in p.solves for t in s.row_seconds]
    assemble = [s["assemble_s"] for s in setup if s["assemble_s"] is not None]
    return {
        "alm.outer_iters": sum(d["outer_iters"] for d in alm),
        "alm.penalty_increases": sum(d["penalty_increases"] for d in alm),
        "alm.oracle_calls": oracle_calls,
        "alm.oracle_us": _per_call(busy, calls, "alm.oracle", 1e6),
        "alm.self_s": per_pass("alm.solve_alm") - sub_s,
        "pgrad.iters": pgrad_iters,
        "pgrad.budget_hits": sum(d["pgrad_budget_hits"] for d in alm),
        "pgrad.accept_ratio": pgrad_iters / oracle_calls if oracle_calls else 0.0,
        "pgrad.iter_us": 1e6 * sub_s / pgrad_iters if pgrad_iters else 0.0,
        "pgrad.self_s": sub_s - per_pass("alm.oracle", "compgeo.project",
                                         "compgeo.stationarity"),
        "compgeo.project_calls": first.calls.get("compgeo.project", 0),
        "compgeo.project_us": _per_call(busy, calls, "compgeo.project", 1e6),
        "compgeo.stat_calls": first.calls.get("compgeo.stationarity", 0),
        "compgeo.stat_us": _per_call(busy, calls, "compgeo.stationarity", 1e6),
        "nsnewton.iters": sum(d["iters"] for d in newton),
        "nsnewton.full_steps": sum(d["full_steps"] for d in newton),
        "nsnewton.damped_steps": sum(d["damped_steps"] for d in newton),
        "nsnewton.gradient_steps": sum(d["gradient_steps"] for d in newton),
        "nsnewton.backtracks": sum(d["backtracks"] for d in newton),
        "nsnewton.iter_ms": 1e3 * statistics.median(rows) if rows else 0.0,
        "nsnewton.residual_ms": median_of("residual_ms"),
        "nsnewton.df_ms": median_of("df_ms"),
        "nsnewton.merit_ms": median_of("merit_ms"),
        "nsnewton.lu_ms": median_of("lu_ms"),
        "nsnewton.df_bytes": max((p["df_bytes"] for p in probes), default=0),
        "nsnewton.df_density": median_of("df_density"),
        "iocfem.assemble_s": statistics.median(assemble) if assemble else 0.0,
        "core.classify_ms": _per_call(busy, calls,
                                      "core.classify_stationarity", 1e3),
        "oracle.enumerate_ms": _per_call(busy, calls,
                                         "oracle.enumerate_branch_nlps", 1e3),
        "trace.wall_s": wall_s,
        "trace.wall_ref": wall_ref,
    }


def _measure(wl, state, seed, seconds, tracer, yardstick):
    """Whole passes over the fixed set, in the order the seed gives."""
    order = list(state.items)
    random.Random(seed).shuffle(order)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(wl, state, order, tracer, yardstick,
                                len(passes)))
        elapsed = time.perf_counter() - start
        # stop where the measured time lands nearest to `seconds`
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return order, passes


def _print_solves(solves) -> None:
    for s in solves:
        line = f"solve {s.id}: status={s.det['status']} check_ok={s.check_ok}"
        if s.solver == "alm":
            line += (f" outer_iters={s.det['outer_iters']}"
                     f" pgrad.iters={s.det['pgrad_iters']}"
                     f" pgrad.budget_hits={s.det['pgrad_budget_hits']}")
        else:
            line += f" iters={s.det['iters']}"
        print(line + f" seconds={s.seconds:.4f}")


def _print_end_to_end(e2e, wall_s, ref_s, n_ref, n_passes, p50, n_solves,
                      tail, converged, per_pass, check_failures,
                      n_setup) -> None:
    print(f"wall_ref = {e2e['wall_ref']:.2f} ref (median over passes of the "
          f"pass time / the yardstick's median in that pass)")
    print(f"wall_s = {wall_s:.4f} s (median of {n_passes} passes)")
    print(f"yardstick = {1e3 * ref_s:.3f} ms (median of {n_ref} samples)")
    print(f"solve_s.p50 = {p50:.4f} s (n={n_solves} solves)")
    if tail is None:
        print(f"solve_s.tail omitted ({n_solves} solves, needs "
              f"{2 * TAIL_BEYOND} or more)")
    else:
        print(f"solve_s.tail = solve_s.p{tail[0]} = {tail[1]:.4f} s "
              f"(n={n_solves} solves)")
    print(f"converged_frac = {e2e['converged_frac']:.4f} 1 "
          f"({converged}/{per_pass} per pass)")
    print(f"check_failures = {check_failures} count")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB")
    print(f"setup_s = {e2e['setup_s']:.4f} s (median of {n_setup} samples)")


def _print_overhead(name, seed, key, wall_ref) -> None:
    untraced = OUT / f"{name}-seed{seed}-trace0.timing.json"
    if not untraced.exists():
        return
    base = json.loads(untraced.read_text())
    if base["code"] == key:
        base_ref = base["metrics"]["wall_ref"]
        print(f"trace overhead = {100 * (wall_ref / base_ref - 1.0):+.1f} % "
              f"(wall_ref traced {wall_ref:.2f} vs untraced {base_ref:.2f})")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _limit_blas_threads()
    tic = time.perf_counter()
    workloads = _import_workloads()
    from tracing import Tracer
    from yardstick import Yardstick
    wl = workloads.WORKLOADS[name]
    tracer = Tracer() if trace else None
    state = wl.setup(tracer)
    setup = [{"setup_s": time.perf_counter() - tic,
              "assemble_s": state.assemble_s}]
    setup += _setup_samples(name)
    env = _environment()
    if tracer is not None:
        tracer.take_counters()  # set-up spans are not part of any pass
    with Yardstick() as yardstick:
        order, passes = _measure(wl, state, seed, seconds, tracer, yardstick)

    OUT.mkdir(exist_ok=True)
    key = f"{name}-{_code_key()}"
    det = passes[0].det_text()
    stable = all(p.det_text() == det for p in passes)
    stable = _gate(OUT / f"{key}.det.json", det) and stable

    first = passes[0].solves
    per_pass = len(first)
    converged = sum(s.converged for s in first)
    check_failures = sum(not s.check_ok for s in first)
    solve_times = [s.seconds for p in passes for s in p.solves]
    wall_s = statistics.median(p.wall for p in passes)
    ref_s = yardstick.median()
    # each pass against the yardstick of its own time: the machine's speed
    # can change from one pass to the next
    wall_ref = statistics.median(p.wall / p.ref for p in passes)
    p50 = statistics.median(solve_times)
    tail = _tail(solve_times)

    print(f"# perfbench workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {len(passes)} pass(es) of {per_pass} solves, order {order}")
    _print_solves(first)
    timing = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "code": key, "environment": env,
              "order": order, "setup_samples": setup,
              "pass_wall_s": [p.wall for p in passes], "wall_s": wall_s,
              "pass_yardstick_s": [p.ref for p in passes],
              "yardstick_s": yardstick.samples,
              "solve_s": {s.id: [] for s in first},
              "solve_s_p50": p50, "solve_s_tail": tail,
              "check_failures": check_failures}
    for p in passes:
        for s in p.solves:
            timing["solve_s"][s.id].append(s.seconds)

    if trace:
        tracer.solve_id = "kernel-probe"
        probes = [workloads.newton_kernels(p, z0, tracer)
                  for p, z0 in wl.newton_starts(state)]
        metrics = _layer_metrics(passes, setup, probes, wall_s, wall_ref)
        counts = {"calls_per_pass": passes[0].calls,
                  **{n: metrics[n] for n, unit, _ in PER_LAYER
                     if unit == "count"}}
        stable = all(p.calls == passes[0].calls for p in passes) and stable
        stable = _gate(OUT / f"{key}.det-traced.json",
                       json.dumps(counts, indent=1, sort_keys=True)) and stable
        tracer.write_spans(OUT / f"{name}-seed{seed}.spans.jsonl")
        units = {n: u for n, u, _ in PER_LAYER}
        for k, v in metrics.items():
            print(f"{k} = {v:.6g} {units[k]}")
        _print_overhead(name, seed, key, wall_ref)
        timing["probes"] = probes
    else:
        metrics = {
            "wall_ref": wall_ref,
            "converged_frac": converged / per_pass,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(s["setup_s"] for s in setup),
        }
        _print_end_to_end(metrics, wall_s, ref_s, len(yardstick.samples),
                          len(passes), p50, len(solve_times), tail, converged,
                          per_pass, check_failures, len(setup))
    if not stable:
        print("determinism gate FAILED: a pass or run of the same code "
              "produced different counts or objective bits", file=sys.stderr)

    timing["metrics"] = metrics
    timing["deterministic"] = stable
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.timing.json").write_text(
        json.dumps(timing, indent=1))

    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    failed = check_failures * len(passes)
    print(json.dumps({
        "correct": stable and failed == 0,
        "attempted": per_pass * len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if stable and failed == 0 else 1


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced, and a summary."""
    code = 0
    summary = []
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            code = code or proc.returncode
            results[trace] = _last_json(proc.stdout) if proc.returncode == 0 \
                else None
        summary.append((name, results))
    print("\n# summary")
    for name, results in summary:
        untraced, traced = results[0], results[1]
        if untraced is None or traced is None:
            print(f"{name}: FAILED")
            continue
        timing = json.loads((OUT / f"{name}-seed{seed}-trace0.timing.json")
                            .read_text())
        metrics = {k: v["value"] for k, v in untraced["metrics"].items()}
        overhead = traced["metrics"]["trace.wall_ref"]["value"] \
            / metrics["wall_ref"] - 1.0
        cells = [f"{k}={v:.4g}" for k, v in metrics.items()]
        cells.append(f"wall_s={timing['wall_s']:.4g}")
        cells.append(f"solve_s.p50={timing['solve_s_p50']:.4g}")
        tail = timing["solve_s_tail"]
        cells.append(f"solve_s.tail=p{tail[0]}:{tail[1]:.4g}" if tail
                     else "solve_s.tail=omitted")
        cells.append(f"check_failures={timing['check_failures']}")
        cells.append(f"trace_overhead={100 * overhead:+.1f}%")
        print(f"{name}: " + " ".join(cells))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    parser.add_argument("--setup-probe", choices=list(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if not (SRC / "mpcckit" / "__init__.py").is_file():
        print(f"perfbench: no mpcckit sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
