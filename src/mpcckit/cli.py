"""Experiment harness and command-line entry point.

Runs one of three pipelines per seed on a benchmark instance — the augmented
Lagrangian method, the nonsmooth Newton method from a cold start, or the
warm-started combination (ALM at a loose tolerance, then Newton from its
final primal-dual point) — and emits one result row per run as CSV or a
markdown pipe table. Start points are deterministic per seed: standard-normal
primal coordinates from a counter-based generator, zero multipliers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .alm import AlmConfig, solve_alm
from .core import MultiplierSet, QuadraticMpcc, classify_stationarity, load_instance
from .iocfem import IocParams, assemble_instance
from .nsnewton import FullPoint, NewtonConfig, residual_F, solve_newton
from .pgrad import PgradConfig

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "make_start",
    "run_experiment",
    "emit_table",
    "read_table_csv",
    "main",
]

_COLUMNS = (
    "seed", "algorithm", "status",
    "alm_iterations", "alm_value", "alm_time_s", "alm_rho",
    "nsn_iterations", "nsn_value", "nsn_time_s",
    "nsn_full_steps", "nsn_damped_steps", "nsn_gradient_steps",
    "resid_m", "is_m",
)
# wall-clock columns vary run to run; result files leave them out
_RESULT_COLUMNS = tuple(c for c in _COLUMNS if not c.endswith("_time_s"))


@dataclass
class ExperimentConfig:
    instance: str = "ioc"  # "ioc" or "file:<path>"
    wa: float | None = None  # overrides ioc.w_a when set
    algorithm: str = "alm"  # {"alm", "newton", "warmstart"}
    seeds: tuple = tuple(range(1, 11))
    out: str | None = None
    fmt: str = "csv"  # {"csv", "md"}
    warmstart_tau: float = 1e-5
    classify_tol: float = 1e-4
    ioc: IocParams = field(default_factory=IocParams)
    alm: AlmConfig = field(default_factory=AlmConfig)
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    pgrad: PgradConfig = field(default_factory=PgradConfig)


@dataclass
class ResultRow:
    seed: int
    algorithm: str
    status: str
    alm_iterations: int | None = None
    alm_value: float | None = None
    alm_time_s: float | None = None
    alm_rho: float | None = None
    nsn_iterations: int | None = None
    nsn_value: float | None = None
    nsn_time_s: float | None = None
    nsn_full_steps: int | None = None
    nsn_damped_steps: int | None = None
    nsn_gradient_steps: int | None = None
    resid_m: float | None = None
    is_m: bool | None = None

    @property
    def accepted(self) -> bool:
        return self.status == "converged"


def make_start(problem: QuadraticMpcc, seed: int):
    """Deterministic standard-normal primal start and zero multipliers."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(problem.n), MultiplierSet.zeros(problem)


def _build_problem(cfg: ExperimentConfig) -> QuadraticMpcc:
    if cfg.instance == "ioc":
        params = cfg.ioc if cfg.wa is None else replace(cfg.ioc, w_a=cfg.wa)
        return assemble_instance(params).problem
    if cfg.instance.startswith("file:"):
        return load_instance(cfg.instance[len("file:"):])
    raise ValueError(f"unknown instance {cfg.instance!r} "
                     "(expected 'ioc' or 'file:<path>')")


def _finish_row(problem, cfg, row: ResultRow, z: FullPoint) -> ResultRow:
    row.resid_m = float(np.linalg.norm(residual_F(problem, z)))
    report = classify_stationarity(problem, z.x, z.multipliers(),
                                   tol=cfg.classify_tol)
    row.is_m = report.is_M
    return row


def run_experiment(cfg: ExperimentConfig):
    """One ResultRow per seed; see the module docstring for the pipelines."""
    problem = _build_problem(cfg)
    rows = []
    for seed in cfg.seeds:
        x0, m0 = make_start(problem, seed)
        if cfg.algorithm == "alm":
            tic = time.perf_counter()
            res = solve_alm(problem, cfg.alm, x0, m0, pgrad_cfg=cfg.pgrad)
            row = ResultRow(seed=seed, algorithm="alm", status=res.status,
                            alm_iterations=res.iterations,
                            alm_value=res.objective,
                            alm_time_s=time.perf_counter() - tic,
                            alm_rho=res.final_rho)
            _finish_row(problem, cfg, row,
                        FullPoint.from_parts(res.x, res.multipliers))
        elif cfg.algorithm == "newton":
            tic = time.perf_counter()
            res = solve_newton(problem, cfg.newton, FullPoint.from_parts(x0, m0))
            row = ResultRow(seed=seed, algorithm="newton", status=res.status,
                            nsn_iterations=res.iterations,
                            nsn_value=problem.f(res.z.x),
                            nsn_time_s=time.perf_counter() - tic,
                            nsn_full_steps=res.full_steps,
                            nsn_damped_steps=res.damped_steps,
                            nsn_gradient_steps=res.gradient_steps)
            _finish_row(problem, cfg, row, res.z)
        elif cfg.algorithm == "warmstart":
            loose = replace(cfg.alm, tau_alm=cfg.warmstart_tau)
            tic = time.perf_counter()
            alm_res = solve_alm(problem, loose, x0, m0, pgrad_cfg=cfg.pgrad)
            alm_time = time.perf_counter() - tic
            tic = time.perf_counter()
            nsn_res = solve_newton(
                problem, cfg.newton,
                FullPoint.from_parts(alm_res.x, alm_res.multipliers))
            nsn_time = time.perf_counter() - tic
            both_ok = alm_res.status == "converged" and \
                nsn_res.status == "converged"
            row = ResultRow(
                seed=seed, algorithm="warmstart",
                status="converged" if both_ok
                else f"alm_{alm_res.status}+nsn_{nsn_res.status}",
                alm_iterations=alm_res.iterations, alm_value=alm_res.objective,
                alm_time_s=alm_time, alm_rho=alm_res.final_rho,
                nsn_iterations=nsn_res.iterations,
                nsn_value=problem.f(nsn_res.z.x), nsn_time_s=nsn_time,
                nsn_full_steps=nsn_res.full_steps,
                nsn_damped_steps=nsn_res.damped_steps,
                nsn_gradient_steps=nsn_res.gradient_steps)
            _finish_row(problem, cfg, row, nsn_res.z)
        else:
            raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
        rows.append(row)
    return rows


def _fmt_cell(name: str, value) -> str:
    if value is None:
        return ""
    if name == "alm_rho":
        return f"{value:.6e}"
    if name.endswith("_time_s"):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _row_cells(row: ResultRow, columns):
    return [_fmt_cell(name, getattr(row, name)) for name in columns]


def format_table(rows, fmt: str, timings: bool = False) -> str:
    """Render rows as CSV text or a markdown pipe table.

    The wall-clock columns alm_time_s and nsn_time_s appear only with
    timings=True; without them the text is bit-reproducible per seed.
    """
    columns = _COLUMNS if timings else _RESULT_COLUMNS
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(_row_cells(row, columns))
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(columns) + " |",
                 "|" + "|".join(" --- " for _ in columns) + "|"]
        for row in rows:
            lines.append("| " + " | ".join(_row_cells(row, columns)) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r} (expected 'csv' or 'md')")


def emit_table(rows, fmt: str, path) -> None:
    """Write the result table without its wall-clock columns."""
    with open(path, "w") as fh:
        fh.write(format_table(rows, fmt))


def read_table_csv(path):
    """Parse an emitted CSV back into a list of header->string dicts."""
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _config_from_sources(file_cfg: dict, args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg = replace(cfg,
                  ioc=replace(cfg.ioc, **file_cfg.get("ioc", {})),
                  alm=replace(cfg.alm, **file_cfg.get("alm", {})),
                  newton=replace(cfg.newton, **file_cfg.get("newton", {})),
                  pgrad=replace(cfg.pgrad, **file_cfg.get("pgrad", {})))
    for key in ("instance", "wa", "algorithm", "out", "warmstart_tau",
                "classify_tol"):
        if key in file_cfg:
            cfg = replace(cfg, **{key: file_cfg[key]})
    if "format" in file_cfg:
        cfg = replace(cfg, fmt=file_cfg["format"])
    if "seeds" in file_cfg:
        cfg = replace(cfg, seeds=tuple(int(s) for s in file_cfg["seeds"]))
    elif "n_seeds" in file_cfg:
        cfg = replace(cfg, seeds=tuple(range(1, int(file_cfg["n_seeds"]) + 1)))

    if args.instance is not None:
        cfg = replace(cfg, instance=args.instance)
    if args.wa is not None:
        cfg = replace(cfg, wa=args.wa)
    if args.algorithm is not None:
        cfg = replace(cfg, algorithm=args.algorithm)
    if args.seed_list is not None:
        cfg = replace(cfg, seeds=tuple(int(s) for s in args.seed_list.split(",")))
    elif args.seeds is not None:
        cfg = replace(cfg, seeds=tuple(range(1, args.seeds + 1)))
    if args.out is not None:
        cfg = replace(cfg, out=args.out)
    if args.format is not None:
        cfg = replace(cfg, fmt=args.format)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpcckit",
        description="Run complementarity-constrained QP solver experiments.")
    parser.add_argument("--instance", default=None,
                        help="'ioc' (built-in FEM benchmark) or 'file:PATH'")
    parser.add_argument("--wa", type=float, default=None,
                        help="lower bound w_a of the built-in benchmark")
    parser.add_argument("--algorithm", default=None,
                        choices=("alm", "newton", "warmstart"))
    parser.add_argument("--seeds", type=int, default=None,
                        help="run seeds 1..N")
    parser.add_argument("--seed-list", default=None,
                        help="comma-separated explicit seeds")
    parser.add_argument("--out", default=None, help="result table path")
    parser.add_argument("--format", default=None, choices=("csv", "md"))
    parser.add_argument("--config", default=None,
                        help="JSON config file overriding all defaults")
    args = parser.parse_args(argv)

    file_cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
    cfg = _config_from_sources(file_cfg, args)

    rows = run_experiment(cfg)
    if cfg.out is not None:
        emit_table(rows, cfg.fmt, cfg.out)
    sys.stdout.write(format_table(rows, "md", timings=True))
    return 0 if all(row.accepted for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
