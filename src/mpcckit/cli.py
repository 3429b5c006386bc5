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
from dataclasses import dataclass, field, fields, replace

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
    "read_table_csv",
    "main",
]

_ALGORITHMS = ("alm", "newton", "warmstart")
_FORMATS = ("csv", "md")
_SECTIONS = ("ioc", "alm", "newton", "pgrad")
# top-level keys of a config file; the flags parse into the same names
_KEYS = ("instance", "wa", "algorithm", "seeds", "n_seeds", "out", "format",
         "warmstart_tau", "classify_tol") + _SECTIONS


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


_COLUMNS = tuple(f.name for f in fields(ResultRow))
# wall-clock columns vary run to run; result files leave them out
_RESULT_COLUMNS = tuple(c for c in _COLUMNS if not c.endswith("_time_s"))


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


def run_experiment(cfg: ExperimentConfig):
    """One ResultRow per seed; see the module docstring for the pipelines.

    Every algorithm but newton runs the ALM stage, every algorithm but alm
    the Newton stage, from the ALM point when both run. A single stage's
    status is the row's; the warm start is converged when both stages are,
    and otherwise reads alm_<status>+nsn_<status>.
    """
    if cfg.algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r} "
                         f"(expected one of {_ALGORITHMS})")
    problem = _build_problem(cfg)
    alm_cfg = replace(cfg.alm, tau_alm=cfg.warmstart_tau) \
        if cfg.algorithm == "warmstart" else cfg.alm
    rows = []
    for seed in cfg.seeds:
        x0, m0 = make_start(problem, seed)
        z = FullPoint.from_parts(x0, m0)
        cols, stages = {}, {}
        if cfg.algorithm != "newton":
            tic = time.perf_counter()
            res = solve_alm(problem, alm_cfg, x0, m0, pgrad_cfg=cfg.pgrad)
            cols.update(alm_time_s=time.perf_counter() - tic,
                        alm_iterations=res.iterations,
                        alm_value=res.objective, alm_rho=res.final_rho)
            stages["alm"] = res.status
            z = FullPoint.from_parts(res.x, res.multipliers)
        if cfg.algorithm != "alm":
            tic = time.perf_counter()
            res = solve_newton(problem, cfg.newton, z)
            cols.update(nsn_time_s=time.perf_counter() - tic,
                        nsn_iterations=res.iterations,
                        nsn_value=problem.f(res.z.x),
                        nsn_full_steps=res.full_steps,
                        nsn_damped_steps=res.damped_steps,
                        nsn_gradient_steps=res.gradient_steps)
            stages["nsn"] = res.status
            z = res.z
        if len(stages) == 1 or set(stages.values()) == {"converged"}:
            status = res.status
        else:
            status = "+".join(f"{k}_{s}" for k, s in stages.items())
        report = classify_stationarity(problem, z.x, z.multipliers(),
                                       tol=cfg.classify_tol)
        rows.append(ResultRow(
            seed=seed, algorithm=cfg.algorithm, status=status,
            resid_m=float(np.linalg.norm(residual_F(problem, z))),
            is_m=report.is_M, **cols))
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
    raise ValueError(f"unknown format {fmt!r} (expected one of {_FORMATS})")


def read_table_csv(path):
    """Parse an emitted CSV back into a list of header->string dicts."""
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _config_from_sources(file_cfg: dict, flags: dict) -> ExperimentConfig:
    """Defaults, then the config file, then the flags (those not None).

    Within one source an explicit seed list beats a seed count. Unknown
    keys and formats raise ValueError; run_experiment checks the algorithm
    before it builds the problem.
    """
    unknown = sorted(set(file_cfg) - set(_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} "
                         f"(expected some of {_KEYS})")
    cfg = ExperimentConfig()
    for source in (file_cfg, flags):
        given = {key: value for key, value in source.items()
                 if value is not None}
        for name in given.keys() & _SECTIONS:
            given[name] = replace(getattr(cfg, name), **given[name])
        n_seeds = given.pop("n_seeds", None)
        if "seeds" in given:
            given["seeds"] = tuple(int(s) for s in given["seeds"])
        elif n_seeds is not None:
            given["seeds"] = tuple(range(1, int(n_seeds) + 1))
        if "format" in given:
            given["fmt"] = given.pop("format")
        cfg = replace(cfg, **given)
    if cfg.fmt not in _FORMATS:
        raise ValueError(f"unknown format {cfg.fmt!r} "
                         f"(expected one of {_FORMATS})")
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpcckit",
        description="Run complementarity-constrained QP solver experiments.")
    parser.add_argument("--instance", default=None,
                        help="'ioc' (built-in FEM benchmark) or 'file:PATH'")
    parser.add_argument("--wa", type=float, default=None,
                        help="lower bound w_a of the built-in benchmark")
    parser.add_argument("--algorithm", default=None, choices=_ALGORITHMS)
    parser.add_argument("--seeds", dest="n_seeds", type=int, default=None,
                        metavar="N", help="run seeds 1..N")
    parser.add_argument("--seed-list", dest="seeds", default=None,
                        metavar="LIST", type=lambda text: text.split(","),
                        help="comma-separated explicit seeds")
    parser.add_argument("--out", default=None, help="result table path")
    parser.add_argument("--format", default=None, choices=_FORMATS)
    parser.add_argument("--config", default=None,
                        help="JSON config file overriding all defaults")
    flags = vars(parser.parse_args(argv))

    file_cfg = {}
    config_path = flags.pop("config")
    if config_path is not None:
        with open(config_path) as fh:
            file_cfg = json.load(fh)
    cfg = _config_from_sources(file_cfg, flags)

    rows = run_experiment(cfg)
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(format_table(rows, cfg.fmt))
    sys.stdout.write(format_table(rows, "md", timings=True))
    return 0 if all(row.accepted for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
