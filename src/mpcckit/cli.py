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
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from .alm import AlmConfig, solve_alm
from .core import (NONNEGATIVE, FullPoint, MultiplierSet, QuadraticMpcc,
                   check_fields, classify_stationarity, is_count,
                   load_instance)
from .iocfem import IocParams, assemble_instance
from .nsnewton import NewtonConfig, residual_F, solve_newton
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
_FORMATS = ("csv", "md")  # the suffix of the --out file names its format
_SUFFIXES = tuple("." + fmt for fmt in _FORMATS)


@dataclass(frozen=True)
class ExperimentConfig:
    instance: str = "ioc"  # "ioc" or "file:<path>"
    algorithm: str = "alm"  # {"alm", "newton", "warmstart"}
    seeds: tuple = tuple(range(1, 11))
    out: str | None = None  # ends in .csv or .md
    warmstart_tau: float = 1e-5
    classify_tol: float = 1e-4
    ioc: IocParams = field(default_factory=IocParams)
    alm: AlmConfig = field(default_factory=AlmConfig)
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    pgrad: PgradConfig = field(default_factory=PgradConfig)

    def __post_init__(self):
        check_fields(
            self,
            instance=(lambda v: v == "ioc" or isinstance(v, str) and
                      v.startswith("file:") and v != "file:",
                      "'ioc' or 'file:' followed by a path"),
            algorithm=(lambda v: v in _ALGORITHMS, f"one of {_ALGORITHMS}"),
            seeds=(lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and
                   all(is_count(s) and s < 2 ** 128 for s in v),
                   "a non-empty list or tuple of integers in [0, 2**128)"),
            out=(lambda v: v is None or isinstance(v, str) and
                 v.endswith(_SUFFIXES),
                 "None or a name that ends in " + " or ".join(_SUFFIXES)),
            warmstart_tau=NONNEGATIVE, classify_tol=NONNEGATIVE,
            **{f.name: (lambda v, kind=f.default_factory: isinstance(v, kind),
                        f"of type {f.default_factory.__name__}")
               for f in fields(self) if f.name in _SECTIONS})
        object.__setattr__(self, "seeds", tuple(self.seeds))


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


# the keys of a config file, which the flags parse into; a section holds a
# dataclass of settings
_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_SECTIONS = tuple(f.name for f in fields(ExperimentConfig)
                  if is_dataclass(f.default_factory))
_COLUMNS = tuple(f.name for f in fields(ResultRow))
# wall-clock columns vary run to run; result files leave them out
_RESULT_COLUMNS = tuple(c for c in _COLUMNS if not c.endswith("_time_s"))


def make_start(problem: QuadraticMpcc, seed: int):
    """Deterministic standard-normal primal start and zero multipliers."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(problem.n), MultiplierSet.zeros(problem)


def _build_problem(cfg: ExperimentConfig) -> QuadraticMpcc:
    if cfg.instance == "ioc":
        return assemble_instance(cfg.ioc).problem
    return load_instance(cfg.instance[len("file:"):])


def run_experiment(cfg: ExperimentConfig):
    """One ResultRow per seed; see the module docstring for the pipelines.

    Every algorithm but newton runs the ALM stage, every algorithm but alm
    the Newton stage, from the ALM point when both run. A single stage's
    status is the row's; the warm start is converged when both stages are,
    and otherwise reads alm_<status>+nsn_<status>.
    """
    alm_cfg = replace(cfg.alm, tau_alm=cfg.warmstart_tau) \
        if cfg.algorithm == "warmstart" else cfg.alm
    problem = _build_problem(cfg)
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

    A file that is not a JSON object, a section that is neither an object
    nor null, unknown keys, an ioc section (the flags' holds --wa) for an
    instance other than ioc, and an alm.tau_alm under the warm start raise
    ValueError; ExperimentConfig and the section dataclasses check the
    values.
    """
    if not isinstance(file_cfg, dict):
        raise ValueError(f"a config file must hold a JSON object, "
                         f"got {type(file_cfg).__name__}")
    unknown = sorted(set(file_cfg) - set(_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} "
                         f"(expected some of {_KEYS})")
    cfg = ExperimentConfig()
    for source in (file_cfg, flags):
        given = {key: value for key, value in source.items()
                 if value is not None}
        for name in given.keys() & _SECTIONS:
            if not isinstance(given[name], dict):
                raise ValueError(f"config section {name!r} must be a JSON "
                                 f"object or null, got "
                                 f"{type(given[name]).__name__}")
            section = getattr(cfg, name)
            known = [f.name for f in fields(section)]
            unknown = sorted(set(given[name]) - set(known))
            if unknown:
                raise ValueError(f"unknown key(s) {unknown} in config section "
                                 f"{name!r} (expected some of {known})")
            given[name] = replace(section, **given[name])
        cfg = replace(cfg, **given)
    if cfg.instance != "ioc" and any(source.get("ioc") is not None
                                     for source in (file_cfg, flags)):
        raise ValueError(f"an ioc section or --wa has no effect on "
                         f"instance {cfg.instance!r}")
    if cfg.algorithm == "warmstart" and \
            "tau_alm" in (file_cfg.get("alm") or {}):
        raise ValueError("alm.tau_alm has no effect under algorithm "
                         "'warmstart', whose ALM stage stops at warmstart_tau")
    return cfg


def _seed_count(text: str) -> tuple:
    """Seeds 1..N; argparse reports a text that int() rejects."""
    return tuple(range(1, int(text) + 1))


def _seed_list(text: str) -> list:
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpcckit",
        description="Run complementarity-constrained QP solver experiments.")
    parser.add_argument("--instance", default=None,
                        help="'ioc' (built-in FEM benchmark) or 'file:PATH'")
    parser.add_argument("--wa", type=float, default=None,
                        help="lower bound w_a of the built-in benchmark")
    parser.add_argument("--algorithm", default=None, choices=_ALGORITHMS)
    seeds = parser.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=_seed_count, default=None,
                       metavar="N", help="run seeds 1..N")
    seeds.add_argument("--seed-list", dest="seeds", default=None,
                       metavar="LIST", type=_seed_list,
                       help="comma-separated explicit seeds")
    parser.add_argument("--out", default=None, help="table path, .csv or .md")
    parser.add_argument("--config", default=None,
                        help="JSON config file overriding all defaults")
    flags = vars(parser.parse_args(argv))
    wa = flags.pop("wa")
    flags["ioc"] = None if wa is None else {"w_a": wa}

    file_cfg = {}
    config_path = flags.pop("config")
    if config_path is not None:
        with open(config_path) as fh:
            file_cfg = json.load(fh)
    cfg = _config_from_sources(file_cfg, flags)

    rows = run_experiment(cfg)
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(format_table(rows, cfg.out.rsplit(".", 1)[1]))
    sys.stdout.write(format_table(rows, "md", timings=True))
    return 0 if all(row.accepted for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
