"""Solver toolkit for quadratic programs with complementarity constraints.

Problems carry a convex quadratic objective, affine inequality/equality
constraints, and pairwise complementarity between two affine maps. The
toolkit computes candidate solutions with a safeguarded augmented Lagrangian
method or a globalized nonsmooth Newton method, certifies the stationarity
class of any candidate point, and ships a PDE-discretized inverse
optimal-control benchmark plus a brute-force enumeration oracle for tiny
instances.
"""

from .alm import AlmConfig, AlmResult, solve_alm
from .compgeo import PairPartition, project_onto_C
from .core import (
    FullPoint,
    IndexSets,
    MultiplierSet,
    QuadraticMpcc,
    SolverTrace,
    StationarityReport,
    TraceRow,
    check_mpcc_licq,
    check_mpcc_ssoc,
    classify_stationarity,
    compute_index_sets,
    eval_lagrangian,
    load_instance,
    save_instance,
)
from .iocfem import FemInstance, FemMesh, IocParams, assemble_instance, build_mesh
from .nsnewton import (
    NewtonConfig,
    NewtonResult,
    merit_phi_fb,
    newton_derivative_DF,
    residual_F,
    solve_newton,
)
from .oracle import BranchAssignment, enumerate_branch_nlps, finite_diff
from .pgrad import PgradConfig, PgradError, solve_subproblem

__version__ = "0.1.0"

__all__ = [
    "AlmConfig",
    "AlmResult",
    "BranchAssignment",
    "FemInstance",
    "FemMesh",
    "FullPoint",
    "IndexSets",
    "IocParams",
    "MultiplierSet",
    "NewtonConfig",
    "NewtonResult",
    "PairPartition",
    "PgradConfig",
    "PgradError",
    "QuadraticMpcc",
    "SolverTrace",
    "StationarityReport",
    "TraceRow",
    "assemble_instance",
    "build_mesh",
    "check_mpcc_licq",
    "check_mpcc_ssoc",
    "classify_stationarity",
    "compute_index_sets",
    "enumerate_branch_nlps",
    "eval_lagrangian",
    "finite_diff",
    "load_instance",
    "merit_phi_fb",
    "newton_derivative_DF",
    "project_onto_C",
    "residual_F",
    "save_instance",
    "solve_alm",
    "solve_newton",
    "solve_subproblem",
    "__version__",
]
