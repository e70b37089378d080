"""Solvers for composite objectives built from a smooth loss plus a
superposition of structured norm penalties, with baseline solvers and a
benchmark CLI."""

from .operators import (
    DimensionMismatch,
    ExplicitSparse,
    FirstDifference,
    GroupSelector,
    Identity,
    LinearOperator,
    as_csr,
    spectral_norm_estimate,
)
from .problems import (
    BUILTIN_MODELS,
    CompositeProblem,
    LeastSquaresLoss,
    LogisticLoss,
    NormKind,
    RegularizerTerm,
    make_builtin,
)
from .lbfgs import LbfgsMetric
from .projections import (
    project_box,
    project_l1_ball,
    project_l2_ball,
)
from .scd import (
    InnerResult,
    dual_objective,
    initial_step_delta,
    recover_primal,
    solve_surrogate,
)
from .solver import (
    LineSearchFailure,
    Solution,
    SolveTrace,
    SolverConfig,
    SolverError,
    TraceRow,
    gamma,
    line_search,
    solve,
    unit_step_tail,
)
from .baselines import (
    BaselineConfig,
    UnsupportedStructure,
    admm_solve,
    fista_solve,
    scd_direct_solve,
)
from .data import DatasetHandle, ParseError, read_libsvm, synth_dataset, write_libsvm

__version__ = "0.1.0"
