"""Solver and verification harness for the fiber conjugate-derivative
equation with decaying (0,1)-form data."""

__version__ = "0.1.0"

from .cauchy import (
    CauchyResult,
    ProfilePoint,
    QuadratureSpec,
    SliceField,
    cauchy_transform,
    f_profile,
    g_bound_check,
    kernel_mass_bound,
    tail_bound,
)
from .bundle import (
    Chart,
    FiberBundleModel,
    TransitionMap,
    chart_consistency,
    global_solve_report,
    make_opm_bundle,
    perturb_form,
    pull_form,
)
from .errors import (
    ConfigError,
    DbarFiberError,
    MissingDerivativeError,
    NonFiniteSampleError,
    NumericalError,
    TruncationError,
)
from .fields import (
    BASE,
    FIBER,
    BaseFiberPoint,
    DecayBudget,
    ScalarField,
    VariableId,
    ZeroOneForm,
    builtin_form,
    compatibility_residual,
    decay_check,
    point,
    registered_form_names,
    wirtinger_fd,
)
from .report import CheckRecord, VerificationReport, write_csv
from .solver import (
    BmReconstruction,
    DecayProfile,
    ResidualReport,
    bm_reconstruct,
    decay_profile,
    delta_consistency,
    residual,
    solve_point,
)

__all__ = [name for name in dir() if not name.startswith("_")]
