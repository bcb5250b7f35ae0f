"""Constructive ReLU-network approximation with explicit weights.

Builds one-, two-, and three-hidden-layer networks realizing piecewise-linear
interpolation and Hoelder-function approximation with proven L1 error bounds,
measures those bounds empirically, and models parallel training-step cost
across architectures.
"""

from .construct import (
    Construction,
    ConstructionInfeasibleError,
    DeltaChoice,
    DeltaContext,
    DeltaPolicy,
    EMPIRICAL_SHRINK,
    HolderTarget,
    Lemma2Plan,
    PAPER_SUFFICIENT,
    ResidualTrace,
    build_1d,
    build_dd,
    choose_delta,
    corollary32_check,
    lemma2_interpolant,
    lemma2_sup_bound,
    psi0,
    psi_projection,
    spot_check_holder,
    theorem_d1,
    theorem_dd,
)
from .cpl import (
    CplFunction,
    SampleSet,
    cpl_from_json,
    cpl_from_net_1d,
    cpl_sup,
    cpl_to_json,
    eval_cpl,
    exact_l1_cpl,
    lemma1_interpolant,
    net_to_cpl_exact,
)
from .costmodel import (
    ArchSpec,
    CostParams,
    dist_mem,
    dist_time,
    param_count_widthvec,
    regime_table,
    shared_mem,
    shared_time,
)
from .errors import (
    CertificateError,
    CompositionError,
    DegenerateGridError,
    ParseError,
    RegistryError,
    ResolutionError,
    ResourceError,
    ShapeError,
)
from .metrics import (
    GridSpec,
    RateFit,
    default_grid,
    grid_errors,
    holder_family,
    l1_error,
    linf_error,
    rate_fit,
)
from .network import (
    ReluNetwork,
    WidthVec,
    affine_post,
    compose,
    deserialize,
    evaluate,
    evaluate_batch,
    parameter_count,
    serialize,
)

__version__ = "0.1.0"
