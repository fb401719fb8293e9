"""Workbench for stable low-dimensional embeddings: builds two-stage and
rank-one measurement maps, measures restricted-isometry constants on model
sets empirically, and evaluates the closed-form sample-complexity bounds."""

from .bounds import (
    BoundInputs,
    ChainingSums,
    DoubleFactorialBracket,
    abs_mean_lower,
    alpha_x,
    chaining_sums,
    concentration_constants,
    double_factorial,
    double_factorial_bracket,
    m_main,
    m_main_raw,
    m_two_stage,
    m_two_stage_raw,
    rop_psi1_bound,
    sparse_rop_delta1_floor,
)
from .embeddings import (
    DistSpec,
    MeasurementMap,
    StageOneMap,
    apply,
    apply_columns,
    apply_stage_one,
    b_dual_norm,
    b_norm,
    build_stage_one,
    build_stage_one_from_span,
    gaussian,
    rank_one_map,
    sparse_pm,
    storage_cost,
    two_stage_map,
)
from .haar_fourier import (
    MinDResult,
    UBlock,
    balancing_residual,
    build_u_block,
    haar_fourier_coeff,
    min_d_for_eps,
    spectral_norm_sym,
)
from .model_sets import (
    BoxDimFit,
    CorrelatedSeq,
    LowRank,
    ModelCollapseError,
    NetResult,
    PointCloud,
    Secants,
    Sparse,
    boxdim_fit,
    correlated_sequence,
    greedy_net,
    normalized_secants,
    sample_model,
    secant_alpha_bruteforce,
    secant_alpha_formula,
    vk_min_pairwise,
    vk_min_separation,
    vk_vectors,
)
from .rip_estimator import (
    MuNorm,
    MuNormSpec,
    RipReport,
    SweepRow,
    UnsupportedAnalyticError,
    empirical_delta,
    mu_pnorm,
    rip_sweep,
)
from .tail_probes import (
    FitFailureError,
    PsiNorm,
    TailFit,
    bernstein_tail_check,
    increment_tail_fit,
    psi_norm,
)

__version__ = "0.1.0"
