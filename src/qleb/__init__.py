"""Noncommutative Lebesgue decomposition and contiguity numerics.

A numpy library (plus a small CLI, ``qleb``) in four layers:

- :mod:`qleb.matcore` — Hermitian/PSD spectral calculus with one tolerance
  configuration: matrix functions and the operator geometric mean.
- :mod:`qleb.lebesgue` — excision, absolute-continuity predicates, the
  Lebesgue decomposition of one state relative to another, and the
  canonical square-root likelihood ratio.
- :mod:`qleb.contiguity` — theorem-backed contiguity criteria for sequences
  of state pairs (declared limits, pure references, tensor products,
  three-block structures) plus quasi-characteristic-function diagnostics.
- :mod:`qleb.gaussian` / :mod:`qleb.qlan` — quantum Gaussian
  quasi-characteristic functions, the likelihood-reweighting shift map, and
  desk-scale local-asymptotic-normality experiments (SLD, QFI, limit-law
  and expansion checks, rate scans).

Worked regression families live in :mod:`qleb.presets`.
"""

from .matcore import (
    DEFAULT_TOL,
    TOL_PROFILES,
    ToleranceConfig,
    geometric_mean,
    herm_exp,
    psd_log_on_support,
    unitary_exp,
)
from .lebesgue import (
    DensityMatrix,
    LebesgueDecomposition,
    SupportSplit,
    excision,
    is_abs_continuous,
    is_singular,
    lebesgue_decompose,
    quantum_log_likelihood,
    sqrt_likelihood_ratio,
)
from .contiguity import (
    BlockSequence,
    ContiguityReport,
    ProductFamily,
    PurePowerFamily,
    StateSequence,
    block_criterion_diagnostics,
    d_infinitesimal_diagnostic,
    default_grid,
    finite_qcf,
    kakutani_criterion,
    l2_norm_sq,
    limit_criterion,
    pure_criterion,
    tail_mass,
)
from .gaussian import (
    ExtendedGaussianParams,
    GaussianParams,
    gaussian_qcf,
    lecam_shift,
    sandwiched_gaussian_qcf,
    validate,
)
from .qlan import (
    ExpansionReport,
    IIDExperiment,
    LeCam3Report,
    ParametricModel,
    RateScan,
    RateScanReport,
    iid_qcf,
    lecam3_numeric_check,
    qfi_matrix,
    rate_scan,
    sld,
    slds,
    sqrt_expansion_check,
)
from . import errors, presets

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "TOL_PROFILES",
    "ToleranceConfig",
    "geometric_mean",
    "herm_exp",
    "psd_log_on_support",
    "unitary_exp",
    "DensityMatrix",
    "LebesgueDecomposition",
    "SupportSplit",
    "excision",
    "is_abs_continuous",
    "is_singular",
    "lebesgue_decompose",
    "quantum_log_likelihood",
    "sqrt_likelihood_ratio",
    "BlockSequence",
    "ContiguityReport",
    "ProductFamily",
    "PurePowerFamily",
    "StateSequence",
    "block_criterion_diagnostics",
    "d_infinitesimal_diagnostic",
    "default_grid",
    "finite_qcf",
    "kakutani_criterion",
    "l2_norm_sq",
    "limit_criterion",
    "pure_criterion",
    "tail_mass",
    "ExtendedGaussianParams",
    "GaussianParams",
    "gaussian_qcf",
    "lecam_shift",
    "sandwiched_gaussian_qcf",
    "validate",
    "ExpansionReport",
    "IIDExperiment",
    "LeCam3Report",
    "ParametricModel",
    "RateScan",
    "RateScanReport",
    "iid_qcf",
    "lecam3_numeric_check",
    "qfi_matrix",
    "rate_scan",
    "sld",
    "slds",
    "sqrt_expansion_check",
    "errors",
    "presets",
]
