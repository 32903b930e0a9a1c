"""The public surface: ``qleb.__all__`` names the paper's objects and nothing that no code reads."""

import qleb

PUBLIC = {
    "DEFAULT_TOL", "TOL_PROFILES", "ToleranceConfig",
    "geometric_mean", "herm_exp", "psd_log_on_support", "unitary_exp",
    "DensityMatrix", "LebesgueDecomposition", "SupportSplit", "excision", "is_abs_continuous",
    "is_singular", "lebesgue_decompose", "quantum_log_likelihood", "sqrt_likelihood_ratio",
    "BlockSequence", "ContiguityReport", "ProductFamily", "PurePowerFamily", "StateSequence",
    "block_criterion_diagnostics", "d_infinitesimal_diagnostic", "default_grid", "finite_qcf",
    "kakutani_criterion", "l2_norm_sq", "limit_criterion", "pure_criterion", "tail_mass",
    "ExtendedGaussianParams", "GaussianParams", "QcfQuery", "gaussian_qcf", "lecam_shift",
    "sandwiched_gaussian_qcf", "validate",
    "ExpansionReport", "IIDExperiment", "LeCam3Report", "ParametricModel", "RateScan",
    "RateScanReport", "iid_qcf", "lecam3_numeric_check", "qfi_matrix", "rate_scan", "sld", "slds",
    "sqrt_expansion_check",
    "errors", "presets",
}


def test_public_names_are_pinned_and_resolve():
    assert len(qleb.__all__) == len(set(qleb.__all__))
    assert set(qleb.__all__) == PUBLIC
    for name in qleb.__all__:
        assert getattr(qleb, name) is not None


def test_deleted_wrappers_are_gone():
    for name in ("psd_pinv", "psd_sqrt", "support_projector", "trace_inner", "eig_hermitian",
                 "is_mutually_ac", "validate_extended", "SpectralDecomposition"):
        assert not hasattr(qleb, name)
