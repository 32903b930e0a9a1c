"""The public surface: ``qleb.__all__`` names the paper's objects and nothing that no code reads."""

import dataclasses
import inspect

import qleb
from qleb import presets

PUBLIC = {
    "DEFAULT_TOL", "TOL_PROFILES", "ToleranceConfig",
    "geometric_mean", "herm_exp", "psd_log_on_support", "unitary_exp",
    "DensityMatrix", "LebesgueDecomposition", "SupportSplit", "excision", "is_abs_continuous",
    "is_singular", "lebesgue_decompose", "quantum_log_likelihood", "sqrt_likelihood_ratio",
    "BlockSequence", "ContiguityReport", "ProductFamily", "PurePowerFamily", "StateSequence",
    "block_criterion_diagnostics", "d_infinitesimal_diagnostic", "default_grid", "finite_qcf",
    "kakutani_criterion", "l2_norm_sq", "limit_criterion", "pure_criterion", "tail_mass",
    "ExtendedGaussianParams", "GaussianParams", "gaussian_qcf", "lecam_shift",
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


def _default(value) -> str:
    if value is qleb.DEFAULT_TOL:
        return "DEFAULT_TOL"
    return getattr(value, "__name__", None) or repr(value)


def _options(obj) -> str | None:
    """A dataclass's fields (``name`` or ``name=default``), else the defaulted parameters of a callable."""
    if isinstance(obj, type) and dataclasses.is_dataclass(obj):
        out = []
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING:
                out.append(f"{f.name}={_default(f.default)}")
            elif f.default_factory is not dataclasses.MISSING:
                out.append(f"{f.name}={_default(f.default_factory)}()")
            else:
                out.append(f.name)
        return ", ".join(out)
    if not callable(obj) or inspect.ismodule(obj):
        return None
    params = inspect.signature(obj).parameters.values()
    return ", ".join(f"{p.name}={_default(p.default)}" for p in params if p.default is not p.empty) or None


#: Every public dataclass field and every defaulted parameter of ``qleb.__all__`` and
#: ``qleb.presets``.  A knob added or removed shows up here as a diff.
OPTIONS = {
    "ToleranceConfig": "hermitian=1e-10, rank_rel=1e-09, psd_floor=1e-10, eq_rel=1e-08",
    "geometric_mean": "tol=DEFAULT_TOL",
    "herm_exp": "tol=DEFAULT_TOL",
    "psd_log_on_support": "tol=DEFAULT_TOL",
    "unitary_exp": "tol=DEFAULT_TOL",
    "DensityMatrix": "subnormalized=False, tol=DEFAULT_TOL",
    "LebesgueDecomposition": "ac, perp, sqrt_lr, split",
    "SupportSplit": "basis_1, basis_2, basis_3, dims",
    "excision": "tol=DEFAULT_TOL",
    "is_abs_continuous": "tol=DEFAULT_TOL",
    "is_singular": "tol=DEFAULT_TOL",
    "lebesgue_decompose": "tol=DEFAULT_TOL",
    "quantum_log_likelihood": "tol=DEFAULT_TOL",
    "sqrt_likelihood_ratio": "tol=DEFAULT_TOL",
    "BlockSequence": "blocks, grid, inner_limits=None, full_eval=None",
    "ContiguityReport": "verdict, criterion_used, evidence=list(), notes='', details=dict()",
    "ProductFamily": "factors, stack=None",
    "PurePowerFamily": "site, declared_overlap_limit=None, horizon=1000000, sample_grid=None",
    "StateSequence": "eval, declared_limits=None, horizon=1000, sample_grid=None",
    "block_criterion_diagnostics": "tol=DEFAULT_TOL",
    "d_infinitesimal_diagnostic": "tol=DEFAULT_TOL",
    "default_grid": "points=13",
    "finite_qcf": "tol=DEFAULT_TOL",
    "kakutani_criterion": "horizon=10000, tol=DEFAULT_TOL",
    "l2_norm_sq": "tol=DEFAULT_TOL",
    "limit_criterion": "tol=DEFAULT_TOL",
    "pure_criterion": "tol=DEFAULT_TOL",
    "tail_mass": "tol=DEFAULT_TOL",
    "ExtendedGaussianParams": "mu, Sigma, kappa, s2",
    "GaussianParams": "h, J",
    "gaussian_qcf": "tol=DEFAULT_TOL",
    "lecam_shift": "tol=DEFAULT_TOL",
    "sandwiched_gaussian_qcf": "query=None, tol=DEFAULT_TOL",
    "validate": "tol=DEFAULT_TOL",
    "ExpansionReport": "fitted_quadratic, target_quadratic, rel_error, residual_order, trr2_order, trr2_exact",
    "IIDExperiment": "base, obs=list(), n=1",
    "LeCam3Report": "limit_mean, limit_cov, tau, deviations, decreasing",
    "ParametricModel": "state_at, deriv_at=None",
    "RateScan": "f, g, h, grid",
    "RateScanReport": "rows, verdict, notes",
    "iid_qcf": "tol=DEFAULT_TOL",
    "lecam3_numeric_check": "tol=DEFAULT_TOL",
    "qfi_matrix": "tol=DEFAULT_TOL",
    "sld": "tol=DEFAULT_TOL",
    "slds": "tol=DEFAULT_TOL",
    "sqrt_expansion_check": "tol=DEFAULT_TOL",
    "presets.drifting_product_family": "scaling='linear'",
    "presets.faithful_to_pure_family": "horizon=1000000, sample_grid=None",
    "presets.orthogonal_limit_family": "horizon=1000000, sample_grid=None",
    "presets.spin_overlap_family": "g=sqrt_scaling, h=(1.0, 0.5), horizon=1000000, sample_grid=None",
    "presets.spin_rate_scan": "defect=cubic_defect, g=sqrt_scaling, h=(1.0, 0.5), grid=None",
    "presets.three_block_family": "grid=None",
}


def test_the_option_surface_is_pinned():
    objects = {name: getattr(qleb, name) for name in qleb.__all__}
    objects.update((f"presets.{name}", obj) for name, obj in vars(presets).items()
                   if not name.startswith("_") and getattr(obj, "__module__", None) == presets.__name__)
    got = {name: options for name, obj in objects.items() if (options := _options(obj)) is not None}
    assert got == OPTIONS
