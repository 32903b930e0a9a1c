"""Desk-scale local-asymptotic-normality experiments for i.i.d. models.

Covers symmetric logarithmic derivatives, the quantum Fisher information
matrix, collective-observable quasi-characteristic functions of n-fold
product states, numerical limit-law checks against the matching Gaussian
shift, square-root likelihood-ratio expansion checks, and perturbation rate
scans.  Tensor powers are never materialized: for collective observables the
n-copy expectation is an exact n-th power of a single-site trace.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import matcore
from .contiguity import (CONTIGUOUS, INCONCLUSIVE, NOT_CONTIGUOUS, _loglog_slope, _nonincreasing, _observables,
                         _ordered_product, _ordered_products, _sample_grid, _tail, _whole_count)
from .errors import CenteringViolated, InconsistentDerivativeWarning, ValidationError
from .lebesgue import _psd_state, lebesgue_decompose
from .matcore import DEFAULT_TOL, ToleranceConfig, hermitian_part


@dataclass
class ParametricModel:
    """A parametric family of states ``theta -> rho_theta``.

    ``deriv_at(theta, i)`` may supply analytic partial derivatives; otherwise
    Richardson-refined central finite differences with step 1e-5 are used.
    """

    state_at: Callable[[np.ndarray], np.ndarray]
    deriv_at: Optional[Callable[[np.ndarray, int], np.ndarray]] = None


#: Step of the coarse central difference; the Richardson refinement halves it.
_FD_STEP = 1e-5


def model_derivative(model: ParametricModel, theta0: np.ndarray, i: int) -> np.ndarray:
    """Partial derivative of the state at ``theta0`` along parameter ``i``."""
    return _derivative(model, np.asarray(theta0, dtype=float), i, DEFAULT_TOL)


def _derivative(model: ParametricModel, theta0: np.ndarray, i: int, tol: ToleranceConfig) -> np.ndarray:
    """:func:`model_derivative` under ``tol``: the four finite-difference states, at ``theta0 +- step``
    and ``theta0 +- step/2``, are validated as states (an error names the point)."""
    if model.deriv_at is not None:
        return hermitian_part(np.asarray(model.deriv_at(theta0, i), dtype=complex))
    e = np.zeros_like(theta0)
    e[i] = 1.0

    def central(step: float) -> np.ndarray:
        up, down = (_psd_state(model.state_at(theta0 + s * e), tol, f"state at theta0 {s:+.1e} e_{i}")
                    for s in (step, -step))
        return (up - down) / (2 * step)

    coarse, fine = central(_FD_STEP), central(_FD_STEP / 2)
    return hermitian_part((4.0 * fine - coarse) / 3.0)


def sld(
    model: ParametricModel,
    theta0: np.ndarray,
    i: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Symmetric logarithmic derivative: solves ``rho L + L rho = 2 d_i rho``.

    In the eigenbasis of ``rho`` the solution is ``L_jk = 2 (drho)_jk /
    (lam_j + lam_k)`` wherever ``lam_j`` or ``lam_k`` is in the support by the
    rank rule of :func:`matcore.support_mask`; the kernel-kernel block is set
    to zero (minimal-norm convention).  Derivative components inside the
    kernel-kernel block cannot be reproduced by any solution; they are
    projected away with a warning.
    """
    return _slds(model, np.asarray(theta0, dtype=float), (i,), tol)[1][0]


def slds(model: ParametricModel, theta0: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """All symmetric logarithmic derivatives at ``theta0``."""
    theta0 = _parameters(theta0)
    return _slds(model, theta0, range(theta0.shape[0]), tol)[1]


def _slds(model: ParametricModel, theta0: np.ndarray, indices, tol: ToleranceConfig) -> tuple:
    """``(rho, [L_i for i in indices])``: the state at ``theta0``, read once and validated (its
    Hermitian part), and the SLDs of :func:`sld` from its one spectrum."""
    rho, w, V = matcore.psd_spectrum(model.state_at(theta0), tol, "state")
    supp = matcore.support_mask(w, tol)
    reachable = supp[:, None] | supp[None, :]
    denom = np.where(reachable, w[:, None] + w[None, :], 1.0)
    L = []
    for i in indices:
        drho = _derivative(model, theta0, i, tol)
        matcore._same_shape(rho, drho)
        D = V.conj().T @ drho @ V
        lost = matcore.frob(np.where(reachable, 0.0, D))
        if lost > tol.eq_rel * (1.0 + matcore.frob(drho)):
            warnings.warn(f"derivative has kernel-kernel components of norm {lost:.3e}; projected away",
                          InconsistentDerivativeWarning)
        L.append(hermitian_part(V @ np.where(reachable, 2.0 * D / denom, 0.0) @ V.conj().T))
    return rho, L


def _parameters(theta0) -> np.ndarray:
    """``theta0`` as a float array, refused unless it is 1-D with at least one entry."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.ndim != 1 or not theta0.size:
        raise ValueError(f"theta0 must be a 1-D array with at least one entry, got shape {theta0.shape}")
    return theta0


def _trace_matrix(rho: np.ndarray, left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """``M[i, j] = Tr rho right_j left_i``."""
    M = [[np.trace(rho @ b @ a) for b in right] for a in left]
    return np.array(M, dtype=complex).reshape(len(left), len(right))


#: Largest ``|Tr rho op|`` an observable that must be centred may have.
_CENTERING_TOL = 1e-8


def _centred(rho: np.ndarray, ops: Sequence, tol: ToleranceConfig, who: str) -> list[np.ndarray]:
    """``ops`` through the observable gate :func:`contiguity._observables` at the validated state
    ``rho``, refused (:class:`CenteringViolated`) unless each has ``|Tr rho op| <= 1e-8``."""
    obs = _observables(rho, ops, tol)
    for k, op in enumerate(obs):
        mean = abs(complex(np.trace(rho @ op)))
        if mean > _CENTERING_TOL:
            raise CenteringViolated(f"{who}[{k}] has mean {mean:.3e} under the base state")
    return obs


def qfi_matrix(rho, sld_list: Sequence[np.ndarray], tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Quantum Fisher information matrix ``J[i, j] = Tr rho L_j L_i`` of SLDs with ``|Tr rho L_i| <= 1e-8``."""
    return _qfi_matrix(_psd_state(rho, tol, "state"), sld_list, tol)


def _qfi_matrix(rho: np.ndarray, sld_list: Sequence[np.ndarray], tol: ToleranceConfig) -> np.ndarray:
    """:func:`qfi_matrix` at a validated state."""
    ops = _centred(rho, sld_list, tol, "sld")
    return _trace_matrix(rho, ops, ops)


@dataclass
class IIDExperiment:
    """n i.i.d. copies of ``base`` probed through collective observables.

    ``obs`` carries the single-site observables ``B_i`` (zero mean under the
    base state); queries couple to the collective ``(1/sqrt(n)) sum_k B_i``.
    Only the copy count ``n`` is checked here (a finite whole number >= 1):
    the base state and the observables are kept as given, and
    :func:`iid_qcf` validates them under its own tolerances.
    """

    base: np.ndarray
    obs: list = field(default_factory=list)
    n: int = 1

    def __post_init__(self) -> None:
        self.n = _whole_count(self.n, "copy count n")


def iid_qcf(exp: IIDExperiment, xis: Sequence[Sequence[float]], tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """Collective-observable quasi-characteristic function of the n-copy state.

    Exact identity: the value equals ``(Tr rho prod_t exp(i xi_t . B /
    sqrt(n)))^n`` because each collective exponential factorizes over sites.
    Under ``tol`` the base state is validated as :func:`contiguity.finite_qcf`
    validates its state, and the observables by the same gate, then refused
    unless centred: ``|Tr base B_i| <= 1e-8``.
    """
    base = _psd_state(exp.base, tol, "base")
    return _ordered_product(base, _centred(base, exp.obs, tol, "obs"), xis, tol, exp.n)


@dataclass
class LeCam3Report:
    """Deviations of the n-copy law from its Gaussian shift limit."""

    limit_mean: np.ndarray
    limit_cov: np.ndarray
    tau: np.ndarray
    deviations: list[dict]
    decreasing: bool


def lecam3_numeric_check(
    model: ParametricModel,
    theta0: np.ndarray,
    obs: Optional[Sequence[np.ndarray]],
    h: np.ndarray,
    n_grid: Sequence[int],
    xi_grid: Sequence[Sequence[Sequence[float]]],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> LeCam3Report:
    """Compare the shifted n-copy law against its predicted Gaussian limit.

    For each ``n`` the maximum over the query grid of ``|qcf under the
    shifted product state - Gaussian qcf of N((Re tau) h, Sigma)|`` is
    recorded, where ``Sigma[i, j] = Tr rho B_j B_i`` and ``tau[i, j] =
    Tr rho L_j B_i`` are computed at ``theta0``.  Neither grid may be empty,
    each query has 1 to 3 factors, and each ``n`` must be a finite whole
    number >= 1.  The observables pass :func:`contiguity._observables`, and
    the limit law is validated once, by :func:`gaussian._check_params`, and
    evaluated by one closed-form call per factor count of the query grid; the
    shifted law over the whole grid in one call per ``n``.  Both grids are
    checked before any model state is read.
    """
    from .gaussian import GaussianParams, _check_params, _qcf, _queries

    theta0 = _parameters(theta0)
    ns = [_whole_count(n, f"copy count n_grid[{k}]") for k, n in enumerate(n_grid)]
    for name, grid in (("n_grid", ns), ("xi_grid", xi_grid)):
        if not len(grid):
            raise ValueError(f"{name} must have at least one entry")
    counts = [len(query) for query in xi_grid]
    if not all(1 <= k <= 3 for k in counts):
        raise ValueError("query grid is limited to 1 <= r <= 3 factors")
    h = np.asarray(h, dtype=float).reshape(-1)
    if h.size != theta0.size:
        raise ValueError(f"h has {h.size} entries, but the model has {theta0.size} parameters")
    rho0, L = _slds(model, theta0, range(theta0.shape[0]), tol)
    B = L if obs is None else _observables(rho0, obs, tol)
    tau = _trace_matrix(rho0, B, L)
    limit = GaussianParams(h=tau.real @ h, J=_trace_matrix(rho0, B, B))
    _check_params(limit, tol)
    # The limit law does not depend on n: one value per query, one call per factor count.
    wants = np.empty(len(xi_grid), dtype=complex)
    for k in sorted(set(counts)):
        sel = np.flatnonzero(np.equal(counts, k))
        wants[sel] = _qcf(limit, _queries([xi_grid[i] for i in sel], limit.dim))
    deviations = []
    for n in ns:
        shifted = _psd_state(model.state_at(theta0 + h / np.sqrt(n)), tol, f"shifted state at n={n}")
        gaps = _ordered_products(shifted, B, xi_grid, tol, n) - wants
        deviations.append({"n": n, "max_deviation": float(np.hypot(gaps.real, gaps.imag).max(initial=0.0))})
    devs = [row["max_deviation"] for row in deviations]
    return LeCam3Report(
        limit_mean=limit.h, limit_cov=limit.J, tau=tau,
        deviations=deviations, decreasing=all(b < a for a, b in zip(devs, devs[1:])),
    )


@dataclass
class ExpansionReport:
    """Quadratic-response check of the square-root likelihood ratio at the origin."""

    fitted_quadratic: np.ndarray
    target_quadratic: np.ndarray
    rel_error: float
    residual_order: Optional[float]
    trr2_order: Optional[float]
    trr2_exact: bool


#: Values at or below this stay out of an order fit, and an order fit needs 3 values above it.
_ORDER_FLOOR = 1e-14
_ORDER_MIN = 3


#: Step lengths ``|h|`` of the expansion fit: 8 log-spaced values over [1e-3, 1e-2].
_EXPANSION_SCALES = tuple(np.geomspace(1e-3, 1e-2, 8))


def sqrt_expansion_check(model: ParametricModel, theta0: np.ndarray,
                         tol: ToleranceConfig = DEFAULT_TOL) -> ExpansionReport:
    """Fit the second-order response of the square-root likelihood ratio.

    Writes ``R_h = I + (1/2) h^i L_i + B(h)`` with the canonical ratio of
    ``rho_{theta0+h}`` relative to ``rho_{theta0}`` and fits ``Tr rho B(h)``,
    at 8 log-spaced ``|h|`` from 1e-3 to 1e-2, to a quadratic form, which
    should match ``-(1/8) Re J``.  Also reports the decay order of
    ``|Tr rho R_h^2 - 1|`` (must exceed 2) and of the residual against the
    predicted quadratic.  An error of a state at ``theta0 + h`` names it by
    its step ``h``.
    """
    theta0 = _parameters(theta0)
    d = theta0.shape[0]
    rho0, L = _slds(model, theta0, range(d), tol)
    target = -0.125 * _qfi_matrix(rho0, L, tol).real

    directions = [np.eye(d)[i] for i in range(d)]
    pair_index = {}
    for i in range(d):
        for j in range(i + 1, d):
            pair_index[(i, j)] = len(directions)
            directions.append((np.eye(d)[i] + np.eye(d)[j]) / np.sqrt(2.0))

    scales = np.asarray(_EXPANSION_SCALES)
    # Row k * len(scales) + m is step scales[m] along directions[k].
    steps = (np.asarray(directions)[:, None, :] * scales[:, None]).reshape(-1, d)
    decs = []
    for hvec in steps:
        try:
            decs.append(lebesgue_decompose(model.state_at(theta0 + hvec), rho0, tol))
        except ValidationError as exc:
            raise type(exc)(f"state at theta0 + h for h=({', '.join(f'{x:.3g}' for x in hvec)}): {exc}") from None
    B = (np.array([dec.sqrt_lr for dec in decs]) - np.eye(rho0.shape[0])
         - 0.5 * sum(steps[:, i, None, None] * L[i] for i in range(d)))
    values = np.trace((rho0 @ B).real, axis1=1, axis2=2).reshape(len(directions), scales.size)
    trr2 = np.abs(np.trace(np.array([dec.ac for dec in decs]), axis1=1, axis2=2).real - 1.0)
    trr2_gap = trr2.reshape(len(directions), scales.size).max(axis=0, initial=0.0)

    coeffs = values @ (scales**2) / float(np.sum(scales**4))
    C = np.zeros((d, d))
    for i in range(d):
        C[i, i] = coeffs[i]
    for (i, j), k in pair_index.items():
        C[i, j] = C[j, i] = coeffs[k] - 0.5 * (coeffs[i] + coeffs[j])

    rel_error = matcore.frob(C - target) / max(matcore.frob(target), 1e-300)
    predicted = np.outer([u @ target @ u for u in directions], scales**2)
    quad_residual = np.max(np.abs(values - predicted), axis=0)
    trr2_order = _loglog_slope(scales, trr2_gap, _ORDER_FLOOR, _ORDER_MIN)
    return ExpansionReport(
        fitted_quadratic=C, target_quadratic=target, rel_error=float(rel_error),
        residual_order=_loglog_slope(scales, quad_residual, _ORDER_FLOOR, _ORDER_MIN),
        trr2_order=trr2_order, trr2_exact=trr2_order is None,
    )


@dataclass
class RateScan:
    """Perturbation rate data: local defect ``f``, scaling ``g``, direction ``h``; ``grid``
    is checked as a sample grid is (non-empty, strictly increasing, from 1 up).  Boundedness
    of ``n / g(n)^2`` is read from its trend on the grid, never declared."""

    f: Callable[[np.ndarray], float]
    g: Callable[[int], float]
    h: np.ndarray
    grid: list[int]

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=float).reshape(-1)
        self.grid = _sample_grid(list(self.grid), float("inf"), "grid")  # None is refused, not defaulted


@dataclass
class RateScanReport:
    rows: list[dict]
    verdict: str
    notes: str


#: Final ``n f(h / g(n))`` at or below this reads as vanishing.
_RATE_EPS = 1e-3


def rate_scan(scan: RateScan) -> RateScanReport:
    """Tabulate ``n f(h / g(n))`` and ``n / g(n)^2`` and classify the trend.

    Contiguous requires the first column to vanish (final value at most 1e-3
    with a non-increasing tail) and the second to stay bounded (a
    non-increasing tail); a clearly non-vanishing first column or a growing
    second column gives NotContiguous; ambiguous trends are Inconclusive.
    The verdict comes from these trends on the grid only.
    """
    rows = []
    for n in scan.grid:
        gn = scan.g(int(n))
        rows.append({
            "n": int(n),
            "n_f": float(n * scan.f(scan.h / gn)),
            "n_over_g2": float(n / gn**2),
        })
    nf = [row["n_f"] for row in rows]
    ng2 = [row["n_over_g2"] for row in rows]
    nf_tail, ng2_tail = _tail(nf), _tail(ng2)

    nf_vanishes = nf[-1] <= _RATE_EPS and _nonincreasing(nf_tail)
    nf_nonvanishing = nf[-1] > _RATE_EPS and nf_tail[-1] >= nf_tail[0] * (1 - 1e-9)
    g2_bounded = _nonincreasing(ng2_tail, slack=1e-9)
    g2_unbounded = ng2_tail[-1] > ng2_tail[0] * (1 + 1e-9) and ng2[-1] > ng2[0] * (1 + 1e-6)

    if nf_vanishes and g2_bounded:
        verdict, notes = CONTIGUOUS, "n*f vanishes and n/g^2 stays bounded"
    elif nf_nonvanishing or g2_unbounded:
        verdict, notes = NOT_CONTIGUOUS, "criterion violated on the sampled tail"
    else:
        verdict, notes = INCONCLUSIVE, "trends ambiguous on the sampled grid"
    return RateScanReport(rows=rows, verdict=verdict, notes=notes)
