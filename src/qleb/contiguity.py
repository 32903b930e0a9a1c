"""Finite-horizon contiguity diagnostics for sequences of state pairs.

Asymptotic statements (uniform integrability, liminf conditions) are not
decidable from finitely many samples, so every verdict issued here is backed
by one of four theorem-level criteria: declared matrix limits, purity of the
reference sequence, tensor-product structure, or a declared three-block
structure.  Anything else yields ``Inconclusive`` or a diagnostics-only
report.

Quasi-characteristic functions over observables are one evaluation of
ordered products, :func:`_ordered_products`, over a whole grid of queries:
the generators of all factors are formed as one stack and exponentiated by
one call of :func:`matcore._expi`.  Observables are validated against their
validated state by one gate, :func:`_observables`.  Each
caller state is read once, by the check that validates it: a criterion's
declared limits once per call, before any pair is sampled (by the split that
decides the verdict in :func:`limit_criterion`); the sampled pairs of
:func:`limit_criterion` as one stack per operand over the grid; a pure pair
by its decomposition; Kakutani factors by :func:`lebesgue._stacked_fidelity`.
Errors name the operand and the grid point.  ``sigma << rho`` is decided in
:mod:`qleb.lebesgue`, for one pair or a stack of Kakutani factors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import matcore
from .errors import (
    BlocksInconsistent,
    DimVaries,
    FactorNotAC,
    MissingLimits,
    NotPure,
    ValidationError,
)
from .lebesgue import _pair_split, _psd_state, _stacked_fidelity, lebesgue_decompose
from .matcore import DEFAULT_TOL, ToleranceConfig

CONTIGUOUS = "Contiguous"
NOT_CONTIGUOUS = "NotContiguous"
INCONCLUSIVE = "Inconclusive"


def default_grid(horizon: int, points: int = 13) -> list[int]:
    """Strictly increasing integer grid, roughly log-spaced over [1, horizon] (a finite whole number >= 1)."""
    horizon = _whole_count(horizon, "horizon")
    # A set, not np.unique: numpy imports numpy.ma (about 1.2 MB) on its first call.
    return sorted(set(np.geomspace(1, horizon, num=points).astype(int).tolist()))


def _whole_count(n, who: str) -> int:
    """``n`` as an int, refused unless it is a finite whole number >= 1 (a bool is not a count)."""
    if isinstance(n, numbers.Real) and not isinstance(n, bool):
        if (isinstance(n, numbers.Integral) or (math.isfinite(n) and float(n).is_integer())) and n >= 1:
            return int(n)
    raise ValueError(f"{who} must be a finite whole number >= 1, got {n!r}")


#: Share of a sampled sequence that its trend rules read: the last quarter, at least 2 values.
_TAIL_FRAC = 0.25


def _tail(values: Sequence) -> list:
    k = max(2, int(np.ceil(len(values) * _TAIL_FRAC)))
    return list(values[-min(k, len(values)):])


def _nonincreasing(xs: Sequence[float], slack: float = 1e-9) -> bool:
    return all(b <= a * (1 + slack) + slack for a, b in zip(xs, xs[1:]))


def _loglog_slope(x: np.ndarray, y: np.ndarray, floor: float, least: int) -> Optional[float]:
    """The one decay fit: the least-squares slope of ``log y`` on ``log x`` over the points with
    ``y > floor``, or ``None`` when fewer than ``least`` points clear the floor."""
    mask = y > floor
    if np.count_nonzero(mask) < least:
        return None
    slope, _ = np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)
    return float(slope)


@dataclass
class StateSequence:
    """Lazily evaluated family ``n -> (rho_n, sigma_n)`` of state pairs.

    ``declared_limits`` is the optional pair of limit states ``(rho_inf,
    sigma_inf)``; dimensions may vary with ``n`` unless a criterion requires
    otherwise.
    """

    eval: Callable[[int], tuple]
    declared_limits: Optional[tuple] = None
    horizon: int = 1000
    sample_grid: Optional[list[int]] = None

    def __post_init__(self) -> None:
        self.sample_grid = _sample_grid(self.sample_grid, self.horizon)


@dataclass
class PurePowerFamily:
    """Tensor-power pair family ``n -> (rho_site(n)^(x n), sigma_site(n)^(x n))``.

    Only per-site matrices are ever materialized; the two pure-criterion
    statistics reduce to scalar powers, which keeps horizons of 10^6 copies
    cheap and exact.
    """

    site: Callable[[int], tuple]
    declared_overlap_limit: Optional[float] = None
    horizon: int = 10**6
    sample_grid: Optional[list[int]] = None

    def __post_init__(self) -> None:
        self.sample_grid = _sample_grid(self.sample_grid, self.horizon)


def _sample_grid(grid: Optional[Sequence[int]], horizon: float,
                 name: str = "sample_grid") -> list[int]:
    """``grid`` checked (non-empty, strictly increasing, within [1, horizon]), or the default grid;
    an error names the field ``name``."""
    if grid is None:
        return default_grid(horizon)
    grid = list(grid)
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be non-empty and strictly increasing")
    if grid[0] < 1 or grid[-1] > horizon:
        raise ValueError(f"{name} must lie within [1, horizon]")
    return grid


@dataclass
class ProductFamily:
    """Factorwise family for tensor products ``rho_n = rho_1 x ... x rho_n``.

    ``factors(i)`` returns the pair ``(rho_i, sigma_i)``.

    ``stack(idx)`` optionally hands over the factors ``idx`` at once, as the
    pair ``(rho, sigma)``: each operand an ``(len(idx), d, d)`` stack, or one
    ``(d, d)`` matrix that every factor shares.  The Kakutani criterion then
    calls it once, validates it as it validates the factors (a shared
    operand once; errors name the factor's index) and takes a stack of any
    layout in C order, as the factors are: both give the same summands bit
    for bit.
    """

    factors: Callable[[int], tuple]
    stack: Optional[Callable[[np.ndarray], tuple]] = None


@dataclass
class ContiguityReport:
    verdict: str
    criterion_used: str
    evidence: list[dict] = field(default_factory=list)
    notes: str = ""
    details: dict = field(default_factory=dict)


def tail_mass(rho, R: np.ndarray, M: float, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """``Tr rho R^2 P`` where ``P`` projects onto eigenvalues of ``R`` above ``M``."""
    if not M > 0:
        raise ValueError("threshold M must be positive")
    r = _psd_state(rho, tol, "rho")
    R, w, V = matcore.psd_spectrum(R, tol, "R")
    matcore._same_shape(r, R)
    diag = np.einsum("ik,ij,jk->k", V.conj(), r, V).real
    return float(max(0.0, np.sum(w**2 * (w > M) * diag)))


def l2_norm_sq(rho, O: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """``Tr rho O^2`` for a Hermitian observable ``O`` (always >= 0)."""
    r = _psd_state(rho, tol, "rho")
    o, = _observables(r, [O], tol)
    return float(max(0.0, np.trace(r @ o @ o).real))


def _observables(rho: np.ndarray, ops: Sequence, tol: ToleranceConfig) -> list[np.ndarray]:
    """The one gate for observables: each of ``ops`` checked by :func:`matcore.check_hermitian` under
    the call's ``tol`` (its exactly Hermitian part kept) and of the validated state ``rho``'s shape."""
    obs = [matcore.check_hermitian(X, tol) for X in ops]
    matcore._same_shape(rho, *obs)
    return obs


def finite_qcf(rho, observables: Sequence[np.ndarray], xis: Sequence[Sequence[float]],
               tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """Expectation of the ordered product ``prod_t exp(i xi_t . X)`` under rho."""
    r = _psd_state(rho, tol, "rho")
    return _ordered_product(r, _observables(r, observables, tol), xis, tol)


def _ordered_product(rho: np.ndarray, obs: Sequence[np.ndarray], xis: Sequence[Sequence[float]],
                     tol: ToleranceConfig, n: int = 1) -> complex:
    """The one query ``xis`` of :func:`_ordered_products`."""
    return complex(_ordered_products(rho, obs, [xis], tol, n)[0])


def _ordered_products(rho: np.ndarray, obs: Sequence[np.ndarray], queries: Sequence[Sequence[Sequence[float]]],
                      tol: ToleranceConfig, n: int = 1) -> np.ndarray:
    """``(Tr rho prod_t exp(i xi_t . X / sqrt(n)))^n`` for each query ``(xi_1, ..., xi_r)`` of ``queries``,
    for observables ``X`` of rho's shape validated by :func:`_observables`: the one evaluation of
    ordered exponential products (``n > 1`` gives the n-copy value of collective observables, see
    :func:`qlan.iid_qcf`).

    The generators ``H = sum_k xi_k X_k * scale`` of the factors of all queries are formed at once,
    as one ``(m, d, d)`` stack by numpy's operations in the order of that sum (so each entry has the
    bits of one generator's), and exponentiated by one call of :func:`matcore._expi`.  A real
    combination of exactly Hermitian observables is exactly Hermitian, so only finiteness is
    checked; the first generator with a NaN or infinite entry (a non-finite or overflowing ``xi``)
    goes to :func:`matcore.check_hermitian`, which names the entry.  Factors are refused in grid
    order: a vector of the wrong length only after the factors before it are checked.  The queries
    are then grouped by their factor count ``r``, and each group multiplied as stacks, ``U @ F`` for
    each factor and then ``rho @ U``, with the trace summed as ``np.trace`` sums it: a stacked product
    rounds as a single one does, so each value has the bits of a one-query call.
    """
    scale = 1.0 / math.sqrt(n)
    xis = [np.asarray(xi, dtype=float) for query in queries for xi in query]
    m = next((f for f, xi in enumerate(xis) if xi.shape != (len(obs),)), len(xis))
    coeffs = np.array(xis[:m]).reshape(m, len(obs))  # the factors before the first of the wrong length
    with np.errstate(all="ignore"):  # the error names the entry; no warning first
        G = sum((x[:, None, None] * X for x, X in zip(coeffs.T, obs)), np.zeros((m,) + rho.shape)) * scale
    if (bad := np.flatnonzero(~np.isfinite(G).all(axis=(1, 2)))).size:
        matcore.check_hermitian(G[bad[0]], tol)
    if m < len(xis):
        raise matcore.DimMismatch(f"query vector length {xis[m].shape} does not match {len(obs)} observables")
    F = matcore._expi(G)
    counts = [len(query) for query in queries]
    first = np.cumsum([0] + counts[:-1])  # each query's first factor
    z = np.empty(len(queries), dtype=complex)
    for k in set(counts):
        sel = np.flatnonzero(np.equal(counts, k))
        stack = F[first[sel, None] + np.arange(k)]
        P = rho
        if k:
            U = stack[:, 0]
            for t in range(1, k):
                U = U @ stack[:, t]
            P = rho @ U
        z[sel] = np.trace(P, axis1=-2, axis2=-1)
    if n > 1:
        nonzero = z != 0
        z[nonzero] = np.exp(n * np.log(z[nonzero]))
    return z


def d_infinitesimal_diagnostic(
    triples: Callable[[int], tuple],
    xi_grid: Sequence[Sequence[float]],
    eta_grid: Sequence[Sequence[float]],
    grid: Sequence[int],
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ContiguityReport:
    """Finite-grid check of negligibility inside quasi-characteristic functions.

    ``triples(n)`` must return ``(rho, Z, O)``.  For each n the maximum over
    the supplied (xi, eta) query pairs of

        | Tr rho prod_t exp(i (xi_t Z + eta_t O)) - Tr rho prod_t exp(i xi_t Z) |

    is reported.  This is a diagnostic only: the definition quantifies over
    all finite grids, so no verdict is ever issued.  ``xi_grid`` may not be
    empty, and ``grid`` is checked as a sample grid is (non-empty, strictly
    increasing, from 1 up) before any triple is evaluated; each ``rho`` is
    validated as a state.
    """
    if not len(xi_grid):
        raise ValueError("xi_grid must have at least one entry")
    grid = _sample_grid(list(grid), math.inf, "grid")
    if any(len(q) > 3 for q in xi_grid):
        raise ValueError("diagnostic grids are limited to r <= 3 factors per query")
    if len(xi_grid) != len(eta_grid):
        raise ValueError("xi_grid and eta_grid must pair up")
    if any(len(xis) != len(etas) for xis, etas in zip(xi_grid, eta_grid)):
        raise ValueError("each xi query must pair with an eta query of equal length")
    base_queries = [[[x] for x in xis] for xis in xi_grid]
    mixed_queries = [[[x, e] for x, e in zip(xis, etas)] for xis, etas in zip(xi_grid, eta_grid)]
    evidence = []
    for n in grid:
        rho, Z, O = triples(n)
        r = _psd_state(rho, tol, f"rho at n={n}")
        Z, O = _observables(r, (Z, O), tol)
        base = _ordered_products(r, [Z], base_queries, tol)
        gaps = _ordered_products(r, [Z, O], mixed_queries, tol) - base
        evidence.append({"n": int(n), "max_qcf_deviation": float(np.hypot(gaps.real, gaps.imag).max(initial=0.0))})
    return ContiguityReport(
        verdict=INCONCLUSIVE,
        criterion_used="DiagnosticsOnly",
        evidence=evidence,
        notes="finite-grid negligibility diagnostic; no verdict is licensed",
    )


#: Largest Frobenius residual at the horizon that confirms a declared limit.
_LIMIT_CHECK_TOL = 1e-3


def limit_criterion(seq: StateSequence, tol: ToleranceConfig = DEFAULT_TOL) -> ContiguityReport:
    """Verdict from declared limit states on a fixed-dimension sequence.

    Contiguous iff ``sigma_inf << rho_inf``, provided the sampled sequences
    confirm the declared limits (Frobenius residual at the horizon at most
    1e-3); otherwise the report is inconclusive.  Each declared limit is
    validated once, by the split that decides ``sigma_inf << rho_inf``,
    before any pair is sampled.  The sampled pairs are checked for shape in
    grid order (:class:`DimVaries`); then each operand is validated as one
    stack over the grid, an error naming it and the first failing ``n``, and
    the residuals are read from the validated arrays.
    """
    if seq.declared_limits is None:
        raise MissingLimits("limit_criterion requires declared_limits")
    # sigma_inf << rho_inf iff the split of rho_inf relative to sigma_inf has no H1.
    split = _pair_split(*seq.declared_limits, tol, who=("declared rho limit", "declared sigma limit"))
    rho_inf, sigma_inf = split.operands()
    pairs = []
    for n in seq.sample_grid:
        pairs.append(seq.eval(n))
        if (shapes := tuple(map(np.shape, pairs[-1]))) != (rho_inf.shape,) * 2:
            raise DimVaries(f"shapes at n={n} {shapes} differ from the declared limits' {rho_inf.shape}")
    labels = np.array([f"at n={n}" for n in seq.sample_grid])
    rhos, sigmas = (_psd_state(np.array(x, dtype=complex), tol, f"sampled {who}", labels)
                    for x, who in zip(zip(*pairs), ("rho", "sigma")))
    evidence = [{"n": int(n), "rho_limit_residual": matcore.frob(rho_n - rho_inf),
                 "sigma_limit_residual": matcore.frob(sigma_n - sigma_inf)}
                for n, rho_n, sigma_n in zip(seq.sample_grid, rhos, sigmas)]
    last = evidence[-1]
    confirmed = (
        last["rho_limit_residual"] <= _LIMIT_CHECK_TOL
        and last["sigma_limit_residual"] <= _LIMIT_CHECK_TOL
    )
    if not confirmed:
        return ContiguityReport(
            verdict=INCONCLUSIVE,
            criterion_used="LimitCriterion",
            evidence=evidence,
            notes=(
                "declared limits not confirmed at the horizon "
                f"(residuals {last['rho_limit_residual']:.3e}, "
                f"{last['sigma_limit_residual']:.3e} > {_LIMIT_CHECK_TOL:.1e})"
            ),
        )
    ac = all(split.h2)
    return ContiguityReport(
        verdict=CONTIGUOUS if ac else NOT_CONTIGUOUS,
        criterion_used="LimitCriterion",
        evidence=evidence,
        notes="limit states confirmed; verdict from absolute continuity of the limits",
    )


def _pure_stats(grid, pair_at: Callable, power: Callable, who: str, tol: ToleranceConfig, shape=None) -> list[dict]:
    """``Tr rho R^2`` and the overlap at each grid point, one decomposition each.

    ``power(n, x)`` turns a per-pair statistic into the row's value.  Each
    pair is read once, as arrays that the decomposition validates (an error
    names ``n``) before the overlap reads them; with ``shape`` (the declared
    limits'), a pair of another shape raises :class:`DimVaries`.  The
    reference's rank is read off the decomposition's split (H1 + H2).
    """
    rows = []
    for n in grid:
        rho, sigma = (np.asarray(x, dtype=complex) for x in pair_at(n))
        if shape is not None and (rho.shape, sigma.shape) != (shape, shape):
            raise DimVaries(f"shapes at n={n} {rho.shape, sigma.shape} differ from the declared limits' {shape}")
        try:
            dec = lebesgue_decompose(sigma, rho, tol)
        except ValidationError as exc:
            raise type(exc)(f"pair at n={n}: {exc}") from None
        if sum(dec.split.dims[:2]) != 1:
            raise NotPure(f"{who} at n={n} has rank != 1")
        rows.append({
            "n": int(n),
            "tr_rho_R2": power(n, float(np.trace(dec.ac).real)),
            "overlap": power(n, float(np.trace(rho @ sigma).real)),
        })
    return rows


def _float_power(n: int, x: float) -> float:
    if x <= 0.0:
        return 0.0
    return float(np.exp(n * np.log(x)))


#: How close to 1 ``Tr rho_n R_n^2`` must come at the horizon, and the overlap's floor.
_PURE_EPS_ONE = 1e-3
_PURE_EPS_OVERLAP = 1e-6


def pure_criterion(seq: StateSequence | PurePowerFamily,
                   tol: ToleranceConfig = DEFAULT_TOL) -> ContiguityReport:
    """Criterion for pure reference sequences.

    Contiguous when ``Tr rho_n R_n^2`` reaches 1 within 1e-3 at the
    horizon, with ``|Tr rho_n R_n^2 - 1|`` non-increasing on the sampled
    tail (no declared value stands in for that check), and the overlap
    ``Tr rho_n sigma_n`` stays at or above 1e-6; NotContiguous when the
    overlap is declared to vanish (at most 1e-6) and falls below 1e-6 on a
    non-increasing tail; Inconclusive otherwise.
    """
    if isinstance(seq, PurePowerFamily):
        rows = _pure_stats(seq.sample_grid, seq.site, _float_power, "site reference state", tol)
        declared_overlap = seq.declared_overlap_limit
    else:
        declared_overlap = shape = None
        if seq.declared_limits is not None:  # validated before any pair is sampled
            lim_r, lim_s = (_psd_state(x, tol, f"declared {who} limit")
                            for x, who in zip(seq.declared_limits, ("rho", "sigma")))
            matcore._same_shape(lim_r, lim_s)
            declared_overlap, shape = float(np.trace(lim_r @ lim_s).real), lim_r.shape
        rows = _pure_stats(seq.sample_grid, seq.eval, lambda n, x: x, "reference state", tol, shape)

    trr2 = [row["tr_rho_R2"] for row in rows]
    overlap = [row["overlap"] for row in rows]
    one_gap = [abs(t - 1.0) for t in trr2]
    trr2_ok = one_gap[-1] <= _PURE_EPS_ONE and _nonincreasing(_tail(one_gap))
    overlap_positive = min(_tail(overlap)) >= _PURE_EPS_OVERLAP
    overlap_vanishes = overlap[-1] < _PURE_EPS_OVERLAP and _nonincreasing(_tail(overlap))

    if trr2_ok and overlap_positive:
        verdict, notes = CONTIGUOUS, "Tr rho R^2 -> 1 and overlap bounded away from 0"
    elif overlap_vanishes and declared_overlap is not None and declared_overlap <= _PURE_EPS_OVERLAP:
        verdict, notes = NOT_CONTIGUOUS, "overlap declared and observed to vanish"
    else:
        verdict, notes = INCONCLUSIVE, "statistics do not settle either hypothesis on this grid"
    return ContiguityReport(verdict=verdict, criterion_used="PureCriterion",
                            evidence=rows, notes=notes)


def _kakutani_summands(fam: ProductFamily, idx: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Summands ``1 - Tr rho_i R_i`` for all factors, with the AC precondition check.

    The family's ``stack``, or else the factors' arrays stacked per operand,
    go through :func:`_stacked_summands`; factors of varying dimensions one
    at a time.
    """
    if fam.stack is not None:
        return _stacked_summands(*fam.stack(idx), idx, tol)
    pairs = [fam.factors(int(i)) for i in idx]
    try:
        rhos, sigmas = (np.array(x, dtype=complex) for x in zip(*pairs))
    except ValueError:  # dimensions that vary
        rhos = sigmas = None
    if rhos is not None and rhos.ndim == sigmas.ndim == 3:
        return _stacked_summands(rhos, sigmas, idx, tol)
    return np.array([_stacked_summands(r, s, idx[k:k + 1], tol)[0] for k, (r, s) in enumerate(pairs)])


def _stacked_summands(rhos: np.ndarray, sigmas: np.ndarray, idx: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """The summands of the factors ``idx``, each operand a stack ``(len(idx), d, d)`` or one shared
    ``(d, d)``: ``sigma_i << rho_i`` and ``Tr rho_i R_i`` are :func:`lebesgue._stacked_fidelity`'s."""
    n = len(idx)
    # C order, as the factors are stacked: the layout sets numpy's
    # summation order, and with it the summands' last bits.
    rhos, sigmas = (np.ascontiguousarray(x, dtype=complex) for x in (rhos, sigmas))
    for who, x in (("rho", rhos), ("sigma", sigmas)):
        if x.shape[:-2] not in ((), (n,)):
            raise matcore.DimMismatch(f"{who} of {n} factors must have shape ({n}, d, d) or (d, d), got {x.shape}")
    if rhos.shape[-2:] != sigmas.shape[-2:]:
        raise matcore.DimMismatch(
            f"factor {idx[0]}: operand shapes differ: {rhos.shape[-2:]} vs {sigmas.shape[-2:]}")
    ac, fidelity = _stacked_fidelity(rhos, sigmas, idx, tol, ("rho of factor", "sigma of factor"))
    if (hits := np.flatnonzero(~ac)).size:
        raise FactorNotAC(f"factor {int(idx[hits[0]])}: sigma_i is not absolutely continuous w.r.t. rho_i")
    return np.maximum(0.0, 1.0 - np.broadcast_to(fidelity, (n,)))


#: A fitted decay exponent ``p >= 1 + margin`` reads as a convergent series.
_KAKUTANI_MARGIN = 0.15
#: A fitted ``p <= 1 + slack`` reads as divergent (the boundary is ``p = 1``).
_KAKUTANI_BOUNDARY_SLACK = 0.02
#: Summands at or below this are numerically zero and stay out of the fit.
_SUMMAND_FLOOR = 1e-15
#: Tail summands that a decay fit, or the verdict that the tail is zero, needs.
_KAKUTANI_TAIL_MIN = 8


def kakutani_criterion(fam: ProductFamily, horizon: int = 10**4,
                       tol: ToleranceConfig = DEFAULT_TOL) -> ContiguityReport:
    """Product-state criterion: contiguity iff ``sum_i (1 - Tr rho_i R_i)`` converges.

    The summands are evaluated through the fidelity identity and classified by
    a log-log tail fit of their decay exponent ``p`` over the last half of the
    factor range, on the summands above 1e-15: ``p >= 1.15`` reads as
    convergent, while fits at or below the divergence boundary
    (``p <= 1.02``) read as divergent; anything between is Inconclusive.  A
    fit needs 8 such summands, and a tail read as zero (trivially convergent)
    needs 8 summands too, all at or below 1e-15.  The verdict comes from
    these two rules only.  ``horizon`` must be a finite whole number >= 1.
    """
    horizon = _whole_count(horizon, "horizon")
    idx = np.arange(1, horizon + 1)
    summands = _kakutani_summands(fam, idx, tol)
    partial = np.cumsum(summands)
    sample_at = default_grid(horizon, points=25)
    evidence = [
        {"i": int(i), "summand": float(summands[i - 1]), "partial_sum": float(partial[i - 1])}
        for i in sample_at
    ]

    tail_mask = idx >= max(2, horizon // 2)
    slope = _loglog_slope(idx[tail_mask].astype(float), summands[tail_mask], _SUMMAND_FLOOR, _KAKUTANI_TAIL_MIN)
    p_fit = None if slope is None else -slope
    notes = []
    if p_fit is not None:
        notes.append(f"fitted decay exponent p={p_fit:.4f} on the last half of the factors")
    elif np.count_nonzero(tail_mask) >= _KAKUTANI_TAIL_MIN and np.all(summands[tail_mask] <= _SUMMAND_FLOOR):
        # All tail summands vanish; the series is trivially summable.
        p_fit = float("inf")
        notes.append("tail summands are numerically zero; series trivially convergent")

    if p_fit is None:
        verdict = INCONCLUSIVE
        notes.append("insufficient usable tail samples for a decay fit")
    elif p_fit >= 1.0 + _KAKUTANI_MARGIN:
        verdict = CONTIGUOUS
    elif p_fit <= 1.0 + _KAKUTANI_BOUNDARY_SLACK:
        verdict = NOT_CONTIGUOUS
    else:
        verdict = INCONCLUSIVE
        notes.append("fitted exponent sits in the undecidable band around the boundary")

    return ContiguityReport(
        verdict=verdict, criterion_used="Kakutani", evidence=evidence,
        notes="; ".join(notes),
        details={"fitted_exponent": p_fit},
    )


@dataclass
class BlockSequence:
    """Declared three-block structure ``n -> (rho2, rho1, rho0, sigma0, sigma1, sigma2)``.

    Layout (dims d1, d2, d3 may grow with n):

        rho   = [[rho2, rho1, 0], [rho1*, rho0, 0], [0, 0, 0]]
        sigma = [[0, 0, 0], [0, sigma0, sigma1], [0, sigma1*, sigma2]]

    An outer block (``rho2``, ``sigma2``) may be declared by its diagonal: a
    1-D array stands for the diagonal matrix with those entries, which the
    criterion decides without forming it.  ``grid`` is checked as a sample
    grid is (non-empty, strictly increasing, from 1 up) before any block is
    evaluated.  ``full_eval`` optionally supplies the assembled states for a
    consistency check at the first two grid points.  The normalized inner
    pair ``(rho0/Tr, sigma0/Tr)`` is judged by the limit criterion against
    ``inner_limits``.
    """

    blocks: Callable[[int], tuple]
    grid: list[int]
    inner_limits: Optional[tuple] = None
    full_eval: Optional[Callable[[int], tuple]] = None

    def __post_init__(self) -> None:
        self.grid = _sample_grid(list(self.grid), math.inf, "grid")  # None is refused, not defaulted


def _assemble_blocks(parts: tuple) -> tuple[np.ndarray, np.ndarray]:
    rho2, rho1, rho0, sigma0, sigma1, sigma2 = [np.asarray(b, dtype=complex) for b in parts]
    rho2, sigma2 = (np.diag(X) if X.ndim == 1 else X for X in (rho2, sigma2))
    d1, d2, d3 = rho2.shape[0], rho0.shape[0], sigma2.shape[0]
    d = d1 + d2 + d3
    rho = np.zeros((d, d), dtype=complex)
    rho[:d1, :d1] = rho2
    rho[:d1, d1:d1 + d2] = rho1
    rho[d1:d1 + d2, :d1] = rho1.conj().T
    rho[d1:d1 + d2, d1:d1 + d2] = rho0
    sigma = np.zeros((d, d), dtype=complex)
    sigma[d1:d1 + d2, d1:d1 + d2] = sigma0
    sigma[d1:d1 + d2, d1 + d2:] = sigma1
    sigma[d1 + d2:, d1:d1 + d2] = sigma1.conj().T
    sigma[d1 + d2:, d1 + d2:] = sigma2
    return rho, sigma


#: Relative cutoff for strict positivity of a declared block.  It sits near
#: machine precision: the blocks may legitimately carry eigenvalues far below
#: the rank cutoff used elsewhere.
_BLOCK_STRICT = 1e-14
#: Floor of ``Tr rho0`` on the sampled tail, and ceiling of ``|1 - Tr sigma0|`` at its end.
_BLOCK_TRACE_EPS = 1e-3


def _declared_positive(n: int, name: str, outer, coupling, inner, tol: ToleranceConfig) -> bool:
    """Hypothesis (c) for the declared block ``[[outer, coupling], [coupling*, inner]]`` at ``n``,
    whose square blocks must be Hermitian under ``tol`` (an outer diagonal, real by the same rule);
    an error from its entries names the block and ``n``."""
    try:
        positive = matcore._bordered_positive(outer, coupling, inner, _BLOCK_STRICT)
        for part, X in (("outer", outer), ("inner", inner)):
            if X.ndim == 2:
                matcore.check_hermitian(X, tol, f"{part} block")
            elif not 2 * matcore._frob(X.imag, False) <= tol.hermitian * (1 + matcore._frob(X, False)):
                raise matcore.NonHermitian(f"{part} diagonal is not real (imaginary part {abs(X.imag).max():.3e})")
        return positive
    except ValidationError as exc:
        raise type(exc)(f"declared {name} block at n={n}: {exc}") from None


def block_criterion_diagnostics(bseq: BlockSequence, tol: ToleranceConfig = DEFAULT_TOL) -> ContiguityReport:
    """Three-block criterion: hypothesis checks plus a delegated inner verdict.

    Verifies (a) ``Tr rho0`` bounded away from zero (at least 1e-3 on the
    sampled tail), (b) ``Tr sigma0 -> 1`` (within 1e-3 at the last grid
    point), (c) strict positivity of the two declared blocks, and (d)
    optional reassembly consistency, then delegates the normalized inner pair
    to the limit criterion.  Contiguous only when everything holds.

    A declared block ``A`` counts as strictly positive iff ``min eig(A) >
    1e-14 * ||A||_inf``, where ``||A||_inf >= lam_max`` is the max row sum of
    ``|A|``; a shifted Cholesky decides it, with no eigensolve.  Each block is
    read as declared, ``[[rho2, rho1], [rho1*, rho0]]`` and (a symmetric
    permutation of the assembled one, with the same spectrum and row sums)
    ``[[sigma2, sigma1*], [sigma1, sigma0]]``: with an outer block declared
    by its diagonal (1-D) only the inner-sized Schur complement is factored
    and nothing of the outer block's size is formed; a 2-D outer block is
    decided on the assembled block (:func:`matcore._bordered_positive`).
    Blocks whose shapes do not fit raise :class:`DimMismatch`, a NaN or
    infinite entry :class:`ValidationError` and a square block that is not
    Hermitian under ``tol`` :class:`NonHermitian`, naming the block and
    ``n``.  The blocks are evaluated once per grid point.  ``full_eval``'s
    states pass :func:`matcore.check_hermitian` (their positivity is the
    blocks', which they must equal) before the comparison.
    """
    evidence = []
    hypotheses_ok = True
    flags = []
    check_ns = bseq.grid[:2] if bseq.full_eval is not None else []
    kept = {}  # blocks at the grid points the consistency check reads
    inner_pairs = {}
    for n in bseq.grid:
        parts = [np.asarray(b) for b in bseq.blocks(n)]
        rho2, rho1, rho0, sigma0, sigma1, sigma2 = parts
        tr_rho0 = float(np.trace(rho0).real)
        tr_sigma0 = float(np.trace(sigma0).real)
        # A list, not ``and``: both sides are read, so a non-finite entry is
        # refused wherever it is.
        pd_ok = all([_declared_positive(n, "rho", rho2, rho1, rho0, tol),
                     _declared_positive(n, "sigma", sigma2, sigma1.conj().T, sigma0, tol)])
        if not pd_ok:
            hypotheses_ok = False
            flags.append(f"declared blocks not strictly positive at n={n}")
        evidence.append({
            "n": int(n),
            "tr_rho0": tr_rho0,
            "tr_sigma0_gap": abs(1.0 - tr_sigma0),
            "blocks_positive": pd_ok,
        })
        inner_pairs[n] = (rho0 / tr_rho0, sigma0 / tr_sigma0)
        if n in check_ns:
            kept[n] = parts

    for n in check_ns:
        for who, got, want in zip(("rho", "sigma"), bseq.full_eval(n), _assemble_blocks(kept[n])):
            if not matcore.mat_close(matcore.check_hermitian(got, tol, f"full_eval {who} at n={n}"), want, tol):
                raise BlocksInconsistent(f"full_eval {who} at n={n} differs from the reassembled blocks")

    tr0_tail = _tail([row["tr_rho0"] for row in evidence])
    gap_tail = _tail([row["tr_sigma0_gap"] for row in evidence])
    if min(tr0_tail) < _BLOCK_TRACE_EPS:
        hypotheses_ok = False
        flags.append("Tr rho0 not bounded away from zero on the sampled tail")
    if evidence[-1]["tr_sigma0_gap"] > _BLOCK_TRACE_EPS or not _nonincreasing(gap_tail, slack=1e-6):
        hypotheses_ok = False
        flags.append("Tr sigma0 does not approach 1 on the sampled tail")

    inner_seq = StateSequence(
        eval=inner_pairs.__getitem__,
        declared_limits=bseq.inner_limits,
        horizon=bseq.grid[-1],
        sample_grid=bseq.grid,
    )
    if bseq.inner_limits is None:
        inner_report = ContiguityReport(
            verdict=INCONCLUSIVE, criterion_used="LimitCriterion",
            notes="no inner limits declared",
        )
    else:
        inner_report = limit_criterion(inner_seq, tol)

    if hypotheses_ok and inner_report.verdict == CONTIGUOUS:
        verdict = CONTIGUOUS
        notes = "all block hypotheses verified; inner pair contiguous"
    else:
        verdict = INCONCLUSIVE
        notes = "; ".join(flags + [f"inner verdict: {inner_report.verdict}"])
    return ContiguityReport(
        verdict=verdict, criterion_used="BlockCriterion", evidence=evidence, notes=notes,
        details={
            "inner_verdict": inner_report.verdict,
            "inner_notes": inner_report.notes,
        },
    )
