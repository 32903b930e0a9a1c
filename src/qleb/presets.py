"""Built-in state families and models used by the CLI presets and the tests.

Each family is a small closed-form construction with known behaviour
(contiguous or not, known ratios and limits), which makes them useful as
regression anchors.  The spin states are computed on their four entries as
Python floats, with the numpy ufuncs of the array formula, so they are the
same bytes as that formula gives.
"""

from __future__ import annotations

import math

import numpy as np

from .contiguity import (
    BlockSequence,
    ProductFamily,
    PurePowerFamily,
    StateSequence,
    _assemble_blocks,
    default_grid,
)
from .qlan import ParametricModel, RateScan

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)


# -- faithful pair drifting to non-orthogonal pure states ---------------------

def faithful_to_pure_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Faithful 2x2 pair whose limits are non-orthogonal pure states.

    The square-root likelihood ratio stays trace-normalized but develops a
    divergent matrix element, making the pair the standard example of
    contiguity without a bounded ratio.
    """
    m = float(n)
    rho = np.diag([(2 * m**3 - 1) / (2 * m**3), 1 / (2 * m**3)]).astype(complex)
    sigma = np.array(
        [[m**2, m**2 + 1], [m**2 + 1, m**2 + 2 * m + 2]], dtype=complex
    ) / (2 * (m**2 + m + 1))
    return rho, sigma


def faithful_to_pure_limits() -> tuple[np.ndarray, np.ndarray]:
    return GROUND.copy(), 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)


def faithful_to_pure_sqrt_lr(n: int) -> np.ndarray:
    """Known closed form of the canonical ratio for the family above."""
    m = float(n)
    return m / np.sqrt(2 * (m**2 + m + 1)) * np.array([[1, 1], [1, 2 * m + 1]], dtype=complex)


def faithful_to_pure_bounded_ratio(n: int) -> np.ndarray:
    """Bounded modification of the ratio (divergent element removed)."""
    m = float(n)
    return m / np.sqrt(2 * (m**2 + m + 1)) * np.ones((2, 2), dtype=complex)


def faithful_to_pure_family(horizon: int = 10**6, sample_grid: list[int] | None = None) -> StateSequence:
    return StateSequence(
        eval=lambda n: faithful_to_pure_pair(n),
        declared_limits=faithful_to_pure_limits(),
        horizon=horizon,
        sample_grid=sample_grid,
    )


# -- pure pair drifting to orthogonal pure states ------------------------------

def orthogonal_limit_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pure 2x2 pair whose limits are mutually singular."""
    m = float(n)
    rho = GROUND.copy()
    sigma = np.array([[1, m], [m, m**2]], dtype=complex) / (1 + m**2)
    return rho, sigma


def orthogonal_limit_sqrt_lr(n: int) -> np.ndarray:
    """The canonical ratio for the pair above (its free kernel weight set to 0)."""
    m = float(n)
    return np.array([[1, m], [m, m**2]], dtype=complex) / np.sqrt(1 + m**2)


def orthogonal_limit_family(horizon: int = 10**6, sample_grid: list[int] | None = None) -> StateSequence:
    return StateSequence(
        eval=lambda n: orthogonal_limit_pair(n),
        declared_limits=(GROUND.copy(), EXCITED.copy()),
        horizon=horizon,
        sample_grid=sample_grid,
    )


# -- growing three-block family -------------------------------------------------

def three_block_blocks(n: int) -> tuple:
    """Blocks of a ``(2n+2)``-dimensional pair with disjoint outer supports.

    The inner 2x2 blocks are the faithful-to-pure pair above, scaled to
    subnormalized traces 1/2 and 1 - 1/(2n); the outer blocks carry the
    remaining mass and shrink on the sigma side.  The outer blocks are
    scalar matrices, declared by their diagonals (1-D arrays of ``n``
    entries, ``diag(rho2) = 1/(2m)``): the criterion decides their positivity
    from the vectors, and nothing of size ``n x n`` is formed.
    """
    m = float(n)
    rho0 = np.diag([(2 * m**3 - 1), 1.0]).astype(complex) / (4 * m**3)
    sigma0 = (1 - 1 / (2 * m)) * faithful_to_pure_pair(n)[1]
    coupling = np.ones((n, 2), dtype=complex) / (m + 1) ** 3
    rho2 = np.full(n, 1 / (2 * m), dtype=complex)
    sigma2 = np.full(n, 1 / (2 * m**2), dtype=complex)
    return rho2, coupling, rho0, sigma0, coupling.conj().T, sigma2


def three_block_family(grid: list[int] | None = None) -> BlockSequence:
    if grid is None:
        grid = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    return BlockSequence(
        blocks=three_block_blocks,
        grid=grid,
        inner_limits=faithful_to_pure_limits(),
        full_eval=lambda n: _assemble_blocks(three_block_blocks(n)),
    )


# -- product family drifting to the maximally mixed state ----------------------

def drifting_site(t) -> np.ndarray:
    """Qubit state at drift parameter ``t >= 1``; approaches I/2 as t grows.

    An array of drift parameters gives the stack ``(*t.shape, 2, 2)`` of
    their states, entry for entry the same as one call per parameter.
    """
    t = np.asarray(t, dtype=float)
    # libm's pow, as for a Python float's ``t**2``; numpy's ``t**2`` is ``t * t``,
    # which differs in the last bit for about 1 in 1000 parameters ``sqrt(i)``.
    t2 = np.float_power(t, 2.0)
    entries = np.stack([2 * t2 + 2 * t + 1, 2 * t, 2 * t, 2 * t2 - 2 * t + 1], axis=-1)
    return (entries.astype(complex) / (4 * t2 + 2)[..., None]).reshape(t.shape + (2, 2))


def drifting_summand(t: float) -> float:
    """Closed form of ``1 - Tr rho R_t`` for the drifting factor at ``t``."""
    return 1.0 - np.sqrt(2 * t**2 / (2 * t**2 + 1))


def drifting_product_family(scaling: str = "linear") -> ProductFamily:
    """Tensor-product family with factors drifting to I/2.

    ``scaling="linear"`` uses drift parameter ``t = i`` (summands fall like
    ``i^-2``: convergent); ``scaling="sqrt"`` uses ``t = sqrt(i)`` (summands
    fall like ``i^-1``: divergent); :func:`drifting_summand` is the summand's
    closed form.  The family's ``stack`` builds all its factors with one
    :func:`drifting_site` call, and every factor shares its ``rho = I/2``.
    """
    if scaling not in ("linear", "sqrt"):
        raise ValueError("scaling must be 'linear' or 'sqrt'")

    rho = np.eye(2, dtype=complex) / 2

    def factors(i):  # an index or an array of them
        t = np.asarray(i, dtype=float)
        return rho, drifting_site(t if scaling == "linear" else np.sqrt(t))

    return ProductFamily(factors=factors, stack=factors)


# -- spin-1/2 models -------------------------------------------------------------

def spin_pure_state(theta) -> np.ndarray:
    """Pure qubit state obtained by a symmetric exponential tilt of |0><0|:
    ``(I + tanh(t)/t (theta_0 X + theta_1 Y) + Z / cosh(t)) / 2`` with ``t = |theta|``."""
    return _qubit(*_spin_pure_entries(np.asarray(theta, dtype=float)))


def _spin_pure_entries(theta: np.ndarray) -> tuple[float, complex, float]:
    """The entries ``(a, b, c)`` of :func:`spin_pure_state` ``[[a, b], [conj b, c]]``, on Python floats.

    The operations are those of the array formula, with the same numpy
    ufuncs (``math.tanh`` differs from ``np.tanh`` in the last bit) and the
    norm as ``sqrt(theta . theta)``, as ``np.linalg.norm`` takes it, so the
    entries are the same bit for bit.
    """
    if theta.shape != (2,):
        raise ValueError(f"the spin model takes 2 parameters, got an array of shape {theta.shape}")
    t = math.sqrt(theta.dot(theta))
    if t == 0.0:
        return 1.0, 0j, 0.0
    k, sech = float(np.tanh(t)) / t, 1.0 / float(np.cosh(t))
    x, y = float(theta[0]), float(theta[1])
    return 0.5 * (1.0 + sech), 0.5 * complex(k * x, -(k * y)), 0.5 * (1.0 - sech)


def _qubit(a: float, b: complex, c: float) -> np.ndarray:
    """``[[a, b], [conj b, c]]`` with its zeros off the diagonal positive, as the array
    formulas' sums with zero leave them."""
    b += 0j
    return np.array([[a, b], [b.conjugate() + 0j, c]], dtype=complex)


def _tilt_coefficients(t: float) -> tuple[float, float, float]:
    """(tanh t / t, its derivative over t, (sech t)' over t) with small-t series."""
    if t < 1e-4:
        a = 1.0 - t**2 / 3.0 + 2.0 * t**4 / 15.0
        da_over_t = -2.0 / 3.0 + 8.0 * t**2 / 15.0
        db_over_t = -1.0 + 5.0 * t**2 / 6.0
    else:
        a = np.tanh(t) / t
        da_over_t = (1.0 / np.cosh(t) ** 2 / t - np.tanh(t) / t**2) / t
        db_over_t = -np.tanh(t) / np.cosh(t) / t
    return a, da_over_t, db_over_t


def spin_pure_deriv(theta, i: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (2,):
        raise ValueError(f"the spin model takes 2 parameters, got an array of shape {theta.shape}")
    t = float(np.linalg.norm(theta))
    a, da_over_t, db_over_t = _tilt_coefficients(t)
    drive = theta[0] * SIGMA_X + theta[1] * SIGMA_Y
    pauli_i = SIGMA_X if i == 0 else SIGMA_Y
    return 0.5 * (da_over_t * theta[i] * drive + a * pauli_i + db_over_t * theta[i] * SIGMA_Z)


def spin_pure_model() -> ParametricModel:
    return ParametricModel(state_at=spin_pure_state, deriv_at=spin_pure_deriv)


def cubic_defect(theta) -> float:
    return float(np.linalg.norm(theta) ** 3)


def cubic_defect_grad(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    return 3.0 * np.linalg.norm(theta) * theta


def quadratic_defect(theta) -> float:
    return float(np.linalg.norm(theta) ** 2)


def spin_perturbed_state(theta) -> np.ndarray:
    """Rank-dropping perturbation: pure tilt mixed with the orthogonal pole,
    ``w rho_pure + (1 - w) |1><1|`` with ``w = exp(-|theta|^3)`` (:func:`cubic_defect`)."""
    theta = np.asarray(theta, dtype=float)
    weight = float(np.exp(-cubic_defect(theta)))
    a, b, c = _spin_pure_entries(theta)
    return _qubit(weight * a, weight * b, weight * c + (1.0 - weight))


def spin_perturbed_model() -> ParametricModel:
    """:func:`spin_perturbed_state` with its analytic derivatives."""
    def deriv(theta, i):
        theta = np.asarray(theta, dtype=float)
        pure = spin_pure_deriv(theta, i)  # refuses a theta of other than 2 parameters first
        weight = float(np.exp(-cubic_defect(theta)))
        g = cubic_defect_grad(theta)[i]
        return weight * (pure + g * (EXCITED - spin_pure_state(theta)))

    return ParametricModel(state_at=spin_perturbed_state, deriv_at=deriv)


def sqrt_scaling(n: int) -> float:
    return float(np.sqrt(n))


def quarter_scaling(n: int) -> float:
    return float(n) ** 0.25


def linear_scaling(n: int) -> float:
    return float(n)


def spin_overlap_family(
    g=sqrt_scaling,
    h=(1.0, 0.5),
    horizon: int = 10**6,
    sample_grid: list[int] | None = None,
) -> PurePowerFamily:
    """n-copy pure-reference family at local parameter ``h / g(n)``.

    For ``g = sqrt`` the overlap converges to ``exp(-|h|^2/4)``; for faster
    shrinking scalings it converges to the same value, for slower ones (for
    example ``g(n) = n^(1/4)``) it collapses to zero.  The overlap limit is
    declared for those two scalings, and left undeclared for any other.
    """
    h = np.asarray(h, dtype=float)
    declared_overlap_limit = None
    if g is sqrt_scaling:
        declared_overlap_limit = float(np.exp(-np.dot(h, h) / 4.0))
    elif g is quarter_scaling:
        declared_overlap_limit = 0.0
    return PurePowerFamily(
        site=lambda n: (GROUND.copy(), spin_pure_state(h / g(n))),
        declared_overlap_limit=declared_overlap_limit,
        horizon=horizon,
        sample_grid=sample_grid,
    )


def spin_rate_scan(defect=cubic_defect, g=sqrt_scaling, h=(1.0, 0.5),
                   grid: list[int] | None = None) -> RateScan:
    if grid is None:
        grid = default_grid(10**7, points=15)
    return RateScan(f=defect, g=g, h=np.asarray(h, dtype=float), grid=grid)
