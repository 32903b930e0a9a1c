"""Quantum Gaussian states: parameter validation and quasi-characteristic functions.

A Gaussian state ``N(h, J)`` on d modes is described by a real mean vector
``h`` and a Hermitian PSD covariance ``J`` (symmetric real part,
skew-symmetric imaginary part).  Expectations of ordered products of
exponentials evaluate in closed form:

    E prod_t exp(i xi_t . X)
        = exp( sum_t (i xi_t.h - 1/2 xi_t^i xi_t^j J_ji)
               - sum_t sum_{u>t} xi_t^i xi_u^j J_ji )

with the second covariance index contracting against the earlier query
vector.  The formula extends to complex query vectors by analytic
continuation; no operator representation is ever constructed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ValidationError
from .matcore import DEFAULT_TOL, ToleranceConfig, psd_spectrum


@dataclass
class GaussianParams:
    """Mean vector ``h`` (real, length d) and Hermitian PSD covariance ``J``."""

    h: np.ndarray
    J: np.ndarray

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=float).reshape(-1)
        self.J = np.asarray(self.J, dtype=complex)

    @property
    def dim(self) -> int:
        return self.h.shape[0]


@dataclass
class ExtendedGaussianParams:
    """Joint parameters ``(mu, Sigma, kappa, s2)`` of a (d+1)-mode Gaussian.

    The trailing mode carries the log-likelihood coordinate; validity means
    the enlarged covariance ``[[Sigma, kappa], [kappa*, s2]]`` is Hermitian
    PSD.
    """

    mu: np.ndarray
    Sigma: np.ndarray
    kappa: np.ndarray
    s2: float

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        self.Sigma = np.asarray(self.Sigma, dtype=complex)
        self.kappa = np.asarray(self.kappa, dtype=complex).reshape(-1)
        self.s2 = float(self.s2)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def enlarged(self) -> GaussianParams:
        d = self.dim
        J = np.zeros((d + 1, d + 1), dtype=complex)
        J[:d, :d] = self.Sigma
        J[:d, d] = self.kappa
        J[d, :d] = self.kappa.conj()
        J[d, d] = self.s2
        h = np.concatenate([self.mu, [-0.5 * self.s2]])
        return GaussianParams(h=h, J=J)


def validate(params: GaussianParams, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff ``h`` is real of matching length and ``J`` is Hermitian PSD (a non-finite
    entry of ``J`` gives False): :func:`_check_params` as a predicate."""
    try:
        _check_params(params, tol)
    except InvalidParams:
        return False
    return True


def _check_params(params: GaussianParams, tol: ToleranceConfig, who: str = "J") -> None:
    """The one check of Gaussian parameters: :class:`InvalidParams` unless ``J`` is a square matrix
    of ``h``'s length that :func:`matcore.psd_spectrum` accepts under ``tol`` as Hermitian PSD; the
    message names the covariance ``who`` and, for a bad entry, the entry (psd_spectrum's message)."""
    h, J = params.h, params.J
    if J.ndim != 2 or J.shape[0] != J.shape[1] or J.shape[0] != h.shape[0]:
        raise InvalidParams(f"{who} has shape {J.shape}, but the mean has {h.shape[0]} entries")
    try:
        psd_spectrum(J, tol, who, vectors=False)
    except ValidationError as exc:
        raise InvalidParams(str(exc)) from None


def _valid_enlarged(ext: ExtendedGaussianParams, tol: ToleranceConfig) -> GaussianParams:
    """``ext.enlarged()``, built and validated once, or :class:`InvalidParams` if ``Sigma`` or
    ``kappa`` does not fit ``mu`` or the enlarged covariance is not Hermitian PSD."""
    if ext.Sigma.shape != (ext.dim, ext.dim) or ext.kappa.shape[0] != ext.dim:
        raise InvalidParams(f"Sigma of shape {ext.Sigma.shape} and kappa of {ext.kappa.shape[0]} entries "
                            f"do not fit a mean of {ext.dim} entries")
    enlarged = ext.enlarged()
    _check_params(enlarged, tol, "enlarged covariance [[Sigma, kappa], [kappa*, s2]]")
    return enlarged


def gaussian_qcf(params: GaussianParams, query, tol: ToleranceConfig = DEFAULT_TOL) -> complex:
    """Quasi-characteristic function of ``N(h, J)`` at an ordered query (1 for an empty one)."""
    _check_params(params, tol)
    return complex(_qcf(params, _queries([query], params.dim))[0])


def _queries(queries, d: int) -> np.ndarray:
    """Queries of one factor count as a ``(q, r, d)`` complex stack, the one reading of a query;
    :class:`InvalidParams` unless every vector has ``d`` entries."""
    try:
        X = np.asarray(queries, dtype=complex)
    except ValueError:
        raise InvalidParams("all query vectors must have the same length") from None
    if X.ndim < 2:
        raise InvalidParams("a query is a sequence of vectors")
    if X.shape[1] and X[0, 0].size != d:
        raise InvalidParams(f"query vectors have {X[0, 0].size} entries, but the parameters have dimension {d}")
    return X.reshape(X.shape[0], X.shape[1], d)


def _qcf(params: GaussianParams, X: np.ndarray) -> np.ndarray:
    """The closed form, for parameters that passed validation, at each query of a ``(q, r, d)``
    stack: with the suffix sums ``Y_t = sum_{u>=t} xi_u - xi_t / 2`` the exponent is
    ``i sum_t xi_t.h - sum_t xi_t^i Y_t^j J_ji``, the pair sum of the module docstring."""
    Y = np.cumsum(X[:, ::-1], axis=1)[:, ::-1] - 0.5 * X
    return np.exp(1j * (X.sum(axis=1) @ params.h) - ((X @ params.J.T) * Y).sum(axis=(1, 2)))


def _shift(ext: ExtendedGaussianParams) -> GaussianParams:
    """The Le Cam shift ``N(mu + Re kappa, Sigma)`` (``Sigma`` copied), for parameters whose enlarged
    covariance passed validation: ``Sigma`` is its principal block, so needs no check of its own."""
    return GaussianParams(h=ext.mu + ext.kappa.real, J=ext.Sigma.copy())


def lecam_shift(ext: ExtendedGaussianParams, tol: ToleranceConfig = DEFAULT_TOL) -> GaussianParams:
    """Limit law after reweighting by the likelihood coordinate: ``N(mu + Re kappa, Sigma)``."""
    _valid_enlarged(ext, tol)
    return _shift(ext)


def sandwiched_gaussian_qcf(
    ext: ExtendedGaussianParams,
    query=None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> complex:
    """Expectation ``E[ e^{L/2} prod_t e^{i xi_t . X} e^{L/2} ]`` in closed form.

    Evaluated by enlarging each real query vector with a zero likelihood
    component and appending the two imaginary end vectors ``(0, .., 0, -i/2)``;
    the ordinary quasi-characteristic function of the (d+1)-mode state then
    gives the value.  An empty query returns the normalization ``E[e^L] = 1``
    up to the Gaussian identity.
    """
    enlarged = _valid_enlarged(ext, tol)
    X = _queries([() if query is None else query], ext.dim)[0]
    if X.imag.any() and (np.linalg.norm(X.imag, axis=1) > 1e-12 * (1.0 + np.linalg.norm(X, axis=1))).any():
        raise InvalidParams("sandwiched evaluation requires real query vectors")
    d, r = X.shape[1], X.shape[0]
    E = np.zeros((1, r + 2, d + 1), dtype=complex)
    E[0, 1:-1, :d] = X
    E[0, 0, d] = E[0, -1, d] = -0.5j
    return complex(_qcf(enlarged, E)[0])


def _sandwich_and_shift_qcf(ext: ExtendedGaussianParams, query,
                            tol: ToleranceConfig = DEFAULT_TOL) -> tuple[complex, complex]:
    """:func:`sandwiched_gaussian_qcf` and, at the same query, the quasi-characteristic
    function of :func:`lecam_shift`, which Le Cam's third lemma makes equal.  The enlarged
    covariance is validated once, by the first.
    """
    value = sandwiched_gaussian_qcf(ext, query, tol)
    return value, complex(_qcf(_shift(ext), _queries([query], ext.dim))[0])
