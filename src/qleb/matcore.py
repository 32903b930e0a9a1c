"""Spectral calculus for dense Hermitian/PSD matrices.

Every PSD or strict-positivity check on an operand goes through one
validation routine, :func:`psd_spectrum` (Hermiticity check, eigensolve,
phase fix, PSD floor, clamp), and every zero/nonzero decision through one
rank rule, :func:`support_mask`; both are controlled by one
:class:`ToleranceConfig`.  The one positivity decision that needs no
spectrum is :func:`is_positive_definite`: a yes/no answer for a declared
block, from a single shifted Cholesky.  Matrix functions (square root,
pseudo-inverse, logarithm, exponential) are applied on the validated
spectrum.  Eigenbases are made deterministic by ordering eigenvalues
ascending and fixing the phase of each eigenvector (first significant
component real positive).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimMismatch, NonHermitian, NotPSD, NotStrictlyPositive


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used by every validation and rank decision.

    hermitian : admissible relative Frobenius asymmetry ``||A - A*||``.
    rank_rel  : eigenvalue ``lam`` counts as zero iff ``lam <= rank_rel * lam_max``.
    psd_floor : most negative admissible eigenvalue, relative to ``lam_max``;
                eigenvalues between that floor and 0 are clamped to 0.
    recon     : spectral reconstruction residual bound (relative).
    ortho     : eigenvector Gram-matrix deviation bound.
    eq_rel    : relative Frobenius tolerance for matrix equality checks.
    """

    hermitian: float = 1e-10
    rank_rel: float = 1e-9
    psd_floor: float = 1e-10
    recon: float = 1e-12
    ortho: float = 1e-12
    eq_rel: float = 1e-8

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            if not value > 0:
                raise ValueError(f"tolerance {name} must be strictly positive")
        if not self.rank_rel < 1:
            raise ValueError("rank_rel must be < 1")


DEFAULT_TOL = ToleranceConfig()

#: Named tolerance profiles selectable via the CLI / QLEB_TOL_PROFILE.
#: "extreme-scale" lowers the rank cutoff so that families whose eigenvalues
#: span ~18 orders of magnitude are still treated as full rank.
TOL_PROFILES: dict[str, ToleranceConfig] = {
    "default": DEFAULT_TOL,
    "strict": ToleranceConfig(
        hermitian=1e-12, rank_rel=1e-12, psd_floor=1e-12,
        recon=1e-13, ortho=1e-13, eq_rel=1e-10,
    ),
    "extreme-scale": ToleranceConfig(rank_rel=1e-30),
}


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending) and a phase-fixed orthonormal eigenbasis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frob(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def hermitian_part(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().T) / 2


def check_square(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def check_hermitian(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermiticity and return the exactly-Hermitian part of ``A``."""
    A = check_square(A)
    A_star = A.conj().T
    dev = frob(A - A_star)
    if dev > tol.hermitian * (1.0 + frob(A)):
        i, j = np.unravel_index(np.argmax(np.abs(A - A_star)), A.shape)
        raise NonHermitian(
            f"matrix is not Hermitian: entry [{i}][{j}]={A[i, j]:.6g} vs "
            f"conj([{j}][{i}])={np.conj(A[j, i]):.6g} (deviation {dev:.3e})"
        )
    return (A + A_star) / 2


def _phase_fix(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    mags = np.abs(V)
    first = (mags > 1e-12 * mags.max(axis=0, initial=0.0)).argmax(axis=0)
    pivot = V[first, np.arange(V.shape[1])]
    # Eigenvector columns are unit vectors, so no pivot is zero.
    return V * (pivot.conj() / np.abs(pivot))


def _eigh(H: np.ndarray) -> SpectralDecomposition:
    w, V = np.linalg.eigh(H)
    return SpectralDecomposition(w, _phase_fix(V))


def eig_hermitian(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition with ascending eigenvalues and deterministic phases."""
    return _eigh(check_hermitian(A, tol))


class PSDSpectrum(NamedTuple):
    """A validated PSD matrix: its Hermitian part and clamped spectrum (vectors optional)."""

    mat: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def psd_spectrum(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, who: str = "matrix",
                 vectors: bool = True) -> PSDSpectrum:
    """Validate a PSD matrix once and return its spectrum.

    Checks Hermiticity, diagonalises (with deterministic phases when
    ``vectors``), rejects eigenvalues below the PSD floor relative to
    ``lam_max`` and clamps the admissible negative ones to zero.
    """
    H = check_hermitian(A, tol)
    w, V = _eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
    lo, hi = (float(w[0]), float(w[-1])) if w.size else (0.0, 0.0)
    floor = -tol.psd_floor * max(hi, -lo)
    if lo < floor:
        raise NotPSD(f"{who} has eigenvalue {lo:.3e} below the PSD floor {floor:.3e}")
    return PSDSpectrum(H, np.maximum(w, 0.0), V)


def support_mask(w: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, lam_max: float | None = None) -> np.ndarray:
    """The rank rule: eigenvalues ``w > rank_rel * lam_max`` count as nonzero.

    ``lam_max`` defaults to the largest ``|w|`` along the last axis, so a
    stack of spectra is judged row by row.  Pass the operand's own largest
    eigenvalue when ``w`` is the spectrum of a compression of that operand.
    """
    w = np.asarray(w, dtype=float)
    if lam_max is None:
        lam_max = np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    return w > tol.rank_rel * lam_max


def support_projector(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of significantly-positive eigenvectors."""
    return _spectral_apply(A, np.ones_like, tol, psd=True, on_support=True)


def _spectral_apply(
    A: np.ndarray,
    fn: Callable[[np.ndarray], np.ndarray],
    tol: ToleranceConfig,
    psd: bool,
    on_support: bool = False,
) -> np.ndarray:
    """Apply a scalar function through the (single) spectral code path."""
    if psd:
        _, w, V = psd_spectrum(A, tol)
    else:
        w, V = eig_hermitian(A, tol)
    if on_support:
        mask = support_mask(w, tol)
        fw = np.where(mask, fn(np.where(mask, w, 1.0)), 0.0)
    else:
        fw = fn(w)
    return hermitian_part((V * fw) @ V.conj().T)


def psd_sqrt(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Positive square root of a PSD matrix."""
    return _spectral_apply(A, np.sqrt, tol, psd=True)


def psd_pinv(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse of a PSD matrix with the relative rank cutoff."""
    return _spectral_apply(A, lambda w: 1.0 / w, tol, psd=True, on_support=True)


def psd_log_on_support(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Logarithm on the support of a PSD matrix; the kernel is mapped to 0."""
    return _spectral_apply(A, np.log, tol, psd=True, on_support=True)


def herm_exp(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Exponential of a Hermitian matrix."""
    return _spectral_apply(A, np.exp, tol, psd=False)


def unitary_exp(H: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``exp(iH)`` for Hermitian ``H`` (result is unitary, not Hermitian)."""
    w, V = eig_hermitian(H, tol)
    return (V * np.exp(1j * w)) @ V.conj().T


def _check_strictly_positive(A: np.ndarray, tol: ToleranceConfig, who: str) -> PSDSpectrum:
    try:
        op = psd_spectrum(A, tol, who)
    except NotPSD as exc:
        raise NotStrictlyPositive(f"{who} must be strictly positive definite: {exc}") from exc
    w = op.eigenvalues
    if not np.all(support_mask(w, tol)):
        raise NotStrictlyPositive(
            f"{who} must be strictly positive definite "
            f"(min eigenvalue {w.min():.3e}, max {w.max():.3e})"
        )
    return op


def is_positive_definite(A: np.ndarray, strict: float) -> bool:
    """Certificate for ``min eig(H) > strict * ||H||_inf``, ``H`` the Hermitian part of ``A``.

    One Cholesky factorisation of ``H - strict * ||H||_inf * I`` decides it,
    with no eigensolve.  ``||H||_inf`` (max row sum of ``|H|``) bounds
    ``lam_max`` from above (Gershgorin), so the cutoff differs from
    ``strict * lam_max`` only when the eigenvalue ratio is at rounding level.
    The zero matrix and indefinite matrices give False.
    """
    H = hermitian_part(check_square(A))
    bound = float(np.abs(H).sum(axis=1).max(initial=0.0))
    H[np.diag_indices_from(H)] -= strict * bound
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _det2(A: np.ndarray) -> float:
    return float((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]).real)


def _geometric_mean_2x2(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # Determinant closed form for 2x2 positive matrices; unlike the spectral
    # route it stays accurate when the eigenvalue range approaches 1/eps^2.
    da, db = _det2(A), _det2(B)
    N = np.sqrt(db) * A + np.sqrt(da) * B
    return hermitian_part(N * (da * db) ** 0.25 / np.sqrt(_det2(N)))


def _geometric_mean(a: PSDSpectrum, B: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Geometric mean of validated strictly positive operands, ``a`` with its spectrum."""
    A = a.mat
    if A.shape[0] == 1:
        return np.sqrt(A.real * B.real).astype(complex)
    if A.shape[0] == 2:
        return _geometric_mean_2x2(A, B)
    w, V = a.eigenvalues, a.eigenvectors
    sqrt_a = (V * np.sqrt(w)) @ V.conj().T
    inv_sqrt_a = (V * (1.0 / np.sqrt(w))) @ V.conj().T
    inner = psd_sqrt(hermitian_part(inv_sqrt_a @ B @ inv_sqrt_a), tol)
    return hermitian_part(sqrt_a @ inner @ sqrt_a)


def geometric_mean(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Operator geometric mean of strictly positive matrices.

    Returns the unique positive ``X`` with ``X A^{-1} X = B``.  For dimension
    2 a determinant-based closed form is used for numerical robustness; in
    higher dimensions ``sqrt(A) sqrt(sqrt(A)^{-1} B sqrt(A)^{-1}) sqrt(A)``
    is evaluated through the spectral path.
    """
    a = _check_strictly_positive(A, tol, "first operand")
    b = _check_strictly_positive(B, tol, "second operand")
    if a.mat.shape != b.mat.shape:
        raise DimMismatch(f"operand shapes differ: {a.mat.shape} vs {b.mat.shape}")
    return _geometric_mean(a, b.mat, tol)


def trace_inner(A: np.ndarray, B: np.ndarray) -> complex:
    """``Tr(A B)`` for same-dimension square matrices."""
    A = check_square(A)
    B = check_square(B)
    if A.shape != B.shape:
        raise DimMismatch(f"operand shapes differ: {A.shape} vs {B.shape}")
    return complex(np.trace(A @ B))


def mat_close(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Relative Frobenius equality test at ``tol.eq_rel``."""
    return frob(np.asarray(A) - np.asarray(B)) <= tol.eq_rel * (1.0 + frob(np.asarray(B)))
