"""Spectral calculus for dense Hermitian/PSD matrices.

Every PSD or strict-positivity check on an operand goes through one
validation routine, :func:`psd_spectrum` (Hermiticity check, eigensolve or,
for stacks of 2x2 matrices, the trace-determinant closed form, phase fix,
PSD floor, clamp), and every zero/nonzero decision through one rank rule,
:func:`support_mask`; both are controlled by one :class:`ToleranceConfig`.
The one positivity decision that needs no spectrum is
:func:`is_positive_definite`: a yes/no answer for a declared block, from a
single shifted Cholesky (in real arithmetic when the block is real).  Matrix functions (square root,
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
    return (A + A.conj().swapaxes(-1, -2)) / 2


def check_square(A: np.ndarray, stack: bool = False, dtype=complex) -> np.ndarray:
    """``A`` as an array of ``dtype`` (``None`` keeps its own), checked to be square."""
    A = np.asarray(A, dtype=dtype)
    if A.ndim != 2 + stack or A.shape[-1] != A.shape[-2]:
        what = "a stack of square matrices" if stack else "a square matrix"
        raise DimMismatch(f"expected {what}, got shape {A.shape}")
    return A


def _failure(bad, who: str, labels: np.ndarray | None) -> tuple | None:
    """``None`` if ``bad`` flags nothing, else the index and name of the first flagged matrix."""
    if labels is None:
        return ((), who) if bad else None
    hits = np.flatnonzero(bad)
    return (int(hits[0]), f"{who} {labels[hits[0]]}") if hits.size else None


def check_hermitian(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, who: str = "matrix",
                    labels: np.ndarray | None = None) -> np.ndarray:
    """Validate Hermiticity and return the exactly-Hermitian part of ``A``.

    With ``labels``, ``A`` is a stack ``(len(labels), d, d)``, and an error
    names its first failing matrix ``"<who> <label>"``.
    """
    A = check_square(A, stack=labels is not None)
    axes = None if labels is None else (1, 2)
    A_star = A.conj().swapaxes(-1, -2)
    diff = A - A_star
    dev = np.linalg.norm(diff, axis=axes)
    if failure := _failure(dev > tol.hermitian * (1.0 + np.linalg.norm(A, axis=axes)), who, labels):
        k, name = failure
        a, dev = A[k], dev[k]
        i, j = np.unravel_index(np.argmax(np.abs(diff[k])), a.shape)
        raise NonHermitian(
            f"{name} is not Hermitian: entry [{i}][{j}]={a[i, j]:.6g} vs "
            f"conj([{j}][{i}])={np.conj(a[j, i]):.6g} (deviation {dev:.3e})"
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
    """Eigendecomposition; one matrix gets deterministic phases, a stack keeps LAPACK's."""
    w, V = np.linalg.eigh(H)
    return SpectralDecomposition(w, _phase_fix(V) if V.ndim == 2 else V)


def eig_hermitian(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralDecomposition:
    """Eigendecomposition with ascending eigenvalues and deterministic phases."""
    return _eigh(check_hermitian(A, tol))


class PSDSpectrum(NamedTuple):
    """A validated PSD matrix: its Hermitian part and clamped spectrum (vectors optional)."""

    mat: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def psd_spectrum(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, who: str = "matrix",
                 vectors: bool = True, labels: np.ndarray | None = None) -> PSDSpectrum:
    """Validate a PSD matrix once and return its spectrum.

    Checks Hermiticity, diagonalises (with deterministic phases when
    ``vectors``), rejects eigenvalues below the PSD floor relative to
    ``lam_max`` and clamps the admissible negative ones to zero.  With
    ``labels``, a stack as in :func:`check_hermitian` (phases not fixed);
    the eigenvalues of a ``(N, 2, 2)`` stack without vectors come from
    trace and determinant (:func:`_spectrum_2x2`), with no LAPACK call.
    """
    H = check_hermitian(A, tol, who, labels)
    if vectors:
        w, V = _eigh(H)
    elif labels is not None and H.shape[-1] == 2:
        a, c, b = H[:, 0, 0].real, H[:, 1, 1].real, np.abs(H[:, 0, 1])
        w, V = _spectrum_2x2(a + c, a * c - b * b, np.hypot((a - c) / 2, b)), None
    else:
        w, V = np.linalg.eigvalsh(H), None
    lo, hi = (w[..., 0], w[..., -1]) if w.shape[-1] else (np.zeros(w.shape[:-1]),) * 2
    floor = -tol.psd_floor * np.maximum(hi, -lo)
    if failure := _failure(lo < floor, who, labels):
        k, name = failure
        raise NotPSD(f"{name} has eigenvalue {lo[k]:.3e} below the PSD floor {floor[k]:.3e}")
    return PSDSpectrum(H, np.maximum(w, 0.0), V)


def _spectrum_2x2(tr: np.ndarray, det: np.ndarray, gap: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues ``tr/2 -+ gap`` of 2x2 Hermitian matrices from trace and determinant.

    ``gap`` defaults to ``sqrt(max(tr^2/4 - det, 0))``; with the entries at
    hand, ``hypot((a - c)/2, |b|)`` does not cancel for nearly equal
    eigenvalues.  The root of larger magnitude is ``tr/2 + sign(tr) gap``; the
    other is ``det`` over it, which keeps its relative accuracy where
    ``tr/2 - gap`` would cancel.
    """
    half = tr / 2
    if gap is None:
        gap = np.sqrt(np.maximum(half * half - det, 0.0))
    big = half + np.copysign(gap, half)
    small = np.divide(det, big, out=np.zeros_like(big), where=big != 0)
    return np.sort(np.stack([small, big], axis=-1), axis=-1)


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
    The zero matrix and indefinite matrices give False.  A matrix whose
    imaginary part is exactly zero is decided on its real part, by a real
    Cholesky (about a third of the complex one's cost) and with no complex
    copy.
    """
    A = check_square(A, dtype=None)
    if np.iscomplexobj(A) and not A.imag.any():
        A = A.real
    H = hermitian_part(A)
    bound = float(np.abs(H).sum(axis=1).max(initial=0.0))
    H[np.diag_indices_from(H)] -= strict * bound
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _det2(A: np.ndarray) -> float:
    return float((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]).real)


def _diag_mean(c: np.ndarray, M: np.ndarray, inverse: bool = False) -> np.ndarray:
    """``C # M``, or ``C # M^{-1}`` when ``inverse``, for ``C = diag(c) > 0`` and ``M > 0``.

    Scale, one eigensolve, scale: ``C^{1/2} (C^{-+1/2} M C^{-+1/2})^{+-1/2} C^{1/2}``
    (Cholesky mean with the diagonal factor ``C^{1/2}``).  Sizes 1 and 2 use
    closed forms, with the adjugate for a 2x2 inverse.
    """
    if c.size == 1:
        return np.sqrt(c / M.real if inverse else c * M.real).astype(complex)
    if c.size == 2:
        # Determinant closed form; unlike the spectral route it stays accurate
        # when the eigenvalue range approaches 1/eps^2.
        if inverse:
            M = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / _det2(M)
        dc, dm = c[0] * c[1], _det2(M)
        N = np.sqrt(dm) * np.diag(c) + np.sqrt(dc) * M
        return hermitian_part(N * (dc * dm) ** 0.25 / np.sqrt(_det2(N)))
    root = np.sqrt(c)
    scale = root if inverse else 1.0 / root
    w, V = np.linalg.eigh(hermitian_part(scale[:, None] * M * scale))
    # Eigenvalues below eps * w_max are rounding (M > 0): the square root maps
    # them to 0, the inverse square root to that of the resolution limit.
    w = np.maximum(w, np.finfo(float).eps * w[-1] if inverse else 0.0)
    X = (V * (w ** (-0.5 if inverse else 0.5))) @ V.conj().T
    return hermitian_part(root[:, None] * X * root)


def geometric_mean(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Operator geometric mean of strictly positive matrices.

    Returns the unique positive ``X`` with ``X A^{-1} X = B``, evaluated as
    ``V (diag(a) # V* B V) V*`` in the eigenbasis ``A = V diag(a) V*`` that
    validation computes (see :func:`_diag_mean`).
    """
    a = _check_strictly_positive(A, tol, "first operand")
    b = _check_strictly_positive(B, tol, "second operand")
    if a.mat.shape != b.mat.shape:
        raise DimMismatch(f"operand shapes differ: {a.mat.shape} vs {b.mat.shape}")
    V = a.eigenvectors
    return hermitian_part(V @ _diag_mean(a.eigenvalues, V.conj().T @ b.mat @ V) @ V.conj().T)


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
