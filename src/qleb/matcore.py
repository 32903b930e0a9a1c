"""Spectral calculus for dense Hermitian/PSD matrices.

Every PSD or strict-positivity check on an operand goes through one
validation routine, :func:`psd_spectrum` (Hermiticity and finiteness check,
eigensolve, phase fix, PSD floor, clamp), and every zero/nonzero decision
through one rank rule, :func:`support_mask`; both are controlled by one
:class:`ToleranceConfig`.  A single 2x2 matrix is validated on its four
entries as Python scalars (:func:`_hermitian2`, :func:`_psd2`), and a stack
of them on entry arrays with the trace-determinant closed form
(:func:`_psd2_stack`), by the same rules and with the same error messages;
large or non-finite norms and failed Hermiticity checks go on to the array
code.  Every eigensolve of a single matrix goes
through one routine, :func:`_eigh`: closed forms at sizes 1 and 2, computed on
entries scaled by a power of 2 so that nothing overflows or underflows, and
LAPACK above (the geometric means' inner eigensolves, at sizes 3 and up and
with no use for phases, call LAPACK directly).  The positivity decisions
that need no spectrum are one shifted Cholesky: :func:`is_positive_definite`,
a yes/no answer for a block (in real arithmetic when the block is real),
:func:`_bordered_positive`, the same answer read from a declared block's
blocks (an outer block declared by its diagonal, as a vector, is never
assembled: only a Schur complement is factored), and
:func:`_certified_full_rank`, which proves that the rank rule calls an
operand full rank so that the decomposition can skip its eigensolve.  Matrix functions (logarithm
on the support, exponential) are applied on the validated
spectrum; ``exp(iH)`` at size 2 is closed-form on the entries
(:func:`_expi2`, which the qubit ordered products call directly).  The
Hermitian part is formed from halves once a sum of entries could
overflow, so no finite entry overflows; of an array the library has just
formed, it is taken in that array's buffer (:func:`_hermitian_part`).
Eigenbases are made
deterministic by ordering eigenvalues ascending and fixing the phase of
each eigenvector (first significant component real positive).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, asdict
from typing import NamedTuple

import numpy as np

from .errors import (DimMismatch, NonHermitian, NotPSD, NotStrictlyPositive, NumericCheckFailure,
                     ValidationError)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances used by every validation and rank decision.

    hermitian : admissible relative Frobenius asymmetry ``||A - A*||``.
    rank_rel  : eigenvalue ``lam`` counts as zero iff ``lam <= rank_rel * lam_max``.
    psd_floor : most negative admissible eigenvalue, relative to ``lam_max``;
                eigenvalues between that floor and 0 are clamped to 0.
    eq_rel    : relative Frobenius tolerance for matrix equality checks.
    """

    hermitian: float = 1e-10
    rank_rel: float = 1e-9
    psd_floor: float = 1e-10
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
    "strict": ToleranceConfig(hermitian=1e-12, rank_rel=1e-12, psd_floor=1e-12, eq_rel=1e-10),
    "extreme-scale": ToleranceConfig(rank_rel=1e-30),
}


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending) and a phase-fixed orthonormal eigenbasis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frob(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def hermitian_part(A: np.ndarray) -> np.ndarray:
    """``(A + A*) / 2``, with no overflow on finite entries.

    Below norm ``2**510`` (of the whole array) no sum of two entries
    overflows, and the sum is halved, exact on the diagonal down to the
    subnormals.  From there on each entry is halved first: the same bits
    wherever the halves are normal numbers, and at most ``2**-1075`` off in
    an entry whose half is subnormal, against a norm above ``2**510``.
    """
    return _hermitian_part(A)


def _hermitian_part(A: np.ndarray, out: np.ndarray | None = None, A_star: np.ndarray | None = None,
                    summable: bool | None = None) -> np.ndarray:
    """The one implementation of :func:`hermitian_part`, written into ``out`` when given: ``A``
    itself when the caller has just formed ``A`` and reads it no more, or a spent temporary of
    ``A``'s shape and dtype (:func:`check_hermitian`'s ``A - A*``).

    The operations are those of ``(A + A*) / 2`` below norm ``2**510`` and
    ``A / 2 + A* / 2`` from there on, each written into the buffer of the one
    before, so the bits are those of the out-of-place forms.  ``A_star`` (a
    fresh conjugate by default) and ``summable`` (a norm below ``2**510``) may
    be passed when :func:`check_hermitian` has them: scanning a ``(10**4, 2,
    2)`` stack again cost a tenth of a Kakutani op.
    """
    if A_star is None:
        A_star = A.conj().swapaxes(-1, -2)
    if summable is None:
        summable = _frob(A, False) < _FROB_SAFE
    if summable:
        H = np.add(A, A_star, out=out)
        return np.true_divide(H, 2, out=H)
    half_star = A_star / 2  # before ``out`` is written: for a real ``A``, ``A*`` is a view of it
    H = np.true_divide(A, 2, out=out)
    return np.add(H, half_star, out=H)


def check_square(A: np.ndarray, stack: bool = False, dtype=complex) -> np.ndarray:
    """``A`` as an array of ``dtype`` (``None`` keeps its own), checked to be square."""
    A = np.asarray(A, dtype=dtype)
    if A.ndim != 2 + stack or A.shape[-1] != A.shape[-2]:
        what = "a stack of square matrices" if stack else "a square matrix"
        raise DimMismatch(f"expected {what}, got shape {A.shape}")
    return A


def _same_shape(A: np.ndarray, *others: np.ndarray) -> None:
    """Raise :class:`DimMismatch` unless every operand has the shape of ``A``."""
    for B in others:
        if B.shape != A.shape:
            raise DimMismatch(f"operand shapes differ: {A.shape} vs {B.shape}")


def _failure(bad, who: str, labels: np.ndarray | None) -> tuple | None:
    """``None`` if ``bad`` flags nothing, else the index and name of the first flagged matrix."""
    if labels is None:
        return ((), who) if bad else None
    hits = np.flatnonzero(bad)
    return (int(hits[0]), f"{who} {labels[hits[0]]}") if hits.size else None


def _frob(A: np.ndarray, stack: bool) -> np.ndarray:
    """Frobenius norm of each matrix as ``sqrt(vdot)``: cheaper than ``np.linalg.norm``,
    and with no warning (just a norm that is not finite) on a NaN, inf or huge entry."""
    if stack:
        return np.sqrt(np.einsum("nij,nij->n", A.conj(), A).real)
    return np.sqrt(np.vdot(A, A).real)


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


#: Below this Frobenius norm neither ``||A||^2`` nor ``||A - A*||^2 <= 4 ||A||^2``
#: overflows.
_FROB_SAFE = 2.0**510

#: Machine epsilon of doubles, read once (``np.finfo`` is a lookup per call).
_EPS = float(np.finfo(float).eps)


def check_hermitian(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, who: str = "matrix",
                    labels: np.ndarray | None = None) -> np.ndarray:
    """Validate Hermiticity and return the exactly-Hermitian part of ``A``.

    With ``labels``, ``A`` is a stack ``(len(labels), d, d)``, and an error
    names its first failing matrix ``"<who> <label>"``.  A matrix with a NaN
    or infinite entry is rejected; it shows as a norm that is not finite, so
    the entries are read again only then, before ``A - A*`` is formed
    (``inf - inf`` would warn).  Matrices of norm ``2**510`` and above, whose
    squares may overflow, are judged by the same rule in units of their
    largest entry, and symmetrised with no overflow (:func:`hermitian_part`).
    One 2x2 matrix is judged on its entries (:func:`_hermitian2`).
    """
    stack = labels is not None
    A = check_square(A, stack=stack)
    if not stack and A.shape[0] == 2:
        return _matrix2(*_hermitian2(A, tol, who))
    return _check_hermitian(A, tol, who, labels)


def _check_hermitian(A: np.ndarray, tol: ToleranceConfig, who: str, labels: np.ndarray | None) -> np.ndarray:
    """:func:`check_hermitian`'s array rule, for a square complex ``A`` (or stack)."""
    stack = labels is not None
    A_star = A.conj().swapaxes(-1, -2)
    size, unit = _frob(A, stack), 1.0
    if large := _failure(~(size < _FROB_SAFE), who, labels):
        if failure := _failure(~np.isfinite(A).all(axis=(-2, -1)), who, labels):
            k, name = failure
            i, j = np.argwhere(~np.isfinite(A[k]))[0]
            raise ValidationError(f"{name} has a non-finite entry [{i}][{j}]={A[k][i, j]}")
        big = np.maximum(np.abs(A).max(axis=(-2, -1), keepdims=True), np.finfo(float).tiny)
        scaled, unit = A / big, 1.0 / big[..., 0, 0]
        diff = scaled - scaled.conj().swapaxes(-1, -2)
        size = _frob(scaled, stack)
    else:
        diff = A - A_star
    dev = _frob(diff, stack)
    if failure := _failure(dev > tol.hermitian * (unit + size), who, labels):
        k, name = failure
        a, dev = A[k], (dev / unit)[k]
        i, j = np.unravel_index(np.argmax(np.abs(diff[k])), a.shape)
        raise NonHermitian(
            f"{name} is not Hermitian: entry [{i}][{j}]={a[i, j]:.6g} vs "
            f"conj([{j}][{i}])={np.conj(a[j, i]):.6g} (deviation {dev:.3e})"
        )
    return _hermitian_part(A, out=diff, A_star=A_star, summable=not large)  # in the spent A - A*


def _hermitian2(A: np.ndarray, tol: ToleranceConfig, who: str) -> tuple[float, complex, float]:
    """:func:`check_hermitian` of one 2x2 complex array, as the entries ``(a, b, c)`` of its
    Hermitian part ``[[a, b], [conj b, c]]``.

    The rule is judged on the four entries as Python scalars; large or
    non-finite norms and failures go on to the array rule, which handles and
    names them.  :func:`_matrix2` builds the array.
    """
    (a, b), (c, d) = A.tolist()
    size = math.sqrt(_abs2(a) + _abs2(b) + _abs2(c) + _abs2(d))
    if size < _FROB_SAFE:
        dev = math.sqrt(4.0 * (a.imag * a.imag + d.imag * d.imag) + 2.0 * _abs2(b - c.conjugate()))
        if not dev > tol.hermitian * (1.0 + size):
            return a.real, (b + c.conjugate()) * 0.5, d.real
    (a, b), (_, d) = _check_hermitian(A, tol, who, None).tolist()
    return a.real, b, d.real


def _matrix2(a: float, b: complex, c: float) -> np.ndarray:
    """The 2x2 Hermitian array ``[[a, b], [conj b, c]]``."""
    return np.array([[a, b], [b.conjugate(), c]], dtype=complex)


def _phase_fix(V: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive."""
    return V * _phases(V)


def _phases(V: np.ndarray) -> np.ndarray:
    """The unit factor of each column that :func:`_phase_fix` multiplies it by."""
    mags = np.abs(V)
    first = (mags > 1e-12 * mags.max(axis=0, initial=0.0)).argmax(axis=0)
    pivot = V[first, np.arange(V.shape[1])]
    # Eigenvector columns are unit vectors, so no pivot is zero.
    return pivot.conj() / np.abs(pivot)


def _ldexp(z: complex, k: int) -> complex:
    """``z * 2**k``, exact wherever the result is a normal number."""
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _phased(x: complex, y: complex) -> tuple[complex, complex]:
    """The unit 2-vector ``(x, y)`` under :func:`_phase_fix`'s rule."""
    p = x if abs(x) > 1e-12 * max(abs(x), abs(y)) else y
    r = p.conjugate() / abs(p)
    return x * r, y * r


def _eig2(a: float, b: complex, c: float, vectors: bool) -> tuple:
    """Closed-form eigensystem ``(lo, hi, V)`` of ``[[a, b], [conj b, c]]`` on Python scalars.

    ``V`` is the eigenvector matrix as nested lists (rows), ``None`` without
    ``vectors``.  Diagonal input is exact.  Otherwise the entries are scaled
    by a power of 2 to unit size, so no product of them overflows or
    underflows, and the eigenvalues are ``tr/2 -+ gap`` with ``gap =
    hypot((a - c)/2, |b|)``, the root of smaller magnitude taken as
    ``det / big`` as in :func:`_spectrum_2x2`.  The larger eigenvalue's
    vector is built from the component that does not cancel, ``gap + delta``
    or ``gap - delta`` with ``delta = (a - c)/2``; the other vector is its
    orthogonal complement.
    """
    e = math.frexp(max(abs(a), abs(c), abs(b)))[1]
    b = _ldexp(b, -e)
    if b == 0:
        # Diagonal, or an off-diagonal entry below the diagonal's resolution.
        if c < a:
            return c, a, ([0j, 1], [1, 0]) if vectors else None
        return a, c, ([1, 0j], [0j, 1]) if vectors else None
    a, c = math.ldexp(a, -e), math.ldexp(c, -e)
    half, delta = (a + c) / 2, (a - c) / 2
    gap = math.hypot(delta, abs(b))
    big = half + math.copysign(gap, half)
    small = (a * c - b.real * b.real - b.imag * b.imag) / big
    lo, hi = (small, big) if half >= 0 else (big, small)
    lo, hi = math.ldexp(min(lo, hi), e), math.ldexp(max(lo, hi), e)
    if not vectors:
        return lo, hi, None
    x, y = (complex(gap + delta), b.conjugate()) if delta >= 0 else (b, complex(gap - delta))
    norm = math.hypot(abs(x), abs(y))
    u0, u1 = _phased(x / norm, y / norm)
    v0, v1 = _phased(-u1.conjugate(), u0.conjugate())
    return lo, hi, ([v0, u0], [v1, u1])


def _eigh2(H: np.ndarray, vectors: bool) -> SpectralDecomposition:
    """Closed-form eigensystem of one Hermitian matrix of size at most 2 (see :func:`_eig2`)."""
    if H.shape[0] < 2:
        return SpectralDecomposition(H.diagonal().real.copy(),
                                     np.eye(H.shape[0], dtype=complex) if vectors else None)
    (a, b), (_, c) = H.tolist()
    lo, hi, V = _eig2(a.real, b, c.real, vectors)
    return SpectralDecomposition(np.array([lo, hi]), np.array(V, dtype=complex) if vectors else None)


def _eigh(H: np.ndarray, vectors: bool = True) -> SpectralDecomposition:
    """The one eigensolver: ascending eigenvalues, and eigenvectors when ``vectors``.

    One matrix gets deterministic phases (:func:`_phase_fix`'s rule), in
    closed form at sizes 1 and 2 (:func:`_eigh2`, no LAPACK call); above, the
    phases are written into LAPACK's fresh eigenvector array, which nothing
    else holds.  A stack keeps LAPACK's phases.  Without ``vectors`` the
    eigenvectors are ``None``.
    """
    if H.ndim == 2 and H.shape[0] <= 2:
        return _eigh2(H, vectors)
    if not vectors:
        return SpectralDecomposition(np.linalg.eigvalsh(H), None)
    w, V = np.linalg.eigh(H)
    if V.ndim == 2:
        V *= _phases(V)
    return SpectralDecomposition(w, V)


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
    ``labels``, a stack as in :func:`check_hermitian` (phases not fixed), by
    LAPACK (:func:`_psd2_stack` takes stacks of 2x2 matrices).  A single
    matrix goes to :func:`_eigh`, in closed form up to size 2, and one 2x2
    matrix is validated on Python scalars (:func:`_psd2`).
    """
    if labels is None and np.shape(A) == (2, 2):
        entries, w, V = _psd2(check_square(A), tol, who, vectors)
        return PSDSpectrum(_matrix2(*entries), np.array(w), None if V is None else np.array(V, dtype=complex))
    return _psd_spectrum(check_hermitian(A, tol, who, labels), tol, who, vectors, labels)


def _psd_spectrum(H: np.ndarray, tol: ToleranceConfig, who: str, vectors: bool,
                  labels: np.ndarray | None = None) -> PSDSpectrum:
    """:func:`psd_spectrum` of ``H`` that :func:`check_hermitian` has validated."""
    w, V = _eigh(H, vectors)
    lo, hi = (w[..., 0], w[..., -1]) if w.shape[-1] else (np.zeros(w.shape[:-1]),) * 2
    _psd_floor(lo, hi, tol, who, labels)
    return PSDSpectrum(H, np.maximum(w, 0.0), V)


def _psd_floor(lo, hi, tol: ToleranceConfig, who: str, labels: np.ndarray | None, k=0) -> None:
    """Raise :class:`NotPSD` for the first ``lo < -psd_floor * max(hi, -lo)``, in units of ``4**k``."""
    floor = -tol.psd_floor * np.maximum(hi, -lo)
    if failure := _failure(lo < floor, who, labels):
        j, name = failure
        raise _below_floor(name, *(np.ldexp(x, 2 * k)[j] for x in (lo, floor)))


def _below_floor(name: str, lo: float, floor: float) -> NotPSD:
    return NotPSD(f"{name} has eigenvalue {lo:.3e} below the PSD floor {floor:.3e}")


def _psd2(A: np.ndarray, tol: ToleranceConfig, who: str, vectors: bool) -> tuple:
    """:func:`psd_spectrum` of one 2x2 complex array, on Python scalars.

    Returns the entries ``(a, b, c)`` of the validated Hermitian part
    ``[[a, b], [conj b, c]]`` (:func:`_hermitian2`), the clamped eigenvalues
    ``(lo, hi)`` and the eigenvectors as :func:`_eig2` gives them; the PSD
    floor and clamp are :func:`_psd_floor`'s, on Python scalars.
    """
    entries = _hermitian2(A, tol, who)
    lo, hi, V = _eig2(*entries, vectors)
    floor = -tol.psd_floor * max(hi, -lo)
    if lo < floor:
        raise _below_floor(who, lo, floor)
    return entries, (max(lo, 0.0), max(hi, 0.0)), V


def _psd2_stack(A: np.ndarray, tol: ToleranceConfig, who: str, labels: np.ndarray) -> tuple:
    """:func:`_psd2` over a stack ``(N, 2, 2)``, on entry arrays: :func:`_hermitian2`'s rule (failures,
    norms from ``2**510`` and non-finite entries go to the array rule, which names them), then, in units
    of ``4**k`` by :func:`_unit4`'s rule on each largest entry (exact; no product over- or underflows),
    :func:`_spectrum_2x2`, :func:`_psd_floor`, clamp.  Returns scaled ``(a, Re b, Im b, c)``, ``lo, hi, k``."""
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    with np.errstate(over="ignore"):  # a square that overflows leaves a norm past _FROB_SAFE
        size = np.sqrt(_abs2(a) + _abs2(b) + _abs2(c) + _abs2(d))
    hermitian = (size < _FROB_SAFE).all()
    if hermitian:  # finite entries only: inf - inf would warn
        dev = np.sqrt(4.0 * (a.imag * a.imag + d.imag * d.imag) + 2.0 * _abs2(b - c.conj()))
        hermitian = not (dev > tol.hermitian * (1.0 + size)).any()
    if hermitian:
        b = (b + c.conj()) * 0.5
    else:
        H = _check_hermitian(A, tol, who, labels)
        a, b, d = H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]
    a, c, b_abs, b_re, b_im = a.real, d.real, np.abs(b), b.real, b.imag
    k = np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(c)), b_abs))[1] // 2  # _unit4, per matrix
    if k.any():  # units of 4**0 change nothing: no copies then
        a, c, b_abs, b_re, b_im = (np.ldexp(x, -2 * k) for x in (a, c, b_abs, b_re, b_im))
    lo, hi = _spectrum_2x2(a + c, a * c - b_abs * b_abs, np.hypot((a - c) / 2, b_abs))
    _psd_floor(lo, hi, tol, who, labels, k)
    return (a, b_re, b_im, c), np.maximum(lo, 0.0), np.maximum(hi, 0.0), k


def _spectrum_2x2(tr: np.ndarray, det: np.ndarray, gap: np.ndarray | None = None) -> tuple:
    """Eigenvalues ``(lo, hi) = tr/2 -+ gap`` of 2x2 Hermitian matrices from trace and determinant.

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
    return np.minimum(small, big), np.maximum(small, big)


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


def psd_log_on_support(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Logarithm on the support of a PSD matrix; the kernel is mapped to 0."""
    _, w, V = psd_spectrum(A, tol)
    mask = support_mask(w, tol)
    L = (V * np.where(mask, np.log(np.where(mask, w, 1.0)), 0.0)) @ V.conj().T
    return _hermitian_part(L, out=L)


def herm_exp(A: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Exponential of a Hermitian matrix."""
    w, V = _eigh(check_hermitian(A, tol))
    E = (V * np.exp(w)) @ V.conj().T
    return _hermitian_part(E, out=E)


def unitary_exp(H: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """``exp(iH)`` for Hermitian ``H`` (result is unitary, not Hermitian); closed-form
    at size 2 (:func:`_expi2`)."""
    if np.shape(H) == (2, 2):
        return _expi2(*_hermitian2(check_square(H), tol, "matrix"))
    w, V = _eigh(check_hermitian(H, tol))
    return (V * np.exp(1j * w)) @ V.conj().T


def _expi2(a: float, b: complex, c: float) -> np.ndarray:
    """``exp(iH)`` of ``H = [[a, b], [conj b, c]]``, with no eigenvector.

    With ``t = Tr H / 2`` and ``g = hypot((a - c)/2, |b|)``,
    ``exp(iH) = e^{it} (cos g I + i (sin g / g) (H - t I))``; ``t`` and
    ``(a - c)/2`` are formed from halves, so no finite entry overflows.
    """
    t, delta = a / 2 + c / 2, a / 2 - c / 2
    g = math.hypot(delta, abs(b))
    cos_g, sinc_g = math.cos(g), (math.sin(g) / g if g else 1.0)
    phase = cmath.exp(1j * t)
    off = 1j * sinc_g * phase
    return np.array([[(cos_g + 1j * sinc_g * delta) * phase, off * b],
                     [off * b.conjugate(), (cos_g - 1j * sinc_g * delta) * phase]])


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
    The zero matrix and indefinite matrices give False, and a NaN or
    infinite entry raises :class:`ValidationError`.  A matrix whose
    imaginary part is exactly zero is decided on its real part, by a real
    Cholesky (about a third of the complex one's cost) and with no complex
    copy.  :func:`_bordered_positive` decides a matrix given as blocks,
    without assembling it when its outer block is declared by its diagonal.
    """
    A = check_square(A, dtype=None)
    if np.iscomplexobj(A) and not A.imag.any():
        A = A.real
    with np.errstate(invalid="ignore"):  # an infinite entry shows as a bound that is not finite
        H = hermitian_part(A)
    return _shifted_cholesky(H, strict)


def _finite_bound(bound: float) -> float:
    """A row-sum bound after any rescaling, refused unless finite: only a NaN or
    infinite entry leaves it so."""
    if not math.isfinite(bound):
        raise ValidationError("matrix has a non-finite entry")
    return bound


def _shifted_cholesky(H: np.ndarray, strict: float, restore: bool = False) -> bool:
    """:func:`is_positive_definite` of a Hermitian ``H``, which it overwrites unless ``restore``
    (see :func:`_factors`).

    When ``||H||_inf`` lies outside ``2**-500 ... 2**500`` (or a row sum
    overflows), ``H`` is first scaled by a power of 4 near its largest entry,
    exactly, so that nothing in the factorisation underflows or overflows;
    inside that range scaling would change no bit of the decision.  A bound
    that is still not finite raises :class:`ValidationError`.
    """
    with np.errstate(over="ignore"):
        bound = float(np.abs(H).sum(axis=1).max(initial=0.0))
    if not 2.0**-500 < bound < 2.0**500:
        H = _scaled4(H)[0]
        bound = _finite_bound(float(np.abs(H).sum(axis=1).max(initial=0.0)))
    return _factors(H, strict * bound, restore)


def _factors(H: np.ndarray, shift: float, restore: bool = False) -> bool:
    """Whether ``H - shift * I`` (formed in ``H``) has a Cholesky factor; with ``restore``,
    ``H``'s diagonal is put back, bit for bit, before it returns or raises."""
    step = len(H) + 1
    diagonal = H.flat[::step]  # a copy
    H.flat[::step] = diagonal - shift
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    finally:
        if restore:
            H.flat[::step] = diagonal
    return True


def _bordered_bound(a: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """``||H||_inf`` of ``H = [[diag(a), B], [B*, C]]``: the larger of its two blocks of row sums."""
    absB = np.abs(B)
    with np.errstate(over="ignore"):
        top = (np.abs(a) + absB.sum(axis=1)).max(initial=0.0)
        return float(np.maximum(top, (absB.sum(axis=0) + np.abs(C).sum(axis=1)).max(initial=0.0)))


def _bordered_positive(A: np.ndarray, B: np.ndarray, C: np.ndarray, strict: float) -> bool:
    """:func:`is_positive_definite` of ``[[A, B], [B*, C]]``, read from its blocks.

    The outer block ``A`` is declared either as an ``n x n`` matrix or, 1-D,
    by its diagonal: a vector ``a`` stands for ``diag(a)``.  A 2-D ``A`` is
    decided on the assembled matrix's shifted Cholesky.  A diagonal one is
    never assembled, and the rule is the same: ``t = strict * ||H||_inf``,
    ``H`` the Hermitian part, whose rows are ``|Re a_i| + sum_j |B_ij|`` and
    the column sums of ``|B|`` plus the row sums of ``|herm C|``, taken in
    units of a power of 4 as in :func:`_shifted_cholesky` outside ``2**-500
    ... 2**500``; ``H - t I > 0`` iff ``D = Re a - t > 0`` and the Schur
    complement ``herm(C) - t I - B* D^{-1} B > 0`` (Horn & Johnson, Matrix
    Analysis, Thm 7.7.7).  That complement is the trailing block a Cholesky
    factorisation reaches after eliminating ``D``, so only a ``C``-sized
    matrix is factored and nothing of size ``n x n`` is formed.  Blocks that
    do not border each other raise :class:`DimMismatch`; a NaN or infinite
    entry raises :class:`ValidationError` on either route.
    """
    n = len(A) if A.ndim else -1
    if not (A.shape in ((n,), (n, n)) and B.ndim == 2 and B.shape[0] == n
            and C.shape == (B.shape[1],) * 2):
        raise DimMismatch(f"outer block {A.shape}, coupling {B.shape} and inner block {C.shape} "
                          "do not border each other")
    if A.ndim == 2:
        return is_positive_definite(np.block([[A, B], [B.conj().T, C]]), strict)
    with np.errstate(invalid="ignore"):  # as in is_positive_definite
        a, C = A.real, hermitian_part(C)
    bound = _bordered_bound(a, B, C)
    if not 2.0**-500 < bound < 2.0**500:
        big = np.max([np.abs(X).max(initial=0.0) for X in (a, B, C)])
        k = -2 * _unit4(float(big))
        a, B, C = _times2(a, k), _times2(B, k), _times2(C, k)
        bound = _finite_bound(_bordered_bound(a, B, C))
    shift = strict * bound
    d = a - shift
    if not (d > 0).all():
        return False
    # A tiny pivot against a coupling may overflow W: that complement is
    # hugely negative, and its non-finite entries fail the factorisation.
    with np.errstate(over="ignore", invalid="ignore"):
        W = B / np.sqrt(d)[:, None]
        S = C - W.conj().T @ W
    return _factors(S, shift)


#: The full-rank certificate's rounding margin, in units of ``d * eps``: room
#: for the backward error of the shifted Cholesky and for that of the
#: eigensolver whose rank decision the certificate stands in for.
_CERT_MARGIN = 8


def _certified_full_rank(H: np.ndarray, tol: ToleranceConfig) -> bool:
    """Whether the rank rule calls the validated Hermitian ``H`` full rank, shown with no eigensolve.

    :func:`is_positive_definite`'s shifted Cholesky with ``strict = rank_rel
    + c d eps``: a factor of ``H - strict ||H||_inf I`` proves ``lam_min >
    strict ||H||_inf >= (rank_rel + c d eps) lam_max``, so the eigenvalues an
    eigensolver computes all clear ``rank_rel * lam_max``, and ``H`` clears
    the PSD floor.  False means "decide by the spectrum": the factorisation
    failed, or ``rank_rel < d eps``, where no eigensolver resolves the cutoff
    either.  The shift is written into ``H``'s own diagonal (unless ``H`` is
    rescaled first, into a copy), and the diagonal is put back, bit for bit,
    before it returns or raises.
    """
    d = H.shape[0]
    if tol.rank_rel < d * _EPS:
        return False
    return _shifted_cholesky(H, tol.rank_rel + _CERT_MARGIN * d * _EPS, restore=True)


def _resolved_det2(a: float, c: float, b: complex) -> float:
    """Determinant of ``[[a, b], [conj(b), c]]``, refused unless it is positive."""
    det = a * c - (b * b.conjugate()).real
    if not det > 0:
        raise NumericCheckFailure(
            f"2x2 geometric mean unresolved: a determinant ({det:.3e}) is not positive "
            "at working precision")
    return det


def _unit4(x: float) -> int:
    """``k`` with ``x / 4**k`` in ``[1/4, 2)``: a scale whose square root is a power of 2."""
    return math.frexp(x)[1] // 2


def _root(x: float, y: float, inverse: bool = False) -> float:
    """``sqrt(x y)``, or ``sqrt(x / y)`` when ``inverse``, for ``x, y > 0``, taken on ``x`` and
    ``y`` scaled by powers of 4: the unscaled value bit for bit wherever that is a normal
    number, and no overflow or underflow in between wherever the result is representable."""
    kx, ky = _unit4(x), _unit4(y)
    x, y = math.ldexp(x, -2 * kx), math.ldexp(y, -2 * ky)
    return math.ldexp(math.sqrt(x / y if inverse else x * y), kx - ky if inverse else kx + ky)


def _times2(A: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """``A * 2**k`` in two factors that are normal floats: exact wherever the result is normal.

    Both products are written into one buffer: ``out`` when given (``A``
    itself, when the caller has just formed ``A`` and reads it no more), else
    one new array.  ``k = 0`` returns ``A`` itself.
    """
    if not k:
        return A
    h = k // 2
    P = np.multiply(A, math.ldexp(1.0, h), out=out)
    return np.multiply(P, math.ldexp(1.0, k - h), out=P)


def _scaled4(A: np.ndarray) -> tuple[np.ndarray, int]:
    """``(A / 4**k, k)`` with the largest entry of ``A / 4**k`` in ``[1/4, 2)`` (see :func:`_unit4`)."""
    k = _unit4(float(np.abs(A).max(initial=0.0)))
    return _times2(A, -2 * k), k


def _diag_mean2(c0: float, c1: float, m00: float, m01: complex, m11: float,
                inverse: bool = False) -> tuple[float, complex, float]:
    """:func:`_diag_mean` at size 2 on Python scalars: entries ``(n00, n01, n11)`` of
    ``diag(c0, c1) # M^{+-1}`` for ``M = [[m00, m01], [conj m01, m11]]``."""
    # Determinant closed form; unlike the spectral route it stays accurate
    # when the eigenvalue range approaches 1/eps^2.  The mean is jointly
    # homogeneous, (x C) # (y M)^{+-1} = sqrt(x y^{+-1}) C # M^{+-1}, so it
    # is taken on C and M scaled by powers of 4 to unit size: exactly, and
    # no product of entries overflows or underflows.
    kc, km = _unit4(max(c0, c1)), _unit4(max(abs(m00), abs(m11), abs(m01)))
    c0, c1 = math.ldexp(c0, -2 * kc), math.ldexp(c1, -2 * kc)
    m00, m11, m01 = math.ldexp(m00, -2 * km), math.ldexp(m11, -2 * km), _ldexp(m01, -2 * km)
    dm = _resolved_det2(m00, m11, m01)
    if inverse:
        m00, m11, m01, dm = m11 / dm, m00 / dm, -m01 / dm, 1.0 / dm
    dc = c0 * c1
    root_dm, root_dc = math.sqrt(dm), math.sqrt(dc)
    n00, n11, n01 = root_dm * c0 + root_dc * m00, root_dm * c1 + root_dc * m11, root_dc * m01
    q, r = (dc * dm) ** 0.25, math.sqrt(_resolved_det2(n00, n11, n01))
    scale = math.ldexp(1.0, kc - km if inverse else kc + km)
    return n00 * q / r * scale, n01 * q / r * scale, n11 * q / r * scale


def _diag_mean(c: np.ndarray, M: np.ndarray, inverse: bool, F: np.ndarray) -> np.ndarray:
    """``F (C # M) F*``, or ``F (C # M^{-1}) F*`` when ``inverse``, for ``C = diag(c) > 0`` and
    ``M > 0``: ``(F Z) diag(f) (F Z)*`` with the factor of :func:`_diag_mean_factor`.

    Sizes 1 and 2 use closed forms (:func:`_root`, :func:`_diag_mean2`; the adjugate for a
    2x2 inverse); a 2x2 ``M`` whose determinant is not positive at working precision
    raises :class:`NumericCheckFailure`.
    """
    if c.size > 2:
        Z, f = _diag_mean_factor(c, M, inverse)
        FZ = F @ Z
        del Z
        FZ_h = FZ.conj().T
        FZ *= f
        R = FZ @ FZ_h
        del FZ, FZ_h
        return _hermitian_part(R, out=R)
    if c.size == 1:
        N = np.array([[_root(float(c[0]), M.real.item(), inverse)]], dtype=complex)
    else:
        (m00, m01), (m10, m11) = M.tolist()
        n00, n01, n11 = _diag_mean2(*c.tolist(), m00.real, (m01 + m10.conjugate()) / 2, m11.real, inverse)
        N = np.array([[n00, n01], [n01.conjugate(), n11]], dtype=complex)
    R = F @ N @ F.conj().T
    return _hermitian_part(R, out=R)


def _diag_mean_factor(c: np.ndarray, M: np.ndarray, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(Z, f)`` with ``C # M^{+-1} = Z diag(f) Z*``, for ``C = diag(c) > 0`` and ``M > 0``.

    ``C # M^{+-1} = C^{1/2} (C^{-+1/2} M C^{-+1/2})^{+-1/2} C^{1/2}`` (Cholesky mean with the
    diagonal factor ``C^{1/2}``): with the inner ``V diag(w) V*``, ``Z = C^{1/2} V`` and
    ``f = w^{+-1/2}``.  The mean is jointly homogeneous, so ``C`` and ``M`` are scaled by powers of
    4 to unit size and the scale put back on ``f``: exact, and finite wherever the mean is.
    """
    (c, kc), (M, km) = _scaled4(c), _scaled4(M)
    root = np.sqrt(c)
    scale = root if inverse else 1.0 / root
    S = scale[:, None] * M
    del M
    S *= scale
    w, V = np.linalg.eigh(_hermitian_part(S, out=S))
    del S
    # Eigenvalues below eps * w_max are rounding (M > 0): the square root maps
    # them to 0, the inverse square root to that of the resolution limit.
    w = np.maximum(w, _EPS * w[-1] if inverse else 0.0)
    return root[:, None] * V, _times2(w ** (-0.5 if inverse else 0.5), kc - km if inverse else kc + km)


#: Largest triangular block that :func:`_solve_upper` hands to ``np.linalg.solve`` whole.
_SOLVE_LEAF = 64


def _solve_upper(U: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``U^{-1} B`` for an upper-triangular ``U`` by back-substitution by halves, ``X2 = U22^{-1} B2``
    and ``X1 = U11^{-1} (B1 - U12 X2)``: the updates are products, and a block of at most
    ``_SOLVE_LEAF`` rows goes to ``np.linalg.solve`` whole (so up to that size it is LAPACK's)."""
    n = len(U)
    if n <= _SOLVE_LEAF:
        return np.linalg.solve(U, B)
    h = n // 2
    X = np.empty(B.shape, dtype=np.result_type(U, B))
    X[h:] = _solve_upper(U[h:, h:], B[h:])
    X[:h] = _solve_upper(U[:h, :h], B[:h] - U[:h, h:] @ X[h:])
    return X


def _tri_mean(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``rho^{-1} # sigma``, the ``R >= 0`` with ``R rho R = sigma``, for ``rho > 0`` and ``sigma >= 0``.

    Cholesky form with one eigensolve: ``rho = L L*``, ``L* sigma L = V diag(w) V*``
    and ``R = Y diag(sqrt w) Y*`` with ``Y = L^{-*} V``, by back-substitution on
    the triangular ``L*`` (:func:`_solve_upper`).  No inverse or inverse square
    root of either operand is formed, and ``R`` is as accurate as the pair's
    conditioning allows (Iannazzo, Numer. Linear Algebra Appl. 23 (2016)).
    Like :func:`_diag_mean` it is taken on operands scaled by powers of 4.  Each
    d x d temporary is released after its last reader, and ``R``'s Hermitian
    part and scale are written into the product that forms it.
    """
    (rho, kr), (sigma, ks) = _scaled4(rho), _scaled4(sigma)
    L = np.linalg.cholesky(rho)
    del rho
    L_h = L.conj().T
    M = L_h @ sigma
    del sigma
    M = M @ L
    del L
    w, V = np.linalg.eigh(_hermitian_part(M, out=M))
    del M
    Y = _solve_upper(L_h, V)
    del L_h, V
    Y_h = Y.conj().T
    Y *= np.sqrt(np.maximum(w, 0.0))
    R = Y @ Y_h
    del Y, Y_h
    return _times2(_hermitian_part(R, out=R), ks - kr, out=R)


def geometric_mean(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Operator geometric mean of strictly positive matrices.

    Returns the unique positive ``X`` with ``X A^{-1} X = B``, evaluated as
    ``V (diag(a) # V* B V) V*`` in the eigenbasis ``A = V diag(a) V*`` that
    validation computes (see :func:`_diag_mean`).
    """
    a = _check_strictly_positive(A, tol, "first operand")
    b = _check_strictly_positive(B, tol, "second operand")
    _same_shape(a.mat, b.mat)
    V = a.eigenvectors
    return _diag_mean(a.eigenvalues, V.conj().T @ b.mat @ V, inverse=False, F=V)


def mat_close(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Relative Frobenius equality test at ``tol.eq_rel``."""
    return frob(np.asarray(A) - np.asarray(B)) <= tol.eq_rel * (1.0 + frob(np.asarray(B)))
