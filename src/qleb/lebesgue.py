"""Excision, absolute continuity, and the noncommutative Lebesgue decomposition.

Given positive operators ``sigma`` and ``rho``, the decomposition splits
``sigma = ac + perp`` where ``ac = R rho R`` is absolutely continuous with
respect to ``rho``, ``perp`` is singular (``Tr rho perp = 0``), and ``R`` is
the canonical square-root likelihood ratio.  The construction works in a
three-block orthonormal basis adapted to the pair:

    H1 = kernel of (sigma restricted to supp rho)
    H2 = support of (sigma restricted to supp rho)
    H3 = kernel of rho

in which ``rho`` has no H3 component, ``sigma`` has no H1 component, and the
H2 block of sigma is strictly positive.  ``R`` is assembled from the operator
geometric mean ``sigma0 # rho0^{-1}`` of the H2 blocks, taken in the basis
where one of them is diagonal (see :func:`matcore._diag_mean`).  The
canonical choice sets the free kernel component of ``R`` to zero.

``excision``, ``is_singular`` (H2 empty), ``is_abs_continuous`` (H1 empty),
``lebesgue_decompose`` and ``quantum_log_likelihood`` all read one split, in
which each operand is validated once and every zero/nonzero decision is the
rank rule of :func:`matcore.support_mask`, so they cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import NotStrictlyPositive, ZeroState
from .matcore import DEFAULT_TOL, ToleranceConfig, hermitian_part


class DensityMatrix:
    """A validated quantum state: Hermitian, PSD, trace one.

    ``subnormalized=True`` relaxes the trace constraint to ``0 < Tr <= 1``,
    which is needed for diagonostics on blocks of larger states.
    """

    def __init__(
        self,
        mat: np.ndarray,
        subnormalized: bool = False,
        trace_tol: float = 1e-10,
        tol: ToleranceConfig = DEFAULT_TOL,
    ) -> None:
        mat = matcore.psd_spectrum(mat, tol, "state", vectors=False).mat
        tr = float(np.trace(mat).real)
        if subnormalized:
            if not 0.0 < tr <= 1.0 + trace_tol:
                raise ZeroState(f"subnormalized state must have trace in (0, 1], got {tr:.6g}")
        elif abs(tr - 1.0) > trace_tol:
            raise ZeroState(f"state trace {tr:.12g} differs from 1 beyond {trace_tol:.1e}")
        self.mat = mat
        self.subnormalized = subnormalized
        self.trace_tol = trace_tol

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _mat(x) -> np.ndarray:
    return x.mat if isinstance(x, DensityMatrix) else np.asarray(x, dtype=complex)


def _as_positive_operator(x, tol: ToleranceConfig, who: str, vectors: bool = True) -> matcore.PSDSpectrum:
    """Validate a DensityMatrix or array as a nonzero positive operator."""
    op = matcore.psd_spectrum(_mat(x), tol, who, vectors)
    if not op.eigenvalues.any():
        raise ZeroState(f"{who} is the zero operator")
    return op


class _Split(NamedTuple):
    """``sigma`` and ``rho`` validated once each, split into H1 + H2 + H3.

    ``supp_r``/``ker_r`` are rho's support and kernel bases (H1 + H2 and H3),
    ``w_r`` rho's support eigenvalues, ``ex`` the excision of sigma onto supp
    rho in the ``supp_r`` basis with ascending eigenvalues ``wx``, and ``h2``
    marks those spanning H2 (a top segment); the others span H1.  ``Vx`` holds
    the excision's phase-fixed eigenvectors when they were asked for and rho
    is not faithful, else ``None``; for faithful rho the excision is sigma in
    rho's eigenbasis and ``wx`` is sigma's validated spectrum.
    """

    s: np.ndarray
    supp_r: np.ndarray
    ker_r: np.ndarray
    w_r: np.ndarray
    ex: np.ndarray
    wx: np.ndarray
    Vx: np.ndarray | None
    h2: np.ndarray


def _split(sigma, rho, tol: ToleranceConfig, vectors: bool = False) -> _Split:
    """The three-block split of ``sigma`` relative to ``rho``.

    The excision's eigenvectors are taken only with ``vectors``: the
    predicates read its eigenvalues alone.  Every zero/nonzero decision is
    the rank rule of :func:`matcore.support_mask`: rho's eigenvalues are
    measured against rho's largest eigenvalue, the excision's against
    sigma's, so a compression that is rounding noise never counts as a
    support.
    """
    s = _as_positive_operator(sigma, tol, "sigma", vectors=False)
    r = _as_positive_operator(rho, tol, "rho")
    if s.mat.shape != r.mat.shape:
        raise matcore.DimMismatch(f"operand shapes differ: {s.mat.shape} vs {r.mat.shape}")
    supp = matcore.support_mask(r.eigenvalues, tol)
    supp_r = r.eigenvectors[:, supp]
    ex = hermitian_part(supp_r.conj().T @ s.mat @ supp_r)
    wx, Vx = (s.eigenvalues, None) if supp.all() else matcore._eigh(ex, vectors)
    h2 = matcore.support_mask(wx, tol, lam_max=s.eigenvalues[-1])
    return _Split(s.mat, supp_r, r.eigenvectors[:, ~supp], r.eigenvalues[supp], ex, wx, Vx, h2)


def excision(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Compression of ``sigma`` onto the support of ``rho``.

    Returned in the deterministic eigenbasis of ``rho`` (ascending eigenvalues,
    phase-fixed), with dimension equal to the rank of ``rho``.
    """
    return _split(sigma, rho, tol).ex


def is_singular(rho, sigma, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Mutual singularity: H2 is empty, i.e. ``lebesgue_decompose(sigma, rho).ac == 0``."""
    return not np.any(_split(sigma, rho, tol).h2)


def is_abs_continuous(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """``a << b``: H1 of ``b`` relative to ``a`` is empty (the excision is strictly positive)."""
    return bool(np.all(_split(b, a, tol).h2))


def is_mutually_ac(rho, sigma, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Both ``rho << sigma`` and ``sigma << rho``."""
    return is_abs_continuous(rho, sigma, tol) and is_abs_continuous(sigma, rho, tol)


@dataclass
class SupportSplit:
    """Orthonormal bases of the three-block decomposition H1 + H2 + H3."""

    basis_1: np.ndarray
    basis_2: np.ndarray
    basis_3: np.ndarray
    dims: tuple[int, int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.dims = (self.basis_1.shape[1], self.basis_2.shape[1], self.basis_3.shape[1])


@dataclass
class LebesgueDecomposition:
    """Result bundle: ``sigma = ac + perp`` with ``ac = sqrt_lr rho sqrt_lr``."""

    ac: np.ndarray
    perp: np.ndarray
    sqrt_lr: np.ndarray
    split: SupportSplit


def _decompose(sp: _Split) -> LebesgueDecomposition:
    s = sp.s
    empty = np.zeros((s.shape[0], 0), dtype=complex)
    if not np.any(sp.h2):
        # Mutually singular: ac = 0, perp = sigma, sqrt_lr = 0.
        split = SupportSplit(basis_1=sp.supp_r, basis_2=empty, basis_3=sp.ker_r)
        zero = np.zeros_like(s)
        return LebesgueDecomposition(ac=zero, perp=s.copy(), sqrt_lr=zero.copy(), split=split)

    basis_3 = sp.ker_r
    if np.all(sp.h2):
        # Full-rank excision: H2 is supp(rho) in rho's eigenbasis, so sigma0 is
        # the excision itself and rho's block is exactly diagonal.
        # (V0 is None only for faithful rho, where H3 is empty and E unused.)
        basis_1, basis_2 = empty, sp.supp_r
        sigma0, w0, V0 = sp.ex, sp.wx, sp.Vx
        R0 = matcore._diag_mean(1.0 / sp.w_r, sigma0)
    else:
        # In the excision eigenbasis sigma0 is diagonal; rho's block is not.
        # The split fixed the H2 count; both spectra ascend, so h2 selects the
        # same top segment of this eigensolve.
        wx, Vx = (sp.wx, sp.Vx) if sp.Vx is not None else matcore._eigh(sp.ex)
        P = Vx[:, sp.h2]
        basis_1, basis_2 = sp.supp_r @ Vx[:, ~sp.h2], sp.supp_r @ P
        w0, V0 = wx[sp.h2], None
        sigma0 = np.diag(w0).astype(complex)
        R0 = matcore._diag_mean(w0, (P.conj().T * sp.w_r) @ P, inverse=True)

    # With alpha = sigma's H2-H3 block and E = sigma0^{-1} alpha, ac and R are
    # [I, E]* X [I, E] in the H2 + H3 basis (X = sigma0, R0), i.e. F X F* with
    # F = basis_2 + basis_3 E*; perp = beta - alpha* E lives on H3 alone.
    if basis_3.shape[1]:
        alpha = basis_2.conj().T @ s @ basis_3
        E = alpha / w0[:, None] if V0 is None else (V0 / w0) @ (V0.conj().T @ alpha)
        schur = hermitian_part(basis_3.conj().T @ s @ basis_3 - alpha.conj().T @ E)
        perp = hermitian_part(basis_3 @ schur @ basis_3.conj().T)
        F = basis_2 + basis_3 @ E.conj().T
    else:
        F, perp = basis_2, np.zeros_like(s)
    F_h = F.conj().T
    return LebesgueDecomposition(ac=hermitian_part(F @ sigma0 @ F_h), perp=perp,
                                 sqrt_lr=hermitian_part(F @ R0 @ F_h),
                                 split=SupportSplit(basis_1, basis_2, basis_3))


def lebesgue_decompose(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> LebesgueDecomposition:
    """Decompose ``sigma`` relative to ``rho`` and return the canonical ratio.

    Mutually singular pairs (empty H2) short-circuit to ``ac = 0``,
    ``perp = sigma``, ``sqrt_lr = 0``.  Otherwise the three-block
    construction applies; the kernel component of ``sqrt_lr`` is fixed to
    zero (canonical choice), so repeated calls are reproducible.
    """
    return _decompose(_split(sigma, rho, tol, vectors=True))


def sqrt_likelihood_ratio(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Canonical square-root likelihood ratio ``R`` with ``R rho R = ac``."""
    return lebesgue_decompose(sigma, rho, tol).sqrt_lr


def quantum_log_likelihood(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Log-likelihood ratio ``L = 2 log(sigma # rho^{-1})`` for faithful states.

    Satisfies ``exp(L/2) rho exp(L/2) = sigma``; both arguments must be
    strictly positive definite, which the split reads as empty H1 and H3.
    """
    sp = _split(sigma, rho, tol)
    if sp.ker_r.shape[1]:
        raise NotStrictlyPositive("rho must be strictly positive definite")
    if not np.all(sp.h2):
        raise NotStrictlyPositive("sigma must be strictly positive definite")
    return 2.0 * matcore.psd_log_on_support(_decompose(sp).sqrt_lr, tol)
