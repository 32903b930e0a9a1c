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
geometric mean of that block with the inverse of the corresponding rho block.
The canonical choice sets the free kernel component of ``R`` to zero.

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
    rho in the ``supp_r`` basis with spectrum ``(wx, Vx)`` (phases not yet
    fixed), and ``h2`` marks the excision eigenvectors spanning H2; the
    others span H1.
    """

    s: np.ndarray
    supp_r: np.ndarray
    ker_r: np.ndarray
    w_r: np.ndarray
    ex: np.ndarray
    wx: np.ndarray
    Vx: np.ndarray
    h2: np.ndarray


def _split(sigma, rho, tol: ToleranceConfig) -> _Split:
    """The three-block split of ``sigma`` relative to ``rho``.

    Every zero/nonzero decision is the rank rule of
    :func:`matcore.support_mask`: rho's eigenvalues are measured against
    rho's largest eigenvalue, the excision's against sigma's, so a
    compression that is rounding noise never counts as a support.
    """
    s = _as_positive_operator(sigma, tol, "sigma", vectors=False)
    r = _as_positive_operator(rho, tol, "rho")
    if s.mat.shape != r.mat.shape:
        raise matcore.DimMismatch(f"operand shapes differ: {s.mat.shape} vs {r.mat.shape}")
    supp = matcore.support_mask(r.eigenvalues, tol)
    supp_r = r.eigenvectors[:, supp]
    ex = hermitian_part(supp_r.conj().T @ s.mat @ supp_r)
    wx, Vx = np.linalg.eigh(ex)
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

    @property
    def full_basis(self) -> np.ndarray:
        return np.hstack([self.basis_1, self.basis_2, self.basis_3])


@dataclass
class LebesgueDecomposition:
    """Result bundle: ``sigma = ac + perp`` with ``ac = sqrt_lr rho sqrt_lr``."""

    ac: np.ndarray
    perp: np.ndarray
    sqrt_lr: np.ndarray
    split: SupportSplit


def _on_h2_h3(d: int, d1: int, top: np.ndarray, off: np.ndarray, corner: np.ndarray) -> np.ndarray:
    """The d x d block matrix ``[[0, 0, 0], [0, top, off], [0, off*, corner]]``."""
    out = np.zeros((d, d), dtype=complex)
    out[d1:, d1:] = np.block([[top, off], [off.conj().T, corner]])
    return out


def _decompose(sp: _Split, tol: ToleranceConfig) -> LebesgueDecomposition:
    s = sp.s
    d = s.shape[0]
    empty = np.zeros((d, 0), dtype=complex)
    if not np.any(sp.h2):
        # Mutually singular: ac = 0, perp = sigma, sqrt_lr = 0.
        split = SupportSplit(basis_1=sp.supp_r, basis_2=empty, basis_3=sp.ker_r)
        zero = np.zeros_like(s)
        return LebesgueDecomposition(ac=zero, perp=s.copy(), sqrt_lr=zero.copy(), split=split)

    if np.all(sp.h2):
        # Full-rank excision: H2 is supp(rho) in rho's eigenbasis, so sigma0 is
        # the excision itself and rho's block is exactly diagonal.
        basis_1, basis_2 = empty, sp.supp_r
        sigma0, w0, V0 = sp.ex, sp.wx, sp.Vx
        rho0_inv = np.diag(1.0 / sp.w_r).astype(complex)
    else:
        # In the excision eigenbasis sigma0 is diagonal; rho's block is not.
        Vx = matcore._phase_fix(sp.Vx)
        P = Vx[:, sp.h2]
        basis_1, basis_2 = sp.supp_r @ Vx[:, ~sp.h2], sp.supp_r @ P
        w0 = sp.wx[sp.h2]
        V0 = np.eye(w0.size, dtype=complex)
        sigma0 = np.diag(w0).astype(complex)
        w_r0, V_r0 = np.linalg.eigh(hermitian_part((P.conj().T * sp.w_r) @ P))
        rho0_inv = hermitian_part((V_r0 * (1.0 / w_r0)) @ V_r0.conj().T)
    basis_3 = sp.ker_r
    split = SupportSplit(basis_1=basis_1, basis_2=basis_2, basis_3=basis_3)

    alpha = basis_2.conj().T @ s @ basis_3
    beta = hermitian_part(basis_3.conj().T @ s @ basis_3)
    sigma0_inv_alpha = (V0 * (1.0 / w0)) @ V0.conj().T @ alpha

    # ac, perp and R in the block basis, then rotated back to the input basis.
    schur = hermitian_part(beta - alpha.conj().T @ sigma0_inv_alpha)
    corner = hermitian_part(alpha.conj().T @ sigma0_inv_alpha)
    d1, d2, d3 = split.dims
    ac_blocks = _on_h2_h3(d, d1, sigma0, alpha, corner)
    perp_blocks = np.zeros((d, d), dtype=complex)
    perp_blocks[d1 + d2:, d1 + d2:] = schur

    gm = matcore._geometric_mean(matcore.PSDSpectrum(sigma0, w0, V0), rho0_inv, tol)
    gm_e = gm @ sigma0_inv_alpha
    r_blocks = _on_h2_h3(d, d1, gm, gm_e, hermitian_part(sigma0_inv_alpha.conj().T @ gm @ sigma0_inv_alpha))

    W = split.full_basis
    return LebesgueDecomposition(
        ac=hermitian_part(W @ ac_blocks @ W.conj().T),
        perp=hermitian_part(W @ perp_blocks @ W.conj().T),
        sqrt_lr=hermitian_part(W @ r_blocks @ W.conj().T),
        split=split,
    )


def lebesgue_decompose(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> LebesgueDecomposition:
    """Decompose ``sigma`` relative to ``rho`` and return the canonical ratio.

    Mutually singular pairs (empty H2) short-circuit to ``ac = 0``,
    ``perp = sigma``, ``sqrt_lr = 0``.  Otherwise the three-block
    construction applies; the kernel component of ``sqrt_lr`` is fixed to
    zero (canonical choice), so repeated calls are reproducible.
    """
    return _decompose(_split(sigma, rho, tol), tol)


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
    return 2.0 * matcore.psd_log_on_support(_decompose(sp, tol).sqrt_lr, tol)
