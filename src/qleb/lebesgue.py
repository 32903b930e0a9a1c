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
canonical choice sets the free kernel component of ``R`` to zero.  The
routes at sizes 3 and up (full-rank certificates, the triangular route, and
the assembly from factors in hand) are set out in README "Numerical notes".

``excision``, ``is_singular`` (H2 empty), ``is_abs_continuous`` (H1 empty),
``lebesgue_decompose`` and ``quantum_log_likelihood`` all read one split, in
which each operand is validated once and every zero/nonzero decision is the
rank rule of :func:`matcore.support_mask`, so they cannot disagree; a stack
of pairs (Kakutani's factors) takes the same rule in
:func:`_stacked_fidelity`.  Two 2x2 operands are split and assembled on
Python scalars (:func:`_qubit_split`, :func:`_qubit_decompose`), with numpy
arrays only for the returned values; the array split (:func:`_split`,
:func:`_decompose`) takes every other size and is the reference for the
scalar route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import matcore
from .errors import NotStrictlyPositive, NumericCheckFailure, ZeroState
from .matcore import DEFAULT_TOL, ToleranceConfig


class DensityMatrix:
    """A validated quantum state: Hermitian, PSD, trace one.

    ``subnormalized=True`` relaxes the trace constraint to ``0 < Tr <= 1``,
    which is needed for diagnostics on blocks of larger states.  The trace
    rule is :func:`_check_trace`, which the CLI applies to the arrays it reads.
    Every entry point reads it as an array (``__array__``) and validates it
    under the call's own tolerances.
    """

    def __init__(self, mat: np.ndarray, subnormalized: bool = False,
                 tol: ToleranceConfig = DEFAULT_TOL) -> None:
        mat = matcore.psd_spectrum(mat, tol, "state", vectors=False).mat
        _check_trace(mat, subnormalized)
        self.mat = mat

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.mat, dtype=dtype, copy=copy)


#: Absolute slack of a state's trace about 1 (rounding of entries read from documents).
_TRACE_TOL = 1e-10


def _check_trace(mat: np.ndarray, subnormalized: bool = False) -> None:
    """The trace rule of a state: ``Tr = 1`` within 1e-10, or ``0 < Tr <= 1 + 1e-10`` if subnormalized."""
    tr = float(np.trace(mat).real)
    if subnormalized:
        if not 0.0 < tr <= 1.0 + _TRACE_TOL:
            raise ZeroState(f"subnormalized state must have trace in (0, 1], got {tr:.6g}")
    elif abs(tr - 1.0) > _TRACE_TOL:
        raise ZeroState(f"state trace {tr:.12g} differs from 1 beyond {_TRACE_TOL:.1e}")


def _psd_state(x, tol: ToleranceConfig, who: str, labels: np.ndarray | None = None) -> np.ndarray:
    """A state validated where it enters (Hermitian, finite, above the PSD floor; see
    :func:`matcore.psd_spectrum`), as its Hermitian part; with ``labels``, a stack named as there,
    whose 2x2 matrices are judged in closed form (:func:`matcore._psd2_stack`, no LAPACK call)."""
    if labels is not None and np.shape(x)[-2:] == (2, 2):
        matcore._psd2_stack(x := matcore.check_square(x, stack=True), tol, who, labels)
        return matcore._hermitian_part(x)
    return matcore.psd_spectrum(x, tol, who, vectors=False, labels=labels).mat


class _Split(NamedTuple):
    """``sigma`` and ``rho`` validated once each, split into H1 + H2 + H3.

    ``s``/``r`` are the operands' validated Hermitian parts, ``supp_r``/``ker_r``
    rho's support and kernel bases (H1 + H2 and H3; column slices of its
    eigenbasis, see :func:`_segments`), ``w_r`` rho's support
    eigenvalues, ``ex`` the excision of sigma onto supp rho in the ``supp_r``
    basis, ``wx`` its ascending eigenvalues, and ``h2`` marks those spanning
    H2 (a top segment); the others span H1.  ``Vx`` holds the excision's
    phase-fixed eigenvectors when they were asked for and taken, else
    ``None``.  When rho is certified full rank it has no eigenbasis:
    ``supp_r`` and ``w_r`` are ``None``, supp rho is the whole space in the
    standard basis, and the excision is sigma.  When sigma is certified full
    rank ``wx`` is ``None``: every excision eigenvalue clears the cutoff.
    """

    s: np.ndarray
    r: np.ndarray
    supp_r: np.ndarray | None
    ker_r: np.ndarray
    w_r: np.ndarray | None
    ex: np.ndarray
    wx: np.ndarray | None
    Vx: np.ndarray | None
    h2: np.ndarray

    @property
    def faithful(self) -> bool:
        return not self.ker_r.shape[1]

    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        """The validated Hermitian parts of sigma and rho."""
        return self.s, self.r

    def excision(self) -> np.ndarray:
        return self.ex

    def decompose(self) -> LebesgueDecomposition:
        return _decompose(self)


def _split(sigma, rho, tol: ToleranceConfig, vectors: bool = False, certify: bool = True,
           who: tuple[str, str] = ("sigma", "rho")) -> _Split:
    """The three-block split of ``sigma`` relative to ``rho``.

    Every zero/nonzero decision is the rank rule of
    :func:`matcore.support_mask`: rho's eigenvalues are measured against
    rho's largest eigenvalue, the excision's against sigma's.  At sizes 3 and
    up, with ``certify``, an operand certified full rank
    (:func:`matcore._certified_full_rank`) takes no eigensolve; otherwise, or
    without ``certify`` (the eigen route, which :func:`excision` takes to
    return rho's eigenbasis), rho gets an eigensolve with vectors and sigma
    one without; sigma takes vectors too when rho is certified and
    ``vectors`` is set, and the excision takes its own only when rho has a
    kernel (with vectors under ``vectors``).  Errors name the operands by ``who``.
    """
    s = matcore.check_hermitian(sigma, tol, who[0])
    r = matcore.check_hermitian(rho, tol, who[1])
    matcore._same_shape(s, r)
    certify = certify and len(s) > 2
    s_pd = certify and matcore._certified_full_rank(s, tol)
    r_pd = certify and matcore._certified_full_rank(r, tol)
    w_s, V_s = (None, None) if s_pd else _spectrum(s, tol, who[0], vectors and r_pd)
    if r_pd:
        supp_r, ker_r, w_r, ex, wx, Vx = None, np.zeros((len(s), 0), dtype=complex), None, s, w_s, V_s
    else:
        w, V = _spectrum(r, tol, who[1], True)
        k = _zeros(matcore.support_mask(w, tol))
        (ker_r, supp_r), w_r = _segments(V, k), w[k:]
        ex = supp_r.conj().T @ s @ supp_r
        ex = matcore._hermitian_part(ex, out=ex)
        wx, Vx = (None, None) if s_pd else (w_s, None) if not k else matcore._eigh(ex, vectors)
    h2 = np.ones(len(ex), dtype=bool) if s_pd else matcore.support_mask(wx, tol, lam_max=w_s[-1])
    return _Split(s, r, supp_r, ker_r, w_r, ex, wx, Vx, h2)


def _spectrum(H: np.ndarray, tol: ToleranceConfig, who: str, vectors: bool) -> tuple:
    """``(w, V)``, the clamped spectrum of a validated Hermitian operand, checked PSD and nonzero."""
    _, w, V = matcore._psd_spectrum(H, tol, who, vectors)
    _nonzero(w[-1], who)
    return w, V


def _zeros(mask: np.ndarray) -> int:
    """The number of eigenvalues that a rank-rule ``mask`` over an ascending spectrum calls zero:
    its bottom segment (see :func:`_segments`)."""
    return len(mask) - int(np.count_nonzero(mask))


def _segments(V: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(V[:, :k], V[:, k:])``: the eigenvectors of the bottom ``k`` and of the other eigenvalues.
    A support is the top segment of an ascending spectrum, so both are column slices, views of ``V``."""
    return V[:, :k], V[:, k:]


def _nonzero(top, who: str, labels: np.ndarray | None = None) -> None:
    """Refuse a zero operator by its largest eigenvalue ``top``; with ``labels``, the first of a stack."""
    if failure := matcore._failure(top == 0, who, labels):
        raise ZeroState(f"{failure[1]} is the zero operator")


class _QubitSplit(NamedTuple):
    """The split of two 2x2 operands on Python scalars (see :class:`_Split`).

    ``sig`` and ``r`` hold the entries ``(a, b, c)`` of sigma's and rho's
    validated Hermitian parts ``[[a, b], [conj b, c]]`` (arrays are built only
    by :meth:`operands`); ``w_r`` holds rho's clamped eigenvalues and ``u``,
    ``v`` its eigenvectors, in ascending order.  For
    faithful rho, ``ex`` holds the excision's entries ``(a, b, c)`` in the
    basis ``(u, v)``; otherwise supp rho is ``span v``, ker rho ``span u``,
    and ``ex = (e,)`` with ``e = v* sigma v``.  ``h2`` is as in :class:`_Split`.
    """

    sig: tuple
    r: tuple
    w_r: tuple
    u: tuple
    v: tuple
    faithful: bool
    ex: tuple
    h2: tuple

    def operands(self) -> tuple[np.ndarray, np.ndarray]:
        """The validated Hermitian parts of sigma and rho."""
        return matcore._matrix2(*self.sig), matcore._matrix2(*self.r)

    def excision(self) -> np.ndarray:
        return matcore._matrix2(*self.ex) if self.faithful else np.array([[self.ex[0]]], dtype=complex)

    def decompose(self) -> LebesgueDecomposition:
        return _qubit_decompose(self)


def _qubit_split(sigma: np.ndarray, rho: np.ndarray, tol: ToleranceConfig,
                 who: tuple[str, str] = ("sigma", "rho")) -> _QubitSplit:
    """:func:`_split` of two 2x2 complex arrays, with the same validation and rank rule."""
    sig, w_s, _ = matcore._psd2(sigma, tol, who[0], vectors=False)
    _nonzero(w_s[1], who[0])
    r, w_r, ((u0, v0), (u1, v1)) = matcore._psd2(rho, tol, who[1], vectors=True)
    _nonzero(w_r[1], who[1])
    u, v = (u0, u1), (v0, v1)
    faithful = w_r[0] > tol.rank_rel * w_r[1]
    if faithful:
        ex, wx = (_form(sig, u, u).real, _form(sig, u, v), _form(sig, v, v).real), w_s
    else:
        ex = wx = (_form(sig, v, v).real,)
    cut = tol.rank_rel * w_s[1]
    return _QubitSplit(sig, r, w_r, u, v, faithful, ex, tuple(w > cut for w in wx))


def _pair_split(sigma, rho, tol: ToleranceConfig, vectors: bool = False, certify: bool = True,
                who: tuple[str, str] = ("sigma", "rho")) -> _Split | _QubitSplit:
    """The split of ``sigma`` relative to ``rho``: :func:`_qubit_split` when both
    are 2x2, else :func:`_split`; errors name the operands by ``who``."""
    s, r = np.asarray(sigma, dtype=complex), np.asarray(rho, dtype=complex)
    if s.shape == r.shape == (2, 2):
        return _qubit_split(s, r, tol, who)
    return _split(s, r, tol, vectors, certify, who)


def _stacked_fidelity(rhos: np.ndarray, sigmas: np.ndarray, labels: np.ndarray, tol: ToleranceConfig,
                      who: tuple[str, str]) -> tuple[np.ndarray, np.ndarray]:
    """``sigma_i << rho_i`` and ``Tr rho_i R_i = Tr sqrt(sqrt(sigma_i) rho_i sqrt(sigma_i))`` for the pairs
    ``labels``, each operand a C-order complex stack ``(len(labels), d, d)`` or one shared ``(d, d)``.

    Errors name the operands by ``who`` and the pair by its label; a shared operand is validated
    once, as a stack of one (named by the first label), and its entries or spectrum broadcast.
    ``sigma_i << rho_i`` is the split's rank rule: rho's excision onto supp sigma (rho itself where
    sigma is faithful) clears ``rank_rel`` times rho's largest eigenvalue.  ``Tr rho R`` sums the
    roots of the product's top ``rank(sigma)`` eigenvalues, so a rank-deficient product adds no root
    of rounding noise.  Both results have ``len(labels)`` entries, or one if both are shared at d = 2.

    For ``d = 2`` the pairs are entry arrays in units of powers of 4 (:func:`matcore._psd2_stack`).
    A sigma with a kernel is ``lo + (hi - lo) v v*``, so the excision is ``<v|rho|v> = (Tr(rho
    sigma) - lo Tr rho) / (hi - lo)``, and the product's spectrum comes from ``Tr(rho sigma)`` and
    ``det(rho) det(sigma)`` in the product of the units, which the root carries back: no LAPACK
    call.  Larger ``d`` takes stacked eigensolves of rho, sigma and the product, and one of ``V*
    rho V`` (sigma's eigenvectors, zero on ker sigma) for the pairs whose sigma has a kernel.
    """
    rhos, sigmas = (x if x.ndim == 3 else x[None] for x in (rhos, sigmas))  # shared: a stack of one
    if rhos.shape[-2:] == (2, 2):  # any other shape goes on to psd_spectrum's checks
        (a, b_re, b_im, c), lo_r, hi_r, k_r = matcore._psd2_stack(rhos, tol, who[0], labels[:len(rhos)])
        (p, q_re, q_im, s), lo_s, hi_s, k_s = matcore._psd2_stack(sigmas, tol, who[1], labels[:len(sigmas)])
        _nonzero(hi_r, who[0], labels)
        _nonzero(hi_s, who[1], labels)
        x = b_re * q_re + b_im * q_im
        # Tr(rho sigma) summed in the order of einsum("nij,nji->n"), which the summands once used.
        tr = (a * p + x) + (x + c * s)
        faithful = matcore.support_mask(lo_s, tol, lam_max=hi_s)
        excision = np.divide(tr - lo_s * (a + c), hi_s - lo_s, out=np.where(faithful, lo_r, 0.0), where=~faithful)
        ac = matcore.support_mask(excision, tol, lam_max=hi_r)
        w_lo, w_hi = matcore._spectrum_2x2(tr, (lo_r * hi_r) * (lo_s * hi_s))
        # A pair that is not AC can have w_hi < 0 (orthogonal supports): no root of it.
        root = np.ldexp(np.sqrt(np.where(faithful, w_lo, 0.0)) + np.sqrt(np.where(ac, w_hi, 0.0)), k_r + k_s)
    else:
        rhos, w_r, _ = matcore.psd_spectrum(rhos, tol, who[0], vectors=False, labels=labels[:len(rhos)])
        _, w_s, V_s = matcore.psd_spectrum(sigmas, tol, who[1], labels=labels[:len(sigmas)])
        _nonzero(w_r[:, -1], who[0], labels)
        _nonzero(w_s[:, -1], who[1], labels)
        rhos, w_r, w_s, V_s = (np.ascontiguousarray(np.broadcast_to(x, (len(labels),) + x.shape[1:]))
                               for x in (rhos, w_r, w_s, V_s))
        supp, excision = matcore.support_mask(w_s, tol), w_r
        if (kernel := ~supp[:, 0]).any():
            V = V_s[kernel] * supp[kernel, None, :]
            excision = w_r.copy()
            X = V.conj().swapaxes(1, 2) @ rhos[kernel] @ V
            excision[kernel] = np.linalg.eigvalsh(matcore._hermitian_part(X, out=X))
        ac = matcore.support_mask(excision, tol, lam_max=w_r[:, -1:]).sum(axis=-1) >= supp.sum(axis=-1)
        sqrt_sigma = np.einsum("nik,nk,njk->nij", V_s, np.sqrt(w_s), V_s.conj())
        X = sqrt_sigma @ rhos @ sqrt_sigma
        del sqrt_sigma
        w_m = np.maximum(np.linalg.eigvalsh(matcore._hermitian_part(X, out=X)), 0.0)
        root = np.sqrt(np.where(supp, w_m, 0.0)).sum(axis=1)
    return ac, root


def excision(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Compression of ``sigma`` onto the support of ``rho``.

    Returned in the deterministic eigenbasis of ``rho`` (ascending eigenvalues,
    phase-fixed), with dimension equal to the rank of ``rho``.
    """
    return _pair_split(sigma, rho, tol, certify=False).excision()


def is_singular(rho, sigma, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Mutual singularity: H2 is empty, i.e. ``lebesgue_decompose(sigma, rho).ac == 0``."""
    return not any(_pair_split(sigma, rho, tol).h2)


def is_abs_continuous(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """``a << b``: H1 of ``b`` relative to ``a`` is empty (the excision is strictly positive).

    When True and ``b`` has a kernel, ``lebesgue_decompose(a, b).perp`` is bounded by
    ``eq_rel (1 + ||a||) + rank_rel lam_max(a) (1 + ||E||^2)``, not 0, with ``E`` a's H2-H3 block
    over its H2 block: the part of ``a`` that the rank rule reads as 0 (README, "Numerical notes").
    Errors name ``a`` "sigma" and ``b`` "rho", as in ``is_abs_continuous(sigma, rho)``.
    """
    return all(_pair_split(b, a, tol, who=("rho", "sigma")).h2)


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
    if not np.any(sp.h2):  # mutually singular: ac = 0, perp = sigma, sqrt_lr = 0
        zero = np.zeros_like(s)
        return LebesgueDecomposition(zero, s.copy(), zero.copy(), SupportSplit(sp.supp_r, empty, sp.ker_r))

    if sp.supp_r is None and np.all(sp.h2):  # the triangular route
        R = matcore._tri_mean(sp.r, s)
        return LebesgueDecomposition(ac=s, perp=np.zeros_like(s), sqrt_lr=R,
                                     split=SupportSplit(empty, np.eye(len(s), dtype=complex), empty))
    basis_3 = sp.ker_r
    if np.all(sp.h2):
        # H1 is empty: H2 is supp(rho) in rho's eigenbasis, sigma0 the excision, rho's block diagonal.
        basis_1, basis_2, sigma0 = empty, sp.supp_r, sp.ex
        mean = 1.0 / sp.w_r, sigma0, False
    else:
        # In the excision eigenbasis sigma0 is diagonal, declared by its
        # eigenvalues; rho's block is not.  The split fixed the H2 count; both
        # spectra ascend, so H2 is the same top segment of this eigensolve.
        wx, Vx = (sp.wx, sp.Vx) if sp.Vx is not None else matcore._eigh(sp.ex)
        n1 = _zeros(sp.h2)
        Q, P = _segments(Vx, n1)
        if sp.supp_r is None:  # rho certified: the excision is sigma itself
            basis_1, basis_2, rho0 = Q, P, P.conj().T @ sp.r @ P
        else:
            basis_1, basis_2 = sp.supp_r @ Q, sp.supp_r @ P
            rho0 = (P.conj().T * sp.w_r) @ P
        sigma0 = wx[n1:]
        mean = sigma0, rho0, True

    # With alpha = sigma's H2-H3 block and E = sigma0^{-1} alpha, ac and R are
    # F X F* with F = basis_2 + basis_3 E* (X = sigma0, R0 = the mean);
    # perp = beta - alpha* E lives on H3 alone.  R is formed first, then ac
    # and perp, each after the temporaries of the one before are released.
    if basis_3.shape[1]:
        T = s @ basis_3
        alpha = basis_2.conj().T @ T
        E = alpha / sigma0[:, None] if sigma0.ndim == 1 else np.linalg.solve(sigma0, alpha)
        schur = basis_3.conj().T @ T
        del T
        schur -= alpha.conj().T @ E
        del alpha
        schur = matcore._hermitian_part(schur, out=schur)
        F = basis_3 @ E.conj().T
        del E
        F += basis_2
    else:
        F = basis_2
    R = matcore._diag_mean(*mean, F)
    del mean
    if basis_1.shape[1]:
        ac = (F * sigma0) @ F.conj().T
        del F
        ac = matcore._hermitian_part(ac, out=ac)
    if basis_3.shape[1]:
        perp = basis_3 @ schur @ basis_3.conj().T
        del schur
        perp = matcore._hermitian_part(perp, out=perp)
    else:
        perp = np.zeros_like(s)
    if not basis_1.shape[1]:
        # With H1 empty, F sigma0 F* = sigma - perp: both exactly Hermitian, and so is their difference.
        ac = s - perp
    return LebesgueDecomposition(ac=ac, perp=perp, sqrt_lr=R, split=SupportSplit(basis_1, basis_2, basis_3))


def _form(S: tuple, x, y) -> complex:
    """``x* S y`` for 2-vectors ``x``, ``y`` and ``S`` given by its entries ``(a, b, c)``."""
    a, b, c = S
    return (x[0].conjugate() * (a * y[0] + b * y[1])
            + x[1].conjugate() * (b.conjugate() * y[0] + c * y[1]))


def _congruence(u, v, X: tuple) -> np.ndarray:
    """``V X V*`` for ``V = [u, v]`` (columns) and Hermitian ``X`` given by its entries."""
    r0, r1 = (u[0].conjugate(), v[0].conjugate()), (u[1].conjugate(), v[1].conjugate())
    return matcore._matrix2(_form(X, r0, r0).real, _form(X, r0, r1), _form(X, r1, r1).real)


def _outer(x: float, f) -> np.ndarray:
    """``x f f*`` for a 2-vector ``f``."""
    f0, f1 = f
    return matcore._matrix2(x * matcore._abs2(f0), f0 * x * f1.conjugate(), x * matcore._abs2(f1))


def _support_split(*blocks) -> SupportSplit:
    """H1, H2 and H3 of a qubit split, each given as a tuple of 2-vectors (columns)."""
    return SupportSplit(*(np.array([[f[0] for f in cols], [f[1] for f in cols]], dtype=complex)
                          if cols else np.empty((2, 0), dtype=complex) for cols in blocks))


def _qubit_decompose(sp: _QubitSplit) -> LebesgueDecomposition:
    """:func:`_decompose` on the scalars of a qubit split; arrays only for the results."""
    u, v = sp.u, sp.v
    zero = np.zeros((2, 2), dtype=complex)
    if not any(sp.h2):
        # Mutually singular (rho has rank 1): ac = 0, perp = sigma, sqrt_lr = 0.
        return LebesgueDecomposition(zero, matcore._matrix2(*sp.sig), zero.copy(), _support_split((v,), (), (u,)))
    if sp.faithful and all(sp.h2):
        # H2 is the whole space in rho's eigenbasis, where rho's block is diag(w_r).
        R0 = matcore._diag_mean2(1.0 / sp.w_r[0], 1.0 / sp.w_r[1], *sp.ex)
        return LebesgueDecomposition(_congruence(u, v, sp.ex), zero, _congruence(u, v, R0),
                                     _support_split((), (u, v), ()))
    if sp.faithful:
        # sigma has a kernel: H1 and H2 are spanned by the excision's eigenvectors
        # p and q (coordinates in rho's eigenbasis); rho's H2 block is q* diag(w_r) q.
        _, w0, ((p0, q0), (p1, q1)) = matcore._eig2(*sp.ex, True)
        f = (u[0] * q0 + v[0] * q1, u[1] * q0 + v[1] * q1)
        g = (u[0] * p0 + v[0] * p1, u[1] * p0 + v[1] * p1)
        R0 = matcore._root(w0, sp.w_r[0] * matcore._abs2(q0) + sp.w_r[1] * matcore._abs2(q1), True)
        return LebesgueDecomposition(_outer(w0, f), zero, _outer(R0, f), _support_split((g,), (f,), ()))
    # rho has the kernel span u and sigma's excision e onto span v is nonzero:
    # the blocks of _decompose are the scalars e, alpha, E and the Schur complement.
    e = sp.ex[0]
    alpha = _form(sp.sig, v, u)
    E = alpha / e
    schur = (_form(sp.sig, u, u) - alpha.conjugate() * E).real
    F = (v[0] + u[0] * E.conjugate(), v[1] + u[1] * E.conjugate())
    return LebesgueDecomposition(_outer(e, F), _outer(schur, u), _outer(matcore._root(e, sp.w_r[1], True), F),
                                 _support_split((), (v,), (u,)))


def _check_resolved(dec: LebesgueDecomposition, rho: np.ndarray, tol: ToleranceConfig) -> None:
    """Refuse a decomposition whose ``ac = R rho R`` fails beyond ``eq_rel``: the relative residual
    of :func:`matcore._rel_residual`, in units of a power of 4 near ac's largest entry when that
    exceeds 1, so that entries near 1e300 neither overflow nor warn."""
    k = max(matcore._unit4(float(np.abs(dec.ac).max(initial=0.0))), 0)
    half = 0.5**k  # R is in units of 2**k
    R = dec.sqrt_lr * half
    resid = matcore._rel_residual(R @ rho @ R, dec.ac * half * half, half * half)
    if not resid <= tol.eq_rel:  # NaN is refused too
        raise NumericCheckFailure(
            f"decomposition unresolved: ||R rho R - ac|| / (1 + ||ac||) = {resid:.3e} exceeds "
            f"eq_rel {tol.eq_rel:.1e} (rank cutoff {tol.rank_rel:.1e} is below the eigensolver's "
            "resolution)")


def lebesgue_decompose(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> LebesgueDecomposition:
    """Decompose ``sigma`` relative to ``rho`` and return the canonical ratio.

    Mutually singular pairs (empty H2) short-circuit to ``ac = 0``,
    ``perp = sigma``, ``sqrt_lr = 0``.  Otherwise the three-block
    construction applies; the kernel component of ``sqrt_lr`` is fixed to
    zero (canonical choice), so repeated calls are reproducible.

    When the rank cutoff ``rank_rel`` lies below ``d * eps``, where the
    eigensolver cannot tell rounding from support, it checks ``ac = R rho R``
    and raises :class:`NumericCheckFailure` if that fails beyond ``eq_rel``.
    """
    sp = _pair_split(sigma, rho, tol, vectors=True)
    dec = sp.decompose()
    if tol.rank_rel < len(dec.ac) * matcore._EPS:
        _check_resolved(dec, sp.operands()[1], tol)
    return dec


def sqrt_likelihood_ratio(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Canonical square-root likelihood ratio ``R`` with ``R rho R = ac``."""
    return lebesgue_decompose(sigma, rho, tol).sqrt_lr


def quantum_log_likelihood(sigma, rho, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Log-likelihood ratio ``L = 2 log(sigma # rho^{-1})`` for faithful states.

    Satisfies ``exp(L/2) rho exp(L/2) = sigma``; both arguments must be
    strictly positive definite, which the split reads as empty H1 and H3.
    """
    sp = _pair_split(sigma, rho, tol)
    if not sp.faithful:
        raise NotStrictlyPositive("rho must be strictly positive definite")
    if not all(sp.h2):
        raise NotStrictlyPositive("sigma must be strictly positive definite")
    return 2.0 * matcore.psd_log_on_support(sp.decompose().sqrt_lr, tol)
