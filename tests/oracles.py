"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's code paths: square roots and support
projectors of Hermitian PSD matrices come from ``scipy.linalg.eigh`` (a LAPACK
driver other than numpy's), square roots with the eigenvalues clamped at 0;
pseudo-inverses come from ``np.linalg.pinv``, and the geometric mean from the
similarity formula ``A (A^{-1}B)^{1/2}`` (scipy's Schur-based ``sqrtm``).  The
singular part of a decomposition is checked against the shorted operator, a
pseudo-inverse Schur complement in rho's eigenbasis.  The faithful-pair
ratio is also evaluated in mpmath at 40 digits, by two independent
formulations, with the problem's own sensitivity to eps-relative input
perturbations as the yardstick for a float result.  The Gaussian
quasi-characteristic function is evaluated in mpmath at 40 digits by its
double sum over ordered pairs of query vectors.
"""

from __future__ import annotations

import mpmath
import numpy as np
import scipy.linalg


def herm(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().T) / 2


def psd_sqrt(A: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix through ``scipy.linalg.eigh``, eigenvalues clamped at 0."""
    w, V = scipy.linalg.eigh(herm(A))
    return herm((V * np.sqrt(np.maximum(w, 0.0))) @ V.conj().T)


def support_projector(A: np.ndarray, rank_rel: float = 1e-9) -> np.ndarray:
    """Projector onto the eigenvectors (``scipy.linalg.eigh``) of a PSD matrix whose
    eigenvalues exceed ``rank_rel * lam_max``."""
    w, V = scipy.linalg.eigh(herm(A))
    P = V[:, w > rank_rel * w[-1]]
    return P @ P.conj().T


def closed_form_sqrt_lr(sigma: np.ndarray, rho: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Canonical ratio via the closed form ``sqrt(sigma) (sqrt(sqrt(sigma) rho
    sqrt(sigma)))^+ sqrt(sigma)``.

    Inputs are assumed trace-normalized; eigenvalues of the inner product
    below the absolute floor ``atol`` count as kernel (a relative cutoff would
    invert roundoff noise when the pair is mutually singular).
    """
    sq = psd_sqrt(sigma)
    w, V = np.linalg.eigh(herm(sq @ rho @ sq))
    inv_sqrt = np.where(w > atol, 1.0 / np.sqrt(np.where(w > atol, w, 1.0)), 0.0)
    pinv_root = (V * inv_sqrt) @ V.conj().T
    return herm(sq @ pinv_root @ sq)


def closed_form_decomposition(sigma: np.ndarray, rho: np.ndarray, atol: float = 1e-12):
    """(ac, perp, R) from the closed-form ratio."""
    R = closed_form_sqrt_lr(sigma, rho, atol)
    ac = herm(R @ rho @ R)
    return ac, herm(sigma - ac), R


def shorted_to_kernel(sigma: np.ndarray, rho: np.ndarray, rank_rel: float = 1e-9) -> np.ndarray:
    """``sigma`` shorted to ``ker rho`` (Anderson & Trapp, SIAM J. Appl. Math. 28 (1975)).

    ``Q sigma Q - Q sigma P (P sigma P)^+ P sigma Q`` in rho's eigenbasis
    (``scipy.linalg.eigh``), with ``P`` the projector onto supp rho, the
    eigenvalues above ``rank_rel * lam_max``, and ``Q = I - P``; the
    pseudo-inverse is ``np.linalg.pinv`` with the cutoff ``rank_rel`` relative
    to the block's largest eigenvalue.  It is
    the largest ``X`` with ``0 <= X <= sigma`` and range in ``ker rho``.
    """
    w, V = scipy.linalg.eigh(herm(rho))
    supp = w > rank_rel * w[-1]
    S = herm(V.conj().T @ sigma @ V)
    coupling = S[np.ix_(supp, ~supp)]
    short = S[np.ix_(~supp, ~supp)] - coupling.conj().T @ np.linalg.pinv(
        S[np.ix_(supp, supp)], rcond=rank_rel, hermitian=True) @ coupling
    Q = V[:, ~supp]
    return herm(Q @ short @ Q.conj().T)


def geometric_mean_similarity(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A # B`` via ``A (A^{-1} B)^{1/2}`` (Schur sqrt of a non-Hermitian matrix)."""
    return herm(A @ np.asarray(scipy.linalg.sqrtm(np.linalg.solve(A, B))))


def block_construction_decomposition(sigma: np.ndarray, rho: np.ndarray, cut: float = 1e-10):
    """Literal three-subspace construction of (ac, perp, R).

    Builds the orthogonal split (kernel of the excision, support of the
    excision, kernel of rho), forms the blocks of sigma, and assembles

        ac   = [[0,0,0],[0,s0,a],[0,a*,a* s0^-1 a]]
        perp = diag(0, 0, b - a* s0^-1 a)
        R    = E* diag(0, s0 # r0^-1, 0) E,   E = [[I,0,0],[0,I,s0^-1 a],[0,0,I]]

    in that basis.  Mutually singular pairs return the trivial split.
    """
    d = rho.shape[0]
    if abs(np.trace(rho @ sigma)) <= 1e-12 * abs(np.trace(rho) * np.trace(sigma)):
        return np.zeros_like(sigma), sigma.copy(), np.zeros_like(sigma)

    w_r, V_r = np.linalg.eigh(herm(rho))
    keep_r = w_r > cut * w_r.max()
    supp, ker = V_r[:, keep_r], V_r[:, ~keep_r]
    ex = herm(supp.conj().T @ sigma @ supp)
    w_x, V_x = np.linalg.eigh(ex)
    keep_x = w_x > cut * max(w_x.max(), 0.0)
    B1 = supp @ V_x[:, ~keep_x]
    B2 = supp @ V_x[:, keep_x]
    B3 = ker
    W = np.hstack([B1, B2, B3])
    d1, d2, d3 = B1.shape[1], B2.shape[1], B3.shape[1]

    s0 = herm(B2.conj().T @ sigma @ B2)
    a = B2.conj().T @ sigma @ B3
    b = herm(B3.conj().T @ sigma @ B3)
    r0 = herm(B2.conj().T @ rho @ B2)
    s0_inv_a = np.linalg.solve(s0, a)

    ac = np.zeros((d, d), dtype=complex)
    ac[d1:d1 + d2, d1:d1 + d2] = s0
    ac[d1:d1 + d2, d1 + d2:] = a
    ac[d1 + d2:, d1:d1 + d2] = a.conj().T
    ac[d1 + d2:, d1 + d2:] = a.conj().T @ s0_inv_a
    perp = np.zeros((d, d), dtype=complex)
    perp[d1 + d2:, d1 + d2:] = b - a.conj().T @ s0_inv_a

    gm = geometric_mean_similarity(s0, np.linalg.inv(r0))
    E = np.eye(d, dtype=complex)
    E[d1:d1 + d2, d1 + d2:] = s0_inv_a
    core = np.zeros((d, d), dtype=complex)
    core[d1:d1 + d2, d1:d1 + d2] = gm
    R = E.conj().T @ core @ E
    return herm(W @ ac @ W.conj().T), herm(W @ perp @ W.conj().T), herm(W @ R @ W.conj().T)


MP_DPS = 40


def _mp_sqrt(H: mpmath.matrix) -> mpmath.matrix:
    """Square root of a Hermitian PSD mpmath matrix through its eigendecomposition."""
    w, Q = mpmath.eighe((H + H.H) / 2)
    return Q * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * Q.H


def _mp_faithful_sqrt_lr(S: mpmath.matrix, P: mpmath.matrix, route: str) -> mpmath.matrix:
    if route == "cholesky":
        # rho = L L*: R = L^{-*} (L* sigma L)^{1/2} L^{-1}.
        L = mpmath.cholesky(P)
        Y = mpmath.inverse(L.H)
        return Y * _mp_sqrt(L.H * S * L) * Y.H
    if route == "eigen":
        # R = rho^{-1/2} (rho^{1/2} sigma rho^{1/2})^{1/2} rho^{-1/2} in rho's eigenbasis.
        w, Q = mpmath.eighe(P)
        half = Q * mpmath.diag([mpmath.sqrt(x) for x in w]) * Q.H
        inv_half = Q * mpmath.diag([1 / mpmath.sqrt(x) for x in w]) * Q.H
        return inv_half * _mp_sqrt(half * S * half) * inv_half
    raise ValueError(f"unknown route {route!r}")


def mp_faithful_sqrt_lr(sigma: np.ndarray, rho: np.ndarray, route: str = "cholesky",
                        dps: int = MP_DPS) -> np.ndarray:
    """``R = rho^{-1} # sigma`` of a faithful pair in mpmath at ``dps`` digits, rounded to complex.

    The float inputs (exactly Hermitian) are read as exact numbers.  Two
    independent formulations: ``"cholesky"`` through rho's Cholesky factor and
    ``"eigen"`` through rho's eigendecomposition.
    """
    with mpmath.workdps(dps):
        R = _mp_faithful_sqrt_lr(mpmath.matrix(sigma.tolist()), mpmath.matrix(rho.tolist()), route)
        return np.array(R.tolist(), dtype=complex)


def mp_perturbation_bound(sigma: np.ndarray, rho: np.ndarray, rng: np.random.Generator,
                          draws: int = 3, dps: int = MP_DPS) -> float:
    """How far eps-relative input perturbations move the true ratio: the problem's own sensitivity.

    Each draw perturbs every entry of sigma and rho by ``eps |entry|`` times a
    random unit phase (kept Hermitian), recomputes ``R`` in mpmath and takes
    ``||R' - R||_F / ||R||_F``; the largest over ``draws`` is returned.
    """
    eps = np.finfo(float).eps

    def perturbed(A: np.ndarray) -> mpmath.matrix:
        d = len(A)
        phase = np.exp(2j * np.pi * rng.uniform(size=(d, d)))
        dA = eps * np.abs(A) * phase
        dA = (dA + dA.conj().T) / 2
        return mpmath.matrix(A.tolist()) + mpmath.matrix(dA.tolist())

    with mpmath.workdps(dps):
        R = _mp_faithful_sqrt_lr(mpmath.matrix(sigma.tolist()), mpmath.matrix(rho.tolist()), "cholesky")
        size = mpmath.mnorm(R, "f")
        return max(float(mpmath.mnorm(_mp_faithful_sqrt_lr(perturbed(sigma), perturbed(rho), "cholesky") - R,
                                      "f") / size)
                   for _ in range(draws))


def classical_gaussian_cf(mean: np.ndarray, cov: np.ndarray, xi: np.ndarray) -> complex:
    """Characteristic function of a real Gaussian vector at frequency ``xi``."""
    return complex(np.exp(1j * xi @ mean - 0.5 * xi @ cov @ xi))


def mp_gaussian_qcf(h: np.ndarray, J: np.ndarray, xis, dps: int = 40) -> complex:
    """``E prod_t exp(i xi_t . X)`` under ``N(h, J)`` at ``dps`` digits, from the float inputs as given:
    ``exp(sum_t (i xi_t.h - xi_t^i xi_t^j J_ji / 2) - sum_t sum_{u>t} xi_t^i xi_u^j J_ji)``, term by term."""
    with mpmath.workdps(dps):
        hm = [mpmath.mpf(float(x)) for x in h]
        Jm = [[mpmath.mpc(complex(z)) for z in row] for row in np.asarray(J)]
        X = [[mpmath.mpc(complex(z)) for z in np.ravel(xi)] for xi in xis]
        d = len(hm)

        def pair(a, b):  # a^i b^j J_ji
            return mpmath.fsum(a[i] * b[j] * Jm[j][i] for i in range(d) for j in range(d))

        exponent = mpmath.mpc(0)
        for t, xt in enumerate(X):
            exponent += 1j * mpmath.fsum(x * y for x, y in zip(xt, hm)) - pair(xt, xt) / 2
            exponent -= mpmath.fsum(pair(xt, xu) for xu in X[t + 1:])
        return complex(mpmath.exp(exponent))


def classical_fisher_two_outcome(p: float, dp: float) -> float:
    """Fisher information of a Bernoulli(p) family with derivative ``dp``."""
    return dp**2 / p + dp**2 / (1.0 - p)
