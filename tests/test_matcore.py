import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qleb import lebesgue_decompose, matcore, sqrt_likelihood_ratio
from qleb.errors import (DimMismatch, NonHermitian, NotPSD, NotStrictlyPositive, NumericCheckFailure,
                         ValidationError)
from qleb.matcore import (
    DEFAULT_TOL,
    TOL_PROFILES,
    ToleranceConfig,
    geometric_mean,
    herm_exp,
    psd_log_on_support,
    support_mask,
    unitary_exp,
)

from oracles import psd_sqrt
from util import rand_psd, rand_spd, rand_unitary, rel_err


def eig(A):
    """The library's eigensolver on a validated Hermitian operand."""
    return matcore._eigh(matcore.check_hermitian(A))


def test_eig_diagonal():
    w, V = eig(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(V), np.array([[0, 1], [1, 0]]))


def test_eig_identity():
    w, _ = eig(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])


def test_eig_rank_one_projector():
    P = 0.5 * np.ones((2, 2))
    w, V = eig(P)
    assert np.allclose(w, [0.0, 1.0])
    assert np.allclose(V[:, 1], np.array([1.0, 1.0]) / np.sqrt(2))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = rand_psd(5, rng) - rand_psd(5, rng)
        w, V = eig(A)
        assert np.linalg.norm((V * w) @ V.conj().T - A) <= 1e-12 * (1 + np.linalg.norm(A))
        assert np.linalg.norm(V.conj().T @ V - np.eye(5)) <= 1e-12


def test_eig_phase_fix_deterministic():
    rng = np.random.default_rng(4)
    A = rand_psd(4, rng)
    w1, V1 = eig(A)
    w2, V2 = eig(A.copy())
    assert np.array_equal(V1, V2)
    for k in range(4):
        first = V1[np.argmax(np.abs(V1[:, k]) > 1e-12 * np.abs(V1[:, k]).max()), k]
        assert abs(first.imag) <= 1e-12 and first.real > 0


def test_support_projector_examples():
    # The support projector of a PSD operand is its ratio to itself, R(A, A).
    assert np.allclose(sqrt_likelihood_ratio(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))
    P = 0.5 * np.ones((2, 2))
    assert np.allclose(sqrt_likelihood_ratio(P, P), P)
    P = np.diag([0.0, 2.0, 0.0])
    assert np.allclose(sqrt_likelihood_ratio(P, P), np.diag([0.0, 1.0, 0.0]))


def test_support_projector_rejects_indefinite():
    with pytest.raises(NotPSD):
        sqrt_likelihood_ratio(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(NotPSD):
        sqrt_likelihood_ratio(np.diag([1.0, -1.0, 1.0]), np.eye(3))


def test_support_projector_idempotent_and_reproducing():
    rng = np.random.default_rng(5)
    for _ in range(30):
        A = rand_psd(5, rng, rank=int(rng.integers(1, 6)))
        P = sqrt_likelihood_ratio(A, A)
        assert rel_err(P @ P, P) < DEFAULT_TOL.eq_rel
        assert np.linalg.norm(P @ A - A) <= DEFAULT_TOL.eq_rel * (1 + np.linalg.norm(A))


def test_psd_sqrt_identity():
    # Relative to rho = I the ratio is the positive square root, R(A, I) = A^{1/2}.
    assert np.allclose(sqrt_likelihood_ratio(np.eye(3), np.eye(3)), np.eye(3))
    assert np.allclose(sqrt_likelihood_ratio(np.diag([4.0, 0.0]), np.eye(2)), np.diag([2.0, 0.0]))


def test_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rand_psd(4, rng, rank=int(rng.integers(1, 5)))
        S = sqrt_likelihood_ratio(A, np.eye(4))
        assert rel_err(S @ S, A) < DEFAULT_TOL.eq_rel
        assert np.linalg.eigvalsh(S)[0] >= -DEFAULT_TOL.psd_floor * np.linalg.norm(S, 2)


def test_exp_log_roundtrip_on_support():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rand_spd(4, rng)
        assert rel_err(herm_exp(psd_log_on_support(A)), A) < DEFAULT_TOL.eq_rel


def test_log_kernel_mapped_to_zero():
    L = psd_log_on_support(np.diag([np.e, 0.0]))
    assert np.allclose(L, np.diag([1.0, 0.0]))


def test_geometric_mean_examples():
    rng = np.random.default_rng(9)
    A = rand_spd(3, rng)
    assert rel_err(geometric_mean(A, A), A) < 1e-12
    B = rand_spd(3, rng)
    assert rel_err(geometric_mean(np.eye(3), B), psd_sqrt(B)) < 1e-11
    assert np.allclose(
        geometric_mean(np.diag([1.0, 4.0]), np.diag([4.0, 9.0])), np.diag([2.0, 6.0])
    )


def test_geometric_mean_defining_equation_many():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        A, B = rand_spd(d, rng), rand_spd(d, rng)
        X = geometric_mean(A, B)
        res = np.linalg.norm(X @ np.linalg.inv(A) @ X - B) / np.linalg.norm(B)
        assert res <= 1e-9


def test_geometric_mean_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        A, B = rand_spd(d, rng), rand_spd(d, rng)
        assert rel_err(geometric_mean(A, B), geometric_mean(B, A)) < DEFAULT_TOL.eq_rel


def test_geometric_mean_rejects_singular():
    with pytest.raises(NotStrictlyPositive):
        geometric_mean(np.diag([1.0, 0.0]), np.eye(2))


def test_unitary_exp_is_unitary():
    rng = np.random.default_rng(12)
    H = rand_psd(3, rng) - rand_psd(3, rng)
    U = unitary_exp(H)
    assert rel_err(U @ U.conj().T, np.eye(3)) < 1e-12
    assert np.allclose(unitary_exp(np.zeros((2, 2))), np.eye(2))


def test_unitary_conjugation_covariance_of_functions():
    rng = np.random.default_rng(13)
    A = rand_spd(4, rng)
    U = rand_unitary(4, rng)
    assert rel_err(psd_log_on_support(U @ A @ U.conj().T), U @ psd_log_on_support(A) @ U.conj().T) < 1e-10
    assert rel_err(herm_exp(U @ A @ U.conj().T), U @ herm_exp(A) @ U.conj().T) < 1e-10


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel=2.0)
    assert set(TOL_PROFILES) >= {"default", "strict", "extreme-scale"}


def test_rank_cutoff_is_relative():
    w = np.array([1e-15, 1e-3])
    assert support_mask(w).tolist() == [False, True]
    assert support_mask(w, matcore.ToleranceConfig(rank_rel=1e-15)).tolist() == [True, True]
    assert support_mask(1e-6 * w).tolist() == [False, True]


def _phase_fix_reference(V):
    """Column-by-column phase fix, the reference for the vectorised one."""
    V = V.copy()
    for k in range(V.shape[1]):
        col = V[:, k]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        idx = int(np.argmax(mags > 1e-12 * top))
        pivot = col[idx]
        if pivot != 0:
            V[:, k] = col * (np.conj(pivot) / abs(pivot))
    return V


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_phase_fix_matches_column_loop_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for _ in range(50):
        A = rand_psd(d, rng) - rand_psd(d, rng)
        _, V = np.linalg.eigh(A)
        assert np.array_equal(matcore._phase_fix(V), _phase_fix_reference(V))
    # Degenerate spectra give eigenvectors with exact zeros ahead of the pivot.
    _, V = np.linalg.eigh(np.eye(d))
    assert np.array_equal(matcore._phase_fix(V), _phase_fix_reference(V))


# -- positivity certificate -----------------------------------------------------------


def _eigvalsh_rule(A: np.ndarray, strict: float) -> bool:
    """Reference: ``min eig > strict * lam_max`` from a full eigensolve."""
    w = np.linalg.eigvalsh(matcore.hermitian_part(A))
    return bool(w.min() > strict * max(w.max(), 0.0))


@pytest.mark.parametrize("n", [6, 66, 258])
@pytest.mark.parametrize("ratio, expected", [
    (1e-6, True), (1e-10, True), (1e-12, True),
    (1e-15, False), (0.0, False), (-1e-12, False), (-1e-6, False),
])
def test_positive_definite_certificate_agrees_with_eigvalsh_rule(n, ratio, expected):
    # min/max eigenvalue ratio fixed, the rest spread over [1e-3, 1], in a random
    # unitary basis (complex Cholesky) and a random orthogonal one (real Cholesky).
    rng = np.random.default_rng([n, int(-np.log10(abs(ratio))) if ratio else 0, ratio < 0])
    w = np.concatenate([[ratio], 10.0 ** rng.uniform(-3.0, 0.0, size=n - 2), [1.0]])
    U = rand_unitary(n, rng)
    A = (U * w) @ U.conj().T
    assert matcore.is_positive_definite(A, 1e-14) is expected
    assert _eigvalsh_rule(A, 1e-14) is expected
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    B = (Q * w) @ Q.T
    assert _eigvalsh_rule(B, 1e-14) is expected
    assert matcore.is_positive_definite(B, 1e-14) is expected
    assert matcore.is_positive_definite(B.astype(complex), 1e-14) is expected


@pytest.fixture
def cholesky_dtypes(monkeypatch):
    """Record the dtype of every matrix handed to ``np.linalg.cholesky``."""
    dtypes = []
    original = np.linalg.cholesky

    def wrapper(A, *args, **kwargs):
        dtypes.append(A.dtype)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", wrapper)
    return dtypes


@pytest.mark.parametrize("n", [6, 66, 258])
def test_positive_definite_takes_the_real_path_only_for_a_zero_imaginary_part(n, cholesky_dtypes):
    rng = np.random.default_rng(n)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    for ratio, expected in [(1e-12, True), (1e-15, False), (-1e-6, False)]:
        w = np.concatenate([[ratio], rng.uniform(1e-3, 1.0, size=n - 2), [1.0]])
        B = (Q * w) @ Q.T
        tilted = B.astype(complex)
        tilted[0, 1] += 1e-300j  # off zero, far below any rounding of B
        tilted[1, 0] -= 1e-300j
        cholesky_dtypes.clear()
        assert matcore.is_positive_definite(B.astype(complex), 1e-14) is expected
        assert cholesky_dtypes == [np.dtype(float)]
        cholesky_dtypes.clear()
        assert matcore.is_positive_definite(tilted, 1e-14) is expected
        assert cholesky_dtypes == [np.dtype(complex)]


@pytest.mark.parametrize("n", [1, 6, 66, 258])
def test_positive_definite_certificate_rejects_the_zero_block(n):
    assert matcore.is_positive_definite(np.zeros((n, n)), 1e-14) is False
    assert matcore.is_positive_definite(np.eye(n), 1e-14) is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_positive_definite_refuses_non_finite_entries(value):
    with pytest.raises(ValidationError, match="non-finite entry"):
        matcore.is_positive_definite(np.full((3, 3), value), 1e-14)
    A = np.eye(3, dtype=complex)
    A[1, 1] = value
    with pytest.raises(ValidationError, match="non-finite entry"):
        matcore.is_positive_definite(A, 1e-14)
    A[0, 2], A[2, 0] = 0.5j, -0.5j  # a complex block, with a complex Hermitian part
    with pytest.raises(ValidationError, match="non-finite entry"):
        matcore.is_positive_definite(A, 1e-14)


# -- positivity of a block read from its blocks ---------------------------------------------

_RATIOS = [(1e-6, True), (1e-10, True), (1e-12, True),
           (1e-15, False), (0.0, False), (-1e-12, False), (-1e-6, False)]


def _bordered(d1: int, d2: int, coupling: str, ratio: float, rng) -> tuple:
    """Blocks ``(A, B, C)`` of ``[[A, B], [B*, C]]`` with ``A`` diagonal and min/max eigenvalue
    ratio ``ratio``: a random such block shifted by a multiple of ``I``, which keeps ``A`` diagonal."""
    a = rng.uniform(0.5, 1.0, size=d1)
    B = np.zeros((d1, d2))
    if coupling != "zero":
        B = rng.standard_normal((d1, d2)) / np.sqrt(2 * d1)
    C = rng.standard_normal((d2, d2))
    if coupling == "complex":
        B = B + 1j * rng.standard_normal((d1, d2)) / np.sqrt(2 * d1)
        C = C + 1j * rng.standard_normal((d2, d2))
    C = (C + C.conj().T) / 4 + 2 * np.eye(d2)
    w = np.linalg.eigvalsh(np.block([[np.diag(a), B], [B.conj().T, C]]))
    c = (ratio * w[-1] - w[0]) / (1 - ratio)
    return np.diag(a + c), B, C + c * np.eye(d2)


@pytest.mark.parametrize("d1", [1, 2, 5, 300])
@pytest.mark.parametrize("d2", [1, 2, 3])
@pytest.mark.parametrize("coupling", ["zero", "real", "complex"])
def test_bordered_positive_agrees_with_the_assembled_block(d1, d2, coupling):
    # The assembled block's shifted Cholesky is the reference; both routes, the
    # outer block declared as a matrix and by its diagonal, must give its
    # decision, and the same one on the block scaled by 1e+-300 (taken in
    # units of a power of 4).
    rng = np.random.default_rng([d1, d2, len(coupling)])
    for ratio, expected in _RATIOS:
        A, B, C = _bordered(d1, d2, coupling, ratio, rng)
        assembled = np.block([[A, B], [B.conj().T, C]])
        assert _eigvalsh_rule(assembled, 1e-14) is expected
        assert matcore.is_positive_definite(assembled, 1e-14) is expected
        for scale in (1.0, 1e300, 1e-300):
            for outer in (A, A.diagonal()):
                assert matcore._bordered_positive(scale * outer, scale * B, scale * C, 1e-14) is expected
            assert matcore.is_positive_definite(scale * assembled, 1e-14) is expected


def test_bordered_positive_sees_a_coupling_that_breaks_positivity():
    # Both diagonal blocks are positive; the coupling alone decides.
    A, C = np.diag([1.0, 2.0, 3.0]), np.eye(2)
    B = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5j]])
    for scale, expected in [(1.0, False), (0.5, True)]:
        assembled = np.block([[A, scale * B], [scale * B.conj().T, C]])
        assert _eigvalsh_rule(assembled, 1e-14) is expected
        assert matcore.is_positive_definite(assembled, 1e-14) is expected
        assert matcore._bordered_positive(A, scale * B, C, 1e-14) is expected


@pytest.mark.filterwarnings("error")
def test_bordered_positive_survives_a_complement_that_overflows():
    # A pivot at the subnormal limit against a coupling of 1e100: B* D^{-1} B
    # overflows, and the block is (hugely) indefinite on both routes.
    A, B, C = np.diag([5e-324, 1.0]), np.array([[1e100, 0.0], [0.0, 0.0]]), np.eye(2)
    assert matcore.is_positive_definite(np.block([[A, B], [B.T, C]]), 0.0) is False
    for outer in (A, A.diagonal()):
        assert matcore._bordered_positive(outer, B, C, 0.0) is False


@pytest.fixture
def cholesky_shapes(monkeypatch):
    """Record the shape of every matrix handed to ``np.linalg.cholesky``."""
    shapes = []
    original = np.linalg.cholesky

    def wrapper(A, *args, **kwargs):
        shapes.append(A.shape)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", wrapper)
    return shapes


@pytest.mark.parametrize("d1", [2, 5, 300])
def test_bordered_positive_factors_the_complement_of_a_diagonal_block(d1, cholesky_shapes):
    rng = np.random.default_rng(d1)
    A, B, C = _bordered(d1, 2, "complex", 1e-10, rng)
    assert matcore._bordered_positive(A.diagonal(), B, C, 1e-14) is True
    assert cholesky_shapes == [(2, 2)]
    # A 2-D outer block is decided assembled: declared as the diagonal matrix
    # itself, and as the same block in another basis.
    U = rand_unitary(d1, rng)
    for outer, coupling in ((A, B), (U @ A @ U.conj().T, U @ B)):
        cholesky_shapes.clear()
        assert matcore._bordered_positive(outer, coupling, C, 1e-14) is True
        assert cholesky_shapes == [(d1 + 2, d1 + 2)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["outer diagonal", "outer off-diagonal", "coupling", "inner"])
def test_bordered_positive_refuses_non_finite_entries(value, where):
    A, B, C = np.eye(4, dtype=complex), np.zeros((4, 2), dtype=complex), np.eye(2, dtype=complex)
    if where == "outer diagonal":
        A[1, 1] = value
    elif where == "outer off-diagonal":
        A[0, 1] = A[1, 0] = value
    elif where == "coupling":
        B[2, 1] = value
    else:
        C[0, 0] = value
    for outer in (A, A.diagonal()) if where != "outer off-diagonal" else (A,):
        with pytest.raises(ValidationError, match="non-finite entry"):
            matcore._bordered_positive(outer, B, C, 1e-14)


@pytest.mark.parametrize("shapes", [
    ((3,), (4, 2), (2, 2)), ((4, 4), (3, 2), (2, 2)), ((4, 3), (4, 2), (2, 2)),
    ((4,), (4, 2), (3, 3)), ((4,), (4, 2), (2, 3)), ((4,), (4,), (1, 1)),
    ((), (1, 2), (2, 2)), ((4, 4, 4), (4, 2), (2, 2))])
def test_bordered_positive_refuses_blocks_that_do_not_border(shapes):
    A, B, C = (np.ones(shape) for shape in shapes)
    with pytest.raises(DimMismatch, match="do not border each other"):
        matcore._bordered_positive(A, B, C, 1e-14)


# -- closed-form spectra of 2x2 stacks ----------------------------------------------------


def _psd2_stack_spectrum(stack, who="matrix", labels=None):
    """The closed-form spectra of a 2x2 stack (:func:`matcore._psd2_stack`), in the stack's units."""
    labels = np.arange(len(stack)) if labels is None else labels
    _, lo, hi, k = matcore._psd2_stack(stack, DEFAULT_TOL, who, labels)
    return np.ldexp(np.stack([lo, hi], axis=1), 2 * k[:, None])


def test_psd_spectrum_of_2x2_stacks_matches_eigvalsh():
    # Trace and determinant replace LAPACK for (N, 2, 2) stacks (single
    # matrices have their own closed form, tested below); psd_spectrum itself
    # takes LAPACK's.  Eigenvalues agree to rounding of lam_max, including
    # spectra down to 1e-12 and exact zeros, and in any units.
    rng = np.random.default_rng(5)
    lo = np.concatenate([np.zeros(50), 10.0 ** rng.uniform(-12.0, 0.0, size=250)])
    mats = []
    for w in lo:
        U = rand_unitary(2, rng)
        mats.append((U * [w, 1.0]) @ U.conj().T)
    stack = np.array(mats)
    want = np.maximum(np.linalg.eigvalsh(matcore.hermitian_part(stack)), 0.0)
    assert np.all(np.abs(_psd2_stack_spectrum(stack) - want) <= 4 * np.finfo(float).eps)
    got = matcore.psd_spectrum(stack, labels=np.arange(len(mats)), vectors=False)
    assert np.array_equal(got.eigenvalues, want)
    assert got.eigenvectors is None
    units = 4.0 ** rng.integers(-250, 250, size=len(lo))[:, None, None]
    assert np.all(np.abs(_psd2_stack_spectrum(stack * units) / units[:, 0] - want) <= 4 * np.finfo(float).eps)
    # Diagonal stacks have exact spectra, which the closed form reproduces.
    diag = np.zeros((len(lo), 2, 2), dtype=complex)
    diag[:, 0, 0], diag[:, 1, 1] = 1.0, lo
    assert np.array_equal(_psd2_stack_spectrum(diag), np.stack([lo, np.ones_like(lo)], axis=1))


def test_psd_spectrum_of_2x2_stacks_rejects_what_eigvalsh_rejects():
    rng = np.random.default_rng(6)
    for neg in (-1e-3, -0.2):
        U = rand_unitary(2, rng)
        bad = (U * [neg, 1.0 - neg]) @ U.conj().T
        stack = np.array([np.eye(2) / 2, bad, bad])
        for check in (lambda: _psd2_stack_spectrum(stack, "factor", np.array([1, 2, 3])),
                      lambda: matcore.psd_spectrum(stack, who="factor", labels=np.array([1, 2, 3]), vectors=False)):
            with pytest.raises(NotPSD, match=f"factor 2 has eigenvalue {neg:.3e} below the PSD floor"):
                check()
        with pytest.raises(NotPSD, match=f"has eigenvalue {neg:.3e} below"):
            matcore.psd_spectrum(bad, vectors=False)


# -- closed-form eigensystems of single matrices of size <= 2 ------------------------------

EPS = np.finfo(float).eps


def _eigh_reference(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK plus the phase fix: the reference for the closed forms."""
    w, V = np.linalg.eigh(H)
    return w, matcore._phase_fix(V)


def _two_by_two_cases() -> list[np.ndarray]:
    """Haar, rank-1, near-degenerate and wide spectra, each also at scales 1e+-300."""
    rng = np.random.default_rng(2026)
    spectra = [rng.uniform(-1.0, 1.0, size=2) for _ in range(200)]
    spectra += [np.array([0.0, 1.0])] * 50
    spectra += [np.array([1.0, 1.0 + 1e-15])] * 50
    spectra += [np.array([10.0 ** -rng.uniform(0.0, 12.0), 1.0]) for _ in range(100)]
    mats = []
    for w in spectra:
        U = rand_unitary(2, rng)
        mats.append(matcore.hermitian_part((U * w) @ U.conj().T))
    return mats + [1e300 * A for A in mats[::10]] + [1e-300 * A for A in mats[::10]]


def test_closed_form_eigensystem_matches_lapack():
    for H in _two_by_two_cases():
        _check_closed_form_eigensystem(H)


def _check_closed_form_eigensystem(H: np.ndarray) -> None:
    w, V = matcore._eigh(H)
    assert np.array_equal(matcore._eigh(H, vectors=False)[0], w)
    w_ref, V_ref = _eigh_reference(H)
    # Norms in units of the largest entry, so that 1e300 does not overflow.
    unit = np.abs(H).max()
    size = np.linalg.norm(H / unit)
    assert np.all(np.abs(w - w_ref) / unit <= 4 * EPS * size)
    assert np.linalg.norm((V * (w / unit)) @ V.conj().T - H / unit) <= 4 * EPS * size
    assert np.linalg.norm(V.conj().T @ V - np.eye(2)) <= 4 * EPS
    for k in range(2):
        col = V[:, k]
        first = col[np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())]
        assert abs(first.imag) <= 1e-15 and first.real > 0
    if w_ref[1] - w_ref[0] > 1e-3 * np.abs(w_ref).max():
        # Resolved spectrum: the same phase-fixed eigenvectors as LAPACK's.
        assert np.abs(V - V_ref).max() <= 1e-13


def test_closed_form_small_eigenvalue_keeps_its_relative_accuracy():
    # Graded input [[1, b], [conj(b), s]] with |b|^2 << s determines the small
    # eigenvalue det / lam_max to full relative accuracy; ``tr/2 - gap`` would
    # cancel down to an absolute eps.  Reference: det in exact rational
    # arithmetic on the same floats, over lam_max (itself accurate to eps).
    rng = np.random.default_rng(9)
    for k in range(2, 15):
        s = 10.0 ** -k
        b = 1e-2 * np.sqrt(s) * np.exp(2j * np.pi * rng.uniform())
        H = np.array([[1.0, b], [np.conj(b), s]])
        w = matcore._eigh(H, vectors=False)[0]
        det = Fraction(1.0) * Fraction(s) - Fraction(b.real) ** 2 - Fraction(b.imag) ** 2
        want = float(det / Fraction(w[1]))
        assert abs(w[0] - want) <= 4 * EPS * want, k


@pytest.mark.parametrize("diag", [[1.0, 2.0], [2.0, 1.0], [-3.0, 1e-300], [5.0, 5.0], [0.0, 0.0], [7.0]])
def test_closed_form_eigensystem_of_diagonal_and_scalar_input_is_exact(diag):
    w, V = matcore._eigh(np.diag(diag).astype(complex))
    assert np.array_equal(w, np.sort(diag))
    assert np.array_equal(V, np.eye(len(diag))[:, np.argsort(diag, kind="stable")])


def test_closed_form_eigensystem_makes_no_lapack_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigensolve called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = np.random.default_rng(7)
    for d in (1, 2):
        A = rand_psd(d, rng)
        eig(A)
        matcore.psd_spectrum(A, vectors=False)
        unitary_exp(A)


def test_unitary_exp_of_size_two_matches_the_eigen_route():
    rng = np.random.default_rng(8)
    cases = [np.zeros((2, 2)), np.diag([0.3, -2.0]), 1e-9 * np.eye(2)]
    for _ in range(300):
        U = rand_unitary(2, rng)
        w = rng.uniform(-1.0, 1.0, size=2) * 10.0 ** rng.uniform(-8.0, 1.5)
        cases.append(matcore.hermitian_part((U * w) @ U.conj().T))
    for H in cases:
        w, V = _eigh_reference(H.astype(complex))
        want = (V * np.exp(1j * w)) @ V.conj().T
        got = unitary_exp(H)
        assert np.abs(got - want).max() <= 8 * EPS * max(1.0, np.abs(w).max())
        assert np.linalg.norm(got @ got.conj().T - np.eye(2)) <= 8 * EPS


def test_two_by_two_mean_refuses_an_unresolved_determinant():
    # The rank rule can pass a block whose determinant the entries cannot
    # resolve; the closed form refuses instead of returning NaN.
    singular = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    for inverse in (False, True):
        with pytest.raises(NumericCheckFailure, match="2x2 geometric mean unresolved"):
            matcore._diag_mean(np.array([1.0, 2.0]), singular, inverse, np.eye(2))


def test_scaled_root_is_the_plain_root_wherever_that_is_in_range():
    # Scaling by powers of 4 is exact, so the size-1 mean and the qubit route's
    # roots keep their bits; beyond the range they no longer overflow.
    rng = np.random.default_rng(41)
    for x, y in 10.0 ** rng.uniform(-150.0, 150.0, size=(2000, 2)):
        assert matcore._root(x, y) == math.sqrt(x * y)
        assert matcore._root(x, y, inverse=True) == math.sqrt(x / y)
    assert matcore._root(1e300, 1e-300, inverse=True) == pytest.approx(1e300, rel=1e-15)
    assert matcore._root(1e-300, 1e300, inverse=True) == pytest.approx(1e-300, rel=1e-15)
    assert matcore._root(1e300, 1e300) == pytest.approx(1e300, rel=1e-15)
    mean = matcore._diag_mean(np.array([1e300]), np.array([[1e300]], dtype=complex), False, np.eye(1))
    assert mean[0, 0] == pytest.approx(1e300, rel=1e-15)


def _upper_system(n: int, cond: float, rng: np.random.Generator):
    """``L*`` of the Cholesky factor of a Hermitian matrix with eigenvalues log-spaced over
    ``cond``, and ``n`` random complex right-hand sides, as :func:`matcore._tri_mean` meets them."""
    U = rand_unitary(n, rng)
    A = (U * np.logspace(0.0, -np.log10(cond), n)) @ U.conj().T
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.linalg.cholesky((A + A.conj().T) / 2).conj().T, B


@pytest.mark.parametrize("n", [1, 3, 64])
def test_upper_solve_is_lapacks_up_to_the_leaf(n):
    U, B = _upper_system(n, 1e8, np.random.default_rng(n))
    assert np.array_equal(matcore._solve_upper(U, B), np.linalg.solve(U, B))


@pytest.mark.parametrize("cond", [1e2, 1e8])
@pytest.mark.parametrize("n", [65, 100, 256])
def test_upper_solve_by_halves_is_backward_stable(n, cond):
    U, B = _upper_system(n, cond, np.random.default_rng([n, 1]))
    X = matcore._solve_upper(U, B)
    size = np.linalg.norm
    assert size(U @ X - B) <= n * EPS * size(U) * size(X)


def test_one_relative_residual_rule():
    # mat_close, the decomposition's resolution check and the CLI's checks read one
    # ratio ||A - B|| / (1 + ||B||); operands scaled by 4**-k with unit 4**-k give it too,
    # bit for bit, and entries near 1e300 neither overflow nor warn.
    rng = np.random.default_rng(12)
    B = rand_psd(4, rng)
    A = B + 1e-9 * rand_psd(4, rng)
    want = np.linalg.norm(A - B) / (1.0 + np.linalg.norm(B))
    assert matcore._rel_residual(A, B, 1.0) == want
    assert matcore._rel_residual(A * 4.0**-3, B * 4.0**-3, 4.0**-3) == want
    assert matcore.mat_close(A, B, ToleranceConfig(eq_rel=want)) and not matcore.mat_close(
        A, B, ToleranceConfig(eq_rel=want * (1 - 1e-12)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = 250
        got = matcore._rel_residual(A * 1e300 * 4.0**-k, B * 1e300 * 4.0**-k, 4.0**-k)
    assert got == pytest.approx(np.linalg.norm(A - B) / np.linalg.norm(B), rel=1e-12)


# -- non-finite input ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d", [2, 5])
def test_non_finite_entries_are_rejected(bad, d):
    A = np.eye(d, dtype=complex) / d
    A[0, 1] = A[1, 0] = bad
    with pytest.raises(ValidationError, match="operand has a non-finite entry"):
        matcore.check_hermitian(A, who="operand")
    with pytest.raises(ValidationError, match="factor 4 has a non-finite entry"):
        matcore.psd_spectrum(np.array([np.eye(d) / d, A]), who="factor", labels=np.array([3, 4]),
                             vectors=False)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_raise_before_any_warning(bad, entry):
    # inf - inf in A - A* once warned ahead of the ValidationError.
    A = np.eye(3, dtype=complex) / 3
    A[entry] = A[entry[::-1]] = bad
    with pytest.raises(ValidationError, match="non-finite entry"):
        matcore.check_hermitian(A)
    with pytest.raises(ValidationError, match="factor 2 has a non-finite entry"):
        matcore.check_hermitian(np.array([np.eye(3) / 3, A]), who="factor", labels=np.array([1, 2]))
    for operands in ((A, np.eye(3) / 3), (np.eye(3) / 3, A)):
        with pytest.raises(ValidationError, match="non-finite entry"):
            lebesgue_decompose(*operands)


@pytest.mark.filterwarnings("error")
def test_zero_matrix_next_to_an_overflowing_one_is_judged_without_a_warning():
    A = np.array([np.zeros((2, 2)), 1e200 * np.eye(2)], dtype=complex)
    assert np.array_equal(matcore.check_hermitian(A, labels=np.array([1, 2])), A)
    A[0, 0, 1] = 1.0
    with pytest.raises(NonHermitian, match="matrix 1 is not Hermitian"):
        matcore.check_hermitian(A, labels=np.array([1, 2]))


def test_hermiticity_rule_holds_where_squares_overflow():
    # Entries near 1e200 overflow the squared norms; the rule then runs in
    # units of the largest entry, and still rejects an asymmetric matrix.
    A = 1e200 * np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    assert np.array_equal(matcore.check_hermitian(A), A)
    A[0, 1] *= 1 + 1e-6
    with pytest.raises(NonHermitian, match=r"deviation 7.071e\+193"):
        matcore.check_hermitian(A)


# -- the Hermitian part near the top of the float range ------------------------------------


@pytest.mark.filterwarnings("error")
def test_positive_definite_decides_entries_near_the_largest_float():
    # The Hermitian part once formed A + A* before halving, so an entry at
    # or above 2**1023 overflowed and a finite matrix was refused.
    assert matcore.is_positive_definite(np.diag([1e308, 1.0]), 1e-14) is False
    assert matcore.is_positive_definite(np.diag([1e308, 1e308]), 1e-14) is True
    assert matcore.is_positive_definite(np.diag([1.7e308, 1e308, 1.2e308]).astype(complex), 1e-14) is True


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d", [2, 3])
def test_hermitian_part_of_finite_entries_is_finite(d):
    A = np.full((d, d), 1e308, dtype=complex)
    A[0, 0], A[0, 1] = 1.7e308, 1.5e308 + 1e308j
    H = matcore.hermitian_part(A)
    assert np.isfinite(H).all()
    assert H[0, 0] == 1.7e308 and H[0, 1] == 1.25e308 + 0.5e308j and H[1, 0] == np.conj(H[0, 1])
    A = matcore.hermitian_part(A)
    assert np.array_equal(matcore.check_hermitian(A), A)
    assert np.array_equal(matcore.check_hermitian(A[None], labels=np.array([1])), A[None])


def test_hermitian_part_keeps_its_bits_in_the_normal_range():
    # Above norm 2**510 the entries are halved first, exact wherever the
    # halves are normal numbers.
    rng = np.random.default_rng(12)
    for d in (2, 3, 8):
        for _ in range(200):
            A = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * 10.0 ** rng.uniform(-300, 300)
            assert np.array_equal(matcore.hermitian_part(A), (A + A.conj().T) / 2)


def test_hermitian_part_keeps_a_subnormal_diagonal():
    # Halving 3 * 2**-1074 first would round it to 4 * 2**-1074.
    tiny = 3 * 2.0**-1074
    for A in (np.diag([tiny, 1.0]), np.diag([tiny, tiny]).astype(complex), np.full((3, 3), tiny)):
        H = matcore.hermitian_part(A)
        assert np.array_equal(H, A) and np.array_equal(matcore.check_hermitian(A), A)
    stack = np.array([np.diag([tiny, 1.0]), np.diag([1.0, tiny])])
    assert np.array_equal(matcore.hermitian_part(stack), stack)


@pytest.mark.filterwarnings("error")
def test_unitary_exp_of_entries_near_the_largest_float():
    from qleb import finite_qcf
    from qleb.presets import GROUND, SIGMA_Z

    want = complex(math.cos(1e308), math.sin(1e308))
    assert abs(finite_qcf(GROUND, [SIGMA_Z], [[1e308]]) - want) <= 1e-15
    assert abs(unitary_exp(1e308 * SIGMA_Z)[0, 0] - want) <= 1e-15
    U = unitary_exp(np.diag([1.7e308, 1.0, -1.7e308]))
    assert np.abs(U @ U.conj().T - np.eye(3)).max() <= 1e-15
