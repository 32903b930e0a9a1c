import math
from fractions import Fraction

import numpy as np
import pytest

from qleb import lebesgue_decompose, matcore
from qleb.errors import (DimMismatch, NonHermitian, NotPSD, NotStrictlyPositive, NumericCheckFailure,
                         ValidationError)
from qleb.matcore import (
    DEFAULT_TOL,
    TOL_PROFILES,
    ToleranceConfig,
    eig_hermitian,
    geometric_mean,
    herm_exp,
    psd_log_on_support,
    psd_pinv,
    psd_sqrt,
    support_projector,
    trace_inner,
    unitary_exp,
)

from util import rand_psd, rand_spd, rand_unitary, rel_err


def test_eig_diagonal():
    w, V = eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(V), np.array([[0, 1], [1, 0]]))


def test_eig_identity():
    w, _ = eig_hermitian(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])


def test_eig_rank_one_projector():
    P = 0.5 * np.ones((2, 2))
    w, V = eig_hermitian(P)
    assert np.allclose(w, [0.0, 1.0])
    assert np.allclose(V[:, 1], np.array([1.0, 1.0]) / np.sqrt(2))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for _ in range(50):
        A = rand_psd(5, rng) - rand_psd(5, rng)
        w, V = eig_hermitian(A)
        assert np.linalg.norm((V * w) @ V.conj().T - A) <= DEFAULT_TOL.recon * (
            1 + np.linalg.norm(A)
        )
        assert np.linalg.norm(V.conj().T @ V - np.eye(5)) <= DEFAULT_TOL.ortho


def test_eig_phase_fix_deterministic():
    rng = np.random.default_rng(4)
    A = rand_psd(4, rng)
    w1, V1 = eig_hermitian(A)
    w2, V2 = eig_hermitian(A.copy())
    assert np.array_equal(V1, V2)
    for k in range(4):
        first = V1[np.argmax(np.abs(V1[:, k]) > 1e-12 * np.abs(V1[:, k]).max()), k]
        assert abs(first.imag) <= 1e-12 and first.real > 0


def test_support_projector_examples():
    assert np.allclose(support_projector(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))
    P = 0.5 * np.ones((2, 2))
    assert np.allclose(support_projector(P), P)
    assert np.allclose(support_projector(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))


def test_support_projector_rejects_indefinite():
    with pytest.raises(NotPSD):
        support_projector(np.diag([1.0, -1.0]))


def test_support_projector_idempotent_and_reproducing():
    rng = np.random.default_rng(5)
    for _ in range(30):
        A = rand_psd(5, rng, rank=int(rng.integers(1, 6)))
        P = support_projector(A)
        assert rel_err(P @ P, P) < DEFAULT_TOL.eq_rel
        assert np.linalg.norm(P @ A - A) <= DEFAULT_TOL.eq_rel * (1 + np.linalg.norm(A))


def test_psd_pinv_example():
    assert np.allclose(psd_pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))


def test_pinv_residual_random():
    rng = np.random.default_rng(6)
    A = rand_psd(5, rng)
    res = np.linalg.norm(A @ psd_pinv(A) @ A - A) / np.linalg.norm(A)
    assert res <= 1e-10


def test_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rand_psd(4, rng, rank=int(rng.integers(1, 5)))
        S = psd_sqrt(A)
        assert rel_err(S @ S, A) < DEFAULT_TOL.eq_rel


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


def test_trace_inner_examples():
    assert trace_inner(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0
    assert trace_inner(np.eye(2) / 2, np.eye(2) / 2) == pytest.approx(0.5)
    rho_inf = np.diag([1.0, 0.0])
    sigma_inf = 0.5 * np.ones((2, 2))
    assert trace_inner(rho_inf, sigma_inf) == pytest.approx(0.5)


def test_trace_inner_dim_mismatch():
    with pytest.raises(DimMismatch):
        trace_inner(np.eye(2), np.eye(3))


def test_unitary_exp_is_unitary():
    rng = np.random.default_rng(12)
    H = rand_psd(3, rng) - rand_psd(3, rng)
    U = unitary_exp(H)
    assert rel_err(U @ U.conj().T, np.eye(3)) < 1e-12
    assert np.allclose(unitary_exp(np.zeros((2, 2))), np.eye(2))


def test_unitary_conjugation_covariance_of_functions():
    rng = np.random.default_rng(13)
    A = rand_psd(4, rng)
    U = rand_unitary(4, rng)
    assert rel_err(psd_sqrt(U @ A @ U.conj().T), U @ psd_sqrt(A) @ U.conj().T) < 1e-10


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rel=2.0)
    assert set(TOL_PROFILES) >= {"default", "strict", "extreme-scale"}


def test_rank_cutoff_is_relative():
    A = np.diag([1e-3, 1e-15])
    P = support_projector(A)
    assert np.allclose(P, np.diag([1.0, 0.0]))
    P2 = support_projector(A, matcore.ToleranceConfig(rank_rel=1e-15))
    assert np.allclose(P2, np.eye(2))


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


# -- closed-form spectra of 2x2 stacks ----------------------------------------------------


def test_psd_spectrum_of_2x2_stacks_matches_eigvalsh():
    # Trace and determinant replace LAPACK for (N, 2, 2) stacks without vectors
    # (single matrices have their own closed form, tested below).  Eigenvalues
    # agree to rounding of lam_max, including spectra down to 1e-12 and exact zeros.
    rng = np.random.default_rng(5)
    lo = np.concatenate([np.zeros(50), 10.0 ** rng.uniform(-12.0, 0.0, size=250)])
    mats = []
    for w in lo:
        U = rand_unitary(2, rng)
        mats.append((U * [w, 1.0]) @ U.conj().T)
    stack = np.array(mats)
    got = matcore.psd_spectrum(stack, labels=np.arange(len(mats)), vectors=False)
    want = np.maximum(np.linalg.eigvalsh(matcore.hermitian_part(stack)), 0.0)
    assert np.all(np.abs(got.eigenvalues - want) <= 4 * np.finfo(float).eps)
    assert got.eigenvectors is None
    # Diagonal stacks have exact spectra, which the closed form reproduces.
    diag = np.zeros((len(lo), 2, 2), dtype=complex)
    diag[:, 0, 0], diag[:, 1, 1] = 1.0, lo
    w = matcore.psd_spectrum(diag, labels=np.arange(len(lo)), vectors=False).eigenvalues
    assert np.array_equal(w, np.stack([lo, np.ones_like(lo)], axis=1))


def test_psd_spectrum_of_2x2_stacks_rejects_what_eigvalsh_rejects():
    rng = np.random.default_rng(6)
    for neg in (-1e-3, -0.2):
        U = rand_unitary(2, rng)
        bad = (U * [neg, 1.0 - neg]) @ U.conj().T
        stack = np.array([np.eye(2) / 2, bad, bad])
        with pytest.raises(NotPSD, match=f"factor 2 has eigenvalue {neg:.3e} below the PSD floor"):
            matcore.psd_spectrum(stack, who="factor", labels=np.array([1, 2, 3]), vectors=False)
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
    assert np.array_equal(matcore._eigh(H, vectors=False).eigenvalues, w)
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
        w = matcore._eigh(H, vectors=False).eigenvalues
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
        eig_hermitian(A)
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
            matcore._diag_mean(np.array([1.0, 2.0]), singular, inverse=inverse)


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
    mean = matcore._diag_mean(np.array([1e300]), np.array([[1e300]], dtype=complex))
    assert mean[0, 0] == pytest.approx(1e300, rel=1e-15)


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
