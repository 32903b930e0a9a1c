import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qleb import (
    DEFAULT_TOL,
    TOL_PROFILES,
    DensityMatrix,
    excision,
    is_abs_continuous,
    is_singular,
    lebesgue_decompose,
    quantum_log_likelihood,
    sqrt_likelihood_ratio,
)
from qleb.errors import NotPSD, NotStrictlyPositive, NumericCheckFailure, ValidationError, ZeroState
from qleb.presets import (
    faithful_to_pure_limits,
    faithful_to_pure_pair,
    faithful_to_pure_sqrt_lr,
    orthogonal_limit_pair,
    orthogonal_limit_sqrt_lr,
)

from qleb import lebesgue
from oracles import (block_construction_decomposition, closed_form_decomposition, herm,
                     mp_faithful_sqrt_lr, mp_perturbation_bound, shorted_to_kernel,
                     support_projector)
from test_rank_rule import operand_near_cutoff, orthogonal_pair
from util import (
    rand_density,
    rand_density_bounded,
    rand_psd,
    rand_spd,
    rand_unitary,
    rel_err,
)


def test_density_matrix_validation():
    DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ZeroState):
        DensityMatrix(np.eye(2))  # trace 2
    DensityMatrix(np.eye(2) / 4, subnormalized=True)
    with pytest.raises(NotPSD):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_a_density_matrix_is_read_as_an_array_and_validated_under_the_calls_tolerance():
    # diag(1 + 5e-11, -5e-11) clears the default PSD floor, so it makes a
    # DensityMatrix, but not the strict floor; l2_norm_sq once returned
    # 0.99999999985 for the DensityMatrix under the strict profile.
    from qleb import TOL_PROFILES, is_singular, l2_norm_sq

    strict = TOL_PROFILES["strict"]
    for d in (2, 3):
        A = np.diag([1 + 5e-11] + [0.0] * (d - 2) + [-5e-11])
        dm = DensityMatrix(A)
        assert np.asarray(dm) is dm.mat
        assert np.array(dm, copy=True) is not dm.mat
        calls = (lambda x: l2_norm_sq(x, np.eye(d), strict),
                 lambda x: is_singular(x, np.eye(d) / d, strict),
                 lambda x: lebesgue_decompose(np.eye(d) / d, x, strict))
        for call in calls:
            for x in (A, dm):
                with pytest.raises(NotPSD, match="eigenvalue -5.000e-11 below the PSD floor"):
                    call(x)
        assert l2_norm_sq(dm, np.eye(d)) == l2_norm_sq(A, np.eye(d))


def test_excision_full_rank_keeps_spectrum():
    rng = np.random.default_rng(0)
    rho = rand_density(3, rng)
    sigma = rand_density(3, rng)
    ex = excision(sigma, rho)
    assert np.allclose(np.sort(np.linalg.eigvalsh(ex)), np.sort(np.linalg.eigvalsh(sigma)))


def test_excision_pure_reference_picks_corner():
    rho_inf, sigma_inf = faithful_to_pure_limits()
    ex = excision(sigma_inf, rho_inf)
    assert ex.shape == (1, 1)
    assert ex[0, 0] == pytest.approx(0.5)


def test_excision_orthogonal_pure_states_is_zero():
    ex = excision(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert ex.shape == (1, 1)
    assert abs(ex[0, 0]) < 1e-15


def test_excision_rejects_zero_state():
    with pytest.raises(ZeroState):
        excision(np.eye(2) / 2, np.zeros((2, 2)))


def test_is_singular_examples():
    assert is_singular(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    rho_inf, sigma_inf = faithful_to_pure_limits()
    assert not is_singular(rho_inf, sigma_inf)
    rng = np.random.default_rng(1)
    rho = rand_density(3, rng)
    assert not is_singular(rho, rho)


def test_is_singular_symmetric_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        a = rand_density(d, rng, rank=int(rng.integers(1, d + 1)))
        b = rand_density(d, rng, rank=int(rng.integers(1, d + 1)))
        assert is_singular(a, b) == is_singular(b, a)


def test_abs_continuity_examples():
    rho_inf, sigma_inf = faithful_to_pure_limits()
    assert is_abs_continuous(sigma_inf, rho_inf)
    assert is_abs_continuous(rho_inf, sigma_inf)
    assert not is_abs_continuous(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    rng = np.random.default_rng(3)
    b = rand_spd(3, rng)
    b = b / np.trace(b).real
    a = rand_density(3, rng, rank=2)
    assert is_abs_continuous(a, b)


def test_mutual_ac_examples():
    rng = np.random.default_rng(4)
    rho = rand_spd(3, rng)
    rho = rho / np.trace(rho).real
    assert is_abs_continuous(rho, rho)
    rho_inf, sigma_inf = faithful_to_pure_limits()
    # non-orthogonal pure states
    assert is_abs_continuous(rho_inf, sigma_inf) and is_abs_continuous(sigma_inf, rho_inf)
    a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert not is_abs_continuous(a, b) and not is_abs_continuous(b, a)


def test_decompose_equal_faithful_states():
    rng = np.random.default_rng(5)
    rho = rand_spd(3, rng)
    rho = rho / np.trace(rho).real
    dec = lebesgue_decompose(rho, rho)
    assert rel_err(dec.ac, rho) < 1e-10
    assert np.linalg.norm(dec.perp) < 1e-10
    assert rel_err(dec.sqrt_lr, np.eye(3)) < 1e-9
    assert dec.split.dims == (0, 3, 0)


def test_decompose_known_closed_form_family():
    for n in [1, 2, 5, 10, 50]:
        rho, sigma = faithful_to_pure_pair(n)
        dec = lebesgue_decompose(sigma, rho)
        assert rel_err(dec.sqrt_lr, faithful_to_pure_sqrt_lr(n)) < 1e-12
        assert dec.split.dims[0] == 0  # case sigma >> rho
        assert np.linalg.norm(dec.perp) < 1e-12


def test_decompose_case1_ac_part_mutually_continuous():
    # when rho << sigma the absolutely continuous part is equivalent to rho
    rng = np.random.default_rng(21)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        sigma = rand_density_bounded(d, rng)  # faithful, so rho << sigma always
        rho = rand_density_bounded(d, rng, rank=int(rng.integers(1, d + 1)))
        dec = lebesgue_decompose(sigma, rho)
        assert dec.split.dims[0] == 0
        assert is_abs_continuous(dec.ac, rho) and is_abs_continuous(rho, dec.ac)


def test_decompose_singular_pair():
    sigma = np.diag([0.0, 1.0])
    rho = np.diag([1.0, 0.0])
    dec = lebesgue_decompose(sigma, rho)
    assert np.linalg.norm(dec.ac) == 0
    assert np.allclose(dec.perp, sigma)
    assert np.linalg.norm(dec.sqrt_lr) == 0
    assert dec.split.dims == (1, 0, 1)


def test_decompose_invariants_random_rank_deficient():
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        rho = rand_density(d, rng, rank=int(rng.integers(1, d + 1)))
        sigma = rand_density(d, rng, rank=int(rng.integers(1, d + 1)))
        dec = lebesgue_decompose(sigma, rho)
        assert np.linalg.norm(dec.ac + dec.perp - sigma) < 1e-10
        assert abs(np.trace(rho @ dec.perp)) < 1e-10
        assert np.linalg.norm(dec.ac - dec.sqrt_lr @ rho @ dec.sqrt_lr) < 1e-9
        if np.linalg.norm(dec.ac) > 1e-8:
            assert is_abs_continuous(dec.ac, rho)
        tr_sum = np.trace(dec.ac).real + np.trace(dec.perp).real
        assert tr_sum == pytest.approx(1.0, abs=1e-10)


def test_decompose_agrees_with_block_oracle_dim4():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = rand_density(4, rng, rank=2)
        sigma = rand_density(4, rng, rank=int(rng.integers(1, 5)))
        dec = lebesgue_decompose(sigma, rho)
        ac_o, perp_o, r_o = block_construction_decomposition(sigma, rho)
        assert np.linalg.norm(dec.ac - ac_o) < 1e-8
        assert np.linalg.norm(dec.perp - perp_o) < 1e-8
        assert np.linalg.norm(dec.sqrt_lr - r_o) < 1e-7


def test_sqrt_lr_known_rank_one_family():
    got = sqrt_likelihood_ratio(*reversed(orthogonal_limit_pair(2)))
    want = np.array([[1.0, 2.0], [2.0, 4.0]]) / np.sqrt(5.0)
    assert rel_err(got, want) < 1e-12
    assert rel_err(got, orthogonal_limit_sqrt_lr(2)) < 1e-12


def test_sqrt_lr_of_state_with_itself_is_support_projector():
    rng = np.random.default_rng(8)
    sigma = rand_density(4, rng, rank=2)
    got = sqrt_likelihood_ratio(sigma, sigma)
    assert rel_err(got, support_projector(sigma)) < 1e-8


def test_sqrt_lr_matches_closed_form_oracle():
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        rho = rand_density(d, rng)
        sigma = rand_density(d, rng)
        got = sqrt_likelihood_ratio(sigma, rho)
        _, _, r_o = closed_form_decomposition(sigma, rho)
        assert np.linalg.norm(got - r_o) < 1e-8


def test_sqrt_lr_trace_identity():
    rng = np.random.default_rng(10)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        rho = rand_density(d, rng, rank=int(rng.integers(1, d + 1)))
        sigma = rand_density(d, rng, rank=int(rng.integers(1, d + 1)))
        dec = lebesgue_decompose(sigma, rho)
        lhs = np.trace(rho @ dec.sqrt_lr @ dec.sqrt_lr).real
        assert lhs == pytest.approx(np.trace(dec.ac).real, abs=1e-9)


def test_kernel_weight_freedom_leaves_ac_unchanged():
    rng = np.random.default_rng(11)
    rho = rand_density(4, rng, rank=2)
    sigma = rand_density(4, rng)
    dec = lebesgue_decompose(sigma, rho)
    ker = dec.split.basis_3
    gamma = ker @ rand_psd(ker.shape[1], rng) @ ker.conj().T
    shifted = dec.sqrt_lr + gamma
    assert np.linalg.norm(shifted @ rho @ shifted - dec.ac) < 1e-9


def test_ratio_roundtrip_on_constructed_ac_pairs():
    # a << b iff a = R b R for some PSD R; the canonical ratio must reproduce a.
    rng = np.random.default_rng(12)
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        b = rand_density_bounded(d, rng, rank=int(rng.integers(1, d + 1)))
        R0 = rand_spd(d, rng)
        a = R0 @ b @ R0
        a = (a + a.conj().T) / 2
        a = a / np.trace(a).real
        assert is_abs_continuous(a, b)
        R = sqrt_likelihood_ratio(a, b)
        assert np.linalg.norm(R @ b @ R - a) < 1e-8


def test_pure_direction_ac_despite_support_leak():
    # A pure state may lean on ker(b) and still be absolutely continuous.
    rng = np.random.default_rng(13)
    b = rand_density(4, rng, rank=2)
    w, V = np.linalg.eigh(b)
    v = 0.8 * V[:, -1] + 0.6 * V[:, 0]  # mixes support and kernel directions
    a = np.outer(v, v.conj())
    assert is_abs_continuous(a, b)
    R = sqrt_likelihood_ratio(a, b)
    assert np.linalg.norm(R @ b @ R - a) < 1e-8


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), d=st.sampled_from([2, 3, 8]),
       sigma_kind=st.sampled_from(["resolved", "zero", "above"]),
       rho_kind=st.sampled_from(["resolved", "zero", "above"]),
       profile=st.sampled_from(["default", "strict"]), diagonal=st.booleans())
def test_unitary_covariance(seed, d, sigma_kind, rho_kind, profile, diagonal):
    # Every eigenvalue is 0 or at least 10x the rank cutoff, so a unitary
    # conjugation moves no eigenvalue across it: the split dims are equal and
    # ac and perp are covariant within eq_rel (1 + ||.||).  So is R when every
    # nonzero eigenvalue is resolved; with one near the cutoff R itself is
    # ill-conditioned (under the strict profile the rounding of U rho U*
    # alone moves the exact R by up to two thirds of its norm), so it is not
    # compared there.
    tol = TOL_PROFILES[profile]
    rng = np.random.default_rng(seed)
    sigma = operand_near_cutoff(rng, d, sigma_kind, tol, diagonal)
    rho = operand_near_cutoff(rng, d, rho_kind, tol, diagonal)
    U = rand_unitary(d, rng)
    dec = lebesgue_decompose(sigma, rho, tol)
    dec_u = lebesgue_decompose(U @ sigma @ U.conj().T, U @ rho @ U.conj().T, tol)
    assert dec_u.split.dims == dec.split.dims
    pairs = [(dec_u.ac, dec.ac), (dec_u.perp, dec.perp)]
    if "above" not in (sigma_kind, rho_kind):
        pairs.append((dec_u.sqrt_lr, dec.sqrt_lr))
    for got, want in pairs:
        want = U @ want @ U.conj().T
        assert np.linalg.norm(got - want) <= tol.eq_rel * (1 + np.linalg.norm(want))


def assert_decomposition_identities(sigma, rho, tol):
    # sigma = ac + perp and ac = R rho R within eq_rel, Tr rho perp = 0, and
    # is_singular iff ac = 0.  R rho R is read within eq_rel plus the rounding
    # of its own evaluation, d eps ||R||^2 ||rho||: with an eigenvalue of rho
    # near the cutoff, ||R||^2 reaches 1 / (10 rank_rel), and that rounding
    # alone is eq_rel-sized.
    size, d = np.linalg.norm, len(sigma)
    dec = lebesgue_decompose(sigma, rho, tol)
    R = dec.sqrt_lr
    assert size(dec.ac + dec.perp - sigma) <= tol.eq_rel * (1 + size(sigma))
    floor = d * np.finfo(float).eps * size(R, 2) ** 2 * size(rho, 2)
    assert size(R @ rho @ R - dec.ac) <= tol.eq_rel * (1 + size(dec.ac)) + floor
    assert abs(np.trace(rho @ dec.perp)) <= tol.eq_rel * size(rho) * (1 + size(sigma))
    assert is_singular(rho, sigma, tol) == (not dec.ac.any())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), d=st.sampled_from([3, 8]),
       sigma_kind=st.sampled_from(["resolved", "zero", "above", "orthogonal"]),
       rho_kind=st.sampled_from(["resolved", "zero", "above"]),
       profile=st.sampled_from(["default", "strict"]), diagonal=st.booleans())
def test_decomposition_identities_on_every_route(seed, d, sigma_kind, rho_kind, profile, diagonal):
    # Full rank (the triangular route), a kernel in sigma, in rho or in both,
    # and orthogonal supports (mutually singular); eigenvalues 0 or down to
    # 10x the rank cutoff.
    tol = TOL_PROFILES[profile]
    rng = np.random.default_rng(seed)
    if sigma_kind == "orthogonal":
        rho, sigma = orthogonal_pair(rng, d)
    else:
        sigma = operand_near_cutoff(rng, d, sigma_kind, tol, diagonal)
        rho = operand_near_cutoff(rng, d, rho_kind, tol, diagonal)
    assert_decomposition_identities(sigma, rho, tol)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("operands", [(96, 96), (60, 96), (96, 60), (60, 50), (96, 1), "orthogonal",
                                      ("above", "above"), ("zero", "zero")])
def test_decomposition_identities_above_the_solve_leaf(seed, operands):
    # d = 96: the triangular back-substitution recurses (blocks of at most 64),
    # and the H2 blocks of the deficient routes' geometric means exceed 2x2.
    # Operands are given by their ranks or by operand_near_cutoff's kinds.
    d, tol = 96, DEFAULT_TOL
    rng = np.random.default_rng([d, seed])
    if operands == "orthogonal":
        rho, sigma = orthogonal_pair(rng, d)
    elif isinstance(operands[0], str):
        sigma, rho = (operand_near_cutoff(rng, d, kind, tol, False) for kind in operands)
    else:
        sigma, rho = (rand_density_bounded(d, rng, rank=k) for k in operands)
    assert_decomposition_identities(sigma, rho, tol)


@pytest.mark.parametrize("route, d, ranks", [
    ("qubit", 2, (2, 2)), ("qubit", 2, (1, 2)), ("qubit", 2, (2, 1)), ("qubit", 2, (1, 1)),
    ("triangular", 3, (3, 3)), ("triangular", 8, (8, 8)),
    ("deficient-sigma", 3, (2, 3)), ("deficient-sigma", 8, (5, 8)),
    ("deficient-rho", 3, (3, 2)), ("deficient-rho", 8, (8, 5)),
    ("both-deficient", 3, (2, 2)), ("both-deficient", 3, (2, 1)), ("both-deficient", 8, (5, 4)),
    ("both-deficient", 8, (3, 6)),
])
def test_perp_is_sigma_shorted_to_the_kernel_of_rho(route, d, ranks):
    # perp is the shorted operator of sigma to ker rho (Anderson & Trapp): the
    # pseudo-inverse Schur complement of sigma's supp-rho block, and the
    # largest X <= sigma with range in ker rho, so sigma - perp >= 0.  Draws
    # keep every eigenvalue of sigma, rho and the excision 0 or >= 1e3 times
    # away from the rank cutoff, so no rank decision is in doubt.
    tol = DEFAULT_TOL
    k, r = ranks
    dims = (r - min(k, r), min(k, r), d - r)
    rng = np.random.default_rng([d, k, r])
    used = 0
    for _ in range(50):
        sigma = rand_density_bounded(d, rng, rank=k, floor=0.1)
        rho = rand_density_bounded(d, rng, rank=r, floor=0.1)
        w_r, V_r = np.linalg.eigh(rho)
        supp = V_r[:, w_r > tol.rank_rel * w_r[-1]]
        w_x = np.linalg.eigvalsh(supp.conj().T @ sigma @ supp) / np.linalg.eigvalsh(sigma)[-1]
        if np.any((w_x > 1e-3 * tol.rank_rel) & (w_x < 1e3 * tol.rank_rel)):
            continue
        used += 1
        dec = lebesgue_decompose(sigma, rho, tol)
        assert dec.split.dims == dims
        if route == "triangular":
            assert np.array_equal(dec.split.basis_2, np.eye(d))
        want = shorted_to_kernel(sigma, rho, tol.rank_rel)
        assert np.linalg.norm(dec.perp - want) <= tol.eq_rel * (1 + np.linalg.norm(sigma))
        lam = np.linalg.eigvalsh(sigma)
        assert np.linalg.eigvalsh(sigma - dec.perp)[0] >= -tol.psd_floor * lam[-1]
    assert used >= 45


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       d_rank=st.sampled_from([3, 8]).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
       fraction=st.floats(min_value=0.0, max_value=1.0), profile=st.sampled_from(["default", "strict"]))
def test_perp_lies_above_every_admissible_operator(seed, d_rank, fraction, profile):
    # perp is the largest X with 0 <= X <= sigma and range in ker rho (Anderson
    # & Trapp, SIAM J. Appl. Math. 28 (1975)).  X = t Q Z Q, with Q rho's kernel
    # projector and Z a random PSD matrix, is such an operator for every t up
    # to the largest that keeps sigma - X >= 0: the reciprocal of the top
    # generalized eigenvalue of (Q Z Q, sigma).  Each lies below perp.
    d, rank = d_rank
    tol = TOL_PROFILES[profile]
    rng = np.random.default_rng(seed)
    sigma = rand_density_bounded(d, rng, floor=0.1)
    rho = rand_density_bounded(d, rng, rank=rank, floor=0.1)
    Q = np.eye(d) - support_projector(rho, tol.rank_rel)
    Y = herm(Q @ rand_psd(d, rng) @ Q)
    t_max = 1.0 / scipy.linalg.eigh(Y, sigma, eigvals_only=True)[-1]
    X = fraction * t_max * Y
    perp = lebesgue_decompose(sigma, rho, tol).perp
    assert np.linalg.eigvalsh(herm(perp - X))[0] >= -tol.eq_rel * (1 + np.linalg.norm(sigma))


def test_quantum_log_likelihood_examples():
    rng = np.random.default_rng(15)
    rho = rand_spd(3, rng)
    rho = rho / np.trace(rho).real
    assert np.linalg.norm(quantum_log_likelihood(rho, rho)) < 1e-9

    s = np.array([0.5, 0.3, 0.2])
    r = np.array([0.2, 0.3, 0.5])
    L = quantum_log_likelihood(np.diag(s), np.diag(r))
    assert np.allclose(L, np.diag(np.log(s / r)), atol=1e-12)


def test_quantum_log_likelihood_reconstructs():
    from qleb.matcore import herm_exp

    rng = np.random.default_rng(16)
    for _ in range(20):
        rho = rand_spd(3, rng)
        rho = rho / np.trace(rho).real
        sigma = rand_spd(3, rng)
        sigma = sigma / np.trace(sigma).real
        L = quantum_log_likelihood(sigma, rho)
        half = herm_exp(L / 2)
        assert np.linalg.norm(half @ rho @ half - sigma) / np.linalg.norm(sigma) <= 1e-9


def test_quantum_log_likelihood_requires_faithful():
    with pytest.raises(NotStrictlyPositive):
        quantum_log_likelihood(np.diag([1.0, 0.0]), np.eye(2) / 2)


def log_uniform_state(d: int, rank: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Trace-one state: ``rank`` eigenvalues log-uniform in [ratio, 1], Haar-random basis."""
    w = np.zeros(d)
    w[:rank] = 10.0 ** rng.uniform(np.log10(ratio), 0.0, size=rank)
    U = rand_unitary(d, rng)
    A = (U * w) @ U.conj().T
    A = (A + A.conj().T) / 2
    return A / np.trace(A).real


@pytest.mark.parametrize("ratio, forms, bound", [
    (1e-6, ("full", "deficient-sigma", "deficient-rho"), 1e-9),
    (1e-8, ("full", "deficient-sigma"), DEFAULT_TOL.eq_rel),
])
@pytest.mark.parametrize("d", [8, 64])
def test_ratio_residual_on_wide_spectra(d, ratio, forms, bound):
    # ||R rho R - ac|| / (1 + ||ac||) for spectra spanning 1/ratio; the
    # deficient operand has rank d//2 + 1.  Forming sigma0^{-1/2} and its
    # products in a general basis lost 1.5e-7 at ratio 1e-6 and 4e-3 at 1e-8.
    k = d // 2 + 1
    for form in forms:
        for seed in range(20):
            rng = np.random.default_rng([d, seed, forms.index(form)])
            rho = log_uniform_state(d, k if form == "deficient-rho" else d, ratio, rng)
            sigma = log_uniform_state(d, k if form == "deficient-sigma" else d, ratio, rng)
            dec = lebesgue_decompose(sigma, rho)
            R, ac = dec.sqrt_lr, dec.ac
            resid = np.linalg.norm(R @ rho @ R - ac) / (1 + np.linalg.norm(ac))
            assert resid <= bound, (form, seed, resid)


@pytest.mark.parametrize("seed", range(5))
def test_extreme_scale_refuses_an_unresolved_rho_kernel(seed):
    # Under rank_rel = 1e-30 the rounding-level kernel eigenvalues of a rank-5 rho
    # in a Haar basis count as support (split dims (0, 7, 1) or (0, 6, 2)), and
    # R rho R misses ac by 7e-7 to 9e-2 relative: that result must be refused.
    # The faithful pair with the same spectra is resolved and still returned.
    tol = TOL_PROFILES["extreme-scale"]
    rng = np.random.default_rng(seed)
    rho = log_uniform_state(8, 5, 1e-9, rng)
    sigma = log_uniform_state(8, 8, 1e-9, rng)
    with pytest.raises(NumericCheckFailure, match="decomposition unresolved"):
        lebesgue_decompose(sigma, rho, tol)
    faithful = log_uniform_state(8, 8, 1e-9, rng)
    dec = lebesgue_decompose(sigma, faithful, tol)
    assert dec.split.dims == (0, 8, 0)
    R = dec.sqrt_lr
    assert np.linalg.norm(R @ faithful @ R - dec.ac) <= tol.eq_rel * (1 + np.linalg.norm(dec.ac))


def test_extreme_scale_refuses_unresolved_qubit_pairs_too():
    # Orthogonal pure pairs in a Haar basis are exactly singular, but under
    # rank_rel = 1e-30 their rounding-level eigenvalues pass as support, and
    # for about a third of them R rho R misses ac beyond eq_rel: the scalar
    # route must refuse those, as the array route does.
    tol = TOL_PROFILES["extreme-scale"]
    refused = 0
    for seed in range(200):
        U = rand_unitary(2, np.random.default_rng([seed, 2]))
        rho, sigma = np.outer(U[:, 0], U[:, 0].conj()), np.outer(U[:, 1], U[:, 1].conj())
        try:
            dec = lebesgue_decompose(sigma, rho, tol)
        except NumericCheckFailure:
            refused += 1
            continue
        R = dec.sqrt_lr
        assert np.linalg.norm(R @ rho @ R - dec.ac) <= tol.eq_rel * (1 + np.linalg.norm(dec.ac))
    assert refused > 0


@pytest.mark.parametrize("sigma, rho", [
    (np.diag([1e300, 0, 0]), 1e-300 * np.eye(3)),
    (np.diag([1e300, 0]), 1e-300 * np.eye(2)),
    (1e300 * np.eye(2), np.diag([0, 1e-300])),
    (1e300 * np.eye(3), np.diag([0, 0, 1e-300])),
])
def test_ratio_at_opposite_ends_of_the_float_range(sigma, rho):
    # R = 1e300 is representable although sigma / rho is not: the size-1 mean and
    # the qubit route's scalar roots are taken on operands scaled by powers of 4.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = lebesgue_decompose(sigma.astype(complex), rho.astype(complex))
    assert np.abs(dec.sqrt_lr).max() == pytest.approx(1e300, rel=1e-15)


# -- scale covariance and non-finite input ---------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_scale_covariance_across_the_float_range(d):
    # R(c sigma, rho) = sqrt(c) R(sigma, rho) and R(sigma, c rho) = R(sigma, rho) / sqrt(c)
    # for c = 10^k, k in [-300, 300]: no product of entries may overflow or underflow.
    rng = np.random.default_rng([d, 300])
    for _ in range(3):
        sigma, rho = rand_density(d, rng), rand_density(d, rng)
        base = lebesgue_decompose(sigma, rho)
        for k in range(-300, 301, 20):
            c = 10.0 ** k
            for dec, factor in ((lebesgue_decompose(c * sigma, rho), np.sqrt(c)),
                                (lebesgue_decompose(sigma, c * rho), 1.0 / np.sqrt(c))):
                assert dec.split.dims == base.split.dims, k
                assert rel_err(dec.sqrt_lr / factor, base.sqrt_lr) <= 1e-12, k


@pytest.mark.parametrize("kind", ["full", "deficient-sigma", "deficient-rho"])
@pytest.mark.parametrize("d", [3, 8])
def test_scale_covariance_on_every_route(d, kind):
    # The triangular route (full rank) and both geometric means (a kernel on
    # either side) are taken on operands scaled by powers of 4.
    rng = np.random.default_rng([d, 150])
    k = d // 2 + 1
    sigma = rand_density(d, rng, k if kind == "deficient-sigma" else d)
    rho = rand_density(d, rng, k if kind == "deficient-rho" else d)
    base = lebesgue_decompose(sigma, rho)
    for e in range(-150, 151, 30):
        c = 10.0 ** e
        for dec, factor in ((lebesgue_decompose(c * sigma, rho), np.sqrt(c)),
                            (lebesgue_decompose(sigma, c * rho), 1.0 / np.sqrt(c))):
            assert dec.split.dims == base.split.dims, e
            assert rel_err(dec.sqrt_lr / factor, base.sqrt_lr) <= 1e-12, e


def test_geometric_mean_of_blocks_above_2x2_is_scaled():
    # sigma of rank 4 at 1e-194 against a faithful rho at 1e-172: unscaled,
    # C^{1/2} M C^{1/2} underflowed to 0 in the mean of the 4x4 H2 blocks, and
    # sqrt_lr came out NaN after a divide-by-zero warning.
    rng = np.random.default_rng([8, 22])
    sigma, rho = rand_density(8, rng, 4), rand_density(8, rng)
    base = lebesgue_decompose(sigma, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = lebesgue_decompose(1e-194 * sigma, 1e-172 * rho)
    assert dec.split.dims == base.split.dims == (4, 4, 0)
    assert rel_err(dec.sqrt_lr * 1e11, base.sqrt_lr) <= 1e-12


# -- the triangular route and its accuracy ---------------------------------------------------


def conditioned_state(rng: np.random.Generator, d: int, cond: float) -> np.ndarray:
    """Exactly Hermitian, eigenvalues log-spaced from 1 down to 1/cond, in a Haar basis."""
    U = rand_unitary(d, rng)
    A = (U * np.logspace(0.0, -np.log10(cond), d)) @ U.conj().T
    return (A + A.conj().T) / 2


def test_triangular_route_returns_sigma_as_ac():
    # Both operands certified full rank: H2 is the whole space in the standard
    # basis, ac is sigma's validated Hermitian part and perp is 0, exactly.
    rng = np.random.default_rng(11)
    sigma, rho = rand_density(8, rng), rand_density(8, rng)
    dec = lebesgue_decompose(sigma, rho)
    assert np.array_equal(dec.ac, (sigma + sigma.conj().T) / 2)
    assert not np.any(dec.perp)
    assert dec.split.dims == (0, 8, 0)
    assert np.array_equal(dec.split.basis_2, np.eye(8))


@pytest.mark.parametrize("sigma_rank, rho_rank", [(8, 8), (5, 8), (8, 5), (5, 5), (8, 1)])
def test_certified_routes_agree_with_the_eigen_route(sigma_rank, rho_rank):
    # Certificates change which eigensolves run, never the decomposition.
    for seed in range(5):
        rng = np.random.default_rng([seed, sigma_rank, rho_rank])
        sigma, rho = rand_density(8, rng, sigma_rank), rand_density(8, rng, rho_rank)
        dec = lebesgue_decompose(sigma, rho)
        eigen = lebesgue._decompose(lebesgue._split(sigma, rho, DEFAULT_TOL, vectors=True, certify=False))
        assert dec.split.dims == eigen.split.dims
        for got, want in ((dec.ac, eigen.ac), (dec.perp, eigen.perp), (dec.sqrt_lr, eigen.sqrt_lr)):
            assert np.linalg.norm(got - want) <= 1e-12 * (1 + np.linalg.norm(want))


@pytest.mark.parametrize("d", [3, 6, 12, 16])
def test_faithful_ratio_is_as_accurate_as_its_conditioning(d):
    # cond(sigma) = cond(rho) = 1e8.  The forward error of sqrt_lr against a
    # 40-digit evaluation stays within 1e3 times what eps-relative input
    # perturbations do to the true R.  Residuals cannot show this: the mean
    # diag(1/w_rho) # sigma0 in rho's eigenbasis misses by 1e-5 to 9e-3 here
    # (1e3 to 4e7 times that bound) and passes every residual check.
    rng = np.random.default_rng([d, 1])
    sigma, rho = conditioned_state(rng, d, 1e8), conditioned_state(rng, d, 1e8)
    err = rel_err(lebesgue_decompose(sigma, rho).sqrt_lr, mp_faithful_sqrt_lr(sigma, rho))
    assert err <= 1e3 * mp_perturbation_bound(sigma, rho, np.random.default_rng(1))


@pytest.mark.parametrize("d", [3, 6])
def test_extended_precision_oracle_routes_agree(d):
    rng = np.random.default_rng([d, 2])
    sigma, rho = conditioned_state(rng, d, 1e8), conditioned_state(rng, d, 1e8)
    chol, eig = mp_faithful_sqrt_lr(sigma, rho, "cholesky"), mp_faithful_sqrt_lr(sigma, rho, "eigen")
    assert rel_err(chol, eig) <= 1e-15  # both rounded from 40 digits
    R = lebesgue_decompose(sigma, rho).sqrt_lr
    assert rel_err(R @ rho @ R, sigma) <= 1e-6


def test_triangular_route_above_the_solve_leaf_keeps_its_residual():
    # d = 96 > 64: the back-substitution on L* recurses; the residual bound of
    # the 40-digit oracle test above still holds at cond 1e8.
    rng = np.random.default_rng([96, 2])
    sigma, rho = conditioned_state(rng, 96, 1e8), conditioned_state(rng, 96, 1e8)
    R = lebesgue_decompose(sigma, rho).sqrt_lr
    assert rel_err(R @ rho @ R, sigma) <= 1e-6


def test_decompose_does_not_load_scipy():
    # numpy only: importing scipy.linalg costs about 0.3 s and 29 MB per process.
    code = ("import sys, numpy as np, qleb\n"
            "rng = np.random.default_rng(0)\n"
            "for d in (8, 96):\n"
            "    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))\n"
            "    A = G @ G.conj().T\n"
            "    qleb.lebesgue_decompose(A / np.trace(A).real, np.eye(d) / d)\n"
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("operand", ["sigma", "rho"])
@pytest.mark.parametrize("d", [2, 4])
def test_non_finite_operand_is_rejected(bad, operand, d):
    rng = np.random.default_rng(d)
    ops = {"sigma": rand_density(d, rng), "rho": rand_density(d, rng)}
    ops[operand][1, 1] = bad
    for call in (lambda: lebesgue_decompose(ops["sigma"], ops["rho"]),
                 lambda: is_singular(ops["rho"], ops["sigma"]),
                 lambda: is_abs_continuous(ops["sigma"], ops["rho"])):
        with pytest.raises(ValidationError, match=f"^{operand} has a non-finite entry"):
            call()


@pytest.mark.parametrize("defect", ["zero", "indefinite"])
@pytest.mark.parametrize("operand", ["sigma", "rho"])
@pytest.mark.parametrize("d", [2, 3])
def test_is_abs_continuous_names_the_operands_as_passed(defect, operand, d):
    # is_abs_continuous(sigma, rho): a zero or indefinite first argument was once called "rho".
    rng = np.random.default_rng([d, 29])
    ops = {"sigma": rand_density(d, rng), "rho": rand_density(d, rng)}
    ops[operand] = np.zeros((d, d)) if defect == "zero" else np.diag([-0.5] + [1.5 / (d - 1)] * (d - 1))
    error, match = (ZeroState, "is the zero operator") if defect == "zero" else (NotPSD, "has eigenvalue")
    with pytest.raises(error, match=f"^{operand} {match}"):
        is_abs_continuous(ops["sigma"], ops["rho"])
