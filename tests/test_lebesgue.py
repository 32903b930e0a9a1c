import numpy as np
import pytest

from qleb import (
    DEFAULT_TOL,
    TOL_PROFILES,
    DensityMatrix,
    excision,
    is_abs_continuous,
    is_mutually_ac,
    is_singular,
    lebesgue_decompose,
    quantum_log_likelihood,
    sqrt_likelihood_ratio,
    support_projector,
)
from qleb.errors import NotPSD, NotStrictlyPositive, NumericCheckFailure, ValidationError, ZeroState
from qleb.presets import (
    faithful_to_pure_limits,
    faithful_to_pure_pair,
    faithful_to_pure_sqrt_lr,
    orthogonal_limit_pair,
    orthogonal_limit_sqrt_lr,
)

from oracles import block_construction_decomposition, closed_form_decomposition
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
    assert is_mutually_ac(rho, rho)
    rho_inf, sigma_inf = faithful_to_pure_limits()
    assert is_mutually_ac(rho_inf, sigma_inf)  # non-orthogonal pure states
    assert not is_mutually_ac(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))


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
        assert is_mutually_ac(dec.ac, rho)


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


def test_unitary_covariance():
    rng = np.random.default_rng(14)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        rho = rand_density(d, rng, rank=int(rng.integers(1, d + 1)))
        sigma = rand_density(d, rng, rank=int(rng.integers(1, d + 1)))
        U = rand_unitary(d, rng)
        dec = lebesgue_decompose(sigma, rho)
        dec_u = lebesgue_decompose(U @ sigma @ U.conj().T, U @ rho @ U.conj().T)
        assert np.linalg.norm(dec_u.ac - U @ dec.ac @ U.conj().T) < 1e-9
        assert np.linalg.norm(dec_u.perp - U @ dec.perp @ U.conj().T) < 1e-9


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("operand", ["sigma", "rho"])
@pytest.mark.parametrize("d", [2, 4])
def test_non_finite_operand_is_rejected(bad, operand, d):
    rng = np.random.default_rng(d)
    ops = {"sigma": rand_density(d, rng), "rho": rand_density(d, rng)}
    ops[operand][1, 1] = bad
    for call in (lambda: lebesgue_decompose(ops["sigma"], ops["rho"]),
                 lambda: is_singular(ops["rho"], ops["sigma"]),
                 lambda: is_abs_continuous(ops["rho"], ops["sigma"])):
        with pytest.raises(ValidationError, match=f"^{operand} has a non-finite entry"):
            call()
