import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qleb import (
    BlockSequence,
    ParametricModel,
    ProductFamily,
    PurePowerFamily,
    StateSequence,
    block_criterion_diagnostics,
    d_infinitesimal_diagnostic,
    finite_qcf,
    kakutani_criterion,
    l2_norm_sq,
    lecam3_numeric_check,
    limit_criterion,
    pure_criterion,
    qfi_matrix,
    sld,
    tail_mass,
)
from qleb.contiguity import CONTIGUOUS, INCONCLUSIVE, NOT_CONTIGUOUS
from qleb import contiguity, matcore
from qleb.errors import (
    BlocksInconsistent, DimMismatch, DimVaries, FactorNotAC, MissingLimits, NonHermitian, NotPSD,
    NotPure, ValidationError, ZeroState,
)
from qleb import presets
from qleb.presets import (
    drifting_product_family,
    drifting_summand,
    faithful_to_pure_bounded_ratio,
    faithful_to_pure_family,
    faithful_to_pure_pair,
    faithful_to_pure_sqrt_lr,
    orthogonal_limit_family,
    spin_overlap_family,
    three_block_family,
    three_block_blocks,
)
from qleb.contiguity import _assemble_blocks, _kakutani_summands, _stacked_summands
from qleb.lebesgue import DensityMatrix, _stacked_fidelity, is_abs_continuous, lebesgue_decompose
from qleb.matcore import DEFAULT_TOL, hermitian_part

from util import rand_density, rand_density_bounded, rand_unitary


# -- tail mass -------------------------------------------------------------------


def test_tail_mass_zero_above_spectrum():
    rng = np.random.default_rng(0)
    rho = rand_density(3, rng)
    R = np.diag([0.5, 1.0, 2.0]).astype(complex)
    assert tail_mass(rho, R, M=2.0) == 0.0
    assert tail_mass(rho, R, M=5.0) == 0.0


def test_tail_mass_limit_value_is_half():
    n = 10**4
    rho, _ = faithful_to_pure_pair(n)
    t = tail_mass(rho, faithful_to_pure_sqrt_lr(n), M=1.0)
    assert t == pytest.approx(0.5, abs=1e-3)


def test_tail_mass_bounded_ratio_vanishes():
    for n in [1, 10, 100, 10**4]:
        rho, _ = faithful_to_pure_pair(n)
        assert tail_mass(rho, faithful_to_pure_bounded_ratio(n), M=2.0) == 0.0


def test_tail_mass_monotone_in_M_and_partition():
    rng = np.random.default_rng(1)
    rho = rand_density(4, rng)
    R = np.abs(np.diag(rng.standard_normal(4))).astype(complex)
    values = [tail_mass(rho, R, M) for M in [0.1, 0.5, 1.0, 2.0]]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    # partition: Tr rho R^2 = tail + complement for every M
    total = np.trace(rho @ R @ R).real
    for M in [0.1, 0.5, 1.0, 2.0]:
        w, V = np.linalg.eigh(R)
        diag = np.einsum("ik,ij,jk->k", V.conj(), rho, V).real
        below = float(np.sum(w**2 * (w <= M) * diag))
        assert tail_mass(rho, R, M) + below == pytest.approx(total, abs=1e-12)


def test_tr_rho_r_squared_is_one_along_family():
    for n in [1, 10, 100, 10**3]:
        rho, _ = faithful_to_pure_pair(n)
        R = faithful_to_pure_sqrt_lr(n)
        assert np.trace(rho @ R @ R).real == pytest.approx(1.0, abs=1e-12)


# -- L2 norms ---------------------------------------------------------------------


def test_l2_norm_zero_observable():
    rng = np.random.default_rng(2)
    assert l2_norm_sq(rand_density(3, rng), np.zeros((3, 3))) == 0.0


def test_l2_norm_modification_decreases():
    values = []
    for n in [1, 10, 100, 1000]:
        rho, _ = faithful_to_pure_pair(n)
        O = faithful_to_pure_bounded_ratio(n) - faithful_to_pure_sqrt_lr(n)
        values.append(l2_norm_sq(rho, O))
    assert all(b < a for a, b in zip(values, values[1:]))
    # closed form of the decay: n / (n^2 + n + 1)
    n = 10
    assert values[1] == pytest.approx(n / (n**2 + n + 1), rel=1e-12)


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_D3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
_RHO2, _RHO3 = np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3


@pytest.mark.parametrize("call", [
    lambda: l2_norm_sq(_RHO3, _SX),
    lambda: finite_qcf(_RHO3, [_SX], [[0.5]]),
    lambda: finite_qcf(_RHO2, [_SX, _D3], [[0.5, 0.5]]),
    lambda: d_infinitesimal_diagnostic(lambda n: (_RHO2, _SX, _D3), [[0.5]], [[0.5]], [1]),
    lambda: tail_mass(_RHO3, np.eye(2), 0.5),
    lambda: qfi_matrix(_RHO2, [_D3]),
    lambda: sld(ParametricModel(state_at=lambda th: _RHO2, deriv_at=lambda th, i: _D3), np.zeros(1), 0),
    lambda: lecam3_numeric_check(presets.spin_pure_model(), np.zeros(2), [_D3], np.ones(2), [10],
                                 [[np.array([0.5])]]),
], ids=["l2_norm_sq", "finite_qcf-rho", "finite_qcf-observables", "d_infinitesimal_diagnostic",
        "tail_mass", "qfi_matrix", "sld", "lecam3_numeric_check"])
def test_shape_mismatch_raises_dim_mismatch_where_input_enters(call):
    with pytest.raises(DimMismatch, match="operand shapes differ"):
        call()


# -- quasi-characteristic diagnostics ----------------------------------------------


def test_finite_qcf_unitarity():
    rng = np.random.default_rng(3)
    rho = rand_density(3, rng)
    X = np.diag([1.0, -1.0, 0.5]).astype(complex)
    v = finite_qcf(rho, [X], [[0.7], [-0.7]])
    assert v == pytest.approx(1.0, abs=1e-12)


def test_d_infinitesimal_diagnostic_detects_bad_modification():
    # rho = |0><0|, X has a divergent corner, O cancels it in L2 but not in law:
    # Tr rho e^{i xi (X+O)} = e^{i xi} cos(n xi), which keeps oscillating.
    def triples(n):
        rho = np.diag([1.0, 0.0]).astype(complex)
        X = np.array([[1.0, n], [n, 1.0 + n**2]], dtype=complex)
        O = np.diag([0.0, -float(n) ** 2]).astype(complex)
        return rho, X, O

    xi = 0.9
    rep = d_infinitesimal_diagnostic(triples, [[xi]], [[xi]], grid=[3, 10, 30])
    assert rep.criterion_used == "DiagnosticsOnly"
    assert rep.verdict == INCONCLUSIVE
    for row in rep.evidence:
        n = row["n"]
        rho, X, O = triples(n)
        base = finite_qcf(rho, [X], [[xi]])
        expected = abs(np.exp(1j * xi) * np.cos(n * xi) - base)
        assert row["max_qcf_deviation"] == pytest.approx(expected, abs=1e-12)
        # the modification is L2-negligible yet visibly changes the law
        assert l2_norm_sq(rho, O) == 0.0
    assert max(r["max_qcf_deviation"] for r in rep.evidence) > 0.3


def test_d_infinitesimal_rejects_long_queries():
    with pytest.raises(ValueError):
        d_infinitesimal_diagnostic(lambda n: None, [[1, 2, 3, 4]], [[0, 0, 0, 0]], [1])


# -- limit criterion ---------------------------------------------------------------


def test_limit_criterion_contiguous_family():
    rep = limit_criterion(faithful_to_pure_family())
    assert rep.verdict == CONTIGUOUS
    assert rep.criterion_used == "LimitCriterion"
    res = [row["sigma_limit_residual"] for row in rep.evidence]
    assert res[-1] < 1e-3 and res[-1] < res[0]


def test_limit_criterion_singular_limits():
    rep = limit_criterion(orthogonal_limit_family())
    assert rep.verdict == NOT_CONTIGUOUS


def test_limit_criterion_constant_family():
    rng = np.random.default_rng(4)
    rho = rand_density(3, rng)
    seq = StateSequence(eval=lambda n: (rho, rho), declared_limits=(rho, rho), horizon=100)
    assert limit_criterion(seq).verdict == CONTIGUOUS


def test_limit_criterion_requires_limits_and_fixed_dim():
    seq = StateSequence(eval=lambda n: faithful_to_pure_pair(n), horizon=100)
    with pytest.raises(MissingLimits):
        limit_criterion(seq)
    bad = StateSequence(
        eval=lambda n: (np.eye(n + 1) / (n + 1), np.eye(n + 1) / (n + 1)),
        declared_limits=(np.eye(2) / 2, np.eye(2) / 2),
        horizon=10,
        sample_grid=[1, 2, 3],
    )
    with pytest.raises(DimVaries):
        limit_criterion(bad)


@pytest.mark.parametrize("d", [2, 3])
def test_limit_criterion_errors_name_the_declared_limit(d):
    good = np.eye(d, dtype=complex) / d
    not_psd = np.diag([1.5] + [-0.5] * (d - 1)).astype(complex)
    upper = good.copy()
    upper[0, 1] = 0.5
    for limits, error, match in (((not_psd, good), NotPSD, "declared rho limit has eigenvalue"),
                                 ((good, np.zeros((d, d))), ZeroState,
                                  "declared sigma limit is the zero operator"),
                                 ((good, upper), NonHermitian, "declared sigma limit is not Hermitian")):
        seq = StateSequence(eval=lambda n, pair=limits: pair, declared_limits=limits, horizon=10)
        with pytest.raises(error, match=match):
            limit_criterion(seq)


def test_limit_criterion_unconfirmed_limits_inconclusive():
    rng = np.random.default_rng(5)
    rho = rand_density(2, rng)
    other = rand_density(2, rng)
    seq = StateSequence(eval=lambda n: (rho, rho), declared_limits=(other, other), horizon=50)
    rep = limit_criterion(seq)
    assert rep.verdict == INCONCLUSIVE
    assert "not confirmed" in rep.notes


# -- pure criterion ----------------------------------------------------------------


def test_pure_criterion_spin_sqrt_scaling():
    rep = pure_criterion(spin_overlap_family(presets.sqrt_scaling))
    assert rep.verdict == CONTIGUOUS
    final = rep.evidence[-1]
    assert final["overlap"] == pytest.approx(np.exp(-1.25 / 4), rel=1e-3)
    assert final["tr_rho_R2"] == pytest.approx(1.0, abs=1e-6)


def test_pure_criterion_spin_quarter_scaling():
    rep = pure_criterion(spin_overlap_family(presets.quarter_scaling))
    assert rep.verdict == NOT_CONTIGUOUS


def test_pure_criterion_identical_pure_sequence():
    rho = np.diag([1.0, 0.0]).astype(complex)
    seq = StateSequence(eval=lambda n: (rho, rho), declared_limits=(rho, rho), horizon=100)
    assert pure_criterion(seq).verdict == CONTIGUOUS


def test_pure_criterion_orthogonal_limit_family():
    rep = pure_criterion(orthogonal_limit_family(horizon=10**4))
    assert rep.verdict == NOT_CONTIGUOUS


def test_pure_criterion_perturbed_sites():
    # rank-dropping perturbation with a cubic defect: the n-copy mass on the
    # reachable part decays like exp(-n f(h/g(n))) but still reaches 1
    fam = spin_overlap_family(presets.sqrt_scaling, perturbed=True, horizon=10**7)
    rep = pure_criterion(fam)
    assert rep.verdict == CONTIGUOUS
    final = rep.evidence[-1]
    h_norm3 = 1.25**1.5
    assert final["tr_rho_R2"] == pytest.approx(np.exp(-h_norm3 / np.sqrt(10**7)), rel=1e-9)


def test_pure_criterion_rejects_mixed_reference():
    rng = np.random.default_rng(6)
    rho = rand_density(2, rng)  # full rank
    seq = StateSequence(eval=lambda n: (rho, rho), declared_limits=(rho, rho), horizon=10)
    with pytest.raises(NotPure):
        pure_criterion(seq)


def test_pure_criterion_without_declarations_is_inconclusive():
    # overlap decays but no declared limit: the criterion must refuse a verdict
    def site(n):
        rho = np.diag([1.0, 0.0]).astype(complex)
        c, s = np.cos(1.0 / n**0.25), np.sin(1.0 / n**0.25)
        v = np.array([c, s])
        return rho, np.outer(v, v).astype(complex)

    fam = PurePowerFamily(site=site, horizon=10**6, declared_trr2_limit=1.0)
    rep = pure_criterion(fam)
    assert rep.verdict == INCONCLUSIVE


@pytest.mark.parametrize("grid", [[10**6, 1000, 10, 1], [5, 5], [], [0, 10], [1, 10**7]])
def test_pure_power_family_checks_its_grid_as_state_sequence_does(grid):
    # A decreasing grid once read as Contiguous for the quarter scaling, whose
    # default grid gives NotContiguous.
    for make in (lambda: spin_overlap_family(presets.quarter_scaling, sample_grid=grid),
                 lambda: StateSequence(eval=lambda n: None, horizon=10**6, sample_grid=grid)):
        with pytest.raises(ValueError, match="sample_grid must"):
            make()


# -- kakutani criterion -------------------------------------------------------------


def test_kakutani_drifting_families():
    rep = kakutani_criterion(drifting_product_family("linear"))
    assert rep.verdict == CONTIGUOUS
    assert 1.8 <= rep.details["fitted_exponent"] <= 2.2

    rep = kakutani_criterion(drifting_product_family("sqrt"))
    assert rep.verdict == NOT_CONTIGUOUS
    assert 0.8 <= rep.details["fitted_exponent"] <= 1.2


def test_kakutani_summands_match_closed_form():
    rep = kakutani_criterion(drifting_product_family("linear", declare=True))
    assert rep.verdict == CONTIGUOUS
    assert rep.details["closed_form_deviation"] < 1e-12
    for row in rep.evidence:
        assert row["summand"] == pytest.approx(drifting_summand(float(row["i"])), abs=1e-12)


def test_kakutani_declared_and_fitted_verdicts_agree():
    for scaling in ("linear", "sqrt"):
        fit = kakutani_criterion(drifting_product_family(scaling), horizon=2000)
        declared = kakutani_criterion(drifting_product_family(scaling, declare=True), horizon=2000)
        assert fit.verdict == declared.verdict


def test_kakutani_identical_factors_trivially_contiguous():
    rng = np.random.default_rng(7)
    rho = rand_density(2, rng)
    fam = ProductFamily(factors=lambda i: (rho, rho))
    rep = kakutani_criterion(fam, horizon=500)
    assert rep.verdict == CONTIGUOUS
    assert "trivially convergent" in rep.notes


def test_kakutani_rejects_non_ac_factor():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(FactorNotAC):
        kakutani_criterion(ProductFamily(factors=lambda i: (rho, sigma)), horizon=50)


def test_kakutani_rejects_orthogonal_factors_in_a_random_basis():
    # Rank-1 projectors onto orthogonal vectors of a random basis: the stacked
    # product sqrt(sigma) rho sqrt(sigma) is rounding noise and has rank 0.
    for seed in range(50):
        U = rand_unitary(2, np.random.default_rng(seed))
        rho = np.outer(U[:, 0], U[:, 0].conj())
        sigma = np.outer(U[:, 1], U[:, 1].conj())
        with pytest.raises(FactorNotAC):
            kakutani_criterion(ProductFamily(factors=lambda i: (rho, sigma)), horizon=20)


NOT_PSD = np.diag([1.2, -0.2]).astype(complex)
NOT_HERMITIAN = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)


@pytest.mark.parametrize("rho, sigma, error", [
    (NOT_PSD, np.diag([1.0, 0.0]), NotPSD),
    (NOT_HERMITIAN, np.eye(2) / 2, NonHermitian),
])
def test_kakutani_stacked_path_validates_factors(rho, sigma, error):
    # The per-factor path (is_abs_continuous) rejects these operands; the
    # stacked path once returned Contiguous and NotContiguous for them.
    with pytest.raises(error):
        is_abs_continuous(sigma, rho)
    with pytest.raises(error, match="rho of factor 1 "):
        kakutani_criterion(ProductFamily(factors=lambda i: (rho, sigma)), horizon=50)


@pytest.mark.parametrize("bad, error", [(NOT_PSD, NotPSD), (NOT_HERMITIAN, NonHermitian)])
@pytest.mark.parametrize("operand", ["rho", "sigma"])
def test_kakutani_validation_names_the_first_bad_factor(operand, bad, error):
    good = np.eye(2, dtype=complex) / 2

    def factors(i):
        x = bad if i in (7, 9) else good
        return (x, good) if operand == "rho" else (good, x)

    with pytest.raises(error, match=f"{operand} of factor 7 "):
        kakutani_criterion(ProductFamily(factors=factors), horizon=50)


def _random_pair(kind: str, d: int, rng: np.random.Generator, tol=DEFAULT_TOL) -> tuple:
    if kind == "full":
        return rand_density(d, rng), rand_density(d, rng)
    if kind == "deficient":
        r_rank, s_rank = rng.integers(1, d + 1, size=2)
        return (rand_density_bounded(d, rng, rank=int(r_rank)),
                rand_density_bounded(d, rng, rank=int(s_rank)))
    if kind == "near":
        # Each operand has lam_max = 1 and up to d - 1 eigenvalues within 20x
        # of the rank cutoff; the two share an eigenbasis or do not.
        bases = [rand_unitary(d, rng)] * 2 if rng.integers(2) else [rand_unitary(d, rng) for _ in range(2)]
        pair = []
        for U in bases:
            w = np.append(rng.uniform(0.2, 1.0, d - 1), 1.0)
            near = int(rng.integers(0, d))
            w[:near] = tol.rank_rel * 20.0 ** rng.uniform(-1.0, 1.0, near)
            pair.append(hermitian_part((U * w) @ U.conj().T))
        return tuple(pair)
    U = rand_unitary(d, rng)
    k = int(rng.integers(1, d))
    w = rng.uniform(0.2, 1.0, size=d)
    rho = (U[:, :k] * w[:k]) @ U[:, :k].conj().T
    sigma = (U[:, k:] * w[k:]) @ U[:, k:].conj().T
    return rho / np.trace(rho).real, sigma / np.trace(sigma).real


def _factor_ac(summands, rho, sigma, tol) -> bool:
    """The Kakutani factor check: True iff ``summands`` takes the pair as one stacked factor."""
    try:
        summands(rho[None], sigma[None], np.array([1]), tol)
    except FactorNotAC:
        return False
    return True


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), profile=st.sampled_from(["default", "strict"]))
@pytest.mark.parametrize("d", [2, 3, 8])
@pytest.mark.parametrize("kind", ["full", "deficient", "orthogonal", "near"])
def test_kakutani_stacked_ac_check_agrees_with_is_abs_continuous(kind, d, seed, profile):
    # One rank rule decides sigma << rho everywhere: the predicate, the split
    # of rho relative to sigma (H1 empty), the Kakutani factor check on the
    # closed form (d = 2) and on LAPACK (the reference at d = 2, the route at
    # d >= 3), and the limit criterion on constant declared limits.  "near"
    # puts eigenvalues within 20x of the cutoff on both sides of it.
    tol = matcore.TOL_PROFILES[profile]
    rho, sigma = _random_pair(kind, d, np.random.default_rng(seed), tol)
    ac = is_abs_continuous(sigma, rho, tol)
    assert ac == {"full": True, "orthogonal": False}.get(kind, ac)
    assert (lebesgue_decompose(rho, sigma, tol).split.dims[0] == 0) == ac
    assert _factor_ac(_stacked_summands, rho, sigma, tol) == ac
    assert _factor_ac(_stacked_summands_reference, rho, sigma, tol) == ac
    seq = StateSequence(eval=lambda n: (rho, sigma), declared_limits=(rho, sigma), horizon=1)
    assert (limit_criterion(seq, tol).verdict == CONTIGUOUS) == ac


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), size=st.integers(min_value=1, max_value=12),
       profile=st.sampled_from(["default", "strict"]))
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("shared", ["rho", "sigma"])
def test_stacks_with_a_shared_operand_decide_as_the_predicate_does(shared, d, seed, size, profile):
    # Stacks of `size` pairs, one operand shared, drawn by _random_pair: kernels
    # on either side and eigenvalues within 20x of the rank cutoff.
    tol = matcore.TOL_PROFILES[profile]
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["full", "deficient", "orthogonal", "near"], size=size + 1)
    pairs = [_random_pair(kind, d, rng, tol) for kind in kinds]
    operands = [np.array([pair[k] for pair in pairs[1:]], dtype=complex) for k in range(2)]
    k = ("rho", "sigma").index(shared)
    operands[k] = np.array(pairs[0][k], dtype=complex)
    rhos, sigmas = operands
    idx = np.arange(1, size + 1)
    want = [is_abs_continuous(s, r, tol)
            for r, s in zip(*(np.broadcast_to(x, (size, d, d)) for x in operands))]
    ac, _ = _stacked_fidelity(rhos, sigmas, idx, tol, ("rho of factor", "sigma of factor"))
    assert ac.tolist() == want
    if all(want):
        assert _stacked_summands(rhos, sigmas, idx, tol).shape == (size,)
    else:
        with pytest.raises(FactorNotAC, match=f"^factor {want.index(False) + 1}: "):
            _stacked_summands(rhos, sigmas, idx, tol)


def test_kakutani_ac_check_agrees_with_the_split_near_the_cutoff():
    rho = np.diag([1 - 5e-9, 5e-9]).astype(complex)  # 5x the rank cutoff
    sigma = np.diag([0.9, 0.1]).astype(complex)
    assert is_abs_continuous(sigma, rho)
    assert not lebesgue_decompose(sigma, rho).perp.any()
    kakutani_criterion(ProductFamily(factors=lambda i: (rho, sigma)), horizon=20)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("operand", ["rho", "sigma"])
def test_kakutani_refuses_a_zero_factor_as_the_split_does(d, operand):
    # A zero sigma_i once gave the summand 1 with no error, a zero rho_i FactorNotAC.
    good = np.eye(d, dtype=complex) / d

    def factors(i):
        x = np.zeros((d, d), dtype=complex) if i in (3, 7) else good
        return (x, good) if operand == "rho" else (good, x)

    pair = factors(3)
    with pytest.raises(ZeroState, match=f"^{operand} is the zero operator"):
        is_abs_continuous(pair[1], pair[0])
    rhos, sigmas = (np.array(x) for x in zip(*map(factors, range(1, 11))))
    for fam in (ProductFamily(factors), ProductFamily(factors, stack=lambda idx: (rhos[idx - 1], sigmas[idx - 1]))):
        with pytest.raises(ZeroState, match=f"^{operand} of factor 3 is the zero operator$"):
            kakutani_criterion(fam, horizon=10)


def test_kakutani_rejects_factors_of_mismatched_dimensions():
    def factors(i):
        return (np.eye(2) / 2, np.eye(3) / 3) if i >= 4 else (np.eye(2) / 2, np.eye(2) / 2)

    with pytest.raises(DimMismatch, match=r"factor 4: operand shapes differ: \(2, 2\) vs \(3, 3\)"):
        kakutani_criterion(ProductFamily(factors=factors), horizon=10)
    with pytest.raises(DimMismatch, match="factor 1: "):
        kakutani_criterion(ProductFamily(lambda i: (np.eye(2) / 2, np.eye(3) / 3)), horizon=5)


# -- stacked factors (ProductFamily.stack) -------------------------------------------------


@pytest.mark.parametrize("scaling", ["linear", "sqrt"])
def test_drifting_stack_equals_the_factors_bit_for_bit(scaling):
    # rho = I/2 is one matrix that every factor shares; the sites are one stack.
    fam = drifting_product_family(scaling)
    idx = np.arange(1, 10**4 + 1)
    rho, sites = fam.stack(idx)
    rhos, by_factor = (np.array(x) for x in zip(*(fam.factors(int(i)) for i in idx)))
    assert rho.shape == (2, 2) and np.array_equal(rhos, np.broadcast_to(rho, rhos.shape))
    assert sites.shape == (10**4, 2, 2)
    assert sites.tobytes() == by_factor.tobytes()
    factors_only = ProductFamily(factors=fam.factors)
    assert np.array_equal(_kakutani_summands(fam, idx, DEFAULT_TOL),
                          _kakutani_summands(factors_only, idx, DEFAULT_TOL))


def test_kakutani_with_a_stack_builds_the_sites_in_one_call(monkeypatch):
    shapes = []
    original = presets.drifting_site

    def counted(t):
        shapes.append(np.shape(t))
        return original(t)

    monkeypatch.setattr(presets, "drifting_site", counted)
    for scaling, verdict in (("linear", CONTIGUOUS), ("sqrt", NOT_CONTIGUOUS)):
        shapes.clear()
        assert kakutani_criterion(drifting_product_family(scaling), horizon=10**4).verdict == verdict
        assert shapes == [(10**4,)]


@pytest.mark.parametrize("d", [2, 3])
def test_stack_route_names_the_same_non_ac_factor(d):
    rng = np.random.default_rng([d, 37])
    U = rand_unitary(d, rng)
    orthogonal = (np.outer(U[:, 0], U[:, 0].conj()), np.outer(U[:, 1], U[:, 1].conj()))
    good = (rand_density(d, rng), rand_density(d, rng))

    def factors(i):
        return orthogonal if i == 37 else good

    rhos, sigmas = (np.array(x) for x in zip(*map(factors, range(1, 101))))
    messages = []
    for fam in (ProductFamily(factors), ProductFamily(factors, stack=lambda idx: (rhos[idx - 1], sigmas[idx - 1]))):
        with pytest.raises(FactorNotAC) as exc:
            kakutani_criterion(fam, horizon=100)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("factor 37: ")


@pytest.mark.parametrize("shape, match", [
    (((9, 2, 2), (2, 2)), "rho of 10 factors"),
    (((2, 2), (10, 2, 2, 2)), "sigma of 10"),
    (((2, 10, 2, 2), (2, 2)), "rho of 10"),
    (((10, 2, 3), (10, 2, 3)), "square"),
    (((10, 3, 2), (3, 2)), "square"),
    (((10, 1, 2), (10, 1, 2)), "square"),
    (((10, 2, 2), (3, 3)), r"^factor 1: operand shapes differ: \(2, 2\) vs \(3, 3\)$"),
])
def test_stack_of_the_wrong_shape_raises_dim_mismatch(shape, match):
    # shape: the operands' shapes (rho, sigma), each (N, d, d) or (d, d).
    half = np.eye(2) / 2
    fam = ProductFamily(factors=lambda i: (half, half), stack=lambda idx: tuple(map(np.zeros, shape)))
    with pytest.raises(DimMismatch, match=match):
        kakutani_criterion(fam, horizon=10)


def test_a_stack_of_the_wrong_length_is_named_with_its_shape():
    half = np.eye(2) / 2
    fam = ProductFamily(factors=lambda i: (half, half), stack=lambda idx: (np.zeros((9, 2, 2)), half))
    with pytest.raises(DimMismatch) as exc:
        kakutani_criterion(fam, horizon=10)
    assert str(exc.value) == "rho of 10 factors must have shape (10, d, d) or (d, d), got (9, 2, 2)"


def test_non_square_factors_raise_dim_mismatch():
    # 3x2 factors stack as (N, 2, 3, 2): their top 2x2 block is no factor.
    top = np.vstack([np.eye(2) / 2, np.zeros((1, 2))])
    with pytest.raises(DimMismatch, match="expected a stack of square matrices"):
        kakutani_criterion(ProductFamily(factors=lambda i: (top, top)), horizon=10)


@pytest.mark.parametrize("d", [2, 3])
def test_stacks_of_any_layout_give_the_factors_summands(d):
    # numpy's summation order follows the layout, so a stack is taken in C
    # order, as the factors are, whatever layout the family hands over.
    rng = np.random.default_rng([d, 5])
    pair = (rand_density(d, rng), rand_density(d, rng))
    views = [np.broadcast_to(x, (50, d, d)) for x in pair]
    assert not any(v.flags.writeable for v in views)
    idx = np.arange(1, 51)
    want = _kakutani_summands(ProductFamily(lambda i: pair), idx, DEFAULT_TOL)
    for layout in (np.array, np.asfortranarray, lambda v: v, lambda v: v[0]):
        operands = tuple(map(layout, views))
        fam = ProductFamily(lambda i: pair, stack=lambda idx, s=operands: s)
        assert np.array_equal(_kakutani_summands(fam, idx, DEFAULT_TOL), want)
    # The read-only views themselves are read, not written.
    assert np.array_equal(_stacked_summands(*views, idx, DEFAULT_TOL), want)
    assert all(np.array_equal(v, np.broadcast_to(x, v.shape)) for v, x in zip(views, pair))


def test_drifting_site_matches_the_scalar_formula_bit_for_bit():
    # One Python-float evaluation per parameter, as the factors were once built.
    def scalar(t):
        return np.array([[2 * t**2 + 2 * t + 1, 2 * t], [2 * t, 2 * t**2 - 2 * t + 1]],
                        dtype=complex) / (4 * t**2 + 2)

    t = np.sqrt(np.arange(1, 10**4 + 1, dtype=float))
    assert presets.drifting_site(t).tobytes() == np.array([scalar(float(x)) for x in t]).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_rank1_sigma_summand_is_exact_to_rounding(d):
    # sigma = |v><v| in a random basis: sqrt(sigma) rho sqrt(sigma) = <v|rho|v> sigma,
    # so the exact summand is 1 - sqrt(<v|rho|v>).  The float sigma's zero
    # eigenvalues are rounding noise that the rank rule drops; their roots
    # (~1e-8) once entered the summand.
    rng = np.random.default_rng([d, 1])
    pairs, exact = [], []
    for _ in range(100):
        v = rand_unitary(d, rng)[:, 0]
        rho = rand_density(d, rng)
        pairs.append((rho, np.outer(v, v.conj())))
        exact.append(1.0 - np.sqrt((v.conj() @ rho @ v).real))
    got = _stacked_summands(*map(np.array, zip(*pairs)), np.arange(1, 101), DEFAULT_TOL)
    assert np.max(np.abs(got - np.array(exact))) <= 1e-14


# -- the 2x2 closed form against the LAPACK stacked path --------------------------------


def _stacked_summands_reference(rhos: np.ndarray, sigmas: np.ndarray, idx: np.ndarray, tol=DEFAULT_TOL):
    """The LAPACK path for stacked summands, the reference for the 2x2 closed form.

    Both stacks validated by ``eigh``; ``sigma_i << rho_i`` by the split's rank
    rule, on the eigenvalues of ``P rho P`` with ``P`` the projector onto supp
    sigma (rho's excision, padded with zeros): at least ``rank(sigma)`` of
    them clear ``rank_rel lam_max(rho)``.  Then ``sqrt(sigma)`` from sigma's
    eigenbasis and one ``eigvalsh`` of ``sqrt(sigma) rho sqrt(sigma)``, whose
    top ``rank(sigma)`` eigenvalues enter the summand.
    """
    rhos, w_r, _ = matcore.psd_spectrum(rhos, tol, "rho of factor", labels=idx)
    _, w_s, V_s = matcore.psd_spectrum(sigmas, tol, "sigma of factor", labels=idx)
    supp = matcore.support_mask(w_s, tol)
    P = np.einsum("nik,nk,njk->nij", V_s, supp, V_s.conj())
    w_x = np.linalg.eigvalsh(hermitian_part(P @ rhos @ P))
    cleared = matcore.support_mask(w_x, tol, lam_max=w_r[:, -1:]).sum(axis=-1)
    bad = np.nonzero(cleared < supp.sum(axis=-1))[0]
    if bad.size:
        raise FactorNotAC(
            f"factor {int(idx[bad[0]])}: sigma_i is not absolutely continuous w.r.t. rho_i"
        )
    sqrt_sigma = np.einsum("nik,nk,njk->nij", V_s, np.sqrt(w_s), V_s.conj())
    w_m = np.maximum(np.linalg.eigvalsh(hermitian_part(sqrt_sigma @ rhos @ sqrt_sigma)), 0.0)
    return np.maximum(0.0, 1.0 - (np.sqrt(w_m) * supp).sum(axis=1))


def _qubit(rng: np.random.Generator, w, basis: bool = True) -> np.ndarray:
    U = rand_unitary(2, rng) if basis else np.eye(2)
    A = (U * np.asarray(w, dtype=float)) @ U.conj().T
    return hermitian_part(A) / np.sum(w)


#: Pair generators.  In the first five the product ``sqrt(sigma) rho sqrt(sigma)``
#: has a resolved spectrum (its small eigenvalue is an exact zero, with rank-1
#: sigma given in its eigenbasis, far above rounding, or rounding noise that
#: the rank rule drops, with rank-1 sigma in a random basis), so both paths
#: give the summand to rounding: 1e-14.  In the last its small eigenvalue lies
#: between rounding level and the rank cutoff's neighbourhood (down to 1e-12
#: of lam_max), and each path knows it only to a few ``eps * lam_max``; since
#: ``|sqrt(x) - sqrt(y)| <= sqrt(|x - y|)``, the summands then agree to
#: ``sqrt(8 eps)``, not to rounding.
RESOLVED_PAIRS = {
    "full": lambda rng: (_qubit(rng, [rng.uniform(0.1, 1.0), 1.0]),
                         _qubit(rng, [rng.uniform(0.1, 1.0), 1.0])),
    "rank1-sigma": lambda rng: (_qubit(rng, [rng.uniform(0.1, 1.0), 1.0]),
                                _qubit(rng, [0.0, 1.0], basis=False)),
    "rank1-rho": lambda rng: (_qubit(rng, [0.0, 1.0]), _qubit(rng, [rng.uniform(0.1, 1.0), 1.0])),
    "orthogonal": lambda rng: (lambda U: (np.outer(U[:, 0], U[:, 0].conj()),
                                          np.outer(U[:, 1], U[:, 1].conj())))(rand_unitary(2, rng)),
    "rank1-sigma-random-basis": lambda rng: (_qubit(rng, [rng.uniform(0.1, 1.0), 1.0]),
                                             _qubit(rng, [0.0, 1.0])),
}
UNRESOLVED_PAIRS = {
    "spectra-to-1e-12": lambda rng: (_qubit(rng, [10.0 ** rng.uniform(-12.0, 0.0), 1.0]),
                                     _qubit(rng, [10.0 ** rng.uniform(-12.0, 0.0), 1.0])),
}


def _outcome(fn, pairs, idx):
    """``fn`` on the stacks ``pairs[:, 0]`` (rho) and ``pairs[:, 1]`` (sigma), or its FactorNotAC message."""
    try:
        return fn(pairs[:, 0], pairs[:, 1], idx, DEFAULT_TOL)
    except FactorNotAC as exc:
        return str(exc)


@pytest.mark.parametrize("kind", list(RESOLVED_PAIRS) + list(UNRESOLVED_PAIRS))
def test_closed_form_summands_match_the_lapack_reference(kind):
    make = {**RESOLVED_PAIRS, **UNRESOLVED_PAIRS}[kind]
    rng = np.random.default_rng(list(kind.encode()))
    tol = 1e-14 if kind in RESOLVED_PAIRS else np.sqrt(8 * np.finfo(float).eps)
    stacked = np.array([make(rng) for _ in range(200)])
    idx = np.arange(1, len(stacked) + 1)
    verdicts = set()
    for k in range(len(stacked)):
        got = _outcome(_stacked_summands, stacked[k:k + 1], idx[k:k + 1])
        want = _outcome(_stacked_summands_reference, stacked[k:k + 1], idx[k:k + 1])
        verdicts.add(isinstance(want, str))
        if isinstance(want, str):
            assert got == want
        else:
            assert abs(got[0] - want[0]) <= tol, (k, got, want)
    # The whole stack fails on its first non-AC factor, or agrees summand by summand.
    got = _outcome(_stacked_summands, stacked, idx)
    want = _outcome(_stacked_summands_reference, stacked, idx)
    assert got == want if isinstance(want, str) else np.max(np.abs(got - want)) <= tol
    assert verdicts == {"full": {False}, "rank1-sigma": {False}, "rank1-rho": {True},
                        "orthogonal": {True}, "rank1-sigma-random-basis": {False},
                        "spectra-to-1e-12": {False, True}}[kind]


@pytest.mark.parametrize("operand", [0, 1])
@pytest.mark.parametrize("defect", ["indefinite", "non-hermitian", "nan", "inf", "huge-non-hermitian"])
def test_closed_form_validation_fails_like_the_lapack_reference(operand, defect):
    # Bad factors at positions 12 and 9000 of 10**4: the first is named.  NaN
    # and infinite entries and norms from 2**510 on go to the array rule.
    rng = np.random.default_rng([operand, len(defect)])
    stacked = np.array([RESOLVED_PAIRS["full"](rng) for _ in range(30)])[rng.integers(0, 30, 10**4)]
    for k in (11, 8999):
        if defect == "indefinite":
            neg = -10.0 ** rng.uniform(-6.0, -1.0)
            stacked[k, operand] = _qubit(rng, [neg, 1.0 - 2 * neg])
        elif defect == "non-hermitian":
            stacked[k, operand, 0, 1] += 1e-3
        elif defect == "huge-non-hermitian":
            stacked[k, operand] *= 2.0**520
            stacked[k, operand, 0, 1] += 2.0**510
        else:
            stacked[k, operand, 1, 0] = {"nan": np.nan, "inf": complex(0.0, -np.inf)}[defect]
    idx = np.arange(1, 10**4 + 1)
    error = {"indefinite": NotPSD, "nan": ValidationError, "inf": ValidationError}.get(defect, NonHermitian)
    with pytest.raises(error) as want:
        _stacked_summands_reference(stacked[:, 0], stacked[:, 1], idx)
    with pytest.raises(error) as got:
        _stacked_summands(stacked[:, 0], stacked[:, 1], idx, DEFAULT_TOL)
    assert str(got.value) == str(want.value)
    assert f"{['rho', 'sigma'][operand]} of factor 12 " in str(got.value)


def test_closed_form_summands_of_a_mixed_stack_match_the_lapack_reference():
    # One call on 10**4 factors of every kind, so each mask must pick its own
    # factor: the first non-AC factor is named, and without the non-AC ones
    # (labels no longer contiguous) the summands agree factor by factor.
    rng = np.random.default_rng(2024)
    kinds = rng.choice(list(RESOLVED_PAIRS), size=10**4)
    stacked = np.array([RESOLVED_PAIRS[kind](rng) for kind in kinds])
    idx = np.arange(1, len(stacked) + 1)
    ac = ~np.isin(kinds, ["rank1-rho", "orthogonal"])
    got = _outcome(_stacked_summands, stacked, idx)
    assert got == _outcome(_stacked_summands_reference, stacked, idx)
    assert got.startswith(f"factor {idx[~ac][0]}: ")
    assert np.max(np.abs(_outcome(_stacked_summands, stacked[ac], idx[ac])
                         - _outcome(_stacked_summands_reference, stacked[ac], idx[ac]))) <= 1e-14


@pytest.mark.parametrize("operand", [0, 1])
def test_closed_form_takes_factors_of_huge_norm_like_the_lapack_reference(operand):
    # A norm from 2**510 on goes to the array rule, and the factor is then
    # taken in units of a power of 4 like any other.
    rng = np.random.default_rng([operand, 510])
    stacked = np.array([RESOLVED_PAIRS["full"](rng) for _ in range(30)])
    stacked[11, operand] *= 2.0**520
    idx = np.arange(1, 31)
    got = _outcome(_stacked_summands, stacked, idx)
    assert got[11] == 0.0
    assert np.max(np.abs(got - _outcome(_stacked_summands_reference, stacked, idx))) <= 1e-14


@pytest.mark.parametrize("scale", [2.0**-540, 2.0**-500, 1.0, 2.0**500, 1e150, 1e-160])
def test_off_scale_2x2_factors_keep_the_ac_decision(scale):
    # Each factor's closed forms are taken in units of a power of 4 near its
    # largest entry, so a pair scaled out of the range where a * c or
    # det(rho) det(sigma) is representable keeps is_abs_continuous's decision
    # and gives no warning: a faithful pair scaled by 1e-160 once read as "not
    # absolutely continuous", and one scaled by 1e150 overflowed.
    rng = np.random.default_rng(1948)
    for kind, make in RESOLVED_PAIRS.items():
        rho, sigma = make(rng)
        base = _outcome(_stacked_summands, np.array([(rho, sigma)]), np.array([1]))
        for r, s in ((scale * rho, scale * sigma), (scale * rho, sigma), (rho, scale * sigma)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(_stacked_summands, np.array([(r, s)]), np.array([1]))
            assert isinstance(got, str) == (not is_abs_continuous(s, r)), (kind, r, s)
        if not isinstance(base, str):
            # Tr rho R is homogeneous of degree 1 in the pair.
            got = _outcome(_stacked_summands, np.array([(scale * rho, scale * sigma)]), np.array([1]))
            assert got[0] == pytest.approx(max(0.0, 1.0 - scale * (1.0 - base[0])), rel=1e-14, abs=1e-15)


def test_kakutani_on_2x2_factors_makes_no_lapack_call(monkeypatch):
    calls = []
    lapack = ("eigh", "eigvalsh", "eig", "eigvals", "cholesky", "svd", "solve", "inv", "det")
    # np.sort too: the factors' spectra are a min and a max of two roots.
    for module, name in [(np.linalg, name) for name in lapack] + [(np, "sort")]:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    rep = kakutani_criterion(drifting_product_family("linear"))
    assert rep.verdict == CONTIGUOUS
    assert calls == []


def test_kakutani_on_faithful_3x3_factors_makes_three_stacked_eigensolves(monkeypatch):
    # rho's eigvalsh, sigma's eigh and the product's eigvalsh: a faithful sigma's
    # excision is rho, whose spectrum the validation already holds.  Only the
    # factors whose sigma has a kernel take one more eigvalsh, of their excisions.
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "cholesky", "svd", "solve", "inv", "det"):
        original = getattr(np.linalg, name)

        def wrapper(A, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, A.shape))
            return _original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    rng = np.random.default_rng(3)
    pairs = np.array([(rand_density(3, rng), rand_density(3, rng)) for _ in range(50)])
    stacked = pairs[rng.integers(0, 50, 10**4)]
    fam = ProductFamily(factors=lambda i: tuple(stacked[i - 1]),
                        stack=lambda idx: (stacked[idx - 1, 0], stacked[idx - 1, 1]))
    kakutani_criterion(fam)
    assert calls == [("eigvalsh", (10**4, 3, 3)), ("eigh", (10**4, 3, 3)), ("eigvalsh", (10**4, 3, 3))]
    calls.clear()
    stacked[::10, 1] = rand_density(3, rng, rank=2)
    kakutani_criterion(fam)
    assert [name for name, _ in calls] == ["eigvalsh", "eigh", "eigvalsh", "eigvalsh"]
    assert calls[2][1] == (10**3, 3, 3)


@pytest.mark.parametrize("d", [2, 3])
def test_density_matrix_factors_take_one_stack(monkeypatch, d):
    # DensityMatrix factors once went through _stacked_summands one at a time.
    rng = np.random.default_rng([d, 17])
    states = [(DensityMatrix(rand_density(d, rng)), DensityMatrix(rand_density(d, rng))) for _ in range(20)]
    arrays = [(r.mat, s.mat) for r, s in states]
    idx = np.arange(1, 10**3 + 1)
    want = _kakutani_summands(ProductFamily(lambda i: arrays[i % 20]), idx, DEFAULT_TOL)
    sizes = []
    original = contiguity._stacked_summands
    monkeypatch.setattr(contiguity, "_stacked_summands",
                        lambda r, s, i, t: sizes.append(len(i)) or original(r, s, i, t))
    got = _kakutani_summands(ProductFamily(lambda i: states[i % 20]), idx, DEFAULT_TOL)
    assert sizes == [10**3]
    assert got.tobytes() == want.tobytes()


# -- operands that every factor shares ------------------------------------------------------


def _shared_family(d: int, shared: str, seed: int) -> tuple:
    """A family whose ``shared`` operand ("rho", "sigma" or "both") is one matrix, and the
    same factors given one by one.  Every other sigma_i and the shared sigma have a kernel."""
    rng = np.random.default_rng([d, seed])
    one = (rand_density(d, rng), rand_density(d, rng, rank=d - 1))
    many = (np.array([rand_density(d, rng) for _ in range(30)]),
            np.array([rand_density(d, rng, rank=d - k % 2) for k in range(30)]))

    def factors(i):  # an index or an array of them
        return tuple(one[k] if shared in (who, "both") else many[k][i % 30]
                     for k, who in enumerate(("rho", "sigma")))

    return ProductFamily(factors, stack=factors), ProductFamily(factors)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("shared", ["rho", "sigma", "both"])
def test_a_shared_operand_gives_the_factors_summands_bit_for_bit(d, shared):
    fam, by_factor = _shared_family(d, shared, 23)
    idx = np.arange(1, 1001)
    got = _kakutani_summands(fam, idx, DEFAULT_TOL)
    assert got.shape == (1000,)
    assert got.tobytes() == _kakutani_summands(by_factor, idx, DEFAULT_TOL).tobytes()


@pytest.mark.parametrize("scaling", ["linear", "sqrt"])
def test_the_presets_shared_rho_is_validated_once(monkeypatch, scaling):
    calls = []
    original = matcore._psd2_stack

    def counted(A, tol, who, labels):
        calls.append((who, len(A), labels.tolist()[:2]))
        return original(A, tol, who, labels)

    monkeypatch.setattr(matcore, "_psd2_stack", counted)
    kakutani_criterion(drifting_product_family(scaling))
    assert calls == [("rho of factor", 1, [1]), ("sigma of factor", 10**4, [1, 2])]


@pytest.mark.parametrize("shared", ["rho", "sigma", "both"])
def test_a_shared_operand_at_d3_takes_one_spectrum(monkeypatch, shared):
    calls = []
    original = matcore.psd_spectrum
    monkeypatch.setattr(matcore, "psd_spectrum",
                        lambda A, tol, who, **kw: calls.append((who, len(A))) or original(A, tol, who, **kw))
    kakutani_criterion(_shared_family(3, shared, 29)[0], horizon=100)
    assert calls == [("rho of factor", 1 if shared in ("rho", "both") else 100),
                     ("sigma of factor", 1 if shared in ("sigma", "both") else 100)]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("operand, bad, error, match", [
    ("rho", "non-hermitian", NonHermitian, "^rho of factor 1 is not Hermitian"),
    ("sigma", "indefinite", NotPSD, "^sigma of factor 1 has eigenvalue"),
    ("sigma", "zero", ZeroState, "^sigma of factor 1 is the zero operator$"),
    ("sigma", "orthogonal", FactorNotAC, "^factor 1: sigma_i is not absolutely continuous"),
])
def test_a_bad_shared_operand_is_refused_as_the_first_factor(d, operand, bad, error, match):
    # A shared operand is validated as a stack of one, which names factor 1, as the factors do.
    rng = np.random.default_rng([d, 31])
    top = np.diag(np.append(np.ones(d - 1), 0.0)).astype(complex) / (d - 1)
    shared = {"non-hermitian": np.triu(rand_density(d, rng)),
              "indefinite": np.diag(np.append(np.ones(d - 1), -0.1)).astype(complex),
              "zero": np.zeros((d, d), dtype=complex),
              "orthogonal": np.eye(d, dtype=complex) - top * (d - 1)}[bad]  # supported on ker top
    others = np.array([top if bad == "orthogonal" else rand_density(d, rng) for _ in range(20)])

    def factors(i):  # an index or an array of them
        return (shared, others[i % 20]) if operand == "rho" else (others[i % 20], shared)

    for fam in (ProductFamily(factors), ProductFamily(factors, stack=factors)):
        with pytest.raises(error, match=match):
            kakutani_criterion(fam, horizon=20)


def test_kakutani_peak_memory_on_10_4_factors():
    # Entry arrays of length 10**4 (80 KB each) in place of (N, 2, 2) temporaries
    # and sorted (N, 2) stacks, and the shared rho = I/2 declared once: the
    # sites' own (N, 2, 2) stack is 0.61 MiB.  (A copy of rho per factor, in
    # an (N, 2, 2, 2) pair stack, peaked at 2.77 MiB.)
    family = drifting_product_family("sqrt")
    tracemalloc.start()
    try:
        assert kakutani_criterion(family, 10**4).verdict == NOT_CONTIGUOUS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 2**20


def test_kakutani_boundary_exponent_inconclusive():
    # Pure pairs with overlap 1 - i^(-1.08): the fitted exponent lands between
    # the divergence boundary and the convergence margin, so the classifier
    # must refuse a verdict.
    def factors(i):
        c = 1.0 - 0.5 * float(i) ** -1.08  # |<u|v>| = c, so the summand is 1-c
        u = np.array([1.0, 0.0])
        v = np.array([c, np.sqrt(1.0 - c**2)])
        return np.outer(u, u).astype(complex), np.outer(v, v).astype(complex)

    rep = kakutani_criterion(ProductFamily(factors=factors), horizon=2000)
    assert rep.verdict == INCONCLUSIVE
    assert 1.02 < rep.details["fitted_exponent"] < 1.15


# -- block criterion ----------------------------------------------------------------


def test_block_criterion_growing_family():
    rep = block_criterion_diagnostics(three_block_family())
    assert rep.verdict == CONTIGUOUS
    assert rep.details["inner_verdict"] == CONTIGUOUS
    assert all(row["blocks_positive"] for row in rep.evidence)


def test_block_criterion_flags_bad_sigma0_trace():
    def halved(n):
        rho2, rho1, rho0, sigma0, sigma1, sigma2 = three_block_blocks(n)
        return rho2, rho1, rho0, sigma0 / 2.0, sigma1, sigma2

    bseq = BlockSequence(blocks=halved, grid=[4, 8, 16, 32, 64],
                         inner_limits=presets.faithful_to_pure_limits())
    rep = block_criterion_diagnostics(bseq)
    assert rep.verdict == INCONCLUSIVE
    assert "sigma0" in rep.notes


def test_block_criterion_consistency_check():
    def wrong_eval(n):
        from qleb.contiguity import _assemble_blocks

        rho, sigma = _assemble_blocks(three_block_blocks(n))
        rho = rho.copy()
        rho[0, 0] += 0.05
        return rho, sigma

    bseq = BlockSequence(
        blocks=three_block_blocks, grid=[4, 8, 16, 32, 64],
        inner_limits=presets.faithful_to_pure_limits(),
        full_eval=wrong_eval,
    )
    with pytest.raises(BlocksInconsistent):
        block_criterion_diagnostics(bseq)


@pytest.mark.parametrize("side", ["rho", "sigma"])
@pytest.mark.parametrize("defect", ["singular", "indefinite"])
def test_block_criterion_flags_non_positive_block(side, defect):
    # Break one declared block and nothing else: the inner pair stays
    # contiguous, so the refusal comes from the positivity hypothesis alone.
    def blocks(n):
        rho2, rho1, rho0, sigma0, sigma1, sigma2 = (np.array(b) for b in three_block_blocks(n))
        outer, coupling = (rho2, rho1) if side == "rho" else (sigma2, sigma1.T)
        if defect == "singular":
            outer[0] = 0.0  # the outer blocks are declared by their diagonals
            coupling[0, :] = 0.0
        else:
            outer[0] = -outer[0]
        return rho2, rho1, rho0, sigma0, sigma1, sigma2

    grid = three_block_family().grid
    bseq = BlockSequence(blocks=blocks, grid=grid, inner_limits=presets.faithful_to_pure_limits())
    rep = block_criterion_diagnostics(bseq)
    assert [row["blocks_positive"] for row in rep.evidence] == [False] * len(grid)
    assert rep.verdict == INCONCLUSIVE
    assert "not strictly positive" in rep.notes
    assert rep.details["inner_verdict"] == CONTIGUOUS


def test_block_criterion_evaluates_blocks_once_per_grid_point():
    calls = []

    def blocks(n):
        calls.append(n)
        return three_block_blocks(n)

    grid = three_block_family().grid
    bseq = BlockSequence(blocks=blocks, grid=grid, inner_limits=presets.faithful_to_pure_limits(),
                         full_eval=lambda n: _assemble_blocks(three_block_blocks(n)))
    assert block_criterion_diagnostics(bseq).verdict == CONTIGUOUS
    # Grid points once each; the consistency check at the first two reads the blocks in hand.
    assert calls == grid


def test_block_criterion_positivity_needs_no_eigensolve(monkeypatch):
    # The declared blocks reach d = 1026 and are decided by Cholesky; the 2x2
    # inner pair is diagonalised in closed form, so no LAPACK eigensolve runs.
    sizes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapper(A, *args, _original=original, **kwargs):
            sizes.append(np.shape(A)[-1])
            return _original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    assert block_criterion_diagnostics(three_block_family()).verdict == CONTIGUOUS
    assert sizes == []


def test_block_criterion_factors_only_inner_sized_complements(monkeypatch):
    # The outer blocks are diagonal, so each declared block is decided by the
    # Cholesky of its 2x2 Schur complement, never the assembled d = 1026 block.
    sizes = []
    original = np.linalg.cholesky

    def wrapper(A, *args, **kwargs):
        sizes.append(np.shape(A)[-1])
        return original(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", wrapper)
    assert block_criterion_diagnostics(three_block_family()).verdict == CONTIGUOUS
    assert sizes and max(sizes) <= 2


def test_block_criterion_peak_memory_is_about_the_declared_blocks():
    # The outer blocks are declared by their diagonals, up to n = 1024: nothing
    # of size n x n is formed (one complex 1024 x 1024 array is 16 MiB).
    family = three_block_family()
    assert family.grid[-1] == 1024
    tracemalloc.start()
    try:
        assert block_criterion_diagnostics(family).verdict == CONTIGUOUS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("defect", [None, "indefinite"])
def test_block_criterion_decides_a_dense_outer_block(defect):
    # [[U D U*, U B], [B* U*, C]] is unitarily equivalent to [[D, B], [B* C]]:
    # the outer block declared by its diagonal D (the Schur-complement route),
    # as the matrix D and as U D U* (both decided assembled) gets one verdict.
    rng = np.random.default_rng(17)

    def blocks(n, form):
        rho2, rho1, rho0, sigma0, sigma1, sigma2 = (np.array(b) for b in three_block_blocks(n))
        rho2 = rho2 * np.linspace(0.5, 1.5, n)
        if defect:
            rho2[0] = -rho2[0]
        if form == "dense":
            U = rand_unitary(n, rng)
            rho2, rho1 = U @ np.diag(rho2) @ U.conj().T, U @ rho1
        elif form == "matrix":
            rho2 = np.diag(rho2)
        return rho2, rho1, rho0, sigma0, sigma1, sigma2

    grid = [4, 8, 16, 32, 64]
    for form in ("vector", "matrix", "dense"):
        rep = block_criterion_diagnostics(BlockSequence(
            blocks=lambda n: blocks(n, form), grid=grid,
            inner_limits=presets.faithful_to_pure_limits()))
        assert [row["blocks_positive"] for row in rep.evidence] == [not defect] * len(grid)


@pytest.mark.parametrize("side", ["rho", "sigma"])
@pytest.mark.parametrize("form", ["vector", "matrix"])
@pytest.mark.parametrize("part", ["outer", "coupling", "inner"])
def test_block_criterion_refuses_blocks_that_do_not_fit(side, form, part):
    # One block a row short, with the outer block declared by its diagonal or
    # as a matrix: refused as a DimMismatch naming the block and n, where a
    # numpy broadcasting error once escaped.
    def blocks(n):
        parts = [np.array(b) for b in three_block_blocks(n)]
        outer, coupling, inner = (0, 1, 2) if side == "rho" else (5, 4, 3)
        if form == "matrix":
            parts[outer] = np.diag(parts[outer])
        k = {"outer": outer, "coupling": coupling, "inner": inner}[part]
        parts[k] = parts[k][:-1]
        return tuple(parts)

    bseq = BlockSequence(blocks=blocks, grid=[4, 8], inner_limits=presets.faithful_to_pure_limits())
    with pytest.raises(DimMismatch, match=f"declared {side} block at n=4: .*do not border each other"):
        block_criterion_diagnostics(bseq)


@pytest.mark.parametrize("grid", [[], [0, 4], [8, 4], [4, 4], [-2, 4, 8]])
def test_block_sequence_checks_its_grid_before_evaluating_blocks(grid):
    calls = []

    def blocks(n):
        calls.append(n)
        return three_block_blocks(n)

    with pytest.raises(ValueError, match="^grid must"):
        BlockSequence(blocks=blocks, grid=grid, inner_limits=presets.faithful_to_pure_limits())
    with pytest.raises(ValueError, match="^grid must"):
        three_block_family(grid)
    assert calls == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side, entry, value", [
    ("sigma", (0, 0), np.nan), ("rho", (0, 0), np.inf), ("rho", (0, 1), np.nan)])
def test_block_criterion_refuses_non_finite_declared_blocks(side, entry, value):
    # A NaN or infinite entry is refused, naming the block and n: in an outer
    # block declared by its diagonal (the Schur-complement route) and, for the
    # off-diagonal entry, in one declared as a dense matrix (the assembled route).
    def blocks(n):
        parts = [np.array(b) for b in three_block_blocks(n)]
        k, (i, j) = (0 if side == "rho" else 5), entry
        if i == j:
            parts[k][i] = value
        else:
            parts[k] = np.diag(parts[k])
            parts[k][i, j] = parts[k][j, i] = value
        return tuple(parts)

    bseq = BlockSequence(blocks=blocks, grid=three_block_family().grid,
                         inner_limits=presets.faithful_to_pure_limits())
    with pytest.raises(ValidationError, match=f"declared {side} block at n=4: .*non-finite entry"):
        block_criterion_diagnostics(bseq)


def test_block_criterion_inner_pair_from_faithful_family():
    # inner pair equal plus hypotheses satisfied -> contiguous
    def blocks(n):
        inner = rand_density(2, np.random.default_rng(99))
        rho0 = 0.5 * inner
        sigma0 = (1 - 1 / (2 * n)) * inner
        eye = np.eye(2, dtype=complex)
        return 0.5 * eye / 2, np.zeros((2, 2), dtype=complex), rho0, sigma0, \
            np.zeros((2, 2), dtype=complex), (1 / (2 * n)) * eye / 2

    inner_state = rand_density(2, np.random.default_rng(99))
    bseq = BlockSequence(blocks=blocks, grid=[8, 16, 32, 64, 128, 256, 512, 1024],
                         inner_limits=(inner_state, inner_state))
    rep = block_criterion_diagnostics(bseq)
    assert rep.verdict == CONTIGUOUS


# -- covariance of verdicts -----------------------------------------------------------


def test_verdicts_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(8)
    U = rand_unitary(2, rng)

    def conj(pair):
        r, s = pair
        return U @ r @ U.conj().T, U @ s @ U.conj().T

    base = faithful_to_pure_family(horizon=10**4)
    rotated = StateSequence(
        eval=lambda n: conj(base.eval(n)),
        declared_limits=conj(base.declared_limits),
        horizon=base.horizon,
        sample_grid=list(base.sample_grid),
    )
    assert limit_criterion(rotated).verdict == limit_criterion(base).verdict

    fam = drifting_product_family("linear")
    rotated_fam = ProductFamily(factors=lambda i: conj(fam.factors(i)))
    rotated_stack = ProductFamily(factors=rotated_fam.factors,
                                  stack=lambda idx: tuple(U @ x @ U.conj().T for x in fam.stack(idx)))
    reports = [kakutani_criterion(f, horizon=2000) for f in (fam, rotated_fam, rotated_stack)]
    assert {rep.verdict for rep in reports} == {CONTIGUOUS}
    idx = np.arange(1, 2001)
    base = _kakutani_summands(fam, idx, DEFAULT_TOL)
    for rotated in (rotated_fam, rotated_stack):
        assert np.max(np.abs(_kakutani_summands(rotated, idx, DEFAULT_TOL) - base)) <= 1e-14
