import tracemalloc

import numpy as np
import pytest

from qleb import (
    BlockSequence,
    ProductFamily,
    PurePowerFamily,
    StateSequence,
    block_criterion_diagnostics,
    d_infinitesimal_diagnostic,
    finite_qcf,
    kakutani_criterion,
    l2_norm_sq,
    limit_criterion,
    pure_criterion,
    tail_mass,
)
from qleb.contiguity import CONTIGUOUS, INCONCLUSIVE, NOT_CONTIGUOUS
from qleb import matcore
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
from qleb.lebesgue import is_abs_continuous
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


def _random_pair(kind: str, d: int, rng: np.random.Generator) -> tuple:
    if kind == "full":
        return rand_density(d, rng), rand_density(d, rng)
    if kind == "deficient":
        r_rank, s_rank = rng.integers(1, d + 1, size=2)
        return (rand_density_bounded(d, rng, rank=int(r_rank)),
                rand_density_bounded(d, rng, rank=int(s_rank)))
    U = rand_unitary(d, rng)
    k = int(rng.integers(1, d))
    w = rng.uniform(0.2, 1.0, size=d)
    rho = (U[:, :k] * w[:k]) @ U[:, :k].conj().T
    sigma = (U[:, k:] * w[k:]) @ U[:, k:].conj().T
    return rho / np.trace(rho).real, sigma / np.trace(sigma).real


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["full", "deficient", "orthogonal"])
def test_kakutani_stacked_ac_check_agrees_with_is_abs_continuous(kind, d):
    rng = np.random.default_rng([d, ["full", "deficient", "orthogonal"].index(kind)])
    verdicts = set()
    for _ in range(40):
        rho, sigma = _random_pair(kind, d, rng)
        fam = ProductFamily(factors=lambda i: (rho, sigma))
        try:
            _kakutani_summands(fam, np.arange(1, 3), DEFAULT_TOL)
            stacked = True
        except FactorNotAC:
            stacked = False
        assert stacked == is_abs_continuous(sigma, rho)
        verdicts.add(stacked)
    assert verdicts == {"full": {True}, "deficient": {True, False}, "orthogonal": {False}}[kind]


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
    fam = drifting_product_family(scaling)
    idx = np.arange(1, 10**4 + 1)
    stacked = np.ascontiguousarray(fam.stack(idx), dtype=complex)
    by_factor = np.asarray([fam.factors(int(i)) for i in idx], dtype=complex)
    assert stacked.shape == (10**4, 2, 2, 2)
    assert stacked.tobytes() == by_factor.tobytes()
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

    stacked = np.asarray([factors(i) for i in range(1, 101)])
    messages = []
    for fam in (ProductFamily(factors), ProductFamily(factors, stack=lambda idx: stacked[idx - 1])):
        with pytest.raises(FactorNotAC) as exc:
            kakutani_criterion(fam, horizon=100)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("factor 37: ")


@pytest.mark.parametrize("shape, match", [
    ((9, 2, 2, 2), r"stack of 10 factors must have shape \(10, 2, d, d\), got \(9, 2, 2, 2\)"),
    ((10, 3, 2, 2), r"must have shape \(10, 2, d, d\)"),
    ((10, 2, 2), r"must have shape \(10, 2, d, d\)"),
    ((10, 2, 2, 3), "square"),
])
def test_stack_of_the_wrong_shape_raises_dim_mismatch(shape, match):
    half = np.eye(2) / 2
    fam = ProductFamily(factors=lambda i: (half, half), stack=lambda idx: np.zeros(shape))
    with pytest.raises(DimMismatch, match=match):
        kakutani_criterion(fam, horizon=10)


@pytest.mark.parametrize("d", [2, 3])
def test_stacks_of_any_layout_give_the_factors_summands(d):
    # numpy's summation order follows the layout, so a stack is taken in C
    # order, as the factors are, whatever layout the family hands over.
    rng = np.random.default_rng([d, 5])
    pair = np.stack([rand_density(d, rng), rand_density(d, rng)])
    view = np.broadcast_to(pair, (50,) + pair.shape)
    assert not view.flags.writeable
    idx = np.arange(1, 51)
    want = _kakutani_summands(ProductFamily(lambda i: tuple(pair)), idx, DEFAULT_TOL)
    for layout in (view, np.array(view), np.asfortranarray(view)):
        fam = ProductFamily(lambda i: tuple(pair), stack=lambda idx, s=layout: s)
        assert np.array_equal(_kakutani_summands(fam, idx, DEFAULT_TOL), want)
    # The read-only view itself is read, not written.
    assert np.max(np.abs(_stacked_summands(view, idx, DEFAULT_TOL) - want)) <= 1e-15
    assert np.array_equal(view, np.broadcast_to(pair, view.shape))


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
    got = _stacked_summands(np.array(pairs), np.arange(1, 101), DEFAULT_TOL)
    assert np.max(np.abs(got - np.array(exact))) <= 1e-14


# -- the 2x2 closed form against the LAPACK stacked path --------------------------------


def _stacked_summands_reference(stacked: np.ndarray, idx: np.ndarray, tol=DEFAULT_TOL):
    """The LAPACK path for stacked summands, the reference for the 2x2 closed form.

    Both stacks validated by ``eigh``, ``sqrt(sigma)`` from sigma's eigenbasis,
    and one ``eigvalsh`` of ``sqrt(sigma) rho sqrt(sigma)``, whose eigenvalues
    enter the summand where the rank rule keeps them.
    """
    rhos = matcore.psd_spectrum(stacked[:, 0], tol, "rho of factor", labels=idx).mat
    _, w_s, V_s = matcore.psd_spectrum(stacked[:, 1], tol, "sigma of factor", labels=idx)
    sqrt_sigma = np.einsum("nik,nk,njk->nij", V_s, np.sqrt(w_s), V_s.conj())
    w_m = np.maximum(np.linalg.eigvalsh(hermitian_part(sqrt_sigma @ rhos @ sqrt_sigma)), 0.0)
    rank_sigma = matcore.support_mask(w_s, tol).sum(axis=-1)
    scale = w_s[:, -1:] * np.einsum("nii->n", rhos).real[:, None]
    kept = matcore.support_mask(w_m, tol, lam_max=scale)
    bad = np.nonzero(kept.sum(axis=-1) < rank_sigma)[0]
    if bad.size:
        raise FactorNotAC(
            f"factor {int(idx[bad[0]])}: sigma_i is not absolutely continuous w.r.t. rho_i"
        )
    return np.maximum(0.0, 1.0 - (np.sqrt(w_m) * kept).sum(axis=1))


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


def _outcome(fn, stacked, idx):
    try:
        return fn(stacked, idx, DEFAULT_TOL)
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
@pytest.mark.parametrize("defect", ["indefinite", "non-hermitian"])
def test_closed_form_validation_fails_like_the_lapack_reference(operand, defect):
    rng = np.random.default_rng([operand, len(defect)])
    stacked = np.array([RESOLVED_PAIRS["full"](rng) for _ in range(30)])
    for k in (11, 17):
        if defect == "indefinite":
            neg = -10.0 ** rng.uniform(-6.0, -1.0)
            stacked[k, operand] = _qubit(rng, [neg, 1.0 - 2 * neg])
        else:
            stacked[k, operand, 0, 1] += 1e-3
    idx = np.arange(1, 31)
    error = NotPSD if defect == "indefinite" else NonHermitian
    with pytest.raises(error) as want:
        _stacked_summands_reference(stacked, idx)
    with pytest.raises(error) as got:
        _stacked_summands(stacked, idx, DEFAULT_TOL)
    assert str(got.value) == str(want.value)
    assert "of factor 12 " in str(got.value)


def test_kakutani_on_2x2_factors_makes_no_lapack_call(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "cholesky", "svd", "solve", "inv", "det"):
        original = getattr(np.linalg, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    rep = kakutani_criterion(drifting_product_family("linear"))
    assert rep.verdict == CONTIGUOUS
    assert calls == []


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
        full_eval=wrong_eval, consistency_ns=[4],
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
            outer[0, 0] = 0.0
            coupling[0, :] = 0.0
        else:
            outer[0, 0] = -outer[0, 0]
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
                         full_eval=lambda n: _assemble_blocks(three_block_blocks(n)),
                         consistency_ns=[4, 8, 5])
    assert block_criterion_diagnostics(bseq).verdict == CONTIGUOUS
    # Grid points once each; 5 is checked for consistency but is off the grid.
    assert calls == grid + [5]


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
    declared = sum(np.asarray(b).nbytes for b in three_block_blocks(three_block_family().grid[-1]))
    family = three_block_family()
    tracemalloc.start()
    try:
        assert block_criterion_diagnostics(family).verdict == CONTIGUOUS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * declared


@pytest.mark.parametrize("defect", [None, "indefinite"])
def test_block_criterion_decides_a_dense_outer_block(defect):
    # [[U D U*, U B], [B* U*, C]] is unitarily equivalent to [[D, B], [B* C]]:
    # a dense outer block (decided assembled) gets the diagonal one's verdict.
    rng = np.random.default_rng(17)

    def blocks(n, rotate):
        rho2, rho1, rho0, sigma0, sigma1, sigma2 = (np.array(b) for b in three_block_blocks(n))
        rho2 = rho2 * np.linspace(0.5, 1.5, n)
        if defect:
            rho2[0, 0] = -rho2[0, 0]
        if rotate:
            U = rand_unitary(n, rng)
            rho2, rho1 = U @ rho2 @ U.conj().T, U @ rho1
        return rho2, rho1, rho0, sigma0, sigma1, sigma2

    grid = [4, 8, 16, 32, 64]
    reports = [block_criterion_diagnostics(BlockSequence(
        blocks=lambda n, rotate=rotate: blocks(n, rotate), grid=grid,
        inner_limits=presets.faithful_to_pure_limits())) for rotate in (False, True)]
    assert [row["blocks_positive"] for row in reports[0].evidence] == [not defect] * len(grid)
    assert [row["blocks_positive"] for row in reports[1].evidence] == [not defect] * len(grid)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("side, entry, value", [
    ("sigma", (0, 0), np.nan), ("rho", (0, 0), np.inf), ("rho", (0, 1), np.nan)])
def test_block_criterion_refuses_non_finite_declared_blocks(side, entry, value):
    # A NaN or infinite entry is refused, naming the block and n, on the
    # diagonal-outer route and (off-diagonal entry) on the assembled one.
    def blocks(n):
        parts = [np.array(b) for b in three_block_blocks(n)]
        outer = parts[0 if side == "rho" else 5]
        outer[entry] = outer[entry[::-1]] = value
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
                                  stack=lambda idx: U @ fam.stack(idx) @ U.conj().T)
    reports = [kakutani_criterion(f, horizon=2000) for f in (fam, rotated_fam, rotated_stack)]
    assert {rep.verdict for rep in reports} == {CONTIGUOUS}
    idx = np.arange(1, 2001)
    base = _kakutani_summands(fam, idx, DEFAULT_TOL)
    for rotated in (rotated_fam, rotated_stack):
        assert np.max(np.abs(_kakutani_summands(rotated, idx, DEFAULT_TOL) - base)) <= 1e-14
