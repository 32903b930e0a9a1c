"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[ACCEPTANCE k] PASS/FAIL`` line (run with ``pytest -s``
to see them on success).  Tolerances are pinned here, not configurable.
"""

import time

import numpy as np

import qleb
from qleb import presets
from qleb.contiguity import CONTIGUOUS, INCONCLUSIVE, NOT_CONTIGUOUS

from oracles import block_construction_decomposition, closed_form_decomposition
from util import rand_density, rand_density_bounded, rand_spd, rand_psd

EXTREME = qleb.TOL_PROFILES["extreme-scale"]


def check(num: int, desc: str, ok: bool) -> None:
    print(f"\n[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_1_known_family_regression():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 10, 10**3, 10**6):
        rho, sigma = presets.faithful_to_pure_pair(n)
        got = qleb.sqrt_likelihood_ratio(sigma, rho, EXTREME)
        want = presets.faithful_to_pure_sqrt_lr(n)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))

    n = 10**4
    rho, sigma = presets.faithful_to_pure_pair(n)
    R = qleb.sqrt_likelihood_ratio(sigma, rho, EXTREME)
    tail = qleb.tail_mass(rho, R, M=1.0, tol=EXTREME)
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and abs(tail - 0.5) <= 1e-3 and elapsed < 1.0
    check(1, f"ratio regression (worst rel {worst:.2e}, tail {tail:.6f}, {elapsed:.2f}s)", ok)


def test_criterion_2_uniqueness_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_oracle = 0.0
    worst_invariant = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        rho = rand_density_bounded(d, rng, rank=int(rng.integers(1, d + 1)))
        sigma = rand_density_bounded(d, rng, rank=int(rng.integers(1, d + 1)))
        ac_b, perp_b, _ = block_construction_decomposition(sigma, rho)
        ac_c, perp_c, _ = closed_form_decomposition(sigma, rho)
        worst_oracle = max(
            worst_oracle,
            np.linalg.norm(ac_b - ac_c),
            np.linalg.norm(perp_b - perp_c),
        )
        dec = qleb.lebesgue_decompose(sigma, rho)
        worst_invariant = max(
            worst_invariant,
            np.linalg.norm(dec.ac + dec.perp - sigma),
            abs(np.trace(rho @ dec.perp)),
            np.linalg.norm(dec.ac - dec.sqrt_lr @ rho @ dec.sqrt_lr),
        )
        if np.trace(dec.ac).real > 1e-8:
            assert qleb.is_abs_continuous(dec.ac, rho)
    elapsed = time.perf_counter() - t0
    ok = worst_oracle <= 1e-8 and worst_invariant <= 1e-8 and elapsed < 10.0
    check(
        2,
        f"uniqueness suite (oracle gap {worst_oracle:.2e}, invariants {worst_invariant:.2e}, "
        f"{elapsed:.1f}s)",
        ok,
    )


def test_criterion_3_equivalence_suite():
    rng = np.random.default_rng(3)
    disagreements = 0
    for trial in range(1000):
        d = int(rng.integers(2, 7))
        kind = trial % 3
        if kind == 0:
            # generically overlapping pair
            rho = rand_density_bounded(d, rng, rank=int(rng.integers(1, d + 1)))
            sigma = rand_density_bounded(d, rng, rank=int(rng.integers(1, d + 1)))
        elif kind == 1:
            # orthogonal supports by construction
            k = int(rng.integers(1, d))
            U = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            a = rand_density_bounded(k, rng)
            b = rand_density_bounded(d - k, rng)
            rho = U[:, :k] @ a @ U[:, :k].conj().T
            sigma = U[:, k:] @ b @ U[:, k:].conj().T
        else:
            rho = rand_density_bounded(d, rng, rank=int(rng.integers(1, d)))
            sigma = rand_density_bounded(d, rng, rank=int(rng.integers(1, d)))

        # Singularity: excision-zero criterion vs trace criterion
        ex = qleb.excision(sigma, rho)
        exc_zero = float(np.linalg.eigvalsh(ex).max(initial=0.0)) <= 1e-8
        trace_zero = qleb.is_singular(rho, sigma)
        if exc_zero != trace_zero:
            disagreements += 1

        # Absolute continuity: excision-positive criterion vs explicit ratio
        if kind == 0 and trial % 2 == 0:
            a_state = rand_density_bounded(d, rng)  # faithful: a << rho iff rho faithful
        else:
            R0 = rand_spd(d, rng)
            raw = R0 @ rho @ R0
            a_state = (raw + raw.conj().T) / 2
            a_state = a_state / np.trace(a_state).real  # constructed: a << rho
        predicate = qleb.is_abs_continuous(a_state, rho)
        R = qleb.sqrt_likelihood_ratio(a_state, rho)
        reproduces = np.linalg.norm(R @ rho @ R - a_state) <= 1e-8
        if predicate != reproduces:
            disagreements += 1
    check(3, f"equivalence suite ({disagreements} disagreements in 1000 pairs)",
          disagreements == 0)


def test_criterion_4_kakutani_presets():
    t0 = time.perf_counter()
    rep_lin = qleb.kakutani_criterion(presets.drifting_product_family("linear"), horizon=10**4)
    rep_sqrt = qleb.kakutani_criterion(presets.drifting_product_family("sqrt"), horizon=10**4)
    elapsed = time.perf_counter() - t0

    summand_dev = 0.0
    for rep, drift in ((rep_lin, lambda i: float(i)), (rep_sqrt, lambda i: np.sqrt(float(i)))):
        for row in rep.evidence:
            want = presets.drifting_summand(drift(row["i"]))
            summand_dev = max(summand_dev, abs(row["summand"] - want))

    ok = (
        rep_lin.verdict == CONTIGUOUS
        and 1.8 <= rep_lin.details["fitted_exponent"] <= 2.2
        and rep_sqrt.verdict == NOT_CONTIGUOUS
        and 0.8 <= rep_sqrt.details["fitted_exponent"] <= 1.2
        and summand_dev <= 1e-12
        and elapsed < 5.0
    )
    check(
        4,
        f"kakutani presets (p={rep_lin.details['fitted_exponent']:.3f}/"
        f"{rep_sqrt.details['fitted_exponent']:.3f}, summand dev {summand_dev:.1e}, "
        f"{elapsed:.1f}s)",
        ok,
    )


def test_criterion_5_pure_overlap_limit():
    h = np.array([1.0, 0.5])
    n = 10**6
    overlap = (0.5 * (1 + 1 / np.cosh(np.linalg.norm(h) / np.sqrt(n)))) ** n
    target = np.exp(-np.dot(h, h) / 4)
    formula_ok = abs(overlap - target) <= 1e-3 * target

    rep_sqrt = qleb.pure_criterion(presets.spin_overlap_family(presets.sqrt_scaling, h=h))
    rep_quarter = qleb.pure_criterion(presets.spin_overlap_family(presets.quarter_scaling, h=h))
    library_overlap = rep_sqrt.evidence[-1]["overlap"]
    library_ok = abs(library_overlap - target) <= 1e-3 * target

    ok = (
        formula_ok
        and library_ok
        and rep_sqrt.verdict == CONTIGUOUS
        and rep_quarter.verdict == NOT_CONTIGUOUS
    )
    check(
        5,
        f"pure overlap limit (overlap {library_overlap:.6f} vs {target:.6f}; verdicts "
        f"{rep_sqrt.verdict}/{rep_quarter.verdict})",
        ok,
    )


def _single_xi_grid(count: int = 20):
    return [[np.array([x, 0.3 * x])] for x in np.linspace(-2.0, 2.0, count)]


def test_criterion_6_lecam_third_lemma_desk_scale():
    h = np.array([1.0, 0.5])
    n_grid = [100, 10_000, 1_000_000]
    results = {}
    for name, model in (
        ("pure", presets.spin_pure_model()),
        ("perturbed", presets.spin_perturbed_model()),
    ):
        rep = qleb.lecam3_numeric_check(model, np.zeros(2), None, h, n_grid, _single_xi_grid())
        devs = [row["max_deviation"] for row in rep.deviations]
        results[name] = (devs, rep.decreasing)
    ok = all(devs[-1] <= 1e-3 and dec for devs, dec in results.values())
    check(
        6,
        "Gaussian limit check (final deviations "
        f"{results['pure'][0][-1]:.2e} / {results['perturbed'][0][-1]:.2e}, decreasing)",
        ok,
    )


def test_criterion_7_sandwich_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        G = rng.standard_normal((d + 1, d + 1)) + 1j * rng.standard_normal((d + 1, d + 1))
        T = (G @ G.conj().T + (G @ G.conj().T).conj().T) / 2
        ext = qleb.ExtendedGaussianParams(
            mu=rng.standard_normal(d), Sigma=T[:d, :d], kappa=T[:d, d], s2=float(T[d, d].real)
        )
        r = int(rng.integers(1, 4))
        xis = [rng.standard_normal(d) for _ in range(r)]
        lhs = qleb.sandwiched_gaussian_qcf(ext, xis)
        rhs = qleb.gaussian_qcf(qleb.lecam_shift(ext), xis)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    check(7, f"sandwich identity (worst {worst:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_8_qfi_sld_expansion():
    model = presets.spin_pure_model()
    J = qleb.qfi_matrix(model.state_at(np.zeros(2)), qleb.slds(model, np.zeros(2)))
    qfi_ok = np.linalg.norm(J - np.array([[1, -1j], [1j, 1]])) <= 1e-12

    rng = np.random.default_rng(8)
    worst_res = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        rho = rand_spd(d, rng)
        rho = rho / np.trace(rho).real
        drho = rand_psd(d, rng) - rand_psd(d, rng)
        drho = drho - np.trace(drho) / d * np.eye(d)
        m = qleb.ParametricModel(state_at=lambda th: rho, deriv_at=lambda th, i: drho)
        L = qleb.sld(m, np.zeros(1), 0)
        worst_res = max(worst_res, np.linalg.norm(rho @ L + L @ rho - 2 * drho))
    sld_ok = worst_res <= 1e-10

    rep = qleb.sqrt_expansion_check(model, np.zeros(2))
    expansion_ok = rep.rel_error <= 1e-3

    ok = qfi_ok and sld_ok and expansion_ok
    check(
        8,
        f"QFI/SLD/expansion (SLD residual {worst_res:.2e}, "
        f"quadratic fit rel error {rep.rel_error:.2e})",
        ok,
    )


def test_refusal_behavior_outside_theorem_hypotheses():
    # Verdicts are only issued through the theorem-backed criteria; anything
    # else must come back Inconclusive / DiagnosticsOnly.
    def boundary_factors(i):
        c = 1.0 - 0.5 * float(i) ** -1.08
        v = np.array([c, np.sqrt(1.0 - c**2)])
        return np.diag([1.0, 0.0]).astype(complex), np.outer(v, v).astype(complex)

    kaku = qleb.kakutani_criterion(qleb.ProductFamily(factors=boundary_factors), horizon=2000)

    def undecided_site(n):
        c, s = np.cos(1.0 / n**0.25), np.sin(1.0 / n**0.25)
        v = np.array([c, s])
        return np.diag([1.0, 0.0]).astype(complex), np.outer(v, v).astype(complex)

    pure = qleb.pure_criterion(
        qleb.PurePowerFamily(site=undecided_site, horizon=10**6)
    )

    rng = np.random.default_rng(9)
    rho, other = rand_density(2, rng), rand_density(2, rng)
    unconfirmed = qleb.limit_criterion(
        qleb.StateSequence(eval=lambda n: (rho, rho), declared_limits=(other, other), horizon=50)
    )

    diag = qleb.d_infinitesimal_diagnostic(
        lambda n: (np.diag([1.0, 0.0]).astype(complex),
                   np.diag([1.0, -1.0]).astype(complex),
                   np.diag([0.0, float(n)]).astype(complex)),
        [[0.5]], [[0.5]], grid=[2, 4],
    )

    ok = (
        kaku.verdict == INCONCLUSIVE
        and pure.verdict == INCONCLUSIVE
        and unconfirmed.verdict == INCONCLUSIVE
        and diag.verdict == INCONCLUSIVE
        and diag.criterion_used == "DiagnosticsOnly"
    )
    check(9, "refusal behavior outside theorem hypotheses", ok)
