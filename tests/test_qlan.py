import inspect
import re
import sys

import numpy as np
import pytest

from qleb import (
    IIDExperiment,
    ParametricModel,
    RateScan,
    iid_qcf,
    lecam3_numeric_check,
    qfi_matrix,
    rate_scan,
    sld,
    slds,
    sqrt_expansion_check,
    sqrt_likelihood_ratio,
)
from qleb.contiguity import CONTIGUOUS, NOT_CONTIGUOUS
from qleb.errors import CenteringViolated, InconsistentDerivativeWarning, NonHermitian, NotPSD
from qleb.qlan import model_derivative
from qleb import cli, contiguity, gaussian, lebesgue, matcore, presets, qlan
from qleb.presets import (
    GROUND,
    SIGMA_X,
    SIGMA_Y,
    cubic_defect,
    quadratic_defect,
    quarter_scaling,
    spin_perturbed_model,
    spin_pure_model,
    spin_pure_state,
    sqrt_scaling,
)

from util import rand_density, rand_herm, rand_spd, rel_err

SPIN_J = np.array([[1, -1j], [1j, 1]])


# -- derivatives and SLDs -----------------------------------------------------------


def test_model_derivative_fd_matches_analytic():
    fd_model = ParametricModel(state_at=spin_pure_state)
    for theta in [np.zeros(2), np.array([0.2, -0.4])]:
        for i in range(2):
            got = model_derivative(fd_model, theta, i)
            want = presets.spin_pure_deriv(theta, i)
            assert np.linalg.norm(got - want) < 1e-9


def test_sld_spin_model_is_pauli():
    model = spin_pure_model()
    L = slds(model, np.zeros(2))
    assert np.array_equal(L[0], SIGMA_X)
    assert np.array_equal(L[1], SIGMA_Y)


def test_sld_maximally_mixed_rule():
    rng = np.random.default_rng(0)
    d = 4
    A = rand_herm(d, rng)
    A = A - np.trace(A) / d * np.eye(d)
    model = ParametricModel(state_at=lambda th: np.eye(d) / d,
                            deriv_at=lambda th, i: A)
    L = sld(model, np.zeros(1), 0)
    assert rel_err(L, d * A) < 1e-12


def test_sld_lyapunov_residual_random_faithful():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = 4
        rho = rand_spd(d, rng)
        rho = rho / np.trace(rho).real
        drho = rand_herm(d, rng)
        drho = drho - np.trace(drho) / d * np.eye(d)
        model = ParametricModel(state_at=lambda th: rho, deriv_at=lambda th, i: drho)
        L = sld(model, np.zeros(1), 0)
        assert np.linalg.norm(rho @ L + L @ rho - 2 * drho) <= 1e-10
        assert abs(np.trace(rho @ L)) <= 1e-10  # solutions stay centered


def test_sld_projects_unreachable_components():
    for rho, bad in [
        (np.diag([1.0, 0.0]), np.diag([0.5, -0.5])),  # kernel-kernel component -0.5
        # 7e-10 is below the rank cutoff 1e-9, so support_mask reads it as kernel; as
        # lam_j + lam_k > 1e-9 it once counted as support, and L_11 came out at 1.4e8.
        (np.diag([1 - 7e-10, 7e-10]), np.array([[-0.1, 0.2], [0.2, 0.1]])),
    ]:
        rho, bad = rho.astype(complex), bad.astype(complex)
        model = ParametricModel(state_at=lambda th, rho=rho: rho, deriv_at=lambda th, i, bad=bad: bad)
        with pytest.warns(InconsistentDerivativeWarning):
            L = sld(model, np.zeros(1), 0)
        assert L[1, 1] == 0.0
        # the reachable part is still solved
        assert (rho @ L + L @ rho)[0, 0] == pytest.approx(2 * bad[0, 0])
        assert (rho @ L + L @ rho)[0, 1] == pytest.approx(2 * bad[0, 1])


@pytest.mark.parametrize("theta", [0.1, [], [[0.0, 0.0]]])
def test_slds_and_the_expansion_refuse_theta_that_is_not_a_nonempty_vector(theta):
    # A scalar theta once raised a bare IndexError, and an empty one gave no SLD
    # without calling the model.
    calls = []
    model = ParametricModel(state_at=lambda th: calls.append(th) or spin_pure_state(th))
    for check in (slds, sqrt_expansion_check):
        with pytest.raises(ValueError, match=r"^theta0 must be a 1-D array with at least one entry, got shape "):
            check(model, theta)
    assert calls == []


@pytest.mark.parametrize("bad", ["non-hermitian", "below-floor"])
def test_finite_difference_states_are_validated(bad):
    # A state at theta0 +- step (or step/2) that is not a state once gave an SLD.
    theta0 = np.array([0.3, 0.2])
    defect = np.array([[0.0, 0.3], [0.0, 0.0]]) if bad == "non-hermitian" else np.diag([0.0, -0.5])

    def state_at(theta):
        state = presets.spin_perturbed_state(theta)
        return state if np.array_equal(theta, theta0) else state + defect

    error = NonHermitian if bad == "non-hermitian" else NotPSD
    for check in (lambda m: sld(m, theta0, 1), lambda m: slds(m, theta0), lambda m: model_derivative(m, theta0, 0)):
        with pytest.raises(error, match=r"^state at theta0 \+1\.0e-05 e_[01] "):
            check(ParametricModel(state_at=state_at))


def test_the_state_at_theta0_is_read_once_per_call():
    # sqrt_expansion_check and lecam3_numeric_check read rho(theta0) once (it
    # was 3 times, the first read unvalidated), plus one state per step or copy count.
    calls = []
    model = spin_perturbed_model()
    counted = ParametricModel(state_at=lambda th: calls.append(th) or model.state_at(th), deriv_at=model.deriv_at)
    sqrt_expansion_check(counted, np.zeros(2))
    assert len(calls) == 1 + 24
    calls.clear()
    lecam3_numeric_check(counted, np.zeros(2), None, np.array([1.0, 0.5]), [10, 100, 1000], [[[0.3, 0.1]]])
    assert len(calls) == 1 + 3
    calls.clear()
    slds(ParametricModel(state_at=counted.state_at), np.zeros(2))
    assert len(calls) == 1 + 2 * 4


# -- QFI ------------------------------------------------------------------------------


def test_qfi_spin_model():
    model = spin_pure_model()
    J = qfi_matrix(model.state_at(np.zeros(2)), slds(model, np.zeros(2)))
    assert np.linalg.norm(J - SPIN_J) <= 1e-12


def test_qfi_matches_classical_fisher_for_diagonal_family():
    from oracles import classical_fisher_two_outcome

    def p(th):
        return 0.3 + 0.2 * np.tanh(th)

    def state(thvec):
        return np.diag([p(thvec[0]), 1 - p(thvec[0])]).astype(complex)

    model = ParametricModel(state_at=state)
    theta0 = np.array([0.4])
    L = slds(model, theta0)
    J = qfi_matrix(model.state_at(theta0), L)
    dp = 0.2 / np.cosh(0.4) ** 2
    want = classical_fisher_two_outcome(p(0.4), dp)
    assert J.shape == (1, 1)
    assert J[0, 0].real == pytest.approx(want, rel=1e-8)
    assert abs(J[0, 0].imag) < 1e-12


def test_qfi_unit_normalized_single_sld():
    rng = np.random.default_rng(2)
    rho = rand_spd(3, rng)
    rho = rho / np.trace(rho).real
    L = rand_herm(3, rng)
    L = L - np.trace(rho @ L).real * np.eye(3)
    L = L / np.sqrt(np.trace(rho @ L @ L).real)
    J = qfi_matrix(rho, [L])
    assert J[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_qfi_rejects_uncentered_observable():
    rho = np.eye(2) / 2
    with pytest.raises(CenteringViolated):
        qfi_matrix(rho, [np.eye(2)])


def test_qfi_hermitian_psd_on_random_models():
    rng = np.random.default_rng(77)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        rho = rand_spd(d, rng)
        rho = rho / np.trace(rho).real
        ops = []
        for _ in range(2):
            L = rand_herm(d, rng)
            ops.append(L - np.trace(rho @ L).real * np.eye(d))
        J = qfi_matrix(rho, ops)
        assert np.linalg.norm(J - J.conj().T) < 1e-12
        assert np.linalg.eigvalsh((J + J.conj().T) / 2).min() >= -1e-10


# -- iid quasi-characteristic functions -----------------------------------------------


def test_iid_qcf_zero_query_is_one():
    exp = IIDExperiment(base=GROUND, obs=[SIGMA_X], n=1000)
    assert iid_qcf(exp, [[0.0], [0.0]]) == pytest.approx(1.0)
    # With no observables every factor is exp(i 0) = I, at every size (such a
    # factor once raised DimMismatch for a generator of shape ()).
    for d in (1, 2, 3):
        assert iid_qcf(IIDExperiment(base=np.eye(d) / d, n=7), [[], []]) == 1.0


def test_iid_qcf_cosine_power_oracle():
    exp = IIDExperiment(base=GROUND, obs=[SIGMA_X], n=100)
    xi = 0.7
    got = iid_qcf(exp, [[xi]])
    assert got == pytest.approx(np.cos(xi / 10.0) ** 100, abs=1e-12)

    exp = IIDExperiment(base=GROUND, obs=[SIGMA_X], n=10**6)
    got = iid_qcf(exp, [[1.0]])
    assert abs(got - np.exp(-0.5)) <= 1e-3 * np.exp(-0.5)


def test_iid_qcf_single_copy_equals_site_trace():
    rng = np.random.default_rng(3)
    rho = rand_density(2, rng)
    B = rand_herm(2, rng)
    B = B - np.trace(rho @ B).real * np.eye(2)
    exp = IIDExperiment(base=rho, obs=[B], n=1)
    from qleb import finite_qcf

    xi = 1.3
    assert iid_qcf(exp, [[xi]]) == pytest.approx(finite_qcf(rho, [B], [[xi]]), abs=1e-14)


def test_iid_qcf_validates_the_base_under_the_calls_tolerances():
    # The base passes the default floor when it is made; under strict it once
    # answered 1.000000000006207-4.27e-11j where finite_qcf refuses it.
    base = np.diag([1 + 5e-11, -5e-11]).astype(complex)
    B = np.diag([0.0, 1.0])
    exp = IIDExperiment(base=base, obs=[B], n=3)
    strict = matcore.TOL_PROFILES["strict"]
    for call in (lambda: iid_qcf(exp, [[0.5]], strict), lambda: contiguity.finite_qcf(base, [B], [[0.5]], strict)):
        with pytest.raises(NotPSD, match="^base has eigenvalue|^rho has eigenvalue"):
            call()
    assert iid_qcf(exp, [[0.5]]) == contiguity._ordered_product(exp.base, exp.obs, [[0.5]], matcore.DEFAULT_TOL, 3)


def test_iid_qcf_defining_identity_against_tensor_product():
    # materialize two and three copies explicitly and compare
    from qleb.matcore import unitary_exp

    rng = np.random.default_rng(4)
    rho = rand_density(2, rng)
    B = rand_herm(2, rng)
    B = B - np.trace(rho @ B).real * np.eye(2)
    for n in (2, 3):
        exp = IIDExperiment(base=rho, obs=[B], n=n)
        xis = [[0.8], [-0.3]]
        got = iid_qcf(exp, xis)
        collective = sum(
            np.kron(np.kron(np.eye(2**k), B), np.eye(2 ** (n - k - 1))) for k in range(n)
        ) / np.sqrt(n)
        rho_n = rho
        for _ in range(n - 1):
            rho_n = np.kron(rho_n, rho)
        U = unitary_exp(0.8 * collective) @ unitary_exp(-0.3 * collective)
        want = np.trace(rho_n @ U)
        assert got == pytest.approx(complex(want), abs=1e-12)


def test_iid_qcf_rejects_what_finite_qcf_rejects():
    # Both validate their observables once, by the same Hermiticity rule, so
    # neither symmetrises a non-Hermitian observable silently.  The experiment
    # keeps the observable as given; iid_qcf refuses it under its tolerances.
    from qleb import finite_qcf

    upper = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(NonHermitian):
        finite_qcf(GROUND, [upper], [[0.5]])
    exp = IIDExperiment(base=GROUND, obs=[upper], n=4)
    assert exp.obs[0] is upper
    with pytest.raises(NonHermitian):
        iid_qcf(exp, [[0.5]])


def test_iid_qcf_refuses_under_strict_what_finite_qcf_refuses():
    # The experiment once kept the Hermitian part taken under the default
    # tolerances, so under strict iid_qcf answered 1+3.5e-17j for an
    # observable 1.4e-11 off Hermitian, which strict (1e-12) refuses.
    base, B = np.diag([1.0, 0.0]).astype(complex), np.array([[0, 1e-11], [0, 1]], dtype=complex)
    strict = matcore.TOL_PROFILES["strict"]
    for call in (lambda: iid_qcf(IIDExperiment(base=base, obs=[B], n=3), [[0.5]], strict),
                 lambda: contiguity.finite_qcf(base, [B], [[0.5]], strict)):
        with pytest.raises(NonHermitian, match="^matrix is not Hermitian"):
            call()


def test_iid_qcf_accepts_under_a_loose_rule_what_finite_qcf_accepts():
    # The experiment once refused at construction, under the default
    # tolerances, an observable that the call's hermitian=1e-6 accepts.
    loose = matcore.ToleranceConfig(hermitian=1e-6)
    B = np.array([[0, 1 + 1e-8], [1, 0]], dtype=complex)
    rho = np.eye(2, dtype=complex) / 2
    got = iid_qcf(IIDExperiment(base=rho, obs=[B], n=1), [[0.5]], loose)
    assert got == contiguity.finite_qcf(rho, [B], [[0.5]], loose)
    assert got == pytest.approx(np.cos(0.5 * (1 + 5e-9)), abs=1e-15)
    with pytest.raises(NonHermitian):
        iid_qcf(IIDExperiment(base=rho, obs=[B], n=1), [[0.5]])


def test_one_loop_forms_the_ordered_exponential_product(monkeypatch):
    # Every quasi-characteristic function over observables goes through
    # contiguity._ordered_products, which exponentiates all generators of a
    # grid by one call of matcore._expi, the one exp(iH) routine, at every
    # size (d = 3 once made one unitary_exp call per factor).  Its only
    # callers are _ordered_products and unitary_exp, which nothing in the
    # package calls, and contiguity has no size test of its own.
    sources = {m: inspect.getsource(m) for m in (cli, contiguity, gaussian, lebesgue, matcore, presets, qlan)}
    assert sum(src.count("unitary_exp(") for m, src in sources.items() if m is not matcore) == 0
    assert sum(src.count("_expi(") for src in sources.values()) == 3  # a definition and two calls
    assert "(2, 2)" not in sources[contiguity]
    callers = []

    def spy(H, _expi=matcore._expi):
        callers.append((sys._getframe(1).f_code.co_name, H.shape))
        return _expi(H)

    monkeypatch.setattr(matcore, "_expi", spy)
    constructed = []
    monkeypatch.setattr(IIDExperiment, "__post_init__",
                        lambda self, _init=IIDExperiment.__post_init__: constructed.append(self)
                        or _init(self))
    lecam3_numeric_check(spin_perturbed_model(), np.zeros(2), None, np.array([1.0, 0.5]),
                         n_grid=[100, 10_000, 1_000_000], xi_grid=single_xi_grid())
    assert constructed == [] and callers == [("_ordered_products", (20, 2, 2))] * 3  # one per n, not per query
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigensolve called")

    for d in (1, 2, 3):
        del callers[:]
        rho, X, Y = np.eye(d) / d, np.diag(np.linspace(-1.0, 1.0, d)), np.ones((d, d))
        with monkeypatch.context() as closed_form:
            if d < 3:  # sizes 1 and 2 are closed forms throughout
                closed_form.setattr(np.linalg, "eigh", refuse)
                closed_form.setattr(np.linalg, "eigvalsh", refuse)
            iid_qcf(IIDExperiment(base=rho, obs=[X - np.trace(X) / d * np.eye(d)], n=9), [[0.3], [0.1]])
            contiguity.finite_qcf(rho, [X, Y], [[0.3, 0.2], [0.1, 0.0], [0.5, 1.0]])
            contiguity.d_infinitesimal_diagnostic(lambda n: (rho, X, Y / n),
                                                  [[0.3, 0.1], [0.2]], [[0.2, 0.4], [0.5]], [1, 10])
        # One call per grid: 2 factors, 3 factors, then per n a base and a mixed grid of 3 each.
        assert [shape for _, shape in callers] == [(2, d, d), (3, d, d)] + [(3, d, d)] * 4
        assert {name for name, _ in callers} == {"_ordered_products"}
    del callers[:]
    matcore.unitary_exp(np.eye(3))
    assert callers == [("unitary_exp", (1, 3, 3))]


def ordered_product_reference(rho, obs, xis, n=1):
    """The array route: an identity-seeded product of ``unitary_exp`` factors."""
    scale = 1.0 / np.sqrt(n)
    U = np.eye(rho.shape[0], dtype=complex)
    for xi in xis:
        U = U @ matcore.unitary_exp(sum(c * X for c, X in zip(np.asarray(xi, dtype=float), obs)) * scale)
    z = complex(np.trace(rho @ U))
    if n == 1 or z == 0:
        return z
    return complex(np.exp(n * np.log(z)))


def bits(z: complex) -> bytes:
    return np.complex128(z).tobytes()


@pytest.mark.parametrize("n", [1, 2, 100, 10**6])
def test_qubit_ordered_product_matches_the_array_route(n):
    # At size 2 the generators are formed from the observables' entries and
    # exponentiated in closed form: a single factor gives the array route's
    # bits, and products of up to 3 factors agree within 1e-14.
    rng = np.random.default_rng([n, 5])
    worst = 0.0
    for trial in range(400):
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = rand_density(2, rng) if trial % 3 else rho / np.abs(rho).sum()  # |Tr rho U| <= 1
        obs = [matcore.check_hermitian(rand_herm(2, rng) * 10.0 ** rng.uniform(-3, 2))
               for _ in range(1 + trial % 3)]
        xis = [rng.uniform(-3.0, 3.0, size=len(obs)) * 10.0 ** rng.uniform(-4.0, 1.0)
               for _ in range(1 + trial % 4 % 3)]
        xis[0][0] = -0.0 if trial % 5 == 0 else xis[0][0]
        got = contiguity._ordered_product(rho, obs, xis, matcore.DEFAULT_TOL, n)
        want = ordered_product_reference(rho, obs, xis, n)
        if len(xis) == 1:
            assert bits(got) == bits(want)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    assert worst <= 1e-14


@pytest.mark.parametrize("n", [1, 3])
def test_qubit_ordered_product_of_a_vanishing_trace(n):
    # Diagonal factors against an off-diagonal rho: Tr rho U is exactly 0.
    obs = [presets.SIGMA_Z, np.diag([0.5, -2.0]).astype(complex)]
    xis = [[0.3, 1.1], [-0.7, 0.2]]
    got = contiguity._ordered_product(SIGMA_X, obs, xis, matcore.DEFAULT_TOL, n)
    assert got == 0 and bits(got) == bits(ordered_product_reference(SIGMA_X, obs, xis, n))


@pytest.mark.parametrize("xi", [[np.nan, 0.1], [0.1, np.inf], [-np.inf, 0.0], [1e308, 1e308]])
def test_qubit_ordered_product_refuses_a_non_finite_generator(xi):
    # A NaN or infinite coefficient, or a finite one whose generator
    # overflows, is refused with the array route's message.
    from qleb.errors import ValidationError

    obs = [presets.SIGMA_Z, presets.SIGMA_Z]
    for call in (lambda: contiguity._ordered_product(GROUND, obs, [[0.2, 0.1], xi], matcore.DEFAULT_TOL),
                 lambda: ordered_product_reference(GROUND, obs, [[0.2, 0.1], xi])):
        with np.errstate(all="ignore"), pytest.raises(ValidationError,
                                                      match=r"matrix has a non-finite entry \[0\]\[0\]"):
            call()


def _query_grid(rng, k: int) -> list:
    """Queries of 1 to 3 factors, mixed in one grid, over ``k`` observables."""
    return [[rng.uniform(-3.0, 3.0, size=k) * 10.0 ** rng.uniform(-4.0, 1.0) for _ in range(r)]
            for r in rng.integers(1, 4, size=12)]


@pytest.mark.parametrize("n", [1, 2, 7, 100, 10**6])
@pytest.mark.parametrize("d", [2, 3])
def test_a_stacked_grid_gives_each_query_the_reference_value(d, n):
    # One call over a grid with mixed factor counts: query by query the bits
    # of the array route, which multiplies one identity-seeded query at a time.
    rng = np.random.default_rng([d, n, 24])
    for trial in range(40):
        rho = rand_density(d, rng)
        obs = [matcore.check_hermitian(rand_herm(d, rng) * 10.0 ** rng.uniform(-3, 2))
               for _ in range(1 + trial % 3)]
        grid = _query_grid(rng, len(obs))
        got = contiguity._ordered_products(rho, obs, grid, matcore.DEFAULT_TOL, n)
        assert got.shape == (len(grid),)
        for z, xis in zip(got.tolist(), grid):
            assert bits(z) == bits(ordered_product_reference(rho, obs, xis, n))


@pytest.mark.parametrize("bad", [[np.nan, 0.1], [0.1, np.inf], [1e308, 1e308]])
def test_a_stacked_grid_names_the_first_non_finite_generator(bad):
    # The first query with a bad factor is refused with the message of that
    # query alone; the bad factors of later queries are not reached.
    from qleb.errors import ValidationError

    obs = [presets.SIGMA_Z, presets.SIGMA_Z]
    good = [np.array([0.2, 0.1])]
    grid = [good, [good[0], bad], [[-1e308, -1e308]]]
    with np.errstate(all="ignore"), pytest.raises(ValidationError) as stacked:
        contiguity._ordered_products(GROUND, obs, grid, matcore.DEFAULT_TOL)
    with np.errstate(all="ignore"), pytest.raises(ValidationError) as single:
        ordered_product_reference(GROUND, obs, grid[1])
    assert str(stacked.value) == str(single.value) != "matrix has a non-finite entry [0][0]=(-inf+nanj)"


@pytest.mark.parametrize("d", [2, 3])
def test_a_stacked_grid_refuses_its_factors_in_grid_order(d):
    # A non-finite factor before a vector of the wrong length is named first,
    # and a wrong length before a non-finite factor is refused first.
    from qleb.errors import DimMismatch, ValidationError

    rho, obs = np.eye(d, dtype=complex) / d, [np.diag(np.arange(d, dtype=complex))] * 2
    nan, short = [np.array([np.nan, 0.0])], [np.array([0.1])]
    with pytest.raises(ValidationError, match="non-finite entry"):
        contiguity._ordered_products(rho, obs, [nan, short], matcore.DEFAULT_TOL)
    with pytest.raises(DimMismatch, match="query vector length"):
        contiguity._ordered_products(rho, obs, [short, nan], matcore.DEFAULT_TOL)


@pytest.mark.parametrize("n", [2.5, 100.7, np.inf, np.nan, 0, -3, True, np.bool_(True), "4", None])
def test_a_copy_count_is_a_finite_whole_number_of_at_least_one(n):
    # Refused where it enters, naming the entry, before any state is formed:
    # 2.5 would shift by h / sqrt(2.5) and raise the product to the power 2.
    calls = []
    model = spin_perturbed_model()
    probe = ParametricModel(lambda theta: calls.append(theta) or model.state_at(theta), model.deriv_at)
    with pytest.raises(ValueError, match=r"^copy count n must be a finite whole number >= 1, got "):
        IIDExperiment(base=GROUND, obs=[SIGMA_X], n=n)
    with pytest.raises(ValueError, match=r"^copy count n_grid\[1\] must be a finite whole number >= 1, got "):
        lecam3_numeric_check(probe, np.zeros(2), None, np.array([1.0, 0.5]),
                             n_grid=[100, n], xi_grid=single_xi_grid())
    assert calls == []


def test_whole_copy_counts_of_any_type_read_as_ints():
    model = spin_perturbed_model()
    want = lecam3_numeric_check(model, np.zeros(2), None, np.array([1.0, 0.5]),
                                n_grid=[100, 10_000], xi_grid=single_xi_grid())
    got = lecam3_numeric_check(model, np.zeros(2), None, np.array([1.0, 0.5]),
                               n_grid=[1e2, np.int64(10_000)], xi_grid=single_xi_grid())
    assert got.deviations == want.deviations
    assert [type(row["n"]) for row in got.deviations] == [int, int]
    exp = IIDExperiment(base=GROUND, obs=[SIGMA_X], n=9.0)
    assert type(exp.n) is int and iid_qcf(exp, [[0.3]]) == iid_qcf(IIDExperiment(GROUND, [SIGMA_X], 9), [[0.3]])


@pytest.mark.parametrize("n_grid, xi_grid, name", [([], None, "n_grid"), ([100], [], "xi_grid")])
def test_empty_grids_are_refused(n_grid, xi_grid, name):
    xi_grid = single_xi_grid() if xi_grid is None else xi_grid
    with pytest.raises(ValueError, match=f"^{name} must have at least one entry$"):
        lecam3_numeric_check(spin_perturbed_model(), np.zeros(2), None, np.array([1.0, 0.5]),
                             n_grid=n_grid, xi_grid=xi_grid)


def spin_pure_state_reference(theta):
    """The array formula of the spin states."""
    theta = np.asarray(theta, dtype=float)
    t = float(np.linalg.norm(theta))
    if t == 0.0:
        return GROUND.copy()
    drive = theta[0] * SIGMA_X + theta[1] * SIGMA_Y
    return 0.5 * (np.eye(2) + np.tanh(t) / t * drive + presets.SIGMA_Z / np.cosh(t))


def test_spin_states_are_the_array_formula_bit_for_bit():
    # The scalar entries use the array formula's operations and numpy ufuncs,
    # so every byte agrees, the signs of zeros included; a theta of three
    # parameters is refused.
    rng = np.random.default_rng(61)
    thetas = [np.zeros(2), np.zeros(3), np.array([-0.0, 0.0]), np.array([1.0, 0.0]),
              np.array([0.0, -1.0]), np.array([3e-5, -2e-5]), np.array([0.3, -0.2, 0.7])]
    for k in range(4000):
        theta = rng.standard_normal(2 + k % 4 // 3) * 10.0 ** rng.uniform(-9.0, 1.3)
        if k % 4 == 1:
            theta[k % 2] = 0.0
        elif k % 4 == 2:
            theta = -np.abs(theta)
        thetas.append(theta)
    for theta in thetas:
        if theta.shape != (2,):
            for state in (spin_pure_state, presets.spin_perturbed_state):
                with pytest.raises(ValueError, match=r"takes 2 parameters, got an array of shape \(3,\)"):
                    state(theta)
            continue
        pure = spin_pure_state_reference(theta)
        assert spin_pure_state(theta).tobytes() == pure.tobytes()
        weight = float(np.exp(-cubic_defect(theta)))
        want = weight * pure + (1.0 - weight) * presets.EXCITED
        assert presets.spin_perturbed_state(theta).tobytes() == want.tobytes()


@pytest.mark.parametrize("theta", [[], [0.1], [0.1, 0.2, 0.3], [[0.1, 0.2]], 0.1])
def test_the_spin_models_take_exactly_two_parameters(theta):
    # One parameter once ended in an IndexError, and a third one was ignored.
    shape = np.shape(theta)
    message = rf"the spin model takes 2 parameters, got an array of shape {re.escape(str(shape))}"
    for model in (spin_pure_model(), spin_perturbed_model()):
        with pytest.raises(ValueError, match=message):
            model.state_at(theta)
        with pytest.raises(ValueError, match=message):
            model.deriv_at(theta, 0)


# -- quantum Le Cam third lemma at desk scale -----------------------------------------


def single_xi_grid(count: int = 20) -> list:
    return [[np.array([x, 0.3 * x])] for x in np.linspace(-2.0, 2.0, count)]


def test_lecam3_spin_model_converges():
    model = spin_pure_model()
    rep = lecam3_numeric_check(
        model, np.zeros(2), None, np.array([1.0, 0.5]),
        n_grid=[100, 10_000, 1_000_000], xi_grid=single_xi_grid(),
    )
    devs = [row["max_deviation"] for row in rep.deviations]
    assert devs[-1] <= 1e-3
    assert rep.decreasing
    assert np.allclose(rep.limit_mean, [1.0, 0.5])
    assert np.allclose(rep.limit_cov, SPIN_J)


def test_lecam3_validates_the_limit_once(monkeypatch):
    # The limit law does not depend on n or on the query: one validation,
    # where each (n, query) pair used to validate it again.
    from qleb import gaussian

    calls = []
    check = gaussian._check_params
    monkeypatch.setattr(gaussian, "_check_params", lambda *a, **k: calls.append(a) or check(*a, **k))
    lecam3_numeric_check(
        spin_pure_model(), np.zeros(2), None, np.array([1.0, 0.5]),
        n_grid=[100, 10_000, 1_000_000], xi_grid=single_xi_grid(),
    )
    assert len(calls) == 1


def _spy_qcf(monkeypatch) -> list:
    calls = []
    closed_form = gaussian._qcf
    monkeypatch.setattr(gaussian, "_qcf", lambda params, X: calls.append(X.shape) or closed_form(params, X))
    return calls


def test_lecam3_evaluates_the_limit_law_once_per_factor_count(monkeypatch):
    # The limit law was one closed-form call per query (20 on this grid).
    calls = _spy_qcf(monkeypatch)
    lecam3_numeric_check(spin_pure_model(), np.zeros(2), None, np.array([1.0, 0.5]),
                         n_grid=[100, 10_000], xi_grid=single_xi_grid())
    assert calls == [(20, 1, 2)]
    calls.clear()
    mixed = [[[0.3, 0.1]], [[0.2, -0.4], [0.5, 0.1]], [[-0.7, 0.2]], [[0.1, 0.1], [-0.3, 0.6]]]
    rep = lecam3_numeric_check(spin_pure_model(), np.zeros(2), None, np.array([1.0, 0.5]),
                               n_grid=[100, 10_000], xi_grid=mixed)
    assert calls == [(2, 1, 2), (2, 2, 2)]
    # Each query's value is the one it has alone.
    alone = [lecam3_numeric_check(spin_pure_model(), np.zeros(2), None, np.array([1.0, 0.5]),
                                  n_grid=[100, 10_000], xi_grid=[query]).deviations for query in mixed]
    for k, row in enumerate(rep.deviations):
        assert row["max_deviation"] == max(devs[k]["max_deviation"] for devs in alone)


@pytest.mark.parametrize("xi_grid", [[[[0.3, 0.1]], []], [[[0.3, 0.1]] * 4]], ids=["no factor", "four factors"])
def test_lecam3_refuses_a_bad_query_grid_before_reading_any_state(xi_grid):
    # The factor count was checked after the state at theta0, its derivatives and
    # both trace matrices.
    calls = []
    model = spin_perturbed_model()
    probe = ParametricModel(lambda theta: calls.append(theta) or model.state_at(theta), model.deriv_at)
    with pytest.raises(ValueError, match=r"^query grid is limited to 1 <= r <= 3 factors$"):
        lecam3_numeric_check(probe, np.zeros(2), None, np.array([1.0, 0.5]), [100], xi_grid)
    assert calls == []


def test_lecam3_custom_observable_subset():
    # probing only the first drive direction: Sigma = [1], Re tau = [1, 0],
    # so the limit law is the scalar Gaussian N(h_1, 1)
    model = spin_pure_model()
    h = np.array([1.0, 0.5])
    queries = [[np.array([x])] for x in np.linspace(-2, 2, 9)]
    rep = lecam3_numeric_check(model, np.zeros(2), [SIGMA_X], h,
                               n_grid=[100, 10_000, 1_000_000], xi_grid=queries)
    assert np.allclose(rep.limit_cov, [[1.0]])
    assert np.allclose(rep.tau, [[1.0, -1j]])
    assert rep.limit_mean == pytest.approx([1.0])
    devs = [row["max_deviation"] for row in rep.deviations]
    assert rep.decreasing and devs[-1] <= 1e-3


def test_lecam3_refuses_a_shift_of_the_wrong_length():
    # A one-entry h for the two-parameter spin model once failed inside numpy's matmul.
    with pytest.raises(ValueError, match=r"^h has 1 entries, but the model has 2 parameters$"):
        lecam3_numeric_check(spin_pure_model(), np.zeros(2), None, [1.0], [10], [[[1.0, 0.3]]])


def test_lecam3_zero_shift():
    model = spin_pure_model()
    rep = lecam3_numeric_check(
        model, np.zeros(2), None, np.zeros(2),
        n_grid=[100, 10_000], xi_grid=single_xi_grid(8),
    )
    assert np.allclose(rep.limit_mean, np.zeros(2))
    devs = [row["max_deviation"] for row in rep.deviations]
    assert devs[-1] < devs[0]
    assert devs[-1] < 1e-3


def test_lecam3_perturbed_model_same_limit():
    rep = lecam3_numeric_check(
        spin_perturbed_model(), np.zeros(2), None, np.array([1.0, 0.5]),
        n_grid=[100, 10_000, 1_000_000], xi_grid=single_xi_grid(),
    )
    devs = [row["max_deviation"] for row in rep.deviations]
    assert devs[-1] <= 1e-3 and rep.decreasing
    assert np.allclose(rep.limit_mean, [1.0, 0.5])
    assert np.allclose(rep.limit_cov, SPIN_J)


def test_lecam3_doubling_rate_band():
    # the deviation decays at a polynomial CLT-type rate: doubling n shrinks it
    # by a stable factor (measured ~2.0 for this model)
    model = spin_pure_model()
    queries = single_xi_grid(8) + [
        [np.array([1.1, 0.2]), np.array([-0.4, 0.8])],
        [np.array([0.5, -0.9]), np.array([0.3, 0.3])],
    ]
    rep = lecam3_numeric_check(
        model, np.zeros(2), None, np.array([1.0, 0.5]),
        n_grid=[500, 1000, 2000, 4000], xi_grid=queries,
    )
    devs = [row["max_deviation"] for row in rep.deviations]
    for a, b in zip(devs, devs[1:]):
        assert 1.2 <= a / b <= 2.1


# -- expansion checks -----------------------------------------------------------------


def test_expansion_zero_shift_ratio_is_trivial():
    # canonical ratio of a state with itself: faithful case gives exactly I,
    # so B(0) = 0; pure case gives the support projector, so Tr rho B(0) = 0
    rng = np.random.default_rng(5)
    rho = rand_spd(2, rng)
    rho = rho / np.trace(rho).real
    R = sqrt_likelihood_ratio(rho, rho)
    assert np.linalg.norm(R - np.eye(2)) < 1e-9

    rho0 = spin_pure_state(np.zeros(2))
    R0 = sqrt_likelihood_ratio(rho0, rho0)
    B0 = R0 - np.eye(2)
    assert abs(np.trace(rho0 @ B0)) < 1e-12


def test_expansion_spin_model_quadratic_coefficient():
    rep = sqrt_expansion_check(spin_pure_model(), np.zeros(2))
    assert np.allclose(rep.target_quadratic, -0.125 * np.eye(2))
    assert rep.rel_error <= 1e-4
    assert rep.trr2_exact  # Tr rho R_h^2 = 1 identically for the pure model
    assert rep.residual_order is not None and rep.residual_order > 2.0


def test_expansion_perturbed_model_orders():
    rep = sqrt_expansion_check(spin_perturbed_model(), np.zeros(2))
    assert rep.rel_error <= 5e-2  # cubic defect biases the quadratic fit slightly
    assert not rep.trr2_exact
    assert rep.trr2_order == pytest.approx(3.0, abs=0.3)
    assert rep.residual_order is not None and rep.residual_order > 2.0


def test_expansion_names_a_stepped_state_by_its_step():
    # A state that gains 0.3 off the diagonal away from theta0 once raised
    # "sigma is not Hermitian", with no word of which state.
    def state_at(theta):
        rho = spin_pure_state(theta).astype(complex)
        if np.linalg.norm(theta) > 5e-3:
            rho[0, 1] += 0.3
        return rho

    model = ParametricModel(state_at=state_at, deriv_at=presets.spin_pure_deriv)
    with pytest.raises(NonHermitian, match=r"^state at theta0 \+ h for h=\(0\.00518, 0\): sigma is not Hermitian"):
        sqrt_expansion_check(model, np.zeros(2))


# -- rate scans ------------------------------------------------------------------------


def test_rate_scan_cubic_defect_standard_scaling():
    rep = rate_scan(presets.spin_rate_scan(defect=cubic_defect, g=sqrt_scaling))
    assert rep.verdict == CONTIGUOUS
    assert all(row["n_over_g2"] == pytest.approx(1.0) for row in rep.rows)


def test_rate_scan_quadratic_defect_blocks_contiguity():
    rep = rate_scan(presets.spin_rate_scan(defect=quadratic_defect, g=sqrt_scaling))
    assert rep.verdict == NOT_CONTIGUOUS
    nf = [row["n_f"] for row in rep.rows]
    assert nf[-1] == pytest.approx(1.25)  # |h|^2 stays constant


def test_rate_scan_zero_defect_fast_scaling():
    rep = rate_scan(presets.spin_rate_scan(defect=lambda th: 0.0, g=presets.linear_scaling))
    assert rep.verdict == CONTIGUOUS


def test_rate_scan_slow_scaling_unbounded_second_column():
    rep = rate_scan(presets.spin_rate_scan(defect=lambda th: 0.0, g=quarter_scaling))
    assert rep.verdict == NOT_CONTIGUOUS


def test_rate_scan_declared_bound():
    scan = RateScan(f=lambda th: 0.0, g=sqrt_scaling, h=np.array([1.0]),
                    grid=[10, 100, 1000])
    assert rate_scan(scan).verdict == CONTIGUOUS


def test_rate_scan_reads_a_slowly_vanishing_first_column_as_inconclusive():
    # n f(h / sqrt(n)) = n^(-1/4) for f = |theta|^(5/2): falling, but still 0.1 at the
    # end of the grid, and n / g^2 = 1 stays bounded.
    scan = RateScan(f=lambda th: float(np.linalg.norm(th)) ** 2.5, g=sqrt_scaling, h=np.array([1.0]),
                    grid=[1, 10, 100, 1000, 10_000])
    rep = rate_scan(scan)
    assert rep.verdict == "Inconclusive"
    assert rep.notes == "trends ambiguous on the sampled grid"
    assert rep.rows[-1]["n_f"] == pytest.approx(0.1)


@pytest.mark.parametrize("grid, match", [
    ([], "must be non-empty and strictly increasing"),
    ([100, 10, 1], "must be non-empty and strictly increasing"),
    ([1, 10, 10, 100], "must be non-empty and strictly increasing"),
    ([0, 5, 10], r"must lie within \[1, horizon\]"),
])
def test_rate_scan_grid_is_checked_as_a_sample_grid(grid, match):
    with pytest.raises(ValueError, match=f"^grid {match}$"):
        RateScan(f=lambda th: 0.0, g=sqrt_scaling, h=np.array([1.0]), grid=grid)
