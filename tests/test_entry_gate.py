"""Every caller state enters the library through one validation gate.

``OPERANDS`` is keyed by every name in ``qleb.__all__``.  A row names the
callable's state operands, and the states its models, sequences and families
return, each with the name its errors give it (plus the grid point or
parameter where there is one); or it says why the name takes none.  The
property feeds each operand a NaN, a non-Hermitian and a below-floor matrix,
and each must raise ``ValidationError`` (``NonHermitian`` and ``NotPSD`` are
among its subclasses) with a message that names the operand.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qleb
from qleb import presets
from qleb.errors import ValidationError

from util import rand_density

KINDS = ("nan", "non-hermitian", "below-floor")
THETA0 = np.array([0.3, 0.2])


def bad_state(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """A state of size ``d`` spoilt by ``kind``: a NaN entry, an entry 0.3 off Hermitian, or the
    last diagonal entry lowered by 1 (an eigenvalue below ``rho_dd - 1 < 0``)."""
    A = rand_density(d, rng)
    if kind == "nan":
        A[0, -1] = np.nan
    elif kind == "non-hermitian":
        A[0, -1] += 0.3
    else:
        A[-1, -1] -= 1.0
    return A


def mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def pure(d: int) -> np.ndarray:
    P = np.zeros((d, d), dtype=complex)
    P[0, 0] = 1.0
    return P


def pair_rows(call, first: str, second: str, names=("sigma", "rho")) -> dict:
    """Rows for ``call(x, y, ...)`` on two states, named ``names`` by its errors."""
    return {first: (lambda bad, d: lambda: call(bad, mixed(d)), names[0]),
            second: (lambda bad, d: lambda: call(mixed(d), bad), names[1])}


def model_at(bad, deriv: bool):
    """The spin model with ``bad`` at every point but ``THETA0`` (analytic derivatives iff ``deriv``)."""
    def state_at(theta):
        return presets.spin_pure_state(theta) if np.array_equal(theta, THETA0) else bad

    return qleb.ParametricModel(state_at=state_at, deriv_at=presets.spin_pure_deriv if deriv else None)


def model_rows(check) -> dict:
    """Rows for a check that reads a model's states: rho(theta0) and the finite-difference states."""
    return {
        "state_at(theta0)": (lambda bad, d: lambda: check(qleb.ParametricModel(state_at=lambda th: bad)), "state"),
        "finite-difference states": (lambda bad, d: lambda: check(model_at(bad, deriv=False)),
                                     "state at theta0 +1.0e-05 e_0"),
    }


def sequence(pair, limits=None, grid=(1, 10, 100)) -> qleb.StateSequence:
    return qleb.StateSequence(eval=pair, declared_limits=limits, horizon=grid[-1], sample_grid=list(grid))


def late(bad, good):
    """``bad`` from n = 10 on, ``good`` before."""
    return lambda n: bad if n >= 10 else good


def block_family(bad, which: str) -> qleb.BlockSequence:
    """The sec-7.1 family with ``bad`` as its inner limit ``which`` ("rho", "sigma"), its full_eval
    state ("full_eval rho", "full_eval sigma"; ``bad`` padded to the size of the state) or its inner
    block ``which`` ("rho0", "sigma0")."""
    def blocks(n):
        parts = list(presets.three_block_blocks(n))
        if which in ("rho0", "sigma0"):
            parts[2 if which == "rho0" else 3] = bad
        return tuple(parts)

    def full_eval(n):
        states = list(qleb.contiguity._assemble_blocks(presets.three_block_blocks(n)))
        if which.startswith("full_eval"):
            states[which.endswith("sigma")] = np.pad(bad, (0, 2 * n))
        return tuple(states)

    limits = list(presets.faithful_to_pure_limits())
    if which in ("rho", "sigma"):
        limits[which == "sigma"] = bad
    return qleb.BlockSequence(blocks=blocks, grid=[4, 8], inner_limits=tuple(limits), full_eval=full_eval)


def kakutani(bad, d: int, which: int, stacked: bool) -> qleb.ProductFamily:
    """Factors ``(I/d, I/d)`` with ``bad`` in place ``which`` of factor 2."""
    def factors(i):
        return tuple(bad if (k == which and i == 2) else mixed(d) for k in range(2))

    def stack(idx):
        return tuple(np.array([factors(int(i))[k] for i in idx]) for k in range(2))

    return qleb.ProductFamily(factors=factors, stack=stack if stacked else None)


def pure_site_family(bad, d: int, which: int) -> qleb.PurePowerFamily:
    good = (pure(d), mixed(d))
    return qleb.PurePowerFamily(site=lambda n: tuple(bad if (k == which and n >= 10) else good[k] for k in range(2)),
                                horizon=100, sample_grid=[1, 10, 100])


def triples(bad, d: int):
    Z = np.diag(np.arange(d, dtype=float))
    return lambda n: (bad if n >= 3 else mixed(d), Z, Z)


#: name -> {operand: (make(bad, d) -> call, the name its errors give it[, kinds])}, or why it takes none.
OPERANDS = {
    "DEFAULT_TOL": "a tolerance profile",
    "TOL_PROFILES": "tolerance profiles",
    "ToleranceConfig": "tolerances",
    "geometric_mean": pair_rows(qleb.geometric_mean, "A", "B", ("first operand", "second operand")),
    "herm_exp": "a Hermitian generator, not a state",
    "unitary_exp": "a Hermitian generator, not a state",
    "psd_log_on_support": {"A": (lambda bad, d: lambda: qleb.psd_log_on_support(bad), "matrix")},
    "DensityMatrix": {"mat": (lambda bad, d: lambda: qleb.DensityMatrix(bad), "state")},
    "LebesgueDecomposition": "a result",
    "SupportSplit": "a result",
    "excision": pair_rows(qleb.excision, "sigma", "rho"),
    "is_abs_continuous": pair_rows(qleb.is_abs_continuous, "a", "b"),
    "is_singular": pair_rows(qleb.is_singular, "rho", "sigma", ("rho", "sigma")),
    "lebesgue_decompose": pair_rows(qleb.lebesgue_decompose, "sigma", "rho"),
    "quantum_log_likelihood": pair_rows(qleb.quantum_log_likelihood, "sigma", "rho"),
    "sqrt_likelihood_ratio": pair_rows(qleb.sqrt_likelihood_ratio, "sigma", "rho"),
    "BlockSequence": "a sequence: its states are block_criterion_diagnostics' operands",
    "ContiguityReport": "a result",
    "ProductFamily": "a family: its states are kakutani_criterion's operands",
    "PurePowerFamily": "a family: its states are pure_criterion's operands",
    "StateSequence": "a sequence: its states are limit_criterion's and pure_criterion's operands",
    "block_criterion_diagnostics": {
        part: (lambda bad, d, part=part: lambda: qleb.block_criterion_diagnostics(block_family(bad, part)),
                    name) + kinds
        for part, name, kinds in (
            ("rho", "declared rho limit", ()), ("sigma", "declared sigma limit", ()),
            ("full_eval rho", "full_eval rho at n=4", ()), ("full_eval sigma", "full_eval sigma at n=4", ()),
            # A block below the floor fails hypothesis (c), a verdict of Inconclusive by design.
            ("rho0", "declared rho block at n=4", (KINDS[:2],)),
            ("sigma0", "declared sigma block at n=4", (KINDS[:2],)))
    },
    "d_infinitesimal_diagnostic": {
        "triples rho": (lambda bad, d: lambda: qleb.d_infinitesimal_diagnostic(triples(bad, d), [[0.5]], [[0.5]],
                                                                               [1, 3]), "rho at n=3")},
    "default_grid": "takes a horizon",
    "finite_qcf": {"rho": (lambda bad, d: lambda: qleb.finite_qcf(bad, [np.eye(d)], [[0.5]]), "rho")},
    "kakutani_criterion": {
        f"{how} {who}": (lambda bad, d, k=k, stacked=stacked: lambda: qleb.kakutani_criterion(
            kakutani(bad, d, k, stacked), horizon=4), f"{who} of factor 2")
        for k, who in enumerate(("rho", "sigma")) for how, stacked in (("factors", False), ("stack", True))
    },
    "l2_norm_sq": {"rho": (lambda bad, d: lambda: qleb.l2_norm_sq(bad, np.eye(d)), "rho")},
    "limit_criterion": {
        "declared rho limit": (lambda bad, d: lambda: qleb.limit_criterion(
            sequence(lambda n: (mixed(d), mixed(d)), (bad, mixed(d)))), "declared rho limit"),
        "declared sigma limit": (lambda bad, d: lambda: qleb.limit_criterion(
            sequence(lambda n: (mixed(d), mixed(d)), (mixed(d), bad))), "declared sigma limit"),
        "sampled rho": (lambda bad, d: lambda: qleb.limit_criterion(
            sequence(lambda n: (late(bad, mixed(d))(n), mixed(d)), (mixed(d), mixed(d)))), "sampled rho at n=10"),
        "sampled sigma": (lambda bad, d: lambda: qleb.limit_criterion(
            sequence(lambda n: (mixed(d), late(bad, mixed(d))(n)), (mixed(d), mixed(d)))),
            "sampled sigma at n=10"),
    },
    "pure_criterion": {
        "declared rho limit": (lambda bad, d: lambda: qleb.pure_criterion(
            sequence(lambda n: (pure(d), mixed(d)), (bad, mixed(d)))), "declared rho limit"),
        "declared sigma limit": (lambda bad, d: lambda: qleb.pure_criterion(
            sequence(lambda n: (pure(d), mixed(d)), (pure(d), bad))), "declared sigma limit"),
        "sequence rho": (lambda bad, d: lambda: qleb.pure_criterion(
            sequence(lambda n: (late(bad, pure(d))(n), mixed(d)))), "pair at n=10: rho"),
        "sequence sigma": (lambda bad, d: lambda: qleb.pure_criterion(
            sequence(lambda n: (pure(d), late(bad, mixed(d))(n)))), "pair at n=10: sigma"),
        "site rho": (lambda bad, d: lambda: qleb.pure_criterion(pure_site_family(bad, d, 0)), "pair at n=10: rho"),
        "site sigma": (lambda bad, d: lambda: qleb.pure_criterion(pure_site_family(bad, d, 1)),
                       "pair at n=10: sigma"),
    },
    "tail_mass": {"rho": (lambda bad, d: lambda: qleb.tail_mass(bad, np.eye(d), 0.5), "rho"),
                  "R": (lambda bad, d: lambda: qleb.tail_mass(mixed(d), bad, 0.5), "R")},
    "ExtendedGaussianParams": "Gaussian parameters, whose covariance validate judges: not a state",
    "GaussianParams": "Gaussian parameters, whose covariance validate judges: not a state",
    "QcfQuery": "query vectors",
    "gaussian_qcf": "Gaussian parameters, whose covariance validate judges: not a state",
    "lecam_shift": "Gaussian parameters, whose covariance validate judges: not a state",
    "sandwiched_gaussian_qcf": "Gaussian parameters, whose covariance validate judges: not a state",
    "validate": "a predicate on Gaussian parameters",
    "ExpansionReport": "a result",
    "IIDExperiment": "an experiment: its base and observables are iid_qcf's operands",
    "LeCam3Report": "a result",
    "ParametricModel": "a model: its states are the operands of sld, slds, lecam3_numeric_check and "
                       "sqrt_expansion_check",
    "RateScan": "scalar rate data",
    "RateScanReport": "a result",
    "iid_qcf": {"base": (lambda bad, d: lambda: qleb.iid_qcf(qleb.IIDExperiment(base=bad, obs=[np.zeros((d, d))]),
                                                            [[0.5]]), "base")},
    "lecam3_numeric_check": {
        **model_rows(lambda m: qleb.lecam3_numeric_check(m, THETA0, None, [1.0, 0.5], [1, 10], [[[0.3, 0.1]]])),
        "shifted states": (lambda bad, d: lambda: qleb.lecam3_numeric_check(
            model_at(bad, deriv=True), THETA0, None, [1.0, 0.5], [1, 10], [[[0.3, 0.1]]]), "shifted state at n=1"),
    },
    "qfi_matrix": {"rho": (lambda bad, d: lambda: qleb.qfi_matrix(bad, [np.zeros((d, d))]), "state")},
    "rate_scan": "scalar rate data",
    "sld": model_rows(lambda m: qleb.sld(m, THETA0, 0)),
    "slds": model_rows(lambda m: qleb.slds(m, THETA0)),
    "sqrt_expansion_check": {
        **model_rows(lambda m: qleb.sqrt_expansion_check(m, THETA0)),
        # The states at theta0 + h, steps of the fit and no caller's parameter, are
        # named by their step, as the sigma of their decomposition.
        "states at theta0 + h": (lambda bad, d: lambda: qleb.sqrt_expansion_check(model_at(bad, deriv=True), THETA0),
                                 "state at theta0 + h"),
    },
    "errors": "a module",
    "presets": "a module",
}

#: Rows whose states are qubit states whatever the drawn size.
QUBIT_ONLY = {"block_criterion_diagnostics", "lecam3_numeric_check", "sld", "slds", "sqrt_expansion_check"}


def test_every_public_name_has_a_row():
    assert set(OPERANDS) == set(qleb.__all__)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), d=st.sampled_from([2, 3]))
def test_every_operand_refuses_what_is_not_a_state(seed, d):
    rng = np.random.default_rng(seed)
    for name, row in OPERANDS.items():
        if isinstance(row, str):
            continue
        size = 2 if name in QUBIT_ONLY else d
        for operand, (make, who, *kinds) in row.items():
            for kind in (kinds[0] if kinds else KINDS):
                with pytest.raises(ValidationError) as info:
                    make(bad_state(kind, size, rng), size)()
                message = str(info.value)
                assert re.search(rf"(^|: ){re.escape(who)}[ :]", message), (name, operand, kind, message)
