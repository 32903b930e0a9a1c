"""The closed-form qubit route against the array route at d = 2.

Two 2x2 operands are validated, split and assembled on Python scalars
(``lebesgue._qubit_split``); the array split ``lebesgue._split`` and
``lebesgue._decompose`` stay as the reference, as
``_stacked_summands_reference`` is kept for the Kakutani stacks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qleb import (TOL_PROFILES, excision, is_abs_continuous, is_singular, lebesgue, matcore,
                  lebesgue_decompose, quantum_log_likelihood)
from qleb.errors import QlebError

from util import rand_unitary

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
KINDS = ("full", "deficient-sigma", "deficient-rho", "orthogonal")
INVALID = ("not-psd", "zero", "non-hermitian", "nan")


def qubit_pair(rng: np.random.Generator, kind: str, near: bool, tol, scale: int):
    """``(sigma, rho)`` of one kind, both multiplied by ``10**scale``.

    With ``near`` the kernel eigenvalues become ``rank_rel`` times a factor
    log-uniform in [1/10, 10], else they are exactly zero.  Under the
    ``extreme-scale`` profile rho is diagonal: its cutoff (1e-30) lies far
    below rounding, so only an exact eigenbasis resolves what is support
    there.  The scale is raised where needed so that every nonzero
    eigenvalue stays a normal float.
    """
    small = tol.rank_rel * 10.0 ** rng.uniform(-1.0, 1.0) if near else 0.0
    U_r = np.eye(2)[:, rng.permutation(2)] if tol.rank_rel < 1e-16 else rand_unitary(2, rng)
    U_s = rand_unitary(2, rng)
    w_r = [small if kind in ("deficient-rho", "orthogonal") else rng.uniform(0.1, 1.0), 1.0]
    w_s = [small if kind == "deficient-sigma" else rng.uniform(0.1, 1.0), 1.0]
    if kind == "orthogonal":
        U_s, w_s = U_r[:, ::-1], [small, rng.uniform(0.1, 1.0)]
    if small:
        scale = max(scale, -300 - math.floor(math.log10(small)))
    c = 10.0 ** scale

    def op(U, w):
        A = (U * w) @ U.conj().T
        return c * (A + A.conj().T) / 2

    return op(U_s, w_s), op(U_r, w_r)


def outcome(call):
    """The call's result, or the type and message of the library error it raised."""
    try:
        return call()
    except QlebError as exc:
        return type(exc), str(exc)


def size(A: np.ndarray) -> float:
    """Largest entry magnitude: no overflow for entries near 1e300."""
    return float(np.abs(A).max(initial=0.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(seed=SEEDS, kind=st.sampled_from(KINDS), near=st.booleans(),
       profile=st.sampled_from(sorted(TOL_PROFILES)), scale=st.integers(-300, 300))
def test_qubit_route_matches_the_array_route(seed, kind, near, profile, scale):
    tol = TOL_PROFILES[profile]
    sigma, rho = qubit_pair(np.random.default_rng(seed), kind, near, tol, scale)
    got = outcome(lambda: lebesgue_decompose(sigma, rho, tol))
    want = outcome(lambda: lebesgue._decompose(lebesgue._split(sigma, rho, tol, vectors=True)))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.split.dims == want.split.dims
    bound = 1e-14 * (1.0 + size(sigma))
    assert size(got.ac - want.ac) <= bound
    assert size(got.perp - want.perp) <= bound
    # R scales like (sigma / rho)^(1/2), so it is compared relative to its own
    # size; a block eigenvalue near the cutoff amplifies rounding in the
    # excision by up to rank_rel^(-1/2).
    R = want.sqrt_lr
    amplification = tol.rank_rel ** -0.5 if near else 1.0
    assert size(got.sqrt_lr - R) <= 1e-14 * (1.0 + size(R)) * amplification
    assert size(excision(sigma, rho, tol) - lebesgue._split(sigma, rho, tol).ex) <= bound

    assert is_singular(rho, sigma, tol) == (not np.any(lebesgue._split(sigma, rho, tol).h2))
    assert is_abs_continuous(sigma, rho, tol) == bool(np.all(lebesgue._split(rho, sigma, tol).h2))
    assert is_abs_continuous(rho, sigma, tol) == bool(np.all(lebesgue._split(sigma, rho, tol).h2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=SEEDS, kind=st.sampled_from(KINDS), bad=st.sampled_from(INVALID),
       operand=st.sampled_from(["sigma", "rho"]), scale=st.integers(-300, 300))
def test_qubit_route_raises_what_the_array_route_raises(seed, kind, bad, operand, scale):
    tol = TOL_PROFILES["default"]
    rng = np.random.default_rng(seed)
    ops = dict(zip(("sigma", "rho"), qubit_pair(rng, kind, False, tol, scale)))
    A = ops[operand]
    if bad == "not-psd":
        A -= 0.5 * np.trace(A).real * np.eye(2)
    elif bad == "zero":
        A[:] = 0.0
    elif bad == "non-hermitian":
        A[0, 1] += 1e-3 * max(1.0, size(A))  # the rule is relative to 1 + ||A||
    else:
        A[1, 1] = np.nan
    sigma, rho = ops["sigma"], ops["rho"]
    want = outcome(lambda: lebesgue._decompose(lebesgue._split(sigma, rho, tol, vectors=True)))
    assert isinstance(want, tuple)
    assert outcome(lambda: lebesgue_decompose(sigma, rho, tol)) == want
    assert outcome(lambda: is_singular(rho, sigma, tol)) == want
    assert outcome(lambda: excision(sigma, rho, tol)) == want


@pytest.mark.parametrize("kind", KINDS)
def test_quantum_log_likelihood_on_qubits_matches_the_array_route(kind):
    tol = TOL_PROFILES["default"]
    for seed in range(20):
        sigma, rho = qubit_pair(np.random.default_rng([seed, 2]), kind, False, tol, 0)
        got = outcome(lambda: quantum_log_likelihood(sigma, rho, tol))
        sp = lebesgue._split(sigma, rho, tol)
        if kind != "full":
            assert isinstance(got, tuple) and "strictly positive" in got[1]
            continue
        want = 2.0 * matcore.psd_log_on_support(lebesgue._decompose(sp).sqrt_lr, tol)
        assert size(got - want) <= 1e-14 * (1.0 + size(want))
