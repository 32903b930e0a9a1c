"""One rank rule: the predicates and the decomposition read the same split.

``is_singular(rho, sigma)`` is "H2 empty" and ``is_abs_continuous(rho, sigma)``
is "H1 empty" in the split of sigma relative to rho, with excision
eigenvalues measured against the operand's own largest eigenvalue; these
properties pin that they can no longer disagree.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qleb import cli, is_abs_continuous, is_singular, lebesgue_decompose, matcore

from util import rand_unitary

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def near_cutoff_pair(seed: int, conjugate: bool):
    """rho = diag(1, 0), sigma = diag(e, 1 - e) with e log-uniform in [1e-12, 1e-6].

    e comes from a seeded generator rather than ``st.floats``, which favours
    round values such as 1e-9 that sit exactly on the default cutoff; there,
    rounding in the unitary conjugation alone decides the rank.
    """
    rng = np.random.default_rng(seed)
    e = 10.0 ** rng.uniform(-12.0, -6.0)
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([e, 1.0 - e]).astype(complex)
    if conjugate:
        U = rand_unitary(2, rng)
        rho, sigma = U @ rho @ U.conj().T, U @ sigma @ U.conj().T
    return rho, sigma


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=SEEDS, conjugate=st.booleans())
def test_near_cutoff_predicates_agree_with_decomposition(seed, conjugate):
    rho, sigma = near_cutoff_pair(seed, conjugate)
    singular = is_singular(rho, sigma)
    assert not (singular and is_abs_continuous(rho, sigma))
    assert singular == (np.trace(lebesgue_decompose(sigma, rho).ac).real == 0)
    assert singular == is_singular(sigma, rho)


def test_near_cutoff_exactly_at_the_cutoff_is_consistent():
    e = matcore.DEFAULT_TOL.rank_rel
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([e, 1.0 - e]).astype(complex)
    singular = is_singular(rho, sigma)
    assert singular == is_singular(sigma, rho)
    assert singular == (np.trace(lebesgue_decompose(sigma, rho).ac).real == 0)
    assert not (singular and is_abs_continuous(rho, sigma))


def orthogonal_pair(rng: np.random.Generator, d: int):
    """States supported on complementary halves of a random orthonormal basis."""
    U = rand_unitary(d, rng)
    k = d // 2
    w_r = rng.uniform(0.2, 1.0, size=k)
    w_s = rng.uniform(0.2, 1.0, size=d - k)
    rho = (U[:, :k] * (w_r / w_r.sum())) @ U[:, :k].conj().T
    sigma = (U[:, k:] * (w_s / w_s.sum())) @ U[:, k:].conj().T
    return (rho + rho.conj().T) / 2, (sigma + sigma.conj().T) / 2


@pytest.mark.parametrize("d", [2, 4, 8])
def test_orthogonal_supports_are_singular_and_not_ac(d):
    for seed in range(200):
        rho, sigma = orthogonal_pair(np.random.default_rng([d, seed]), d)
        assert not is_abs_continuous(sigma, rho), seed
        assert not is_abs_continuous(rho, sigma), seed
        assert is_singular(rho, sigma), seed


@pytest.fixture
def counted(monkeypatch):
    """Count LAPACK eigensolves and closed-form eigensystems (sizes <= 2), and
    record the arguments of every Hermiticity check."""
    calls = {"eigensolves": 0, "closed_form": 0, "hermitian": []}
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapper(*args, _original=original, **kwargs):
            calls["eigensolves"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    check = matcore.check_hermitian

    def checked(A, *args, **kwargs):
        calls["hermitian"].append(A)
        return check(A, *args, **kwargs)

    monkeypatch.setattr(matcore, "check_hermitian", checked)
    closed_form = matcore._eigh2

    def counted_closed_form(*args, **kwargs):
        calls["closed_form"] += 1
        return closed_form(*args, **kwargs)

    monkeypatch.setattr(matcore, "_eigh2", counted_closed_form)
    return calls


def _state(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    G = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    A = G @ G.conj().T + (np.eye(d) if rank == d else 0)
    return A / np.trace(A).real


@pytest.mark.parametrize("kind", ["full", "deficient-sigma", "deficient-rho", "rank1-rho"])
@pytest.mark.parametrize("d, budget", [(2, 3), (3, 4), (8, 4)])
def test_decompose_eigensolve_budget(counted, d, budget, kind):
    # Validation (eigvalsh of sigma, eigh of rho), the excision's eigh, and one
    # eigh in the geometric mean, which sizes 1 and 2 replace by closed forms.
    # With faithful rho and sigma the excision is sigma in rho's eigenbasis: its
    # spectrum is sigma's and nothing reads its eigenvectors, so it takes none.
    # At d = 2 every eigensystem is closed-form: no LAPACK eigensolve at all.
    k = (d + 1) // 2
    rng = np.random.default_rng(d)
    sigma = _state(rng, d, k if kind == "deficient-sigma" else d)
    rho = _state(rng, d, {"deficient-rho": k, "rank1-rho": 1}.get(kind, d))
    dec = lebesgue_decompose(sigma, rho)
    assert dec.split.dims == {
        "full": (0, d, 0), "deficient-sigma": (d - k, k, 0),
        "deficient-rho": (0, k, d - k), "rank1-rho": (0, 1, d - 1),
    }[kind]
    assert counted["eigensolves"] + counted["closed_form"] <= budget - (kind == "full")
    if d == 2:
        assert counted["eigensolves"] == 0
    for operand in (sigma, rho):
        assert sum(np.array_equal(A, operand) for A in counted["hermitian"]) == 1


@pytest.mark.parametrize("kind", ["full", "deficient-sigma", "deficient-rho"])
@pytest.mark.parametrize("d", [2, 8, 64])
def test_cli_decompose_validates_each_operand_once(counted, monkeypatch, tmp_path, d, kind):
    # Hermiticity is checked where the CLI reads each file (2), positivity and
    # rank where the library is entered (2), and the ac_predicate check
    # validates ac and rho (2).  The eigensolves are the decomposition's (3 at
    # full rank, 4 with a kernel) and the predicate's (2, or 3 when ac has a
    # kernel); nothing else validates an operand.
    monkeypatch.setattr(cli, "check_hermitian", matcore.check_hermitian)
    k = (d + 1) // 2
    rng = np.random.default_rng([d, 2])
    sigma = _state(rng, d, k if kind == "deficient-sigma" else d)
    rho = _state(rng, d, k if kind == "deficient-rho" else d)
    paths = []
    for name, A in (("sigma", sigma), ("rho", rho)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cli.matrix_document(A)), encoding="utf-8")
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["decompose", *paths]) == 0
    assert json.loads(out.getvalue())["values"]["checks"]["ac_predicate"] is True
    assert len(counted["hermitian"]) == 6
    assert counted["eigensolves"] == (0 if d == 2 else 5 if kind == "full" else 7)


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_predicates_on_faithful_pairs_make_two_eigensolves(counted, d):
    # Only the two validations: the excision's spectrum is sigma's.  At d = 2
    # both are closed-form, with no LAPACK eigensolve.
    per_call = 0 if d == 2 else 2
    rng = np.random.default_rng([d, 1])
    sigma, rho = _state(rng, d, d), _state(rng, d, d)
    assert is_abs_continuous(sigma, rho)
    assert counted["eigensolves"] == per_call
    assert not is_singular(rho, sigma)
    assert counted["eigensolves"] == 2 * per_call


def test_predicates_take_only_the_excisions_eigenvalues(monkeypatch):
    # With a rho kernel the split diagonalises the excision; the predicates read
    # its eigenvalues alone, so the one eigh is rho's validation (its eigenbasis
    # defines the excision) and the excision gets an eigvalsh of rho's rank.
    sizes = {"eigh": [], "eigvalsh": []}
    for name in sizes:
        original = getattr(np.linalg, name)

        def wrapper(A, *args, _original=original, _name=name, **kwargs):
            sizes[_name].append(np.shape(A)[-1])
            return _original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    rng = np.random.default_rng(8)
    sigma, rho = _state(rng, 8, 8), _state(rng, 8, 5)
    assert is_abs_continuous(sigma, rho) is False
    assert is_abs_continuous(rho, sigma) is True
    assert is_singular(rho, sigma) is False
    assert sizes == {"eigh": [8, 8, 8], "eigvalsh": [8, 8, 5, 8, 5]}
    sizes["eigh"].clear()
    lebesgue_decompose(sigma, rho)
    assert sizes["eigh"] == [8, 5, 5]  # rho, the excision, the geometric mean
