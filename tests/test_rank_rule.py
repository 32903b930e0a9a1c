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

from qleb import cli, is_abs_continuous, is_singular, lebesgue, lebesgue_decompose, matcore

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
    record the arguments of every Hermiticity check: ``check_hermitian`` and
    its 2x2 entry rule ``_hermitian2``, a check inside another counted once."""
    calls = {"eigensolves": 0, "closed_form": 0, "hermitian": []}
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def wrapper(*args, _original=original, **kwargs):
            calls["eigensolves"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    depth = [0]
    for name in ("check_hermitian", "_hermitian2"):
        def checked(A, *args, _check=getattr(matcore, name), **kwargs):
            if not depth[0]:
                calls["hermitian"].append(A)
            depth[0] += 1
            try:
                return _check(A, *args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(matcore, name, checked)
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


#: LAPACK eigensolves of one decomposition at d >= 3.  A full-rank operand is
#: certified by a shifted Cholesky and takes none: a full-rank pair makes one,
#: the triangular mean's; an operand with a kernel makes one (eigh), and so
#: does the geometric mean of H2 blocks larger than 2x2.
DECOMPOSE_EIGENSOLVES = {
    3: {"full": 1, "deficient-sigma": 1, "deficient-rho": 1, "rank1-rho": 1},
    8: {"full": 1, "deficient-sigma": 2, "deficient-rho": 2, "rank1-rho": 1},
    96: {"full": 1, "deficient-sigma": 2, "deficient-rho": 2, "rank1-rho": 1},
}


@pytest.mark.parametrize("kind", ["full", "deficient-sigma", "deficient-rho", "rank1-rho"])
@pytest.mark.parametrize("d, budget", [(2, 3), (3, 4), (8, 4), (96, 4)])
def test_decompose_eigensolve_budget(counted, d, budget, kind):
    # ``budget`` bounds the eigensystems of the eigen route (validation of both
    # operands, the excision's eigh and the geometric mean's); with full-rank
    # certificates the LAPACK counts are DECOMPOSE_EIGENSOLVES.  At d = 2 every
    # eigensystem is closed-form: no LAPACK eigensolve at all.
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
    assert counted["eigensolves"] == (0 if d == 2 else DECOMPOSE_EIGENSOLVES[d][kind])
    for operand in (sigma, rho):
        assert sum(np.array_equal(A, operand) for A in counted["hermitian"]) == 1


@pytest.mark.parametrize("kind", ["full", "deficient-sigma", "deficient-rho"])
@pytest.mark.parametrize("d", [2, 8, 64])
def test_cli_decompose_validates_each_operand_once(counted, monkeypatch, tmp_path, d, kind):
    # Hermiticity is checked where the CLI reads each file (2), positivity and
    # rank where the library is entered (2), and the ac_predicate check
    # validates ac and rho (2).  A full-rank operand is certified by a shifted
    # Cholesky and takes no eigensolve; one with a kernel takes one.  The
    # eigensolves are the decomposition's (1 at full rank, the triangular
    # mean's; 2 with a kernel) and the predicate's (none at full rank; 1 with
    # sigma's kernel, where ac has it; 3 with rho's, where both ac and rho have
    # it and the excision takes its own); nothing else validates an operand.
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
    assert counted["eigensolves"] == (0 if d == 2 else {"full": 1, "deficient-sigma": 3,
                                                         "deficient-rho": 5}[kind])


def test_limit_criterion_validates_each_declared_limit_once(counted, monkeypatch):
    # The split that decides sigma_inf << rho_inf validates both limits, and
    # then each sampled operand is validated as one stack over the grid (a
    # stack of 2x2 matrices on its entries, by matcore._psd2_stack): 2 + 2
    # checks, the limits first, where a check per grid point would take 2 + 26.
    from qleb import StateSequence, limit_criterion, presets

    stack_rule = matcore._psd2_stack

    def counted_stack_rule(A, *args, **kwargs):
        counted["hermitian"].append(A)
        return stack_rule(A, *args, **kwargs)

    monkeypatch.setattr(matcore, "_psd2_stack", counted_stack_rule)
    assert limit_criterion(presets.faithful_to_pure_family()).verdict == "Contiguous"
    assert len(counted["hermitian"]) == 2 + 2
    rng = np.random.default_rng(31)
    for d in (2, 3, 8):
        rho, sigma = _state(rng, d, d), _state(rng, d, (d + 1) // 2)
        for limits, verdict in (((rho, sigma), "Contiguous"), ((sigma, rho), "NotContiguous")):
            counted["hermitian"].clear()
            seq = StateSequence(eval=lambda n, pair=limits: pair, declared_limits=limits, horizon=50)
            assert limit_criterion(seq).verdict == verdict
            assert [id(A) for A in counted["hermitian"][:2]] == [id(A) for A in limits]
            assert [A.shape for A in counted["hermitian"][2:]] == [(len(seq.sample_grid), d, d)] * 2


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_predicates_on_faithful_pairs_make_no_eigensolve(counted, monkeypatch, d):
    # At d >= 3 both operands are certified full rank by a shifted Cholesky,
    # which answers both predicates; at d = 2 both validations are closed-form.
    certified = []
    certify = matcore._certified_full_rank

    def spy(H, tol):
        certified.append(certify(H, tol))
        return certified[-1]

    monkeypatch.setattr(matcore, "_certified_full_rank", spy)
    rng = np.random.default_rng([d, 1])
    sigma, rho = _state(rng, d, d), _state(rng, d, d)
    assert is_abs_continuous(sigma, rho)
    assert not is_singular(rho, sigma)
    assert counted["eigensolves"] == 0
    assert certified == ([] if d == 2 else [True] * 4)


def test_predicates_take_only_the_excisions_eigenvalues(monkeypatch):
    # With a rho kernel the split diagonalises the excision; the predicates read
    # its eigenvalues alone, so the one eigh is rho's validation (its eigenbasis
    # defines the excision).  Here the full-rank sigma is certified by a
    # shifted Cholesky: it takes no eigensolve as sigma, and as the excised
    # operand its compression onto supp rho needs no spectrum (interlacing);
    # in the reversed pair the rank-5 operand's spectrum is the excision's.
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
    assert sizes == {"eigh": [8, 8], "eigvalsh": [8]}
    sizes["eigh"].clear()
    lebesgue_decompose(sigma, rho)
    assert sizes["eigh"] == [8, 5]  # rho, the geometric mean


def operand_near_cutoff(rng: np.random.Generator, d: int, kind: str, tol, diagonal: bool):
    """A PSD operand with lam_max = 1 whose smallest eigenvalue is set by ``kind``.

    ``"resolved"``: in [0.1, 1]; ``"zero"``: exactly 0; ``"near"``: ``rank_rel``
    times a factor log-uniform in [1/10, 10]; ``"above"``: ``rank_rel`` times a
    factor log-uniform in [10, 1e3]; ``"margin"``: within 1e-3 relative
    of the full-rank certificate's shift ``(rank_rel + c d eps) ||H||_inf``, on
    either side.  With ``diagonal`` the eigenbasis is a permutation, where
    ``||H||_inf = lam_max`` and the certificate's cutoff is tightest.
    """
    U = np.eye(d)[:, rng.permutation(d)] if diagonal else rand_unitary(d, rng)
    w = np.append(rng.uniform(0.1, 1.0, d - 1), 1.0)

    def build():
        A = (U * w) @ U.conj().T
        return (A + A.conj().T) / 2

    if kind == "zero":
        w[0] = 0.0
    elif kind == "near":
        w[0] = tol.rank_rel * 10.0 ** rng.uniform(-1.0, 1.0)
    elif kind == "above":
        w[0] = tol.rank_rel * 10.0 ** rng.uniform(1.0, 3.0)
    elif kind == "margin":
        strict = tol.rank_rel + matcore._CERT_MARGIN * d * np.finfo(float).eps
        w[0] = 0.0
        w[0] = strict * np.abs(build()).sum(axis=1).max() * (1.0 + rng.uniform(-1e-3, 1e-3))
    return build()


OPERAND_KINDS = st.sampled_from(["resolved", "zero", "near", "margin"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=SEEDS, d=st.sampled_from([3, 4, 8]), sigma_kind=OPERAND_KINDS, rho_kind=OPERAND_KINDS,
       profile=st.sampled_from(["default", "strict"]), diagonal=st.booleans())
def test_certified_split_agrees_with_the_eigen_route(seed, d, sigma_kind, rho_kind, profile, diagonal):
    # Whichever route the certificates pick, the split dims are those of the
    # eigen route (no certificate), and the predicates agree with the
    # decomposition: is_singular iff ac = 0, and sigma << rho iff perp = 0.
    # perp is exactly 0 when rho is faithful.  When rho has a kernel and
    # sigma << rho, the part of sigma that the rank rule reads as 0 (at most
    # rank_rel lam_max) still shows in perp = F* sigma F, F = [-E; I] on
    # H2 + H3, as up to rank_rel lam_max (1 + ||E||^2): so that direction is
    # read within eq_rel plus that spill.
    tol = matcore.TOL_PROFILES[profile]
    rng = np.random.default_rng(seed)
    sigma = operand_near_cutoff(rng, d, sigma_kind, tol, diagonal)
    rho = operand_near_cutoff(rng, d, rho_kind, tol, diagonal)
    dec = lebesgue_decompose(sigma, rho, tol)
    forced = lebesgue._decompose(lebesgue._split(sigma, rho, tol, vectors=True, certify=False))
    assert dec.split.dims == forced.split.dims
    assert is_singular(rho, sigma, tol) == (np.trace(dec.ac).real == 0)
    size = np.linalg.norm
    if not is_abs_continuous(sigma, rho, tol):
        assert np.any(dec.perp)
    elif dec.split.dims[2]:
        B2, B3 = dec.split.basis_2, dec.split.basis_3
        E = np.linalg.solve(B2.conj().T @ sigma @ B2, B2.conj().T @ sigma @ B3)
        spill = tol.rank_rel * np.linalg.eigvalsh(sigma)[-1] * (1 + size(E, 2) ** 2)
        assert size(dec.perp) <= tol.eq_rel * (1 + size(sigma)) + spill
    else:
        assert not np.any(dec.perp)


def test_extreme_scale_takes_no_certificate(monkeypatch):
    # Under rank_rel = 1e-30 < d eps the rank rule is decided by eigensolves
    # alone: no Cholesky is attempted, on any operand.
    def refuse(*args, **kwargs):
        raise AssertionError("a Cholesky factorisation ran under extreme-scale")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    tol = matcore.TOL_PROFILES["extreme-scale"]
    for d in (3, 8, 64):
        rng = np.random.default_rng([d, 3])
        sigma, rho = _state(rng, d, d), _state(rng, d, d)
        assert lebesgue_decompose(sigma, rho, tol).split.dims == (0, d, 0)
        assert is_abs_continuous(sigma, rho, tol) and not is_singular(rho, sigma, tol)
