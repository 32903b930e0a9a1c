import numpy as np
import pytest

from qleb import (
    ExtendedGaussianParams,
    GaussianParams,
    gaussian_qcf,
    lecam_shift,
    sandwiched_gaussian_qcf,
    validate,
)
from qleb.errors import InvalidParams

from oracles import classical_gaussian_cf, mp_gaussian_qcf

SPIN_J = np.array([[1, -1j], [1j, 1]])


def rand_extended(d: int, rng: np.random.Generator) -> ExtendedGaussianParams:
    G = rng.standard_normal((d + 1, d + 1)) + 1j * rng.standard_normal((d + 1, d + 1))
    T = (G @ G.conj().T + (G @ G.conj().T).conj().T) / 2
    return ExtendedGaussianParams(
        mu=rng.standard_normal(d), Sigma=T[:d, :d], kappa=T[:d, d], s2=float(T[d, d].real)
    )


def test_validate_examples():
    assert validate(GaussianParams(h=np.zeros(2), J=SPIN_J))
    assert not validate(GaussianParams(h=np.zeros(2), J=np.array([[1, -2j], [2j, 1]])))
    assert validate(GaussianParams(h=np.zeros(3), J=np.eye(3)))


def test_validate_shape_mismatch():
    assert not validate(GaussianParams(h=np.zeros(3), J=np.eye(2)))


def test_a_nan_covariance_is_invalid_params():
    # validate once raised ValidationError on a NaN, where it answers False for
    # other invalid covariances.
    nan = float("nan")
    assert validate(GaussianParams(h=[0.0], J=[[nan]])) is False
    with pytest.raises(InvalidParams):
        gaussian_qcf(GaussianParams(h=[0.0], J=[[nan]]), [[1.0]])
    good = dict(mu=[0.0, 0.0], Sigma=np.eye(2), kappa=[0.1, 0.2], s2=1.0)
    for field, value in (("Sigma", [[1.0, nan], [nan, 1.0]]), ("kappa", [nan, 0.2]), ("s2", nan)):
        ext = ExtendedGaussianParams(**dict(good, **{field: value}))
        for call in (lambda: lecam_shift(ext), lambda: sandwiched_gaussian_qcf(ext, [[0.5, 0.5]])):
            with pytest.raises(InvalidParams):
                call()
    assert sandwiched_gaussian_qcf(ExtendedGaussianParams(**good), [[0.5, 0.5]]) is not None


def test_qcf_single_real_query_matches_classical():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        V = rng.standard_normal((d, d))
        V = V @ V.T + 0.5 * np.eye(d)
        S = rng.standard_normal((d, d))
        S = S - S.T
        # scale the skew part down until J = V + iS is PSD
        while np.linalg.eigvalsh(V + 1j * S).min() < 0:
            S = S / 2
        h = rng.standard_normal(d)
        params = GaussianParams(h=h, J=V + 1j * S)
        xi = rng.standard_normal(d)
        got = gaussian_qcf(params, [xi])
        assert got == pytest.approx(classical_gaussian_cf(h, V, xi), abs=1e-12)


def test_qcf_inverse_pair_is_one():
    rng = np.random.default_rng(1)
    ext = rand_extended(2, rng)
    params = GaussianParams(h=rng.standard_normal(3), J=ext.enlarged().J)
    xi = rng.standard_normal(3)
    assert gaussian_qcf(params, [xi, -xi]) == pytest.approx(1.0, abs=1e-12)


def test_qcf_spin_covariance_value():
    got = gaussian_qcf(GaussianParams(h=np.zeros(2), J=SPIN_J), [np.array([1.0, 0.0])])
    assert got == pytest.approx(np.exp(-0.5), abs=1e-15)


def test_qcf_rejects_invalid_params():
    with pytest.raises(InvalidParams):
        gaussian_qcf(GaussianParams(h=np.zeros(2), J=np.array([[1, -2j], [2j, 1]])), [np.zeros(2)])


def test_qcf_hermitian_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        ext = rand_extended(d, rng)
        params = GaussianParams(h=rng.standard_normal(d + 1), J=ext.enlarged().J)
        r = int(rng.integers(1, 4))
        xis = [rng.standard_normal(d + 1) for _ in range(r)]
        forward = gaussian_qcf(params, xis)
        backward = gaussian_qcf(params, [-x for x in reversed(xis)])
        assert np.conj(forward) == pytest.approx(backward, abs=1e-12)


def test_qcf_modulus_bounded_by_one():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        ext = rand_extended(d, rng)
        params = GaussianParams(h=rng.standard_normal(d + 1), J=ext.enlarged().J)
        r = int(rng.integers(1, 5))
        xis = [rng.standard_normal(d + 1) for _ in range(r)]
        assert abs(gaussian_qcf(params, xis)) <= 1.0 + 1e-12


def test_qcf_classical_reduction_product_rule():
    # With no skew part all exponentials commute: an ordered product collapses
    # to the characteristic function of the summed frequency.
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        V = rng.standard_normal((d, d))
        V = V @ V.T + 0.3 * np.eye(d)
        h = rng.standard_normal(d)
        params = GaussianParams(h=h, J=V.astype(complex))
        r = int(rng.integers(1, 4))
        xis = [rng.standard_normal(d) for _ in range(r)]
        got = gaussian_qcf(params, xis)
        want = classical_gaussian_cf(h, V, np.sum(xis, axis=0))
        assert got == pytest.approx(want, rel=1e-12)


def test_query_validation():
    # A query once went through a public QcfQuery class, which refused an empty
    # query; an empty query is now the empty product, as in finite_qcf and the sandwich.
    params = GaussianParams(h=np.zeros(2), J=SPIN_J)
    assert gaussian_qcf(params, []) == 1
    with pytest.raises(InvalidParams):
        gaussian_qcf(params, [np.zeros(2), np.zeros(3)])


def test_a_query_of_the_wrong_dimension_is_refused():
    params = GaussianParams(h=np.zeros(2), J=SPIN_J)
    ext = rand_extended(2, np.random.default_rng(11))
    for call in (lambda: gaussian_qcf(params, [np.zeros(3)]),
                 lambda: sandwiched_gaussian_qcf(ext, [np.zeros(3), np.ones(3)])):
        with pytest.raises(InvalidParams, match=r"^query vectors have 3 entries, but the parameters have dimension 2$"):
            call()


def test_the_closed_form_against_a_40_digit_evaluation():
    # One stacked evaluation (suffix sums) in place of the loop over ordered pairs;
    # 600 real queries, then 200 complex ones (analytic continuation).
    rng = np.random.default_rng(20261022)
    errors = []
    for i in range(800):
        d, r = (int(k) for k in rng.integers(1, 4, size=2))
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        params = GaussianParams(h=rng.standard_normal(d), J=(G @ G.conj().T + (G @ G.conj().T).conj().T) / 2)
        xis = [rng.standard_normal(d) + (1j * rng.standard_normal(d) if i >= 600 else 0) for _ in range(r)]
        want = mp_gaussian_qcf(params.h, params.J, xis)
        errors.append(abs(gaussian_qcf(params, xis) - want) / abs(want))
    assert max(errors) <= 5e-14


def test_lecam_shift_examples():
    rng = np.random.default_rng(5)
    ext = rand_extended(3, rng)
    zero_kappa = ExtendedGaussianParams(mu=ext.mu, Sigma=ext.Sigma, kappa=np.zeros(3), s2=ext.s2)
    # kappa = 0 needs no PSD repair: the block diag(Sigma, s2) stays PSD
    shifted = lecam_shift(zero_kappa)
    assert np.allclose(shifted.h, ext.mu)
    assert np.allclose(shifted.J, ext.Sigma)

    shifted = lecam_shift(ext)
    assert np.allclose(shifted.h, ext.mu + ext.kappa.real)
    assert np.allclose(shifted.J, ext.Sigma)


def test_lecam_shift_qlan_case():
    # mu = 0, kappa = tau h: the limit mean is (Re tau) h
    rng = np.random.default_rng(6)
    ext = rand_extended(2, rng)
    tau = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = rng.standard_normal(2)
    kappa = tau @ h
    # project into a valid parameter set by reusing Sigma from a valid draw
    sigma_big = ext.enlarged().J[:2, :2] + 5 * np.eye(2)
    schur = float((kappa.conj() @ np.linalg.solve(sigma_big, kappa)).real)
    candidate = ExtendedGaussianParams(
        mu=np.zeros(2), Sigma=sigma_big, kappa=kappa, s2=schur + 0.1,
    )
    shifted = lecam_shift(candidate)
    assert np.allclose(shifted.h, (tau @ h).real)


def test_sandwich_empty_product_is_one():
    rng = np.random.default_rng(7)
    ext = rand_extended(2, rng)
    assert sandwiched_gaussian_qcf(ext, None) == pytest.approx(1.0, abs=1e-12)
    assert sandwiched_gaussian_qcf(ext, []) == pytest.approx(1.0, abs=1e-12)


def test_sandwich_equals_shifted_qcf():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        ext = rand_extended(d, rng)
        r = int(rng.integers(1, 4))
        xis = [rng.standard_normal(d) for _ in range(r)]
        lhs = sandwiched_gaussian_qcf(ext, xis)
        rhs = gaussian_qcf(lecam_shift(ext), xis)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10


def test_sandwich_spin_specialization():
    # kappa = J h with s2 = h' (Re J) h sits on the PSD boundary and reproduces
    # the shifted state N(h, J) exactly
    h = np.array([1.0, 0.5])
    ext = ExtendedGaussianParams(
        mu=np.zeros(2), Sigma=SPIN_J, kappa=SPIN_J @ h, s2=float(h @ SPIN_J.real @ h)
    )
    lecam_shift(ext)  # valid: no InvalidParams
    params = GaussianParams(h=h, J=SPIN_J)
    for xi in [np.array([1.0, 0.0]), np.array([0.3, -1.2])]:
        lhs = sandwiched_gaussian_qcf(ext, [xi])
        rhs = gaussian_qcf(params, [xi])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sandwich_rejects_complex_queries():
    rng = np.random.default_rng(9)
    ext = rand_extended(2, rng)
    with pytest.raises(InvalidParams):
        sandwiched_gaussian_qcf(ext, [np.array([1.0 + 1j, 0.0])])


def test_degenerate_s2_zero_allowed():
    # s2 = 0 forces kappa = 0 (PSD block); the sandwich reduces to the plain qcf
    rng = np.random.default_rng(10)
    G = rng.standard_normal((2, 2))
    Sigma = (G @ G.T).astype(complex)
    ext = ExtendedGaussianParams(mu=np.array([0.3, -0.2]), Sigma=Sigma,
                                 kappa=np.zeros(2), s2=0.0)
    lecam_shift(ext)  # valid: no InvalidParams
    with pytest.raises(InvalidParams):
        lecam_shift(ExtendedGaussianParams(mu=ext.mu, Sigma=Sigma, kappa=np.ones(2), s2=0.0))
    xi = np.array([0.4, 0.7])
    lhs = sandwiched_gaussian_qcf(ext, [xi])
    rhs = gaussian_qcf(GaussianParams(h=ext.mu, J=Sigma), [xi])
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sandwich_builds_and_validates_the_enlarged_covariance_once(monkeypatch, tmp_path):
    # The library call and `qleb gaussian sandwich` (whose reference value is
    # the shifted law's, on the enlarged covariance's principal block) each
    # build the enlarged parameters once and validate their covariance once.
    import contextlib
    import io
    import json

    from qleb import cli, gaussian

    validated, built = [], []
    spectrum, enlarged = gaussian.psd_spectrum, ExtendedGaussianParams.enlarged
    monkeypatch.setattr(gaussian, "psd_spectrum",
                        lambda J, *args, **kwargs: validated.append(J.shape) or spectrum(J, *args, **kwargs))
    monkeypatch.setattr(ExtendedGaussianParams, "enlarged", lambda self: built.append(self) or enlarged(self))
    ext = rand_extended(2, np.random.default_rng(9))
    xis = [[0.3, -0.2], [0.1, 0.4]]
    value = sandwiched_gaussian_qcf(ext, xis)
    assert validated == [(3, 3)] and len(built) == 1
    validated.clear(), built.clear()
    docs = {"params": {"mu": ext.mu.tolist(), "Sigma": cli.matrix_document(ext.Sigma),
                       "kappa": [[z.real, z.imag] for z in ext.kappa.tolist()], "s2": ext.s2},
            "query": {"xis": xis}}
    paths = []
    for name, doc in docs.items():
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["gaussian", "sandwich", "--params", paths[0], "--query", paths[1]]) == 0
    assert validated == [(3, 3)] and len(built) == 1
    values = json.loads(out.getvalue())["values"]
    assert values["agrees"] is True and complex(*values["value"]) == value
    assert complex(*values["shift_qcf"]) == gaussian_qcf(lecam_shift(ext), xis)


def test_invalid_params_name_the_field_and_the_entry():
    # InvalidParams once said only "failed validation"; it now carries the
    # covariance check's message, naming J or the enlarged covariance.
    with pytest.raises(InvalidParams, match=r"^J has a non-finite entry \[0\]\[0\]"):
        gaussian_qcf(GaussianParams(h=[0.0], J=[[np.nan]]), [[1.0]])
    nan_s2 = ExtendedGaussianParams(mu=[0, 0], Sigma=np.eye(2), kappa=[0.1, 0.2], s2=np.nan)
    for call in (lambda: lecam_shift(nan_s2), lambda: sandwiched_gaussian_qcf(nan_s2, [[1.0, 0.0]])):
        with pytest.raises(InvalidParams, match=r"^enlarged covariance \[\[Sigma, kappa\], \[kappa\*, s2\]\] "
                                                r"has a non-finite entry \[2\]\[2\]"):
            call()
    with pytest.raises(InvalidParams, match=r"^J is not Hermitian: entry \[0\]\[1\]"):
        gaussian_qcf(GaussianParams(h=[0.0, 0.0], J=[[1, 0.5], [0, 1]]), [[1.0, 0.0]])
    with pytest.raises(InvalidParams, match="^enlarged covariance .* has eigenvalue"):
        lecam_shift(ExtendedGaussianParams(mu=[0, 0], Sigma=np.eye(2), kappa=[0.1, 0.2], s2=-1.0))
    with pytest.raises(InvalidParams, match=r"^J has shape \(1, 1\), but the mean has 2 entries"):
        gaussian_qcf(GaussianParams(h=[0.0, 0.0], J=[[1.0]]), [[1.0, 0.0]])
    with pytest.raises(InvalidParams, match=r"^Sigma of shape \(3, 3\) and kappa of 2 entries"):
        lecam_shift(ExtendedGaussianParams(mu=[0, 0], Sigma=np.eye(3), kappa=[0.1, 0.2], s2=1.0))
    assert validate(GaussianParams(h=[0.0], J=[[np.nan]])) is False
