import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qleb
from qleb import ProductFamily, kakutani_criterion
from qleb.cli import _contiguity_input, complex_pair, main, matrix_document, parse_matrix_document
from qleb.matcore import DEFAULT_TOL, ToleranceConfig
from qleb.presets import faithful_to_pure_pair, faithful_to_pure_sqrt_lr

from util import rand_density

SPIN_J = np.array([[1, -1j], [1j, 1]])


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_values(out: str) -> dict:
    return json.loads(out)["values"]


@pytest.fixture
def pair_files(tmp_path):
    rho, sigma = faithful_to_pure_pair(5)
    sigma_path = write_json(tmp_path / "sigma.json", matrix_document(sigma, "sigma"))
    rho_path = write_json(tmp_path / "rho.json", matrix_document(rho, "rho"))
    return sigma_path, rho_path


def test_matrix_document_roundtrip_bit_for_bit():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = (G + G.conj().T) / 2
    doc = matrix_document(A)
    back = parse_matrix_document(json.loads(json.dumps(doc)))
    assert np.array_equal(back, A)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_matrix_document_writes_the_entries_pair_by_pair(d):
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A.flat[::3] = complex(-0.0, 0.0)
    A.flat[1::2] = complex(1e-310, -0.0)
    for M in (A, A.real):
        want = [[complex_pair(z) for z in row] for row in M]  # the per-entry reference
        assert json.dumps(matrix_document(M)["entries"]) == json.dumps(want)


def test_decompose_known_family(pair_files, capsys):
    sigma_path, rho_path = pair_files
    code, out, _ = run(capsys, ["decompose", sigma_path, rho_path])
    assert code == 0
    values = report_values(out)
    got = parse_matrix_document(values["sqrt_lr"])
    assert np.linalg.norm(got - faithful_to_pure_sqrt_lr(5)) < 1e-10
    # emitted matrices re-serialize bit-for-bit after one load/store cycle
    assert matrix_document(got, "sqrt_likelihood_ratio") == values["sqrt_lr"]
    assert values["split_dims"] == [0, 2, 0]
    assert values["checks"]["singularity"] is False
    assert values["checks"]["ac_predicate"] is True
    assert values["checks"]["reconstruction"] < 1e-8


def test_decompose_equal_states_gives_projector(tmp_path, capsys):
    rho = np.diag([0.6, 0.4]).astype(complex)
    p = write_json(tmp_path / "state.json", matrix_document(rho))
    code, out, _ = run(capsys, ["decompose", p, p])
    assert code == 0
    values = report_values(out)
    R = parse_matrix_document(values["sqrt_lr"])
    assert np.linalg.norm(R - np.eye(2)) < 1e-8
    assert np.linalg.norm(parse_matrix_document(values["perp"])) < 1e-10


def test_decompose_rejects_non_hermitian(tmp_path, capsys):
    bad = {"dim": 2, "entries": [[[1, 0], [0.5, 0]], [[0.3, 0], [0, 0]]]}
    bad_path = write_json(tmp_path / "bad.json", bad)
    rho, _ = faithful_to_pure_pair(3)
    rho_path = write_json(tmp_path / "rho.json", matrix_document(rho))
    code, out, err = run(capsys, ["decompose", bad_path, rho_path])
    assert code == 2
    assert out == ""
    assert bad_path in err and "entry [0][1]" in err


def test_hermiticity_check_follows_tolerance_settings(tmp_path, capsys, monkeypatch):
    # A relative asymmetry of ~1e-9 is outside the default hermitian tolerance
    # (1e-10) and inside a looser one set by flag; the strict profile is tighter.
    rho = np.diag([0.6, 0.4]).astype(complex)
    rho[0, 1], rho[1, 0] = 2e-9, 0.0
    p = write_json(tmp_path / "skew.json", matrix_document(rho))
    code, out, err = run(capsys, ["decompose", p, p])
    assert code == 2 and out == "" and "not Hermitian" in err
    code, out, _ = run(capsys, ["decompose", p, p, "--tol-hermitian", "1e-8"])
    assert code == 0
    assert json.loads(out)["tolerances"]["hermitian"] == 1e-8
    rho[0, 1] = 2e-11
    p = write_json(tmp_path / "slight.json", matrix_document(rho))
    code, _, _ = run(capsys, ["decompose", p, p])
    assert code == 0
    monkeypatch.setenv("QLEB_TOL_PROFILE", "strict")
    code, out, err = run(capsys, ["decompose", p, p])
    assert code == 2 and out == "" and "not Hermitian" in err


def test_decompose_rejects_bad_trace(tmp_path, capsys):
    p = write_json(tmp_path / "m.json", matrix_document(np.eye(2)))
    code, _, err = run(capsys, ["decompose", p, p])
    assert code == 2


def test_decompose_subnormalized_flag(tmp_path, capsys):
    half = np.diag([0.3, 0.2]).astype(complex)
    p = write_json(tmp_path / "half.json", matrix_document(half))
    code, _, _ = run(capsys, ["decompose", p, p])
    assert code == 2  # trace 0.5 rejected without the flag
    code, out, _ = run(capsys, ["decompose", p, p, "--subnormalized"])
    assert code == 0
    R = parse_matrix_document(report_values(out)["sqrt_lr"])
    assert np.linalg.norm(R - np.eye(2)) < 1e-8


def test_reports_are_deterministic(pair_files, capsys):
    sigma_path, rho_path = pair_files
    _, out1, _ = run(capsys, ["decompose", sigma_path, rho_path])
    _, out2, _ = run(capsys, ["decompose", sigma_path, rho_path])
    assert out1 == out2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["decompose", "/nonexistent/a.json", "/nonexistent/b.json"])
    assert code == 2


def test_contiguity_kakutani_presets(capsys):
    code, out, _ = run(capsys, ["contiguity", "kakutani", "--preset", "sec-7.2-n"])
    assert code == 0
    values = report_values(out)
    assert values["verdict"] == "Contiguous"
    assert 1.8 <= values["details"]["fitted_exponent"] <= 2.2

    code, out, _ = run(capsys, ["contiguity", "kakutani", "--preset", "sec-7.2-sqrt-n"])
    assert code == 0
    values = report_values(out)
    assert values["verdict"] == "NotContiguous"
    assert 0.8 <= values["details"]["fitted_exponent"] <= 1.2


@pytest.mark.parametrize("d", [2, 3])
def test_contiguity_kakutani_iid_product_spec(tmp_path, capsys, d):
    rng = np.random.default_rng([d, 11])
    rho, sigma = rand_density(d, rng), rand_density(d, rng)
    spec = write_json(tmp_path / "spec.json", {
        "kind": "iid-product",
        "rho": matrix_document(rho, "rho"),
        "sigma": matrix_document(sigma, "sigma"),
    })
    fam, _ = _contiguity_input(argparse.Namespace(preset=None, spec=spec, horizon=None, grid=None),
                               DEFAULT_TOL)
    # Both operands are shared by every factor: one matrix each, no copy per factor.
    shared = fam.stack(np.arange(1, 10**4 + 1))
    assert [x.shape for x in shared] == [(d, d), (d, d)]
    assert all(x is y for x, y in zip(shared, fam.factors(1)))
    code, out, _ = run(capsys, ["contiguity", "kakutani", "--spec", spec])
    assert code == 0
    # The shared operands give the factors' report, bit for bit.
    want = kakutani_criterion(ProductFamily(factors=fam.factors))
    assert report_values(out)["evidence"] == want.evidence
    assert report_values(out)["details"] == want.details


def test_contiguity_kakutani_iid_product_of_mismatched_shapes(tmp_path, capsys):
    spec = write_json(tmp_path / "spec.json", {
        "kind": "iid-product",
        "rho": matrix_document(np.eye(2) / 2, "rho"),
        "sigma": matrix_document(np.eye(3) / 3, "sigma"),
    })
    code, out, err = run(capsys, ["contiguity", "kakutani", "--spec", spec])
    assert code == 2
    assert out == ""
    assert "factor 1: operand shapes differ" in err


def test_contiguity_limit_presets(capsys):
    code, out, _ = run(capsys, ["contiguity", "limit", "--preset", "example-4.1"])
    assert code == 0 and report_values(out)["verdict"] == "Contiguous"
    code, out, _ = run(capsys, ["contiguity", "limit", "--preset", "example-4.3"])
    assert code == 0 and report_values(out)["verdict"] == "NotContiguous"


def test_contiguity_limit_constant_spec(tmp_path, capsys):
    rho = np.diag([0.7, 0.3]).astype(complex)
    spec = {"kind": "constant-pair", "rho": matrix_document(rho),
            "sigma": matrix_document(rho), "horizon": 50}
    spec_path = write_json(tmp_path / "family.json", spec)
    code, out, _ = run(capsys, ["contiguity", "limit", "--spec", spec_path])
    assert code == 0
    assert report_values(out)["verdict"] == "Contiguous"


def test_contiguity_spec_digest_hashes_the_document_not_its_path(tmp_path, capsys):
    def report(path, sigma):
        spec = {"kind": "constant-pair", "rho": matrix_document(np.diag([1.0, 0.0])),
                "sigma": matrix_document(sigma), "horizon": 50}
        code, out, _ = run(capsys, ["contiguity", "limit", "--spec", write_json(path, spec)])
        assert code == 0
        return json.loads(out)

    one = report(tmp_path / "family.json", np.diag([1.0, 0.0]))
    other = report(tmp_path / "family.json", np.diag([0.5, 0.5]))  # same path, new document
    assert (one["values"]["verdict"], other["values"]["verdict"]) == ("Contiguous", "NotContiguous")
    assert one["inputs_digest"] != other["inputs_digest"]
    moved = report(tmp_path / "moved.json", np.diag([1.0, 0.0]))  # same document, new path
    assert moved == one


def test_contiguity_pure_spin_overlap(capsys):
    code, out, _ = run(capsys, [
        "contiguity", "pure", "--preset", "spin-overlap", "--g", "sqrt", "--h", "1,0.5",
    ])
    assert code == 0 and report_values(out)["verdict"] == "Contiguous"
    code, out, _ = run(capsys, [
        "contiguity", "pure", "--preset", "spin-overlap", "--g", "quarter", "--h", "1,0.5",
    ])
    assert code == 0 and report_values(out)["verdict"] == "NotContiguous"


def test_contiguity_block_preset(capsys):
    code, out, _ = run(capsys, [
        "contiguity", "block", "--preset", "sec-7.1", "--grid", "4,8,16,32,64,128,256,512,1024",
    ])
    assert code == 0
    values = report_values(out)
    assert values["verdict"] == "Contiguous"


def test_contiguity_pure_rejects_a_decreasing_grid(capsys):
    argv = ["contiguity", "pure", "--preset", "spin-overlap", "--g", "quarter", "--h", "1,0.5"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and report_values(out)["verdict"] == "NotContiguous"
    code, out, err = run(capsys, argv + ["--grid", "1000000,1000,10,1"])
    assert code == 2 and out == "" and "strictly increasing" in err


@pytest.mark.parametrize("grid", ["8,4", "0,4", "4,4"])
def test_contiguity_block_rejects_a_bad_grid(grid, capsys):
    # "0,4" once ended in a ZeroDivisionError traceback, "8,4" only after
    # every block had been evaluated.
    code, out, err = run(capsys, ["contiguity", "block", "--preset", "sec-7.1", "--grid", grid])
    assert code == 2 and out == "" and err.startswith("error: grid must")


def test_contiguity_unknown_preset_exits_2(capsys):
    code, _, err = run(capsys, ["contiguity", "kakutani", "--preset", "sec-9.9"])
    assert code == 2 and "unknown preset" in err


def test_contiguity_takes_exactly_one_of_preset_and_spec(tmp_path, capsys, monkeypatch):
    def refuse(path):
        raise AssertionError(f"spec {path} was opened")

    monkeypatch.setattr(qleb.cli, "load_json", refuse)
    spec = write_json(tmp_path / "bad.json", {"kind": "constant-pair"})
    code, out, err = run(capsys, ["contiguity", "limit", "--preset", "example-4.1", "--spec", spec])
    assert code == 2 and out == "" and "not allowed with" in err
    code, out, err = run(capsys, ["contiguity", "limit"])
    assert code == 2 and out == "" and "--preset --spec is required" in err


def test_contiguity_wrong_family_kind_exits_2(capsys):
    code, _, err = run(capsys, ["contiguity", "kakutani", "--preset", "example-4.1"])
    assert code == 2


def test_gaussian_qcf_spin_value(tmp_path, capsys):
    params = {"h": [0.0, 0.0], "J": matrix_document(SPIN_J)}
    query = {"xis": [[1.0, 0.0]]}
    code, out, _ = run(capsys, [
        "gaussian", "qcf",
        "--params", write_json(tmp_path / "p.json", params),
        "--query", write_json(tmp_path / "q.json", query),
    ])
    assert code == 0
    value = report_values(out)["value"]
    assert value[0] == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert value[1] == pytest.approx(0.0, abs=1e-15)


def test_gaussian_shift_zero_kappa(tmp_path, capsys):
    params = {"mu": [0.2, -0.1], "Sigma": matrix_document(np.eye(2)),
              "kappa": [[0.0, 0.0], [0.0, 0.0]], "s2": 1.0}
    code, out, _ = run(capsys, [
        "gaussian", "shift", "--params", write_json(tmp_path / "p.json", params),
    ])
    assert code == 0
    assert report_values(out)["h"] == [0.2, -0.1]


def test_gaussian_sandwich_agreement_flag(tmp_path, capsys):
    h = np.array([1.0, 0.5])
    kappa = SPIN_J @ h
    params = {
        "mu": [0.0, 0.0], "Sigma": matrix_document(SPIN_J),
        "kappa": [[kappa[0].real, kappa[0].imag], [kappa[1].real, kappa[1].imag]],
        "s2": float(h @ SPIN_J.real @ h),
    }
    query = {"xis": [[0.4, -0.7]]}
    code, out, _ = run(capsys, [
        "gaussian", "sandwich",
        "--params", write_json(tmp_path / "p.json", params),
        "--query", write_json(tmp_path / "q.json", query),
    ])
    assert code == 0
    assert report_values(out)["agrees"] is True


def test_gaussian_invalid_params_exit_2(tmp_path, capsys):
    params = {"h": [0.0, 0.0], "J": matrix_document(np.array([[1, -2j], [2j, 1]]))}
    query = {"xis": [[1.0, 0.0]]}
    code, _, err = run(capsys, [
        "gaussian", "qcf",
        "--params", write_json(tmp_path / "p.json", params),
        "--query", write_json(tmp_path / "q.json", query),
    ])
    assert code == 2


def test_qlan_qfi_spin(capsys):
    code, out, _ = run(capsys, ["qlan", "qfi", "--model", "spin-pure"])
    assert code == 0
    J = parse_matrix_document(report_values(out)["qfi"])
    assert np.linalg.norm(J - SPIN_J) <= 1e-12


def test_qlan_sld_spin(capsys):
    code, out, _ = run(capsys, ["qlan", "sld", "--model", "spin-pure"])
    assert code == 0
    mats = [parse_matrix_document(doc) for doc in report_values(out)["slds"]]
    assert np.array_equal(mats[0], np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(mats[1], np.array([[0, -1j], [1j, 0]]))


def test_qlan_clt_check(capsys):
    code, out, _ = run(capsys, [
        "qlan", "clt-check", "--model", "spin-pure", "--h", "1,0.5", "--n", "1e2,1e4,1e6",
    ])
    assert code == 0
    values = report_values(out)
    assert values["decreasing"] is True
    assert values["deviations"][-1]["max_deviation"] <= 1e-3
    assert values["limit_mean"] == [1.0, 0.5]


def test_qlan_clt_check_has_one_query_grid(capsys):
    # The query count is fixed, so one inputs digest names one set of values.
    code, out, err = run(capsys, ["qlan", "clt-check", "--xi-count", "5"])
    assert code == 2 and out == "" and "--xi-count" in err


def test_qlan_clt_check_perturbed_model(capsys):
    code, out, _ = run(capsys, [
        "qlan", "clt-check", "--model", "spin-perturbed:f=cubic",
        "--h", "1,0.5", "--n", "1e2,1e4,1e6",
    ])
    assert code == 0
    values = report_values(out)
    assert values["decreasing"] is True
    assert values["deviations"][-1]["max_deviation"] <= 1e-3


def test_qlan_expansion(capsys):
    code, out, _ = run(capsys, ["qlan", "expansion", "--model", "spin-pure"])
    assert code == 0
    values = report_values(out)
    assert values["rel_error"] <= 1e-4
    assert values["trr2_exact"] is True


def test_qlan_rate_scan(capsys):
    code, out, _ = run(capsys, ["qlan", "rate-scan", "--f", "cubic", "--g", "sqrt"])
    assert code == 0
    assert report_values(out)["verdict"] == "Contiguous"
    code, out, _ = run(capsys, ["qlan", "rate-scan", "--f", "quadratic", "--g", "sqrt"])
    assert code == 0
    assert report_values(out)["verdict"] == "NotContiguous"


@pytest.mark.parametrize("grid, match", [
    ("100,10,1", "grid must be non-empty and strictly increasing"),
    ("1,10,10", "grid must be non-empty and strictly increasing"),
    ("0,5,10", r"grid must lie within \[1, horizon\]"),
])
def test_qlan_rate_scan_refuses_a_bad_grid(capsys, grid, match):
    # A decreasing grid once gave a NotContiguous report, and n = 0 a ZeroDivisionError traceback.
    code, out, err = run(capsys, ["qlan", "rate-scan", "--grid", grid])
    assert code == 2
    assert out == ""
    assert re.search(f"^error: {match}", err)


def test_qlan_unknown_model_exits_2(capsys):
    code, _, err = run(capsys, ["qlan", "qfi", "--model", "no-such-model"])
    assert code == 2 and "unknown model" in err


def _half_spec(path, **fields) -> str:
    half = matrix_document(np.eye(2) / 2)
    return write_json(path, {"kind": "constant-pair", "rho": half, "sigma": half, **fields})


@pytest.mark.parametrize("argv", [
    ["contiguity", "kakutani", "--preset", "sec-7.2-n", "--horizon", "inf"],
    ["contiguity", "kakutani", "--preset", "sec-7.2-n", "--horizon", "1e400"],
    ["contiguity", "limit", "--preset", "example-4.1", "--horizon", "2.5"],
    ["qlan", "clt-check", "--n", "inf"],
    ["contiguity", "block", "--preset", "sec-7.1", "--grid", "4,8.5"],
    ["qlan", "rate-scan", "--grid", "1,1e400"],
])
def test_a_count_that_is_not_a_finite_whole_number_exits_2(capsys, argv):
    # inf and 1e400 once ended in an OverflowError traceback with exit 1,
    # and --horizon 2.5 ran the horizon 2.
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("horizon", ["1e400", "Infinity", "2.5", '"ten"', "true"])
def test_a_spec_horizon_that_is_not_a_finite_whole_number_exits_2(tmp_path, capsys, horizon):
    spec = _half_spec(tmp_path / "spec.json", horizon=0)
    Path(spec).write_text(Path(spec).read_text().replace('"horizon": 0', f'"horizon": {horizon}'))
    code, out, err = run(capsys, ["contiguity", "limit", "--spec", spec])
    assert code == 2 and out == "" and err.startswith("error: expected a whole number")


@pytest.mark.parametrize("argv", [
    ["contiguity", "kakutani", "--preset", "sec-7.2-n"],
    ["contiguity", "limit", "--preset", "example-4.1"],
    ["contiguity", "pure", "--preset", "spin-overlap"],
])
def test_horizon_0_is_refused_not_read_as_absent(capsys, argv):
    # --horizon 0 once ran the default horizon (10^4 or 10^6) and exited 0.
    code, out, err = run(capsys, argv + ["--horizon", "0"])
    assert code == 2 and out == "" and err == "error: horizon must be >= 1\n"


def test_counts_take_e_notation_everywhere(tmp_path, capsys):
    # --horizon and --n took 1e6 while --grid took plain integers only.
    for plain, scientific in [
        (["contiguity", "block", "--preset", "sec-7.1", "--grid", "4,8,16,32"],
         ["contiguity", "block", "--preset", "sec-7.1", "--grid", "4,8,1.6e1,3.2E1"]),
        (["contiguity", "limit", "--preset", "example-4.1", "--horizon", "1000", "--grid", "1,10,100"],
         ["contiguity", "limit", "--preset", "example-4.1", "--horizon", "1e3", "--grid", "1,1e1,1e2"]),
        (["contiguity", "limit", "--spec", _half_spec(tmp_path / "int.json", horizon=100)],
         ["contiguity", "limit", "--spec", _half_spec(tmp_path / "float.json", horizon=1e2)]),
        (["qlan", "clt-check", "--n", "100,10000"], ["qlan", "clt-check", "--n", "1e2,1e4"]),
    ]:
        code, want, _ = run(capsys, plain)
        assert code == 0
        code, got, _ = run(capsys, scientific)
        assert code == 0 and report_values(got) == report_values(want)


@pytest.mark.parametrize("argv", [
    ["contiguity", "block", "--preset", "sec-7.1"],
    ["contiguity", "limit", "--preset", "example-4.1"],
    ["qlan", "rate-scan"],
    ["qlan", "clt-check"],
])
def test_a_grid_that_names_no_count_is_no_grid(capsys, argv):
    # "--grid ," once gave default_grid(512) for sec-7.1 instead of the preset's grid,
    # and 13 rate-scan rows instead of 15.
    flag = "--n" if argv[1] == "clt-check" else "--grid"
    code, want, _ = run(capsys, argv)
    assert code == 0
    code, got, _ = run(capsys, argv + [flag, ","])
    assert code == 0 and report_values(got) == report_values(want)


@pytest.mark.parametrize("argv", [
    ["qlan", "sld", "--theta", "0.1"],
    ["qlan", "qfi", "--theta", "0.1,0.2,0.3"],
    ["qlan", "expansion", "--model", "spin-perturbed:f=cubic", "--theta", "0.1,0.2,0.3"],
    ["contiguity", "pure", "--preset", "spin-overlap", "--h", "1"],
])
def test_the_spin_models_take_exactly_two_parameters(capsys, argv):
    # One parameter once ended in an IndexError traceback, and three gave a 3x3 QFI.
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert re.match(r"error: the spin model takes 2 parameters, got an array of shape \((1|3),\)\n$",
                    err)


def test_clt_check_refuses_a_shift_of_the_wrong_length(capsys):
    # --h 1 once exited 2 with numpy's matmul message.
    code, out, err = run(capsys, ["qlan", "clt-check", "--h", "1"])
    assert code == 2 and out == ""
    assert err == "error: h has 1 entries, but the model has 2 parameters\n"


def test_tolerance_flags_override(pair_files, capsys):
    sigma_path, rho_path = pair_files
    code, out, _ = run(capsys, [
        "decompose", sigma_path, rho_path, "--tol-rank-rel", "1e-14",
    ])
    assert code == 0
    assert json.loads(out)["tolerances"]["rank_rel"] == 1e-14


def test_tolerance_profile_env(pair_files, capsys, monkeypatch):
    sigma_path, rho_path = pair_files
    monkeypatch.setenv("QLEB_TOL_PROFILE", "extreme-scale")
    code, out, _ = run(capsys, ["decompose", sigma_path, rho_path])
    assert code == 0
    assert json.loads(out)["tolerances"]["rank_rel"] == 1e-30
    monkeypatch.setenv("QLEB_TOL_PROFILE", "no-such-profile")
    code, _, err = run(capsys, ["decompose", sigma_path, rho_path])
    assert code == 2


def test_the_tolerance_surface_is_one_list(pair_files, tmp_path, capsys):
    # ToleranceConfig's fields, each subcommand's --tol-* flags, a report's
    # tolerances and the README's Tolerances paragraph name the same four.
    fields = sorted(f.name for f in dataclasses.fields(ToleranceConfig))
    assert fields == ["eq_rel", "hermitian", "psd_floor", "rank_rel"]
    params = write_json(tmp_path / "params.json", {"h": [0.1, 0.2], "J": matrix_document(SPIN_J)})
    query = write_json(tmp_path / "query.json", {"xis": [[0.3, -0.1]]})
    argvs = {"decompose": ["decompose", *pair_files],
             "contiguity": ["contiguity", "limit", "--preset", "example-4.1"],
             "gaussian": ["gaussian", "qcf", "--params", params, "--query", query],
             "qlan": ["qlan", "sld"]}
    for command, argv in argvs.items():
        code, out, _ = run(capsys, argv)
        assert code == 0 and sorted(json.loads(out)["tolerances"]) == fields, command
        code, out, _ = run(capsys, [command, "--help"])
        assert code == 0
        flags = dict.fromkeys(re.findall(r"--tol-([a-z-]+)", out))
        assert sorted(flag.replace("-", "_") for flag in flags) == fields, command
        for name in ("recon", "ortho"):
            code, out, err = run(capsys, argv + [f"--tol-{name}", "1e-3"])
            assert code == 2 and out == "", command
            assert f"unrecognized arguments: --tol-{name}" in err, command
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"^\*\*Tolerances\*\*.*?\n\n", readme, re.M | re.S).group()
    assert sorted(f.replace("-", "_") for f in re.findall(r"--tol-([a-z-]+)", paragraph)) == fields
    with pytest.raises(TypeError):
        ToleranceConfig(recon=1e-12)
    with pytest.raises(TypeError):
        ToleranceConfig(ortho=1e-12)


def test_output_file_and_pretty(pair_files, tmp_path, capsys):
    sigma_path, rho_path = pair_files
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "decompose", sigma_path, rho_path, "--output", "pretty", "--out", str(out_file),
    ])
    assert code == 0
    on_disk = out_file.read_text(encoding="utf-8")
    assert on_disk == out
    assert json.loads(on_disk)["command"] == "decompose"


def test_exit_code_contract_numeric_failure(tmp_path, capsys):
    # force a numeric check failure by making eq_rel absurdly small
    rho, sigma = faithful_to_pure_pair(5)
    sigma_path = write_json(tmp_path / "s.json", matrix_document(sigma))
    rho_path = write_json(tmp_path / "r.json", matrix_document(rho))
    code, out, err = run(capsys, [
        "decompose", sigma_path, rho_path, "--tol-eq-rel", "1e-30",
    ])
    assert code == 3
    assert "numeric check failed" in err
    # the report is still emitted, with the offending residual inside
    assert "reconstruction" in out


def test_exit_code_contract_numeric_failure_inside_the_library(tmp_path, capsys, monkeypatch):
    # Orthogonal pure states: under a 1e-30 rank cutoff lebesgue_decompose
    # refuses the split it cannot resolve, and no report is written.
    v, w = np.array([np.cos(0.3), np.sin(0.3)]), np.array([-np.sin(0.3), np.cos(0.3)])
    sigma_path = write_json(tmp_path / "s.json", matrix_document(np.outer(v, v)))
    rho_path = write_json(tmp_path / "r.json", matrix_document(np.outer(w, w)))
    monkeypatch.setenv("QLEB_TOL_PROFILE", "extreme-scale")
    code, out, err = run(capsys, ["decompose", sigma_path, rho_path])
    assert code == 3
    assert out == ""
    assert err.startswith("numeric check failed: decomposition unresolved")


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("operand", ["sigma", "rho"])
def test_decompose_rejects_non_finite_entries(tmp_path, capsys, bad, operand):
    half = matrix_document(np.eye(2) / 2)
    broken = matrix_document(np.eye(2) / 2)
    broken["entries"][1][1] = [bad, 0.0]
    paths = {"sigma": write_json(tmp_path / "sigma.json", half),
             "rho": write_json(tmp_path / "rho.json", half)}
    paths[operand] = write_json(tmp_path / f"{operand}-bad.json", broken)
    code, out, err = run(capsys, ["decompose", paths["sigma"], paths["rho"]])
    assert code == 2
    assert out == ""
    assert paths[operand] in err and "non-finite entry [1][1]" in err


@pytest.mark.parametrize("flags", [[], ["-W", "error"]])
def test_decompose_on_an_infinite_entry_writes_no_warning(tmp_path, flags):
    half = matrix_document(np.eye(2) / 2)
    broken = matrix_document(np.eye(2) / 2)
    broken["entries"][0][1] = broken["entries"][1][0] = [float("inf"), 0.0]
    paths = [write_json(tmp_path / "half.json", half), write_json(tmp_path / "inf.json", broken)]
    env = {**os.environ, "PYTHONPATH": str(Path(qleb.__file__).parents[1])}
    proc = subprocess.run([sys.executable, *flags, "-m", "qleb.cli", "decompose", *paths],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "non-finite entry [0][1]" in proc.stderr
    assert "Warning" not in proc.stderr
