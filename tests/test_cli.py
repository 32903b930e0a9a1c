import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qleb
from qleb import ProductFamily, kakutani_criterion
from qleb.cli import _contiguity_input, main, matrix_document, parse_matrix_document
from qleb.matcore import DEFAULT_TOL
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
    fam = _contiguity_input(argparse.Namespace(preset=None, spec=spec, horizon=None, grid=None),
                            DEFAULT_TOL)
    stacked = fam.stack(np.arange(1, 10**4 + 1))
    assert stacked.shape == (10**4, 2, d, d) and not stacked.flags.writeable
    code, out, _ = run(capsys, ["contiguity", "kakutani", "--spec", spec])
    assert code == 0
    # The broadcast stack gives the factors' report, bit for bit.
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


def test_contiguity_unknown_preset_exits_2(capsys):
    code, _, err = run(capsys, ["contiguity", "kakutani", "--preset", "sec-9.9"])
    assert code == 2 and "unknown preset" in err


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


def test_qlan_unknown_model_exits_2(capsys):
    code, _, err = run(capsys, ["qlan", "qfi", "--model", "no-such-model"])
    assert code == 2 and "unknown model" in err


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
