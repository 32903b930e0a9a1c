"""CLI reports of the paper's criteria and of generated decompositions, against stored reports.

The README's commands are pinned, the inline ``--spec`` family aside.  The
reports of ``decompose`` (d = 2 and 8, full rank and a kernel on either
side), of the ``limit``, ``pure`` and ``block`` criteria, of ``gaussian`` (on
generated parameter files) and of ``qlan`` must equal the stored ones
exactly.  The Kakutani presets must give the same verdict and report keys,
with every summand within 1e-14 of the stored one (and so every partial sum
up to ``i`` within ``i * 1e-14``): their summands are rounding-level
differences of numbers near 1, and a change of the arithmetic moves them.

Regenerate ``data/cli_reports.json`` only for an intended change of report
contents, with ``PYTHONPATH=src python tests/test_cli_reports.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qleb.cli import main, matrix_document

EXPECTED = Path(__file__).with_name("data") / "cli_reports.json"
SUMMAND_TOL = 1e-14


def _state(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    G = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    A = G @ G.conj().T
    A = (A + A.conj().T) / 2
    return A / np.trace(A).real


def commands(workdir: Path) -> dict[str, list[str]]:
    """The CLI calls whose reports are pinned; decompose inputs are written to ``workdir``."""
    cmds = {
        "block.sec-7.1": ["contiguity", "block", "--preset", "sec-7.1"],
        "block.sec-7.1.grid": ["contiguity", "block", "--preset", "sec-7.1", "--grid", "4,8,16,32"],
        "kakutani.sec-7.2-n": ["contiguity", "kakutani", "--preset", "sec-7.2-n"],
        "kakutani.sec-7.2-sqrt-n": ["contiguity", "kakutani", "--preset", "sec-7.2-sqrt-n"],
    }
    rng = np.random.default_rng(20261018)
    for kind, (sigma_rank, rho_rank) in {"full": (8, 8), "deficient-sigma": (5, 8),
                                         "deficient-rho": (8, 5)}.items():
        paths = []
        for name, rank in (("sigma", sigma_rank), ("rho", rho_rank)):
            path = workdir / f"{name}-{kind}.json"
            path.write_text(json.dumps(matrix_document(_state(rng, 8, rank))), encoding="utf-8")
            paths.append(str(path))
        cmds[f"decompose.d8.{kind}"] = ["decompose", *paths]
    rng = np.random.default_rng([20261018, 2])
    for kind, (sigma_rank, rho_rank) in {"full": (2, 2), "deficient-sigma": (1, 2),
                                         "deficient-rho": (2, 1)}.items():
        paths = []
        for name, rank in (("sigma", sigma_rank), ("rho", rho_rank)):
            path = workdir / f"{name}-d2-{kind}.json"
            path.write_text(json.dumps(matrix_document(_state(rng, 2, rank))), encoding="utf-8")
            paths.append(str(path))
        cmds[f"decompose.d2.{kind}"] = ["decompose", *paths]
    for preset in ("example-4.1", "example-4.3"):
        cmds[f"limit.{preset}"] = ["contiguity", "limit", "--preset", preset]
    cmds["pure.spin-overlap"] = ["contiguity", "pure", "--preset", "spin-overlap",
                                 "--g", "sqrt", "--h", "1,0.5"]
    cmds.update(_gaussian_commands(np.random.default_rng([20261018, 3]), workdir))
    for op in ("sld", "qfi", "expansion"):
        cmds[f"qlan.{op}"] = ["qlan", op, "--model", "spin-pure"]
    cmds["qlan.clt-check"] = ["qlan", "clt-check", "--model", "spin-perturbed:f=cubic",
                              "--h", "1,0.5", "--n", "1e2,1e4,1e6"]
    cmds["qlan.rate-scan"] = ["qlan", "rate-scan", "--f", "cubic", "--g", "sqrt"]
    return cmds


def _gaussian_commands(rng: np.random.Generator, workdir: Path) -> dict[str, list[str]]:
    """``gaussian qcf|shift|sandwich`` on a generated 2-mode parameter set and a 2-vector query."""
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = G @ G.conj().T
    T = (T + T.conj().T) / 2
    docs = {
        "params": {"h": rng.standard_normal(2).tolist(), "J": matrix_document(T[:2, :2])},
        "ext": {"mu": rng.standard_normal(2).tolist(), "Sigma": matrix_document(T[:2, :2]),
                "kappa": [[float(z.real), float(z.imag)] for z in T[:2, 2]],
                "s2": float(T[2, 2].real)},
        "query": {"xis": [rng.standard_normal(2).tolist() for _ in range(2)]},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(workdir / f"gaussian-{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    return {
        "gaussian.qcf": ["gaussian", "qcf", "--params", paths["params"], "--query", paths["query"]],
        "gaussian.shift": ["gaussian", "shift", "--params", paths["ext"]],
        "gaussian.sandwich": ["gaussian", "sandwich", "--params", paths["ext"],
                              "--query", paths["query"]],
    }


def cli_reports(workdir: Path) -> dict[str, dict]:
    """Exit code and parsed report of every pinned command."""
    reports = {}
    for name, argv in commands(workdir).items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        reports[name] = {"exit_code": code, "report": json.loads(out.getvalue())}
    return reports


def _keys(x):
    """The key structure of a parsed report (list lengths included)."""
    if isinstance(x, dict):
        return {k: _keys(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_keys(v) for v in x]
    return None


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return cli_reports(tmp_path_factory.mktemp("cli_reports"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_pinned_commands_are_the_stored_ones(reports, expected):
    assert sorted(reports) == sorted(expected)


EXACT = ["block.sec-7.1", "block.sec-7.1.grid", "decompose.d8.full", "decompose.d8.deficient-sigma",
         "decompose.d8.deficient-rho", "decompose.d2.full", "decompose.d2.deficient-sigma",
         "decompose.d2.deficient-rho", "limit.example-4.1", "limit.example-4.3",
         "pure.spin-overlap", "gaussian.qcf", "gaussian.shift", "gaussian.sandwich", "qlan.sld",
         "qlan.qfi", "qlan.expansion", "qlan.clt-check", "qlan.rate-scan"]


@pytest.mark.parametrize("name", EXACT)
def test_report_matches_exactly(reports, expected, name):
    assert reports[name] == expected[name]


@pytest.mark.parametrize("name", ["kakutani.sec-7.2-n", "kakutani.sec-7.2-sqrt-n"])
def test_kakutani_report_matches_to_summand_rounding(reports, expected, name):
    got, want = reports[name], expected[name]
    assert got["exit_code"] == want["exit_code"] == 0
    assert _keys(got) == _keys(want)
    got, want = got["report"]["values"], want["report"]["values"]
    assert got["verdict"] == want["verdict"]
    for row, ref in zip(got["evidence"], want["evidence"]):
        assert row["i"] == ref["i"]
        assert abs(row["summand"] - ref["summand"]) <= SUMMAND_TOL
        assert abs(row["partial_sum"] - ref["partial_sum"]) <= row["i"] * SUMMAND_TOL


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        EXPECTED.write_text(json.dumps(cli_reports(Path(tmp)), indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    sys.stdout.write(f"wrote {EXPECTED}\n")
