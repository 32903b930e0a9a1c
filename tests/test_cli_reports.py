"""CLI reports of the paper's criteria and of generated decompositions, against stored reports.

The sec-7.1 block report and the decompose reports must equal the stored ones
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
    return cmds


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


@pytest.mark.parametrize("name", ["block.sec-7.1", "decompose.d8.full",
                                  "decompose.d8.deficient-sigma", "decompose.d8.deficient-rho"])
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
