"""CLI reports of the paper's criteria and of generated decompositions, against stored reports.

The README's commands are pinned, and ``kakutani --spec`` on an
``iid-product`` pair at d = 2 and 3.  The
reports of ``decompose`` (d = 2 and 8, full rank and a kernel on either
side), of the ``limit``, ``pure`` and ``block`` criteria, of ``gaussian`` (on
generated parameter files) and of ``qlan`` must equal the stored ones
exactly.  The Kakutani reports must give the same verdict and report keys,
with every summand within 1e-14 of the stored one (and so every partial sum
up to ``i`` within ``i * 1e-14``): their summands are rounding-level
differences of numbers near 1, and a change of the arithmetic moves them.

Regenerate an entry of ``data/cli_reports.json`` only for an intended change
of its report contents, by naming it:
``PYTHONPATH=src python tests/test_cli_reports.py KEY...`` rewrites the named
entries alone (and adds a newly pinned one), and exits 2, writing nothing, on
a key that names no pinned command.  With no key it writes nothing: it lists
the entries whose regenerated report differs from the stored one, each with
the report keys added and removed, the values changed that are not numbers,
and the largest absolute change of any number, so that a regeneration never
rewrites an entry by the way (the Kakutani reports move in their last bits
whenever the summand arithmetic does).
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
    rng = np.random.default_rng([20261018, 4])
    for d in (2, 3):
        path = workdir / f"iid-product-d{d}.json"
        path.write_text(json.dumps({"kind": "iid-product",
                                    "rho": matrix_document(_state(rng, d, d)),
                                    "sigma": matrix_document(_state(rng, d, d))}), encoding="utf-8")
        cmds[f"kakutani.iid-product.d{d}"] = ["contiguity", "kakutani", "--spec", str(path)]
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


def cli_reports(workdir: Path, names=None) -> dict[str, dict]:
    """Exit code and parsed report of every pinned command, or of the commands ``names``."""
    reports = {}
    for name, argv in commands(workdir).items():
        if names is not None and name not in names:
            continue
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


@pytest.mark.parametrize("name", ["kakutani.sec-7.2-n", "kakutani.sec-7.2-sqrt-n",
                                  "kakutani.iid-product.d2", "kakutani.iid-product.d3"])
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


_MISSING = object()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _changes(new, old, path: str, out: dict) -> None:
    """Collect into ``out`` the paths ``new`` adds to or removes from ``old``, the paths of changed
    values that are not both numbers, and the largest absolute change of a number in both."""
    if isinstance(new, dict) and isinstance(old, dict):
        items = [(new.get(k, _MISSING), old.get(k, _MISSING), f"{path}.{k}" if path else k)
                 for k in sorted(new.keys() | old.keys())]
    elif isinstance(new, list) and isinstance(old, list):
        items = [(new[i] if i < len(new) else _MISSING, old[i] if i < len(old) else _MISSING, f"{path}[{i}]")
                 for i in range(max(len(new), len(old)))]
    elif _is_number(new) and _is_number(old):
        out["change"] = max(out["change"], abs(new - old))
        return
    else:
        if new != old:
            out["changed"].append(path)
        return
    for a, b, p in items:
        if b is _MISSING:
            out["added"].append(p)
        elif a is _MISSING:
            out["removed"].append(p)
        else:
            _changes(a, b, p, out)


def describe_change(new: dict, old: dict) -> str:
    """How the regenerated entry ``new`` differs from the stored entry ``old``, on one line."""
    out = {"added": [], "removed": [], "changed": [], "change": 0.0}
    _changes(new.get("report"), old.get("report"), "", out)
    parts = [f"{', '.join(out[what])} {what}" for what in ("removed", "added", "changed") if out[what]]
    if new.get("exit_code") != old.get("exit_code"):
        parts.append(f"exit code {old.get('exit_code')} -> {new.get('exit_code')}")
    return "; ".join(parts + [f"largest numeric change {out['change']:.3g}"])


def regenerate(keys: list[str], path: Path = EXPECTED) -> int:
    """Rewrite the stored reports ``keys`` in ``path``; with no key, list those that differ and how.

    Returns the exit code: 2, with nothing written, when a key names no
    pinned command.
    """
    stored = json.loads(path.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        pinned = commands(Path(tmp))
        if unknown := [k for k in keys if k not in pinned]:
            sys.stderr.write(f"unknown key(s): {', '.join(unknown)}; pinned: {', '.join(sorted(pinned))}\n")
            return 2
        reports = cli_reports(Path(tmp), set(keys) if keys else None)
    if not keys:
        for name in sorted(set(reports) | set(stored)):
            if name not in reports:
                sys.stdout.write(f"{name} stored but not pinned\n")
            elif name not in stored:
                sys.stdout.write(f"{name} pinned but not stored\n")
            elif reports[name] != stored[name]:
                sys.stdout.write(f"{name} {describe_change(reports[name], stored[name])}\n")
        return 0
    stored.update(reports)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {', '.join(keys)} to {path}\n")
    return 0


def test_regeneration_rewrites_only_the_named_entries(tmp_path, expected, capsys):
    path = tmp_path / "cli_reports.json"
    stored = dict(expected, **{"pure.spin-overlap": {"exit_code": 0, "report": {}}})
    path.write_text(json.dumps(stored), encoding="utf-8")
    before = path.read_bytes()
    assert regenerate(["pure.spin-overlap", "no.such-entry"], path) == 2
    assert path.read_bytes() == before
    assert "no.such-entry" in capsys.readouterr().err
    assert regenerate([], path) == 0
    assert path.read_bytes() == before
    listed = capsys.readouterr().out.split()
    assert "pure.spin-overlap" in listed and "limit.example-4.1" not in listed
    assert regenerate(["pure.spin-overlap"], path) == 0
    assert json.loads(path.read_text(encoding="utf-8")) == expected


def test_a_listed_entry_says_what_moved():
    old = {"exit_code": 0, "report": {"values": {"details": {"gone": None, "p": 1.5}, "rows": [1, 2],
                                                 "verdict": "Contiguous"}}}
    new = {"exit_code": 0, "report": {"values": {"details": {"p": 1.25}, "rows": [1, 2, 3],
                                                 "verdict": "Contiguous"}}}
    assert describe_change(new, old) == ("values.details.gone removed; values.rows[2] added; "
                                         "largest numeric change 0.25")
    new["report"]["values"]["verdict"], new["exit_code"] = "NotContiguous", 2
    assert describe_change(new, old) == ("values.details.gone removed; values.rows[2] added; values.verdict changed; "
                                         "exit code 0 -> 2; largest numeric change 0.25")


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
