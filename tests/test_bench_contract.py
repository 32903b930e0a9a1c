"""The benchmark's traced run depends on names and call counts in the library.

``bench/tracer.py`` wraps every binding of the public functions (and
``DensityMatrix.__init__``) and refuses to run if one is missed; the traced
run exits 3 unless one ``sqrt_expansion_check`` makes 24 decompositions and
one spin-overlap ``pure_criterion`` makes 13.  This test runs the same
checks in-process, so a refactor cannot break the benchmark unnoticed.  It
also pins the mechanism of the benchmark's ``clt`` op as a count: one
``lecam3_numeric_check`` on the bench's query grid evaluates each ``n`` in
one stacked closed-form pass.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import qleb
import qleb.cli  # noqa: F401  (the tracer wraps every layer, the CLI included)
from qleb import lebesgue, matcore, presets

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")
DECOMPOSE = "lebesgue.lebesgue_decompose"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer():
    t = _load("bench_tracer", TRACER).Tracer()
    t.install()  # raises if any binding or default argument is left unwrapped
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_wraps_the_density_matrix_constructor():
    assert "__init__" in vars(lebesgue.DensityMatrix)


def test_traced_decomposition_counts(tracer):
    tracer.begin_op("expansion")
    qleb.sqrt_expansion_check(presets.spin_perturbed_model(), np.zeros(2))
    tracer.begin_op("pure")
    qleb.pure_criterion(presets.spin_overlap_family())
    assert tracer.by_kind["expansion"].calls(DECOMPOSE) == 24
    assert tracer.by_kind["pure"].calls(DECOMPOSE) == 13


def test_one_clt_op_makes_one_closed_form_pass_per_n(monkeypatch):
    work = _load("bench_workloads", WORKLOADS)
    stacks = []

    def spy(a, b, c, _expi2=matcore._expi2):
        stacks.append(len(a))
        return _expi2(a, b, c)

    monkeypatch.setattr(matcore, "_expi2", spy)
    grid = work.single_xi_grid()
    qleb.lecam3_numeric_check(presets.spin_perturbed_model(), np.zeros(2), None,
                              np.array(work.SPIN_H), work.CLT_N, grid)
    assert stacks == [len(grid)] * len(work.CLT_N) == [20, 20, 20]  # not 60 calls of one
