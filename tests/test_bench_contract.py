"""The benchmark's traced run depends on names and call counts in the library.

``bench/tracer.py`` wraps every binding of the public functions (and
``DensityMatrix.__init__``) and refuses to run if one is missed; the traced
run exits 3 unless one ``sqrt_expansion_check`` makes 24 decompositions and
one spin-overlap ``pure_criterion`` makes 13.  This test runs the same
checks in-process, so a refactor cannot break the benchmark unnoticed.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qleb
import qleb.cli  # noqa: F401  (the tracer wraps every layer, the CLI included)
from qleb import lebesgue, presets

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
DECOMPOSE = "lebesgue.lebesgue_decompose"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    t = module.Tracer()
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
