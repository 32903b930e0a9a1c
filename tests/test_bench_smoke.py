"""Smoke-run the benchmark: every op of each workload runs and passes its checks.

``bench/run.py`` checks each output outside its timed intervals
(decomposition residuals at ``eq_rel``, closed-form ratios and summands,
pinned verdicts), so a short run puts those checks into the test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["small-calls", "large-spectra"])
def test_benchmark_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
