"""Every script in ``demos/``, and the README's Python code, runs to completion
and writes nothing to stderr.

The demos and the README read the public API (fields and parameters included),
so a renamed or deleted name fails here rather than in a reader's terminal.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_clean(argv: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""
    return proc


def test_there_are_four_demos():
    assert [path.name[:3] for path in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_clean(demo):
    assert run_clean([str(demo)]).stdout


def test_readme_python_quick_start_runs_clean():
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    run_clean(["-c", "\n".join(blocks)])
