"""Every demo script runs to completion and prints something, demo 03 prints
its recorded document, and the README quick start gives the values its
comments state."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


# sha256 of the stdout of demos/03_extremal_search.py, the one script that runs
# classify_extremal_case, find_alphas, sweep_models and the Hamilton check together
EXTREMAL_SEARCH_DEMO_SHA256 = "21ece9529cbd7354598e3bb410d14e716603261781a79bab9434cf04f5800dff"


@pytest.mark.parametrize("seed", ["0", "1"])
def test_extremal_search_demo_matches_the_recorded_digest(seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "03_extremal_search.py")],
        cwd=ROOT, env=env, capture_output=True, timeout=300, check=True,
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == EXTREMAL_SEARCH_DEMO_SHA256


def test_readme_quick_start():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    report, outcome = namespace["report"], namespace["outcome"]
    assert report.verdict is True
    assert report.extremal_class == "MinExtremal"
    assert report.odd_cycle.vertices_in_order == (2, 3, 5, 7, 13)
    assert outcome.case == "b.i" and outcome.verified is True
    psl2 = namespace["model"].factors[0]
    assert (psl2.pi_minus, psl2.pi_plus) == ((3, 7), (5, 13))
