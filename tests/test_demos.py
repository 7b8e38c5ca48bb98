"""The scripts in demos/, each run as README shows, from a plain checkout."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_lists_every_demo():
    listed = re.findall(r"^python3 demos/(\S+\.py)", (ROOT / "README.md").read_text(), re.M)
    assert sorted(listed) == [path.name for path in DEMOS] != []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_and_prints(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
