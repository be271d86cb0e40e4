"""Every demo script prints exactly what ``tests/golden/demo-<name>.out``
holds.

Regenerate (only when an output change is intended) with
``PYTHONPATH=src python tests/test_demos.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_demo_has_a_golden():
    assert len(DEMOS) == 7
    assert sorted(p.name for p in GOLDEN.glob("demo-*.out")) == \
        [f"demo-{d.stem}.out" for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output(demo):
    assert _run(demo) == (GOLDEN / f"demo-{demo.stem}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    for demo in DEMOS:
        (GOLDEN / f"demo-{demo.stem}.out").write_text(_run(demo), encoding="utf-8")
