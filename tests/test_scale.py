"""Smoke test of the scale harness, ``scale/run.py``, on two tiny rows."""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "scale" / "run.py"


def _run(tmp_path, *args) -> dict:
    out = tmp_path / "BENCH_scale.json"
    proc = subprocess.run([sys.executable, str(RUN), *args, "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_two_tiny_rows(tmp_path):
    result = _run(tmp_path, "--row", "random:8:0.5:1", "--row", "c13:12", "--cap", "60")
    assert result["python"] == platform.python_version() and result["git_sha"]
    random_row, circulant = result["rows"]
    assert [row["status"] for row in result["rows"]] == ["ok", "ok"]
    assert (random_row["n"], random_row["p"], random_row["seed"]) == (8, 0.5, 1)
    assert (circulant["n"], circulant["m"], circulant["seed"]) == (12, 24, None)
    for row in result["rows"]:
        assert len(row["times_s"]) == 5 and row["median_s"] == sorted(row["times_s"])[2]
        assert (len(row["convert_times_s"]) == 5
                and row["convert_median_s"] == sorted(row["convert_times_s"])[2])
        assert row["peak_rss_kb"] > 0 and row["process_wall_s"] >= row["median_s"]
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCH_scale.json"]


def test_a_row_past_the_cap_is_recorded_and_the_run_goes_on(tmp_path):
    result = _run(tmp_path, "--row", "c13:12", "--row", "c13:13", "--cap", "0.001")
    assert [(row["n"], row["status"]) for row in result["rows"]] == [
        (12, "timed out"), (13, "timed out")]
