"""Scale rows for the extendix CLI: one command on one instance well past
the sizes of the test suite, each row in a fresh subprocess under a cap.

    python3 scale/run.py                       # the default rows
    python3 scale/run.py --row random:40:0.4:1 --row c13:200 --cap 120
    python3 scale/run.py --out BENCH_scale.json

A row spec is ``random:N:P:SEED`` (``random_digraph(N, P, seed=SEED)``) or
``c13:N`` (the circulant C_N(1, 3), arcs v -> v+1 and v -> v+3 mod N); the
command is ``analyze`` on the row's ``dg`` file.  The child writes the
file, times ``cli.main`` on it ``REPEATS`` (5) times in one process, and
reports the median, n, m and its peak RSS.  The parent records the child's
wall time beside it.  A row past ``--cap`` seconds is killed and recorded
as timed out, and the run goes on.  The rows, the git SHA ("-dirty" after
it when tracked files differ from HEAD) and the Python version go to
``--out`` (``BENCH_scale.json`` at the root of the checkout by default).
The child imports ``src/extendix`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# analyze on seeded random digraphs at the density of the benchmark's
# dg-connectivity files, where nearly every path ear is read off the masks,
# and on C_n(1, 3), where the start cycle takes n searches
DEFAULT_ROWS = ("random:40:0.4:1", "random:80:0.4:1", "random:160:0.4:1", "c13:200", "c13:400")
# timed calls per row, in one child process; the row reports their median
REPEATS = 5


def parse_row(spec: str) -> dict:
    """The row's family and parameters; ValueError on a malformed spec."""
    family, *params = spec.split(":")
    if family == "random" and len(params) == 3:
        return {"family": family, "n": int(params[0]), "p": float(params[1]),
                "seed": int(params[2])}
    if family == "c13" and len(params) == 1:
        return {"family": family, "n": int(params[0]), "seed": None}
    raise ValueError(f"row {spec!r} is neither random:N:P:SEED nor c13:N")


def _instance(row: dict):
    from extendix import Digraph, random_digraph

    n = row["n"]
    if row["family"] == "random":
        return random_digraph(n, row["p"], seed=row["seed"])
    return Digraph(n, frozenset((v, (v + j) % n) for v in range(n) for j in (1, 3)))


def child(spec: str, work: Path) -> dict:
    """Run in the subprocess: time ``analyze`` on the row's file."""
    import contextlib
    import io
    import resource

    from extendix.cli import main
    from extendix.fileio import write_instance

    row = parse_row(spec)
    d = _instance(row)
    path = work / f"{spec.replace(':', '_')}.dg"
    write_instance(d, path)
    times = []
    for _ in range(REPEATS):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["analyze", str(path)])
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"analyze exited {code}")
    return {**row, "m": d.m, "command": "analyze", "times_s": times,
            "median_s": statistics.median(times),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run_row(spec: str, cap: float, work: Path) -> dict:
    """One row in a fresh interpreter under ``cap`` seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", spec,
            "--work", str(work)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return {"row": spec, **parse_row(spec), "status": "timed out", "cap_s": cap}
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"row": spec, **parse_row(spec), "status": "failed",
                "error": (proc.stderr.strip().splitlines() or [""])[-1], "process_wall_s": wall}
    return {"row": spec, **json.loads(proc.stdout), "status": "ok", "process_wall_s": wall}


def _git_sha() -> str:
    """HEAD's SHA, with "-dirty" when tracked files differ from it."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40",
                               "--exclude=*"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="extendix scale rows")
    parser.add_argument("--row", action="append", help="random:N:P:SEED or c13:N")
    parser.add_argument("--cap", type=float, default=300.0, help="seconds per row")
    parser.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cap <= 0:
        parser.error("--cap must be positive")
    if args.child:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(child(args.child, Path(args.work))))
        return 0
    specs = args.row or list(DEFAULT_ROWS)
    try:
        for spec in specs:
            parse_row(spec)
    except ValueError as exc:
        parser.error(str(exc))
    rows = []
    with tempfile.TemporaryDirectory() as work:
        for spec in specs:
            rows.append(run_row(spec, args.cap, Path(work)))
            row = rows[-1]
            shown = (f"{row['median_s'] * 1e3:.2f} ms median of {REPEATS}"
                     if row["status"] == "ok" else row["status"])
            print(f"{spec}: {shown}", file=sys.stderr)
    result = {"git_sha": _git_sha(), "python": platform.python_version(),
              "repeats": REPEATS, "cap_s": args.cap, "rows": rows}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
