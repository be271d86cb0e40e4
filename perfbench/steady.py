"""Steadiness check: run one workload N times and compare each end-to-end
metric's quartile spread with its bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload dg-connectivity --runs 10
    python3 perfbench/steady.py --workload dg-connectivity --runs 10 --save a.json
    python3 perfbench/steady.py --workload dg-connectivity --runs 10 --against a.json

Each run gets its own seed (``--seed0``, ``--seed0 + 1``, ...).  The spread
of a metric is (Q3 - Q1) / median of its values, with the quartiles of
``statistics.quantiles(values, n=4)``.  With ``--against`` the medians are
also compared with an earlier saved set: a metric fails when it got worse
by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr.strip()}")
    return json.loads(lines[-1])


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--save", help="write the runs' results to this JSON file")
    parser.add_argument("--against", help="compare medians with a file from --save")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = []
    for i in range(args.runs):
        results.append(run_once(args.workload, args.seed0 + i, spec["run_seconds"]))
        print(f"run {i + 1}/{args.runs} seed {args.seed0 + i}: "
              f"attempted {results[-1]['attempted']} failed {results[-1]['failed']} "
              f"correct {results[-1]['correct']}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results), encoding="utf-8")
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None
    ok = all(r["correct"] for r in results)
    print(f"{'metric':16s} {'unit':6s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in results])
        verdict = "steady" if sp < bound / 3 else "within bound" if sp <= bound else "TOO WIDE"
        ok &= verdict != "TOO WIDE"
        if earlier is not None:
            before = statistics.median(r["metrics"][name]["value"] for r in earlier)
            worse = ((med - before) if m["better"] == "lower" else (before - med)) / before \
                if before else 0.0
            verdict += f"; vs earlier {worse:+.3f}" + (" WORSE" if worse > bound else "")
            ok &= worse <= bound
        print(f"{name:16s} {m['unit']:6s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
              f"{sp:7.3f} {bound:6.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
