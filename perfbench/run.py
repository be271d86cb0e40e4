"""End-to-end benchmark of the ``extendix`` CLI.

One process per workload, one client in a closed loop: each op is one
``extendix.cli.main(argv)`` call run in-process with stdout captured, and
the next op starts when it returns.  Before every op the library's five
``lru_cache``s are cleared, so each op starts as cold as a fresh process.
Outputs are checked against reference answers computed without the
library (``ref.py``), after the measured phase.

    python3 perfbench/run.py --workload dg-connectivity --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the ops
once untraced and once under the span wrappers of ``tracing.py`` and
prints the per-layer metrics.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 11
CAL_REF_S = 1e-4          # the calibration task's time at the reference speed
OP_CAP_S = 10.0           # per-op time cap; a hit counts as a failed op
TRACE_SHARE = 0.4         # traced run: share of --seconds spent untraced
MIN_OPS = 100             # a run has at least this many ops, so that p90 has
                          # at least 10 samples beyond it
COMMANDS = ("analyze", "convert", "certify", "verify")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that outlives the cap."""


def _alarm(signum, frame):
    raise OpTimeout()


# ---------------------------------------------------------------------------
# host speed
#
# On a shared host the machine's speed drifts by a quarter or more in
# stretches of seconds, and a stretch that outlasts a run moves every
# timing in it.  The library is pure Python, so a fixed pure-Python task
# timed right before and right after an op slows down with it: each time
# is reported at the reference speed, measured x CAL_REF_S / calibration.

_CAL_ADJ = tuple(tuple((7 * v + 11 * i + 3) % 64 for i in range(6)) for v in range(64))


def calibrate() -> float:
    """Seconds for a fixed breadth-first search task, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for s in range(0, 64, 8):
            seen, queue = {s}, [s]
            for v in queue:
                for w in _CAL_ADJ[v]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Op:
    command: str
    argv: list
    file: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Result:
    op: Op
    rc: object
    seconds: float | None          # wall time as measured
    scaled: float | None = None    # the same at the reference speed
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    cert: str | None = None
    failure: str | None = None


# ---------------------------------------------------------------------------
# ops


def _interleave(groups_by_class: list) -> list:
    """Round-robin over classes, so every stretch of the op list carries
    the same mix of work and a run cut anywhere keeps its proportions."""
    out, i = [], 0
    while any(i < len(c) for c in groups_by_class):
        for c in groups_by_class:
            if i < len(c):
                out.append(c[i])
        i += 1
    return out


def _certify_ops(path: str, claim: str, ks, verdict) -> list:
    ops = []
    for k in ks:
        ops.append(Op("certify", ["certify", path, "--claim", claim, "--k", str(k)],
                      expect={"claim": claim, "k": k, "verdict": verdict(k)}))
        ops.append(Op("verify", ["verify"], expect={"claim": claim, "k": k,
                                                    "verdict": verdict(k)}))
    return ops


def file_ops(entry: dict, ref: dict, inst_dir: Path) -> list:
    """The ops one instance file gets, with the answers each must give."""
    path = str(inst_dir / entry["file"])
    kind, family = entry["kind"], entry["family"]

    def convert(direction):
        return Op("convert", ["convert", path, "--direction", direction],
                  expect={"text": ref[direction]})

    analyze = Op("analyze", ["analyze", path],
                 expect={"lines": ref["analyze"], "components": ref["components"], "kind": kind})
    if family == "tiny":
        claim, direction = {"bg": ("k-extendable", "g2d"), "dg": ("k-strong", "d2g"),
                            "mat": ("k-indecomposable", "m2g")}[kind]
        holds = {"bg": lambda: ref["ext"] >= 1, "dg": lambda: ref["kappa"] >= 1,
                 "mat": lambda: 1 in ref["indec"]}[kind]()
        ops = [analyze, convert(direction)] + _certify_ops(path, claim, [1], lambda kk: holds)
    elif kind == "dg":
        k = ref["kappa"]
        ops = [analyze, convert("d2g")] + _certify_ops(
            path, "k-strong", sorted({1, max(k, 1), k + 1}), lambda kk: k >= kk)
    elif family == "neg":
        ops = _certify_ops(path, "k-extendable", [ref["ext"] + 1], lambda kk: False)
        # known at the seed commit: the neighbourhood-audit guard refuses
        # these claims with exit 2, and their verify cannot run
        for op in ops:
            op.expect["known_failure"] = "exit 2," if op.command == "certify" else "certify-failed"
    elif family == "dense":
        ops = [analyze]
    elif kind == "bg":
        ext = ref["ext"]
        ops = [analyze, convert("g2d"), convert("g2m")] + _certify_ops(
            path, "k-extendable", sorted({1, ext + 1}), lambda kk: ext >= kk)
    else:
        indec, irred = set(ref["indec"]), set(ref["irred"])
        ops = ([analyze, convert("m2g")]
               + _certify_ops(path, "k-indecomposable", [1, 2], lambda kk: kk in indec)
               + _certify_ops(path, "k-irreducible", [1, 2], lambda kk: kk in irred))
    for op in ops:
        op.file = entry["file"]
    return ops


def search_ops() -> list:
    return [Op("search", ["search", "--target", target, "--n-max", str(n_max),
                          "--k", str(k), "--limit", "1000000"],
               expect={"target": target, "k": k, "found": found})
            for target, n_max, k, found in gen.SEARCHES]


def build_pass(workload: str, pass_set: list, refs: dict, inst_dir: Path) -> list:
    """The ops of one pass over one pass set, classes interleaved."""
    classes = [[file_ops(e, refs[e["file"]], inst_dir) for e in cls] for cls in pass_set]
    groups = _interleave(classes)
    if workload == "small-sweep":
        # the exhaustive sweeps spread evenly between the tiny files
        searches = [[op] for op in search_ops()]
        step = -(-len(groups) // len(searches))
        groups = [g for i, s in enumerate(searches)
                  for g in groups[i * step:(i + 1) * step] + [s]]
    return [op for g in groups for op in g]


# ---------------------------------------------------------------------------
# running


class Runner:
    def __init__(self, work: Path, cap: float = OP_CAP_S):
        import extendix
        import extendix.cli
        import extendix.core
        import extendix.matching

        if not Path(extendix.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"extendix imported from {extendix.__file__}, not {ROOT / 'src'}")
        signal.signal(signal.SIGALRM, _alarm)
        self.cli = extendix.cli
        self.caches = {name: getattr(getattr(extendix, name.split(".")[0]), name.split(".")[1])
                       for name in tracing.CACHES}
        self.cert_dir = work / "certs"
        self.cert_dir.mkdir(parents=True, exist_ok=True)
        self.cap = cap
        self.cal = calibrate()
        self.outputs: dict = {}  # one copy of each distinct output text
        self.count = 0
        self.last_cert: Result | None = None
        self.cache_stats = {name: [0, 0] for name in tracing.CACHES}

    def call(self, argv: list):
        """One CLI call: (rc, seconds, scaled seconds, stdout, stderr, error)."""
        for c in self.caches.values():
            c.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.cap)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            error = f"timeout after {self.cap:g} s"
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught exception is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        for name, c in self.caches.items():
            info = c.cache_info()
            self.cache_stats[name][0] += info.hits
            self.cache_stats[name][1] += info.misses
        after = calibrate()
        scaled = seconds * CAL_REF_S / ((self.cal + after) / 2)
        self.cal = after
        # repeated ops give equal texts: keep one, so that retained output
        # does not grow with the number of passes
        stdout, stderr = (self.outputs.setdefault(t, t) for t in (out.getvalue(), err.getvalue()))
        return rc, seconds, scaled, stdout, stderr, error

    def run(self, op: Op) -> Result:
        self.count += 1
        argv, cert = list(op.argv), None
        if op.command == "certify":
            cert = str(self.cert_dir / f"{self.count}.cert")
            argv += ["--out", cert]
        elif op.command == "verify":
            prev = self.last_cert
            if prev is None or prev.rc not in (0, 1) or prev.error:
                return Result(op, None, None, failure="certify-failed: verify not run")
            argv.append(prev.cert)
        rc, seconds, scaled, out, err, error = self.call(argv)
        result = Result(op, rc, seconds, scaled, out, err, error, cert)
        if op.command == "certify":
            self.last_cert = result
        return result


def run_passes(runner: Runner, passes: list, seconds: float) -> tuple:
    """Whole passes, cycling through the pass sets, until ``seconds`` have
    passed and MIN_OPS ops have run: (ops in order, results, wall time).
    Whole passes keep the mix of ops the same in every run."""
    ops, results, i = [], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(ops) < MIN_OPS:
        batch = passes[i % len(passes)]
        i += 1
        ops += batch
        results += [runner.run(op) for op in batch]
    return ops, results, time.perf_counter() - start


def replay(runner: Runner, ops: list, before_op) -> list:
    """The same ops again, in the same order, calling ``before_op(i)``
    before op i."""
    results = []
    for i, op in enumerate(ops):
        before_op(i)
        results.append(runner.run(op))
    return results


# ---------------------------------------------------------------------------
# checking


def _lines_by_key(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _check_analyze(res: Result) -> str | None:
    exp = res.op.expect
    got = _lines_by_key(res.stdout)
    for key, value in exp["lines"].items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)!r}, expected {value!r}"
    comps = [ln for ln in res.stdout.splitlines() if ln.startswith("component ")]
    if exp["kind"] == "dg":
        comps = sorted(ln.partition(": ")[2] for ln in comps)
    if exp["kind"] != "mat" and comps != exp["components"]:
        return "component lines differ from the reference"
    return None


def _check_search(res: Result) -> str | None:
    import ref as refmod  # networkx stays out of the process until the checks

    exp = res.op.expect
    lines = res.stdout.splitlines()
    got = _lines_by_key(res.stdout)
    if got.get("found") != str(exp["found"]):
        return f"found: got {got.get('found')!r}, expected {exp['found']}"
    blocks, i = [], 0
    while i < len(lines):
        if lines[i].startswith(("instance ", "graph ")) and lines[i].endswith(":"):
            end = lines.index("end-instance", i)
            blocks.append("\n".join(lines[i + 1:end]) + "\n")
            i = end
        i += 1
    k = exp["k"]
    if exp["target"] == "minimal_k_strong":
        bad = [b for b in blocks if not refmod.is_minimal_k_strong(*refmod.parse(b)[1:], k)]
    elif exp["target"] == "minimal_k_extendable":
        bad = [b for b in blocks
               if not refmod.is_minimal_k_extendable(*refmod.parse(b)[1:], k)]
    else:
        edges = [ln.split()[-1] for ln in lines if ln.startswith("deletable-matching-edge")]
        bad = []
        for d_text, g_text, edge in zip(blocks[0::2], blocks[1::2], edges):
            _, n, arcs = refmod.parse(d_text)
            _, _, g_edges = refmod.parse(g_text)
            a, b = (int(x) - 1 for x in edge.split("-"))
            rest = [e for e in g_edges if e != (a, b)]
            if (not refmod.is_minimal_k_strong(n, arcs, k) or a != b
                    or g_text != gen.format_pairs("bg", n, set(arcs) | {(v, v) for v in range(n)})
                    or not refmod.is_k_extendable(n, rest, k)):
                bad.append(d_text)
        if len(edges) != len(blocks) // 2:
            return "hit count and deletable-edge lines disagree"
    listed = blocks[0::2] if exp["target"] == "minimality_counterexample" else blocks
    if len(listed) != exp["found"]:
        return "instance blocks do not match the found count"
    if len(set(listed)) != len(listed):
        return "duplicate instances listed"
    return f"{len(bad)} listed instances fail the definition" if bad else None


def check(res: Result) -> str | None:
    """None when the op answered as the reference says; else the cause."""
    if res.failure:
        return res.failure
    if res.error:
        return ("timeout: " if res.error.startswith("timeout") else "exception: ") + res.error
    exp, cmd = res.op.expect, res.op.command
    if cmd == "convert" and exp["text"] is None:
        want_rc = 2
    elif cmd == "certify":
        want_rc = 0 if exp["verdict"] else 1
    else:
        want_rc = 0
    if res.rc != want_rc:
        first = (res.stderr.strip().splitlines() or [""])[0]
        return f"exit {res.rc}, expected {want_rc}: {first}"
    if cmd == "analyze":
        return _check_analyze(res)
    if cmd == "convert":
        if exp["text"] is not None and res.stdout != exp["text"]:
            return "converted instance differs from the reference"
        return None
    if cmd == "search":
        return _check_search(res)
    word = "holds" if exp["verdict"] else "fails"
    if cmd == "certify":
        if res.stdout != f"{word}: {exp['claim']} k={exp['k']}; certificate written to {res.cert}\n":
            return f"certify reported {res.stdout.strip()!r}"
        with open(res.cert, encoding="utf-8") as fh:
            if f"\nverdict: {word}\n" not in fh.read():
                return "certificate file carries the wrong verdict"
        return None
    if res.stdout != f"certificate verified: {exp['claim']} k={exp['k']} {word}\n":
        return f"verify reported {res.stdout.strip()!r}"
    return None


def unexpected(res: Result, cause: str | None) -> bool:
    """A failure other than the known one listed for the op."""
    known = res.op.expect.get("known_failure")
    return cause is not None and not (known and cause.startswith(known))


def check_all(results: list) -> list:
    """Failure cause per result; identical outputs are checked once."""
    seen: dict = {}
    out = []
    for r in results:
        key = (r.op.file, tuple(r.op.argv), r.op.expect.get("k"), r.op.expect.get("verdict"),
               r.rc, r.stdout, r.error, r.failure)
        if r.op.command == "certify" or key not in seen:
            seen[key] = check(r)
        out.append(seen[key])
    return out


# ---------------------------------------------------------------------------
# metrics


def _p(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(results: list, causes: list, setup_s: float, peak_kb: int) -> dict:
    """Metrics over ops, every time at the reference speed."""
    ran = [(r.op.command, r.scaled * 1000) for r in results if r.scaled is not None]
    lat = [ms for _, ms in ran]
    ok = sum(c is None for c in causes)
    m = {"ops_per_s": (ok / (sum(lat) / 1000), "op/s"),
         "latency_p50_ms": (_p(lat, 0.5), "ms"),
         "latency_p90_ms": (_p(lat, 0.9), "ms")}
    for cmd in COMMANDS:
        vals = [ms for c, ms in ran if c == cmd]
        m[f"{cmd}_p50_ms"] = (statistics.median(vals) if vals else 0.0, "ms")
    m["ok_share"] = (ok / len(results), "ratio")
    m["setup_s"] = (setup_s, "s")
    m["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return m


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, inst_dir: Path) -> float:
    """Run the set-up step SETUP_REPEATS times; the median wall time at the
    reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inst_dir, ignore_errors=True)
        before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", workload,
                               "--seed", str(seed), "--out", str(inst_dir)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        seconds = time.perf_counter() - t0
        times.append(seconds * CAL_REF_S / ((before + calibrate()) / 2))
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed: {proc.stderr.strip()}")
    return statistics.median(times)


def references(inst_dir: Path) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "ref.py"), str(inst_dir)],
                          cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"reference computation failed: {proc.stderr.strip()}")
    return json.loads((inst_dir / "reference.json").read_text(encoding="utf-8"))


def environment(seed: int) -> dict:
    """What a result needs to be compared: commit, interpreter, CPUs, seed."""
    sha = "unknown"  # also when the checkout is not a git work tree of its own
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed}


def _metric_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def summarize(results: list, causes: list) -> dict:
    by_cmd: dict = {}
    for r, c in zip(results, causes):
        slot = by_cmd.setdefault(r.op.command, [0, 0])
        slot[0] += 1
        slot[1] += c is not None
    failures: dict = {}
    for r, c in zip(results, causes):
        if c is not None:
            key = f"{r.op.command} {r.op.file or ' '.join(r.op.argv[1:])}: {c}"
            failures[key] = failures.get(key, 0) + 1
    return {"ops_by_command": {k: {"attempted": a, "failed": f}
                               for k, (a, f) in sorted(by_cmd.items())},
            "failures": failures}


def traced_metrics(runner: Runner, passes: list, seconds: float, out_path: Path) -> tuple:
    """Untraced passes for TRACE_SHARE of the time, then the same ops traced."""
    ops, plain, _ = run_passes(runner, passes, seconds * TRACE_SHARE)
    runner.cache_stats = {name: [0, 0] for name in tracing.CACHES}
    tracer = tracing.Tracer()
    spans = tracer.spans

    def before_op(i):
        spans.op, spans.stack[:] = i, []

    tracer.install()
    try:
        traced = replay(runner, ops, before_op)
    finally:
        tracer.uninstall()
    m = {name: (value, "s" if name.endswith("_s") else
                "ratio" if name.endswith("share") else "count")
         for name, value in tracing.layer_metrics(spans).items()}
    for name, (hits, misses) in runner.cache_stats.items():
        m[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        m[f"{name}.misses"] = (misses, "count")
    m["trace.overhead_ratio"] = (sum(r.scaled or 0.0 for r in traced)
                                 / sum(r.scaled or 0.0 for r in plain), "ratio")
    # an op's wall time is that of its cli.main call, redirection included
    op_walls = [r.seconds or 0.0 for r in traced]
    sums = tracing.op_self_sums(spans)
    gaps = [w - sums.get(i, 0.0) for i, w in enumerate(op_walls)]
    m["trace.unattributed_share"] = (sum(gaps) / sum(op_walls), "ratio")
    spans.write(out_path)
    extra = {"traced_ops": len(ops), "spans": len(spans), "spans_file": str(out_path),
             "max_op_unattributed_ms": 1000 * max(gaps) if gaps else 0.0}
    return plain + traced, m, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="extendix CLI benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "extendix" / "__init__.py").is_file():
        print(f"error: no extendix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    inst_dir = work / "instances"
    try:
        setup_s = setup(args.workload, args.seed, inst_dir)
        manifest = json.loads((inst_dir / "manifest.json").read_text(encoding="utf-8"))
        refs = references(inst_dir)
        passes = [build_pass(args.workload, ps, refs, inst_dir) for ps in manifest]
        runner = Runner(work)
        if args.trace:
            results, metrics, extra = traced_metrics(
                runner, passes, args.seconds,
                ROOT / ".perfbench_work" / f"trace-{args.workload}.tsv")
            causes = check_all(results)
        else:
            _, results, wall = run_passes(runner, passes, args.seconds)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            causes = check_all(results)
            metrics = end_to_end(results, causes, setup_s, peak_kb)
            timed = [r for r in results if r.seconds is not None]
            extra = {"wall_s": wall, "latency_samples": len(timed),
                     # measured time / time at the reference speed, over all ops
                     "host_slowdown": sum(r.seconds for r in timed) / sum(r.scaled for r in timed)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = {"workload": args.workload, **environment(args.seed), "ops_per_pass": len(passes[0]),
            **extra, **summarize(results, causes)}
    print("info: " + json.dumps(info, sort_keys=True))
    wrong = [c for r, c in zip(results, causes) if unexpected(r, c)]
    print(json.dumps({"correct": not wrong, "attempted": len(results),
                      "failed": sum(c is not None for c in causes),
                      "metrics": _metric_json(metrics)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
