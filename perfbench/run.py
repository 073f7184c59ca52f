"""End-to-end and per-layer benchmark of powersde's Monte Carlo pipeline.

    python3 perfbench/run.py [--workload {converge,timechange,boundary}]
                             [--seed N] [--seconds S] [--trace {0,1}]

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One client runs the workload's operations back to back (a
closed loop) through ``powersde.cli.main`` in this process, each with
``--workers 2``.  The seed reaches the program only through the generated
INI configs.  Every operation's output is checked: exit code, the semantic
test of the acceptance criterion it mirrors, exact equality with the pinned
outputs in ``pins.json`` where that seed is pinned, and exact equality with
the first pass of the same run.

--trace 0 (end-to-end; the metrics of BENCHMARK.json's ``end_to_end``):
    setup_s      median over fresh processes of import + config resolve;
                 the probes are spread between the passes, so the median
                 samples the host over the whole run, not one burst
    wall_s       median time of one workload pass, after a warm-up
    path_steps_per_s  Euler path-steps (computed from the inputs) per second
    peak_rss_mb  this process's peak plus, per worker, the largest pool
                 child's growth above this process (computed estimate)
    Passes repeat until about --seconds of passes have been measured.

--trace 1 (per-layer; ``per_layer``): one untraced pass and one traced pass
    at 2 workers, then one traced pass at 1 worker so batch-task spans land
    in this process.  Outputs of all three must match exactly.  Spans are
    written to .bench_build/perfbench/.

Without --workload, every workload runs in turn, each in a fresh process
of its own so that its peak_rss_mb is its own.  Each workload ends with a
JSON result line, so with one workload the last stdout line is its result.
Exit code 2, without a result, when the package source is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import spans  # noqa: E402
from workloads import WARMUP, WORKLOADS, ini_text  # noqa: E402

WORKERS = 2
SETUP_PROBES = 15  # at least; plus one discarded probe that warms caches
PROBES_PER_PASS = 3  # set-up probes before each pass and after the last
DEFAULT_SEED = 42  # the seed pins.json pins
PINS = HERE / "pins.json"


def load_cli():
    """powersde.cli from this checkout's src/, or exit 2."""
    if not (SRC / "powersde" / "cli.py").is_file():
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import powersde.cli

    if Path(powersde.cli.__file__).resolve().parent != (SRC / "powersde").resolve():
        print(f"benchmark: imported {powersde.cli.__file__}, not the checkout's", file=sys.stderr)
        raise SystemExit(2)
    return powersde.cli


class Session:
    """One workload at one seed: configs on disk, operations, checks."""

    def __init__(self, cli, workload, seed, pins=None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.ops = WORKLOADS[workload]()
        self.pins = pins.get(workload, {}) if pins else {}
        self.dir = WORK / f"{workload}-s{seed}-p{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.reference = {}
        self.attempted = 0
        self.failures = []

    def ini(self, op, tag=""):
        path = self.dir / f"{tag}{op.name}.ini"
        if not path.exists():
            path.write_text(ini_text(op.config, self.seed))
        return path

    def run(self, op, workers, tag=""):
        """Run one operation; (seconds, parsed output or None, error text)."""
        out = self.dir / f"{tag}{op.name}.csv"
        out.unlink(missing_ok=True)
        argv = [op.command, "--config", str(self.ini(op, tag)), "--out", str(out), "--workers", str(workers)]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc()
        seconds = perf_counter() - t0
        if code != 0:
            return seconds, None, error or f"exit code {code}: {stderr.getvalue().strip()}"
        return seconds, outputs.parse(stdout.getvalue(), out.read_text() if out.exists() else None), None

    def verify(self, op, result, error):
        """Count the operation and record why it failed, if it did."""
        self.attempted += 1
        problems = [error] if error else []
        if result is not None:
            problems += op.check(result)
            pinned = self.pins.get(op.name, {}).get(str(self.seed) if op.seeded else "*")
            if pinned is not None:
                problems += [f"pinned {p}" for p in outputs.mismatches(pinned, result)]
            first = self.reference.setdefault(op.name, result)
            if result != first:
                problems.append("output differs from this run's first pass")
        if problems:
            self.failures.append((op.name, problems))

    def warm_up(self):
        for op in WARMUP[self.workload]():
            _, _, error = self.run(op, WORKERS, tag="warmup-")
            self.attempted += 1
            if error:
                self.failures.append((f"warmup {op.name}", [error]))

    def one_pass(self, workers):
        """Run every operation once; returns {op name: seconds}."""
        times = {}
        for op in self.ops:
            seconds, result, error = self.run(op, workers)
            times[op.name] = seconds
            self.verify(op, result, error)
        return times

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class SetupProbe:
    """Times powersde's set-up (import, config load and resolve) in fresh
    processes, a few probes at a time; the first probe only warms caches."""

    def __init__(self, session):
        configs = [str(session.ini(op)) for op in session.ops]
        self.argv = [sys.executable, str(HERE / "probe_setup.py"), str(SRC), *configs]
        self.times = []
        self.run(1)
        self.times = []

    def run(self, n):
        for _ in range(n):
            done = subprocess.run(self.argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
            self.times.append(float(done.stdout.strip().splitlines()[-1]))


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def peak_rss_mb(base_kb):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + WORKERS * max(0, child - base_kb)) / 1024.0


def end_to_end(session, seconds):
    setup = SetupProbe(session)
    session.warm_up()
    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = []
    while True:
        setup.run(PROBES_PER_PASS)
        passes.append(session.one_pass(WORKERS))
        walls = [sum(p.values()) for p in passes]
        # stop at the pass count that lands nearest to the requested time
        if sum(walls) >= seconds - 0.5 * statistics.median(walls):
            break
    setup.run(max(PROBES_PER_PASS, SETUP_PROBES - len(setup.times)))
    setup_s = statistics.median(setup.times)
    work = sum(op.path_steps for op in session.ops)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "path_steps_per_s": (work / wall, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(base_kb), "MB"),
    }
    tail = tail_percentile(walls)
    print("pass walls: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"passes={len(walls)} wall_s median={wall:.4f} "
          + (f"p{tail[0]:.0f}={tail[1]:.4f}" if tail else "tail percentile: none (fewer than 11 passes)"))
    for op in session.ops:
        print(f"  {op.name:<24} median {statistics.median(p[op.name] for p in passes):.4f} s")
    return metrics


def traced(session):
    session.warm_up()
    untraced = sum(session.one_pass(WORKERS).values())
    tracers = {}
    walls = {}
    for workers in (WORKERS, 1):
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            walls[workers] = sum(session.one_pass(workers).values())
        tracer.dump(WORK / f"trace-{session.workload}-s{session.seed}-w{workers}.json")
        tracers[workers] = tracer
    metrics = spans.layer_metrics(tracers[1], tracers[WORKERS])
    metrics["trace.overhead"] = (walls[WORKERS] / untraced, "ratio")
    print(f"untraced pass {untraced:.4f} s, traced {walls[WORKERS]:.4f} s at {WORKERS} workers, "
          f"{walls[1]:.4f} s at 1 worker")
    missing = sorted(set(tracers[1].missing) | set(tracers[WORKERS].missing))
    if missing:
        print("missing spans: " + ", ".join(missing))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: each workload in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload is None:
        for workload in WORKLOADS:
            code = subprocess.run([
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            if code:
                return code
        return 0

    cli = load_cli()
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    print(f"== {args.workload} seed={args.seed} trace={args.trace}", flush=True)
    report(cli, args.workload, args, pins)
    return 0


def report(cli, workload, args, pins):
    session = Session(cli, workload, args.seed, pins)
    try:
        metrics = traced(session) if args.trace else end_to_end(session, args.seconds)
    finally:
        session.close()

    failed = len(session.failures)
    for name, problems in session.failures[:10]:
        print(f"FAILED {name}: " + "; ".join(p.strip().splitlines()[-1] for p in problems), file=sys.stderr)
    print(f"ops attempted={session.attempted} failed={failed} "
          f"ops_failed_frac={failed / max(session.attempted, 1):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
