"""Benchmark runner for exactrnn.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the library from
``src/`` of that checkout and nothing else.  One process, one client,
closed loop: each op starts when the previous one has returned.

``--trace 0`` times the workload with tracing off.  Set-up (import plus
the workload's networks and inputs) is repeated and its median is
``setup_s``; calibration is repeated in batches of at least 0.2 s and
the median batch's time per calibration is ``calibrate_s``.
Then the same round of ops runs again and again until ``--seconds``
have passed.  Each op's latency is its median over the rounds;
``op_ms_p50``/``op_ms_p90`` are quantiles over the ops of a round and
``ops_per_s`` is the op count over the sum of those latencies.  Every
timing is scaled to a nominal machine speed (see ``clock.py``); the
unscaled figures go to stderr.

``--trace 1`` does a fixed amount of work instead: one untraced round,
then set-up, calibration and one round again with every public library
function wrapped in a span.  It prints the per-layer metrics, whose
counts repeat exactly for a given seed, and the traced-to-untraced
ratio of ops per second.

The last line of stdout is the result; the line before it is the
environment stamp.  Both also go to ``.bench_out/results/``.  Any op
that disagrees with its oracle or raises fails the run: the result
says ``"correct": false`` and the exit code is 1.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

from clock import NominalClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 5
CALIBRATION_MIN_BATCHES = 5
CALIBRATION_MIN_S = 1.5
CALIBRATION_BATCH_S = 0.2
IMPORT_PROBE = ("import time; t = time.perf_counter(); import exactrnn.cli; "
                "print(time.perf_counter() - t)")


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def import_seconds():
    """Import time of the whole package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return float(out.stdout)


def env_stamp():
    from exactrnn import words
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {"rat": words.Rat.__module__, "gmpy2": has_gmpy2,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit}


class Loop:
    """Runs rounds of ops, times each op and counts failures."""

    def __init__(self, oracles, clock=None):
        self.oracles = oracles
        self.clock = clock
        self.rounds = []        # per round: (op start/end times, steps)
        self.failed = 0
        self.wall_s = 0.0

    def run_round(self, ops, tracer=None):
        t_round = time.perf_counter()
        marks, net_steps = array("d"), 0
        for i, (label, op) in enumerate(ops):
            if self.clock is not None:
                self.clock.tick()
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                net_steps += op()
            except self.oracles.OpFailed as exc:
                self._fail(label, str(exc))
            except Exception:    # a library error fails the op, not the run
                self._fail(label, traceback.format_exc())
            marks.extend((t0, time.perf_counter()))
        self.rounds.append((marks, net_steps))
        self.wall_s += time.perf_counter() - t_round

    def _fail(self, label, detail):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {label}: {detail}", file=sys.stderr)

    @property
    def attempted(self):
        return sum(len(marks) // 2 for marks, _ in self.rounds)

    def op_seconds(self, nominal=True):
        """Each op's median time over the rounds.  Every round runs the
        same ops on the same inputs, so an op's rounds differ only by
        the machine."""
        def took(a, b):
            return (b - a) * (self.clock.scale(a, b) if nominal else 1)

        n = len(self.rounds[0][0]) // 2
        return [statistics.median(took(marks[2 * i], marks[2 * i + 1])
                                  for marks, _ in self.rounds)
                for i in range(n)]

    def metrics(self, nominal=True):
        per_op = self.op_seconds(nominal)
        lat_ms = [s * 1e3 for s in per_op]
        return {
            "ops_per_s": len(per_op) / sum(per_op),
            "op_ms_p50": statistics.median(lat_ms),
            "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8]
            if len(lat_ms) > 1 else lat_ms[0],
            "net_steps_per_s": self.rounds[0][1] / sum(per_op),
        }


def calibration_batch(wl, ctx, clock):
    """Calibrations run back to back for at least CALIBRATION_BATCH_S,
    between two probes; the start and end of each calibrate_c call and
    the number of calibrations."""
    spans = []

    def run(fn):
        clock.tick()
        t0 = time.perf_counter()
        result = fn()
        spans.append((t0, time.perf_counter()))
        return result

    clock.sample()
    count, start = 0, time.perf_counter()
    while not count or time.perf_counter() - start < CALIBRATION_BATCH_S:
        wl.calibrate(ctx, run)
        count += 1
    clock.sample()
    return spans, count


def timed_run(wl, seed, seconds, workdir, oracles):
    clock = NominalClock()
    setups = []
    for _ in range(SETUP_REPS):
        clock.tick()
        t0 = time.perf_counter()
        t_import = import_seconds()     # timed inside its own interpreter
        t1 = time.perf_counter()
        ctx = wl.build(seed, workdir)
        t2 = time.perf_counter()
        setups.append((t0, t2, t_import + t2 - t1))
        clock.tick()

    batches = []
    while len(batches) < CALIBRATION_MIN_BATCHES \
            or sum(b - a for spans, _ in batches for a, b in spans) \
            < CALIBRATION_MIN_S:
        batches.append(calibration_batch(wl, ctx, clock))
    problems = wl.check_calibration(ctx)

    loop = Loop(oracles, clock)
    ops = wl.ops(ctx)
    while not loop.rounds or loop.wall_s < seconds:
        loop.run_round(ops)
    clock.sample()
    problems += wl.finish(ctx)
    if len({steps for _, steps in loop.rounds}) > 1:
        problems.append("rounds ran different numbers of network steps")

    if len(ops) < 100:
        print(f"note: {len(ops)} ops a round leave fewer than 10 above p90",
              file=sys.stderr)
    metrics = loop.metrics()
    metrics.update({
        "setup_s": statistics.median(
            took * clock.scale(a, b) for a, b, took in setups),
        "calibrate_s": statistics.median(
            sum((b - a) * clock.scale(a, b) for a, b in spans) / count
            for spans, count in batches),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    raw = loop.metrics(nominal=False)
    print(f"{wl.name}: {len(loop.rounds)} rounds of {len(ops)} ops in "
          f"{loop.wall_s:.2f}s, {len(setups)} set-ups, "
          f"{len(batches)} calibration batches; probe median "
          f"{statistics.median(clock.times) * 1e3:.2f} ms; unscaled "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
          file=sys.stderr)
    return loop, problems, metrics


def traced_run(wl, seed, workdir, oracles, tracer):
    ctx = wl.build(seed, workdir)
    wl.calibrate(ctx)
    untraced = Loop(oracles)
    untraced.run_round(wl.ops(ctx))
    problems = wl.finish(ctx)

    tracer.install()
    try:
        tracer.op = -2
        ctx = wl.build(seed, workdir)
        tracer.op = -1
        wl.calibrate(ctx)
        problems += wl.check_calibration(ctx)
        traced = Loop(oracles)
        traced.run_round(wl.ops(ctx), tracer)
    finally:
        tracer.uninstall()
    problems += wl.finish(ctx)
    if tracer.missing:
        print(f"note: not in this library, reads 0: {tracer.missing}",
              file=sys.stderr)
    metrics = tracer.metrics()
    metrics["trace.ops_per_s_ratio"] = \
        traced.metrics(nominal=False)["ops_per_s"] \
        / untraced.metrics(nominal=False)["ops_per_s"]
    traced.failed += untraced.failed
    traced.rounds += untraced.rounds
    return traced, problems, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "exactrnn" / "__init__.py").is_file():
        print(f"error: no exactrnn source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import exactrnn
    if Path(exactrnn.__file__).resolve().parent != SRC / "exactrnn":
        print(f"error: imported exactrnn from {exactrnn.__file__}",
              file=sys.stderr)
        return 2
    import oracles
    import spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: workloads are {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tracer = spans.Tracer(exactrnn)
            loop, problems, metrics = traced_run(wl, args.seed, workdir,
                                                 oracles, tracer)
            OUT.mkdir(exist_ok=True)
            tracer.write_spans(
                OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        else:
            loop, problems, metrics = timed_run(wl, args.seed, args.seconds,
                                                workdir, oracles)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        raise SystemExit(f"error: measured {sorted(metrics)}, "
                         f"BENCHMARK.json declares {sorted(units)}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    env = env_stamp()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "result": result}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
