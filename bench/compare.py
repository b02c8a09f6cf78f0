"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files ``run.py`` writes to
``.bench_out/results/`` (copy them aside between the two commits).  For
every workload and end-to-end metric it prints the median and quartiles
of each set and the change of the median, and marks a change worse
than the metric's bound in ``BENCHMARK.json`` as a regression, or as
unresolved when the base set's own quartile spread is wider than the
bound.  Exit code 1 on a regression.  Two sets measured on different arithmetic
backends (``Rat`` class or gmpy2 availability) are not comparable: it
refuses them with exit code 2.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    records = [json.loads(p.read_text())
               for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in records if r["trace"] == 0]


def backend(record):
    return record["env"]["rat"], record["env"]["gmpy2"]


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: a result set is empty", file=sys.stderr)
        return 2
    backends = {backend(r) for r in base + new}
    if len(backends) > 1:
        print(f"error: refusing to compare results from different arithmetic "
              f"backends: {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    regressions = 0
    for wl in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        print(wl)
        for m in spec["end_to_end"]:
            name = m["name"]
            a = summary([r["result"]["metrics"][name]["value"]
                         for r in base if r["workload"] == wl])
            b = summary([r["result"]["metrics"][name]["value"]
                         for r in new if r["workload"] == wl])
            change = (b[1] - a[1]) / a[1]
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            if (a[2] - a[0]) / a[1] > m["bound"]:
                verdict = "unresolved"   # base spread wider than the bound
            regressions += verdict == "REGRESSION"
            print(f"  {name:16} base {a[1]:.6g} [{a[0]:.6g}, {a[2]:.6g}]  "
                  f"new {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"{change:+.1%}  bound {m['bound']:.0%}  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
