"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run      # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "cells", "bits", "digits", "B"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", "1")
    first, second = bench(*args), bench(*args)
    results = []
    for proc in (first, second):
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    a, b = ({k: r["metrics"][k]["value"] for k in counts} for r in results)
    assert a == b
    assert a["network.step.calls"] > 0


def test_broken_oracle_fails_the_run(monkeypatch, capsys):
    import oracles
    monkeypatch.setattr(oracles, "parity", lambda w: w.count("1") % 2 == 1)
    code = run.main(["--workload", "compiled-verify", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_without_source_tree_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "codec-cli", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_backends(tmp_path):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in SPEC["end_to_end"]}
    for side, rat in (("a", "fractions"), ("b", "gmpy2")):
        (tmp_path / side).mkdir()
        record = {"workload": "codec-cli", "seed": 1, "seconds": 1,
                  "trace": 0, "env": {"rat": rat, "gmpy2": rat == "gmpy2"},
                  "result": {"metrics": metrics}}
        (tmp_path / side / "r.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
