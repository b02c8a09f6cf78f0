"""Golden bytes: the canonical JSON of compiled networks and stack
programs, the records of a seeded ``stochastic-suite`` run, and the
records of seeded ``kolmogorov`` runs in both modes.

Every other test compares behaviour, so a renamed micro-state or a
reordered row would pass them all and still change what ``compile``
writes.  These hashes pin the bytes; a change to any of them is a
change to the file formats, or to the seeded records, users keep.
"""

import json

import pytest

from exactrnn.augmented import ann_from_tma, enn_from_tma, tma_to_stack, tma_to_stack_replay
from exactrnn.cli import config_hash, main
from exactrnn.compiler import compile_machine
from exactrnn.machines import tm_to_stack
from exactrnn.zoo import (
    advice_eater_tma, dyck_sm, eater_stream, majority3_snn, parity_tm,
    stream_compare_tma, two_thirds_stream,
)

GOLDEN = [
    ("compiled-parity", lambda: compile_machine(tm_to_stack(parity_tm())),
     "7d72efaa81c221d8"),
    ("compiled-dyck", lambda: compile_machine(dyck_sm()), "7a7ae1c632f54ad7"),
    ("parity-stack", lambda: tm_to_stack(parity_tm()), "e5e6acde83f909da"),
    ("stream-compare-stack", lambda: tma_to_stack(stream_compare_tma()),
     "cf591a75ea19d852"),
    ("advice-eater-replay", lambda: tma_to_stack_replay(advice_eater_tma()),
     "628d0915995c2c66"),
    ("stream-compare-ann",
     lambda: ann_from_tma(stream_compare_tma(), two_thirds_stream()),
     "cf1a7e7601526263"),
    ("advice-eater-enn", lambda: enn_from_tma(advice_eater_tma(), eater_stream(8)),
     "5f7d94c005d87ea8"),
]


@pytest.mark.parametrize("build, digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_serialized_bytes_are_pinned(build, digest):
    assert config_hash(build().to_json()) == digest


# The records of ``stochastic-suite`` are seeded samples: their bytes
# change whenever a coin is drawn from different generator bits.
SUITE_GOLDEN = [
    ([], "6328a150e5f916aa"),
    (["--max-steps", "20"], "cdd94f751680f916"),
]


@pytest.mark.parametrize("extra, digest", SUITE_GOLDEN,
                         ids=["default-steps", "max-steps-20"])
def test_stochastic_suite_records_are_pinned(tmp_path, extra, digest):
    snn = tmp_path / "maj3.snn"
    snn.write_text(json.dumps(majority3_snn(two_thirds_stream()).to_json()))
    ptma = tmp_path / "coin.ptma"
    ptma.write_text(json.dumps({"type": "coin-match"}))
    out = tmp_path / "records.jsonl"
    argv = ["stochastic-suite", str(snn), str(ptma), "--trials", "200",
            "--seed", "7", "--out", str(out)] + extra
    assert main(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert config_hash(records) == digest


# The records of ``kolmogorov`` at seed 1 and n-max 64: the roundtrip
# mode for every bound, the kfg mode for a slow and a fast bound.
KOLMOGOROV_GOLDEN = [
    ("roundtrip", "log2", "75383d360d986bd0"),
    ("roundtrip", "sqrt", "6b93a8ff9967230d"),
    ("roundtrip", "identity", "5648af178f364ac9"),
    ("roundtrip", "double", "36105c7aa32f57de"),
    ("kfg", "log2", "19a6bcfe66785e92"),
    ("kfg", "double", "803ee53b77126d9b"),
]


@pytest.mark.parametrize("mode, bound, digest", KOLMOGOROV_GOLDEN,
                         ids=[f"{m}-{g}" for m, g, _ in KOLMOGOROV_GOLDEN])
def test_kolmogorov_records_are_pinned(tmp_path, mode, bound, digest):
    out = tmp_path / "records.jsonl"
    argv = ["kolmogorov", "--mode", mode, "--g", bound, "--n-max", "64",
            "--seed", "1", "--out", str(out)]
    if mode == "roundtrip":
        argv += ["--trials", "20"]
    assert main(argv) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert config_hash(records) == digest
