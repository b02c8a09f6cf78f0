"""The command line front door, driven through main() with temp files.

Oracles here are the library runners the commands wrap; most tests
check the contract instead: exit codes, record shape, determinism of
the emitted bytes, and that corruption surfaces as a witnessed
mismatch rather than a crash.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exactrnn
from exactrnn.augmented import ann_from_tma, enn_from_tma
from exactrnn.cli import BOUNDS, main
from exactrnn.machines import tm_run
from exactrnn.words import words_of_length
from exactrnn.zoo import (advice_eater_tma, dyck_oracle, dyck_sm,
                          eater_stream, majority3_snn, parity_tm,
                          two_thirds_stream)


# ---------------------------------------------------------------- helpers

def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_binary(path):
    """A file that is not UTF-8 text."""
    path.write_bytes(b"\x7fELF\x02\x01" + bytes(range(128, 256)))
    return str(path)


def write_corpus(path, words):
    lines = [(w if w else "-") for w in words]
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def assert_one_error(capsys, text):
    """stderr holds exactly one error: line, naming text, and no traceback."""
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and text in errors[0], err
    assert "Traceback" not in err


def records_of(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def run_to_records(tmp_path, argv, name="records.jsonl"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, records_of(out)


@pytest.fixture
def parity_files(tmp_path):
    mp = write_json(tmp_path / "parity.tm", parity_tm().to_json())
    np = tmp_path / "parity.rnn"
    assert main(["compile", mp, "--out", str(np)]) == 0
    return mp, str(np)


# ---------------------------------------------------------------- compile

def test_compile_writes_network_and_is_idempotent(tmp_path, capsys):
    mp = write_json(tmp_path / "dyck.sm", dyck_sm().to_json())
    out = tmp_path / "dyck.rnn"
    assert main(["compile", mp, "--out", str(out)]) == 0
    first = out.read_bytes()
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert lines[0]["command"] == "compile"
    assert lines[1]["cells"] == json.loads(first)["cfg"]["k"]

    assert main(["compile", mp, "--out", str(out)]) == 0
    assert out.read_bytes() == first

    d = json.loads(first)
    assert set(d) == {"cfg", "layout", "constants", "machine"}


def test_compile_rejects_bad_input(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    out = str(tmp_path / "x.rnn")
    assert main(["compile", str(broken), "--out", out]) == 2

    ptm = write_json(tmp_path / "coin.json", {"type": "coin-match"})
    assert main(["compile", ptm, "--out", out]) == 2

    missing = str(tmp_path / "nowhere.json")
    assert main(["compile", missing, "--out", out]) == 2

    listed = write_json(tmp_path / "list.json", [1, 2])
    assert main(["compile", listed, "--out", out]) == 2

    mp = write_json(tmp_path / "parity.tm", parity_tm().to_json())
    capsys.readouterr()
    nodir = str(tmp_path / "nodir" / "x.rnn")
    assert main(["compile", mp, "--out", nodir]) == 2
    assert_one_error(capsys, f"cannot write {nodir}")


def test_compile_refuses_state_names_that_are_not_strings(tmp_path, capsys):
    good = {"type": "stack-machine", "stacks": ["S"], "initial": "q",
            "rows": [["q", "end", {}, {}, "accept"]], "extra_ops": []}
    out = str(tmp_path / "x.rnn")
    for bad in ({"initial": [1]}, {"initial": {"a": 1}},
                {"rows": [[5, "end", {}, {}, "accept"]]},
                {"rows": [["q", "end", {}, {}, [2]]]}):
        mp = write_json(tmp_path / "bad.sm", {**good, **bad})
        assert main(["compile", mp, "--out", out]) == 2
        assert_one_error(capsys, "is not a string")
    assert not os.path.exists(out)


def test_python_dash_m_runs_the_command(tmp_path, parity_files):
    env = dict(os.environ,
               PYTHONPATH=str(Path(exactrnn.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "exactrnn", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)

    shown = run("--help")
    assert shown.returncode == 0
    assert "stochastic-suite" in shown.stdout
    mp, np = parity_files
    d = json.loads(open(np).read())
    d["cfg"]["h0"][0] = "1/0"
    bad = write_json(tmp_path / "bad.rnn", d)
    cp = write_corpus(tmp_path / "corpus.txt", ["", "1"])
    refused = run("verify", mp, bad, "--corpus", cp)
    assert refused.returncode == 2
    assert "malformed network spec" in refused.stderr
    assert "Traceback" not in refused.stderr


# ---------------------------------------------------------------- verify

def test_verify_parity_exhaustive(tmp_path, parity_files):
    mp, np = parity_files
    words = [w for n in range(6) for w in words_of_length(n)]
    cp = write_corpus(tmp_path / "corpus.txt", words)
    rc, recs = run_to_records(tmp_path, ["verify", mp, np, "--corpus", cp])
    assert rc == 0
    word_lines = [r for r in recs if r["record"] == "word"]
    assert len(word_lines) == len(words)
    assert all(r["agree"] for r in word_lines)
    m = parity_tm()
    for r in word_lines:
        assert r["machine"] == tm_run(m, r["word"], 10 ** 4).kind
    # canonical ordering: by length, then lexicographic
    keys = [(len(r["word"]), r["word"]) for r in word_lines]
    assert keys == sorted(keys)
    assert recs[-1]["verdict"] == "pass"


def test_verify_corrupted_weight_names_witness(tmp_path, parity_files):
    mp, np = parity_files
    d = json.loads(open(np).read())
    # scaling a weight up is absorbed by saturation; pushing a binary
    # signal into the open interval is not
    i, j, _w = d["cfg"]["w_res"][7]
    d["cfg"]["w_res"][7] = [i, j, "1/3"]
    bad = write_json(tmp_path / "bad.rnn", d)
    cp = write_corpus(tmp_path / "corpus.txt", ["", "0", "1", "01", "11"])
    rc, recs = run_to_records(tmp_path, ["verify", mp, bad, "--corpus", cp])
    assert rc == 1
    agg = recs[-1]
    assert agg["verdict"] == "fail" and agg["mismatches"] >= 1
    assert any(r["record"] == "word" and r["word"] == agg["witness"]
               and not r["agree"] for r in recs)


def test_verify_refuses_a_net_compiled_from_another_machine(
        tmp_path, parity_files, capsys):
    mp, np = parity_files
    sp = write_json(tmp_path / "dyck.sm", dyck_sm().to_json())
    dp = str(tmp_path / "dyck.rnn")
    assert main(["compile", sp, "--out", dp]) == 0
    cp = write_corpus(tmp_path / "corpus.txt", ["", "0", "1", "01", "0110",
                                                "10101"])
    capsys.readouterr()
    # unrefused, parity.tm against dyck.rnn reads 3 mismatches, each run
    # with the Dyck machine's step budget
    for machine, net in ((mp, dp), (sp, np)):
        assert main(["verify", machine, net, "--corpus", cp]) == 2
        assert_one_error(capsys,
                         f"{net} was compiled from another machine than "
                         f"{machine}")
    assert main(["verify", sp, dp, "--corpus", cp]) == 0


def test_verify_zero_denominator_exits_2(tmp_path, parity_files, capsys):
    mp, np = parity_files
    cp = write_corpus(tmp_path / "corpus.txt", ["", "1"])
    for field, index in (("w_res", 7), ("h0", 0)):
        d = json.loads(open(np).read())
        if field == "h0":
            d["cfg"]["h0"][index] = "1/0"
        else:
            d["cfg"][field][index][2] = "1/0"
        bad = write_json(tmp_path / "bad.rnn", d)
        assert main(["verify", mp, bad, "--corpus", cp]) == 2
        assert_one_error(capsys, "malformed network spec")


def test_verify_empty_corpus_warns_and_passes(tmp_path, parity_files, capsys):
    mp, np = parity_files
    cp = tmp_path / "empty.txt"
    cp.write_text("# nothing here\n\n")
    rc, recs = run_to_records(tmp_path, ["verify", mp, np,
                                         "--corpus", str(cp)])
    assert rc == 0
    assert recs[-1] == {"record": "aggregate", "command": "verify",
                        "words": 0, "mismatches": 0, "witness": None,
                        "verdict": "pass"}
    assert "empty corpus" in capsys.readouterr().err


def test_verify_rejects_bad_flags_and_corpora(tmp_path, parity_files, capsys):
    mp, np = parity_files
    cp = write_corpus(tmp_path / "c.txt", ["0110"])
    assert main(["verify", mp, np, "--corpus", cp, "--max-steps", "2"]) == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("01a\n")
    assert main(["verify", mp, np, "--corpus", str(bad)]) == 2

    sp = write_json(tmp_path / "snn.json",
                    majority3_snn(two_thirds_stream()).to_json())
    assert main(["verify", mp, sp, "--corpus", cp]) == 2

    listed = write_json(tmp_path / "list.json", [1, 2])
    assert main(["verify", listed, np, "--corpus", cp]) == 2
    assert main(["verify", mp, listed, "--corpus", cp]) == 2

    binary = write_binary(tmp_path / "binary.dat")
    for argv in ([binary, np, "--corpus", cp], [mp, binary, "--corpus", cp],
                 [mp, np, "--corpus", binary]):
        assert main(["verify"] + argv) == 2

    nd = json.loads(open(np).read())
    for constants in ([1, 2], {"c_ramp": "5", "c_step": 6},
                      {**nd["constants"], "c_op": 5.0},
                      {**nd["constants"], "c_ramp": True},
                      {**nd["constants"], "c_step": 60}):
        odd = write_json(tmp_path / "odd.rnn", {**nd, "constants": constants})
        assert main(["verify", mp, odd, "--corpus", cp]) == 2
    # a compiled file needs its constants and the machine it came from
    for key in ("machine", "constants"):
        odd = write_json(tmp_path / "odd.rnn",
                         {k: v for k, v in nd.items() if k != key})
        assert main(["verify", mp, odd, "--corpus", cp]) == 2
    cfg_only = write_json(tmp_path / "cfg.rnn", {"cfg": nd["cfg"]})
    assert main(["verify", mp, cfg_only, "--corpus", cp]) == 2

    # checked before an empty corpus short-cuts the run
    empty = write_corpus(tmp_path / "empty.txt", [])
    for bits in ("0", "-1"):
        assert main(["verify", mp, np, "--corpus", empty,
                     "--precision-bits", bits]) == 2

    capsys.readouterr()
    nodir = str(tmp_path / "nodir" / "r.jsonl")
    assert main(["verify", mp, np, "--corpus", cp, "--out", nodir]) == 2
    assert_one_error(capsys, f"cannot write {nodir}")


def test_verify_machine_that_decides_without_a_step(tmp_path):
    # tau = 6n + 6 lies one cycle past C_RAMP + C_STEP * n
    mp = write_json(tmp_path / "now.sm",
                    {"type": "stack-machine", "stacks": [], "initial": "accept",
                     "rows": [], "extra_ops": []})
    np = tmp_path / "now.rnn"
    assert main(["compile", mp, "--out", str(np)]) == 0
    cp = write_corpus(tmp_path / "c.txt", ["", "0", "1", "01", "0110"])
    rc, recs = run_to_records(tmp_path, ["verify", mp, str(np),
                                         "--corpus", cp])
    assert rc == 0
    assert [r["network"] for r in recs if r["record"] == "word"] \
        == ["accept"] * 5


def test_verify_records_every_word_of_a_stuck_machine(tmp_path):
    mp = write_json(tmp_path / "stuck.sm",
                    {"type": "stack-machine", "stacks": ["S"], "initial": "q",
                     "rows": [["q", "0", {}, {}, "q"],
                              ["q", "end", {}, {}, "accept"]],
                     "extra_ops": []})
    np = tmp_path / "stuck.rnn"
    assert main(["compile", mp, "--out", str(np)]) == 0
    cp = write_corpus(tmp_path / "c.txt", ["", "0", "1"])
    rc, recs = run_to_records(tmp_path, ["verify", mp, str(np),
                                         "--corpus", cp])
    assert rc == 1
    words = [r for r in recs if r["record"] == "word"]
    assert [(r["word"], r["agree"]) for r in words] \
        == [("", True), ("0", True), ("1", False)]
    assert words[2]["machine"] == "error:MachineStuck"
    assert words[2]["network"] == "timeout"
    assert recs[-1]["witness"] == "1" and recs[-1]["mismatches"] == 1


def test_verify_rejects_malformed_analog_files(tmp_path, capsys):
    m = advice_eater_tma()
    d = ann_from_tma(m, eater_stream(8)).to_json()
    ap = write_json(tmp_path / "eater.ann", d)
    cp = write_corpus(tmp_path / "c.txt", ["", "1"])
    bare = write_json(tmp_path / "bare.tma", {"type": "tma"})
    assert main(["verify", bare, ap, "--corpus", cp]) == 2
    assert "malformed machine spec: 'trans'" in capsys.readouterr().err

    mp = write_json(tmp_path / "eater.tma", m.to_json())
    bad = write_json(tmp_path / "bad.ann", {**d, "bias_stream": [1]})
    assert main(["verify", mp, bad, "--corpus", cp]) == 2
    assert "malformed network spec" in capsys.readouterr().err


# a rule list that is a string or an object read as no rules at all
NOT_ROWS = ("", {})


def test_verify_refuses_tm_rules_that_are_not_rows(
        tmp_path, parity_files, capsys):
    _, np = parity_files
    cp = write_corpus(tmp_path / "c.txt", ["", "1"])
    for rows in NOT_ROWS:
        bad = write_json(tmp_path / "bad.tm",
                         {**parity_tm().to_json(), "trans": rows})
        assert main(["verify", bad, np, "--corpus", cp]) == 2
        assert_one_error(capsys, "'trans' must be a list of rows of 5 entries")


def test_verify_refuses_tma_rules_that_are_not_rows(tmp_path, capsys):
    m = advice_eater_tma()
    ap = write_json(tmp_path / "eater.ann",
                    ann_from_tma(m, eater_stream(8)).to_json())
    cp = write_corpus(tmp_path / "c.txt", ["", "1"])
    for rows in NOT_ROWS:
        bad = write_json(tmp_path / "bad.tma", {**m.to_json(), "trans": rows})
        assert main(["verify", bad, ap, "--corpus", cp]) == 2
        assert_one_error(capsys, "'trans' must be a list of rows of 7 entries")


def test_verify_refuses_weight_indices_that_are_not_distinct_integers(
        tmp_path, parity_files, capsys):
    # an index 0.5 would read a phantom cell, and of two entries for one
    # (row, col) the last nonzero one would win silently
    mp, np = parity_files
    net = json.loads(Path(np).read_text())
    cp = write_corpus(tmp_path / "c.txt", ["", "1"])
    (i, j, w), *rest = net["cfg"]["w_res"]
    for entries, text in (([[i, 0.5, w]] + rest, "is not an integer"),
                          ([[True, j, w]], "is not an integer"),
                          ([[i, j, w], [i, j, "1"]] + rest, "twice")):
        bad = write_json(tmp_path / "bad.rnn",
                         mutated(net, ("cfg", "w_res"), entries))
        assert main(["verify", mp, bad, "--corpus", cp]) == 2
        assert_one_error(capsys, text)


def test_verify_refuses_a_type_that_is_not_a_string(
        tmp_path, parity_files, capsys):
    mp, np = parity_files
    net = json.loads(Path(np).read_text())
    cp = write_corpus(tmp_path / "c.txt", ["", "1"])
    for kind in ([], [[]], {}):
        bad = write_json(tmp_path / "bad.tm",
                         {**parity_tm().to_json(), "type": kind})
        assert main(["verify", bad, np, "--corpus", cp]) == 2
        assert_one_error(capsys, f'{bad}: "type" is not a string')
        bad = write_json(tmp_path / "bad.rnn", {**net, "type": kind})
        assert main(["verify", mp, bad, "--corpus", cp]) == 2
        assert_one_error(capsys, f'{bad}: "type" is not a string')


def test_compile_refuses_stack_machine_rows_that_are_not_rows(tmp_path, capsys):
    out = tmp_path / "x.rnn"
    for rows in NOT_ROWS:
        mp = write_json(tmp_path / "bad.sm", {**dyck_sm().to_json(), "rows": rows})
        assert main(["compile", mp, "--out", str(out)]) == 2
        assert_one_error(capsys, "'rows' must be a list of rows of 5 entries")
    assert not out.exists()


def test_verify_refuses_state_names_that_are_not_strings(
        tmp_path, parity_files, capsys):
    mp, np = parity_files
    ap = write_json(tmp_path / "eater.ann",
                    ann_from_tma(advice_eater_tma(), eater_stream(8)).to_json())
    cp = write_corpus(tmp_path / "c.txt", ["", "1"])
    for machine, net in ((parity_tm().to_json(), np),
                         (advice_eater_tma().to_json(), ap)):
        for initial in ([1], {"a": 1}):
            bad = write_json(tmp_path / "bad.json",
                             {**machine, "initial": initial})
            assert main(["verify", bad, net, "--corpus", cp]) == 2
            assert_one_error(capsys, "is not a string")


def test_verify_records_rerun_byte_identical(tmp_path, parity_files):
    mp, np = parity_files
    cp = write_corpus(tmp_path / "c.txt", ["", "1", "10", "0110"])
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["verify", mp, np, "--corpus", cp, "--out", str(a)]) == 0
    assert main(["verify", mp, np, "--corpus", cp, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()  # not vacuous


def test_verify_analog_pair_and_precision_budget(tmp_path):
    m = advice_eater_tma()
    r = eater_stream(8)
    mp = write_json(tmp_path / "eater.tma", m.to_json())
    ap = write_json(tmp_path / "eater.ann", ann_from_tma(m, r).to_json())
    cp = write_corpus(tmp_path / "c.txt", ["", "0", "1", "01", "110"])
    base = ["verify", mp, ap, "--corpus", cp, "--max-steps", "500"]
    rc, recs = run_to_records(tmp_path, base)
    assert rc == 0 and recs[-1]["verdict"] == "pass"

    rc, recs = run_to_records(tmp_path, base + ["--precision-bits", "2"])
    assert rc == 1
    assert any(r.get("network") == "error:PrecisionExhausted" for r in recs)


def test_verify_evolving_pair(tmp_path):
    m = advice_eater_tma()
    ep = write_json(tmp_path / "eater.enn",
                    enn_from_tma(m, eater_stream(8)).to_json())
    mp = write_json(tmp_path / "eater.tma", m.to_json())
    cp = write_corpus(tmp_path / "c.txt", ["", "1", "01"])
    rc, recs = run_to_records(
        tmp_path, ["verify", mp, ep, "--corpus", cp, "--max-steps", "5000"])
    assert rc == 0 and recs[-1]["mismatches"] == 0


def test_verify_refuses_an_evolving_net_without_cell_0(tmp_path, capsys):
    m = advice_eater_tma()
    d = enn_from_tma(m, eater_stream(8)).to_json()
    d["base"] = {"k": 0, "n_in": 2, "w_in": [], "w_res": [], "w_out": [],
                 "h0": []}
    ep = write_json(tmp_path / "bad.enn", d)
    mp = write_json(tmp_path / "eat.tma", m.to_json())
    cp = write_corpus(tmp_path / "c.txt", ["", "0", "1", "01"])
    assert main(["verify", mp, ep, "--corpus", cp, "--max-steps", "50",
                 "--out", str(tmp_path / "r.jsonl")]) == 2
    assert_one_error(capsys, "cell 0")


# ------------------------------------------------------- stochastic suite

@pytest.fixture
def suite_files(tmp_path):
    sp = write_json(tmp_path / "maj3.snn",
                    majority3_snn(two_thirds_stream()).to_json())
    pp = write_json(tmp_path / "coin.json", {"type": "coin-match"})
    return sp, pp


def test_stochastic_suite_budgets_and_determinism(tmp_path, suite_files):
    sp, pp = suite_files
    argv = ["stochastic-suite", sp, pp, "--trials", "120", "--seed", "11"]
    rc, recs = run_to_records(tmp_path, argv, "a.jsonl")
    assert rc == 0
    ms = {r["check"]: r for r in recs if r["record"] == "measurement"}
    assert set(ms) == {"coin-divergence", "advice-estimate-failure",
                       "fair-bit-exhaustion"}
    assert [ms[k]["budget"] for k in ("coin-divergence",
                                      "advice-estimate-failure",
                                      "fair-bit-exhaustion")] \
        == [0.2, 0.1, 0.0625]
    for r in ms.values():
        assert r["within"] and 0 <= r["rate"] <= r["tolerance"]
        assert r["trials"] == 120

    rc2, _ = run_to_records(tmp_path, argv, "b.jsonl")
    assert rc2 == 0
    assert (tmp_path / "a.jsonl").read_bytes() \
        == (tmp_path / "b.jsonl").read_bytes()

    rc3, recs3 = run_to_records(tmp_path,
                                argv[:-1] + ["12"], "c.jsonl")
    assert rc3 == 0
    assert recs3 != recs  # the seed actually reaches the sampling


def test_stochastic_suite_usage_errors(tmp_path, suite_files):
    sp, pp = suite_files
    assert main(["stochastic-suite", sp, pp, "--trials", "0"]) == 2
    assert main(["stochastic-suite", pp, pp, "--trials", "5"]) == 2
    bad = write_json(tmp_path / "bad.json", {"type": "tm"})
    assert main(["stochastic-suite", sp, bad, "--trials", "5"]) == 2
    bare = write_json(tmp_path / "bare.snn", {"type": "snn"})
    assert main(["stochastic-suite", bare, pp, "--trials", "5"]) == 2
    listed = write_json(tmp_path / "list.json", [1, 2])
    assert main(["stochastic-suite", listed, pp, "--trials", "5"]) == 2
    assert main(["stochastic-suite", sp, listed, "--trials", "5"]) == 2
    binary = write_binary(tmp_path / "binary.dat")
    assert main(["stochastic-suite", binary, pp, "--trials", "5"]) == 2
    assert main(["stochastic-suite", sp, binary, "--trials", "5"]) == 2
    out = tmp_path / "records.jsonl"
    for steps in ("0", "-3"):
        assert main(["stochastic-suite", sp, pp, "--trials", "5",
                     "--max-steps", steps, "--out", str(out)]) == 2
        assert not out.exists()


def test_stochastic_suite_refuses_coins_without_a_probability(
        tmp_path, suite_files, capsys):
    sp, pp = suite_files
    d = json.loads(open(sp).read())
    out = tmp_path / "records.jsonl"
    for stream, text in (({"kind": "rational", "value": "1/0"},
                          "malformed network spec"),
                         ({"kind": "prng", "seed": 1}, "closed-form"),
                         ({"kind": "rational", "value": "0"}, "closed-form"),
                         ({"kind": "word", "word": "", "tail": 1},
                          "closed-form")):
        bad = write_json(tmp_path / "bad.snn", {**d, "prob_stream": stream})
        assert main(["stochastic-suite", bad, pp, "--trials", "5",
                     "--out", str(out)]) == 2
        assert_one_error(capsys, text)
        assert not out.exists()


def test_stochastic_suite_refuses_state_names_that_are_not_strings(
        tmp_path, suite_files, capsys):
    sp, _ = suite_files
    fixed = {"type": "ptm", "initial": "go",
             "trans0": [["go", "_", "_", "S", "accept"]],
             "trans1": [["go", "_", "_", "S", "reject"]]}
    out = tmp_path / "records.jsonl"
    for initial in ([1], {"a": 1}, None, 7):
        pp = write_json(tmp_path / "bad.ptm", {**fixed, "initial": initial})
        assert main(["stochastic-suite", sp, pp, "--trials", "5",
                     "--out", str(out)]) == 2
        assert_one_error(capsys, "is not a string")
        assert not out.exists()


def test_stochastic_suite_refuses_ptm_rules_that_are_not_rows(
        tmp_path, suite_files, capsys):
    sp, _ = suite_files
    fixed = {"type": "ptm", "initial": "go",
             "trans0": [["go", "_", "_", "S", "accept"]],
             "trans1": [["go", "_", "_", "S", "reject"]]}
    out = tmp_path / "records.jsonl"
    for key in ("trans0", "trans1"):
        for rows in NOT_ROWS:
            pp = write_json(tmp_path / "bad.ptm", {**fixed, key: rows})
            assert main(["stochastic-suite", sp, pp, "--trials", "5",
                         "--out", str(out)]) == 2
            assert_one_error(capsys, f"'{key}' must be a list of rows of 5 entries")
            assert not out.exists()


def test_stochastic_suite_accepts_fixed_ptm(tmp_path, suite_files):
    sp, _ = suite_files
    fixed = {"type": "ptm", "initial": "go",
             "trans0": [["go", "_", "_", "S", "accept"]],
             "trans1": [["go", "_", "_", "S", "reject"]]}
    pp = write_json(tmp_path / "fixed.ptm", fixed)
    rc, recs = run_to_records(
        tmp_path, ["stochastic-suite", sp, pp, "--trials", "40"])
    assert rc == 0 and recs[-1]["verdict"] == "pass"


# ------------------------------------------------------ file-type table

FIXED_PTM = {"type": "ptm", "initial": "go",
             "trans0": [["go", "_", "_", "S", "accept"]],
             "trans1": [["go", "_", "_", "S", "reject"]]}


@pytest.fixture
def typed_files(tmp_path, parity_files):
    """One file of each type a command may be handed, by type name."""
    mp, np = parity_files
    m, r = advice_eater_tma(), eater_stream(8)
    docs = {
        "tma": m.to_json(),
        "ptm": FIXED_PTM,
        "stack-machine": dyck_sm().to_json(),
        "ann": ann_from_tma(m, r).to_json(),
        "enn": enn_from_tma(m, r).to_json(),
        "snn": majority3_snn(two_thirds_stream()).to_json(),
        "untyped": {k: v for k, v in parity_tm().to_json().items()
                    if k != "type"},
    }
    files = {kind: write_json(tmp_path / f"{kind}.json", d)
             for kind, d in docs.items()}
    return {"tm": mp, "compiled": np, **files}


def refused_naming(capsys, argv, path):
    """argv exits 2 with one error line that names path."""
    assert main(argv) == 2, argv
    assert_one_error(capsys, f"{path}: ")


@pytest.mark.parametrize("kind", ["tma", "ptm", "ann", "untyped"])
def test_compile_refuses_types_it_cannot_compile(tmp_path, typed_files,
                                                 kind, capsys):
    out = tmp_path / "x.rnn"
    path = typed_files[kind]
    capsys.readouterr()
    refused_naming(capsys, ["compile", path, "--out", str(out)], path)
    assert not out.exists()


@pytest.mark.parametrize("machine, network, blamed", [
    ("tm", "ann", "machine"),
    ("tma", "compiled", "machine"),
    ("stack-machine", "enn", "machine"),
    ("tm", "snn", "network"),
    ("tma", "snn", "network"),
    ("stack-machine", "snn", "network"),
    ("tm", "untyped", "network"),
])
def test_verify_refuses_pairs_outside_the_table(tmp_path, typed_files,
                                                machine, network, blamed,
                                                capsys):
    cp = write_corpus(tmp_path / "c.txt", ["", "1"])
    mp, np = typed_files[machine], typed_files[network]
    capsys.readouterr()
    refused_naming(capsys, ["verify", mp, np, "--corpus", cp],
                   mp if blamed == "machine" else np)


@pytest.mark.parametrize("network, coins, blamed", [
    ("ann", "coin", "network"),
    ("snn", "tm", "coins"),
])
def test_stochastic_suite_refuses_types_outside_the_table(
        tmp_path, typed_files, suite_files, network, coins, blamed, capsys):
    _, pp = suite_files
    sp = typed_files[network]
    cm = pp if coins == "coin" else typed_files[coins]
    capsys.readouterr()
    refused_naming(capsys, ["stochastic-suite", sp, cm, "--trials", "5"],
                   sp if blamed == "network" else cm)


def test_a_base_op_with_an_argument_is_refused_at_read_time(tmp_path, capsys):
    # the compiler would wire ["push0", "junk"] as push0 while stack_run
    # finds no semantics for it: every word read error:MachineStuck
    def junk(d):
        for row in d["rows"]:
            row[3] = {s: ["push0", "junk"] if op == "push0" else op
                      for s, op in row[3].items()}
        return d
    sm = dyck_sm().to_json()
    good = write_json(tmp_path / "dyck.sm", sm)
    np = tmp_path / "dyck.rnn"
    assert main(["compile", good, "--out", str(np)]) == 0
    bad = write_json(tmp_path / "junk.sm", junk(copy.deepcopy(sm)))
    out = tmp_path / "junk.rnn"
    capsys.readouterr()
    assert main(["compile", bad, "--out", str(out)]) == 2
    assert_one_error(capsys, "unknown op ('push0', 'junk')")
    assert not out.exists()

    net = json.loads(np.read_text())
    bad_net = write_json(tmp_path / "junk.rnn",
                         {**net, "machine": junk(net["machine"])})
    cp = write_corpus(tmp_path / "c.txt", ["", "0", "01", "0011"])
    assert main(["verify", bad, bad_net, "--corpus", cp]) == 2
    assert_one_error(capsys, "unknown op ('push0', 'junk')")


# ------------------------------------------------------------ diagonalize

def test_diagonalize_singleton_empty_family(tmp_path, capsys):
    fp = tmp_path / "family.txt"
    fp.write_text("-\n")
    out = tmp_path / "slice.txt"
    assert main(["diagonalize", str(fp), "2", "1", "--out", str(out)]) == 0
    assert out.read_text() == "00\n"
    recs = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert recs[-1]["escapes"] is True


def test_diagonalize_precondition_exit(tmp_path, capsys):
    fp = tmp_path / "family.txt"
    fp.write_text("-\n")
    out = tmp_path / "slice.txt"
    # budget too deep for the length: f_n + 1 halvings need 2^n words
    assert main(["diagonalize", str(fp), "1", "2", "--out", str(out)]) == 2
    assert not out.exists()
    assert "error:" in capsys.readouterr().err

    fp.write_text("000\n")  # member length disagrees with n
    assert main(["diagonalize", str(fp), "2", "1", "--out", str(out)]) == 2

    fp.write_text("-\n")
    assert main(["diagonalize", str(fp), "-1", "0", "--out", str(out)]) == 2
    binary = write_binary(tmp_path / "binary.dat")
    assert main(["diagonalize", binary, "2", "1", "--out", str(out)]) == 2
    assert not out.exists()

    capsys.readouterr()
    nodir = str(tmp_path / "nodir" / "s.txt")
    assert main(["diagonalize", str(fp), "2", "1", "--out", nodir]) == 2
    assert_one_error(capsys, f"cannot write {nodir}")


def test_diagonalize_escapes_a_real_family(tmp_path):
    fp = tmp_path / "family.txt"
    fp.write_text("000,001\n010\n-\n011,100,101\n")
    out = tmp_path / "slice.txt"
    assert main(["diagonalize", str(fp), "3", "2", "--out", str(out)]) == 0
    line = out.read_text().strip()
    produced = frozenset() if line == "-" else frozenset(line.split(","))
    family = [frozenset(), {"000", "001"}, {"010"}, {"011", "100", "101"}]
    assert all(produced != frozenset(m) for m in family)


# ------------------------------------------------------------- kolmogorov

def test_kolmogorov_roundtrip_modes(tmp_path):
    for g in ("log2", "sqrt"):
        rc, recs = run_to_records(
            tmp_path,
            ["kolmogorov", "--mode", "roundtrip", "--g", g,
             "--n-max", "40", "--trials", "25", "--seed", "5"],
            f"rt-{g}.jsonl")
        assert rc == 0
        agg = recs[-1]
        assert agg["failures"] == 0 and agg["checked"] == 25 * 41

    assert main(["kolmogorov", "--trials", "0"]) == 2
    for mode in ("roundtrip", "kfg"):
        for g in sorted(BOUNDS):
            out = tmp_path / f"neg-{mode}-{g}.jsonl"
            assert main(["kolmogorov", "--mode", mode, "--g", g,
                         "--n-max", "-1", "--out", str(out)]) == 2
            assert not out.exists()


def test_kolmogorov_kfg_mode(tmp_path):
    rc, recs = run_to_records(
        tmp_path,
        ["kolmogorov", "--mode", "kfg", "--g", "log2", "--n-max", "48",
         "--seed", "9"])
    assert rc == 0
    assert recs[-1]["ok"] is True and recs[-1]["checks"] > 0
    assert any(r["record"] == "kfg" and "clean-from" in r["line"]
               for r in recs)


def test_kolmogorov_rerun_byte_identical(tmp_path):
    argv = ["kolmogorov", "--mode", "roundtrip", "--n-max", "24",
            "--trials", "10", "--seed", "21"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ shell

def test_bad_invocations_exit_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_records_are_line_json_with_sorted_keys(tmp_path, parity_files):
    mp, np = parity_files
    cp = write_corpus(tmp_path / "c.txt", ["", "0", "11"])
    out = tmp_path / "r.jsonl"
    assert main(["verify", mp, np, "--corpus", cp, "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        obj = json.loads(line)
        assert list(obj) == sorted(obj)
        assert json.dumps(obj, sort_keys=True,
                          separators=(",", ":")) == line


# ----------------------------------------------------- one-field mutations

MUTANTS = (None, "", [], [[]], {}, 1.5, True)
# fields of the compiled network that are read strictly: any other
# value of one of them, or of an entry inside it, exits 2
STRICT_RNN = (("layout",), ("machine", "extra_ops"), ("machine", "initial"),
              ("cfg", "h0"), ("cfg", "cell_names"))
# and of the analog and evolving network files
STRICT_ADVICE = (("base", "n_in"), ("bias_cell",))


def fields(d, path=()):
    """The path of every field of d and of the objects inside it; one
    entry of a compiled network's layout stands for all of them, the
    cell at index 1, which true would equal."""
    for key, v in d.items():
        yield path + (key,)
        if key == "layout":
            yield path + (key, next(n for n, i in v.items() if i == 1))
        elif isinstance(v, dict):
            yield from fields(v, path + (key,))


def mutated(d, path, value):
    d = copy.deepcopy(d)
    inner = d
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return d


def test_one_field_mutations_of_the_readme_files(tmp_path, capsys):
    # each field of the README demo files and of the advice-eater pairs,
    # set to each of MUTANTS, goes through the commands that read the
    # file: none may crash, and a mutated type, rule list, initial state
    # or strict field of a network file is refused with one error line
    tm = parity_tm().to_json()
    mp = write_json(tmp_path / "parity.tm", tm)
    np = str(tmp_path / "parity.rnn")
    assert main(["compile", mp, "--out", np]) == 0
    files = {
        "parity.tm": tm,
        "parity.rnn": json.loads(Path(np).read_text()),
        "maj3.snn": majority3_snn(two_thirds_stream()).to_json(),
        "coin.ptma": {"type": "coin-match"},
        "eat.tma": advice_eater_tma().to_json(),
        "eat.ann": ann_from_tma(advice_eater_tma(), eater_stream(8)).to_json(),
        "eat.enn": enn_from_tma(advice_eater_tma(), eater_stream(8)).to_json(),
    }
    sp = write_json(tmp_path / "maj3.snn", files["maj3.snn"])
    pp = write_json(tmp_path / "coin.ptma", files["coin.ptma"])
    tp, ap, ep = (write_json(tmp_path / name, files[name])
                  for name in ("eat.tma", "eat.ann", "eat.enn"))
    cp = write_corpus(tmp_path / "corpus.txt", ["", "0", "1", "01", "0110",
                                                 "10101"])
    eat = ["--corpus", write_corpus(tmp_path / "eat.txt", ["", "1", "01"]),
           "--max-steps", "5000"]
    suite = ["--trials", "20", "--seed", "7"]
    out = str(tmp_path / "out.rnn")
    capsys.readouterr()
    for name, doc in files.items():
        bad = str(tmp_path / ("bad-" + name))
        commands = {
            "parity.tm": [["compile", bad, "--out", out],
                          ["verify", bad, np, "--corpus", cp]],
            "parity.rnn": [["verify", mp, bad, "--corpus", cp]],
            "maj3.snn": [["stochastic-suite", bad, pp] + suite],
            "coin.ptma": [["stochastic-suite", sp, bad] + suite],
            "eat.tma": [["verify", bad, ap] + eat, ["verify", bad, ep] + eat],
            "eat.ann": [["verify", tp, bad] + eat],
            "eat.enn": [["verify", tp, bad] + eat],
        }[name]
        strict_paths = {"parity.rnn": STRICT_RNN, "eat.ann": STRICT_ADVICE,
                        "eat.enn": STRICT_ADVICE}.get(name, ())
        for path in fields(doc):
            strict = path[-1] in ("type", "trans", "rows", "initial") or any(
                path[:len(p)] == p for p in strict_paths)
            for value in MUTANTS:
                text = json.dumps(mutated(doc, path, value))
                Path(bad).write_text(text)
                for argv in commands:
                    rc = main(argv)
                    err = capsys.readouterr().err
                    case = f"{argv[0]} {name} {path}={value!r}"
                    assert rc in (0, 1, 2) and "Traceback" not in err, case
                    # compiled parity's extra_ops is [] already
                    if strict and text != json.dumps(doc):
                        errors = [line for line in err.splitlines()
                                  if line.startswith("error:")]
                        assert rc == 2 and len(errors) == 1, case
