"""Compiled networks against the symbolic machines they came from."""

import json
import random

import pytest

from exactrnn.compiler import (
    BASE_OP_TABLE, C_OP, C_RAMP, C_STEP, CompiledNetwork, NetBuilder,
    add_boot_and_clock, assemble_program, build_stack_circuit,
    compile_machine, wire_program,
)
from exactrnn.errors import CompileError
from exactrnn.machines import Row, StackMachineSpec, stack_run, tm_run, \
    tm_to_stack, TmSpec
from exactrnn.network import NetworkState, run_word, step
from exactrnn.words import as_rat, delta4, words_of_length

R = as_rat


# ---------------------------------------------------------------- fixtures

def parity_sm():
    rows = [
        Row("even", "0", {}, {}, "even"),
        Row("even", "1", {}, {}, "odd"),
        Row("odd", "0", {}, {}, "odd"),
        Row("odd", "1", {}, {}, "even"),
        Row("even", "end", {}, {}, "accept"),
        Row("odd", "end", {}, {}, "reject"),
    ]
    return StackMachineSpec(stacks=(), rows=rows, initial="even")


def dyck_sm():
    rows = [
        Row("scan", "0", {}, {"S": "push0"}, "scan"),
        Row("scan", "1", {"S": "0"}, {"S": "pop"}, "scan"),
        Row("scan", "1", {"S": "e"}, {}, "reject"),
        Row("scan", "end", {"S": "e"}, {}, "accept"),
        Row("scan", "end", {"S": "0"}, {}, "reject"),
    ]
    return StackMachineSpec(stacks=("S",), rows=rows, initial="scan")


def dyck_oracle(w):
    depth = 0
    for ch in w:
        depth += 1 if ch == "0" else -1
        if depth < 0:
            return False
    return depth == 0


def accept_all_sm():
    rows = [
        Row("s", "0", {}, {}, "s"),
        Row("s", "1", {}, {}, "s"),
        Row("s", "end", {}, {}, "accept"),
    ]
    return StackMachineSpec(stacks=(), rows=rows, initial="s")


def parity_tm():
    trans = {
        ("even", "0"): ("0", "R", "even"),
        ("even", "1"): ("1", "R", "odd"),
        ("odd", "0"): ("0", "R", "odd"),
        ("odd", "1"): ("1", "R", "even"),
        ("even", "_"): ("_", "S", "accept"),
        ("odd", "_"): ("_", "S", "reject"),
    }
    return TmSpec(trans=trans, initial="even")


def run_free(cfg, steps):
    """Step a closed network (no external drive) and collect states."""
    st = NetworkState(0, cfg.h0)
    hs = [st.h]
    for _ in range(steps):
        st, _y = step(cfg, st, (0, 0))
        hs.append(st.h)
    return hs


# ---------------------------------------------------------- stack circuit

def circuit_content(op, word, cycles=1):
    cfg = build_stack_circuit(op, word)
    hs = run_free(cfg, C_OP * cycles)
    return hs[C_OP * cycles][cfg.cell_names.index("stack/S/content")]


def test_stack_circuit_pop():
    assert circuit_content("pop", "01") == R("3/4")


def test_stack_circuit_push0():
    assert circuit_content("push0", "1110") == R("509/1024")


def test_stack_circuit_push1_empty():
    assert circuit_content("push1", "") == R("3/4")


def test_stack_circuit_noop():
    assert circuit_content("noop", "10") == R("13/16")


def test_stack_circuit_iterated():
    assert circuit_content("pop", "10", cycles=1) == R("1/4")
    assert circuit_content("pop", "10", cycles=2) == 0
    assert circuit_content("push0", "", cycles=2) == R("5/16")
    assert circuit_content("push0", "", cycles=3) == R("21/64")


def test_stack_circuit_observations():
    for word, top, empty in (("1110", 1, 1), ("01", 0, 1), ("", 0, 0)):
        cfg = build_stack_circuit("noop", word)
        hs = run_free(cfg, 2)
        assert hs[2][cfg.cell_names.index("stack/S/top")] == top
        assert hs[2][cfg.cell_names.index("stack/S/empty")] == empty


def test_stack_circuit_unknown_op():
    with pytest.raises(CompileError):
        build_stack_circuit("push5", "0")


# ------------------------------------------------------- program rewriting

def test_assemble_program_reserves_io_stacks():
    rows = [Row("s", "end", {}, {}, "accept")]
    bad = StackMachineSpec(stacks=("IN",), rows=[
        Row("s", "end", {"IN": "e"}, {}, "accept")], initial="s")
    with pytest.raises(CompileError):
        assemble_program(bad)
    prog = assemble_program(StackMachineSpec((), rows, "s"))
    assert prog.stacks == ("IN", "OUT")
    assert prog.initial == "@rev"


def test_assemble_program_rejects_foreign_ops():
    rows = [Row("s", "end", {}, {"S": ("push5", "X")}, "accept")]
    sm = StackMachineSpec(stacks=("S",), rows=rows, initial="s",
                          extra_ops=("push5",))
    with pytest.raises(CompileError):
        assemble_program(sm)


def run_program(prog, w, bound=1000, want_trace=False):
    """Symbolic run of an assembled program: input is not read from the
    tape but preloaded on IN with the newest symbol on top, exactly the
    state the input absorber leaves behind."""
    return stack_run(prog, "", bound, init_stacks={"IN": w[::-1]},
                     want_trace=want_trace)


def test_assembled_program_runs_like_source():
    sm = dyck_sm()
    prog = assemble_program(sm)
    for n in range(7):
        for w in words_of_length(n):
            want = stack_run(sm, w, 1000).kind
            got = run_program(prog, w).kind
            assert got == want, w


# -------------------------------------------------------- compiled parity

def test_compiled_trivial_word():
    net = compile_machine(accept_all_sm())
    d = net.run("")
    assert d.kind == "accept"
    assert d.tau == 11
    assert d.tau <= net.time_bound(0, 1)


def test_compiled_parity_exhaustive():
    net = compile_machine(parity_sm())
    for n in range(7):
        for w in words_of_length(n):
            d = net.run(w)
            want = "accept" if w.count("1") % 2 == 0 else "reject"
            assert d.kind == want, w
            s = n + 1
            assert d.tau == 6 * n + 5 * s + 6
            assert d.tau <= C_RAMP + C_STEP * (s + n)


def test_compiled_accept_all_tau_formula():
    net = compile_machine(accept_all_sm())
    for w in ("", "0", "11", "010", "1111"):
        d = net.run(w)
        n = len(w)
        assert d.kind == "accept"
        assert d.tau == 11 * n + 11


# ---------------------------------------------------------- compiled dyck

def test_compiled_dyck_exhaustive():
    net = compile_machine(dyck_sm())
    for n in range(7):
        for w in words_of_length(n):
            d = net.run(w)
            want = "accept" if dyck_oracle(w) else "reject"
            assert d.kind == want, w


def test_compiled_dyck_random_words():
    net = compile_machine(dyck_sm())
    rng = random.Random(20260814)
    for _ in range(40):
        n = rng.randint(7, 14)
        w = "".join(rng.choice("01") for _ in range(n))
        d = net.run(w)
        want = "accept" if dyck_oracle(w) else "reject"
        assert d.kind == want, w
        assert d.tau <= net.time_bound(n, net.machine_steps(w))


# ----------------------------------------------- tape machine end to end

def test_compiled_tape_machine_matches_tm_run():
    tm = parity_tm()
    sm = tm_to_stack(tm)
    net = compile_machine(sm)
    for n in range(5):
        for w in words_of_length(n):
            want = tm_run(tm, w, 1000).kind
            assert net.run(w).kind == want, w


# ------------------------------------------------------ value discipline

DELTA4_ROLES = ("content", "abs", "b1", "b2", "b3",
                "cand_push0", "cand_push1", "cand_pop", "cand_noop")


def test_compiled_run_value_discipline():
    """Every cell is boolean except the content family, which stays in
    the stack-encoding image; content cells decode to the symbolic
    stacks at the top of every cycle."""
    net = compile_machine(dyck_sm())
    w = "001011"
    n = len(w)
    d = net.run(w, want_trace=True)
    assert d.kind == "accept"
    names = net.cfg.cell_names
    for t, h, _y in d.trace:
        for i, v in enumerate(h):
            role = names[i].rsplit("/", 1)[-1]
            if role in DELTA4_ROLES:
                assert v == 0 or R("1/4") <= v < 1, (t, names[i], v)
            else:
                assert v in (0, 1), (t, names[i], v)

    prog_trace = run_program(net.program, w, want_trace=True).trace
    h_at = {t: h for t, h, _y in d.trace}
    # absorbed input is handed over reversed (newest bit on top)
    assert h_at[n + 1][net.layout["stack/IN/content"]] == delta4(w[::-1])
    for k, (_steps, _state, stacks) in enumerate(prog_trace):
        t = n + 7 + 5 * k
        if t not in h_at:
            break
        for s, content in stacks.items():
            got = h_at[t][net.layout[f"stack/{s}/content"]]
            assert got == delta4(content), (t, s, content)


def test_layout_is_a_bijection():
    net = compile_machine(dyck_sm())
    assert sorted(net.layout.values()) == list(range(net.cfg.k))
    for role in ("clk/0", "clk/4", "boot/pulse2", "stack/IN/abs",
                 "stack/OUT/content", "stack/S/cand_pop",
                 "state/@rev/s2", "out/decision", "out/spike"):
        assert role in net.layout


def test_compiled_net_is_strict_about_budget():
    net = compile_machine(parity_sm())
    with pytest.raises(ValueError):
        net.run("01", machine_bound=1)
    d = run_word(net.cfg, "01", 20)  # below the spike time of 33
    assert d.kind == "timeout"


def test_compiled_json_dump_is_stable():
    net = compile_machine(parity_sm())
    d1 = net.to_json()
    d2 = compile_machine(parity_sm()).to_json()
    assert d1 == d2
    assert d1["constants"] == {"c_ramp": 5, "c_step": 6, "c_op": 5}


@pytest.mark.parametrize("sm", [parity_sm, dyck_sm])
def test_compiled_json_round_trips(sm):
    net = compile_machine(sm())
    text = json.dumps(net.to_json(), sort_keys=True)
    back = CompiledNetwork.from_json(json.loads(text))
    assert json.dumps(back.to_json(), sort_keys=True) == text
    assert back.program.to_json() == net.program.to_json()
    for w in ("", "01", "0110"):
        assert back.run(w).kind == net.run(w).kind


@pytest.mark.parametrize("op", ["push5", ("push5", "X")])
def test_wiring_refuses_an_op_without_a_candidate_template(op):
    # assemble_program lets push5 through for a caller that brings its
    # own op table; wired without one, the guard has nothing to select
    sm = StackMachineSpec(stacks=("S",), initial="s", extra_ops=("push5",),
                          rows=[Row("s", "end", {}, {"S": op}, "accept")])
    program = assemble_program(sm, allowed_extra=("push5",))
    b = NetBuilder(n_in=2)
    with pytest.raises(CompileError, match="has no candidate template"):
        wire_program(b, add_boot_and_clock(b), program)
