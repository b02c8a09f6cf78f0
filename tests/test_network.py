"""Network simulator: exact stepping, threshold semantics, I/O protocol.

The 2-cell trace below was produced by an independent Fraction-based
oracle script and frozen here.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrnn.errors import ProtocolViolation, UndefinedThreshold
from exactrnn.network import (
    Decision, NetworkState, RnnConfig, common_factor, run_word, step, theta)
from exactrnn.words import as_rat

R = as_rat


def zero_net(k=1):
    return RnnConfig(k=k, w_in={}, w_res={}, w_out={}, h0=[0] * k)


def bias_net():
    # K=1, constant bias 1: cell saturates to 1 after one step, both
    # output rows read it directly
    return RnnConfig(
        k=1,
        w_in={(0, 2): 1},
        w_res={},
        w_out={(0, 0): 1, (1, 0): 1},
        h0=[0],
    )


def test_theta_cases():
    assert theta(R(-1)) == 0
    assert theta(R(0)) == 0
    assert theta(R(1)) == 1
    assert theta(R(3) / 2) == 1
    with pytest.raises(UndefinedThreshold):
        theta(R(1) / 2)


def test_zero_network_step():
    cfg = zero_net()
    st1, y = step(cfg, NetworkState(0, (R(0),)), (0, 0))
    assert st1.h == (0,) and st1.t == 1
    assert y == (0, 0)


def test_zero_network_times_out():
    d = run_word(zero_net(), "0110", max_steps=100)
    assert d.kind == "timeout" and d.tau is None


def test_bias_network_accepts_immediately():
    cfg = bias_net()
    st1, y = step(cfg, NetworkState(0, (R(0),)), (0, 0))
    assert st1.h == (1,) and y == (1, 1)
    d = run_word(cfg, "", max_steps=10)
    assert d.kind == "accept" and d.tau == 1


def test_protocol_violation_on_stray_output():
    # y_0 fires without the validation spike y_1
    cfg = RnnConfig(k=1, w_in={(0, 2): 1}, w_res={}, w_out={(0, 0): 1}, h0=[0])
    with pytest.raises(ProtocolViolation):
        run_word(cfg, "", max_steps=10)


def test_frozen_two_cell_trace():
    cfg = RnnConfig(
        k=2,
        w_in={(0, 0): "1/2", (1, 2): "1/4"},
        w_res={(0, 0): "1/2", (1, 1): 1},
        h0=[0, 0],
    )
    d = run_word(cfg, "1", max_steps=5, want_trace=True)
    assert d.kind == "timeout"
    hs = [h for (_, h, _) in d.trace]
    assert hs[0] == (R(1) / 2, R(1) / 4)
    assert hs[1] == (R(1) / 4, R(1) / 2)
    assert hs[2] == (R(1) / 8, R(3) / 4)
    assert hs[3] == (R(1) / 16, R(1))
    assert hs[4] == (R(1) / 32, R(1))


def test_max_steps_precondition():
    with pytest.raises(ValueError):
        run_word(zero_net(), "0101", max_steps=2)


small_rat = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, 2), small_rat),
                     max_size=8),
            st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), small_rat),
                     max_size=8),
            st.lists(st.fractions(min_value=0, max_value=1, max_denominator=8),
                     min_size=k, max_size=k),
        )
    ),
    st.text(alphabet="01", max_size=6),
)
def test_states_stay_in_unit_box(cfg_parts, w):
    k, win, wres, h0 = cfg_parts
    cfg = RnnConfig(
        k=k,
        w_in={(i, c): R(f) for (i, c, f) in win},
        w_res={(i, j): R(f) for (i, j, f) in wres},
        w_out={},
        h0=[R(f) for f in h0],
    )
    d = run_word(cfg, w, max_steps=len(w) + 4, want_trace=True)
    assert d.kind == "timeout"  # zero W_out never spikes
    for (_, h, y) in d.trace:
        assert all(0 <= v <= 1 for v in h)
        assert y == (0, 0)


def test_determinism():
    cfg = bias_net()
    a = run_word(cfg, "", max_steps=5, want_trace=True)
    b = run_word(cfg, "", max_steps=5, want_trace=True)
    assert a.trace == b.trace and a.kind == b.kind and a.tau == b.tau


def test_config_json_roundtrip():
    cfg = RnnConfig(
        k=2,
        w_in={(0, 0): "1/2", (1, 2): "1/4"},
        w_res={(0, 0): "1/2", (1, 1): 1},
        w_out={(0, 1): 1, (1, 1): 1},
        h0=[0, "1/3"],
        cell_names=("acc", "bias"),
    )
    blob = json.dumps(cfg.to_json(), sort_keys=True)
    cfg2 = RnnConfig.from_json(json.loads(blob))
    assert cfg2.k == cfg.k and cfg2.h0 == cfg.h0
    assert cfg2.cell_names == cfg.cell_names
    assert cfg2.w_in == cfg.w_in
    assert cfg2.w_res == cfg.w_res
    assert cfg2.w_out == cfg.w_out
    # serialization is stable
    assert json.dumps(cfg.to_json(), sort_keys=True) == json.dumps(
        cfg2.to_json(), sort_keys=True)
    # behavioral equality on a config safe to drive (no readout wires)
    plain = RnnConfig(k=2, w_in=cfg.w_in, w_res=cfg.w_res, h0=cfg.h0)
    plain2 = RnnConfig.from_json(json.loads(json.dumps(plain.to_json())))
    a = run_word(plain, "10", max_steps=6, want_trace=True)
    b = run_word(plain2, "10", max_steps=6, want_trace=True)
    assert a.trace == b.trace


def test_trace_lines():
    cfg = bias_net()
    d = run_word(cfg, "", max_steps=3, want_trace=True)
    lines = list(d.trace_lines())
    assert lines[0].startswith("t=1")
    assert "y=(1,1)" in lines[0].replace(" ", "")


def test_three_input_column_rejected_without_flag():
    with pytest.raises(ValueError):
        RnnConfig(k=1, w_in={(0, 3): 1}, w_res={}, w_out={}, h0=[0])
    cfg = RnnConfig(k=1, w_in={(0, 3): 1}, w_res={}, w_out={}, h0=[0], n_in=3)
    assert cfg.n_in == 3


@st.composite
def factor_cases(draw):
    """one below and above 2^64 (a power of two, odd, or the analog bias
    denominator 3 * 4^B), numerators equal to one or sharing a run of
    trailing zeros."""
    one = draw(st.one_of(st.integers(0, 300).map(lambda e: 1 << e),
                         st.integers(0, 1 << 300).map(lambda v: 2 * v + 1),
                         st.integers(0, 150).map(lambda b: 3 * 4 ** b)))
    shift = draw(st.integers(0, 300))
    nums = draw(st.lists(st.one_of(st.just(one), st.integers(0, 1 << 200).map(
        lambda m: m << shift)), max_size=6))
    return one, nums


@settings(max_examples=300, deadline=None)
@given(factor_cases())
@example((1 << 100, [1 << 100, 3 << 90]))
@example((3 * 4 ** 40, [3 * 4 ** 40, 3 << 100]))
@example((3 ** 50, [3 ** 50 * 5, 3 ** 49 << 70]))
def test_common_factor_is_the_gcd(case):
    one, nums = case
    assert common_factor(one, *nums) == math.gcd(one, *nums)
