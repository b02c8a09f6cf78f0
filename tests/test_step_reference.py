"""Integer network stepping against the Fraction reference, tolerance zero.

``fraction_step`` below is the update this package ran before states
became integer numerators over a shared denominator: per-operation
rational arithmetic over the live cells, then the hard-threshold
readout.  ``fraction_truncated_loop`` is the truncated run built the
same way, from ``truncate_config`` and ``trunc_frac`` on every cell.
Both read only the public rational weight dictionaries, so they share
no arithmetic with the code under test.  Every comparison demands the
same states, the same output pairs, the same decisions, and the same
error type and message.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from exactrnn import augmented as aug
from exactrnn.compiler import compile_machine
from exactrnn.errors import ProtocolViolation, UndefinedThreshold
from exactrnn.machines import stack_run, tm_to_stack
from exactrnn.network import Decision, NetworkState, RnnConfig, input_at, step, theta
from exactrnn.words import ZERO, as_rat, delta4, sigma, trunc_frac
from exactrnn.zoo import (
    dyck_sm, first_coin_snn, majority3_snn, parity_tm, stream_compare_tma,
    three_quarters_stream, two_thirds_stream,
)

R = as_rat


# ------------------------------------------------------------ reference


def fraction_readout(cfg, h):
    vals = []
    for row in (0, 1):
        acc = ZERO
        for (r, j), w in sorted(cfg.w_out.items()):
            if r == row and h[j]:
                acc += w * h[j]
        vals.append(theta(acc))
    return tuple(vals)


def fraction_step(cfg, h, x):
    """One update in Fraction arithmetic; returns (next h, output pair)."""
    contrib = {}
    for (i, c), w in sorted(cfg.w_in.items()):
        if c < cfg.n_in and x[c]:
            contrib[i] = contrib.get(i, ZERO) + w * x[c]
    for (i, j), w in sorted(cfg.w_res.items()):
        if h[j]:
            contrib[i] = contrib.get(i, ZERO) + w * h[j]
    bias = {i: w for (i, c), w in cfg.w_in.items() if c == cfg.n_in}
    live = set(contrib) | {i for i, w in bias.items() if w > 0}
    h1 = [ZERO] * cfg.k
    for i in live:
        v = contrib.get(i, ZERO) + bias.get(i, ZERO)
        if v > 0:
            h1[i] = sigma(v)
    h1 = tuple(h1)
    return h1, fraction_readout(cfg, h1)


def fraction_truncation(cfg, q):
    def cut(d):
        return {key: trunc_frac(v, q) for key, v in d.items()}

    return RnnConfig(k=cfg.k, w_in=cut(cfg.w_in), w_res=cut(cfg.w_res),
                     w_out=cut(cfg.w_out), h0=[trunc_frac(v, q) for v in cfg.h0],
                     n_in=cfg.n_in)


def fraction_truncated_loop(cfg, w, steps, q, x2=None):
    tcfg = aug.truncate_config(cfg, q)
    ref = fraction_truncation(cfg, q)
    assert (tcfg.w_in, tcfg.w_res, tcfg.w_out, tcfg.h0) == \
        (ref.w_in, ref.w_res, ref.w_out, ref.h0)
    h = tcfg.h0
    for t in range(steps):
        h, _y = fraction_step(tcfg, h, input_at(w, t, tcfg.n_in, x2))
        h = tuple(trunc_frac(v, q) for v in h)
        y = fraction_readout(tcfg, h)
        if y[1] == 1:
            return Decision("accept" if y[0] == 1 else "reject", tau=t + 1)
        if y[0] != 0:
            raise ProtocolViolation(
                f"output bit fired without validation at t={t + 1}")
    return Decision("timeout")


def outcome(fn):
    """("ok", value) or (error name, message) for the errors a garbled
    network raises."""
    try:
        return "ok", fn()
    except (UndefinedThreshold, ProtocolViolation) as exc:
        return type(exc).__name__, str(exc)


def decision(fn):
    tag, val = outcome(fn)
    return (tag, (val.kind, val.tau)) if tag == "ok" else (tag, val)


# ------------------------------------------------------------- drivers


def assert_steps_agree(cfg, xs):
    """Step both from h0 through the input vectors xs, comparing every
    state and output pair, up to and including a step that raises."""
    state, h = NetworkState(0, cfg.h0), cfg.h0
    assert state.h == h
    for t, x in enumerate(xs, 1):
        tag, got = outcome(lambda: step(cfg, state, x))
        want_tag, want = outcome(lambda: fraction_step(cfg, h, x))
        if want_tag != "ok":
            assert (tag, got) == (want_tag, want)
            return
        assert tag == "ok"
        state, y = got
        h = want[0]
        assert (state.t, state.h, y) == (t, h, want[1])
        assert all(state.nums.values())       # only live cells are kept


def protocol_inputs(cfg, w, steps, x2=None):
    return [input_at(w, t, cfg.n_in, x2) for t in range(steps)]


def compiled_nets():
    return [compile_machine(tm_to_stack(parity_tm())), compile_machine(dyck_sm())]


WORDS = ["".join(b) for n in range(4) for b in itertools.product("01", repeat=n)]


# ----------------------------------------------------------- exact step


def test_step_matches_reference_on_compiled_parity_and_dyck():
    for net in compiled_nets():
        for w in WORDS + ["0110100", "00101101"]:
            s = stack_run(net.machine, w, 10 ** 5).tau
            assert_steps_agree(net.cfg, protocol_inputs(
                net.cfg, w, net.time_bound(len(w), s)))


def test_step_matches_reference_on_zoo_nets():
    for snn in (majority3_snn(two_thirds_stream()),
                first_coin_snn(three_quarters_stream())):
        for coins in itertools.product((0, 1), repeat=4):
            assert_steps_agree(snn.base, protocol_inputs(snn.base, "", 4, coins))
    m, r = stream_compare_tma(), two_thirds_stream()
    e = aug.enn_from_tma(m, r)
    lifted = aug._lift_evolving(e.base)
    assert_steps_agree(lifted, protocol_inputs(lifted, "1", 200,
                                               e.evolving_bias.bit))
    a = aug.ann_from_tma(m, r)
    biased = aug._with_prefix_bias(a, 40)
    assert_steps_agree(biased, protocol_inputs(biased, "10", 150))


fracs = st.fractions(min_value=-2, max_value=2, max_denominator=12)
unit = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def sparse_configs(draw):
    k = draw(st.integers(1, 6))
    n_in = draw(st.sampled_from((2, 3)))
    cells = st.integers(0, k - 1)
    w_in = draw(st.dictionaries(st.tuples(cells, st.integers(0, n_in)), fracs,
                                max_size=2 * k))
    w_res = draw(st.dictionaries(st.tuples(cells, cells), fracs, max_size=2 * k))
    w_out = draw(st.dictionaries(st.tuples(st.integers(0, 1), cells), fracs,
                                 max_size=3))
    h0 = draw(st.lists(unit, min_size=k, max_size=k))
    return RnnConfig(k=k, w_in=w_in, w_res=w_res, w_out=w_out, h0=h0, n_in=n_in)


@settings(max_examples=150, deadline=None)
@given(sparse_configs(), st.data())
def test_step_matches_reference_on_random_rational_configs(cfg, data):
    xs = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * cfg.n_in),
                            max_size=10))
    assert_steps_agree(cfg, xs)


# ------------------------------------------------------- truncated runs


def test_truncated_loop_matches_reference_on_compiled_nets():
    for net in compiled_nets():
        for w in ["", "1", "01", "110"]:
            s = stack_run(net.machine, w, 10 ** 5).tau
            steps = net.time_bound(len(w), s)
            for q in (1, 2, 3, 5, 8):
                assert decision(lambda: aug._truncated_loop(net.cfg, w, steps, q)) \
                    == decision(lambda: fraction_truncated_loop(net.cfg, w, steps, q))


def test_truncated_runs_match_reference_on_analog_and_evolving_nets():
    m, r = stream_compare_tma(), two_thirds_stream()
    a = aug.ann_from_tma(m, r)
    for w, q in (("", 4), ("1", 30), ("10", 61), ("10", 200)):
        biased = RnnConfig(k=a.base.k, w_in={**a.base.w_in, (0, 2): delta4(
            r.prefix(q))}, w_res=a.base.w_res, w_out=a.base.w_out, h0=a.base.h0)
        steps = 40 * len(w) + 60
        assert decision(lambda: aug.truncate_run(a, aug.TruncationPolicy(q), w, steps)) \
            == decision(lambda: fraction_truncated_loop(biased, w, steps, q))
    e = aug.enn_from_tma(m, r)
    lifted = aug._lift_evolving(e.base)
    for q in (3, 40, 320):
        assert decision(lambda: aug.truncate_run(e, aug.TruncationPolicy(q), "", 320)) \
            == decision(lambda: fraction_truncated_loop(lifted, "", 320, q,
                                                        e.evolving_bias.bit))


def test_truncated_loop_raises_like_reference_where_calibration_fails():
    # the spike cell holds a third; one bit cuts it to zero (a timeout),
    # and every finer truncation parks the readout strictly inside
    # (0,1), which calibrate_c counts as a failure
    cfg = RnnConfig(k=1, w_in={(0, 2): R(1) / 3}, w_res={},
                    w_out={(0, 0): 3, (1, 0): 3})
    for q in range(1, 9):
        got = decision(lambda: aug._truncated_loop(cfg, "", 1, q))
        assert got[0] == ("ok" if q == 1 else "UndefinedThreshold")
        assert got == decision(lambda: fraction_truncated_loop(cfg, "", 1, q))
    stray = RnnConfig(k=1, w_in={(0, 2): 1}, w_res={}, w_out={(0, 0): 1})
    for q in (1, 4):
        got = decision(lambda: aug._truncated_loop(stray, "", 3, q))
        assert got[0] == "ProtocolViolation"
        assert got == decision(lambda: fraction_truncated_loop(stray, "", 3, q))


def test_truncated_state_not_the_uncut_one_drives_the_output():
    # the uncut step leaves 1/8 in cell 1, which spikes through weight 8;
    # two bits cut it to 0, so the truncated run stays silent
    cfg = RnnConfig(k=2, w_in={}, w_res={(1, 0): R(1) / 2},
                    w_out={(0, 1): 8, (1, 1): 8}, h0=["1/4", 0])
    assert decision(lambda: aug._truncated_loop(cfg, "", 1, 3)) == ("ok", ("accept", 1))
    assert decision(lambda: aug._truncated_loop(cfg, "", 1, 2)) == ("ok", ("timeout", None))
    assert decision(lambda: fraction_truncated_loop(cfg, "", 1, 2)) == ("ok", ("timeout", None))


@settings(max_examples=150, deadline=None)
@given(sparse_configs(), st.integers(1, 12), st.text("01", max_size=4),
       st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_truncated_loop_matches_reference_on_random_rational_configs(cfg, q, w, x2):
    steps = len(w) + 4
    assert decision(lambda: aug._truncated_loop(cfg, w, steps, q, x2)) \
        == decision(lambda: fraction_truncated_loop(cfg, w, steps, q, x2))


def test_truncated_config_is_built_once_per_precision():
    cfg = RnnConfig(k=1, w_in={(0, 2): R(2) / 3}, w_res={(0, 0): R(-2) / 3})
    assert aug.truncate_config(cfg, 5) is aug.truncate_config(cfg, 5)
    assert aug.truncate_config(cfg, 5) is not aug.truncate_config(cfg, 6)
    dyadic = RnnConfig(k=1, w_in={(0, 2): R(3) / 4}, w_res={}, h0=["1/2"])
    assert aug.truncate_config(dyadic, 2) is dyadic


def test_state_keeps_live_cells_over_one_denominator():
    h = (R(0), R(1) / 6, R(3) / 4, R(1))
    s = NetworkState(3, h)
    assert (s.t, s.den, s.nums) == (3, 12, {1: 2, 2: 9, 3: 12})
    assert s.h == h
    cut = s.truncated(2)
    assert (cut.den, cut.nums, cut.h) == (4, {2: 3, 3: 4}, (0, 0, R(3) / 4, 1))
    assert NetworkState(0, h).truncated(4).h == tuple(trunc_frac(v, 4) for v in h)
