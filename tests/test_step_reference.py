"""Integer network stepping against the Fraction reference, tolerance zero.

``fraction_step`` below is the update this package ran before states
became integer numerators over a shared denominator: per-operation
rational arithmetic over the live cells, then the hard-threshold
readout.  ``fraction_truncated_loop`` is the truncated run built the
same way, from ``truncate_config`` and ``trunc_frac`` on every cell.
Both read only the public rational weight dictionaries, so they share
no arithmetic with the code under test.  Every comparison demands the
same states, the same output pairs, the same decisions, and the same
error type and message.  The step, truncated-loop and interval-run
cases run twice: as written, where every config stays cold and takes
the interpreted loop, and with every config hot from its first step,
where each step of a net with two input lines, and each step of any net
once one of its steps was long, runs a generated kernel.
"""

import itertools
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from exactrnn import augmented as aug
from exactrnn import network
from exactrnn.compiler import compile_machine
from exactrnn.errors import PrecisionExhausted, ProtocolViolation, UndefinedThreshold
from exactrnn.machines import stack_run, tm_to_stack
from exactrnn.network import (
    Decision, NetworkState, RnnConfig, input_at, run_word, step, theta)
from exactrnn.words import BitStream, ZERO, as_rat, delta4, sigma, trunc_frac
from exactrnn.zoo import (
    advice_eater_tma, dyck_sm, eater_stream, first_coin_snn, majority3_snn,
    parity_tm, stream_compare_tma, three_quarters_stream, two_thirds_stream,
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
    network or an unsettled analog bias raises."""
    try:
        return "ok", fn()
    except (UndefinedThreshold, ProtocolViolation, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)


def decision(fn):
    tag, val = outcome(fn)
    return (tag, (val.kind, val.tau)) if tag == "ok" else (tag, val)


class _FractionUnresolved(Exception):
    pass


def fraction_pin(lo, hi):
    if hi <= 0:
        return 0
    if lo >= 1:
        return 1
    if lo > 0 and hi < 1:
        raise UndefinedThreshold(f"output interval [{lo}, {hi}] inside (0,1)")
    raise _FractionUnresolved


def fraction_interval_step(cfg, h, x, bias_cell, bias_iv):
    """Interval image of one step; the sums run over the integer weight
    numerators and are scaled by the common denominator at the end."""
    lo_c, hi_c = {}, {}

    def feed(i, w, lo, hi):
        if w > 0:
            lo_c[i] = lo_c.get(i, ZERO) + w * lo
            hi_c[i] = hi_c.get(i, ZERO) + w * hi
        else:
            lo_c[i] = lo_c.get(i, ZERO) + w * hi
            hi_c[i] = hi_c.get(i, ZERO) + w * lo

    for c in range(cfg.n_in):
        if x[c]:
            for i, w in cfg._in_cols[c]:
                feed(i, w, x[c], x[c])
    for j, iv in h.items():
        col = cfg._res_by_col.get(j)
        if col:
            for i, w in col:
                feed(i, w, iv[0], iv[1])
    live = set(hi_c)
    live.update(cfg._pos_bias)
    live.add(bias_cell)
    d = cfg._den
    h1 = {}
    for i in live:
        b = cfg._bias_map.get(i, 0)
        lo = (lo_c.get(i, ZERO) + b) / d
        hi = (hi_c.get(i, ZERO) + b) / d
        if i == bias_cell:
            lo, hi = lo + bias_iv[0], hi + bias_iv[1]
        lo, hi = sigma(lo), sigma(hi)
        if hi > 0:
            h1[i] = (lo, hi)
    return h1


def fraction_interval_readout(cfg, h):
    vals = []
    for row in cfg._out_rows:
        lo = hi = ZERO
        for j, w in row:
            iv = h.get(j)
            if iv is None:
                continue
            if w > 0:
                lo += w * iv[0]
                hi += w * iv[1]
            else:
                lo += w * iv[1]
                hi += w * iv[0]
        vals.append((lo / cfg._den, hi / cfg._den))
    return vals


def fraction_interval_run(cfg, bias_cell, bias_iv, w, max_steps):
    h = {i: (v, v) for i, v in enumerate(cfg.h0) if v}
    for t in range(max_steps):
        x = input_at(w, t, cfg.n_in)
        h = fraction_interval_step(cfg, h, x, bias_cell, bias_iv)
        (y0l, y0h), (y1l, y1h) = fraction_interval_readout(cfg, h)
        y1 = fraction_pin(y1l, y1h)
        y0 = fraction_pin(y0l, y0h)
        if y1 == 1:
            return Decision("accept" if y0 == 1 else "reject", tau=t + 1)
        if y0 != 0:
            raise ProtocolViolation(
                f"output bit fired without validation at t={t + 1}")
    return Decision("timeout")


def fraction_bias_iv(prefix):
    bits = len(prefix)
    base = delta4(prefix)
    return (base + as_rat(1) / 3 / 4 ** bits, base + as_rat(1) / 4 ** bits)


def fraction_ann_run(a, w, max_steps, start_bits=None, max_bits=1 << 16):
    if max_steps < len(w):
        raise ValueError("max_steps smaller than the input word")
    bits = start_bits if start_bits is not None else 16
    while bits <= max_bits:
        iv = fraction_bias_iv(a.bias_stream.prefix(bits))
        try:
            return fraction_interval_run(a.base, a.bias_cell, iv, w, max_steps)
        except _FractionUnresolved:
            bits *= 2
    raise PrecisionExhausted(f"still unresolved at {max_bits} bias digits")


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
        assert math.gcd(state.den, *state.nums.values()) == 1


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
def sparse_configs(draw, fracs=fracs):
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


def peak_one(cfg, xs):
    """Largest one = cfg._den * state.den that step multiplies over on xs."""
    state, peak = cfg._start, 0
    for x in xs:
        peak = max(peak, cfg._den * state.den)
        state, _ = step(cfg, state, x)
    return peak


def test_step_matches_reference_on_the_long_evolving_stack():
    # every evolving bit goes onto a base-4 stack, so the shared
    # denominator grows by two bits a step
    e = aug.enn_from_tma(advice_eater_tma(), eater_stream(4))
    lifted = aug._lift_evolving(e.base)
    tau = aug.enn_run(e, "0110", 5000).tau
    assert tau == 765
    xs = protocol_inputs(lifted, "0110", tau, e.evolving_bias.bit)
    assert_steps_agree(lifted, xs)
    assert peak_one(lifted, xs) > 1 << 64


def test_step_matches_reference_on_a_long_odd_denominator():
    # cell 0 keeps a third of itself, so the odd part of the shared
    # denominator gains a factor 3 every step; cell 1 stays at one and
    # cell 2 saturates at one on some steps
    half, third = R(1) / 2, R(1) / 3
    cfg = RnnConfig(k=3, w_in={(0, 0): R(1) / 5, (1, 2): 1, (2, 2): -R(1) / 4},
                    w_res={(0, 0): third, (0, 1): half, (2, 0): 2, (2, 1): -third})
    xs = protocol_inputs(cfg, "0110", 60)
    assert_steps_agree(cfg, xs)
    one = peak_one(cfg, xs)
    assert one >> ((one & -one).bit_length() - 1) > 1 << 64


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


@st.composite
def cut_states(draw):
    """(state, q) with state.den = den, since one cell holds 1/den; den
    is a power of two above, at or below 2^q, or has an odd factor.
    Small numerators cut to zero."""
    q = draw(st.integers(0, 70))
    den = draw(st.one_of(st.integers(0, 140).map(lambda e: 1 << e),
                         st.just(12), st.integers(0, 80).map(lambda e: 3 << e)))
    small = st.integers(0, min(4, den))
    nums = draw(st.lists(st.one_of(small, st.integers(0, den)), max_size=5))
    return NetworkState(7, [R(m) / den for m in nums] + [R(1) / den]), q


@settings(max_examples=300, deadline=None)
@given(cut_states())
@example((NetworkState(0, [R(5) / (1 << 40), R(1) / (1 << 40), 1]), 8))
@example((NetworkState(0, [R(3) / 256, R(1) / 256]), 8))
@example((NetworkState(0, [R(3) / 16, 1]), 8))
@example((NetworkState(0, [R(11) / 12, R(1) / 12]), 3))
@example((NetworkState(0, [R(7) / (3 << 30), R(1) / (3 << 30)]), 20))
def test_truncated_state_cuts_every_cell_like_trunc_frac(case):
    state, q = case
    cut = state.truncated(q)
    assert cut.t == state.t
    assert cut.h == tuple(trunc_frac(v, q) for v in state.h)
    assert all(cut.nums.values())               # cells cut to zero drop out
    if (1 << q) % state.den == 0:
        assert cut is state
    else:
        assert cut.den == 1 << q


# -------------------------------------------------------- interval runs


def assert_interval_steps_agree(a, w, steps, bits):
    """Step the interval net and the Fraction interval runner side by
    side at one bias precision, comparing every interval end; the bias
    ends must stay put and the net's state in lowest terms."""
    cfg, cell, k = a.base, a.bias_cell, a.base.k
    prefix = a.bias_stream.prefix(bits)
    iv = fraction_bias_iv(prefix)
    assert aug._bias_interval(prefix) == iv
    net = aug._interval_net(cfg, cell, *iv)
    state = net._start
    h = {i: (v, v) for i, v in enumerate(cfg.h0) if v}
    for t in range(steps):
        x = input_at(w, t, cfg.n_in)
        state, _y = step(net, state, x)
        h = fraction_interval_step(cfg, h, x, cell, iv)
        ends = state.h
        assert {i: (ends[i], ends[k + i]) for i in range(k) if ends[k + i]} == h
        assert ends[2 * k:] == iv
        assert math.gcd(state.den, *state.nums.values()) == 1


def ann_decisions_agree(a, w, steps, **bits):
    got = decision(lambda: aug.ann_run(a, w, steps, **bits))
    assert got == decision(lambda: fraction_ann_run(a, w, steps, **bits))
    return got


def test_ann_run_matches_reference_on_the_stream_compare_net():
    a = aug.ann_from_tma(stream_compare_tma(), two_thirds_stream())
    kinds = set()
    for w in WORDS:
        for steps in (40 * len(w) + 60, 10_000):
            tag, (kind, _tau) = ann_decisions_agree(a, w, steps)
            assert tag == "ok"
            kinds.add(kind)
    assert kinds == {"accept", "reject"}
    assert ann_decisions_agree(a, "10", 30) == ("ok", ("timeout", None))
    assert ann_decisions_agree(a, "101", 200, start_bits=1)[0] == "ok"
    assert_interval_steps_agree(a, "10", 140, 16)
    assert_interval_steps_agree(a, "1", 80, 2)


def analog_test_nets():
    """(network, bias stream) pairs; cell 1 reads the bias r at step 2.

    With r = 5/6 (stream 1000...), 6r - 9/2 sits on 1/2, which no
    precision can threshold, and 6r - 5 sits on 0, which every finite
    prefix leaves unresolved.  With r = 1/2 (stream 0111...), so does
    1 - 2r, read through a negative weight (the 1 from cell 2, so that
    cell 1 is 0 at step 1).  The last net's bias exceeds 5/6 only from
    digit 41 on, so it resolves after doubling to 64 digits."""
    five_sixths = BitStream.from_word("1")
    half = BitStream.from_word("0", tail_bit=1)
    late = BitStream.from_word("1" + "0" * 39 + "1")

    def net(w_in, w_res, out=1):
        return RnnConfig(k=3, w_in=w_in, w_res=w_res,
                         w_out={(0, 1): out, (1, 1): out})

    return [
        (net({(1, 2): R("-9/2")}, {(1, 0): 6}), five_sixths),
        (net({(1, 2): -5}, {(1, 0): 6}), five_sixths),
        (net({(2, 2): 1}, {(1, 0): -2, (1, 2): 1}), half),
        (net({(1, 2): -5}, {(1, 0): 6}, 4 ** 45), late),
    ]


def test_ann_run_matches_reference_when_doubling_and_exhausting():
    seen = set()
    for base, stream in analog_test_nets():
        a = aug.AnnSpec(base=base, bias_stream=stream)
        for start, cap in ((1, 1), (1, 8), (3, 40), (16, 256), (5, 4), (64, 64)):
            seen.add(ann_decisions_agree(a, "", 4, start_bits=start,
                                         max_bits=cap)[0])
        assert_interval_steps_agree(a, "", 4, 64)
    assert seen == {"ok", "UndefinedThreshold", "PrecisionExhausted"}


bias_streams = st.one_of(
    st.builds(BitStream.from_word, st.text("01", max_size=6), st.integers(0, 1)),
    st.builds(BitStream.from_periodic, st.text("01", max_size=3),
              st.text("01", min_size=1, max_size=3)),
    st.builds(BitStream.from_rational, unit),
)


@settings(max_examples=150, deadline=None)
@given(sparse_configs(), st.data())
def test_ann_run_matches_reference_on_random_rational_configs(cfg, data):
    cell = data.draw(st.integers(0, cfg.k - 1))
    base = RnnConfig(k=cfg.k, w_res=cfg.w_res, w_out=cfg.w_out, h0=cfg.h0,
                     n_in=cfg.n_in, w_in={key: v for key, v in cfg.w_in.items()
                                          if key != (cell, cfg.n_in)})
    a = aug.AnnSpec(base=base, bias_stream=data.draw(bias_streams),
                    bias_cell=cell)
    w = data.draw(st.text("01", max_size=3))
    start = data.draw(st.integers(1, 6))
    cap = data.draw(st.sampled_from((start, 4 * start, 32)))
    steps = len(w) + 4
    ann_decisions_agree(a, w, steps, start_bits=start, max_bits=cap)
    assert_interval_steps_agree(a, w, steps, start)


# ---------------------------------------------------------- hot configs
# (the hot fixture is in conftest.py)


def test_kernels_match_reference_on_compiled_parity_and_dyck(hot):
    test_step_matches_reference_on_compiled_parity_and_dyck()
    assert len(hot) > 100 and all(hot)


def test_kernels_match_reference_on_zoo_nets(hot):
    # the analog net turns hot at once, the evolving-bit net on its
    # first long step; the coin nets have a third input line and step
    # short, so they stay cold
    test_step_matches_reference_on_zoo_nets()
    assert hot and all(hot)


def test_kernels_hand_over_to_the_long_branch_like_reference(hot):
    test_step_matches_reference_on_the_long_evolving_stack()
    test_step_matches_reference_on_a_long_odd_denominator()
    # kernels serve both sizes: the evolving net turns hot on its first
    # long step, the odd-denominator net at once and crosses 64 bits hot
    assert hot and all(hot)


def test_kernels_clamp_sums_at_the_edge_of_their_bounds(hot):
    # cell 0: bias 1/2 and a self-loop of 1, so its sum can reach one
    # and a half, one unit over one; cell 1: bias 1/2 less half of
    # cell 0, so it can reach 0 exactly but not pass it.  Three patterns;
    # the second steps to itself, and then, with cell 1 at 0, to cell 0
    # alone, a successor it learns after its build and is built again for
    cfg = RnnConfig(k=2, w_in={(0, 2): R(1) / 2, (1, 2): R(1) / 2},
                    w_res={(0, 0): 1, (1, 0): R(-1) / 2})
    assert_steps_agree(cfg, [(0, 0)] * 4)
    assert len(hot) == 4 and all(hot)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_configs(), st.data())
def test_kernels_match_reference_on_random_rational_configs(hot, cfg, data):
    xs = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * cfg.n_in),
                            max_size=10))
    assert_steps_agree(cfg, xs)


def over_one_denominator(d):
    """Weights k/d, about half of them integers."""
    return st.one_of(st.integers(-2, 2).map(lambda n: n * d),
                     st.integers(-2 * d, 2 * d)).map(lambda n: R(n) / d)


# every weight of a config over one d, so that the factor a kernel takes
# out of its sums is 1, the config's denominator or a divisor between
shared_denominator_configs = st.sampled_from((2, 4, 6, 8, 12)).flatmap(
    lambda d: sparse_configs(over_one_denominator(d)))


def test_kernels_match_reference_at_every_pattern_factor(hot):
    factors = set()

    @settings(max_examples=150, deadline=None)
    @given(shared_denominator_configs, st.data())
    def check(cfg, data):
        xs = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * cfg.n_in),
                                max_size=10))
        hot.clear()
        assert_steps_agree(cfg, xs)
        factors.update((kern.factor, cfg._den) for kern in hot)

    check()
    # the draws above meet a factor strictly between 1 and d in about
    # three seeds of four; this step from zeros sums cell 0's bias
    # alone, 2/4, so f = 2 on d = 4 whatever they met
    hot.clear()
    cfg = RnnConfig(k=2, w_in={(0, 2): R(1) / 2}, w_res={(1, 0): R(1) / 4})
    assert_steps_agree(cfg, [(0, 0)] * 3)
    factors.update((kern.factor, cfg._den) for kern in hot)
    assert any(f == 1 for f, _d in factors)
    assert any(f == d > 1 for f, d in factors)
    assert any(1 < f < d for f, d in factors)


def test_kernels_run_the_truncated_loops_like_reference(hot):
    test_truncated_loop_matches_reference_on_compiled_nets()
    test_truncated_runs_match_reference_on_analog_and_evolving_nets()
    test_truncated_loop_raises_like_reference_where_calibration_fails()
    test_truncated_state_not_the_uncut_one_drives_the_output()
    assert hot and all(hot)


def test_kernels_run_interval_runs_like_reference(hot):
    # every attempt of ann_run steps its interval net, so a hot net
    # takes each step through a kernel
    test_ann_run_matches_reference_on_the_stream_compare_net()
    test_ann_run_matches_reference_when_doubling_and_exhausting()
    assert hot and all(hot)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_configs(), st.integers(1, 12), st.text("01", max_size=4),
       st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_kernels_run_random_truncated_loops_like_reference(hot, cfg, q, w, x2):
    steps = len(w) + 4
    assert decision(lambda: aug._truncated_loop(cfg, w, steps, q, x2)) \
        == decision(lambda: fraction_truncated_loop(cfg, w, steps, q, x2))


# -------------------------------------------------------- chained runs
# an untraced run_word of a hot config runs the steps after the word as
# a chain of kernels on bare integers (network._chained); the nets here
# have two input lines


def cold_twin(cfg):
    """A copy of cfg that takes step's interpreted loop however many
    steps it takes."""
    twin = RnnConfig.from_json(cfg.to_json())
    twin._cold_steps[0] = -10 ** 9
    return twin


def assert_chained_runs_agree(cfg, w, tau, cold=None):
    """run_word of the hot cfg at every budget from len(w) to tau agrees
    with the run of its cold twin: the same kind and tau, or the same
    error type and message."""
    cold = cold or cold_twin(cfg)
    for budget in range(len(w), tau + 1):
        got = decision(lambda: run_word(cfg, w, budget))
        assert got == decision(lambda: run_word(cold, w, budget)), (w, budget)
    assert cold._patterns is None


def test_chained_runs_match_cold_runs_on_compiled_parity_and_dyck(hot):
    for net in compiled_nets():
        cold = cold_twin(net.cfg)
        for w in ("".join(b) for n in range(7) for b in itertools.product("01", repeat=n)):
            d = run_word(cold, w, 10 ** 4)
            assert_chained_runs_agree(net.cfg, w, d.tau, cold)
        chains = silent_patterns(net.cfg)
        assert any(p.kernel for p in chains.values())
        assert any(len(p.succ) > 1 for p in chains.values())
    assert len(hot) > 100 and all(hot)


def silent_patterns(cfg):
    """The patterns of the silent steps cfg has taken hot, by live
    cells."""
    return {live: pat for (live, x), pat in cfg._patterns.items() if x == (0, 0)}


def count_chain_runs(cfg, runs):
    """Have every kernel of a silent pattern cfg holds note each call in
    runs."""
    for pat in silent_patterns(cfg).values():
        if pat.kernel:
            pat.kernel = (lambda kern: lambda *a: runs.append(1) or kern(*a))(pat.kernel)


def test_chain_kernels_step_like_reference(hot):
    # step runs the kernels of the silent patterns that run_word has
    # chained, in lowest terms.  It builds one again only where a longer
    # word steps its pattern to a successor the short words never
    # reached, and then after the successors already learnt; the
    # patterns only step meets get kernels of their own
    for net in compiled_nets():
        for w in WORDS:
            run_word(net.cfg, w, 10 ** 4)
        chains = silent_patterns(net.cfg)
        runs = []
        count_chain_runs(net.cfg, runs)
        built = {live: (p.kernel, list(p.succ)) for live, p in chains.items() if p.kernel}
        for w in WORDS + ["0110100", "00101101"]:
            s = stack_run(net.machine, w, 10 ** 5).tau
            assert_steps_agree(net.cfg, protocol_inputs(
                net.cfg, w, net.time_bound(len(w), s)))
        assert built and len(runs) > 100
        kept = 0
        for live, (kern, succ) in built.items():
            now = list(chains[live].succ)
            kept += chains[live].kernel is kern
            assert now == succ if chains[live].kernel is kern \
                else now[:len(succ)] == succ and len(now) > len(succ)
        assert kept > len(built) * 9 // 10
    assert all(hot)


def test_chained_runs_carry_long_operands_like_cold_runs(hot):
    # forty opening brackets push forty base-4 digits onto Dyck's stack,
    # so the shared denominator passes 64 bits within the chain
    net = compile_machine(dyck_sm())
    cold = cold_twin(net.cfg)
    w = "0" * 40
    d = run_word(cold, w, 10 ** 4, want_trace=True)
    dens = [math.lcm(*(v.denominator for v in h)) for _t, h, _y in d.trace]
    assert max(dens) > 1 << 64
    assert_chained_runs_agree(net.cfg, w, d.tau, cold)
    assert hot and all(hot)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_configs().filter(lambda cfg: cfg.n_in == 2),
       st.text("01", max_size=4))
def test_chained_runs_match_cold_runs_on_random_rational_configs(hot, cfg, w):
    # twice, so that the second pass runs the kernels the first built
    cold = cold_twin(cfg)
    for _ in range(2):
        assert_chained_runs_agree(cfg, w, len(w) + 10, cold)


def doubling_net(n, w_out, more=None):
    """Cell 0 is one from step 1 on, cell 1 doubles from 2^-n and so
    reaches one at step n, and cell 2 sums cell 1 and the bias in more.
    Until step n every step keeps the same live cells."""
    return RnnConfig(k=3, w_in={(0, 2): 1, **(more or {})},
                     w_res={(1, 1): 2, (2, 1): 1}, w_out=w_out,
                     h0=[0, R(1) / 2 ** n, 0])


def test_chained_runs_stop_where_the_output_fires_mid_chain(hot, monkeypatch):
    # the data line reads 2 * cell 1 - cell 0, which passes 0 only at
    # step 12: a mis-wired net, on a step whose successor the chain knows
    cfg = doubling_net(12, {(0, 1): 2, (0, 0): -1})
    cold = cold_twin(cfg)
    assert_chained_runs_agree(cfg, "011", 14, cold)
    want = decision(lambda: run_word(cold, "011", 20))
    assert want == ("ProtocolViolation", "output bit fired without validation at t=12")
    # once the pattern is learnt, the chain carries the silent steps and
    # step takes only the word's three; every state cell 1 is live in is
    # read out, so the chain stops at each, and the one at t = 12 fires
    calls, runs = [], []
    counted = network.step
    monkeypatch.setattr(network, "step", lambda *a: calls.append(1) or counted(*a))
    count_chain_runs(cfg, runs)
    assert decision(lambda: run_word(cfg, "011", 20)) == want
    assert len(calls) == 3 and len(runs) == 12 - 3


def test_chained_runs_read_a_negative_sum_as_zero(hot):
    # cell 2 sums cell 1 - 3/4, negative up to step 12; the spike line
    # reads 4 * cell 2 + 2 * cell 1 - cell 0, which is 0 at step 11 and
    # one at step 12, where cell 1 is one and cell 2 still 0 (its sum
    # -1/4 would cancel the spike)
    cfg = doubling_net(12, {(1, 2): 4, (1, 1): 2, (1, 0): -1}, {(2, 2): R(-3) / 4})
    cold = cold_twin(cfg)
    assert decision(lambda: run_word(cold, "", 20)) == ("ok", ("reject", 12))
    for _ in range(2):
        assert_chained_runs_agree(cfg, "", 14, cold)


# ---------------------------------------------------- three-line chains
# after the word the chain reads the third line's bit for each step and,
# where it is not the input of the successor's pattern, goes on from the
# pattern of the same live cells and that input


def count_calls(monkeypatch, name):
    """The calls of network.<name> from here on, one entry each: of
    step, the steps it takes, of _reduced, the states that step's loop
    and the chains build."""
    calls, counted = [], getattr(network, name)
    monkeypatch.setattr(network, name, lambda *a: calls.append(1) or counted(*a))
    return calls


def assert_evolving_runs_agree(e, w, tau):
    """enn_run of e at every budget from len(w) to tau agrees with the
    run of the cold twin of its lifted config on the same bits."""
    cold = cold_twin(aug._lift_evolving(e.base))
    for budget in range(len(w), tau + 1):
        got = decision(lambda: aug.enn_run(e, w, budget))
        want = decision(lambda: run_word(cold, w, budget, x2=e.evolving_bias.bit))
        assert got == want, (w, budget)
    assert cold._patterns is None


@pytest.mark.parametrize("f, words", [(8, ("", "1")), (20, ("",))])
def test_chained_evolving_runs_match_cold_runs_on_the_eater(hot, f, words):
    # the replay's operands pass 64 bits, so the lifted net turns hot
    e = aug.enn_from_tma(advice_eater_tma(), eater_stream(f))
    for w in words:
        d = aug.enn_run(e, w, 10 ** 4)
        assert d.kind == "accept"
        assert_evolving_runs_agree(e, w, d.tau)
    # the patterns after the word are keyed by the evolving bit, and
    # both bits have kernels
    inputs = {x for (_live, x), pat in aug._lift_evolving(e.base)._patterns.items()
              if pat.kernel}
    assert {(0, 0, 0), (0, 0, 1)} <= inputs
    assert hot and all(hot)


def test_chained_evolving_runs_rekey_where_the_bit_flips(hot, monkeypatch):
    # the 2/3 stream's bits alternate, so past the word every step's
    # input differs from the one before it
    e = aug.enn_from_tma(stream_compare_tma(), two_thirds_stream())
    taus = {}
    for w in ("", "0"):
        taus[w] = aug.enn_run(e, w, 10 ** 4).tau
        assert_evolving_runs_agree(e, w, taus[w])
    # run again, the chains go past every flip: step takes the word's
    # steps and those of the few patterns without a kernel, and a state
    # is built only there and where the last chain stops, at the spike
    calls = count_calls(monkeypatch, "step")
    built = count_calls(monkeypatch, "_reduced")
    for w, tau in taus.items():
        calls.clear()
        built.clear()
        assert aug.enn_run(e, w, 10 ** 4).tau == tau
        assert len(calls) < len(w) + 10 < tau // 10
        assert len(built) <= len(calls) + 1
    assert hot and all(hot)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_configs().filter(lambda cfg: cfg.n_in == 3),
       st.text("01", max_size=4), st.lists(st.integers(0, 1), min_size=14, max_size=14))
def test_chained_runs_match_cold_runs_on_random_three_line_configs(hot, cfg, w, x2):
    # a net with a third line turns hot only on a long step, so it is
    # made hot here; twice, so that the second pass runs the kernels the
    # first built
    cfg._patterns = {}
    cold = cold_twin(cfg)
    for _ in range(2):
        for budget in range(len(w), len(w) + 11):
            got = decision(lambda: run_word(cfg, w, budget, x2=x2))
            assert got == decision(lambda: run_word(cold, w, budget, x2=x2))
    assert cold._patterns is None


@pytest.mark.parametrize("w_out, cell_2, fires, states", [
    ({(0, 2): 1}, {(2, 1): 2, (2, 0): -1}, 13, 1),
    ({(0, 1): 2, (0, 0): -1}, {}, 12, 9)])
def test_chained_three_line_runs_stop_where_the_output_fires(
        hot, monkeypatch, w_out, cell_2, fires, states):
    # cell 0 is one, cell 1 doubles from 2^-12 and so reaches one at
    # step 12, and cell 3 is live whatever the coin, so each coin flip
    # re-keys the chain.  A mis-wired net whose data line fires with no
    # spike: where it reads cell 2 = 2 * cell 1 - 1, at step 13, the
    # first state it reads; where it reads 2 * cell 1 - cell 0, at step
    # 12, and every state is read, so the chain stops at each, and the
    # pattern that fires has a kernel (its live cells step to themselves)
    cfg = RnnConfig(k=4, n_in=3, w_in={(0, 3): 1, (3, 2): R(1) / 4},
                    w_res={(1, 1): 2, (3, 0): R(1) / 2, **cell_2},
                    w_out=w_out, h0=[1, R(1) / 2 ** 12, 0, 0])
    cfg._patterns = {}
    cold = cold_twin(cfg)
    x2 = [1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1]
    want = ("ProtocolViolation", f"output bit fired without validation at t={fires}")
    for _ in range(2):
        for budget in range(3, 21):
            got = decision(lambda: run_word(cfg, "011", budget, x2=x2))
            assert got == decision(lambda: run_word(cold, "011", budget, x2=x2))
        assert got == want
    # the chain carries steps 4 to the firing step, so step takes just
    # the word's three, and a state is built only where the chain stops
    calls = count_calls(monkeypatch, "step")
    built = count_calls(monkeypatch, "_reduced")
    assert decision(lambda: run_word(cfg, "011", 20, x2=x2)) == want
    assert len(calls) == 3
    assert len(built) - len(calls) <= states


# ------------------------------------------------------- interval chains
# ann_run's interval nets chain their kernels after the word like any
# net with two input lines; a chain stops at a state of a read pattern


def delayed_analog_net(shift, out):
    """A net whose analog bias r enters cell 0 and that reads it at step
    9: cells 2 to 9 pass a one down a line, and cell 1 sums
    6 r + shift * cell 9 - 10, below 0 until cell 9 turns one at step
    8.  Both output lines read cell 1 with weight out, so the states of
    steps 1 to 8 are not read."""
    w_res = {(2 + i, 1 + i): 1 for i in range(1, 8)}
    w_res.update({(1, 0): 6, (1, 9): shift})
    return RnnConfig(k=10, w_in={(1, 2): -10, (2, 2): 1}, w_res=w_res,
                     w_out={(0, 1): out, (1, 1): out})


def test_chained_interval_runs_match_reference(hot, monkeypatch):
    # with r = 5/6 (stream 1000...), 6r - 9/2 sits on 1/2, which no
    # precision can threshold, and 6r - 5 on 0, which no finite prefix
    # settles; the third stream exceeds 5/6 from digit 41 on, so its
    # run is unresolved at the read state at 16 and 32 digits and
    # decides at 64
    five_sixths = BitStream.from_word("1")
    late = BitStream.from_word("1" + "0" * 39 + "1")
    cases = [
        (delayed_analog_net(R(11) / 2, 1), five_sixths, {}, "UndefinedThreshold"),
        (delayed_analog_net(5, 4 ** 45), five_sixths, {"max_bits": 256},
         "PrecisionExhausted"),
        (delayed_analog_net(5, 4 ** 45), late, {}, "ok"),
        (delayed_analog_net(5, 4 ** 45), late, {"start_bits": 1}, "ok"),
    ]
    calls = count_calls(monkeypatch, "step")
    for base, stream, bits, tag in cases:
        a = aug.AnnSpec(base=base, bias_stream=stream)
        for budget in range(0, 12):
            want = decision(lambda: fraction_ann_run(a, "", budget, **bits))
            assert ann_decisions_agree(a, "", budget, **bits) == want
        assert want[0] == tag
        # once every pattern has its kernel, the chains run every step
        # and read only the state of step 9
        calls.clear()
        assert ann_decisions_agree(a, "", 11, **bits) == want
        assert calls == []
    assert hot and all(hot)


def test_chained_interval_runs_match_reference_on_the_stream_compare_net(
        hot, monkeypatch):
    a = aug.ann_from_tma(stream_compare_tma(), two_thirds_stream())
    runs = [(w, 40 * len(w) + 60, start) for w in WORDS for start in (None, 1)]
    for w, steps, start in runs:
        ann_decisions_agree(a, w, steps, start_bits=start)
    # run again: the chains carry most steps after each word
    calls = count_calls(monkeypatch, "step")
    for w, steps, start in runs:
        calls.clear()
        tag, (_kind, tau) = ann_decisions_agree(a, w, steps, start_bits=start)
        assert tag == "ok" and len(calls) < tau // 4
    assert hot and all(hot)


@settings(max_examples=150, deadline=None)
@given(sparse_configs(), st.data())
def test_interval_nets_read_where_a_positive_weight_reads_a_live_upper_end(cfg, data):
    # the read rule of an interval net's patterns, against the Fraction
    # interval readout: a state is read exactly where an output line
    # reads a cell j with a positive weight while j's upper end is
    # live, and every other state pins both outputs to 0
    cell = data.draw(st.integers(0, cfg.k - 1))
    iv = fraction_bias_iv(data.draw(st.text("01", min_size=1, max_size=4)))
    net = aug._interval_net(cfg, cell, *iv)
    k = cfg.k
    xs = data.draw(st.lists(st.tuples(*[st.integers(0, 1)] * cfg.n_in), max_size=6))
    state = net._start
    for x in [None] + xs:
        if x is not None:
            state = step(net, state, x)[0]
        ends = state.h
        live = tuple(state.nums)
        rule = any(w > 0 and ends[k + j] for (_row, j), w in cfg.w_out.items())
        assert network._Pattern(net, live, x).reads == rule
        if not rule:
            h = {i: (ends[i], ends[k + i]) for i in range(k) if ends[k + i]}
            assert [fraction_pin(*pair) for pair in
                    fraction_interval_readout(cfg, h)] == [0, 0]
            assert aug._interval_readout(cfg, state) == (0, 0)
