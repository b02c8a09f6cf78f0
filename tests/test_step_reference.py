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

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from exactrnn import augmented as aug
from exactrnn.compiler import compile_machine
from exactrnn.errors import PrecisionExhausted, ProtocolViolation, UndefinedThreshold
from exactrnn.machines import stack_run, tm_to_stack
from exactrnn.network import Decision, NetworkState, RnnConfig, input_at, step, theta
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
    # cell 0, so it can reach 0 exactly but not pass it
    cfg = RnnConfig(k=2, w_in={(0, 2): R(1) / 2, (1, 2): R(1) / 2},
                    w_res={(0, 0): 1, (1, 0): R(-1) / 2})
    assert_steps_agree(cfg, [(0, 0)] * 4)
    assert len(hot) == 3 and all(hot)


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
