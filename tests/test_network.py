"""Network simulator: exact stepping, threshold semantics, I/O protocol.

The 2-cell trace below was produced by an independent Fraction-based
oracle script and frozen here.
"""

import json
import math
from itertools import product
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrnn import augmented as aug
from exactrnn import cli, network
from exactrnn.augmented import calibrate_c
from exactrnn.compiler import CompiledNetwork, compile_machine
from exactrnn.errors import ProtocolViolation, UndefinedThreshold
from exactrnn.machines import stack_run, tm_to_stack
from exactrnn.network import (
    Decision, NetworkState, RnnConfig, common_factor, input_at, run_word, step,
    theta)
from exactrnn.words import as_rat
from exactrnn.zoo import (
    advice_eater_tma, dyck_sm, eater_stream, majority3_snn, parity_tm,
    stream_compare_tma, two_thirds_stream)

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


def test_state_cells_outside_the_unit_interval_rejected():
    for h in ((R(3) / 2,), (R(0), R(-1) / 4)):
        with pytest.raises(ValueError, match="must lie in"):
            NetworkState(0, h)


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
# one odd numerator among long even ones ends the search early
@example((1 << 200, [6 << 150, 5 << 180, 21, 1 << 199]))
@example((1 << 90, [3 << 100, 9]))
# all numerators even, their lowest set bit below one's, then above it
@example((1 << 120, [6 << 70, 10 << 80, 1 << 120]))
@example((1 << 80, [3 << 100, 5 << 90]))
# the analog bias denominator with an odd numerator
@example((3 * 4 ** 40, [3 ** 4, 3 * 4 ** 40, 6 << 90]))
@example((3 * 4 ** 40, [7, 3 << 100]))
def test_common_factor_is_the_gcd(case):
    one, nums = case
    assert common_factor(one, *nums) == math.gcd(one, *nums)


# ------------------------------------------------------------ step kernels

README_CORPUS = ["", "0", "1", "01", "0110", "10101"]


def compiled_parity(tmp_path):
    """The README's parity files: machine, compiled network, corpus."""
    mp = tmp_path / "parity.tm"
    mp.write_text(json.dumps(parity_tm().to_json()))
    np = tmp_path / "parity.rnn"
    assert cli.main(["compile", str(mp), "--out", str(np)]) == 0
    cp = tmp_path / "corpus.txt"
    cp.write_text("".join((w or "-") + "\n" for w in README_CORPUS))
    return str(mp), str(np), str(cp)


def test_readme_verify_and_calibration_stay_cold(tmp_path, kernels_built):
    mp, np, cp = compiled_parity(tmp_path)
    assert cli.main(["verify", mp, np, "--corpus", cp]) == 0
    # the advice-eater pairs step long, and one run of each stays cold
    # too: the analog one on its interval net
    m = advice_eater_tma()
    tp = tmp_path / "eat.tma"
    tp.write_text(json.dumps(m.to_json()))
    for name, build in (("eat.enn", aug.enn_from_tma),
                        ("eat.ann", aug.ann_from_tma)):
        ep = tmp_path / name
        ep.write_text(json.dumps(build(m, eater_stream(8)).to_json()))
        assert cli.main(["verify", str(tp), str(ep), "--corpus", cp,
                         "--max-steps", "5000"]) == 0
    net = CompiledNetwork.from_json(json.loads(Path(np).read_text()))
    corpus = [w for w in README_CORPUS if len(w) <= 2]
    ceiling = max(stack_run(net.machine, w, 10 ** 5).tau for w in corpus)
    calibrate_c(net.cfg, corpus, lambda n: net.time_bound(n, ceiling))
    assert kernels_built == []


def compiled_nets():
    return [compile_machine(tm_to_stack(parity_tm())), compile_machine(dyck_sm())]


def short_words(n):
    return ["".join(b) for k in range(n + 1) for b in product("01", repeat=k)]


def run_compiled(net, w):
    s = stack_run(net.machine, w, 10 ** 5)
    d = run_word(net.cfg, w, net.time_bound(len(w), s.tau))
    assert (d.kind, d.tau) == (s.kind, 6 * len(w) + 5 * s.tau + 6)
    return d


def kernels(cfg):
    """The kernels cfg holds, by (live cells, input); None while cfg is
    cold."""
    if cfg._patterns is not None:
        return {key: pat.kernel for key, pat in cfg._patterns.items() if pat.kernel}


def test_a_word_run_again_on_a_hot_config_builds_no_kernel(hot):
    net = compiled_nets()[0]
    first = run_compiled(net, "0110100")
    built = len(hot)
    assert built and all(hot)
    again = run_compiled(net, "0110100")
    assert len(hot) == built
    assert (again.kind, again.tau) == (first.kind, first.tau)


def test_a_hot_config_builds_a_kernel_on_the_last_sighting(kernels_built,
                                                           monkeypatch):
    monkeypatch.setattr(network, "_HOT_STEPS", 0)
    cfg = compiled_nets()[0].cfg
    outs = [step(cfg, cfg._start, (0, 1))
            for _ in range(network._SIGHTINGS - 1)]
    assert kernels_built == [] and kernels(cfg) == {}
    outs += [step(cfg, cfg._start, (0, 1)) for _ in range(3)]
    assert len(kernels_built) == 1 and kernels_built[0]
    # the kernel takes the steps after the build, so the count stops
    assert cfg._patterns[tuple(cfg._start.nums), (0, 1)].seen == network._SIGHTINGS
    assert len({(tuple(s.nums.items()), s.den, y) for s, y in outs}) == 1


def test_parity_and_dyck_stay_under_the_kernel_cap(hot):
    for net in compiled_nets():
        for w in short_words(8):
            run_compiled(net, w)
        assert 0 < len(kernels(net.cfg)) < network._MAX_KERNELS
    assert all(hot)


def stay_cold(cfg):
    """cfg, kept on the interpreted loop however many steps it takes
    (with every config that counts its steps together with it)."""
    cfg._cold_steps[0] = -10 ** 9
    return cfg


def steps_alike(cfg, cold, xs, advance=step):
    """Step cfg and its twin cold side by side through xs, asserting the
    same cells in the same order, the same den and the same output pair
    after every step; returns how many of the steps were long."""
    stay_cold(cold)
    a, b = cfg._start, cold._start
    long = 0
    for x in xs:
        long += cfg._den * a.den >= network._LONG
        (a, ya), (b, yb) = advance(cfg, a, x), advance(cold, b, x)
        assert (list(a.nums.items()), a.den, ya) \
            == (list(b.nums.items()), b.den, yb)
    assert kernels(cfg) and kernels(cold) is None
    return long


def test_kernels_insert_cells_in_the_order_of_the_loop(hot):
    # the next kernel is looked up by the order of the live cells, so a
    # kernel that inserted them in another order would split one pattern
    # into several; the loop inserts them in one order at every size
    for net, cold in zip(compiled_nets(), compiled_nets()):
        for w in short_words(3) + ["0110100"]:
            s = stack_run(net.machine, w, 10 ** 5).tau
            xs = [input_at(w, t, 2) for t in range(6 * len(w) + 5 * s + 6)]
            assert steps_alike(net.cfg, cold.cfg, xs) == 0
    # the advice-eater replay, an evolving net, steps long almost always
    e, twin = (aug.enn_from_tma(advice_eater_tma(), eater_stream(4))
               for _ in range(2))
    xs = [input_at("0110", t, 3, e.evolving_bias.bit) for t in range(765)]
    assert steps_alike(aug._lift_evolving(e.base),
                       aug._lift_evolving(twin.base), xs) > 700
    # a truncated analog loop at 200 bits steps long throughout
    a, twin = (aug.ann_from_tma(stream_compare_tma(), two_thirds_stream())
               for _ in range(2))
    cfg, cold = (aug.truncate_config(aug._with_prefix_bias(n, 200), 200)
                 for n in (a, twin))
    xs = [input_at("10", t, 2) for t in range(140)]
    assert steps_alike(cfg, cold, xs, lambda c, s, x:
                       aug._truncated_advance((c, 200), s, x)) == 140


def test_patterns_past_the_cap_take_the_interpreted_loop(hot, monkeypatch):
    monkeypatch.setattr(network, "_MAX_KERNELS", 3)
    cold, capped = stay_cold(compiled_nets()[0].cfg), compiled_nets()[0].cfg
    for w in short_words(3):
        a = run_word(cold, w, 400, want_trace=True)
        b = run_word(capped, w, 400, want_trace=True)
        assert (a.kind, a.tau, a.trace) == (b.kind, b.tau, b.trace)
    assert kernels(cold) is None and len(kernels(capped)) == 3
    assert hot == list(kernels(capped).values())     # none tried past the cap


def test_inputs_other_than_int_tuples_take_the_interpreted_loop(hot):
    cfg = RnnConfig(k=2, w_in={(0, 0): R(1) / 2, (1, 2): R(1) / 3},
                    w_res={(1, 0): 1})
    for x in ([1, 1], (True, 1), (1, 1)):
        nxt, y = step(cfg, cfg._start, x)
        assert (nxt.h, y) == ((R(1) / 2, R(1) / 3), (0, 0))
    # a list is not looked up, (True, 1) is refused a kernel, and the
    # equal key (1, 1) is not tried again
    assert kernels(cfg) == {} and hot == [None]
    nxt, _y = step(cfg, cfg._start, (1, 0))
    assert nxt.h == (R(1) / 2, R(1) / 3) and len(kernels(cfg)) == 1


def one_kernel_per_pattern(cfg):
    """kernels(cfg), after asserting that each pattern holds at most one
    kernel and that no kernel is kept beside another: every kernel held
    is a function of its own pattern alone, it names the successors its
    pattern has learnt, in order, and each successor is the pattern cfg
    keeps for that key."""
    held = kernels(cfg)
    assert all(type(kern) is FunctionType for kern in held.values())
    assert len({id(kern) for kern in held.values()}) == len(held)
    for (live, x), pat in cfg._patterns.items():
        assert (pat.live, pat.x) == (live, x)
        for nxt, succ in pat.succ.items():
            assert cfg._patterns[nxt, x] is succ
        if pat.kernel:
            named = dict(zip(pat.kernel.__code__.co_freevars,
                             (c.cell_contents for c in pat.kernel.__closure__)))
            assert [named[f"p{n}"] for n in range(len(named))] \
                == list(pat.succ.values())
    return held


def test_a_chained_config_holds_one_kernel_per_silent_pattern(hot):
    # run_word and step build the one kind of kernel on every pattern,
    # the silent ones that chains run included, and a kernel steps into
    # the states that are read out as into any other
    for net in compiled_nets():
        for w in short_words(6):
            run_compiled(net, w)
        cfg = net.cfg
        for w in short_words(2):        # step on the silent patterns too
            s = stack_run(net.machine, w, 10 ** 5).tau
            aug._truncated_loop(cfg, w, net.time_bound(len(w), s), 8)
        silent = [cfg._patterns[key] for key in one_kernel_per_pattern(cfg)
                  if key[1] == (0, 0)]
        assert len(silent) > 20
        assert any(nxt.reads for pat in silent for nxt in pat.succ.values())
        assert any(len(pat.succ) > 1 for pat in silent)
    assert all(hot)


def test_interval_and_truncated_configs_build_no_chain_kernel(hot):
    # run_word never runs them, and step builds them the kernels that
    # chains run elsewhere, one per pattern
    a = aug.ann_from_tma(stream_compare_tma(), two_thirds_stream())
    e = aug.enn_from_tma(stream_compare_tma(), two_thirds_stream())
    net = compiled_nets()[0]
    for w in short_words(2):
        aug.ann_run(a, w, 40 * len(w) + 60)
        for spec, steps in ((a, 40 * len(w) + 60), (e, 130 * len(w) + 320),
                            (net.cfg, 200)):
            for q in (3, 8, 40):
                aug.truncate_run(spec, aug.TruncationPolicy(q), w, steps)
    assert len(hot) > 50 and all(type(kern) is FunctionType for kern in hot)
    derived = [c for base in (a.base, e.base, net.cfg)
               for c in base._derived.values()] + [net.cfg]
    assert all(kernels(c) is None or one_kernel_per_pattern(c) is not None
               for c in derived)


def calibrated_dyck_twins(monkeypatch):
    """Compiled Dyck, its cold twin, the 31 words of length 4 or less,
    their step budgets and the cold twin's calibrate_c over them; the
    net is left to turn hot only in calibrate_c's truncated runs, and
    to build each pattern's kernel on first sight."""
    net = compiled_nets()[1]
    cfg, cold = net.cfg, stay_cold(RnnConfig.from_json(net.cfg.to_json()))
    corpus = short_words(4)
    bound = {}
    for w in corpus:
        s = stack_run(net.machine, w, 10 ** 5).tau
        bound[len(w)] = max(bound.get(len(w), 0), net.time_bound(len(w), s))
    exact = [run_word(cold, w, bound[len(w)]) for w in corpus]
    assert all(d.kind != "timeout" for d in exact)
    want = calibrate_c(cold, corpus, bound.__getitem__)
    monkeypatch.setattr(network, "_HOT_STEPS", sum(d.tau for d in exact))
    monkeypatch.setattr(network, "_SIGHTINGS", 1)
    return cfg, cold, corpus, bound, want


def test_patterns_met_only_in_truncated_runs_keep_step_kernels(kernels_built,
                                                               monkeypatch):
    # calibrate_c runs every exact run, through run_word, and then the
    # truncated runs through step on the same config (a compiled net is
    # its own truncation from 2 bits on).  A config that turns hot only
    # in the truncated runs builds its kernels there, and the next
    # calibration's exact runs chain those kernels and build none.  Both
    # agree with a cold twin.
    cfg, cold, corpus, bound, want = calibrated_dyck_twins(monkeypatch)
    assert calibrate_c(cfg, corpus, bound.__getitem__) == want
    silent = [key for key in one_kernel_per_pattern(cfg) if key[1] == (0, 0)]
    assert len(silent) > 20
    built = len(kernels_built)
    assert calibrate_c(cfg, corpus, bound.__getitem__) == want
    assert len(one_kernel_per_pattern(cfg)) == len(kernels(cfg))
    assert len(kernels_built) == built and all(kernels_built)
    assert kernels(cold) is None


def test_kernels_built_in_truncated_runs_serve_later_run_word_calls(
        kernels_built, monkeypatch):
    # the kernels calibrate_c's truncated runs build are the ones
    # run_word chains: a pass over the same corpus builds none, and the
    # chains carry most of its steps
    cfg, cold, corpus, bound, _want = calibrated_dyck_twins(monkeypatch)
    calibrate_c(cfg, corpus, bound.__getitem__)
    built = len(kernels_built)
    assert built and all(kernels_built)
    want = [run_word(cold, w, bound[len(w)]) for w in corpus]
    calls, counted = [], network.step
    monkeypatch.setattr(network, "step", lambda *a: calls.append(1) or counted(*a))
    assert [run_word(cfg, w, bound[len(w)]) for w in corpus] == want
    assert len(kernels_built) == built
    # 1,149 steps, of which step takes only the words' 98
    assert sum(d.tau for d in want) == 1149 and len(calls) == 98
    assert kernels(cold) is None


def test_configs_derived_from_one_net_count_their_steps_together(
        monkeypatch):
    # calibrate_c and the truncated runs spread a repeated job over many
    # truncations of one analog net (one per q, each on its own bias);
    # they count their steps on that net, so the truncations stepped
    # after the count is reached, and a new one on its first step, are
    # hot, while the same truncations of another copy of the net stay
    # cold
    monkeypatch.setattr(network, "_HOT_STEPS", 200)
    a, other = (aug.ann_from_tma(stream_compare_tma(), two_thirds_stream())
                for _ in range(2))

    def truncation(spec, q):
        return aug.truncate_config(aug._with_prefix_bias(spec, q), q)

    for q in (60, 100, 140):
        cfg = truncation(a, q)
        assert cfg._cold_steps is a.base._cold_steps and cfg is not a.base
        state = cfg._start
        for t in range(70):
            state = step(cfg, state, input_at("10", t, 2))[0]
    assert a.base._cold_steps == [200]
    assert [truncation(a, q)._patterns is not None
            for q in (60, 100, 140)] == [False, False, True]
    fresh, cold = truncation(a, 180), truncation(other, 180)
    for cfg in (fresh, cold):
        step(cfg, cfg._start, (1, 1))
    assert fresh._patterns is not None and cold._patterns is None
    assert other.base._cold_steps == [1]


def test_the_evolving_lift_turns_hot_where_majority_of_three_stays_cold(
        kernels_built):
    # a net with a third input line turns hot only on a long step: the
    # live cells of majority of three follow its coin line, and it steps
    # short; the eater replay steps long
    snn = majority3_snn(two_thirds_stream())
    for _ in range(network._HOT_STEPS // 64 + 2):
        for coins in product((0, 1), repeat=4):
            assert run_word(snn.base, "", 4, x2=coins).tau == 4
    assert snn.base._cold_steps == [network._HOT_STEPS]
    assert kernels(snn.base) is None and kernels_built == []
    e = aug.enn_from_tma(advice_eater_tma(), eater_stream(4))
    for _ in range(network._HOT_STEPS // 765 + 2):
        assert aug.enn_run(e, "0110", 5000).tau == 765
    lifted = aug._lift_evolving(e.base)
    # every kernel held was built, and the builds include its rebuilds
    held = kernels(lifted)
    assert held and {id(kern) for kern in held.values()} \
        <= {id(kern) for kern in kernels_built}


@pytest.mark.parametrize("build, text", [
    (lambda: RnnConfig(k=1, w_in={}, w_res={}, w_out={}, h0=[R(3) / 2]),
     "initial state must lie in [0,1]"),
    (lambda: RnnConfig(k=2, w_in={}, w_res={}, w_out={}, h0=[0, -1]),
     "initial state must lie in [0,1]"),
    (lambda: step(zero_net(), NetworkState(0, (R(0),)), (0,)),
     "expected 2 input lines, got 1"),
    (lambda: step(zero_net(), NetworkState(0, (R(0),)), (0, 0, 1)),
     "expected 2 input lines, got 3"),
])
def test_network_refusals(build, text):
    with pytest.raises(ValueError) as exc:
        build()
    assert text in str(exc.value)


def test_a_cell_count_that_is_not_an_int_is_refused():
    # JSON true equals 1 and 1.0 equals 1, but neither is a count of cells
    d = {"k": True, "n_in": 2, "w_in": [], "w_res": [[0, 0, "1"]], "w_out": [],
         "h0": ["0"]}
    with pytest.raises(ValueError, match="k True is not an integer"):
        RnnConfig.from_json(d)
    with pytest.raises(ValueError, match="n_in must be 2 or 3"):
        RnnConfig.from_json({**d, "k": 1, "n_in": 2.0})
    assert RnnConfig.from_json({**d, "k": 1}).k == 1
