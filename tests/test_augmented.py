"""Analog/evolving/stochastic semantics and the cross-simulations.

Ground truth comes from three independent sources: partial sums of the
digit series for stream encodings, the two-tape advice interpreter for
the compiled analog and evolving networks, and hand-computed coin-tree
probabilities for the stochastic runners (majority of three at p,
binomial tails for amplification).
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrnn.augmented import (
    Algo4Result,
    AnnSpec,
    CalibrationResult,
    EnnSpec,
    SnnSpec,
    TruncationPolicy,
    algo1_tma_simulate_ann,
    algo2_tma_simulate_enn,
    algo3_ptma_simulate_snn,
    algo4_snn_simulate_ptma,
    _FairBits,
    amplify_majority_exact,
    ann_from_tma,
    ann_run,
    calibrate_c,
    ceil_log2,
    count_restarts,
    enn_from_tma,
    enn_run,
    exact_run,
    snn_run,
    truncate_config,
    truncate_run,
)
from exactrnn.errors import (
    BppViolation,
    BudgetExceeded,
    DegenerateProbability,
    ExactRnnError,
    NoConvergence,
    PrecisionExhausted,
    PreconditionViolated,
    ProtocolViolation,
    Timeout,
    UndefinedThreshold,
)
from exactrnn.machines import (
    BLANK,
    TERMINALS,
    Advice,
    TmaSpec,
    advice_from_stream,
    stack_run,
    tma_run,
    tma_to_stack,
    tma_to_stack_replay,
)
from exactrnn.network import RnnConfig, run_word
from exactrnn.words import BitStream, as_rat, delta4
from exactrnn.zoo import (
    advice_eater_tma,
    coin_match_ptm,
    eater_stream,
    first_coin_snn,
    half_stream,
    majority3_snn,
    stream_compare_tma,
    three_quarters_stream,
    two_thirds_stream,
)

R = as_rat

CMP_CORPUS = ["", "1", "10", "1010", "11", "0", "100", "101011"]


def cmp_pair(stream=None):
    m = stream_compare_tma()
    r = stream if stream is not None else two_thirds_stream()
    return m, r


def cmp_advice(r):
    return advice_from_stream(r, lambda n: n + 1)


# ------------------------------------------------------- stream encodings


def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


# ------------------------------------------------------------- truncation


def test_truncation_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(0)


def test_truncate_config_cuts_toward_zero():
    cfg = RnnConfig(k=1, w_in={(0, 2): R(2) / 3}, w_res={(0, 0): R(-2) / 3},
                    w_out={})
    cut = truncate_config(cfg, 4)
    assert cut.w_in[(0, 2)] == R(5) / 8
    assert cut.w_res[(0, 0)] == R(-5) / 8


def test_truncated_run_matches_exact_at_high_precision():
    m, r = cmp_pair()
    a = ann_from_tma(m, r)
    d = truncate_run(a, TruncationPolicy(4000), "10", 200)
    e = exact_run(a, "10", 200)
    assert (d.kind, d.tau) == (e.kind, e.tau)


def test_calibration_never_converges_on_a_third_weight_spike():
    # exact run spikes through a 1/3-weight cell scaled by 3; any
    # truncation undershoots and parks the output strictly inside (0,1)
    cfg = RnnConfig(k=1, w_in={(0, 2): R(1) / 3}, w_res={},
                    w_out={(0, 0): 3, (1, 0): 3})
    assert run_word(cfg, "", 1).kind == "accept"
    with pytest.raises(NoConvergence):
        calibrate_c(cfg, [""], lambda n: 1, c_max=8)


# ------------------------------------------- analog networks from machines


def test_analog_network_agrees_with_advice_machine():
    m, r = cmp_pair()
    a = ann_from_tma(m, r)
    adv = cmp_advice(r)
    for w in CMP_CORPUS:
        want = tma_run(m, adv, w, 500)
        got = ann_run(a, w, 4000)
        assert got.kind == want.kind, w


def test_analog_run_decision_times_are_stable():
    m, r = cmp_pair()
    a = ann_from_tma(m, r)
    taus = {w: ann_run(a, w, 4000).tau for w in ("", "1", "1010")}
    assert taus == {"": 31, "1": 57, "1010": 135}


def test_analog_run_precision_does_not_follow_the_step_budget():
    # bias digits start at 16 and double on demand, so a step budget
    # past the 65536-digit cap still runs and decides the same way
    m, r = cmp_pair()
    a = ann_from_tma(m, r)
    for w in ("", "1", "1010"):
        d, big = ann_run(a, w, 200), ann_run(a, w, 1 << 17)
        assert (big.kind, big.tau) == (d.kind, d.tau)


def test_analog_bias_cell_must_be_free():
    cfg = RnnConfig(k=1, w_in={(0, 2): R(1) / 2}, w_res={}, w_out={})
    with pytest.raises(ValueError):
        AnnSpec(base=cfg, bias_stream=half_stream())


def test_analog_bias_cell_is_a_cell_index():
    cfg = RnnConfig(k=2, w_in={}, w_res={}, w_out={})
    for cell in (None, "", 1.5, True, -1, 2):
        with pytest.raises(ValueError):
            AnnSpec(base=cfg, bias_stream=half_stream(), bias_cell=cell)
    assert AnnSpec(base=cfg, bias_stream=half_stream(), bias_cell=1)


def test_interval_runner_reports_unthresholdable_nets():
    # sigma(6r - 9/2) lands exactly on 1/2 for r = 5/6: no precision
    # can legalize the output threshold
    base = RnnConfig(k=2, w_in={(1, 2): R("-9/2")}, w_res={(1, 0): 6},
                     w_out={(1, 1): 1})
    a = AnnSpec(base=base, bias_stream=BitStream.from_word("1"))
    with pytest.raises(UndefinedThreshold):
        ann_run(a, "", 4)


def test_interval_runner_exhausts_on_boundary_chasing():
    # sigma(6r - 5) is exactly 0 at r = 5/6, but every finite prefix of
    # the stream leaves the upper interval end above it
    base = RnnConfig(k=2, w_in={(1, 2): -5}, w_res={(1, 0): 6},
                     w_out={(1, 1): 1})
    a = AnnSpec(base=base, bias_stream=BitStream.from_word("1"))
    with pytest.raises(PrecisionExhausted):
        ann_run(a, "", 4, start_bits=16, max_bits=256)


def test_analog_run_rejects_a_bias_precision_below_one_digit():
    # the bias cell feeds nothing, so the first attempt decides at any
    # precision; no attempt at all is made below one digit
    base = RnnConfig(k=2, w_in={(1, 2): 1}, w_res={}, w_out={(1, 1): 1})
    a = AnnSpec(base=base, bias_stream=BitStream.from_word("1"))
    assert ann_run(a, "", 4, start_bits=1).kind == "reject"
    for bits in (0, -3):
        with pytest.raises(ValueError, match="start_bits"):
            ann_run(a, "", 4, start_bits=bits)


def _algo3_on(w):
    return algo3_ptma_simulate_snn(majority3_snn(two_thirds_stream()),
                                   lambda n: 4, w, seed=0)


@pytest.mark.parametrize("run", [
    lambda w: ann_run(ann_from_tma(*cmp_pair()), w, 200),
    lambda w: truncate_run(ann_from_tma(*cmp_pair()), TruncationPolicy(8), w, 100),
    lambda w: algo1_tma_simulate_ann(ann_from_tma(*cmp_pair()), lambda n: 60, 1, w),
    lambda w: algo2_tma_simulate_enn(enn_from_tma(*cmp_pair()), lambda n: 60, 1, w),
    _algo3_on,
], ids=["ann_run", "truncate_run", "algo1", "algo2", "algo3"])
def test_every_run_path_rejects_a_non_bit_word(run):
    with pytest.raises(ValueError, match="not a bit word"):
        run("2")


def test_machine_simulation_of_analog_net_is_exact():
    m, r = cmp_pair()
    a = ann_from_tma(m, r)
    f = lambda n: 40 * n + 60
    cal = calibrate_c(a, CMP_CORPUS, f, c_max=16)
    assert isinstance(cal, CalibrationResult)
    assert cal.c == 1 and cal.witness is None
    for w in CMP_CORPUS:
        got = algo1_tma_simulate_ann(a, f, cal.c, w)
        want = ann_run(a, w, f(len(w)))
        assert (got.kind, got.tau) == (want.kind, want.tau), w


def test_machine_simulation_warns_on_empty_budget():
    m, r = cmp_pair()
    a = ann_from_tma(m, r)
    with pytest.warns(UserWarning):
        d = algo1_tma_simulate_ann(a, lambda n: 0, 1, "")
    assert d.kind == "timeout"


# ----------------------------------------- evolving networks from machines


def test_evolving_network_agrees_with_advice_machine():
    m, r = cmp_pair()
    e = enn_from_tma(m, r)
    adv = cmp_advice(r)
    for w in CMP_CORPUS:
        want = tma_run(m, adv, w, 500)
        got = enn_run(e, w, 9000, want_trace=True)
        assert got.kind == want.kind, w
        assert count_restarts(e, got.trace) == 1, w


def test_machine_simulation_of_evolving_net_is_exact():
    m, r = cmp_pair()
    e = enn_from_tma(m, r)
    f = lambda n: 130 * n + 320
    cal = calibrate_c(e, CMP_CORPUS, f, c_max=16)
    assert cal.c == 1
    for w in CMP_CORPUS:
        got = algo2_tma_simulate_enn(e, f, cal.c, w)
        want = enn_run(e, w, f(len(w)))
        assert (got.kind, got.tau) == (want.kind, want.tau), w


def test_replay_time_grows_linearly_in_advice_consumed():
    # fixed n = 20 keeps every probe inside the first capture window,
    # so run time is load + one rebuild + a constant cost per bit eaten
    m = advice_eater_tma()
    w = "01" * 10
    pts = []
    for f in (8, 16, 32, 64):
        e = enn_from_tma(m, eater_stream(f))
        d = enn_run(e, w, 60000, want_trace=True)
        assert d.kind == "accept"
        assert count_restarts(e, d.trace) <= max(1, ceil_log2(f))
        pts.append((f, d.tau))
    xs, ys = zip(*pts)
    mx, my = sum(xs) / 4, sum(ys) / 4
    slope = sum((x - mx) * (y - my) for x, y in pts) / sum(
        (x - mx) ** 2 for x in xs)
    icept = my - slope * mx
    ss_res = sum((y - slope * x - icept) ** 2 for x, y in pts)
    ss_tot = sum((y - my) ** 2 for y in ys)
    assert 1 - ss_res / ss_tot >= 0.9
    assert slope > 0


def test_replay_restarts_more_than_once_when_starved():
    # n = 0 gives a small first capture; demanding 64 bits forces a
    # second rebuild and the answer must survive it
    e = enn_from_tma(advice_eater_tma(), eater_stream(64))
    d = enn_run(e, "", 60000, want_trace=True)
    assert d.kind == "accept"
    assert count_restarts(e, d.trace) == 2


def test_replay_rounds_survive_a_file_round_trip():
    # the capture guards are read off the net, so the net read back from
    # its file counts the rounds of the net it was written from
    e = enn_from_tma(advice_eater_tma(), eater_stream(8))
    back = EnnSpec.from_json(json.loads(json.dumps(e.to_json())))
    for w in ("", "0", "1", "01", "0110", "10101"):
        rounds = [count_restarts(x, enn_run(x, w, 5000, want_trace=True).trace)
                  for x in (e, back)]
        assert rounds == [1, 1], w


def test_evolving_lift_rejects_three_input_bases():
    cfg = RnnConfig(k=1, w_in={(0, 2): 1}, w_res={}, w_out={}, n_in=3)
    with pytest.raises(ValueError):
        e = EnnSpec(base=cfg, evolving_bias=half_stream())
        enn_run(e, "", 4)


# ------------------------------------------------- transform entry checks


def test_transform_rejects_blank_erasure():
    m = TmaSpec({("q", "1", "*"): ("_", "S", "S", "accept")}, "q")
    with pytest.raises(PreconditionViolated):
        tma_to_stack(m)


def test_transform_rejects_explicit_walk_past_advice():
    m = TmaSpec({("q", "_", "_"): ("_", "S", "R", "accept")}, "q")
    with pytest.raises(PreconditionViolated):
        tma_to_stack(m)
    # the replay flavor never dispatches on the advice end at all
    tma_to_stack_replay(m)


def test_transform_tolerates_wildcard_spillover():
    m = TmaSpec({("q", "_", "*"): ("_", "S", "R", "q2"),
                 ("q2", "_", "*"): ("_", "S", "S", "accept")}, "q")
    sm = tma_to_stack(m)
    d = stack_run(sm, "", 300, init_stacks={"XA": "11"})
    assert d.kind == "accept"


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="01", max_size=6), st.text(alphabet="01", min_size=7,
                                                   max_size=12))
def test_symbolic_transform_tracks_two_tape_runs(w, advbits):
    m = stream_compare_tma()
    r = BitStream.from_word(advbits)
    want = tma_run(m, cmp_advice(r), w, 500)
    got = stack_run(tma_to_stack(m), w, 4000,
                    init_stacks={"XA": r.prefix(len(w) + 1)})
    assert got.kind == want.kind


# ------------------------------------------------ generated advice machines


GEN_STATES = ("a", "b", "c")
GEN_BOUND = 30          # tma_run steps; the advice head stays on its prefix
GEN_ADVICE = 40         # advice bits, more than GEN_BOUND


# every rule at a main symbol that the main tape over two stacks can
# hold: no written cell erased, no right move over a blank
GEN_RULES = {
    read: [(wr, mv, amv, nxt)
           for wr in ("01_" if read == BLANK else "01")
           for mv in ("LS" if read == BLANK else "LRS")
           for amv in "LRS" for nxt in GEN_STATES + TERMINALS]
    for read in "01_"}


@st.composite
def advice_machines(draw):
    """Advice machines over three working states, with wildcard and
    specific advice keys (a key for "0" alone leaves a rule missing),
    and an initial state drawn from the working and the terminal
    states."""
    trans = {}
    for q in GEN_STATES:
        for a in "01_":
            for adv in draw(st.sampled_from(
                    (("*",), ("0",), ("0", "1"), ("0", "*"), ("1", "*")))):
                trans[(q, a, adv)] = draw(st.sampled_from(GEN_RULES[a]))
    return TmaSpec(trans, draw(st.sampled_from(GEN_STATES + TERMINALS)))


gen_advice = st.text(alphabet="01", min_size=GEN_ADVICE, max_size=GEN_ADVICE)
gen_words = st.lists(st.text(alphabet="01", max_size=5), min_size=6,
                     max_size=6)


def run_kind(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).kind
    except ExactRnnError as exc:
        return type(exc).__name__


def fixed_advice(adv):
    return Advice(size=lambda n: len(adv), word=lambda n: adv)


@settings(max_examples=1000, deadline=None)
@given(advice_machines(), gen_advice, gen_words)
def test_generated_advice_machines_match_their_stack_program(m, adv, words):
    # one advice step costs at most five stack steps after the 2n+2 load
    sm = tma_to_stack(m)
    for w in words:
        want = run_kind(tma_run, m, fixed_advice(adv), w, GEN_BOUND)
        got = run_kind(stack_run, sm, w, 2 * len(w) + 2 + 5 * GEN_BOUND,
                       init_stacks={"XA": adv})
        if want in TERMINALS or got in TERMINALS:
            assert got == want or want == "timeout", w


@settings(max_examples=60, deadline=None)
@given(advice_machines(), gen_advice, gen_words)
def test_generated_advice_machines_match_their_networks(m, adv, words):
    r = BitStream.from_word(adv)
    a, e = ann_from_tma(m, r), enn_from_tma(m, r)
    for w in words:
        want = run_kind(tma_run, m, fixed_advice(adv), w, GEN_BOUND)
        if want in TERMINALS:
            assert ann_run(a, w, 4000).kind == want, w
            assert enn_run(e, w, 20000).kind == want, w


# ------------------------------------------------------- stochastic runs


def test_majority_net_exact_probabilities():
    r = snn_run(majority3_snn(three_quarters_stream()), "", 4)
    # coin tree: 3 * (3/4)^2 * (1/4) + (3/4)^3
    assert r.probability == R(27) / 32
    assert r.decision.kind == "accept" and r.decision.tau == 4
    r = snn_run(majority3_snn(two_thirds_stream()), "", 4)
    assert r.probability == R(20) / 27
    assert r.decision.kind == "accept"


def test_majority_net_sampled_probability_is_close():
    r = snn_run(majority3_snn(three_quarters_stream()), "", 4,
                mode="mc", trials=2000, seed=7)
    assert abs(r.probability - R(27) / 32) <= R(5) / 100
    assert r.mode == "mc" and r.trials == 2000


@pytest.mark.parametrize("trials", [0, -1])
def test_sampled_probability_needs_a_positive_trial_count(trials):
    s = majority3_snn(three_quarters_stream())
    with pytest.raises(ValueError, match="trials must be positive"):
        snn_run(s, "", 4, mode="mc", trials=trials)


def test_fair_coin_net_lands_in_the_forbidden_band():
    with pytest.raises(BppViolation):
        snn_run(first_coin_snn(half_stream()), "", 2)


def test_fixed_runtime_discipline_is_enforced():
    s = majority3_snn(three_quarters_stream())
    with pytest.raises(ProtocolViolation):
        snn_run(s, "", 5)
    with pytest.raises(Timeout):
        snn_run(s, "", 3)


def test_exact_enumeration_respects_its_budget():
    s = majority3_snn(three_quarters_stream())
    with pytest.raises(BudgetExceeded):
        snn_run(s, "", 13)
    with pytest.raises(ValueError):
        snn_run(SnnSpec(base=s.base, prob_stream=BitStream.from_prng(1)),
                "", 4)


def test_coins_refuse_pseudo_random_streams():
    # a trial generator seeded like the stream would tie it forever
    s = majority3_snn(BitStream.from_prng(1))
    with pytest.raises(ValueError, match="mathematical"):
        snn_run(s, "", 4, mode="mc", seed=0, trials=2)
    for paired in (False, True):
        with pytest.raises(ValueError, match="mathematical"):
            algo3_ptma_simulate_snn(s, lambda _n: 4, "", seed=1,
                                    paired=paired)


def test_stream_coin_matches_its_probability():
    st2 = two_thirds_stream()
    coins = _FairBits(random.Random(5)).coins(st2)
    hits = sum(itertools.islice(coins, 20000))
    assert abs(hits / 20000 - 2 / 3) < 0.01


def test_stream_coin_is_exact_on_forced_bits():
    class Feed:
        """A generator whose fair bits are the given ones, then zeros:
        bit i is the top bit of 32-bit word i."""

        def __init__(self, bits):
            self.bits = list(bits)

        def getrandbits(self, k):
            words, self.bits = self.bits[:k // 32], self.bits[k // 32:]
            return sum(b << (32 * i + 31) for i, b in enumerate(words))

    def coin(bits, stream, start=0):
        return next(_FairBits(Feed(bits)).coins(stream, start))

    st2 = two_thirds_stream()          # expansion 101010...
    assert coin([0], st2) == 1
    assert coin([1, 1], st2) == 0
    assert coin([1, 0, 0], st2) == 1
    # resumed after a tie on the first bit: the comparison starts at bit 1
    assert coin([1], st2, start=1) == 0
    assert coin([0, 0], st2, start=1) == 1


# --------------------------------------------------- cross-simulation 3/4


def test_coin_replacement_is_reproducible_and_close():
    s = majority3_snn(two_thirds_stream())
    f = lambda n: 8
    d1, pc1 = algo3_ptma_simulate_snn(s, f, "", seed=11, paired=True)
    d2, pc2 = algo3_ptma_simulate_snn(s, f, "", seed=11, paired=True)
    assert pc1.choices == pc2.choices and d1.kind == d2.kind
    assert len(pc1.choices) == 8 and len(pc1.ideal) == 8
    diverged = sum(
        algo3_ptma_simulate_snn(s, f, "", seed=1000 + i, paired=True)[1].diverged
        for i in range(600)
    )
    assert diverged / 600 <= 0.25


def test_coin_replacement_unpaired_returns_plain_decision():
    s = majority3_snn(two_thirds_stream())
    d = algo3_ptma_simulate_snn(s, lambda n: 8, "", seed=3)
    assert d.kind in ("accept", "reject", "timeout")


def test_network_simulation_of_coin_machine_runs_all_phases():
    res = algo4_snn_simulate_ptma(coin_match_ptm, two_thirds_stream(),
                                  lambda n: 8, "", seed=42)
    assert isinstance(res, Algo4Result)
    assert res.k_samples == 143          # ceil(10 * 2/9 * 64)
    assert res.pair_budget == 9          # least K with (5/9)^K <= 1/128
    assert len(res.advice_estimate) == 3
    assert res.decision.kind in ("accept", "reject")
    again = algo4_snn_simulate_ptma(coin_match_ptm, two_thirds_stream(),
                                    lambda n: 8, "", seed=42)
    assert again.decision.kind == res.decision.kind
    assert again.advice_estimate == res.advice_estimate


def test_network_simulation_budget_events_stay_rare():
    fails = exhausts = 0
    for i in range(200):
        res = algo4_snn_simulate_ptma(coin_match_ptm, two_thirds_stream(),
                                      lambda n: 8, "", seed=5000 + i)
        fails += res.estimate_failed
        exhausts += res.exhaustions > 0
    assert fails / 200 <= 0.13
    assert exhausts / 200 <= 0.09


def test_network_simulation_rejects_degenerate_coins():
    with pytest.raises(DegenerateProbability):
        algo4_snn_simulate_ptma(coin_match_ptm,
                                BitStream.from_word("", tail_bit=1),
                                lambda n: 4, "", seed=0)
    with pytest.raises(ValueError):
        algo4_snn_simulate_ptma(coin_match_ptm, BitStream.from_prng(2),
                                lambda n: 4, "", seed=0)


# ----------------------------------------------------------- amplification


def test_majority_amplification_exact_tail():
    # binomial tail: sum_{j>=2} C(3,j) p^j (1-p)^(3-j) at p = 27/32
    assert amplify_majority_exact(R(27) / 32, 3) == R(15309) / 16384
    with pytest.raises(ValueError):
        amplify_majority_exact(R(1) / 2, 4)


@pytest.mark.parametrize("repeats", [0, -1, -3])
def test_majority_amplification_refuses_an_empty_vote(repeats):
    with pytest.raises(ValueError, match="at least one run"):
        amplify_majority_exact(1, repeats)


@pytest.mark.parametrize("p_accept", [2, -R(1) / 3, R(3) / 2])
def test_majority_amplification_refuses_a_probability_outside_0_1(p_accept):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        amplify_majority_exact(p_accept, 3)
    assert amplify_majority_exact(0, 3) == 0
    assert amplify_majority_exact(1, 3) == 1
