"""Symbolic machine interpreters and the tape-to-stacks conversion.

Oracles here are independent of the interpreters: popcount for parity,
a counter for Dyck-1, hand-enumerated coin trees for the probabilistic
machines (fair coin 1/2, two-tails-reject 3/4).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrnn.errors import (
    BppViolation,
    BudgetExceeded,
    ConsistencyViolation,
    MachineStuck,
    PreconditionViolated,
    Timeout,
)
from exactrnn.machines import (
    BLANK,
    Advice,
    PtmSpec,
    Row,
    StackMachineSpec,
    TmaSpec,
    TmSpec,
    _apply_write_move,
    _tape_of,
    advice_from_stream,
    bpp_decide,
    ptm_run_exact,
    ptm_run_with_choices,
    stack_run,
    tm_run,
    tm_to_stack,
    tma_run,
    tma_to_stack,
    tma_to_stack_replay,
)
from exactrnn.network import Decision
from exactrnn.words import BitStream, as_rat, words_of_length
from exactrnn.zoo import advice_eater_tma

R = as_rat


# ------------------------------------------------------------- machine zoo


def parity_tm():
    # scan right, flip a parity state per 1, decide on the first blank
    t = {}
    for q, flip in [("even", "odd"), ("odd", "even")]:
        t[(q, "0")] = ("0", "R", q)
        t[(q, "1")] = ("1", "R", flip)
    t[("even", "_")] = ("_", "S", "accept")
    t[("odd", "_")] = ("_", "S", "reject")
    return TmSpec(trans=t, initial="even")


def immediate_accept_tm():
    t = {("s", sym): (sym if sym != "_" else "_", "S", "accept")
         for sym in "01_"}
    return TmSpec(trans=t, initial="s")


def endswith1_tm():
    # scan to the blank, step back once, decide on that symbol;
    # partial on the empty word (left edge), used with nonempty corpora
    t = {
        ("scan", "0"): ("0", "R", "scan"),
        ("scan", "1"): ("1", "R", "scan"),
        ("scan", "_"): ("_", "L", "back"),
        ("back", "0"): ("0", "S", "reject"),
        ("back", "1"): ("1", "S", "accept"),
    }
    return TmSpec(trans=t, initial="scan")


def runaway_tm():
    t = {("s", sym): ("1" if sym == "_" else sym, "R", "s") for sym in "01_"}
    return TmSpec(trans=t, initial="s")


def dyck_machine():
    # 0 opens, 1 closes; the stack depth is the open-bracket count
    rows = [
        Row("go", "0", {}, {"S": "push1"}, "go"),
        Row("go", "1", {"S": "1"}, {"S": "pop"}, "go"),
        Row("go", "1", {"S": "e"}, {}, "reject"),
        Row("go", "end", {"S": "e"}, {}, "accept"),
        Row("go", "end", {"S": "1"}, {}, "reject"),
    ]
    return StackMachineSpec(stacks=("S",), rows=rows, initial="go")


def dyck_oracle(w):
    depth = 0
    for c in w:
        depth += 1 if c == "0" else -1
        if depth < 0:
            return False
    return depth == 0


def first_coin_ptm():
    # accept iff the first flip is 1, regardless of tape
    d0 = {("s", sym): (sym, "S", "reject") for sym in "01_"}
    d1 = {("s", sym): (sym, "S", "accept") for sym in "01_"}
    return PtmSpec(trans0=d0, trans1=d1, initial="s")


def majority3_ptm():
    # three fair flips, majority decides; shortcuts after two equal flips
    def both(state, nxt0, nxt1):
        return ({(state, sym): (sym, "S", nxt0) for sym in "01_"},
                {(state, sym): (sym, "S", nxt1) for sym in "01_"})

    d0, d1 = {}, {}
    for state, nxt0, nxt1 in [
        ("f1", "f2t", "f2h"),
        ("f2t", "reject", "f3"),
        ("f2h", "f3", "accept"),
        ("f3", "reject", "accept"),
    ]:
        a, b = both(state, nxt0, nxt1)
        d0.update(a)
        d1.update(b)
    return PtmSpec(trans0=d0, trans1=d1, initial="f1")


def two_tails_reject_ptm():
    # reject only on tails-tails: acceptance probability 3/4
    def both(state, nxt0, nxt1):
        return ({(state, sym): (sym, "S", nxt0) for sym in "01_"},
                {(state, sym): (sym, "S", nxt1) for sym in "01_"})

    d0, d1 = {}, {}
    for state, nxt0, nxt1 in [("g1", "g2", "accept"), ("g2", "reject", "accept")]:
        a, b = both(state, nxt0, nxt1)
        d0.update(a)
        d1.update(b)
    return PtmSpec(trans0=d0, trans1=d1, initial="g1")


def deterministic_ptm():
    base = parity_tm()
    return PtmSpec(trans0=dict(base.trans), trans1=dict(base.trans),
                   initial=base.initial)


# ------------------------------------------------------------ Turing tapes


def test_parity_frozen():
    m = parity_tm()
    assert tm_run(m, "11", 100).kind == "accept"
    assert tm_run(m, "1", 100).kind == "reject"
    assert tm_run(m, "", 100).kind == "accept"


def test_parity_exhaustive_vs_popcount():
    m = parity_tm()
    for n in range(0, 9):
        for w in words_of_length(n):
            want = "accept" if w.count("1") % 2 == 0 else "reject"
            assert tm_run(m, w, 200).kind == want


def test_immediate_accept():
    d = tm_run(immediate_accept_tm(), "0101", 10)
    assert d.kind == "accept" and d.tau == 1


def test_tm_timeout_decision():
    assert tm_run(runaway_tm(), "01", 50).kind == "timeout"


def test_left_edge_raises():
    t = {("s", sym): (sym if sym != "_" else "_", "L", "s") for sym in "01_"}
    with pytest.raises(PreconditionViolated):
        tm_run(TmSpec(trans=t, initial="s"), "", 10)


def test_stuck_tm_raises():
    with pytest.raises(MachineStuck):
        tm_run(TmSpec(trans={("s", "0"): ("0", "R", "s")}, initial="s"), "1", 10)


# ------------------------------------------------------------ stack machine


def test_dyck_vs_counter_oracle():
    m = dyck_machine()
    for n in range(0, 11):
        for w in words_of_length(n):
            want = "accept" if dyck_oracle(w) else "reject"
            assert stack_run(m, w, 100).kind == want, w


def test_stack_rows_must_be_deterministic():
    rows = [
        Row("s", None, {}, {}, "accept"),
        Row("s", "0", {}, {}, "reject"),   # overlaps the wildcard row
    ]
    with pytest.raises(ValueError):
        StackMachineSpec(stacks=("S",), rows=rows, initial="s")


def test_stack_machine_stuck():
    m = StackMachineSpec(
        stacks=("S",),
        rows=[Row("s", "0", {}, {}, "accept")],
        initial="s",
    )
    with pytest.raises(MachineStuck):
        stack_run(m, "1", 10)


def test_stack_run_initial_contents():
    # pop the preloaded stack; contents drive the decision
    rows = [
        Row("s", None, {"S": "1"}, {"S": "pop"}, "s"),
        Row("s", None, {"S": "0"}, {}, "accept"),
        Row("s", None, {"S": "e"}, {}, "reject"),
    ]
    m = StackMachineSpec(stacks=("S",), rows=rows, initial="s")
    assert stack_run(m, "", 50, init_stacks={"S": "1110"}).kind == "accept"
    assert stack_run(m, "", 50, init_stacks={"S": "111"}).kind == "reject"


def test_stack_run_timeout():
    rows = [Row("s", None, {}, {"S": "push0"}, "s")]
    m = StackMachineSpec(stacks=("S",), rows=rows, initial="s")
    assert stack_run(m, "", 25).kind == "timeout"


def test_stack_run_decides_at_once_in_a_terminal_initial_state():
    # as the tape loop does, at every bound, a zero bound included: no
    # row is read and tau is 0
    m = StackMachineSpec(stacks=("S",), rows=[], initial="reject")
    tm = TmSpec({("q", "0"): ("0", "R", "q")}, "reject")
    for bound in (0, 5):
        for d in (stack_run(m, "01", bound), tm_run(tm, "01", bound)):
            assert (d.kind, d.tau) == ("reject", 0)


# ---------------------------------------------------------- tape to stacks


def paired_check(tm, words, bound=4000):
    sm = tm_to_stack(tm)
    for w in words:
        want = tm_run(tm, w, bound)
        got = stack_run(sm, w, bound)
        assert got.kind == want.kind, w
        if want.kind != "timeout":
            # loading costs 2n+2, each tape step at most 3 stack steps
            assert got.tau <= 2 * len(w) + 2 + 3 * want.tau, w


def test_convert_parity_exhaustive():
    words = [w for n in range(0, 9) for w in words_of_length(n)]
    paired_check(parity_tm(), words)


def test_convert_endswith1():
    words = [w for n in range(1, 9) for w in words_of_length(n)]
    paired_check(endswith1_tm(), words)


def test_convert_immediate():
    sm = tm_to_stack(immediate_accept_tm())
    d = stack_run(sm, "", 50)
    assert d.kind == "accept"
    assert d.tau <= 8  # constant overhead only


def test_convert_rejects_blank_writes():
    t = {("s", "0"): ("_", "R", "accept"),
         ("s", "1"): ("1", "R", "s"),
         ("s", "_"): ("_", "S", "reject")}
    with pytest.raises(PreconditionViolated):
        tm_to_stack(TmSpec(trans=t, initial="s"))


def test_tape_and_advice_transforms_refuse_a_rule_alike():
    for write, move, read in (("_", "R", "1"), ("0", "R", "_")):
        tm = TmSpec({("s", read): (write, move, "accept")}, "s")
        tma = TmaSpec({("s", read, "*"): (write, move, "S", "accept")}, "s")
        with pytest.raises(PreconditionViolated) as tape_error:
            tm_to_stack(tm)
        with pytest.raises(PreconditionViolated) as advice_error:
            tma_to_stack(tma)
        assert str(tape_error.value) == str(advice_error.value)


def test_convert_rejects_rightward_blank_skip():
    t = {("s", "0"): ("0", "R", "s"),
         ("s", "1"): ("1", "R", "s"),
         ("s", "_"): ("_", "R", "s")}
    with pytest.raises(PreconditionViolated):
        tm_to_stack(TmSpec(trans=t, initial="s"))


# ----------------------------------------------------------------- advice


def test_advice_from_stream_frozen():
    a = advice_from_stream(BitStream.from_periodic("", "10"), lambda n: n)
    assert a(3) == "101"
    z = advice_from_stream(BitStream.from_periodic("", "10"), lambda n: 0)
    assert z(5) == ""


def test_advice_prefix_property():
    a = advice_from_stream(BitStream.from_prng(3), lambda n: (n // 2) + 1)
    for n in range(0, 65, 7):
        for m in range(0, n + 1, 5):
            assert a(m) == a(n)[: (m // 2) + 1]


def test_advice_size_mismatch_detected():
    bad = Advice(size=lambda n: 3, word=lambda n: "01")
    with pytest.raises(ValueError):
        bad(5)


def advice_ignoring_tma():
    # same language as parity_tm but phrased as a two-tape machine
    t = {}
    for q, flip in [("even", "odd"), ("odd", "even")]:
        t[(q, "0", "*")] = ("0", "R", "S", q)
        t[(q, "1", "*")] = ("1", "R", "S", flip)
    t[("even", "_", "*")] = ("_", "S", "S", "accept")
    t[("odd", "_", "*")] = ("_", "S", "S", "reject")
    return TmaSpec(trans=t, initial="even")


def first_advice_bit_tma():
    t = {("s", sym, a): (sym, "S", "S", "accept" if a == "1" else "reject")
         for sym in "01_" for a in "01_"}
    return TmaSpec(trans=t, initial="s")


def test_tma_ignoring_advice_matches_tm():
    tm = parity_tm()
    tma = advice_ignoring_tma()
    empty = Advice(size=lambda n: 0, word=lambda n: "")
    for n in range(0, 7):
        for w in words_of_length(n):
            assert tma_run(tma, empty, w, 200).kind == tm_run(tm, w, 200).kind


def test_tma_reads_advice():
    m = first_advice_bit_tma()
    even_flag = Advice(size=lambda n: 1,
                       word=lambda n: "1" if n % 2 == 0 else "0")
    assert tma_run(m, even_flag, "00", 10).kind == "accept"
    assert tma_run(m, even_flag, "0", 10).kind == "reject"


def test_tma_decides_at_once_in_a_terminal_initial_state():
    # as tm_run and the stack program do: no rule is read, tau is 0
    tma = TmaSpec({("q", "0", "*"): ("0", "R", "S", "q")}, "accept")
    tm = TmSpec({("q", "0"): ("0", "R", "q")}, "accept")
    empty = Advice(size=lambda n: 0, word=lambda n: "")
    for w in ("", "01"):
        for d in (tma_run(tma, empty, w, 10), tm_run(tm, w, 10)):
            assert (d.kind, d.tau) == ("accept", 0)
        assert stack_run(tma_to_stack(tma), w, 50).kind == "accept"


def test_tma_consistency_check():
    m = first_advice_bit_tma()
    flipping = Advice(size=lambda n: 1,
                      word=lambda n: "1" if n % 2 == 0 else "0")
    stable = Advice(size=lambda n: n, word=lambda n: "1" * n)
    with pytest.raises(ConsistencyViolation):
        tma_run(m, flipping, "00", 10, verify_lengths=[3, 4])
    assert tma_run(m, stable, "00", 10, verify_lengths=[3, 4]).kind == "accept"


def test_tma_advice_head_two_way():
    # walk right over the advice then return to read bit 0
    t = {
        ("fwd", "_", "1"): ("_", "S", "R", "fwd"),
        ("fwd", "_", "0"): ("_", "S", "R", "fwd"),
        ("fwd", "_", "_"): ("_", "S", "L", "bwd"),
        ("bwd", "_", "1"): ("_", "S", "L", "bwd"),
        ("bwd", "_", "0"): ("_", "S", "L", "bwd"),
    }
    m = TmaSpec(trans=t, initial="fwd")
    adv = Advice(size=lambda n: 3, word=lambda n: "010")
    # bwd walks off the left edge: the harness flags it
    with pytest.raises(PreconditionViolated):
        tma_run(m, adv, "", 50)


# ----------------------------------------------------------- probabilistic


def test_ptm_deterministic_probabilities():
    m = deterministic_ptm()
    assert ptm_run_exact(m, "11", 100) == 1
    assert ptm_run_exact(m, "1", 100) == 0


def test_ptm_fair_coin_exact_half():
    p = ptm_run_exact(first_coin_ptm(), "0", 10)
    assert p == R(1) / 2
    with pytest.raises(BppViolation):
        bpp_decide(p)


def test_ptm_majority_of_fair_still_half():
    p = ptm_run_exact(majority3_ptm(), "", 10)
    assert p == R(1) / 2
    with pytest.raises(BppViolation):
        bpp_decide(p)


def test_ptm_two_tails_reject():
    p = ptm_run_exact(two_tails_reject_ptm(), "", 10)
    assert p == R(3) / 4
    assert bpp_decide(p) == "accept"
    assert bpp_decide(1 - p) == "reject"


def test_ptm_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        ptm_run_exact(majority3_ptm(), "", 10, budget=1)


def test_ptm_branch_timeout():
    d0 = {("s", sym): (sym, "S", "s") for sym in "01_"}
    d1 = {("s", sym): (sym, "S", "accept") for sym in "01_"}
    m = PtmSpec(trans0=d0, trans1=d1, initial="s")
    with pytest.raises(Timeout):
        ptm_run_exact(m, "", 8)


def reference_ptm_run_exact(m, w, bound, budget):
    """ptm_run_exact as it split before: on whole successor
    configurations, each with its own copy of the tape."""
    def succ(trans, state, tape, head):
        sym = tape.get(head, BLANK)
        rule = trans.get((state, sym))
        if rule is None:
            raise MachineStuck(f"no rule for ({state}, {sym})")
        write, move, nxt = rule
        tape2 = dict(tape)
        return nxt, tape2, _apply_write_move(tape2, head, write, move)

    def key(state, tape, head):
        return state, tuple(sorted(tape.items())), head

    accept_prob = R(0)
    pending = [(m.initial, _tape_of(w), 0, 0, R(1))]
    splits = 0
    while pending:
        state, tape, head, steps, prob = pending.pop()
        if state == "accept":
            accept_prob += prob
            continue
        if state == "reject":
            continue
        if steps >= bound:
            raise Timeout(f"branch still live after {bound} steps")
        succ0 = succ(m.trans0, state, tape, head)
        succ1 = succ(m.trans1, state, tape, head)
        if key(*succ0) == key(*succ1):
            pending.append((*succ0, steps + 1, prob))
        else:
            splits += 1
            if splits > budget:
                raise BudgetExceeded(f"more than {budget} branch splits")
            half = prob / 2
            pending.append((*succ0, steps + 1, half))
            pending.append((*succ1, steps + 1, half))
    return accept_prob


PTM_STATES = ("a", "b", "c")
ptm_rules = st.tuples(st.sampled_from("01_"), st.sampled_from("LSR"),
                      st.sampled_from(PTM_STATES + ("accept", "reject")))


@st.composite
def random_ptms(draw):
    """Transition maps with a rule missing here and there; trans1 often
    repeats trans0's rule, so runs mix deterministic stretches with
    splits."""
    trans0, trans1 = {}, {}
    for key in [(q, a) for q in PTM_STATES for a in "01_"]:
        rule0 = draw(ptm_rules)
        pick = draw(st.integers(min_value=0, max_value=9))
        rule1 = rule0 if pick < 5 else draw(ptm_rules)
        if pick != 9:
            trans0[key] = rule0
        if pick != 8:
            trans1[key] = rule1
    return PtmSpec(trans0=trans0, trans1=trans1, initial="a")


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # both sides must raise alike
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(random_ptms(), st.text(alphabet="01", max_size=4),
       st.integers(min_value=0, max_value=12))
def test_ptm_exact_matches_the_configuration_split(m, w, budget):
    assert outcome(ptm_run_exact, m, w, 8, budget) == \
        outcome(reference_ptm_run_exact, m, w, 8, budget)


# ------------------------------------------------- one tape loop, two kinds


def reference_tape_loop(initial, w, pick, bound):
    """The plain tape loop as it was before it took an advice head:
    tm_run and ptm_run_with_choices stepped through it."""
    tape = _tape_of(w)
    state, head, steps = initial, 0, 0
    while steps < bound and state not in ("accept", "reject"):
        trans = pick(steps)
        sym = tape.get(head, BLANK)
        rule = trans.get((state, sym))
        if rule is None:
            raise MachineStuck(f"no rule for ({state}, {sym})")
        write, move, state = rule
        steps += 1
        head = _apply_write_move(tape, head, write, move)
    if state in ("accept", "reject"):
        return Decision(state, tau=steps), steps
    return Decision("timeout"), steps


def reference_tma_once(m, adv_word, w, bound):
    """The advice loop as it was before it was folded into the plain
    one: its own copy of the loop, "*" looked up at every step."""
    tape = _tape_of(w)
    head, ahead, state, steps = 0, 0, m.initial, 0
    while steps < bound and state not in ("accept", "reject"):
        sym = tape.get(head, BLANK)
        asym = adv_word[ahead] if ahead < len(adv_word) else BLANK
        rule = m.trans.get((state, sym, asym)) or m.trans.get((state, sym, "*"))
        if rule is None:
            raise MachineStuck(f"no rule for ({state}, {sym}, {asym})")
        write, move, amove, state = rule
        steps += 1
        head = _apply_write_move(tape, head, write, move)
        if amove == "L":
            if ahead == 0:
                raise PreconditionViolated("advice head moved left at edge")
            ahead -= 1
        elif amove == "R":
            ahead += 1
    if state in ("accept", "reject"):
        return Decision(state, tau=steps)
    return Decision("timeout")


TAPE_STATES = ("a", "b", "c")
TAPE_BOUND = 14
WORDS_5 = [w for n in range(6) for w in words_of_length(n)]
ADVICE_4 = [w for n in range(5) for w in words_of_length(n)]
# Hypothesis leans toward the first entry of each list: a right move,
# a working state, a "*" rule
tape_moves = st.sampled_from("RSL")
tape_rules = st.tuples(st.sampled_from("01_"), tape_moves,
                       st.sampled_from(TAPE_STATES + ("accept", "reject")))
advice_keys = st.sampled_from([("*",), ("*", "0"), ("*", "1"), ("*", "_"),
                               ("0", "1", "_"), ("0", "1"), ("_",), ()])


@st.composite
def tape_machines(draw, advice=False):
    """Small plain or advice tape machines.  A rule is missing here and
    there, and head moves are free, so runs stick, halt, time out and
    walk off either tape's left edge.  On an advice machine each
    (state, symbol) pair has a "*" rule, rules for specific advice
    symbols, both or none.  The run starts in state a, or halts at once
    where a has no rule."""
    trans = {}
    for q in TAPE_STATES:
        for a in "01_":
            if advice:
                for s in draw(advice_keys):
                    write, move, nxt = draw(tape_rules)
                    trans[(q, a, s)] = (write, move, draw(tape_moves), nxt)
            elif draw(st.integers(min_value=0, max_value=4)) < 4:
                trans[(q, a)] = draw(tape_rules)
    initial = "a" if any(key[0] == "a" for key in trans) else "accept"
    return (TmaSpec if advice else TmSpec)(trans, initial)


@settings(max_examples=150, deadline=None)
@given(tape_machines(), tape_machines(),
       st.lists(st.integers(min_value=0, max_value=1),
                min_size=TAPE_BOUND, max_size=TAPE_BOUND))
def test_plain_runs_match_the_reference_loop(m0, m1, choices):
    ptm = PtmSpec(trans0=m0.trans, trans1=m1.trans, initial=m0.initial)
    for w in WORDS_5:
        assert outcome(tm_run, m0, w, TAPE_BOUND) == outcome(
            lambda: reference_tape_loop(m0.initial, w, lambda _s: m0.trans,
                                        TAPE_BOUND)[0]), w
        assert outcome(ptm_run_with_choices, ptm, w, choices,
                       TAPE_BOUND) == outcome(
            reference_tape_loop, m0.initial, w,
            lambda s: m1.trans if choices[s] else m0.trans, TAPE_BOUND), w


@settings(max_examples=100, deadline=None)
@given(tape_machines(advice=True))
def test_advice_runs_match_the_reference_loop(m):
    for adv in ADVICE_4:
        for w in WORDS_5:
            assert outcome(tma_run, m, lambda _n: adv, w, TAPE_BOUND) == \
                outcome(reference_tma_once, m, adv, w, TAPE_BOUND), (adv, w)


def test_ptm_with_choices():
    m = first_coin_ptm()
    d, flips = ptm_run_with_choices(m, "0", [1], 10)
    assert d.kind == "accept" and flips == 1
    d, flips = ptm_run_with_choices(m, "0", [0], 10)
    assert d.kind == "reject" and flips == 1


# ------------------------------------------------------------ round trips


def test_machine_json_roundtrips():
    tm = parity_tm()
    tm2 = TmSpec.from_json(tm.to_json())
    assert tm2.trans == tm.trans and tm2.initial == tm.initial

    sm = dyck_machine()
    sm2 = StackMachineSpec.from_json(sm.to_json())
    for w in ["", "01", "0011", "10", "0101"]:
        assert stack_run(sm2, w, 100).kind == stack_run(sm, w, 100).kind

    pm = two_tails_reject_ptm()
    pm2 = PtmSpec.from_json(pm.to_json())
    assert ptm_run_exact(pm2, "", 10) == R(3) / 4

    ta = first_advice_bit_tma()
    ta2 = TmaSpec.from_json(ta.to_json())
    adv = Advice(size=lambda n: 1, word=lambda n: "1")
    assert tma_run(ta2, adv, "0", 10).kind == "accept"


# ------------------------------------------------------------- refusals


def one_stack(*rows, stacks=("S",)):
    return StackMachineSpec(stacks=stacks, rows=list(rows), initial="q")


@pytest.mark.parametrize("build, error, text", [
    (lambda: Row("q", "eps", {}, {}, "accept"), ValueError,
     "bad read field 'eps'"),
    (lambda: Row("q", None, {"S": "2"}, {}, "accept"), ValueError,
     "bad observation '2'"),
    (lambda: one_stack(stacks=("S", "S")), ValueError,
     "duplicate stack names"),
    (lambda: one_stack(Row("q", "end", {"T": "e"}, {}, "accept")),
     ValueError, "unknown stack 'T'"),
    (lambda: one_stack(Row("q", "end", {}, {"S": "push2"}, "accept")),
     ValueError, "unknown op 'push2'"),
    # only extra ops take an argument: the compiler would wire this as
    # push0, where stack_run finds no semantics for it
    (lambda: one_stack(Row("q", "end", {}, {"S": ("push0", "x")}, "accept")),
     ValueError, "unknown op ('push0', 'x')"),
    (lambda: one_stack(Row("q", "end", {}, {"S": ()}, "accept")),
     ValueError, "unknown op ()"),
    (lambda: TmaSpec({("q", "2", "0"): ("0", "R", "S", "accept")}, "q"),
     ValueError, "bad symbols in rule key"),
    (lambda: TmaSpec({("q", "0", "2"): ("0", "R", "S", "accept")}, "q"),
     ValueError, "bad symbols in rule key"),
    (lambda: TmaSpec({("q", "0", "0"): ("0", "R", "X", "accept")}, "q"),
     ValueError, "bad advice move"),
    (lambda: TmSpec({("q", "2"): ("0", "R", "accept")}, "q"),
     ValueError, "bad symbol in rule key"),
    (lambda: TmSpec({("q", "0"): ("2", "R", "accept")}, "q"),
     ValueError, "bad rule"),
    (lambda: TmSpec({("q", "0"): ("0", "X", "accept")}, "q"),
     ValueError, "bad rule"),
    # the replay's load_from has meaning only in the network
    (lambda: stack_run(tma_to_stack_replay(advice_eater_tma()), "", 500),
     MachineStuck, "has no symbolic semantics"),
])
def test_machine_refusals(build, error, text):
    with pytest.raises(error) as exc:
        build()
    assert text in str(exc.value)

