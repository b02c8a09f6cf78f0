"""Reference interpreters: Turing machines, stack machines, and their
advice-taking and coin-flipping variants, with the rewrites of tape
and advice machines over binary stacks that the compiler turns into
networks.

These run everything symbolically and serve as the ground truth that
network simulations are checked against.  One tape loop, _tape_loop,
steps tm_run, tma_run and ptm_run_with_choices, and one lookup, _rule,
finds every tape rule or sticks the machine.  The advice wildcard "*"
is resolved once, when a TmaSpec is built, into its table of concrete
keys (TmaSpec.rules) that the loop and the stack rewrite both read.
Conventions shared by all of them:

* tape alphabet is {0, 1, _} with "_" the blank,
* tapes are one-way infinite; moving left at cell 0 is a hard error
  (machines in this package are written so it cannot happen on valid
  inputs),
* the reserved state names "accept" and "reject" halt a run,
* step bounds are explicit everywhere and running out returns (or, for
  probabilistic branches, raises) a timeout.
"""

from dataclasses import dataclass
from typing import Callable

from .errors import (
    BppViolation,
    BudgetExceeded,
    ConsistencyViolation,
    MachineStuck,
    PreconditionViolated,
    Timeout,
)
from .network import Decision
from .words import as_rat, check_bitword

BLANK = "_"
SYMBOLS = ("0", "1", BLANK)
MOVES = ("L", "R", "S")
TERMINALS = ("accept", "reject")


def _check_states(*names):
    """State names are strings: runs hash and sort them, and records
    print them."""
    for q in names:
        if not isinstance(q, str):
            raise ValueError(f"state name {q!r} is not a string")


def _check_initial(initial, states):
    """The initial state is a string and halts or is one of states, the
    states that have a rule: a run from any other would stick at once."""
    _check_states(initial)
    if initial not in TERMINALS and initial not in states:
        raise ValueError(f"initial state {initial!r} has no rule")


def _rows(d, key, width):
    """d[key] as read from a spec file: a list of rows, each a list of
    width entries."""
    rows = d[key]
    if not (isinstance(rows, list)
            and all(isinstance(r, list) and len(r) == width for r in rows)):
        raise ValueError(f"{key!r} must be a list of rows of {width} entries")
    return rows


def _check_tm_rule(key, rule, adv=False):
    if adv:
        state, sym, asym = key
        if sym not in SYMBOLS or (asym not in SYMBOLS and asym != "*"):
            raise ValueError(f"bad symbols in rule key {key}")
        write, move, amove, nxt = rule
        if amove not in MOVES:
            raise ValueError(f"bad advice move in rule {key} -> {rule}")
    else:
        state, sym = key
        if sym not in SYMBOLS:
            raise ValueError(f"bad symbol in rule key {key}")
        write, move, nxt = rule
    if write not in SYMBOLS or move not in MOVES:
        raise ValueError(f"bad rule {key} -> {rule}")
    _check_states(state, nxt)


class TmSpec:
    """Single-tape machine: trans maps (state, symbol) to
    (written symbol, head move, next state)."""

    def __init__(self, trans, initial):
        for key, rule in trans.items():
            _check_tm_rule(key, rule)
        _check_initial(initial, {q for q, _a in trans})
        self.trans = dict(trans)
        self.initial = initial

    def to_json(self):
        return {
            "type": "tm",
            "initial": self.initial,
            "trans": sorted([q, a, b, mv, nq]
                            for (q, a), (b, mv, nq) in self.trans.items()),
        }

    @classmethod
    def from_json(cls, d):
        trans = {(q, a): (b, mv, nq) for q, a, b, mv, nq in _rows(d, "trans", 5)}
        return cls(trans=trans, initial=d["initial"])


class TmaSpec:
    """Two-tape advice machine: trans maps (state, main symbol, advice
    symbol) to (written main symbol, main move, advice move, next).
    The advice tape is read-only; "*" in the advice position of a key
    matches any advice symbol (specific keys win).  trans stays as
    written; rules is the same map with "*" resolved into the concrete
    advice symbols it covers."""

    def __init__(self, trans, initial):
        for key, rule in trans.items():
            _check_tm_rule(key, rule, adv=True)
        _check_initial(initial, {q for q, _a, _s in trans})
        self.trans = dict(trans)
        self.initial = initial
        self.rules = {(q, a, b): rule for (q, a, s), rule in trans.items()
                      if s == "*" for b in SYMBOLS}
        self.rules.update((k, r) for k, r in trans.items() if k[2] != "*")

    def to_json(self):
        return {
            "type": "tma",
            "initial": self.initial,
            "trans": sorted([q, a, s, b, mv, av, nq]
                            for (q, a, s), (b, mv, av, nq) in self.trans.items()),
        }

    @classmethod
    def from_json(cls, d):
        trans = {(q, a, s): (b, mv, av, nq)
                 for q, a, s, b, mv, av, nq in _rows(d, "trans", 7)}
        return cls(trans=trans, initial=d["initial"])


class PtmSpec:
    """Coin-flipping machine: two full transition maps, a fair coin
    picks one of them at every step."""

    def __init__(self, trans0, trans1, initial):
        for t in (trans0, trans1):
            for key, rule in t.items():
                _check_tm_rule(key, rule)
        _check_initial(initial, {q for q, _a in [*trans0, *trans1]})
        self.trans0 = dict(trans0)
        self.trans1 = dict(trans1)
        self.initial = initial

    def to_json(self):
        def dump(t):
            return sorted([q, a, b, mv, nq] for (q, a), (b, mv, nq) in t.items())

        return {"type": "ptm", "initial": self.initial,
                "trans0": dump(self.trans0), "trans1": dump(self.trans1)}

    @classmethod
    def from_json(cls, d):
        def load(key):
            return {(q, a): (b, mv, nq) for q, a, b, mv, nq in _rows(d, key, 5)}

        return cls(trans0=load("trans0"), trans1=load("trans1"),
                   initial=d["initial"])


# --------------------------------------------------------------------------
# plain and advice tape interpreters


def _tape_of(w):
    return {i: c for i, c in enumerate(w)}


def _apply_write_move(tape, head, write, move):
    if write == BLANK:
        tape.pop(head, None)
    else:
        tape[head] = write
    if move == "L":
        if head == 0:
            raise PreconditionViolated("head moved left at the tape edge")
        return head - 1
    if move == "R":
        return head + 1
    return head


def _rule(trans, key):
    """The rule of trans at key, a (state, symbol[, advice symbol])
    tuple; a missing rule sticks the machine."""
    rule = trans.get(key)
    if rule is None:
        raise MachineStuck(f"no rule for ({', '.join(key)})")
    return rule


def _tape_loop(initial, w, pick, bound, advice=None):
    """The one tape loop: pick(steps) gives the rule table of the next
    step.  A plain machine (advice None) keys its rules (state, symbol)
    and never moves the advice head; an advice machine keys them
    (state, symbol, advice symbol), reading "_" past the end of the
    advice word, and moves that head after the main one.  Returns
    (Decision, steps)."""
    check_bitword(w)
    tape = _tape_of(w)
    state, head, ahead, steps, amove = initial, 0, 0, 0, "S"
    while steps < bound and state not in TERMINALS:
        sym = tape.get(head, BLANK)
        if advice is None:
            write, move, state = _rule(pick(steps), (state, sym))
        else:
            asym = advice[ahead] if ahead < len(advice) else BLANK
            write, move, amove, state = _rule(pick(steps), (state, sym, asym))
        steps += 1
        head = _apply_write_move(tape, head, write, move)
        if amove == "L":
            if ahead == 0:
                raise PreconditionViolated("advice head moved left at edge")
            ahead -= 1
        elif amove == "R":
            ahead += 1
    if state in TERMINALS:
        return Decision(state, tau=steps), steps
    return Decision("timeout"), steps


def tm_run(m, w, bound):
    """Run to a decision or a step bound; returns a Decision."""
    return _tape_loop(m.initial, w, lambda _steps: m.trans, bound)[0]


@dataclass
class Advice:
    """Length-indexed advice: word(n) must have exactly size(n) bits."""

    size: Callable[[int], int]
    word: Callable[[int], str]

    def __call__(self, n):
        w = self.word(n)
        check_bitword(w)
        if len(w) != self.size(n):
            raise ValueError(
                f"advice for n={n} has {len(w)} bits, declared {self.size(n)}")
        return w


def advice_from_stream(r, f):
    """Prefix advice: the first f(n) bits of the stream r."""
    return Advice(size=f, word=lambda n: r.prefix(f(n)))


def tma_run(m, a, w, bound, verify_lengths=None):
    """Advice-machine run on w with advice a(|w|).

    verify_lengths optionally lists lengths n' >= |w| to re-run with
    a(n'); a differing decision raises ConsistencyViolation (the
    soundness condition advice families must satisfy for length
    upgrades to be harmless).
    """
    def once(advice):
        return _tape_loop(m.initial, w, lambda _steps: m.rules, bound,
                          advice)[0]

    base = once(a(len(w)))
    for n2 in verify_lengths or ():
        if n2 < len(w):
            continue
        other = once(a(n2))
        if other.kind != base.kind:
            raise ConsistencyViolation(
                f"decision on {w!r} flips between advice({len(w)}) "
                f"and advice({n2})")
    return base


# --------------------------------------------------------------------------
# stack machines


READS = (None, "0", "1", "end")
OBS_PATTERNS = ("*", "0", "1", "e")
BASE_OPS = ("noop", "push0", "push1", "pop")


class Row:
    """One guarded transition of a stack machine.

    read: None for an internal step, "0"/"1" to consume that input
    symbol, "end" to fire only once input is exhausted.  obs maps stack
    name -> "0"/"1" (top bit) or "e" (empty); unmentioned stacks are
    unconstrained.  ops maps stack name -> operation; unmentioned
    stacks keep their contents.
    """

    def __init__(self, state, read, obs, ops, next_state):
        if read not in READS:
            raise ValueError(f"bad read field {read!r}")
        for pat in obs.values():
            if pat not in OBS_PATTERNS:
                raise ValueError(f"bad observation {pat!r}")
        _check_states(state, next_state)
        self.state = state
        self.read = read
        self.obs = dict(obs)
        self.ops = dict(ops)
        self.next_state = next_state

    def __repr__(self):
        return (f"Row({self.state!r}, {self.read!r}, {self.obs!r}, "
                f"{self.ops!r}, {self.next_state!r})")


def _reads_overlap(r1, r2):
    return r1 is None or r2 is None or r1 == r2


def _obs_overlap(o1, o2, stacks):
    for s in stacks:
        p1, p2 = o1.get(s, "*"), o2.get(s, "*")
        if p1 != "*" and p2 != "*" and p1 != p2:
            return False
    return True


class StackMachineSpec:
    """Deterministic machine over named binary stacks.

    Determinism is enforced structurally: within a state no two rows
    may match the same (input status, stack observations) combination.
    The initial state halts or has a row.  extra_ops widens the op
    vocabulary for internal constructions that compile rows directly
    into network circuitry.
    """

    def __init__(self, stacks, rows, initial, extra_ops=()):
        self.stacks = tuple(stacks)
        if len(set(self.stacks)) != len(self.stacks):
            raise ValueError("duplicate stack names")
        self.extra_ops = frozenset(extra_ops)
        self.initial = initial
        self.rows = list(rows)
        self.rows_by_state = {}
        for row in self.rows:
            for s in row.obs:
                if s not in self.stacks:
                    raise ValueError(f"unknown stack {s!r} in row {row!r}")
            for s, op in row.ops.items():
                if s not in self.stacks:
                    raise ValueError(f"unknown stack {s!r} in row {row!r}")
                if isinstance(op, tuple):   # only extra ops take arguments
                    known = op and op[0] in self.extra_ops
                else:
                    known = op in BASE_OPS or op in self.extra_ops
                if not known:
                    raise ValueError(f"unknown op {op!r} in row {row!r}")
            self.rows_by_state.setdefault(row.state, []).append(row)
        _check_initial(initial, self.rows_by_state)
        for state, rows_here in self.rows_by_state.items():
            for i, r1 in enumerate(rows_here):
                for r2 in rows_here[i + 1:]:
                    if _reads_overlap(r1.read, r2.read) and _obs_overlap(
                            r1.obs, r2.obs, self.stacks):
                        raise ValueError(
                            f"ambiguous rows in state {state!r}: "
                            f"{r1!r} vs {r2!r}")

    def to_json(self):
        def dump_ops(ops):
            return {s: list(op) if isinstance(op, tuple) else op
                    for s, op in ops.items()}

        return {
            "type": "stack-machine",
            "stacks": list(self.stacks),
            "initial": self.initial,
            "extra_ops": sorted(self.extra_ops),
            "rows": [[r.state, "eps" if r.read is None else r.read,
                      r.obs, dump_ops(r.ops), r.next_state]
                     for r in self.rows],
        }

    @classmethod
    def from_json(cls, d):
        rows = []
        for state, read, obs, ops, nxt in _rows(d, "rows", 5):
            ops = {s: tuple(op) if isinstance(op, list) else op
                   for s, op in ops.items()}
            rows.append(Row(state, None if read == "eps" else read,
                            obs, ops, nxt))
        extra_ops = d.get("extra_ops", [])
        if not (isinstance(extra_ops, list)
                and all(isinstance(op, str) for op in extra_ops)):
            raise ValueError("'extra_ops' must be a list of op names")
        return cls(stacks=d["stacks"], rows=rows, initial=d["initial"],
                   extra_ops=extra_ops)


def _row_matches(row, status, stacks_content):
    if row.read is not None and row.read != status:
        return False
    for s, pat in row.obs.items():
        if pat == "*":
            continue
        content = stacks_content[s]
        if pat == "e":
            if content:
                return False
        elif not content or content[0] != pat:
            return False
    return True


def stack_run(m, w, bound, init_stacks=None, want_trace=False):
    """Interpret the machine on w; stacks may be preloaded.

    Stack contents are plain words with the top at index 0.  Only the
    base op set is executable here; internal extended ops exist for
    network compilation and have no symbolic semantics.
    """
    check_bitword(w)
    stacks = {s: "" for s in m.stacks}
    for s, content in (init_stacks or {}).items():
        check_bitword(content)
        stacks[s] = content
    pos, state, steps = 0, m.initial, 0
    trace = [] if want_trace else None
    while steps < bound and state not in TERMINALS:
        status = w[pos] if pos < len(w) else "end"
        hit = None
        for row in m.rows_by_state.get(state, ()):
            if _row_matches(row, status, stacks):
                hit = row
                break
        if hit is None:
            raise MachineStuck(f"state {state!r}, input {status!r}, "
                               f"stacks {stacks!r}")
        steps += 1
        if hit.read in ("0", "1"):
            pos += 1
        for s, op in hit.ops.items():
            if op == "push0":
                stacks[s] = "0" + stacks[s]
            elif op == "push1":
                stacks[s] = "1" + stacks[s]
            elif op == "pop":
                stacks[s] = stacks[s][1:]
            elif op == "noop":
                pass
            else:
                raise MachineStuck(f"op {op!r} has no symbolic semantics")
        state = hit.next_state
        if want_trace:
            trace.append((steps, state, dict(stacks)))
    if state in TERMINALS:
        return Decision(state, tau=steps, trace=trace)
    return Decision("timeout", trace=trace)


# --------------------------------------------------------------------------
# tape machine -> two-stack machine


def tm_to_stack(m):
    """Rebuild a single-tape machine over two stacks L and R.

    R holds the current cell on top plus everything to its right; L
    holds the cells left of the head, nearest first.  Blank regions are
    simply absent, which is why rules that write a blank over a written
    symbol, or walk right while reading blank, cannot be represented
    and are rejected up front.

    Costs: loading the input takes 2n+2 steps, then each tape step
    costs 1 (move right), 2 (stay) or 3 (move left) stack steps.
    """
    for (q, a), (b, mv, _q2) in m.trans.items():
        _check_main_rule(q, a, b, mv)

    def tgt(q):
        return q if q in TERMINALS else f"m_{q}"

    rows = _loader_rows(tgt(m.initial))
    for (q, a), (b, mv, q2) in sorted(m.trans.items()):
        rows += _main_rule_rows(f"m_{q}", a, b, mv, tgt(q2),
                                (f"w_{q}_{a}", f"u_{q}_{a}", f"v_{q}_{a}"))
    return StackMachineSpec(stacks=("L", "R"), rows=rows, initial="load1")


def _check_main_rule(q, read, write, move):
    """Refuse a rule at (q, read) that the main tape over L and R cannot
    represent: one that erases a written cell, or walks right over a
    blank, which would leave a gap inside R."""
    if write == BLANK and not (read == BLANK and move in ("L", "S")):
        raise PreconditionViolated(
            f"rule at ({q},{read}) erases a written main cell")
    if read == BLANK and move == "R":
        raise PreconditionViolated(
            f"rule at ({q},{read}) walks right through main blanks")


def _loader_rows(first_state, tap=None):
    """Rows that load the input word onto the main tape R, first symbol
    on top, by way of L: 2n+2 steps, then first_state.  tap names a
    further stack that receives a copy of every loaded bit."""
    def push_tap(b):
        ops = {"L": "pop", "R": f"push{b}"}
        if tap:
            ops[tap] = f"push{b}"
        return ops

    rows = [Row("load1", read, {}, ops, nxt) for read, ops, nxt in (
        ("0", {"L": "push0"}, "load1"),
        ("1", {"L": "push1"}, "load1"),
        ("end", {}, "load2"))]
    return rows + [Row("load2", None, {"L": top}, ops, nxt) for top, ops, nxt in (
        ("0", push_tap("0"), "load2"),
        ("1", push_tap("1"), "load2"),
        ("e", {}, first_state))]


_MAIN_OBS = {"0": {"R": "0"}, "1": {"R": "1"}, BLANK: {"R": "e"}}


def _main_rule_rows(state, read, write, move, nxt, mids, obs=None, ops=None):
    """Rows of one main-tape rule over L (left of the head) and R (head
    cell on top): pop R in state when R's top is read and obs hold, with
    the further ops, then push write onto L for a right move, write back
    onto R for a stay (via mids[0]), or write back and move L's top over
    to R for a left move (via mids[1], mids[2])."""
    first = {"R": "pop"}
    if move == "R":
        first["L"] = f"push{write}"
    first.update(ops or {})
    obs = {**_MAIN_OBS[read], **(obs or {})}
    if move == "R":
        return [Row(state, None, obs, first, nxt)]
    back = {"R": f"push{write}"} if write != BLANK else {}
    if move == "S":
        return [Row(state, None, obs, first, mids[0]),
                Row(mids[0], None, {}, back, nxt)]
    return [Row(state, None, obs, first, mids[1]),
            Row(mids[1], None, {}, back, mids[2]),
            Row(mids[2], None, {"L": "0"}, {"L": "pop", "R": "push0"}, nxt),
            Row(mids[2], None, {"L": "1"}, {"L": "pop", "R": "push1"}, nxt)]


# --------------------------------------------------------------------------
# advice machine -> stack program, analog flavor and replay flavor


def _drain_rows(state, stack, nxt, into=None, extra=None):
    """Pop a stack empty, optionally re-pushing each bit elsewhere."""
    rows = []
    for b in ("0", "1"):
        ops = {stack: "pop"}
        if into:
            ops[into] = f"push{b}"
        if extra:
            ops[extra] = f"push{b}"
        rows.append(Row(state, None, {stack: b}, ops, state))
    rows.append(Row(state, None, {stack: "e"}, {}, nxt))
    return rows


def _tma_rows(m, fetch_stack, on_underflow):
    """Ensure/dispatch/micro rows shared by both advice transforms.

    Per machine step: an ensure step tops up the advice window from
    fetch_stack when the head sits at its materialized frontier, then a
    dispatch step fires on (main symbol, advice symbol) and performs
    the tape updates, costing up to three further steps (stay-writes,
    left moves on either tape).  on_underflow names the state entered
    when the window and the fetch source are both empty: the past-end
    dispatch for the analog flavor, the replay rebuild for the
    evolving one.
    """
    rows = []
    states = sorted({q for (q, _a, _b) in m.rules})

    def tgt(q):
        return q if q in TERMINALS else f"e_{q}"

    for q in states:
        under = on_underflow if on_underflow else f"d_{q}"
        rows += [
            Row(f"e_{q}", None, {"AR": "e", fetch_stack: "0"},
                {fetch_stack: "pop", "AR": "push0"}, f"d_{q}"),
            Row(f"e_{q}", None, {"AR": "e", fetch_stack: "1"},
                {fetch_stack: "pop", "AR": "push1"}, f"d_{q}"),
            Row(f"e_{q}", None, {"AR": "e", fetch_stack: "e"}, {}, under),
            Row(f"e_{q}", None, {"AR": "0"}, {}, f"d_{q}"),
            Row(f"e_{q}", None, {"AR": "1"}, {}, f"d_{q}"),
        ]

    for i, ((q, a, adv), (wr, mv, amv, q2)) in enumerate(sorted(m.rules.items())):
        _check_main_rule(q, a, wr, mv)
        if adv == BLANK:
            if on_underflow:
                continue            # replay flavor: advice never ends
            if amv == "R":
                if (q, a, adv) not in m.trans:
                    continue        # wildcard spillover; stuck if reached
                raise PreconditionViolated(
                    f"rule at ({q},{a},_) walks right past the advice end")
        aops = {"AR": "pop", "AL": f"push{adv}"} if amv == "R" else {}
        final = tgt(q2)
        if amv == "L":
            av = f"av_{i}"
            rows.append(Row(av, None, {"AL": "0"},
                            {"AL": "pop", "AR": "push0"}, final))
            rows.append(Row(av, None, {"AL": "1"},
                            {"AL": "pop", "AR": "push1"}, final))
            final = av
        rows += _main_rule_rows(f"d_{q}", a, wr, mv, final,
                                (f"mw_{i}", f"mu_{i}", f"mv_{i}"),
                                obs={"AR": "e" if adv == BLANK else adv},
                                ops=aops)
    return rows, tgt


def tma_to_stack(m):
    """Advice machine over stacks, advice pulled on demand from XA.

    XA holds the unread advice suffix, oldest bit on top; the machine
    window AL/AR mirrors the advice tape around the head.  A symbolic
    run preloaded with init_stacks={"XA": advice_word} replays the
    two-tape run exactly: the window tops up one bit at a time, so XA
    runs dry precisely when the head first needs a bit past the
    preloaded length, which then reads as the blank region.  Machines
    that move the advice head right while on that blank region are not
    representable and are rejected.
    """
    rows, tgt = _tma_rows(m, "XA", on_underflow=None)
    rows = _loader_rows(tgt(m.initial)) + rows
    return StackMachineSpec(stacks=("L", "R", "AL", "AR", "XA"), rows=rows,
                            initial="load1")


def tma_to_stack_replay(m):
    """Advice machine over stacks for the evolving-bias setting.

    Advice bits arrive over time in an accumulator outside the stack
    discipline (newest on top).  When the working copy XAP runs dry the
    machine rebuilds: discard the advice window and XAP, capture the
    accumulator into CP in one step (the load_from op, given meaning by
    the network compiler), reverse it into XAP so the oldest bit
    surfaces, restore the input tape from the pristine copy RCOPY, and
    replay from the initial state.  Every round captures the full
    arrival-order prefix, so each round sees strictly more advice and
    the number of rounds stays logarithmic in the bits consumed.
    """
    rows, tgt = _tma_rows(m, "XAP", on_underflow="RB1")
    rows = _loader_rows(tgt(m.initial), tap="RCOPY") + rows
    rows += _drain_rows("RB1", "AL", "RB2")
    rows += _drain_rows("RB2", "AR", "RB3")
    rows += _drain_rows("RB3", "XAP", "RB4")
    rows.append(Row("RB4", None, {}, {"CP": ("load_from", "@acc")}, "RB5"))
    rows += _drain_rows("RB5", "CP", "RB6", into="XAP")
    rows += _drain_rows("RB6", "R", "RB7")
    rows += _drain_rows("RB7", "L", "RB8")
    rows += _drain_rows("RB8", "RCOPY", "RB9", into="W0")
    rows += _drain_rows("RB9", "W0", tgt(m.initial), into="R", extra="RCOPY")
    return StackMachineSpec(
        stacks=("L", "R", "AL", "AR", "XAP", "CP", "RCOPY", "W0"),
        rows=rows, initial="load1", extra_ops=("load_from",))


# --------------------------------------------------------------------------
# probabilistic runs


def _ptm_branch(rule, tape, head, steps, prob):
    write, move, nxt = rule
    return nxt, tape, _apply_write_move(tape, head, write, move), steps, prob


def ptm_run_exact(m, w, bound, budget=10 ** 6):
    """Exact acceptance probability by branch enumeration.

    Branches split only where the two transition maps give different
    rules, which always lead to different configurations, so
    deterministic stretches cost nothing.  budget caps the number of split
    events; bound caps per-branch steps (exceeding it raises Timeout
    since a single unresolved branch poisons the whole probability).
    """
    check_bitword(w)
    accept_prob = as_rat(0)
    pending = [(m.initial, _tape_of(w), 0, 0, as_rat(1))]
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
        key = (state, tape.get(head, BLANK))
        rule0 = tuple(_rule(m.trans0, key))
        if tuple(m.trans1.get(key, ())) == rule0:
            pending.append(_ptm_branch(rule0, tape, head, steps + 1, prob))
            continue
        half = prob / 2
        succ0 = _ptm_branch(rule0, dict(tape), head, steps + 1, half)
        succ1 = _ptm_branch(_rule(m.trans1, key), tape, head, steps + 1, half)
        splits += 1
        if splits > budget:
            raise BudgetExceeded(f"more than {budget} branch splits")
        pending += succ0, succ1
    return accept_prob


def bpp_decide(p):
    """Two-thirds rule: accept at >= 2/3, reject at <= 1/3, else error."""
    p = as_rat(p)
    if p >= as_rat(2) / 3:
        return "accept"
    if p <= as_rat(1) / 3:
        return "reject"
    raise BppViolation(f"acceptance probability {p} in the forbidden band")


def ptm_run_with_choices(m, w, choices, bound):
    """Deterministic replay: the sequence choices supplies the coin for
    every step.  Returns (Decision, number of coins consumed).
    """
    return _tape_loop(m.initial, w,
                      lambda steps: m.trans1 if choices[steps] else m.trans0,
                      bound)
