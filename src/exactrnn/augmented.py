"""Analog, evolving, and stochastic network semantics.

Three ways a rational network acquires extra power, each with an exact
finite realization here:

  * analog: one cell's bias is a real number, presented as an infinite
    digit stream; runs use interval arithmetic over lazily materialized
    digit prefixes (both interval ends of every live cell as integer
    numerators over one shared denominator) and retry with more digits
    when a threshold comparison is not yet pinned down;
  * evolving: one cell's bias is a bit that changes every step;
    runs are exact since bits are exact;
  * stochastic: a third input line carries coin flips with a fixed
    per-step probability; acceptance follows the two-thirds rule over
    the acceptance probability (enumerated exactly or sampled).

On top of the semantics sit the four cross-simulation procedures
between these networks and advice Turing machines, and the truncated
execution used by the machine sides: run a network with all weights
and all activations cut to q fractional bits and calibrate how many
bits reproduce exact behavior.
"""

import itertools
import math
import random
import warnings
from dataclasses import dataclass

from .compiler import (
    NetBuilder, add_boot_and_clock, add_control, add_stack_block,
    assemble_program, wire_guard_ops,
)
from .errors import (
    BudgetExceeded, DegenerateProbability, NoConvergence, PrecisionExhausted,
    PreconditionViolated, ProtocolViolation, Timeout, UndefinedThreshold,
)
from .machines import (
    BLANK, Row, StackMachineSpec, TERMINALS, bpp_decide, ptm_run_with_choices,
)
from .network import Decision, RnnConfig, input_at, step
from .words import BitStream, Rat, ZERO, as_rat, delta4, trunc_frac


def ceil_log2(x):
    """Smallest integer L with 2^L >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 needs a positive argument")
    return (x - 1).bit_length()


def _ceil_rat(x):
    x = as_rat(x)
    return int(-((-x.numerator) // x.denominator))


def _derive(cfg, key, build):
    """Config derived from cfg, built on first use and kept on cfg."""
    derived = cfg._derived.get(key)
    if derived is None:
        derived = cfg._derived[key] = build()
    return derived


# ==========================================================================
# network variants


@dataclass
class AnnSpec:
    """Rational network with a single analog bias.

    The bias of cell bias_cell (index 0 in compiled instances) is the
    stack encoding of the infinite stream: conceptually a real number,
    never fully materialized.  base carries no entry for that bias;
    runners install a prefix value or a prefix interval.
    """

    base: RnnConfig
    bias_stream: BitStream
    bias_cell: int = 0

    def __post_init__(self):
        key = (self.bias_cell, self.base.n_in)
        if key in self.base.w_in:
            raise ValueError("analog bias cell already has a rational bias")

    def to_json(self):
        return {"type": "ann", "base": self.base.to_json(),
                "bias_cell": self.bias_cell,
                "bias_stream": self.bias_stream.to_json()}

    @classmethod
    def from_json(cls, d):
        return cls(base=RnnConfig.from_json(d["base"]),
                   bias_stream=BitStream.from_json(d["bias_stream"]),
                   bias_cell=d.get("bias_cell", 0))


@dataclass
class EnnSpec:
    """Rational network whose cell-0 bias is a fresh bit every step."""

    base: RnnConfig
    evolving_bias: BitStream
    restart_cells: tuple = ()

    def to_json(self):
        return {"type": "enn", "base": self.base.to_json(),
                "evolving_bias": self.evolving_bias.to_json()}

    @classmethod
    def from_json(cls, d):
        return cls(base=RnnConfig.from_json(d["base"]),
                   evolving_bias=BitStream.from_json(d["evolving_bias"]))


@dataclass
class SnnSpec:
    """Three-input network whose x_2 line flips a p-biased coin each step.

    p is the binary value of prob_stream; the stream's bits are the
    binary expansion used by the lexicographic sampler.
    """

    base: RnnConfig
    prob_stream: BitStream

    def __post_init__(self):
        if self.base.n_in != 3:
            raise ValueError("stochastic networks need the third input line")

    def to_json(self):
        return {"type": "snn", "base": self.base.to_json(),
                "prob_stream": self.prob_stream.to_json()}

    @classmethod
    def from_json(cls, d):
        return cls(base=RnnConfig.from_json(d["base"]),
                   prob_stream=BitStream.from_json(d["prob_stream"]))


@dataclass(frozen=True)
class TruncationPolicy:
    q: int
    mode: str = "toward-zero"

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("precision must be at least one bit")
        if self.mode != "toward-zero":
            raise ValueError(f"unsupported truncation mode {self.mode!r}")


def delta4_stream_value(stream):
    """Exact stack encoding of an infinite stream when it has a closed
    form (constant tail, periodic, or rational expansion); None for
    algorithmic and pseudo-random streams."""

    def tail_value(head, cyc):
        cyc_val = delta4(cyc) * 4 ** len(cyc) / (4 ** len(cyc) - 1)
        return delta4(head) + cyc_val / 4 ** len(head)

    spec = stream._spec
    if spec is None:
        return None
    kind = spec.get("kind")
    if kind == "word":
        head, tail = spec["word"], spec["tail"]
        return delta4(head) + as_rat(2 * tail + 1) / 3 / 4 ** len(head)
    if kind == "periodic":
        return tail_value(spec["head"], spec["cycle"])
    if kind == "rational":
        r, seen, bits = stream.value, {}, []
        while r not in seen:
            seen[r] = len(bits)
            r2 = r * 2
            b = 1 if r2 >= 1 else 0
            bits.append(str(b))
            r = r2 - b
        j = seen[r]
        return tail_value("".join(bits[:j]), "".join(bits[j:]))
    return None


# ==========================================================================
# analog runs: interval arithmetic over a lazily revealed bias


class _Unresolved(Exception):
    """A threshold comparison straddled a boundary at this precision."""


def _pin(lo, hi, one):
    """Threshold of the interval [lo, hi] / one, decided on integers."""
    if hi <= 0:
        return 0
    if lo >= one:
        return 1
    if lo > 0 and hi < one:
        raise UndefinedThreshold(
            f"output interval [{Rat(lo, one)}, {Rat(hi, one)}] inside (0,1)")
    raise _Unresolved


def _clamp(v, one):
    return 0 if v <= 0 else v if v < one else one


def _bias_interval(prefix):
    """[enc + 4^-B/3, enc + 4^-B] for a B-digit prefix with encoding enc,
    as (lower numerator, upper numerator, denominator 3 * 4^B).  The
    encoding of every stream that starts with the prefix lies inside."""
    scale = 4 ** len(prefix)
    enc = delta4(prefix)
    m = 3 * int(enc.numerator) * (scale // int(enc.denominator))
    return m + 1, m + 3, 3 * scale


def _interval_step(cfg, den, lo, hi, x, bias_cell, bias):
    """Interval image of one step.

    lo and hi map each live cell to the numerators of its lower and
    upper end over den; returns (den, lo, hi) of the next state, in
    lowest terms.  A weight reads the lower or the upper end by its
    sign.  The bias interval (bias[0], bias[1]) / bias[2] enters
    bias_cell; its denominator joins the shared one only when that cell
    stays live.
    """
    acc_lo = dict.fromkeys(cfg._pos_bias, 0)
    acc_hi = dict(acc_lo)
    get_lo, get_hi = acc_lo.get, acc_hi.get
    for c, xv in enumerate(x):
        if xv:
            xv *= den
            for i, w in cfg._in_cols[c]:
                v = w * xv
                acc_lo[i] = get_lo(i, 0) + v
                acc_hi[i] = get_hi(i, 0) + v
    res = cfg._res_by_col
    for j, mh in hi.items():
        col = res.get(j)
        if not col:
            continue
        ml = lo[j]
        for i, w in col:
            if w > 0:
                acc_lo[i] = get_lo(i, 0) + w * ml
                acc_hi[i] = get_hi(i, 0) + w * mh
            else:
                acc_lo[i] = get_lo(i, 0) + w * mh
                acc_hi[i] = get_hi(i, 0) + w * ml
    one = cfg._den * den
    bias_map = cfg._bias_map
    cl, ch = acc_lo.pop(bias_cell, 0), acc_hi.pop(bias_cell, 0)
    new_lo, new_hi = {}, {}
    for i, vh in acc_hi.items():
        vl = acc_lo[i]
        b = bias_map.get(i)
        if b:
            b *= den
            vl += b
            vh += b
        if vh > 0:
            new_lo[i] = _clamp(vl, one)
            new_hi[i] = _clamp(vh, one)
    bl, bh, bden = bias
    b = bias_map.get(bias_cell, 0) * den
    ch = (ch + b) * bden + bh * one
    if ch > 0:
        cl = (cl + b) * bden + bl * one
        one *= bden
        new_lo = {i: v * bden for i, v in new_lo.items()}
        new_hi = {i: v * bden for i, v in new_hi.items()}
        new_lo[bias_cell] = _clamp(cl, one)
        new_hi[bias_cell] = _clamp(ch, one)
    g = math.gcd(one, *new_hi.values(), *new_lo.values())
    if g > 1:
        one //= g
        new_lo = {i: v // g for i, v in new_lo.items()}
        new_hi = {i: v // g for i, v in new_hi.items()}
    return one, new_lo, new_hi


def _interval_readout(cfg, den, lo, hi):
    """Output pair of an interval state; raises _Unresolved while an
    output interval straddles 0 or 1."""
    sums = []
    for row in cfg._out_rows:
        sl = sh = 0
        for j, w in row:
            mh = hi.get(j)
            if mh is None:
                continue
            ml = lo[j]
            if w > 0:
                sl += w * ml
                sh += w * mh
            else:
                sl += w * mh
                sh += w * ml
        sums.append((sl, sh))
    one = cfg._den * den
    y1 = _pin(*sums[1], one)
    return _pin(*sums[0], one), y1


def _interval_run(cfg, bias_cell, bias, w, max_steps):
    start = cfg._start
    den, lo, hi = start.den, start.nums, start.nums
    for t in range(max_steps):
        den, lo, hi = _interval_step(cfg, den, lo, hi,
                                     input_at(w, t, cfg.n_in), bias_cell, bias)
        y0, y1 = _interval_readout(cfg, den, lo, hi)
        if y1 == 1:
            return Decision("accept" if y0 == 1 else "reject", tau=t + 1)
        if y0 != 0:
            raise ProtocolViolation(
                f"output bit fired without validation at t={t + 1}")
    return Decision("timeout")


def ann_run(a, w, max_steps, start_bits=None, max_bits=1 << 16):
    """Protocol run of an analog network, exact in the limit.

    The bias is known only through digit prefixes.  With B digits it is
    confined to [enc(prefix) + 4^-B/3, enc(prefix) + 4^-B]; the run
    proceeds in interval arithmetic, and any threshold the interval
    cannot yet decide doubles B and retries.  A comparison no precision
    can settle raises UndefinedThreshold; hitting max_bits raises
    PrecisionExhausted.

    The state is two maps of live cells, the lower and the upper
    numerators, over one shared integer denominator that a single gcd
    per step keeps in lowest terms; thresholds are integer comparisons.
    """
    if max_steps < len(w):
        raise ValueError("max_steps smaller than the input word")
    bits = start_bits if start_bits is not None else 16
    while bits <= max_bits:
        bias = _bias_interval(a.bias_stream.prefix(bits))
        try:
            return _interval_run(a.base, a.bias_cell, bias, w, max_steps)
        except _Unresolved:
            bits *= 2
    raise PrecisionExhausted(f"still unresolved at {max_bits} bias digits")


# ==========================================================================
# evolving runs


def _lift_evolving(cfg):
    """Route an evolving bias into cell 0 through the stochastic input
    column: the bias column moves from index 2 to 3 and x_2 gets weight
    one into cell 0."""
    if cfg.n_in != 2:
        raise ValueError("evolving lift expects a two-input base")

    def build():
        w_in = {}
        for (i, c), wt in cfg.w_in.items():
            w_in[(i, 3 if c == 2 else c)] = wt
        if (0, 2) in w_in:
            raise ValueError("cell 0 already reads the stochastic line")
        w_in[(0, 2)] = as_rat(1)
        return RnnConfig(k=cfg.k, w_in=w_in, w_res=cfg.w_res, w_out=cfg.w_out,
                         h0=cfg.h0, n_in=3, cell_names=cfg.cell_names)

    return _derive(cfg, "evolving", build)


def enn_run(e, w, max_steps, want_trace=False):
    """Exact protocol run: the evolving bit of step t enters cell 0."""
    from .network import run_word
    lifted = _lift_evolving(e.base)
    return run_word(lifted, w, max_steps, want_trace=want_trace,
                    x2=e.evolving_bias.bit)


def count_restarts(e, trace):
    """Number of replay rounds in a traced evolving run."""
    cells = e.restart_cells
    return sum(1 for _t, h, _y in trace for c in cells if h[c] == 1)


# ==========================================================================
# truncated execution


def truncate_config(cfg, q):
    """Copy of a network with every weight cut to q fractional bits.

    Built once per q and kept on cfg; a network whose weights and
    initial state are all multiples of 2^-q is its own truncation.
    """
    one = 1 << q
    if one % cfg._den == 0 and one % cfg._start.den == 0:
        return cfg

    def cut(d):
        return {k: trunc_frac(v, q) for k, v in d.items()}

    return _derive(cfg, ("truncated", q), lambda: RnnConfig(
        k=cfg.k, w_in=cut(cfg.w_in), w_res=cut(cfg.w_res),
        w_out=cut(cfg.w_out), h0=[trunc_frac(v, q) for v in cfg.h0],
        n_in=cfg.n_in, cell_names=cfg.cell_names))


def _truncated_loop(cfg, w, steps, q, x2=None):
    """Protocol run of the q-bit truncation of cfg, its state cut back
    to q bits after every step.  step still reads out the uncut state,
    so a garbled output line raises as it would in the exact run."""
    if steps < len(w):
        raise ValueError("steps smaller than the input word")
    tcfg = truncate_config(cfg, q)
    state = tcfg._start
    for t in range(steps):
        state, y = step(tcfg, state, input_at(w, t, tcfg.n_in, x2))
        cut = state.truncated(q)
        if cut is not state:
            state = cut
            y = tcfg.readout(state)
        if y[1] == 1:
            return Decision("accept" if y[0] == 1 else "reject", tau=state.t)
        if y[0] != 0:
            raise ProtocolViolation(
                f"output bit fired without validation at t={state.t}")
    return Decision("timeout")


def truncate_run(spec, policy, w, steps, x2=None):
    """Run with weights and activations cut to policy.q bits each step.

    Accepts a plain network, an analog one (the bias becomes the
    truncation of its first q digits), or an evolving one (bits are
    exact; only the rational part is cut).
    """
    q = policy.q
    if isinstance(spec, AnnSpec):
        return _truncated_loop(_with_prefix_bias(spec, q), w, steps, q, x2)
    if isinstance(spec, EnnSpec):
        lifted = _lift_evolving(spec.base)
        return _truncated_loop(lifted, w, steps, q,
                               x2=spec.evolving_bias.bit)
    return _truncated_loop(_cfg_of(spec), w, steps, q, x2)


def _cfg_of(spec):
    if isinstance(spec, RnnConfig):
        return spec
    return spec.cfg


def _with_prefix_bias(a, q):
    """The analog net with its bias cut to q bits of its first q digits."""
    value = trunc_frac(delta4(a.bias_stream.prefix(q)), q)
    cfg = a.base

    def build():
        w_in = dict(cfg.w_in)
        w_in[(a.bias_cell, cfg.n_in)] = value
        return RnnConfig(k=cfg.k, w_in=w_in, w_res=cfg.w_res, w_out=cfg.w_out,
                         h0=cfg.h0, n_in=cfg.n_in, cell_names=cfg.cell_names)

    return _derive(cfg, ("bias", a.bias_cell, value), build)


@dataclass(frozen=True)
class CalibrationResult:
    c: int
    witness: str                # word that still failed at c - 1, if any


def exact_run(spec, w, steps):
    """Reference run for any network flavor, used as calibration truth."""
    from .network import run_word
    if isinstance(spec, AnnSpec):
        return ann_run(spec, w, steps)
    if isinstance(spec, EnnSpec):
        return enn_run(spec, w, steps)
    return run_word(_cfg_of(spec), w, steps)


def calibrate_c(spec, corpus, f, c_max=64):
    """Smallest c such that q = c*f(n) bits reproduce the exact run on
    every corpus word, with the word that forced the last increment.

    f(n) is the step budget at length n; the exact run must decide
    within it for the comparison to mean anything.  Works for plain,
    compiled, analog, and evolving networks alike.
    """
    exact = {}
    for w in corpus:
        exact[w] = exact_run(spec, w, f(len(w)))
    witness = None
    for c in range(1, c_max + 1):
        bad = None
        for w in corpus:
            q = max(1, c * f(len(w)))
            try:
                d = truncate_run(spec, TruncationPolicy(q), w, f(len(w)))
            except (UndefinedThreshold, ProtocolViolation):
                bad = w       # too few bits can garble the output lines
                break
            e = exact[w]
            if d.kind != e.kind or d.tau != e.tau:
                bad = w
                break
        if bad is None:
            return CalibrationResult(c=c, witness=witness)
        witness = bad
    raise NoConvergence(f"no c <= {c_max} reproduces exact behavior")


# ==========================================================================
# advice machine -> stack program, analog flavor and replay flavor


_MAIN_OBS = {"0": {"R": "0"}, "1": {"R": "1"}, BLANK: {"R": "e"}}


def _check_main_rule(q, a, wr, mv):
    if wr == BLANK and not (a == BLANK and mv in ("L", "S")):
        raise PreconditionViolated(
            f"rule at ({q},{a}) erases a written main cell")
    if a == BLANK and mv == "R":
        raise PreconditionViolated(
            f"rule at ({q},{a}) walks right through main blanks")


def _expand_advice(m):
    """Concrete (state, main, advice) -> rule table with wildcards
    resolved, plus the keys that were written out explicitly; advice
    symbol "_" stands for the region past the end."""
    table, explicit = {}, set()
    for (q, a, adv), rule in m.trans.items():
        if adv != "*":
            table[(q, a, adv)] = rule
            explicit.add((q, a, adv))
    for (q, a, adv), rule in m.trans.items():
        if adv == "*":
            for b in ("0", "1", BLANK):
                table.setdefault((q, a, b), rule)
    return table, explicit


def _loader_rows(first_state, tap=None):
    def push_tap(b):
        ops = {"L": "pop", "R": f"push{b}"}
        if tap:
            ops[tap] = f"push{b}"
        return ops

    return [
        Row("load1", "0", {}, {"L": "push0"}, "load1"),
        Row("load1", "1", {}, {"L": "push1"}, "load1"),
        Row("load1", "end", {}, {}, "load2"),
        Row("load2", None, {"L": "0"}, push_tap("0"), "load2"),
        Row("load2", None, {"L": "1"}, push_tap("1"), "load2"),
        Row("load2", None, {"L": "e"}, {}, first_state),
    ]


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
    table, explicit = _expand_advice(m)
    rows = []
    states = sorted({q for (q, _a, _b) in table})

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

    for i, ((q, a, adv), (wr, mv, amv, q2)) in enumerate(sorted(table.items())):
        _check_main_rule(q, a, wr, mv)
        if adv == BLANK:
            if on_underflow:
                continue            # replay flavor: advice never ends
            if amv == "R":
                if (q, a, adv) not in explicit:
                    continue        # wildcard spillover; stuck if reached
                raise PreconditionViolated(
                    f"rule at ({q},{a},_) walks right past the advice end")
        obs = dict(_MAIN_OBS[a])
        obs["AR"] = "e" if adv == BLANK else adv
        ops = {"R": "pop"}
        if mv == "R":
            ops["L"] = f"push{wr}"
        if amv == "R":
            ops["AR"] = "pop"
            ops["AL"] = f"push{adv}"
        final = tgt(q2)
        if amv == "L":
            av = f"av_{i}"
            rows.append(Row(av, None, {"AL": "0"},
                            {"AL": "pop", "AR": "push0"}, final))
            rows.append(Row(av, None, {"AL": "1"},
                            {"AL": "pop", "AR": "push1"}, final))
            final = av
        if mv == "R":
            rows.append(Row(f"d_{q}", None, obs, ops, final))
        elif mv == "S":
            mid = f"mw_{i}"
            rows.append(Row(f"d_{q}", None, obs, ops, mid))
            wops = {"R": f"push{wr}"} if wr != BLANK else {}
            rows.append(Row(mid, None, {}, wops, final))
        else:
            mid1, mid2 = f"mu_{i}", f"mv_{i}"
            rows.append(Row(f"d_{q}", None, obs, ops, mid1))
            wops = {"R": f"push{wr}"} if wr != BLANK else {}
            rows.append(Row(mid1, None, {}, wops, mid2))
            rows.append(Row(mid2, None, {"L": "0"},
                            {"L": "pop", "R": "push0"}, final))
            rows.append(Row(mid2, None, {"L": "1"},
                            {"L": "pop", "R": "push1"}, final))
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


def ann_from_tma(m, r):
    """Compile an advice machine into an analog network.

    The machine's advice must be the digit prefixes of r.  Cell 0
    presents the full encoding of r for exactly one step after the
    input ends; the XA stack block latches it, and from then on pops
    peel advice digits off a genuinely real-valued content cell.  The
    network never sees the advice end: a run that would read past the
    prefix reads extension digits instead, which is harmless exactly
    when the machine satisfies the length-consistency condition.
    """
    program = assemble_program(tma_to_stack(m))
    b = NetBuilder(n_in=2)
    cell0 = b.add("bias/cell0")
    ctx = add_boot_and_clock(b)
    b.from_input(cell0, 1, -1)
    b.wire(cell0, ctx["started"], -1)
    stack_cells = {}
    for s in program.stacks:
        stack_cells[s] = add_stack_block(
            b, s, ctx, absorbs_input=(s == "IN"),
            handover_src=(cell0 if s == "XA" else None))
    _st, guards, _dec, _spike = add_control(b, ctx, program, stack_cells,
                                            program.initial)
    wire_guard_ops(b, program, guards, stack_cells)
    return AnnSpec(base=b.finalize(), bias_stream=r, bias_cell=0)


def enn_from_tma(m, e):
    """Compile an advice machine into an evolving network.

    The evolving bit of step t lands in cell 0; an accumulator cell
    pushes every arriving bit onto a growing encoded word (newest digit
    on top), and the replay program's capture op copies that word into
    the CP stack in a single step.  restart_cells in the result mark
    the capture guards, so a traced run counts replay rounds directly.
    """
    program = assemble_program(tma_to_stack_replay(m),
                               allowed_extra=("load_from",))
    b = NetBuilder(n_in=2)
    cell0 = b.add("bias/cell0")
    ctx = add_boot_and_clock(b)
    notfirst = b.add("bias/notfirst", bias=1)
    acc = b.add("bias/acc", bias=as_rat("-3/4"))
    b.wire(acc, acc, as_rat("1/4"))
    b.wire(acc, cell0, as_rat("1/2"))
    b.wire(acc, notfirst, 1)
    stack_cells = {}
    for s in program.stacks:
        stack_cells[s] = add_stack_block(b, s, ctx,
                                         absorbs_input=(s == "IN"))
    _st, guards, _dec, _spike = add_control(b, ctx, program, stack_cells,
                                            program.initial)

    def wire_load(bb, g, weight, _row, s):
        cells = stack_cells[s]
        if "cand_load" not in cells:
            cand = bb.add(f"stack/{s}/cand_load")
            bb.wire(cand, acc, 1)
            bb.from_input(cand, bb.n_in, -1)
            bb.wire(cells["content"], cand, 1)
            cells["cand_load"] = cand
        bb.wire(cells["cand_load"], g, weight)

    wire_guard_ops(b, program, guards, stack_cells,
                   op_table={"load_from": (wire_load, 1)})
    restarts = tuple(guards[i] for i, row in enumerate(program.rows)
                     if row.state == "RB4")
    return EnnSpec(base=b.finalize(), evolving_bias=e, restart_cells=restarts)


# ==========================================================================
# procedure 1 and 2: machines simulate analog / evolving networks


def algo1_tma_simulate_ann(a, f, c, w):
    """Decide w the way an advice machine simulates an analog network:
    query the first c*f(n) bias digits, run the network truncated to
    that many bits for f(n) steps, output what it outputs.  f counts
    network steps; with c at or above the calibrated constant the
    result equals the exact analog run.
    """
    n = len(w)
    fn = f(n)
    if fn == 0:
        warnings.warn("empty step budget: zero-bias truncation, "
                      "divergence from the analog run is expected")
        return Decision("timeout")
    q = c * fn
    return _truncated_loop(_with_prefix_bias(a, q), w, fn, q)


def algo2_tma_simulate_enn(e, f, c, w):
    """Evolving counterpart of the analog simulation: the machine reads
    the bias bit of each step as it goes and runs the truncated
    network; bits are exact, so truncation only touches the rational
    weights."""
    n = len(w)
    fn = f(n)
    if fn == 0:
        warnings.warn("empty step budget: nothing can be simulated")
        return Decision("timeout")
    lifted = _lift_evolving(e.base)
    return _truncated_loop(lifted, w, fn, c * fn, x2=e.evolving_bias.bit)


# ==========================================================================
# stochastic runs


def bernoulli_from_stream(rng, stream):
    """One coin flip with success probability the stream's binary value.

    Compares fair bits against the expansion lexicographically; the
    comparison settles after a geometric number of bits, so the draw
    is exact without ever forming the probability."""
    i = 0
    while True:
        b = rng.getrandbits(1)
        s = stream.bit(i)
        if b != s:
            return 1 if b < s else 0
        i += 1


@dataclass
class SnnResult:
    probability: object          # exact rational (enumeration) or estimate
    decision: Decision
    mode: str
    tau: int
    trials: int = None


def snn_run(s, w, tau, mode="exact", trials=1000, seed=0, budget=4096):
    """Acceptance probability of a stochastic network at runtime tau.

    Exact mode enumerates all 2^tau coin patterns (the probability must
    have a closed form and 2^tau must fit the budget) and checks the
    fixed-runtime discipline: every pattern must decide at exactly tau.
    Monte Carlo mode samples patterns instead.  The decision applies
    the two-thirds rule and raises BppViolation inside the gap.
    """
    p = s.prob_stream.value
    if mode == "exact":
        if p is None:
            raise ValueError("exact enumeration needs a closed-form "
                             "coin probability")
        if 2 ** tau > budget:
            raise BudgetExceeded(f"2^{tau} patterns exceed the budget")
        prob = ZERO
        for bits in itertools.product((0, 1), repeat=tau):
            d = _run_fixed(s.base, w, tau, bits)
            if d.kind == "accept":
                weight = as_rat(1)
                for b in bits:
                    weight *= p if b else 1 - p
                prob += weight
        return SnnResult(probability=prob,
                         decision=Decision(bpp_decide(prob), tau=tau),
                         mode="exact", tau=tau)
    if mode == "mc":
        accepts = 0
        for i in range(trials):
            rng = random.Random(seed * 2 ** 64 + i)
            bits = [bernoulli_from_stream(rng, s.prob_stream)
                    for _ in range(tau)]
            if _run_fixed(s.base, w, tau, bits).kind == "accept":
                accepts += 1
        est = as_rat(accepts) / trials
        return SnnResult(probability=est,
                         decision=Decision(bpp_decide(est), tau=tau),
                         mode="mc", tau=tau, trials=trials)
    raise ValueError(f"unknown mode {mode!r}")


def _run_fixed(cfg, w, tau, bits):
    from .network import run_word
    d = run_word(cfg, w, tau, x2=bits)
    if d.kind == "timeout":
        raise Timeout(f"pattern {bits} undecided at tau={tau}")
    if d.tau != tau:
        raise ProtocolViolation(
            f"pattern {bits} decided at {d.tau}, runtime discipline "
            f"demands exactly {tau}")
    return d


# ==========================================================================
# procedure 3: an advice machine simulates a stochastic network


@dataclass
class PairedCoins:
    choices: list                # coins fed to the truncated network
    ideal: list                  # coins an exact-probability source gives
    diverged: bool


def algo3_ptma_simulate_snn(s, f, w, seed, paired=False):
    """Replace the real-probability coin by an advice-prefix coin.

    Per step, draw L = ceil(log2(5 f(n))) fair bits and flip 1 exactly
    when they sort below the first L expansion bits of the coin
    probability; the per-step bias error is below 1/(5 f(n)), so the
    whole run diverges from an exact-coin run with probability at most
    1/5.  The sampled coins drive the truncated network for f(n) steps.

    paired additionally extends each comparison with further fair bits
    to get the exact-probability coin of the same randomness, for
    measuring the divergence rate empirically.
    """
    n = len(w)
    fn = f(n)
    if fn < 1:
        raise ValueError("step budget must be positive")
    L = max(1, ceil_log2(5 * fn))
    prefix = s.prob_stream.prefix(L)
    rng = random.Random(seed)
    choices, ideal = [], []
    for _t in range(fn):
        bits = "".join("1" if rng.getrandbits(1) else "0" for _ in range(L))
        choices.append(1 if bits < prefix else 0)
        if paired:
            if bits != prefix:
                ideal.append(choices[-1])
            else:
                i = L
                while True:
                    fb = rng.getrandbits(1)
                    sb = s.prob_stream.bit(i)
                    if fb != sb:
                        ideal.append(1 if fb < sb else 0)
                        break
                    i += 1
    d = _truncated_loop(s.base, w, fn, 5 * fn, x2=choices)
    if paired:
        return d, PairedCoins(choices=choices, ideal=ideal,
                              diverged=(choices != ideal))
    return d


# ==========================================================================
# procedure 4: a stochastic network simulates a probabilistic machine


@dataclass
class Algo4Result:
    decision: Decision
    advice_estimate: str         # expansion bits recovered from sampling
    estimate_failed: bool        # sample mean off by more than 1/f(n)
    prefix_mismatch: bool        # recovered bits differ from the true ones
    exhaustions: int             # fair-bit rounds that hit the pair budget
    k_samples: int
    pair_budget: int


def algo4_snn_simulate_ptma(m, p_stream, f, w, seed):
    """Three-phase simulation of a coin-flipping advice machine by a
    network whose only randomness is a p-biased coin.

    Phase one estimates the machine's advice: k(n) = ceil(10 p (1-p)
    f(n)^2) flips, whose mean is correct to within 1/f(n) except with
    probability at most 1/10; its first ceil(log2 f(n)) expansion bits
    become the advice estimate.  Phase two extracts fair bits from the
    biased coin by rejection on pairs, with the pair budget K chosen
    exactly so the leftover bias (p^2 + (1-p)^2)^K drops under
    1/(16 f(n)).  Phase three replays the machine on those fair bits
    with the estimated advice.  m maps an advice word to the machine it
    parameterizes.
    """
    p = p_stream.value
    if p is None:
        raise ValueError("the construction sizes its sampling from an "
                         "exact coin probability")
    if p in (0, 1):
        raise DegenerateProbability("a fair bit cannot be extracted from "
                                    "a deterministic coin")
    n = len(w)
    fn = f(n)
    if fn < 1:
        raise ValueError("step budget must be positive")
    rng = random.Random(seed)

    k = int(_ceil_rat(10 * p * (1 - p) * fn * fn))
    hits = sum(bernoulli_from_stream(rng, p_stream) for _ in range(k))
    mean = as_rat(hits) / k
    adv_len = max(1, ceil_log2(fn))
    v = min(int(mean * 2 ** adv_len), 2 ** adv_len - 1)
    estimate = format(v, f"0{adv_len}b")
    estimate_failed = abs(mean - p) > as_rat(1) / fn
    prefix_mismatch = estimate != p_stream.prefix(adv_len)

    stick = p * p + (1 - p) * (1 - p)
    bound = as_rat(1) / (16 * fn)
    budget, left = 1, stick
    while left > bound:
        left *= stick
        budget += 1

    fair, exhaustions = [], 0
    for _i in range(fn):
        bit = None
        for _j in range(budget):
            b1 = bernoulli_from_stream(rng, p_stream)
            b2 = bernoulli_from_stream(rng, p_stream)
            if b1 != b2:
                bit = b1
                break
        if bit is None:
            exhaustions += 1
            bit = 0
        fair.append(bit)

    d, _used = ptm_run_with_choices(m(estimate), w, fair, fn)
    return Algo4Result(decision=d, advice_estimate=estimate,
                       estimate_failed=estimate_failed,
                       prefix_mismatch=prefix_mismatch,
                       exhaustions=exhaustions, k_samples=k,
                       pair_budget=budget)


# ==========================================================================
# majority amplification


def amplify_majority(runner, repeats):
    """Majority vote over independently indexed runs.

    runner maps a run index to a Decision; timeouts count against
    acceptance.  repeats must be odd so the vote cannot tie.
    """
    if repeats % 2 == 0:
        raise ValueError("an even vote can tie")
    accepts = 0
    for i in range(repeats):
        if runner(i).kind == "accept":
            accepts += 1
    return Decision("accept" if accepts > repeats // 2 else "reject")


def amplify_majority_exact(p_accept, repeats):
    """Exact probability that a majority of repeats accepts."""
    if repeats % 2 == 0:
        raise ValueError("an even vote can tie")
    p = as_rat(p_accept)
    total = ZERO
    for j in range(repeats // 2 + 1, repeats + 1):
        total += math.comb(repeats, j) * p ** j * (1 - p) ** (repeats - j)
    return total
