"""Analog, evolving, and stochastic network semantics.

Three ways a rational network acquires extra power, each with an exact
finite realization here:

  * analog: one cell's bias is a real number, presented as an infinite
    digit stream; runs use interval arithmetic over lazily materialized
    digit prefixes, as exact runs of a net with two cells per cell (the
    lower and the upper end of its interval), and retry with more digits
    when a threshold comparison is not yet pinned down;
  * evolving: one cell's bias is a bit that changes every step;
    runs are exact since bits are exact;
  * stochastic: a third input line carries coin flips with a fixed
    per-step probability; acceptance follows the two-thirds rule over
    the acceptance probability (enumerated exactly or sampled).  A
    sampled coin compares fair bits with the probability's binary
    expansion, and one table lookup settles every coin that ends within
    a window of fair bits.  The fair bits come from whole generator
    words: the top bit of a 32-bit word is what getrandbits(1) returns,
    so a seed gives the same bits, coins and results as one call per
    bit, and each run owns its generator, so bits read ahead are never
    seen.

On top of the semantics sit the four cross-simulation procedures
between these networks and advice Turing machines, and the truncated
execution used by the machine sides: run a network with all weights
and all activations cut to q fractional bits and calibrate how many
bits reproduce exact behavior.  ann_from_tma and enn_from_tma compile
an advice machine into an analog or evolving network from its rewrite
over binary stacks, which machines owns (tma_to_stack and
tma_to_stack_replay).
"""

import functools
import itertools
import math
import random
import warnings
from dataclasses import dataclass

from .compiler import (
    NetBuilder, add_boot_and_clock, assemble_program, wire_program,
)
from .errors import (
    BudgetExceeded, DegenerateProbability, NoConvergence, PrecisionExhausted,
    ProtocolViolation, Timeout, UndefinedThreshold,
)
from .machines import (
    bpp_decide, ptm_run_with_choices, tma_to_stack, tma_to_stack_replay,
)
from .network import Decision, RnnConfig, check_protocol, drive, run_word, step
from .words import (
    BitStream, Rat, ZERO, as_rat, delta4, fair_word, trunc_frac,
)


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
        if (type(self.bias_cell) is not int
                or not 0 <= self.bias_cell < self.base.k):
            raise ValueError("analog bias_cell must be a cell index")
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
    """Two-input rational network whose cell-0 bias is a fresh bit
    every step."""

    base: RnnConfig
    evolving_bias: BitStream

    def __post_init__(self):
        if self.base.n_in != 2:
            raise ValueError("evolving networks need exactly two input lines")
        if self.base.k < 1:
            raise ValueError("evolving networks need cell 0 for the evolving bit")

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
    """Weights and activations cut toward zero to q fractional bits."""

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("precision must be at least one bit")


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


def _bias_interval(prefix):
    """[enc + 4^-B/3, enc + 4^-B] for a B-digit prefix with encoding enc,
    as its two ends.  The encoding of every stream that starts with the
    prefix lies inside."""
    scale = Rat(1, 4 ** len(prefix))
    enc = delta4(prefix)
    return enc + scale / 3, enc + scale


def _interval_net(cfg, bias_cell, lo, hi):
    """The net whose exact run is the interval run of cfg with the bias
    interval [lo, hi] entering bias_cell, built once per interval and
    kept on cfg.

    Cell i holds the lower end of cell i's interval and cell k + i the
    upper end: a positive weight reads the same end, a negative weight
    the other, and inputs and rational biases enter both ends alike.
    Cells 2k and 2k + 1 hold themselves and carry the bias ends into
    bias_cell and k + bias_cell.  The net has no readout of its own;
    _interval_readout pins cfg's outputs from both ends.
    """
    k = cfg.k

    def build():
        w_in = {}
        for (i, c), w in cfg.w_in.items():
            w_in[(i, c)] = w_in[(k + i, c)] = w
        w_res = {(2 * k, 2 * k): 1, (2 * k + 1, 2 * k + 1): 1,
                 (bias_cell, 2 * k): 1, (k + bias_cell, 2 * k + 1): 1}
        for (i, j), w in cfg.w_res.items():
            if w > 0:
                w_res[(i, j)] = w_res[(k + i, k + j)] = w
            else:
                w_res[(i, k + j)] = w_res[(k + i, j)] = w
        return RnnConfig(k=2 * k + 2, w_in=w_in, w_res=w_res,
                         h0=cfg.h0 + cfg.h0 + (lo, hi), n_in=cfg.n_in)

    return _derive(cfg, ("interval", bias_cell, lo, hi), build)


def _interval_readout(cfg, state):
    """Output pair of cfg from a state of its interval net; raises
    _Unresolved while an output interval straddles 0 or 1."""
    nums, k = state.nums, cfg.k
    sums = []
    for row in cfg._out_rows:
        sl = sh = 0
        for j, w in row:
            mh = nums.get(k + j)
            if mh is None:
                continue
            ml = nums.get(j, 0)
            if w > 0:
                sl += w * ml
                sh += w * mh
            else:
                sl += w * mh
                sh += w * ml
        sums.append((sl, sh))
    one = cfg._den * state.den
    y1 = _pin(*sums[1], one)
    return _pin(*sums[0], one), y1


def _interval_advance(ctx, state, x):
    """drive's one-step semantics for interval runs: an exact step of
    the interval net, read out from both ends."""
    net, cfg = ctx
    state = step(net, state, x)[0]
    return state, _interval_readout(cfg, state)


def ann_run(a, w, max_steps, start_bits=None, max_bits=1 << 16):
    """Protocol run of an analog network, exact in the limit.

    The bias is known only through digit prefixes.  With B digits it is
    confined to [enc(prefix) + 4^-B/3, enc(prefix) + 4^-B]; the run
    proceeds in interval arithmetic, and any threshold the interval
    cannot yet decide doubles B and retries, from B = start_bits
    (default 16, at least 1).  A comparison no precision can settle
    raises UndefinedThreshold; hitting max_bits raises
    PrecisionExhausted.

    Each attempt is an exact run of the interval net (_interval_net),
    which holds both ends of every cell's interval, so it takes
    network.step and its kernels; the outputs are pinned from both ends
    by integer comparisons.
    """
    check_protocol(w, max_steps)
    bits = start_bits if start_bits is not None else 16
    if bits < 1:
        raise ValueError("start_bits must be at least 1")
    while bits <= max_bits:
        lo, hi = _bias_interval(a.bias_stream.prefix(bits))
        net = _interval_net(a.base, a.bias_cell, lo, hi)
        try:
            return drive(_interval_advance, (net, a.base), net._start, w,
                         max_steps, net.n_in)
        except _Unresolved:
            bits *= 2
    raise PrecisionExhausted(f"still unresolved at {max_bits} bias digits")


# ==========================================================================
# evolving runs


def _lift_evolving(cfg):
    """Route an evolving bias into cell 0 through the stochastic input
    column: the bias column moves from index 2 to 3 and x_2 gets weight
    one into cell 0."""
    def build():
        w_in = {}
        for (i, c), wt in cfg.w_in.items():
            w_in[(i, 3 if c == 2 else c)] = wt
        w_in[(0, 2)] = as_rat(1)
        return RnnConfig(k=cfg.k, w_in=w_in, w_res=cfg.w_res, w_out=cfg.w_out,
                         h0=cfg.h0, n_in=3, cell_names=cfg.cell_names)

    return _derive(cfg, "evolving", build)


def enn_run(e, w, max_steps, want_trace=False):
    """Exact protocol run: the evolving bit of step t enters cell 0."""
    lifted = _lift_evolving(e.base)
    return run_word(lifted, w, max_steps, want_trace=want_trace,
                    x2=e.evolving_bias.bit)


def count_restarts(e, trace):
    """Number of replay rounds in a traced evolving run: the steps at
    which a capture guard, a case/* cell wired into the CP stack's load
    candidate, is at one.  A net without that candidate counts 0."""
    names = e.base.cell_names or ("",) * e.base.k
    cells = [j for i, j in e.base.w_res if names[i] == "stack/CP/cand_load"
             and names[j].startswith("case/")]
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


def _truncated_advance(ctx, state, x):
    """One exact step, then the state cut back to q bits and read out
    again if the cut changed it.  step still reads out the uncut state,
    so a garbled output line raises as it would in the exact run."""
    tcfg, q = ctx
    state, y = step(tcfg, state, x)
    cut = state.truncated(q)
    if cut is state:
        return state, y
    return cut, tcfg.readout(cut)


def _truncated_loop(cfg, w, steps, q, x2=None):
    """Protocol run of the q-bit truncation of cfg, its state cut back
    to q bits after every step."""
    tcfg = truncate_config(cfg, q)
    return drive(_truncated_advance, (tcfg, q), tcfg._start, w, steps,
                 tcfg.n_in, x2)


def truncate_run(spec, policy, w, steps):
    """Run with weights and activations cut to policy.q bits each step.

    Accepts a plain network, an analog one (the bias becomes the
    truncation of its first q digits), or an evolving one (bits are
    exact; only the rational part is cut).
    """
    q = policy.q
    if isinstance(spec, AnnSpec):
        return _truncated_loop(_with_prefix_bias(spec, q), w, steps, q)
    if isinstance(spec, EnnSpec):
        lifted = _lift_evolving(spec.base)
        return _truncated_loop(lifted, w, steps, q,
                               x2=spec.evolving_bias.bit)
    return _truncated_loop(spec, w, steps, q)


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
    if isinstance(spec, AnnSpec):
        return ann_run(spec, w, steps)
    if isinstance(spec, EnnSpec):
        return enn_run(spec, w, steps)
    return run_word(spec, w, steps)


def calibrate_c(spec, corpus, f, c_max=64):
    """Smallest c such that q = c*f(n) bits reproduce the exact run on
    every corpus word, with the word that forced the last increment.

    f(n) is the step budget at length n; the exact run must decide
    within it for the comparison to mean anything.  Works for plain
    (a compiled network as its cfg), analog, and evolving networks
    alike.
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
    wire_program(b, ctx, program, handover={"XA": cell0})
    return AnnSpec(base=b.finalize(), bias_stream=r, bias_cell=0)


def enn_from_tma(m, e):
    """Compile an advice machine into an evolving network.

    The evolving bit of step t lands in cell 0; an accumulator cell
    pushes every arriving bit onto a growing encoded word (newest digit
    on top), and the replay program's capture op copies that word into
    the CP stack in a single step; count_restarts finds the capture
    guards by their wiring into that step's candidate cell.
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

    def wire_load(bb, g, weight, s, cells):
        if "cand_load" not in cells:
            cand = bb.add(f"stack/{s}/cand_load")
            bb.wire(cand, acc, 1)
            bb.from_input(cand, bb.n_in, -1)
            bb.wire(cells["content"], cand, 1)
            cells["cand_load"] = cand
        bb.wire(cells["cand_load"], g, weight)

    wire_program(b, ctx, program, op_table={"load_from": (wire_load, 1)})
    return EnnSpec(base=b.finalize(), evolving_bias=e)


# ==========================================================================
# procedure 1 and 2: machines simulate analog / evolving networks


def _simulate_truncated(spec, f, c, w, empty_warning):
    """Run spec cut to c*f(n) bits for f(n) steps; an empty budget
    warns and times out."""
    fn = f(len(w))
    if fn == 0:
        warnings.warn(empty_warning)
        return Decision("timeout")
    return truncate_run(spec, TruncationPolicy(c * fn), w, fn)


def algo1_tma_simulate_ann(a, f, c, w):
    """Decide w the way an advice machine simulates an analog network:
    query the first c*f(n) bias digits, run the network truncated to
    that many bits for f(n) steps, output what it outputs.  f counts
    network steps; with c at or above the calibrated constant the
    result equals the exact analog run.
    """
    return _simulate_truncated(a, f, c, w,
                               "empty step budget: zero-bias truncation, "
                               "divergence from the analog run is expected")


def algo2_tma_simulate_enn(e, f, c, w):
    """Evolving counterpart of the analog simulation: the machine reads
    the bias bit of each step as it goes and runs the truncated
    network; bits are exact, so truncation only touches the rational
    weights."""
    return _simulate_truncated(
        e, f, c, w, "empty step budget: nothing can be simulated")


# ==========================================================================
# stochastic runs


_BLOCK = 64     # generator words a fair-bit buffer takes at a time
_WINDOW = 10    # fair bits one table lookup compares with the expansion


@functools.lru_cache(maxsize=64)            # one table is about 0.2 MB
def _settle(expansion):
    """For every _WINDOW fair bits: the coins they settle in turn against
    these _WINDOW expansion bits, each with the number of bits read up
    to its last bit; () when they tie all of them.

    Built from the table of the windows one bit shorter: past its last
    coin a window ties the expansion for t bits, so a next bit equal to
    expansion bit t keeps its coins, and the other settles one more.
    """
    table = {"": ()}
    for m in range(_WINDOW):
        longer = {}
        for window, run in table.items():
            tie = expansion[m - run[-1][1] if run else m]
            coin = int(tie)
            longer[window + tie] = run
            longer[window + "10"[coin]] = run + ((coin, m + 1),)
        table = longer
    return table


class _FairBits:
    """The fair bits of one generator, read _BLOCK words at a time.

    They come out in the order of repeated getrandbits(1) calls (see
    words.fair_word).  Each source owns its generator, so the bits left
    unread in the buffer are never seen and no result depends on the
    block size.
    """

    def __init__(self, rng):
        self._rng = rng
        self._buf = ""
        self._pos = 0

    def _refill(self, pos, n):
        self._buf = self._buf[pos:] + fair_word(self._rng, max(n, _BLOCK))
        self._pos = 0
        return self._buf

    def word(self, n):
        """The next n fair bits as a word."""
        buf, pos = self._buf, self._pos
        if pos + n > len(buf):
            buf, pos = self._refill(pos, n), 0
        self._pos = pos + n
        return buf[pos:pos + n]

    def coins(self, stream, start=0):
        """Endless coin flips, each 1 with probability the stream's value.

        A flip compares fair bits with the expansion lexicographically
        and takes the expansion bit where they first differ, 1 when the
        fair bit sorts below it; the comparison settles after a
        geometric number of bits, so the draw is exact without ever
        forming the probability.  start > 0 resumes a comparison whose
        first start bits have already tied, for every flip.

        One table lookup reads _WINDOW fair bits and settles every flip
        that ends within them; a window that ties the expansion resumes
        the comparison past it.  Each flip leaves the source just past
        its last bit, so other reads of the source may follow any flip;
        a generator resumed after them would reuse the bits they read,
        so later flips come from a fresh generator.
        """
        table = _settle(stream.prefix(start + _WINDOW)[start:])
        while True:
            buf, pos = self._buf, self._pos
            if pos + _WINDOW > len(buf):
                buf, pos = self._refill(pos, _WINDOW), 0
            run = table[buf[pos:pos + _WINDOW]]
            if not run:
                self._pos = pos + _WINDOW
                yield next(self.coins(stream, start + _WINDOW))
            for coin, end in run:
                self._pos = pos + end
                yield coin


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
        if trials < 1:
            raise ValueError("trials must be positive")
        _check_coin_stream(s.prob_stream)
        accepts = 0
        for i in range(trials):
            coins = _FairBits(random.Random(seed * 2 ** 64 + i)).coins(
                s.prob_stream)
            bits = list(itertools.islice(coins, tau))
            if _run_fixed(s.base, w, tau, bits).kind == "accept":
                accepts += 1
        est = as_rat(accepts) / trials
        return SnnResult(probability=est,
                         decision=Decision(bpp_decide(est), tau=tau),
                         mode="mc", tau=tau, trials=trials)
    raise ValueError(f"unknown mode {mode!r}")


def _check_coin_stream(stream):
    """Refuse a PRNG coin stream: seeded like a trial's generator, it
    ties with the fair bits forever."""
    if not stream.mathematical:
        raise ValueError("coins need a mathematical probability stream, "
                         "not pseudo-random bits")


def _run_fixed(cfg, w, tau, bits):
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
    _check_coin_stream(s.prob_stream)
    n = len(w)
    fn = f(n)
    if fn < 1:
        raise ValueError("step budget must be positive")
    L = max(1, ceil_log2(5 * fn))
    prefix = s.prob_stream.prefix(L)
    src = _FairBits(random.Random(seed))
    choices, ideal = [], []
    for _t in range(fn):
        bits = src.word(L)
        choices.append(1 if bits < prefix else 0)
        if paired:
            ideal.append(choices[-1] if bits != prefix else
                         next(src.coins(s.prob_stream, start=L)))
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


@functools.lru_cache(maxsize=256)
def _algo4_sizes(a, b, fn):
    """Sample count k and pair budget K of algo4 for p = a/b."""
    p = Rat(a, b)
    k = _ceil_rat(10 * p * (1 - p) * fn * fn)
    stick = p * p + (1 - p) * (1 - p)
    bound = Rat(1, 16 * fn)
    budget, left = 1, stick
    while left > bound:
        left *= stick
        budget += 1
    return k, budget


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
    a, b = p.numerator, p.denominator
    k, budget = _algo4_sizes(a, b, fn)
    draws = _FairBits(random.Random(seed)).coins(p_stream)

    hits = sum(itertools.islice(draws, k))
    adv_len = max(1, ceil_log2(fn))
    v = min((hits << adv_len) // k, (1 << adv_len) - 1)
    estimate = format(v, f"0{adv_len}b")
    # |hits/k - a/b| > 1/fn, over integers
    estimate_failed = abs(hits * b - a * k) * fn > k * b
    prefix_mismatch = estimate != p_stream.prefix(adv_len)

    fair, exhaustions = [], 0
    for _i in range(fn):
        bit = None
        for _j in range(budget):
            b1 = next(draws)
            b2 = next(draws)
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


def amplify_majority_exact(p_accept, repeats):
    """Exact probability that a majority of repeats accepts; repeats
    must be positive and odd so the vote cannot tie."""
    if repeats < 1:
        raise ValueError("a vote needs at least one run")
    if repeats % 2 == 0:
        raise ValueError("an even vote can tie")
    p = as_rat(p_accept)
    if not 0 <= p <= 1:
        raise ValueError("an acceptance probability lies in [0, 1]")
    total = ZERO
    for j in range(repeats // 2 + 1, repeats + 1):
        total += math.comb(repeats, j) * p ** j * (1 - p) ** (repeats - j)
    return total
