"""Exact simulator for saturated-linear recurrent networks.

A network has K cells, two (optionally three) input lines plus a
constant bias column, a reservoir matrix, and a 2-row readout.  State
update and output:

    h'  =  sigma(W_in (x : 1) + W_res h)        componentwise
    y   =  theta(W_out h')

with sigma the [0,1] clamp and theta the hard threshold.  All
arithmetic is exact; there is no floating point anywhere.  A config
holds its weights as integers over one common denominator D, and a
state holds only its live (nonzero) cells, as integer numerators over
one shared denominator, so a step is integer multiply-adds plus a
single common factor, in one loop at every size.  Once that
denominator passes 64 bits (analog and evolving runs push advice digits
into one cell, so it grows with every step), lowest terms takes the
power of two from the bits of the operands and a gcd of the odd part
only.

A compiled network's live cells follow its finite control, not the
word, so a long run meets the same few hundred (live cells, input)
patterns over and over, and so does the advice replay of an evolving
net.  A config that has taken _HOT_STEPS steps, together with the
other configs derived from the same net, turns hot if it has two
input lines or its step is long, and keeps one _Pattern for each
pattern it then steps.  After every interpreted step the pattern learns
its successor, the live cells the step reached, and on its
_SIGHTINGS-th step it gets its kernel: a straight-line function,
generated from the config's integer weights and compiled once, that
takes the live numerators and the shared denominator as ints and
returns the next numerators, their denominator and the successor's
pattern, at either size.  At a successor it has not seen it returns
None; the loop takes that step, and the pattern learns the successor
and is built again.  A kernel holds no readout: a state is read out
only where its pattern has a live cell that an output line reads with
a positive weight, and every other state outputs (0, 0).  A kernel
skips work that lowest terms would undo: its sums run over one / f,
where the pattern factor f is the gcd of the config's denominator and
every coefficient the kernel writes (on most patterns of a compiled
net, whose denominator is 4, f is 4), and each sum is written as the
gcd of its own coefficients times a sum in which a coefficient of one
is a plain add.  The interpreted loop stays the path of a cold config
and of a rare pattern, because a kernel costs as much to build as a few
dozen interpreted steps, and a one-shot command such as the README
verify meets each of its patterns a few times at most.  A net whose
third input line (coins) drives its live cells and whose steps stay
short, such as majority of three, never turns hot.

Once a word has ended, the input is (0,0) (or (0,0,b), with the
evolving bit or coin b on a third line) and a hot step is a few integer
operations, so the NetworkState, the dict, the lowest terms and the
pattern key that step builds around them cost more than the operations.
Every untraced run_word therefore hands each kernel's return straight
to the kernel of the successor it names for the rest of the run, and
builds a state only where the chain stops: on entering a state that is
read out (the chain goes on from it unless the output fires), at a
successor without a kernel or not yet seen, or at the step budget.  On
a third line the chain reads each step's bit, and where it differs from
the input of the successor's pattern it takes the pattern of the same
live cells and that input, and stops where there is none or it has no
kernel.  The interval nets of analog runs chain the same way, with the
readout of the analog net in place of their own, and a config names
the cells whose liveness makes a state read (_read_cells), so a chain
passes every state whose output is (0, 0) without reading it.  step and
the chains run the same kernels, so which calls come first does not
change what a pattern holds.

Word I/O protocol: bit i of the word arrives as x_0 = w_i with
validation x_1 = 1, input then goes silent (0,0).  The network answers
with a single spike y_1 = 1 whose companion bit y_0 carries
accept/reject; output must be (0,0) strictly before that.  ``drive``
runs that protocol over any one-step semantics: the exact ``step`` of a
traced ``run_word``, and the truncated step that ``augmented`` puts
around ``step``; every untraced ``run_word`` runs it in ``_chained``,
with the same rule (``_outcome``).
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ProtocolViolation, UndefinedThreshold
from .words import ZERO, Rat, as_rat, check_bitword, rat_str


def theta(v):
    """Hard threshold: 0 for v <= 0, 1 for v >= 1.

    The region strictly between is a hard error: well-formed readouts
    never produce it, so hitting it exposes a miscompiled network
    immediately instead of guessing an answer.
    """
    if v <= 0:
        return 0
    if v >= 1:
        return 1
    raise UndefinedThreshold(f"readout value {v} lies strictly inside (0,1)")


def _as_weight_dict(entries, what, rows, cols):
    """{(i, j): w} with int indices in range; zero weights dropped."""
    out = {}
    for (i, j), w in entries.items():
        if type(i) is not int or type(j) is not int:    # JSON true is no int
            raise ValueError(f"{what}[{i!r},{j!r}] index is not an integer")
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"{what}[{i},{j}] out of range")
        w = as_rat(w)
        if w != 0:
            out[(i, j)] = w
    return out


class RnnConfig:
    """Immutable network description plus cached sparse access paths.

    Weights are given sparsely as {(row, col): weight} mappings;
    anything absent is zero.  W_in columns are the data line, the
    validation line, then the bias constant; a stochastic third line is
    enabled with n_in=3.
    """

    def __init__(self, k, w_in, w_res, w_out=None, h0=None, n_in=2, cell_names=None):
        if type(k) is not int:                          # JSON 160.0 or true is no int
            raise ValueError(f"k {k!r} is not an integer")
        if type(n_in) is not int or n_in not in (2, 3):
            raise ValueError("n_in must be 2 or 3")
        if h0 is None:
            h0 = [0] * k
        if w_out is None:
            w_out = {}
        self.k = k
        self.n_in = n_in
        self.w_in = _as_weight_dict(w_in, "w_in", k, n_in + 1)
        self.w_res = _as_weight_dict(w_res, "w_res", k, k)
        self.w_out = _as_weight_dict(w_out, "w_out", 2, k)
        self.h0 = tuple(as_rat(v) for v in h0)
        if len(self.h0) != k:
            raise ValueError("h0 length does not match k")
        if any(not (0 <= v <= 1) for v in self.h0):
            raise ValueError("initial state must lie in [0,1]")
        if cell_names is not None:
            cell_names = tuple(cell_names)
            if len(cell_names) != k:
                raise ValueError("cell_names length does not match k")
        self.cell_names = cell_names

        # integer views for the sparse update loop: each weight is its
        # numerator over the common denominator _den, grouped by the
        # column it reads
        den = math.lcm(*(w.denominator for d in (self.w_in, self.w_res, self.w_out)
                         for w in d.values()))

        def num(w):
            return int(w.numerator * (den // w.denominator))

        self._den = den
        self._bias_map = {i: num(w) for (i, c), w in self.w_in.items() if c == n_in}
        self._pos_bias = [i for i, b in self._bias_map.items() if b > 0]
        self._in_cols = [[(i, num(w)) for (i, cc), w in self.w_in.items() if cc == c]
                         for c in range(n_in)]
        self._res_by_col = {}
        for (i, j), w in self.w_res.items():
            self._res_by_col.setdefault(j, []).append((i, num(w)))
        self._out_rows = tuple([(j, num(w)) for (r, j), w in self.w_out.items() if r == row]
                               for row in (0, 1))
        # the cells an output line reads with a positive weight: a state
        # with none of them live outputs (0, 0) (see _Pattern); an
        # interval net names its own (augmented._interval_net)
        self._read_cells = frozenset(j for row in self._out_rows for j, w in row if w > 0)
        self._start = NetworkState(0, self.h0)
        # configs derived from this one (truncations, lifts, installed
        # biases, interval nets), built once on first use; the config is
        # immutable, so they never go stale
        self._derived = {}
        # the steps taken cold, in a one-item list that the configs
        # derived from this one share (augmented._derive), and once there
        # were _HOT_STEPS of them the patterns stepped, by (live cells,
        # input), and the number of them that hold a kernel (see step);
        # immutable as above
        self._cold_steps = [0]
        self._patterns = None
        self._kernel_count = 0

    def readout(self, state):
        """Output pair theta(W_out h) of a state."""
        nums, one = state.nums, self._den * state.den
        out = []
        for row in self._out_rows:
            acc = 0
            for j, w in row:
                m = nums.get(j)
                if m:
                    acc += w * m
            out.append(0 if acc <= 0 else 1 if acc >= one else theta(Rat(acc, one)))
        return tuple(out)

    # ------------------------------------------------------ serialization

    def to_json(self):
        def triples(d):
            return [[i, j, rat_str(w)] for (i, j), w in sorted(d.items())]

        return {
            "k": self.k,
            "n_in": self.n_in,
            "w_in": triples(self.w_in),
            "w_res": triples(self.w_res),
            "w_out": triples(self.w_out),
            "h0": [rat_str(v) for v in self.h0],
            "cell_names": list(self.cell_names) if self.cell_names else None,
        }

    @classmethod
    def from_json(cls, d):
        """Read a to_json dict; a (row, col) listed twice in one weight
        list is refused, not overwritten."""
        if not isinstance(d["h0"], list):
            raise ValueError("h0 must be a list")
        w = {}
        for key in ("w_in", "w_res", "w_out"):
            w[key] = {(i, j): v for i, j, v in d[key]}
            if len(w[key]) != len(d[key]):
                raise ValueError(f"{key} lists a (row, col) twice")
        return cls(k=d["k"], n_in=d.get("n_in", 2), h0=d["h0"],
                   cell_names=d.get("cell_names"), **w)


class NetworkState:
    """Network state after t steps.

    Only live (nonzero) cells are stored, as integer numerators over one
    shared denominator: cell i holds nums[i] / den.  h, the k-tuple of
    exact rationals, is built on first read.  Every cell lies in [0, 1],
    as in every state of a run; the kernels rely on it.
    """

    __slots__ = ("t", "k", "den", "nums", "_h")

    def __init__(self, t, h):
        h = tuple(as_rat(v) for v in h)
        den = math.lcm(*(v.denominator for v in h))
        self.t, self.k, self.den, self._h = t, len(h), den, h
        self.nums = {i: int(v.numerator * (den // v.denominator))
                     for i, v in enumerate(h) if v}
        if any(not 0 < m <= den for m in self.nums.values()):
            raise ValueError("state cells must lie in [0,1]")

    @classmethod
    def _sparse(cls, t, k, den, nums):
        state = cls.__new__(cls)
        state.t, state.k, state.den, state.nums, state._h = t, k, den, nums, None
        return state

    @property
    def h(self):
        if self._h is None:
            h = [ZERO] * self.k
            for i, m in self.nums.items():
                h[i] = Rat(m, self.den)
            self._h = tuple(h)
        return self._h

    def truncated(self, q):
        """The state with every cell cut toward zero to q fractional bits.

        A power-of-two den, which every truncated run has, cuts by a
        shift; any other den divides.
        """
        one = 1 << q
        den = self.den
        if one % den == 0:
            return self
        shift = den.bit_length() - 1 - q
        dyadic = den == 1 << (shift + q)
        nums = {}
        for i, m in self.nums.items():
            m = m >> shift if dyadic else m * one // den
            if m:
                nums[i] = m
        return NetworkState._sparse(self.t, self.k, one, nums)


@dataclass
class Decision:
    """Outcome of a protocol run: accept/reject at spike time, or timeout."""

    kind: str                      # "accept" | "reject" | "timeout"
    tau: Optional[int] = None
    trace: Optional[list] = None   # [(t, h, y), ...] when requested


# From this size on step and the kernels take common_factor for a
# plain gcd: the gcd of two 64-bit ints takes 1.00 us against 1.12 us
# for the bit method, at 256 bits 2.11 against 1.11 us.
_LONG = 1 << 64


def common_factor(one, *nums):
    """math.gcd(one, *nums) for one > 64 bits long and nums >= 0.

    The denominators of analog and evolving runs grow mostly by powers
    of two, so the power of two is the lowest set bit of all the
    operands or-ed together, and only the odd part of one goes through
    math.gcd, which then costs linear time when that part is short
    instead of quadratic time in the length of one.  The result is
    exact for any size; at 64 bits or fewer a plain gcd is faster.
    An odd numerator leaves no power of two to take, so the first one
    ends the search before any long operand is or-ed.
    """
    odd = one >> ((one & -one).bit_length() - 1)
    for v in nums:
        if v & 1:
            return math.gcd(odd, *nums)
    low = one
    for v in nums:
        low |= v
    return math.gcd(odd, *nums) << ((low & -low).bit_length() - 1)


# A config turns hot after this many steps (see step), and a hot
# config builds the kernel of a pattern on the pattern's _SIGHTINGS-th
# step.  A kernel takes 0.2-0.4 ms to build and saves 3-5 us a
# step on compiled parity and Dyck (about 6 of 10 us on a long step of
# the advice-eater replay), so it pays after some 50-130 uses;
# building on the 16th spends a build only on a pattern that has shown
# it comes again and again.  Built on first sight, kernels made CLI
# verify of compiled-verify's 57 Dyck words (6440 steps) 20 % slower
# than the cold loop; built on the 16th, that run and the one of its 57
# parity words read no slower than the loop, and every word of length
# 8 or less reads 25-39 % faster (fresh processes, medians).  A later
# threshold leaves a repeated job slow for longer: one calibrate_c of
# compiled parity meets each of its 228 patterns 2-12 times, so on the
# 128th sighting it took about 100 calibrations to warm up, and on the
# 16th it takes about 15.  The README verify takes 429 steps and one
# calibrate_c of compiled parity 376, so neither counts a pattern; a
# one-shot verify of the advice-eater pair (eater_stream(8)) on the
# README corpus takes 3729, so it builds none either.
_HOT_STEPS = 4096
_SIGHTINGS = 16
# Kernels kept per config, about 2.6 KB each with its key (2.2 KB of
# code); patterns past the cap run the interpreted loop.  Compiled
# parity meets 250 patterns over every word of length 8 or less,
# compiled Dyck 102, the advice-eater replay 225.
_MAX_KERNELS = 512


# the input of every step after the word, and the output pair of every
# state that no output line reads
_SILENT = (0, 0)


class _Pattern:
    """A (live cells, input) pattern that a hot config has stepped.

    seen counts the steps it took through the interpreted loop, succ
    holds the pattern of each successor it has been seen to step to,
    by live cells (the successor is keyed with the same input, so the
    successor of a silent pattern is the silent pattern of the next
    state), and kernel is its kernel once built (None before).  reads
    tells whether one of its live cells is among cfg._read_cells, those
    an output line reads with a positive weight (on an interval net,
    the upper ends of those of its analog net): a state of a pattern
    that is not read has the output pair (0, 0).
    """

    __slots__ = ("live", "x", "reads", "seen", "succ", "kernel")

    def __init__(self, cfg, live, x):
        self.live, self.x, self.seen, self.succ, self.kernel = live, x, 0, {}, None
        self.reads = not cfg._read_cells.isdisjoint(live)


def _teach(cfg, pat, live):
    """Note that pat's step through the interpreted loop reached the
    live cells live.  A successor pat has not seen gets its pattern and
    rebuilds pat's kernel; the _SIGHTINGS-th step builds the kernel,
    unless cfg keeps _MAX_KERNELS already."""
    if live not in pat.succ:
        key = (live, pat.x)
        nxt = cfg._patterns.get(key)
        if nxt is None:
            nxt = cfg._patterns[key] = _Pattern(cfg, live, pat.x)
        pat.succ[live] = nxt
        if pat.kernel:
            _kernel(cfg, pat)
    pat.seen += 1
    if pat.seen == _SIGHTINGS and pat.kernel is None and cfg._kernel_count < _MAX_KERNELS:
        _kernel(cfg, pat)


def _kernel(cfg, pat):
    """Build the kernel of cfg's pattern pat, keep it on pat and return
    it; None when pat's input is not all int.

    A kernel is step's loop unrolled for one pattern, at either size.
    It takes the live numerators m0, m1, ... and the shared denominator
    den, and each target cell's sum is one expression in them, with
    integer literals for weights, inputs and bias folded together.
    Every live numerator lies in (0, den], so the signs of a sum's
    coefficients bound it: a sum that cannot pass 0 is left out, one
    that cannot fall below one is one, and the tests against 0 and one
    are written only where the sum can cross them.  That halves the
    build and reads 15 % more compiled-verify ops a second than one
    guarded store per cell.  The tests against 0 of the sums that may
    pass it pick the successor: the kernel returns the numerators of
    its live cells, in the order the interpreted loop inserts them,
    then their denominator one and the successor's pattern, or None at
    a successor pat has not been seen to reach.  A trailing argument
    is ignored, so a kernel's return is the call of the successor's
    kernel.  The kernel holds no readout.

    The kernel takes out the pattern factor f, the gcd of cfg._den and
    every coefficient of every sum it writes in full (sums that cannot
    pass 0 or that are one are not written): it sums over one / f with
    each coefficient divided by f.  Where f is the whole of cfg._den,
    as on 293 of the 352 kernels of compiled parity and Dyck, one is
    den itself and the numerators are returned as they came, not in
    lowest terms; elsewhere the kernel divides by the common factor g
    where g passes 1, since a division by 1 would cost a long operand
    linear time for nothing.  Each sum is written as its own gcd times
    (±m ± m ...), where a coefficient of one is a plain add.  Both
    together read 31 % more compiled-verify ops a second.  The kernel
    keeps f as its factor attribute.
    """
    x = pat.x
    if any(type(v) is not int for v in x):
        return None
    den = cfg._den
    consts = dict.fromkeys(cfg._pos_bias, 0)
    terms = {}
    for c, xv in enumerate(x):
        if xv:
            for i, w in cfg._in_cols[c]:
                consts[i] = consts.get(i, 0) + w * xv
    for n, j in enumerate(pat.live):
        for i, w in cfg._res_by_col.get(j, ()):
            consts.setdefault(i, 0)
            terms.setdefault(i, []).append((w, f"m{n}"))
    sums = []
    for i, c in consts.items():
        c += cfg._bias_map.get(i, 0)
        parts = ([(c, "den")] if c else []) + terms.get(i, [])
        assert all(type(w) is int for w, _m in parts)
        # the sum lies between lo * den and hi * den, and exceeds
        # lo * den when a positive weight reads a live cell
        hi = c + sum(w for w, m in parts if w > 0 and m != "den")
        lo = c + sum(w for w, m in parts if w < 0 and m != "den")
        if hi > 0:
            sums.append((i, c, lo, hi, parts))
    f = math.gcd(den, *(w for _i, _c, lo, _hi, parts in sums if lo < den
                        for w, _m in parts))
    succ = ", ".join(f"p{n}" for n in range(len(pat.succ)))
    args = "".join(f"m{n}, " for n in range(len(pat.live)))
    lines = [f"def make({succ}):", f"    def kernel({args}den, _=None):",
             "        one = den" if f == den else f"        one = {den // f} * den"]
    maybe = []
    for i, c, lo, hi, parts in sums:
        if lo >= den:
            lines.append(f"        v{i} = one")
            continue
        lines.append(f"        v{i} = {_sum_expr([(w // f, m) for w, m in parts])}")
        if hi > den:
            lines.append(f"        if v{i} > one: v{i} = one")
        if not (lo > 0 or (lo == 0 and hi > c)):        # may not pass 0
            maybe.append(i)
    for n, nxt in enumerate(pat.succ):
        test = " and ".join(f"v{i} > 0" if i in nxt else f"v{i} <= 0" for i in maybe)
        indent = "            " if test else "        "
        if test:
            lines.append(f"        if {test}:")
        vals = "".join(f"v{i}, " for i in nxt)
        if f != den:
            lines += [f"{indent}g = (gcd if one < LONG else common_factor)(one, {vals})",
                      f"{indent}if g > 1:",
                      f"{indent}    return {''.join(f'v{i} // g, ' for i in nxt)}one // g, p{n}"]
        lines.append(f"{indent}return {vals}one, p{n}")
    lines.append("    return kernel")
    scope = {}
    exec(compile("\n".join(lines), "<kernel>", "exec"), _KERNEL_GLOBALS, scope)
    if pat.kernel is None:
        cfg._kernel_count += 1
    pat.kernel = kern = scope["make"](*pat.succ.values())
    kern.factor = f
    return kern


def _reduced(t, k, one, nums):
    """The state at step t whose cells are nums over one, brought to
    lowest terms in place: math.gcd below 2^64, common_factor from there
    on.  step and the chains build their states here.  A loop divides,
    not a comprehension, which would compile to a code object of its
    own, and the state is made here, not by a call of _sparse, which
    would cost a cold step 1 % more."""
    g = (math.gcd if one < _LONG else common_factor)(one, *nums.values())
    if g > 1:
        one //= g
        for i in nums:
            nums[i] //= g
    state = NetworkState.__new__(NetworkState)
    state.t, state.k, state.den, state.nums, state._h = t, k, one, nums, None
    return state


_KERNEL_GLOBALS = {"gcd": math.gcd, "common_factor": common_factor, "LONG": _LONG}


def _sum_expr(parts):
    """The sum of w * m over parts as f * (m ± m ...) over the gcd f of
    its weights, positive terms first (a written sum has one), a weight
    of ±f a plain add."""
    f = math.gcd(*(w for w, _m in parts))
    expr = ""
    for w, m in sorted(parts, key=lambda p: p[0] < 0):
        term = m if abs(w) == f else f"{abs(w) // f} * {m}"
        expr += (" - " if w < 0 else " + ") + term
    expr = expr[3:]
    if f == 1:
        return expr
    return f"{f} * {expr}" if len(parts) == 1 else f"{f} * ({expr})"


def step(cfg, state, x):
    """One synchronous update; returns (next state, output pair).

    Only cells that receive a nonzero contribution (or carry a positive
    bias) are evaluated; everything else saturates to 0 for free, which
    is what makes large compiled networks cheap to run.  The input
    lines x carry integers (bits under the word protocol).  The sums
    are numerators over one = cfg._den * state.den, and one common
    factor brings the new state back to lowest terms: math.gcd below
    2^64, common_factor from there on.  The same loop serves every
    size: past 64 bits a product with a long numerator costs time
    linear in its length, but a long step is still bound by the Python
    work per edge, and a config that keeps stepping long turns hot.

    Each config counts its steps, and the configs derived from one net
    (its truncations, lift, installed biases and interval nets) count
    them together: a repeated job that spreads its steps over many of
    them turns them hot as soon as a job that steps a single config.
    After _HOT_STEPS of them a config is hot if it has two input lines
    or the step is long, and then a step of either size looks up the
    pattern of (the state's live cells, x).  A pattern with a kernel (see _kernel) hands it the
    live numerators and den; the kernel's return, brought to lowest
    terms, is the next state, the same as the loop's, and it is read
    out only when the successor's pattern is read (_Pattern.reads).
    Any other step takes the loop, and on a hot config the pattern
    then learns the live cells it reached (_teach): an unseen successor
    rebuilds the pattern's kernel, and the _SIGHTINGS-th step builds
    it, unless the config keeps _MAX_KERNELS already or x is not a
    tuple of ints.  A cold config counts no pattern, so that a one-shot
    command pays one counter a step and builds nothing.  An input that
    is not a tuple takes the loop, with no lookup and no count.
    """
    if len(x) != cfg.n_in:
        raise ValueError(f"expected {cfg.n_in} input lines, got {len(x)}")
    den = state.den
    patterns = cfg._patterns
    if patterns is None:
        cold = cfg._cold_steps
        if cold[0] < _HOT_STEPS:
            cold[0] += 1
        elif cfg.n_in == 2 or cfg._den * den >= _LONG:
            patterns = cfg._patterns = {}
    pat = None
    if patterns is not None and type(x) is tuple:
        key = (tuple(state.nums), x)
        pat = patterns.get(key)
        if pat is None:
            pat = patterns[key] = _Pattern(cfg, *key)
        elif pat.kernel:
            r = pat.kernel(*state.nums.values(), den)
            if r is not None:
                # a return over den itself may not be in lowest terms
                # (see _kernel); any other is
                succ, one = r[-1], r[-2]
                nxt = (_reduced if one == den else NetworkState._sparse)(
                    state.t + 1, cfg.k, one, dict(zip(succ.live, r)))
                return nxt, cfg.readout(nxt) if succ.reads else _SILENT
    one = cfg._den * den
    res = cfg._res_by_col
    bias = cfg._bias_map
    acc = dict.fromkeys(cfg._pos_bias, 0)
    get = acc.get
    nums = {}
    for c, xv in enumerate(x):
        if xv:
            xv *= den
            for i, w in cfg._in_cols[c]:
                acc[i] = get(i, 0) + w * xv
    for j, m in state.nums.items():
        col = res.get(j)
        if col:
            for i, w in col:
                acc[i] = get(i, 0) + w * m
    for i, v in acc.items():
        b = bias.get(i)
        if b:
            v += b * den
        if v > 0:
            nums[i] = v if v < one else one
    nxt = _reduced(state.t + 1, cfg.k, one, nums)
    if pat is not None:
        _teach(cfg, pat, tuple(nums))
    return nxt, cfg.readout(nxt)


def input_at(w, t, n_in, x2=None):
    """Input vector presented at step index t under the word protocol."""
    if t < len(w):
        base = (int(w[t]), 1)
    else:
        base = (0, 0)
    if n_in == 3:
        if x2 is None:
            bit = 0
        elif callable(x2):
            bit = x2(t)
        else:
            bit = x2[t]
        return base + (bit,)
    return base


def check_protocol(w, max_steps):
    """Reject a non-bit word, or a step budget shorter than the word."""
    check_bitword(w)
    if max_steps < len(w):
        raise ValueError("max_steps smaller than the input word")


def drive(advance, ctx, state, w, max_steps, n_in, x2=None, trace=None):
    """Run the word protocol over advance(ctx, state, x) -> (state, y).

    Feeds w with validation, then silence, for at most max_steps steps
    and returns a Decision; stray output before the spike raises
    ProtocolViolation.  x2 (sequence or callable) feeds the stochastic
    line when n_in is 3; a trace list receives (t, state.h, y).  Its
    two callers are a traced run_word, which steps with step, and the
    truncated runs of augmented, which cut each state back after step;
    every untraced exact run goes through _chained instead.
    """
    check_protocol(w, max_steps)
    for t in range(max_steps):
        state, y = advance(ctx, state, input_at(w, t, n_in, x2))
        if trace is not None:
            trace.append((t + 1, state.h, y))
        if y[0] or y[1]:
            return _outcome(y, t + 1, trace)
    return Decision("timeout", trace=trace)


def _outcome(y, tau, trace=None):
    """The end of a run whose output pair y at step tau is not (0, 0):
    the spike's decision, or ProtocolViolation for a bare data bit."""
    if y[1] == 1:
        return Decision("accept" if y[0] == 1 else "reject", tau=tau, trace=trace)
    raise ProtocolViolation(f"output bit fired without validation at t={tau}")


def run_word(cfg, w, max_steps, want_trace=False, x2=None, readout=None):
    """Exact protocol run of cfg on w (see drive); the Decision holds
    the trace [(t, h, y), ...] when want_trace is set.

    An untraced run goes through _chained, which chains the kernels of
    the steps after the word once the config is hot (see the module
    docstring); a traced run takes drive's loop.  readout(state), if
    given, stands for cfg.readout in an untraced run: ann_run reads its
    interval nets so (cfg._read_cells then names the cells it reads).
    """
    if want_trace:
        return drive(step, cfg, cfg._start, w, max_steps, cfg.n_in, x2, [])
    return _chained(cfg, w, max_steps, x2, readout)


def _chained(cfg, w, max_steps, x2=None, readout=None):
    """run_word untraced.

    Every step of a cold config goes through step, and so does the
    word.  On a hot config, after the word, a state whose pattern has a
    kernel hands its numerators and den to it, and each kernel's return
    goes to the kernel of the successor it names, until a kernel returns
    None, a successor has no kernel or is read, or the budget ends; the
    state is built there.  With a third line the chain reads each next
    input (x2's bit); where it is not the input of the successor's
    pattern, the chain goes on from the pattern of the same live cells
    and that input, and stops where there is none or it has no kernel.
    A read state is read out, and unless the output fires the chain goes
    on from it; any other stop leaves the next step to step.  Each
    step's input is read once.
    """
    check_protocol(w, max_steps)
    n, n_in = len(w), cfg.n_in
    read = readout or cfg.readout
    state, t, x = cfg._start, 0, None
    while t < max_steps:
        if x is None:
            x = input_at(w, t, n_in, x2)
        patterns = cfg._patterns
        if t >= n and patterns is not None:
            pat = patterns.get((tuple(state.nums), x))
            kern = pat and pat.kernel
            if kern:
                r = (*state.nums.values(), state.den)
                if n_in == 2:
                    while t < max_steps:
                        nxt = kern(*r)
                        if nxt is None:
                            break
                        r, pat, t = nxt, nxt[-1], t + 1
                        kern = pat.kernel
                        if pat.reads or kern is None:
                            break
                else:
                    while True:
                        nxt = kern(*r)
                        if nxt is None:
                            break
                        r, pat, t, x = nxt, nxt[-1], t + 1, None
                        if pat.reads or t == max_steps:
                            break
                        x = input_at(w, t, 3, x2)
                        if x != pat.x:
                            keyed = patterns.get((pat.live, x))
                            if keyed is None:
                                break
                            pat = keyed
                        kern = pat.kernel
                        if kern is None:
                            break
                if t > state.t:
                    state = _reduced(t, cfg.k, r[-2], dict(zip(pat.live, r)))
                    if pat.reads:
                        y = read(state)
                        if y[0] or y[1]:
                            return _outcome(y, t)
                    continue
        state, y = step(cfg, state, x)
        if readout is not None:
            y = readout(state)
        t, x = t + 1, None
        if y[0] or y[1]:
            return _outcome(y, t)
    return Decision("timeout")
