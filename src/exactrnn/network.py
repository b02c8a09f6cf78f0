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
single common factor.  Once that denominator passes 64 bits (analog
and evolving runs push advice digits into one cell, so it grows with
every step), cells at one enter a step as whole numbers, not as long
numerators, and lowest terms takes the power of two from the bits of
the operands and a gcd of the odd part only.

Word I/O protocol: bit i of the word arrives as x_0 = w_i with
validation x_1 = 1, input then goes silent (0,0).  The network answers
with a single spike y_1 = 1 whose companion bit y_0 carries
accept/reject; output must be (0,0) strictly before that.  ``drive``
runs that protocol over any one-step semantics: the exact ``step`` of
``run_word`` and the truncated and interval steps of ``augmented``.
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


def _as_weight_dict(entries, what, k, ncols=None, nrows=None):
    """Normalize {(i,j): w} / [(i,j,w)] to a dict with validated indices."""
    out = {}
    if hasattr(entries, "items"):
        items = [(key, val) for key, val in entries.items()]
    else:
        items = [((i, j), w) for (i, j, w) in entries]
    for (i, j), w in items:
        rows = nrows if nrows is not None else k
        cols = ncols if ncols is not None else k
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"{what}[{i},{j}] out of range")
        w = as_rat(w)
        if w != 0:
            out[(i, j)] = w
    return out


class RnnConfig:
    """Immutable network description plus cached sparse access paths.

    Weights are given sparsely as {(row, col): weight} mappings (or
    (row, col, weight) triples); anything absent is zero.  W_in columns
    are the data line, the validation line, then the bias constant;
    a stochastic third line is enabled with n_in=3.
    """

    def __init__(self, k, w_in, w_res, w_out=None, h0=None, n_in=2, cell_names=None):
        if n_in not in (2, 3):
            raise ValueError("n_in must be 2 or 3")
        if h0 is None:
            h0 = [0] * k
        if w_out is None:
            w_out = {}
        self.k = k
        self.n_in = n_in
        self.w_in = _as_weight_dict(w_in, "w_in", k, ncols=n_in + 1)
        self.w_res = _as_weight_dict(w_res, "w_res", k)
        self.w_out = _as_weight_dict(w_out, "w_out", k, nrows=2)
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
        self._start = NetworkState(0, self.h0)
        # configs derived from this one (truncations, lifts, installed
        # biases), built once on first use; the config is immutable, so
        # they never go stale
        self._derived = {}

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
        return cls(
            k=d["k"],
            n_in=d.get("n_in", 2),
            w_in=[(i, j, w) for i, j, w in d["w_in"]],
            w_res=[(i, j, w) for i, j, w in d["w_res"]],
            w_out=[(i, j, w) for i, j, w in d["w_out"]],
            h0=d["h0"],
            cell_names=d.get("cell_names"),
        )


class NetworkState:
    """Network state after t steps.

    Only live (nonzero) cells are stored, as integer numerators over one
    shared denominator: cell i holds nums[i] / den.  h, the k-tuple of
    exact rationals, is built on first read.
    """

    __slots__ = ("t", "k", "den", "nums", "_h")

    def __init__(self, t, h):
        h = tuple(as_rat(v) for v in h)
        den = math.lcm(*(v.denominator for v in h))
        self.t, self.k, self.den, self._h = t, len(h), den, h
        self.nums = {i: int(v.numerator * (den // v.denominator))
                     for i, v in enumerate(h) if v}

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
        """The state with every cell cut toward zero to q fractional bits."""
        one = 1 << q
        if one % self.den == 0:
            return self
        den = self.den
        nums = {}
        for i, m in self.nums.items():
            m = m * one // den
            if m:
                nums[i] = m
        return NetworkState._sparse(self.t, self.k, one, nums)


@dataclass
class Decision:
    """Outcome of a protocol run: accept/reject at spike time, or timeout."""

    kind: str                      # "accept" | "reject" | "timeout"
    tau: Optional[int] = None
    trace: Optional[list] = None   # [(t, h, y), ...] when requested

    @property
    def accepted(self):
        if self.kind == "timeout":
            return None
        return self.kind == "accept"

    def trace_lines(self):
        if self.trace is None:
            return
        for t, h, y in self.trace:
            hs = ", ".join(rat_str(v) for v in h)
            yield f"t={t} h=({hs}) y=({y[0]},{y[1]})"


# Above this size step splits its sums and takes common_factor for a
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
    """
    low = one
    for v in nums:
        low |= v
    odd = one >> ((one & -one).bit_length() - 1)
    return math.gcd(odd, *nums) << ((low & -low).bit_length() - 1)


def step(cfg, state, x):
    """One synchronous update; returns (next state, output pair).

    Only cells that receive a nonzero contribution (or carry a positive
    bias) are evaluated; everything else saturates to 0 for free, which
    is what makes large compiled networks cheap to run.  The input
    lines x carry integers (bits under the word protocol).  The sums
    are numerators over one = cfg._den * state.den, and one common
    factor brings the new state back to lowest terms: math.gcd at 64
    bits or fewer, common_factor above.

    Above 64 bits of one, a product with a numerator costs time linear
    in its length, so inputs, biases and cells at one (numerator
    state.den) add their integer weights into a whole part, the other
    live cells add weight times numerator into a fractional part, and
    each target takes at most one long multiply, whole * state.den +
    part, however many cells at one feed it; a target fed by whole
    numbers alone that ends at or below 0 or at or above one takes
    none.  At 64 bits or fewer every contribution goes into one sum,
    which costs fewer dict operations.
    """
    if len(x) != cfg.n_in:
        raise ValueError(f"expected {cfg.n_in} input lines, got {len(x)}")
    den = state.den
    one = cfg._den * den
    res = cfg._res_by_col
    bias = cfg._bias_map
    acc = dict.fromkeys(cfg._pos_bias, 0)
    get = acc.get
    nums = {}
    if one < _LONG:
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
        g = math.gcd(one, *nums.values())
    else:
        part = {}
        pget = part.get
        for c, xv in enumerate(x):
            if xv:
                for i, w in cfg._in_cols[c]:
                    acc[i] = get(i, 0) + w * xv
        for j, m in state.nums.items():
            col = res.get(j)
            if not col:
                continue
            if m == den:
                for i, w in col:
                    acc[i] = get(i, 0) + w
            else:
                for i, w in col:
                    part[i] = pget(i, 0) + w * m
        for i, v in acc.items():
            v += bias.get(i, 0)
            p = part.pop(i, None)
            if p is not None:
                v = v * den + p
                if v > 0:
                    nums[i] = v if v < one else one
            elif v > 0:
                nums[i] = v * den if v < cfg._den else one
        for i, v in part.items():
            v += bias.get(i, 0) * den
            if v > 0:
                nums[i] = v if v < one else one
        g = common_factor(one, *nums.values())
    if g > 1:
        one //= g
        nums = {i: v // g for i, v in nums.items()}
    nxt = NetworkState._sparse(state.t + 1, cfg.k, one, nums)
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
    line when n_in is 3; a trace list receives (t, state.h, y).
    """
    check_protocol(w, max_steps)
    for t in range(max_steps):
        state, y = advance(ctx, state, input_at(w, t, n_in, x2))
        if trace is not None:
            trace.append((t + 1, state.h, y))
        if y[1] == 1:
            kind = "accept" if y[0] == 1 else "reject"
            return Decision(kind, tau=t + 1, trace=trace)
        if y[0] != 0:
            raise ProtocolViolation(
                f"output bit fired without validation at t={t + 1}")
    return Decision("timeout", trace=trace)


def run_word(cfg, w, max_steps, want_trace=False, x2=None):
    """Exact protocol run of cfg on w (see drive); the Decision holds
    the trace [(t, h, y), ...] when want_trace is set."""
    return drive(step, cfg, cfg._start, w, max_steps, cfg.n_in, x2,
                 [] if want_trace else None)
