"""Advice codecs, compressibility checking, and finite diagonalization.

Four tool groups share this module because they all manipulate the same
raw material, bit strings indexed by input length:

* ``check_kfg`` pairs a target stream with a shorter seed stream and a
  decompressor, and verifies on a finite range that every long-enough
  seed prefix regenerates the target prefix within a time budget. A
  decompressor that declares its window (``reads``) runs once for all
  the seed lengths past it, so the codec's own decompressors cost one
  run per target length rather than one per (length, seed length)
  pair, with the same report.
* ``interleave``/``recover_prefix`` pad a stream with separator zeros
  at schedule-determined positions, so that a short prefix of the raw
  stream always suffices to rebuild a long prefix of the padded one.
  They, and ``interleave_decompressor``, take the separator schedule
  as a ``BoundFunction`` and read it through that instance's table, so
  each schedule value is evaluated once however many lengths and seeds
  are checked. From the table each instance computes, once per length,
  a layout. Where few blocks hold data (log2 and sqrt bounds) it
  covers only the non-empty blocks: their slices and one template for
  the separator runs between them. Elsewhere it cuts every block with
  one itemgetter over slices that all lengths share. Either way a codec
  call takes no Python step per block.
* ``halving_diagonal`` builds, by repeated minority voting over a
  candidate window, a set of same-length words that no member of a
  given finite family equals.
* ``pad_advice`` and the block codec (``prefix_codec_encode`` /
  ``prefix_codec_decode``) re-package per-length advice words: padding
  stretches advice to a larger size bound behind a self-delimiting
  ones-run, and the block codec concatenates candidate-window
  characteristic words behind two-bit symbols so that one growing
  string serves every input length at once.

Everything here is exact and deterministic; randomness appears only in
the test harnesses that drive these functions.
"""

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import (
    BoundViolation,
    MalformedAdvice,
    MalformedInterleaving,
    Mismatch,
    NotASampleLength,
    PreconditionViolated,
    SearchExhausted,
)
from .machines import Advice, SYMBOLS, TmaSpec
from .words import check_bitword


@dataclass(frozen=True)
class BoundFunction:
    """A length-to-length resource bound.

    ``poly_computable`` is a tag supplied by the caller (we cannot
    decide it). Instances are callable. ``table(n)`` evaluates the
    bound at 0..n-1 once per instance, in ascending order, and later
    calls at those lengths read the stored values. The table holds a
    non-decreasing run of valid lengths: a value that fails validation,
    or that falls below its predecessor, raises ValueError and is never
    stored. The interleaving codec also keeps on the instance one
    separator layout per length, computed once from the table and,
    where few blocks hold data, covering only the non-empty ones.
    Neither the table nor the layouts (nor the block slices they
    share) take part in equality or hashing. validate_reasonable
    checks monotonicity pointwise on its range."""

    name: str
    fn: Callable[[int], int]
    poly_computable: bool = True
    _table: list = field(default_factory=list, init=False, repr=False,
                         compare=False)
    _layouts: dict = field(default_factory=dict, init=False,
                           repr=False, compare=False)
    _slices: tuple = field(default_factory=lambda: ([], []), init=False,
                           repr=False, compare=False)

    def __call__(self, n):
        t = self._table
        if 0 <= n < len(t):
            return t[n]
        v = self.fn(n)
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"{self.name}({n}) = {v!r}, want a length")
        return v

    def table(self, n):
        """The list [self(0), ..., self(n-1)]."""
        if n < 0:
            raise ValueError(f"table length {n} is negative")
        t = self._table
        for i in range(len(t), n):
            v = self(i)
            if t and v < t[-1]:
                raise ValueError(f"{self.name}({i}) = {v} is below "
                                 f"{self.name}({i - 1}) = {t[-1]}")
            t.append(v)
        return t[:n]


# ---------------------------------------------------------------------------
# Compressibility checking


@dataclass(frozen=True)
class Decompressor:
    """Deterministic seed-to-prefix rebuilder.

    ``run(seed, n)`` must return ``(word, steps)`` where word is the
    length-n reconstruction attempt and steps its self-reported cost in
    whatever unit the caller's time bound is denominated in.

    ``reads``, when given, is the decompressor's window: a promise that
    ``run(seed, n)`` depends on no seed bit past its first ``reads(n)``,
    so any two seeds of at least ``reads(n)`` bits that share those bits
    give the same result. ``None`` promises nothing: run may read every
    bit of every seed."""

    name: str
    run: Callable[[str, int], tuple]
    reads: Callable[[int], int] | None = None


@dataclass(frozen=True)
class KfgFailure:
    n: int
    m: int
    kind: str  # "mismatch" or "time"
    detail: str


@dataclass(frozen=True)
class KfgReport:
    """Outcome of a finite compressibility check.

    ``exceptions`` lists every target length with at least one failing
    seed length; ``threshold`` is the least length from which the
    checked range is clean (n_max + 1 when even the last length fails).
    Whether finitely many exceptions is "few enough" is the caller's
    call, not ours."""

    n_min: int
    n_max: int
    checks: int
    failures: tuple
    exceptions: tuple
    threshold: int

    @property
    def ok(self):
        return not self.failures

    def lines(self):
        out = [f"kfg range n={self.n_min}..{self.n_max} pairs={self.checks}"]
        for fl in self.failures:
            out.append(f"fail n={fl.n} m={fl.m} {fl.kind}: {fl.detail}")
        if self.exceptions:
            out.append("exceptions " + ",".join(str(n) for n in self.exceptions))
        out.append(f"clean-from {self.threshold}")
        return out


def check_kfg(alpha, beta, d, f, g, n_max, n_min=1, strict=False):
    """Verify that beta's prefixes regenerate alpha's under d.

    For every n in [n_min, n_max] and every m with f(n) <= m <= n_max,
    runs d on beta's m-bit prefix and demands alpha's n-bit prefix back
    within g(n) steps. Records the first failing m per n; with strict
    set, raises Mismatch or BoundViolation at the first failure
    instead of reporting it.

    Past d's window the seeds differ only in bits d does not read, so
    when ``d.reads`` is set the m from m0 = max(f(n), d.reads(n)) on
    share one run: d runs once at m0, and a pass there is credited to
    every m up to n_max, a failure recorded at m0. The report (``checks``
    included) and any strict error are those of a run at every m, which
    is what a decompressor without ``reads`` gets. A length then costs
    m0 - f(n) + 1 runs instead of n_max - f(n) + 1: one, for the codec's
    decompressor at f = g.
    """
    failures = []
    exceptions = []
    checks = 0
    for n in range(n_min, n_max + 1):
        want = alpha.prefix(n)
        budget = g(n)
        lo = f(n)
        last = n_max if d.reads is None else min(n_max, max(lo, d.reads(n)))
        for m in range(lo, last + 1):
            checks += 1
            got, steps = d.run(beta.prefix(m), n)
            if got != want:
                detail = f"{d.name} gave {got!r}, want {want!r}"
                if strict:
                    raise Mismatch(detail)
                failures.append(KfgFailure(n, m, "mismatch", detail))
            elif steps > budget:
                detail = f"{d.name} took {steps} steps, budget {budget}"
                if strict:
                    raise BoundViolation(detail)
                failures.append(KfgFailure(n, m, "time", detail))
            else:
                continue
            exceptions.append(n)
            break
        else:   # the run at last stands for every m past it
            checks += n_max - last
    threshold = max(exceptions) + 1 if exceptions else n_min
    return KfgReport(n_min=n_min, n_max=n_max, checks=checks,
                     failures=tuple(failures), exceptions=tuple(exceptions),
                     threshold=threshold)


# ---------------------------------------------------------------------------
# Reasonable-bound validation


@dataclass(frozen=True)
class ReasonableReport:
    ok: bool
    n_min: int
    n_max: int
    failures: tuple  # of (check, subject, n, detail)

    def lines(self):
        head = f"reasonable range n={self.n_min}..{self.n_max} "
        head += "ok" if self.ok else f"failures={len(self.failures)}"
        out = [head]
        for check, subject, n, detail in self.failures:
            out.append(f"fail {check} {subject} n={n}: {detail}")
        return out


def _scan(found, check, subject, rng, pred, detail):
    for n in rng:
        if not pred(n):
            found.append((check, subject, n, detail(n)))
            return


def validate_reasonable(members, n_max, p_samples=(), n_min=1,
                        dominators=None, closure_witnesses=None):
    """Range-check a finite presentation of an advice-bound class.

    Three obligations per member f: f is non-decreasing and stays at or
    below the identity on [n_min, n_max]; some polynomial-computable
    function (from ``dominators``, default f itself when tagged) sits
    above it; and for each sample polynomial p a witness from
    ``closure_witnesses[(f.name, p.name)]`` sits above n -> f(p(n)) and
    itself behaves like a member on the range. Witnesses are evidence,
    not proofs: everything is checked pointwise on the given range and
    the first offending n per obligation is reported.
    """
    dominators = dominators or {}
    closure_witnesses = closure_witnesses or {}
    failures = []
    rng = range(n_min, n_max + 1)

    def behaves_like_member(f, tag):
        _scan(failures, "monotone", tag, range(n_min + 1, n_max + 1),
              lambda n: f(n - 1) <= f(n),
              lambda n: f"{f(n - 1)} > {f(n)}")
        _scan(failures, "sub-linearity", tag, rng,
              lambda n: f(n) <= n,
              lambda n: f"{f(n)} > {n}")

    for f in members:
        behaves_like_member(f, f.name)
        dom = dominators.get(f.name, f if f.poly_computable else None)
        if dom is None:
            failures.append(("dominance", f.name, n_min,
                             "no polynomial-computable dominator supplied"))
        else:
            if not dom.poly_computable:
                failures.append(("dominance", f.name, n_min,
                                 f"{dom.name} not tagged polynomial-computable"))
            _scan(failures, "dominance", f.name, rng,
                  lambda n: f(n) <= dom(n),
                  lambda n: f"{f(n)} > {dom.name}({n}) = {dom(n)}")
        for p in p_samples:
            wit = closure_witnesses.get((f.name, p.name))
            if wit is None:
                failures.append(("closure", f"{f.name}({p.name})", n_min,
                                 "no witness supplied"))
                continue
            _scan(failures, "closure", f"{f.name}({p.name})", rng,
                  lambda n: f(p(n)) <= wit(n),
                  lambda n: f"{f(p(n))} > {wit.name}({n}) = {wit(n)}")
            behaves_like_member(wit, f"witness {wit.name}")
    return ReasonableReport(ok=not failures, n_min=n_min, n_max=n_max,
                            failures=tuple(failures))


# ---------------------------------------------------------------------------
# Separator interleaving


class _Layout(NamedTuple):
    """The separator layout of one bound at one length n: the g(n)
    data bits and four callables over the data blocks. ``take`` cuts
    them out of the g(n) data bits, ``shifted`` out of the g(n) + n
    padded bits, and ``fill`` joins them back into the padded bits with
    the separators between them, taking the blocks as one sequence.
    ``head`` is ``take`` for a caller that keeps only the first n
    padded bits: it may leave out the blocks that start past them."""

    bits: int
    take: Callable
    head: Callable
    shifted: Callable
    fill: Callable


def _layout(g, n):
    """Build and store the layout of g at length n. Callers look it up
    in ``g._layouts`` themselves and call this only on a miss, which
    saves a Python call per codec call.

    An empty block adds only its separator. Where at most
    2 * sqrt(n + 1) blocks hold data (log2 and sqrt bounds do), one
    template merges those zeros into runs and the layout names the
    non-empty blocks only, so the layouts of all lengths up to n refer
    to O(n**1.5) slices. Where more do (identity, double), such layouts
    would refer to about n**2 / 2; there a layout names no blocks and
    cuts all of them per call, through an itemgetter built from the
    shared slices, and its ``head`` stops at the fewest separators k
    with g(k) + k >= n. A layout is stored only after ``g.table`` has
    validated g(0..n), so an invalid bound raises on every call and
    stores nothing.
    """
    if n < 0:
        raise PreconditionViolated(f"need a block count, got {n}")
    t = g.table(n + 1)
    cuts = [0] + t
    # block i has the same slices at every length past i, so all the
    # layouts of g share one growing list of them per side
    on_data, on_padded = g._slices
    for i in range(len(on_data), n + 1):
        on_data.append(slice(cuts[i], t[i]))
        on_padded.append(slice(cuts[i] + i, t[i] + i))
    size = len(set(cuts)) - 1       # the non-empty blocks
    if size * size <= 4 * (n + 1):
        blocks = [i for i, (a, b) in enumerate(zip(cuts, t)) if a < b]
        marks = [0] + blocks + [n]
        zeros = ["0" * (j - i) for i, j in zip(marks, marks[1:])]
        # two empty leading slices keep itemgetter's result a tuple: it
        # takes no empty argument list, and for one slice it returns a
        # bare string, whose characters the fields would index
        none = slice(0, 0)
        take = itemgetter(none, none, *[on_data[i] for i in blocks])
        lay = _Layout(
            bits=t[n],
            take=take,
            head=take,
            shifted=itemgetter(none, none, *[on_padded[i] for i in blocks]),
            fill=(zeros[0] + "".join("{0[%d]}%s" % field for field
                                     in enumerate(zeros[1:], 2))).format)
    else:
        # a dense n is at least 4, so each itemgetter gets at least two
        # slices (head too, by k >= 1) and returns a tuple
        k = max(1, next(i for i in range(n + 1) if t[i] + i >= n))
        lay = _Layout(
            bits=t[n],
            take=lambda d: itemgetter(*on_data[:n + 1])(d),
            head=lambda d: itemgetter(*on_data[:k + 1])(d),
            shifted=lambda s: itemgetter(*on_padded[:n + 1])(s),
            fill="0".join)
    g._layouts[n] = lay
    return lay


def interleave(r, g, n):
    """Pad r with separator zeros: block i of r (bits g(i-1) to g(i)-1)
    is followed by one 0, so separator number i lands at position
    g(i) + i. Returns the first g(n) + n bits of the padded stream,
    which end exactly with block n. g is a non-decreasing
    ``BoundFunction``; its layout at n is computed once per instance
    and, where few blocks hold data, covers only the non-empty ones.
    Blocks may be empty.
    """
    lay = g._layouts.get(n) or _layout(g, n)
    return lay.fill(lay.take(r.prefix(lay.bits)))


def recover_prefix(s_prefix, g, n):
    """Undo interleave: strip the n separators sitting at positions
    g(i) + i and return the g(n) data bits that remain. The input must
    cover at least g(n) + n positions (interleave's own output does).
    g is a non-decreasing ``BoundFunction``; its layout at n is
    computed once per instance (non-empty blocks only, where few hold
    data), and the blocks are cut out of the input and joined back
    through it to check the separators.
    """
    check_bitword(s_prefix)
    lay = g._layouts.get(n) or _layout(g, n)
    need = lay.bits + n
    if len(s_prefix) < need:
        raise PreconditionViolated(
            f"need {need} interleaved bits to recover {n} blocks, "
            f"got {len(s_prefix)}")
    chunks = lay.shifted(s_prefix)
    if lay.fill(chunks) != s_prefix[:need]:
        t = g.table(n)
        i = next(i for i, c in enumerate(t) if s_prefix[c + i] != "0")
        raise MalformedInterleaving(
            f"separator {i} missing at position {t[i] + i}")
    return "".join(chunks)


def interleave_decompressor(g):
    """The rebuild step for interleaved streams: given enough raw bits,
    regenerate any n-bit prefix of the padded stream. g is a
    non-decreasing ``BoundFunction``. The padded stream's first n bits
    depend only on the data that lands before position n, so run
    interleaves the seed through g's layout at n (computed once per
    instance, non-empty blocks only where few hold data) and cuts the
    result to n bits; a seed shorter than g(n) is padded with zeros.
    Cost is reported as one step per emitted bit. run reads only the
    first g(n) seed bits, the layout's ``bits``, so g is its window.
    """
    layouts = g._layouts

    def run(seed, n):
        lay = layouts.get(n) or _layout(g, n)
        data = seed[:lay.bits].ljust(lay.bits, "0")
        return lay.fill(lay.head(data))[:n], n

    return Decompressor(name=f"unzip[{g.name}]", run=run, reads=g)


def identity_decompressor():
    """Seeds that literally are the target: copy n bits through."""
    return Decompressor(name="copy", run=lambda seed, n: (seed[:n], n),
                        reads=lambda n: n)


# ---------------------------------------------------------------------------
# Language slices and the halving diagonal


def binary_word(i, n):
    """The i-th length-n word in counting order, most significant bit
    first. Defined for 0 <= i < 2**n."""
    if not 0 <= i < (1 << n):
        raise ValueError(f"index {i} has no {n}-bit representation")
    return format(i, f"0{n}b") if n else ""


@dataclass(frozen=True)
class LanguageSlice:
    """All members of some language at one fixed word length."""

    n: int
    members: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        for w in self.members:
            check_bitword(w)
            if len(w) != self.n:
                raise ValueError(f"member {w!r} is not {self.n} bits long")

    @property
    def words(self):
        return tuple(sorted(self.members))


def slice_to_line(s):
    """One slice per line: sorted members comma-joined, '-' when empty."""
    return ",".join(s.words) if s.members else "-"


def family_to_text(family):
    return "".join(slice_to_line(s) + "\n" for s in family)


def family_from_text(text, n):
    """Parse one slice per non-blank line; '#' starts a comment."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = () if line == "-" else tuple(p.strip() for p in line.split(","))
        out.append(LanguageSlice(n=n, members=frozenset(words)))
    return out


def halving_diagonal(family, n, f_n):
    """Construct a length-n slice outside the given family.

    Walks the candidate words b(0), ..., b(f_n) in order. At each one,
    the still-live family members vote on whether the candidate is in;
    the output slice sides with the strict minority (excluding the
    candidate on ties) and only the agreeing members stay live. Each
    vote at least halves the live set, so a family of at most 2**f_n
    members is extinct after f_n + 1 votes and the output equals none
    of them.
    """
    if n < 0:
        raise PreconditionViolated(f"word length {n} is negative")
    if f_n < 0 or f_n + 1 > (1 << n):
        raise PreconditionViolated(
            f"need f_n + 1 = {f_n + 1} distinct length-{n} candidates")
    pool = {frozenset(s.members) for s in family}
    for s in family:
        if s.n != n:
            raise PreconditionViolated(f"family member at length {s.n}, not {n}")
    if len(pool) > (1 << f_n):
        raise PreconditionViolated(
            f"family has {len(pool)} distinct members, cap is 2^{f_n}")
    survivors = list(pool)
    chosen = set()
    for i in range(f_n + 1):
        b = binary_word(i, n)
        inside = [L for L in survivors if b in L]
        outside = [L for L in survivors if b not in L]
        if len(inside) < len(outside):
            chosen.add(b)
            survivors = inside
        else:
            survivors = outside
    return LanguageSlice(n=n, members=frozenset(chosen))


# ---------------------------------------------------------------------------
# Advice padding


def pad_advice(a, g):
    """Stretch advice a (of size f) to size g: each word becomes
    1^(g(n)-f(n)-1) 0 a(n). Needs g(n) > f(n) wherever evaluated; the
    ones-run length varies with n, so the result is not a prefix family
    even when a is.
    """
    def word(n):
        gap = g(n) - a.size(n)
        if gap < 1:
            raise PreconditionViolated(
                f"padding needs g({n}) > f({n}), got gap {gap}")
        return "1" * (gap - 1) + "0" + a(n)

    return Advice(size=lambda n: g(n), word=word)


def unpad_wrapper(m, state="unpad"):
    """Wrap an advice machine so it runs on padded advice: the new
    start state walks the advice head right over the ones-run and the
    closing zero, then hands over to m unchanged. Costs g(n) - f(n)
    extra steps and assumes m never moves its advice head left of its
    own first advice cell.
    """
    taken = {q for (q, _, _) in m.trans}
    taken.update(rule[3] for rule in m.trans.values())
    while state in taken:
        state += "_"
    trans = dict(m.trans)
    for sym in SYMBOLS:
        trans[(state, sym, "1")] = (sym, "S", "R", state)
        trans[(state, sym, "0")] = (sym, "S", "R", m.initial)
    return TmaSpec(trans=trans, initial=state)


# ---------------------------------------------------------------------------
# The block codec

SEPARATOR = "01"
FILLER = "10"


def double_bits(w):
    """The two-symbol alphabet backbone: 0 -> 00, 1 -> 11. Leaves the
    pairs 01 and 10 free for the separator and filler symbols."""
    check_bitword(w)
    return "".join(c + c for c in w)


def compute_ni_sequence(f, g, count, cap=1 << 16):
    """Sample lengths for the block codec.

    Block i encodes a candidate-window characteristic word of
    f(n_i) + 1 bits, two code bits each, plus a two-bit separator.
    Each n_i is the least length (above its predecessor) whose size
    budget g(n_i) holds everything already emitted plus its own block:

        emitted(i-1) + 2 (f(n) + 1) <= g(n)

    where emitted counts all earlier blocks and their separators.
    Minimality comes from the ascending scan; lengths above cap raise
    SearchExhausted.
    """
    seq = []
    emitted = 0
    n = 0
    for _ in range(count):
        while n <= cap and emitted + 2 * (f(n) + 1) > g(n):
            n += 1
        if n > cap:
            raise SearchExhausted(
                f"no sample length below {cap} fits block {len(seq)}")
        seq.append(n)
        emitted += 2 * (f(n) + 1) + 2
        n += 1
    return tuple(seq)


@dataclass(frozen=True)
class PrefixCodeAdvice:
    """Block-coded advice for a family of slices at sample lengths.

    ``core(n)`` is the undecorated code: every block up to length n,
    separator-joined, with a trailing separator exactly when n is not
    itself a sample length. Cores form a literal prefix family.
    ``padded(n)`` extends the core with filler symbols to exactly
    g(n) bits; padding is what breaks literal prefixness, which is why
    both forms are exposed. When g(n) is odd the last filler symbol is
    cut in half and the string ends with a lone 1.
    """

    sample_lengths: tuple
    codes: tuple
    bound: object  # g, callable
    valid_to: int

    def _check(self, n):
        if n < 0 or n > self.valid_to:
            raise ValueError(
                f"advice prepared for lengths 0..{self.valid_to}, asked {n}")

    def core(self, n):
        self._check(n)
        i = sum(1 for m in self.sample_lengths if m <= n)
        body = SEPARATOR.join(self.codes[:i])
        if i and n != self.sample_lengths[i - 1]:
            body += SEPARATOR
        return body

    def padded(self, n):
        body = self.core(n)
        size = self.bound(n)
        gap = size - len(body)
        if gap < 0:
            raise PreconditionViolated(
                f"g({n}) = {size} cannot hold the {len(body)}-bit code; "
                "the size bound must leave separator room past each sample")
        reps = (gap + 1) // 2
        return body + (FILLER * reps)[:gap]

    @property
    def advice(self):
        return Advice(size=self.bound, word=self.padded)


def prefix_codec_encode(slices, f, g, cap=1 << 16):
    """Code a run of slices, one per sample length of (f, g).

    Slice number i must sit at length n_i and draw its members from the
    candidate window b(0), ..., b(f(n_i)); its block is the doubled
    characteristic word of that window. The result serves every length
    up to (not including) the next unprepared sample length, or up to
    cap when no further sample exists below it.
    """
    lengths = compute_ni_sequence(f, g, len(slices), cap=cap)
    codes = []
    for s, n in zip(slices, lengths):
        if s.n != n:
            raise PreconditionViolated(
                f"slice at length {s.n} where sample length {n} expected")
        width = f(n) + 1
        window = [binary_word(j, n) for j in range(width)]
        stray = s.members - set(window)
        if stray:
            raise PreconditionViolated(
                f"members outside the candidate window: {sorted(stray)}")
        codes.append(double_bits(
            "".join("1" if w in s.members else "0" for w in window)))
    try:
        nxt = compute_ni_sequence(f, g, len(slices) + 1, cap=cap)
        valid_to = nxt[-1] - 1
    except SearchExhausted:
        valid_to = cap
    return PrefixCodeAdvice(sample_lengths=lengths, codes=tuple(codes),
                            bound=g, valid_to=valid_to)


def prefix_codec_decode(word, n):
    """Read a slice back out of (possibly padded) block-coded advice.

    Parses two-bit symbols, strips trailing filler, and takes the data
    run after the last separator as the candidate-window flags for
    length n. A bare separator at the end means n sits strictly between
    sample lengths: NotASampleLength. Anything that breaks the symbol
    grammar raises MalformedAdvice.
    """
    check_bitword(word)
    if len(word) % 2:
        if word[-1] != "1":
            raise MalformedAdvice("odd length must end with a half filler, 1")
        word = word[:-1]
    syms = [word[i:i + 2] for i in range(0, len(word), 2)]
    while syms and syms[-1] == FILLER:
        syms.pop()
    if not syms or syms[-1] == SEPARATOR:
        raise NotASampleLength(f"advice ends between blocks at length {n}")
    k = len(syms)
    while k and syms[k - 1] in ("00", "11"):
        k -= 1
    if k and syms[k - 1] != SEPARATOR:
        raise MalformedAdvice("filler symbol inside the code region")
    flags = "".join("1" if s == "11" else "0" for s in syms[k:])
    if len(flags) > (1 << n):
        raise MalformedAdvice(
            f"{len(flags)} candidate flags but only {1 << n} words of length {n}")
    members = frozenset(binary_word(j, n)
                        for j, c in enumerate(flags) if c == "1")
    return LanguageSlice(n=n, members=members)
