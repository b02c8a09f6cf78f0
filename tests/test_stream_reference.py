"""Bit streams against their per-bit reference, tolerance zero.

``ReferenceStream`` is ``BitStream`` as this package ran it before a
stream held its bits as one word: a per-index bit function, a memo list
of ints grown one call per bit, a text copy rebuilt from the memo, and
closure bit lists in the rational and PRNG factories.  Every factory is
read through interleaved ``bit`` and ``prefix`` calls, and each read
must give the same result, or the same error type and message, on both
sides.
"""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactrnn.words import BitStream, as_rat, binary_value, rat_str


class ReferenceStream:

    def __init__(self, fn, value=None, spec=None, mathematical=True):
        self._fn = fn
        self._memo = []
        self._text = ""
        self.value = value
        self._spec = spec
        self.mathematical = mathematical

    def bit(self, i):
        if i < 0:
            raise IndexError(i)
        memo = self._memo
        while len(memo) <= i:
            memo.append(1 if self._fn(len(memo)) else 0)
        return memo[i]

    def prefix(self, n):
        if n < 0:
            raise ValueError(f"prefix length {n} is negative")
        text = self._text
        if n > len(text):
            self.bit(n - 1)
            text += "".join(map(str, self._memo[len(text):]))
            self._text = text
        return text[:n]

    @classmethod
    def from_word(cls, w, tail_bit=0):
        val = binary_value(w)
        if tail_bit:
            val += Fraction(1) / 2 ** len(w)
        fn = lambda i, _w=w, _t=tail_bit: int(_w[i]) if i < len(_w) else _t
        return cls(fn, value=val, spec={"kind": "word", "word": w, "tail": tail_bit})

    @classmethod
    def from_periodic(cls, head, cycle):
        cval = Fraction(int(cycle, 2)) / (2 ** len(cycle) - 1)
        val = binary_value(head) + cval / 2 ** len(head)

        def fn(i, _h=head, _c=cycle):
            return int(_h[i]) if i < len(_h) else int(_c[(i - len(_h)) % len(_c)])

        return cls(fn, value=val, spec={"kind": "periodic", "head": head, "cycle": cycle})

    @classmethod
    def from_rational(cls, q):
        q = as_rat(q)
        state = {"r": q, "bits": []}

        def fn(i):
            bits = state["bits"]
            while len(bits) <= i:
                r2 = state["r"] * 2
                b = 1 if r2 >= 1 else 0
                state["r"] = r2 - b
                bits.append(b)
            return bits[i]

        return cls(fn, value=q, spec={"kind": "rational", "value": rat_str(q)})

    @classmethod
    def from_function(cls, fn, value=None):
        return cls(lambda i: 1 if fn(i) else 0, value=value, spec=None)

    @classmethod
    def from_prng(cls, seed):
        rng = random.Random(seed)
        state = {"bits": []}

        def fn(i):
            bits = state["bits"]
            while len(bits) <= i:
                bits.append(rng.getrandbits(1))
            return bits[i]

        return cls(fn, value=None, spec={"kind": "prng", "seed": seed},
                   mathematical=False)

    def to_json(self):
        if self._spec is None:
            raise ValueError("stream has no serializable description")
        return dict(self._spec)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # both sides must raise alike
        return type(exc).__name__, str(exc)


class Flaky:
    """A bit function that raises at index k: once, or on every call
    when always is set.  Each stream gets its own instance."""

    def __init__(self, k, always, salt):
        self.k, self.always, self.salt = k, always, salt
        self.armed = True

    def __call__(self, i):
        if i == self.k and (self.armed or self.always):
            self.armed = False
            raise RuntimeError(f"bit {i} is not ready")
        return (i * i + self.salt) % 7 < 3


bitwords = st.text(alphabet="01", max_size=24)
rationals = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2),
                     Fraction(3, 4), Fraction(2, 3)]),
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6))
factories = st.one_of(
    st.tuples(st.just("from_word"), bitwords,
              st.sampled_from([0, 1, False, True])),
    st.tuples(st.just("from_periodic"), bitwords,
              st.text(alphabet="01", min_size=1, max_size=9)),
    st.tuples(st.just("from_rational"), rationals),
    st.tuples(st.just("from_prng"), st.integers(min_value=0, max_value=2 ** 70)),
    st.tuples(st.just("from_function"), st.integers(min_value=0, max_value=80),
              st.booleans(), st.integers(min_value=0, max_value=6)))
reads = st.lists(st.tuples(st.sampled_from(["bit", "prefix"]),
                           st.integers(min_value=-3, max_value=300)),
                 max_size=16)


def build(cls, factory):
    name, *args = factory
    if name == "from_function":
        return cls.from_function(Flaky(*args))
    return getattr(cls, name)(*args)


@settings(max_examples=300, deadline=None)
@given(factories, reads)
@example(("from_rational", Fraction(1)), [("bit", 5), ("prefix", 40)])
@example(("from_function", 3, False, 0),
         [("bit", 1), ("bit", 2), ("prefix", 9), ("prefix", 9), ("bit", 3)])
@example(("from_function", 3, True, 0),
         [("prefix", 2), ("bit", 2), ("prefix", 5), ("bit", 4)])
@example(("from_prng", 2 ** 70), [("bit", 0), ("prefix", 300), ("bit", 299)])
def test_stream_reads_match_reference(factory, ops):
    got, want = build(BitStream, factory), build(ReferenceStream, factory)
    for op, n in ops:
        assert outcome(getattr(got, op), n) == outcome(getattr(want, op), n)
    assert got.value == want.value
    assert got.mathematical == want.mathematical
    assert outcome(got.to_json) == outcome(want.to_json)


@settings(max_examples=100, deadline=None)
@given(factories, st.lists(st.integers(min_value=0, max_value=300), max_size=8))
def test_prefix_asks_for_no_bit_past_its_length(factory, lengths):
    s = build(BitStream, factory)
    more, asked = s._more, []

    def recording(i, j):
        asked.append((i, j))
        return more(i, j)

    s._more = recording
    for n in lengths:
        held = len(s._text)
        try:
            s.prefix(n)
        except RuntimeError:
            pass
        assert all(i == held and j == n for i, j in asked)
        asked.clear()
