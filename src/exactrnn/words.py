"""Binary words, exact encodings, and bit streams.

Everything downstream (network simulation, machine compilation, the
stochastic procedures) manipulates stack contents and probabilities as
exact rationals produced here.  Two encoders are exposed:

* ``delta2``: each bit b contributes (b+1)/2^(i+1).  Values can exceed 1
  for longer words; the function is an encoder only and is never
  inverted.
* ``delta4``: each bit b contributes (2b+1)/4^(i+1).  Injective over all
  finite words, and push/pop/top/emptiness become affine maps composed
  with the saturation ``sigma``, which is what lets a stack live inside
  a single network cell.

Rationals are ``fractions.Fraction`` (exported as ``Rat``).  The
network hot path does not use them: it runs on Python ints (integer
numerators over a common denominator, see ``network``), so Fraction
arithmetic is confined to encoding, weights and results off that path.
"""

import itertools
import random
from fractions import Fraction as Rat

from .errors import NotInImage


def as_rat(x):
    """Coerce x to an exact rational.

    Accepts ints, rational strings like "253/256", Fractions, and any
    other object exposing numerator and denominator.  Floats are
    rejected: silently converting 0.1 to
    3602879701896397/36028797018963968 is never what a caller wants in
    an exactness-first package.
    """
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a string or Fraction")
    if isinstance(x, Rat):
        return x
    if isinstance(x, (int, str)):
        return Rat(x)
    # last resort: objects exposing numerator/denominator
    try:
        return Rat(x.numerator) / Rat(x.denominator)
    except AttributeError:
        raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def rat_str(q):
    """Canonical text form: "a/b" in lowest terms, or just "a"."""
    q = as_rat(q)
    return str(q)


ZERO = as_rat(0)
ONE = as_rat(1)


def sigma(x):
    """Saturated-linear activation: clamp to [0, 1]."""
    if x <= 0:
        return ZERO
    if x >= 1:
        return ONE
    return x


def check_bitword(w):
    if not isinstance(w, str) or (w and set(w) - {"0", "1"}):
        raise ValueError(f"not a bit word: {w!r}")
    return w


def words_of_length(n):
    """All binary words of length n in lexicographic order."""
    for bits in itertools.product("01", repeat=n):
        yield "".join(bits)


# --------------------------------------------------------------------------
# encoders


def binary_value(w):
    """Ordinary binary fraction 0.w = sum w_i / 2^(i+1).

    This is the probability semantics: a length-L word corresponds to
    the dyadic V/2^L where V is the word read as an integer.
    """
    check_bitword(w)
    if not w:
        return ZERO
    return Rat(int(w, 2)) / 2 ** len(w)


def delta2(w):
    """Base-2 encoder with digit set {1, 2}: sum (w_i + 1)/2^(i+1).

    Not injective across lengths and not bounded by 1 (e.g. "11" maps
    to 3/2); exposed exactly as defined, encoder only.
    """
    check_bitword(w)
    total = ZERO
    p = ONE
    for c in w:
        p = p / 2
        total += (int(c) + 1) * p
    return total


_DELTA4_DIGITS = str.maketrans("01", "13")


def delta4(w):
    """Base-4 encoder with digit set {1, 3}: sum (2 w_i + 1)/4^(i+1).

    Injective on finite words; nonempty words land in [1/4, 1).
    """
    check_bitword(w)
    if not w:
        return ZERO
    return Rat(int(w.translate(_DELTA4_DIGITS), 4)) / 4 ** len(w)


def _decode_step(r):
    """One greedy digit extraction; returns (bit, remainder) or raises."""
    if as_rat(1) / 4 <= r < as_rat(1) / 2:
        return "0", 4 * r - 1
    if as_rat(3) / 4 <= r < 1:
        return "1", 4 * r - 3
    raise NotInImage(f"{r} starts no digit-{{1,3}} base-4 expansion")


def delta4_decode(q, n):
    """First n bits of the word (or stream prefix) that delta4 maps to q.

    The encoded object may be longer than n; only n digits are
    extracted and the remainder is not inspected further.  Raises
    NotInImage when q cannot be written as a depth-n expansion over
    digits {1, 3}, including the case where the word ends early.
    """
    r = as_rat(q)
    out = []
    for _ in range(n):
        if r == 0:
            raise NotInImage("word ends before requested depth")
        bit, r = _decode_step(r)
        out.append(bit)
    return "".join(out)


def delta4_decode_all(q, max_digits=64):
    """Decode until the remainder hits 0 exactly (finite words only).

    Raises NotInImage if no terminating digit-{1,3} expansion exists
    within max_digits; used to sanity-check that traced stack cells
    always hold encoded words.
    """
    r = as_rat(q)
    out = []
    for _ in range(max_digits):
        if r == 0:
            return "".join(out)
        bit, r = _decode_step(r)
        out.append(bit)
    if r == 0:
        return "".join(out)
    raise NotInImage(f"no terminating expansion within {max_digits} digits")


# --------------------------------------------------------------------------
# stack arithmetic on encoded contents
#
# These are the reference semantics that the compiled circuits must
# reproduce wire-for-wire; they are total on [0,1] but only meaningful
# on delta4 images.


def stack_top(q):
    """Top bit of the encoded stack: sigma(4q - 2)."""
    return sigma(4 * as_rat(q) - 2)


def stack_push0(q):
    """Push 0: sigma(q/4 + 1/4)."""
    return sigma(as_rat(q) / 4 + as_rat(1) / 4)


def stack_push1(q):
    """Push 1: sigma(q/4 + 3/4)."""
    return sigma(as_rat(q) / 4 + as_rat(3) / 4)


def stack_pop(q):
    """Pop: sigma(4q - 2 top(q) - 1); empty stacks stay empty."""
    q = as_rat(q)
    return sigma(4 * q - 2 * stack_top(q) - 1)


def stack_empty(q):
    """Nonemptiness flag, sigma(4q): 1 for nonempty contents, 0 for empty.

    The name follows the operation family ("emptiness of the stack");
    note the polarity: it answers "is there anything here".
    """
    return sigma(4 * as_rat(q))


# --------------------------------------------------------------------------
# truncation


def trunc_frac(q, bits):
    """Truncate toward zero at 2^-bits resolution.

    Matches chopping a binary expansion after `bits` fractional digits,
    for either sign.
    """
    q = as_rat(q)
    scaled = q * 2 ** bits
    n, d = scaled.numerator, scaled.denominator
    whole = abs(n) // d
    if n < 0:
        whole = -whole
    return Rat(whole) / 2 ** bits


# --------------------------------------------------------------------------
# fair bits

# byte -> "1" when its top bit is set, else "0"
_TOP_BIT = bytes(ord("1") if b & 0x80 else ord("0") for b in range(256))


def fair_word(rng, n):
    """The next n fair bits of a random.Random, as a bit word.

    getrandbits(1) is the top bit of one 32-bit generator word, and
    getrandbits(32 n) packs n words least significant first.  So the top
    bit of every fourth byte of the little-endian packing gives exactly
    the bits, in order, of n calls of getrandbits(1), and leaves the
    generator in the same state, without a Python call per bit.
    """
    return (rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]
            .translate(_TOP_BIT).decode("ascii"))


# --------------------------------------------------------------------------
# bit streams


class BitStream:
    """Deterministic, memoized stream of bits indexed from 0.

    Construct through the factories.  The bits read so far are one word,
    extended from its end by the factory's more(i, j), bits i..j-1; a
    call that raises stores nothing.  `prefix(n)` extends exactly to n
    bits; `bit(i)` reads at least twice as far, so a walk stays linear,
    except on `from_function`, whose fn, maybe costly or partial, sees
    only the indices read.  `value` is the exact binary-fraction value
    sum bit(i)/2^(i+1) when a closed form is known, else None.
    `mathematical` is False for PRNG-backed streams, which exist for
    tests and sampling.
    """

    def __init__(self, more, value=None, spec=None, mathematical=True):
        self._more = more
        self._text = ""
        self.value = value
        self._spec = spec
        self.mathematical = mathematical

    def bit(self, i):
        if i < 0:
            raise IndexError(i)
        text = self._text
        if i >= len(text):
            # only a from_function stream has no spec
            n = max(i + 1, 2 * len(text) if self._spec else 0)
            self._text = text = text + self._more(len(text), n)
        return 1 if text[i] == "1" else 0

    def prefix(self, n):
        if n < 0:
            raise ValueError(f"prefix length {n} is negative")
        text = self._text
        if n > len(text):
            self._text = text = text + self._more(len(text), n)
        return text[:n]

    # ---------------------------------------------------------- factories

    @classmethod
    def from_word(cls, w, tail_bit=0):
        """Finite word followed by a constant tail (default zeros)."""
        check_bitword(w)
        if tail_bit not in (0, 1):
            raise ValueError("tail_bit must be 0 or 1")
        val = binary_value(w)
        if tail_bit:
            val += Rat(1) / 2 ** len(w)
        tail = "1" if tail_bit else "0"
        return cls(lambda i, j: (w + tail * (j - len(w)))[i:j], value=val,
                   spec={"kind": "word", "word": w, "tail": tail_bit})

    @classmethod
    def from_periodic(cls, head, cycle):
        """Eventually periodic stream head cycle cycle cycle ..."""
        check_bitword(head)
        check_bitword(cycle)
        if not cycle:
            raise ValueError("cycle must be nonempty; use from_word for finite tails")
        cval = Rat(int(cycle, 2)) / (2 ** len(cycle) - 1)
        val = binary_value(head) + cval / 2 ** len(head)
        h, c = len(head), len(cycle)
        return cls(lambda i, j: (head + cycle * -((h - j) // c))[i:j],
                   value=val, spec={"kind": "periodic", "head": head, "cycle": cycle})

    @classmethod
    def from_rational(cls, q):
        """Binary expansion of q in [0, 1].

        Dyadic rationals get the terminating expansion (3/4 -> 1100...);
        q = 1 is the all-ones stream.
        """
        q = as_rat(q)
        if not 0 <= q <= 1:
            raise ValueError(f"{q} outside [0, 1]")
        r, d = q.numerator, q.denominator      # the remainder is r/d

        def more(i, j):
            nonlocal r
            k = j - i
            # the remainder stays in [0, 1]; at 1 every bit is 1
            v = min((r << k) // d, (1 << k) - 1)
            r = (r << k) - v * d
            return format(v, f"0{k}b")

        return cls(more, value=q, spec={"kind": "rational", "value": rat_str(q)})

    @classmethod
    def from_function(cls, fn, value=None):
        """Arbitrary algorithmic stream; not serializable."""
        return cls(lambda i, j: "".join("1" if fn(k) else "0" for k in range(i, j)),
                   value=value, spec=None)

    @classmethod
    def from_prng(cls, seed):
        """Seeded pseudo-random bits; repeatable but flagged non-mathematical."""
        rng = random.Random(seed)
        return cls(lambda i, j: fair_word(rng, j - i), value=None,
                   spec={"kind": "prng", "seed": seed}, mathematical=False)

    # ------------------------------------------------------ serialization

    def to_json(self):
        if self._spec is None:
            raise ValueError("stream has no serializable description")
        return dict(self._spec)

    @classmethod
    def from_json(cls, d):
        kind = d.get("kind")
        if kind == "word":
            return cls.from_word(d["word"], tail_bit=d.get("tail", 0))
        if kind == "periodic":
            return cls.from_periodic(d["head"], d["cycle"])
        if kind == "rational":
            return cls.from_rational(as_rat(d["value"]))
        if kind == "prng":
            return cls.from_prng(d["seed"])
        raise ValueError(f"unknown stream kind {kind!r}")

    def __repr__(self):
        tag = self._spec["kind"] if self._spec else "function"
        return f"<BitStream {tag} {self.prefix(min(12, len(self._text) or 8))}...>"
