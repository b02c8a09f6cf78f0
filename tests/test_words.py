"""Encoding layer: word encoders, stack arithmetic, streams, truncation.

Oracle values were computed with an independent Fraction-based summation
script before the module was written, and are frozen here as literals.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrnn.errors import NotInImage
from exactrnn.words import (
    BitStream,
    as_rat,
    binary_value,
    delta2,
    delta4,
    delta4_decode,
    delta4_decode_all,
    rat_str,
    sigma,
    stack_empty,
    stack_pop,
    stack_push0,
    stack_push1,
    stack_top,
    trunc_frac,
    words_of_length,
)

R = as_rat

bitwords = st.text(alphabet="01", max_size=40)


# ---------------------------------------------------------------- rationals

def test_as_rat_accepts_exact_forms():
    assert as_rat("253/256") == R(253) / 256
    assert as_rat(7) == 7
    assert as_rat("3") == 3
    import fractions
    assert as_rat(fractions.Fraction(1, 3)) == R(1) / 3
    q = as_rat("1/3")
    assert as_rat(q) == q


def test_as_rat_rejects_floats():
    # floats smuggle in binary rounding; the whole point is exactness
    with pytest.raises(TypeError):
        as_rat(0.1)


def test_rat_str_roundtrip():
    for s in ["0", "1", "253/256", "-7/3", "2/3"]:
        assert rat_str(as_rat(s)) == s
        assert as_rat(rat_str(as_rat(s))) == as_rat(s)


def test_sigma_clamps():
    assert sigma(R(-1) / 2) == 0
    assert sigma(R(0)) == 0
    assert sigma(R(1) / 3) == R(1) / 3
    assert sigma(R(1)) == 1
    assert sigma(R(5) / 4) == 1


# ---------------------------------------------------------------- encoders

def test_delta2_frozen_values():
    assert delta2("") == 0
    assert delta2("0") == R(1) / 2
    assert delta2("1") == 1
    assert delta2("01") == 1
    assert delta2("11") == R(3) / 2      # the literal formula exceeds 1
    assert delta2("1110") == R(29) / 16
    assert delta2("010") == R(9) / 8


def test_delta4_frozen_values():
    assert delta4("") == 0
    assert delta4("0") == R(1) / 4
    assert delta4("1") == R(3) / 4
    assert delta4("01") == R(7) / 16
    assert delta4("11") == R(15) / 16
    assert delta4("1110") == R(253) / 256
    assert delta4("010") == R(29) / 64


def test_binary_value_frozen():
    assert binary_value("") == 0
    assert binary_value("1") == R(1) / 2
    assert binary_value("01") == R(1) / 4
    assert binary_value("11") == R(3) / 4
    assert binary_value("1110") == R(7) / 8


def test_delta4_injective_exhaustive():
    seen = {}
    for n in range(0, 11):
        for w in words_of_length(n):
            q = delta4(w)
            assert q not in seen, (w, seen.get(q))
            seen[q] = w


def test_delta4_range():
    for n in range(1, 9):
        for w in words_of_length(n):
            assert R(1) / 4 <= delta4(w) < 1


# ---------------------------------------------------------------- decoding

def test_decode_frozen_examples():
    assert delta4_decode(R(253) / 256, 4) == "1110"
    assert delta4_decode(R(0), 0) == ""
    assert delta4_decode(R(7) / 16, 2) == "01"


def test_decode_rejects_non_image():
    for bad in [R(1) / 2, R(3) / 5, R(9) / 8, R(-1) / 4, R(1) / 8]:
        with pytest.raises(NotInImage):
            delta4_decode(bad, 1)
    # word runs out before the requested depth
    with pytest.raises(NotInImage):
        delta4_decode(delta4("10"), 3)


def test_decode_prefix_of_longer_word():
    # the encoded word may be longer than the requested depth
    assert delta4_decode(delta4("10110"), 2) == "10"


@settings(max_examples=300)
@given(bitwords)
def test_decode_roundtrip(w):
    assert delta4_decode(delta4(w), len(w)) == w


def test_decode_all():
    assert delta4_decode_all(delta4("0110"), 32) == "0110"
    assert delta4_decode_all(R(0), 8) == ""
    with pytest.raises(NotInImage):
        delta4_decode_all(R(1) / 3, 64)   # infinite expansion, never hits 0


# ---------------------------------------------------------------- stack ops

def test_stack_ops_frozen():
    assert stack_top(delta4("1")) == 1
    assert stack_push0(delta4("1")) == R(7) / 16
    assert stack_push0(delta4("1")) == delta4("01")
    assert stack_push1(R(0)) == R(3) / 4
    assert stack_push1(delta4("0")) == delta4("10") == R(13) / 16
    assert stack_pop(delta4("10")) == delta4("0") == R(1) / 4
    assert stack_empty(R(0)) == 0
    assert stack_empty(delta4("0")) == 1


def test_stack_ops_on_empty():
    assert stack_top(R(0)) == 0
    assert stack_pop(R(0)) == 0


@settings(max_examples=200)
@given(bitwords.filter(lambda w: len(w) <= 20))
def test_stack_algebra(w):
    q = delta4(w)
    assert stack_empty(q) == (1 if w else 0)
    for a in "01":
        push = stack_push0 if a == "0" else stack_push1
        assert push(q) == delta4(a + w)
        assert stack_top(delta4(a + w)) == int(a)
        assert stack_pop(delta4(a + w)) == q


@settings(max_examples=200)
@given(bitwords, bitwords)
def test_monotone_prefix_bound(u, v):
    assert abs(delta4(u) - delta4(u + v)) <= R(1) / 4 ** len(u)
    # digits of delta2 reach 2, so its tail bound carries a factor 2
    assert abs(delta2(u) - delta2(u + v)) <= R(2) / 2 ** len(u)


# --------------------------------------------------------------- truncation

def test_trunc_frac_frozen():
    assert trunc_frac(R(7) / 8, 1) == R(1) / 2
    assert trunc_frac(R(-7) / 8, 1) == R(-1) / 2
    assert trunc_frac(R(3) / 4, 2) == R(3) / 4
    assert trunc_frac(R(1) / 3, 4) == R(5) / 16
    assert trunc_frac(R(0), 3) == 0


@settings(max_examples=200)
@given(st.fractions(), st.integers(min_value=1, max_value=60))
def test_trunc_frac_properties(f, bits):
    q = as_rat(f)
    t = trunc_frac(q, bits)
    assert abs(t) <= abs(q)                      # toward zero
    assert abs(q - t) < R(1) / 2 ** bits         # resolution
    assert (t * 2 ** bits).denominator == 1      # representable
    assert trunc_frac(t, bits) == t              # idempotent


# ------------------------------------------------------------------ streams

def test_stream_from_word():
    s = BitStream.from_word("1101")
    assert s.prefix(6) == "110100"
    assert s.value == binary_value("1101")
    t = BitStream.from_word("0", tail_bit=1)
    assert t.prefix(4) == "0111"
    assert t.value == R(1) / 2


def test_stream_periodic():
    s = BitStream.from_periodic("", "10")
    assert s.prefix(6) == "101010"
    assert s.value == R(2) / 3
    t = BitStream.from_periodic("1", "10")
    assert t.prefix(5) == "11010"
    assert t.value == R(5) / 6


def test_stream_from_rational():
    assert BitStream.from_rational(R(2) / 3).prefix(6) == "101010"
    assert BitStream.from_rational(R(3) / 4).prefix(4) == "1100"
    assert BitStream.from_rational(R(1)).prefix(3) == "111"
    assert BitStream.from_rational(R(5) / 6).prefix(5) == "11010"
    assert BitStream.from_rational(R(0)).prefix(3) == "000"
    s = BitStream.from_rational(R(2) / 3)
    assert s.value == R(2) / 3


def test_stream_prng_repeatable():
    a = BitStream.from_prng(99)
    b = BitStream.from_prng(99)
    assert a.prefix(64) == b.prefix(64)
    assert set(a.prefix(64)) <= {"0", "1"}
    assert a.mathematical is False
    assert BitStream.from_rational(R(1) / 2).mathematical is True


def test_stream_prefix_after_mixed_reads_and_negative_lengths():
    s = BitStream.from_periodic("1", "011")
    fresh = BitStream.from_periodic("1", "011")
    want = "".join(str(fresh.bit(i)) for i in range(40))
    for op, n in [("bit", 5), ("prefix", 3), ("prefix", 10), ("bit", 20),
                  ("prefix", 12), ("prefix", 25), ("prefix", 0),
                  ("bit", 33), ("prefix", 40), ("prefix", 21)]:
        if op == "bit":
            assert s.bit(n) == int(want[n])
        else:
            assert s.prefix(n) == want[:n]

    t = BitStream.from_periodic("", "10")
    for read in (None, 7):
        if read is not None:
            t.bit(read)
        with pytest.raises(ValueError, match="negative"):
            t.prefix(-2)
    assert t.prefix(8) == "10101010"


def test_stream_json_roundtrip():
    for s in [
        BitStream.from_word("0110"),
        BitStream.from_word("", tail_bit=1),
        BitStream.from_periodic("1", "10"),
        BitStream.from_rational(R(2) / 3),
        BitStream.from_prng(7),
    ]:
        blob = json.dumps(s.to_json())
        t = BitStream.from_json(json.loads(blob))
        assert t.prefix(40) == s.prefix(40)
        assert t.value == s.value


@pytest.mark.parametrize("q", [R(-1) / 3, R(4) / 3, 2, -1])
def test_stream_from_rational_refuses_values_outside_0_1(q):
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        BitStream.from_rational(q)
