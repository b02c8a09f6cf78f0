"""The interleaving codec against its per-position reference, tolerance zero.

``reference_interleave``, ``reference_recover_prefix`` and
``reference_run`` are the codec as this package ran it before the bound
table: every schedule value re-evaluated on each call, blocks assembled
part by part, separators checked and stripped position by position, and
the decompressor walking its output one position at a time.  They call
the bound only through ``g(i)``, so they share no slicing with the code
under test.  Every comparison demands the same string, or the same
error type and message.  The ``BoundFunction`` tests pin what the table
and the per-length codec layouts may and may not store.
"""

import random
from dataclasses import replace
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactrnn.errors import MalformedInterleaving, PreconditionViolated
from exactrnn.nonuniform import (
    BoundFunction,
    Decompressor,
    check_kfg,
    interleave,
    interleave_decompressor,
    recover_prefix,
)
from exactrnn.words import BitStream, check_bitword
from exactrnn.zoo import (double_bound, identity_bound, log2_bound,
                          sqrt_bound)

N_MAX = 64


# ------------------------------------------------------------ reference


def reference_interleave(r, g, n):
    data = r.prefix(g(n))
    parts = []
    prev = 0
    for i in range(n):
        cut = g(i)
        parts.append(data[prev:cut])
        parts.append("0")
        prev = cut
    parts.append(data[prev:])
    return "".join(parts)


def reference_recover_prefix(s_prefix, g, n):
    check_bitword(s_prefix)
    need = g(n) + n
    if len(s_prefix) < need:
        raise PreconditionViolated(
            f"need {need} interleaved bits to recover {n} blocks, "
            f"got {len(s_prefix)}")
    seps = set()
    for i in range(n):
        p = g(i) + i
        if s_prefix[p] != "0":
            raise MalformedInterleaving(
                f"separator {i} missing at position {p}")
        seps.add(p)
    return "".join(s_prefix[p] for p in range(need) if p not in seps)


def reference_run(g):
    def run(seed, n):
        out = []
        i, j = 0, 0
        next_sep = g(0)
        for pos in range(n):
            if pos == next_sep:
                out.append("0")
                i += 1
                next_sep = g(i) + i
            elif j < len(seed):
                out.append(seed[j])
                j += 1
            else:
                out.append("0")
        return "".join(out), n

    return run


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # both sides must raise alike
        return (type(exc), str(exc))


def twin_bounds(values):
    """Two equal, separately tabled bounds over one list of values."""
    return (BoundFunction("t", values.__getitem__),
            BoundFunction("t", values.__getitem__))


# ------------------------------------------------------------ strategies


@st.composite
def bound_values(draw):
    """Non-decreasing g(0..N_MAX): flat stretches, slow growth, and
    growth past the identity, as with ``double``."""
    top = draw(st.sampled_from([1, 2, 3]))
    steps = draw(st.lists(st.integers(0, top), min_size=N_MAX,
                          max_size=N_MAX))
    values = [draw(st.integers(0, 3))]
    for d in steps:
        values.append(values[-1] + d)
    return values


bit_words = st.text(alphabet="01", max_size=200)


# ------------------------------------------------------------ differential


@settings(max_examples=400, deadline=None)
@given(bound_values(), bit_words, st.integers(0, 1), st.integers(0, N_MAX),
       st.data())
def test_interleave_and_recover_match_reference(values, word, tail, n, data):
    g, g_ref = twin_bounds(values)
    s = interleave(BitStream.from_word(word, tail), g, n)
    assert s == reference_interleave(BitStream.from_word(word, tail), g_ref, n)

    inputs = [s, s + data.draw(bit_words, label="padding")]
    if s:
        inputs.append(s[:data.draw(st.integers(0, len(s) - 1), label="cut")])
        j = data.draw(st.integers(0, len(s) - 1), label="flip")
        inputs.append(s[:j] + ("1" if s[j] == "0" else "0") + s[j + 1:])
    if n:
        i = data.draw(st.integers(0, n - 1), label="separator")
        p = values[i] + i
        inputs.append(s[:p] + "1" + s[p + 1:])
    inputs.append(data.draw(bit_words, label="noise"))
    inputs.append(s + "2")
    for text in inputs:
        assert (outcome(recover_prefix, text, g, n)
                == outcome(reference_recover_prefix, text, g_ref, n))


@settings(max_examples=400, deadline=None)
@given(bound_values(), bit_words, st.integers(0, N_MAX),
       st.integers(0, N_MAX), st.data())
def test_decompressor_matches_reference(values, word, n, n2, data):
    g, g_ref = twin_bounds(values)
    d, ref = interleave_decompressor(g), reference_run(g_ref)
    # n, n2, n: the one-entry layout must be rebuilt when n changes back
    for m in (n, n2, n):
        for seed in (word,
                     word[:data.draw(st.integers(0, len(word)), label="cut")],
                     word + data.draw(bit_words, label="extra")):
            assert d.run(seed, m) == ref(seed, m)
            # the declared window: no bit past reads(m) changes the run
            k = d.reads(m)
            if len(seed) >= k:
                other = seed[:k] + data.draw(bit_words, label="beyond")
                assert d.run(seed, m) == d.run(other, m)


KFG_N = 48


def test_compression_check_matches_reference_decompressor():
    """check_kfg shares one run among the seed lengths past the codec's
    window; the reference declares none, so it runs at every m. The
    inputs make the first failure land below that window's start m0 (an
    f under g has short seeds padded with zeros) and at m0, as a
    mismatch and as a time overrun; an f over g starts past the window.
    Strict mode must raise alike."""
    rng = random.Random(7)
    margin = BoundFunction("margin", lambda n: (n + 2) ** 2)
    tight = BoundFunction("tight", lambda n: n - (n % 7 == 3))
    seen = set()
    for g in (log2_bound(), sqrt_bound(), identity_bound(), double_bound()):
        half = BoundFunction("half", lambda n, g=g: g(n) // 2)
        over = BoundFunction("over", lambda n, g=g: g(n) + 1)
        seed = BitStream.from_word(
            "".join(rng.choice("01") for _ in range(g(KFG_N) + 1)))
        s = interleave(seed, g, KFG_N)
        targets = [s] + [s[:j] + "10"[int(s[j])] + s[j + 1:]
                         for j in rng.sample(range(KFG_N), 3)]
        d = interleave_decompressor(g)
        ref = Decompressor(d.name, reference_run(BoundFunction(g.name, g.fn)))
        for target in targets:
            stream = BitStream.from_word(target)
            for f in (g, half, over):
                for time in (margin, tight):
                    for strict in (False, True):
                        got = outcome(check_kfg, stream, seed, d, f, time,
                                      KFG_N, 1, strict)
                        assert got == outcome(check_kfg, stream, seed, ref,
                                              f, time, KFG_N, 1, strict)
                        if strict:
                            continue
                        for fl in got[1].failures:
                            m0 = max(f(fl.n), g(fl.n))
                            seen.add((fl.kind, fl.m == m0))
    assert seen == {(kind, at) for kind in ("mismatch", "time")
                    for at in (False, True)}


def test_compression_check_runs_the_codec_once_per_length():
    """With f = g every seed length is past the codec's window, so each
    target length costs one run however many seed lengths it covers."""
    rng = random.Random(11)
    margin = BoundFunction("margin", lambda n: (n + 2) ** 2)
    for g, n_max, checks in ((log2_bound(), 64, 3839),
                             (sqrt_bound(), 1024, 1027248)):
        d = interleave_decompressor(g)
        calls = []

        def counted(seed, n, run=d.run):
            calls.append(n)
            return run(seed, n)

        seed = BitStream.from_word(
            "".join(rng.choice("01") for _ in range(g(n_max) + 1)))
        stream = BitStream.from_word(interleave(seed, g, n_max))
        rep = check_kfg(stream, seed, replace(d, run=counted), g, margin,
                        n_max)
        assert rep.ok and rep.checks == checks
        assert calls == list(range(1, n_max + 1))


def test_compression_check_runs_every_seed_short_of_the_window():
    """A copy that pads short seeds with zeros reads exactly n bits, so a
    seed one bit short may pass where every full-length seed fails, and
    the other way round: check_kfg must run each m below reads(n)."""
    pad = Decompressor("pad", lambda seed, n: (seed[:n].ljust(n, "0"), n))
    windowed = replace(pad, reads=lambda n: n)
    half = BoundFunction("half", lambda n: n // 2)
    budget = BoundFunction("budget", lambda n: n)
    rng = random.Random(3)
    for _ in range(40):
        word = "".join(rng.choice("01") for _ in range(24))
        seed = BitStream.from_word(word)
        for j in rng.sample(range(24), rng.randint(0, 2)):
            word = word[:j] + "10"[int(word[j])] + word[j + 1:]
        target = BitStream.from_word(word)
        for strict in (False, True):
            assert (outcome(check_kfg, target, seed, windowed, half, budget,
                            24, 1, strict)
                    == outcome(check_kfg, target, seed, pad, half, budget,
                               24, 1, strict))


def test_negative_block_counts_are_refused():
    g = log2_bound()
    r = BitStream.from_word("1011")
    for call in (lambda: interleave(r, g, -1),
                 lambda: recover_prefix("0101", g, -1),
                 lambda: interleave_decompressor(g).run("1", -1)):
        with pytest.raises(PreconditionViolated, match="block count"):
            call()


# ------------------------------------------------------------ the table


def counting_bound(name, fn):
    calls = []

    def counted(n):
        calls.append(n)
        return fn(n)

    return BoundFunction(name, counted), calls


def test_table_evaluates_each_length_once_in_ascending_order():
    g, calls = counting_bound("id", lambda n: n)
    assert g.table(5) == [0, 1, 2, 3, 4]
    assert g.table(3) == [0, 1, 2]
    assert g(2) == 2 and g.table(7) == list(range(7))
    assert calls == list(range(7))
    assert g(9) == 9 and g(9) == 9
    assert calls == list(range(7)) + [9, 9]
    assert g.table(0) == []
    with pytest.raises(ValueError, match="negative"):
        g.table(-1)


def test_invalid_value_is_never_stored():
    g, _ = counting_bound("bad", lambda n: -1 if n == 3 else n)
    message = "bad(3) = -1, want a length"
    with pytest.raises(ValueError) as first:
        g.table(6)
    assert str(first.value) == message
    assert g._table == [0, 1, 2]
    for call in (lambda: g(3), lambda: g.table(4), lambda: g.table(6)):
        with pytest.raises(ValueError) as again:
            call()
        assert str(again.value) == message
        assert g._table == [0, 1, 2]
    assert g(4) == 4 and g._table == [0, 1, 2]


def test_a_descent_is_refused_before_it_reaches_the_codec():
    g = BoundFunction("dip", [2, 0, 5].__getitem__)
    message = "dip(1) = 0 is below dip(0) = 2"
    for call in (lambda: interleave(BitStream.from_word("11"), g, 1),
                 lambda: recover_prefix("000", g, 1),
                 lambda: interleave_decompressor(g).run("111", 4),
                 lambda: g.table(3)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message
        assert g._table == [2]
    assert g(1) == 0


def test_smallest_invalid_length_is_named():
    g = BoundFunction("holes", lambda n: -1 if n in (2, 5) else n)
    with pytest.raises(ValueError, match=r"holes\(2\)"):
        interleave(BitStream.from_word("1"), g, 6)


def test_table_takes_no_part_in_equality_or_hash():
    fn = lambda n: n // 2  # noqa: E731
    a, b = BoundFunction("half", fn), BoundFunction("half", fn)
    a.table(20)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != BoundFunction("other", fn)


def test_negative_lengths_never_read_the_table():
    g, calls = counting_bound("id", lambda n: n)
    g.table(4)
    with pytest.raises(ValueError, match=r"id\(-1\) = -1"):
        g(-1)
    assert calls == [0, 1, 2, 3, -1]


# ------------------------------------------------------------ the layouts


def assert_codec_matches(g, g_ref, values, word, n):
    """interleave, recover_prefix (on the padded prefix and with one
    separator hit) and a decompressor run on a cut seed, at length n,
    against the references."""
    r = BitStream.from_word(word)
    s = interleave(r, g, n)
    assert s == reference_interleave(BitStream.from_word(word), g_ref, n)
    inputs = [s, s + "1"]
    if n:
        i = n // 2
        p = values[i] + i
        inputs.append(s[:p] + "1" + s[p + 1:])
    for text in inputs:
        assert (outcome(recover_prefix, text, g, n)
                == outcome(reference_recover_prefix, text, g_ref, n))
    seed = word[:n // 2]
    assert (interleave_decompressor(g).run(seed, n)
            == reference_run(g_ref)(seed, n))


@settings(max_examples=150, deadline=None)
@given(bound_values(), bit_words,
       st.lists(st.integers(0, N_MAX), min_size=1, max_size=12))
def test_one_bound_serves_lengths_in_any_order(values, word, lengths):
    """One instance, reused across a shuffled run of lengths with
    repeats and a descending stretch, answers like a fresh reference
    at every step."""
    g, g_ref = twin_bounds(values)
    for n in lengths + sorted(lengths, reverse=True) + lengths:
        assert_codec_matches(g, g_ref, values, word, n)


@pytest.mark.parametrize("values", [
    [0] * 10,                   # no block has data
    [3] * 10,                   # only block 0 has data
    [0, 0, 0, 2, 2, 2, 2, 2, 2, 2],   # only block 3 has data
    [0, 0, 1, 1, 4, 4, 4, 4, 4, 4],   # two blocks have data
], ids=["none", "first", "middle", "two"])
def test_layouts_with_at_most_two_data_blocks(values):
    g, g_ref = twin_bounds(values)
    for n in range(len(values) - 1):
        assert_codec_matches(g, g_ref, values, "1101", n)
        assert_codec_matches(g, g_ref, values, "", n)


@pytest.mark.parametrize("fn, message", [
    ([0, 1, 3, 2, 4, 5].__getitem__, "dip(3) = 2 is below dip(2) = 3"),
    (lambda n: -1 if n == 3 else n, "dip(3) = -1, want a length"),
])
def test_an_invalid_bound_stores_no_layout(fn, message):
    g = BoundFunction("dip", fn)
    values = [fn(n) for n in range(3)]
    r = BitStream.from_word("10110")
    for _ in range(3):
        for call in (lambda: interleave(r, g, 3),
                     lambda: interleave(r, g, 5),
                     lambda: recover_prefix("0" * 20, g, 4),
                     lambda: interleave_decompressor(g).run("1", 8)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message
            assert not g._layouts and g._slices == ([], [])
    assert_codec_matches(g, BoundFunction("ref", fn), values, "10110", 2)


def test_layouts_take_no_part_in_equality_or_hash():
    fn = lambda n: (n + 1).bit_length()  # noqa: E731
    a, b = BoundFunction("bits", fn), BoundFunction("bits", fn)
    for n in (7, 0, 30, 7):
        interleave(BitStream.from_word("1"), a, n)
        recover_prefix(interleave(BitStream.from_word("1"), a, n), a, n)
    assert len(a._layouts) == 3 and not b._layouts
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_only_sparse_lengths_keep_block_slices():
    """A layout keeps slices of the non-empty blocks only where at most
    2 * sqrt(n + 1) blocks hold data; elsewhere it cuts every block from
    the table when called. The answers are the references' either way."""
    values = [0] * 20 + list(range(1, N_MAX - 18))  # data from block 20 on
    g, g_ref = twin_bounds(values)
    for n in list(range(N_MAX)) + [40, 3, 30, 31]:
        assert_codec_matches(g, g_ref, values, "0110100" * 7, n)
    # at n = 30, 11 blocks hold data and 11**2 <= 4 * 31; at 31, 12 do
    sparse = {n for n, lay in g._layouts.items()
              if isinstance(lay.take, itemgetter)}
    assert sorted(g._layouts) == list(range(N_MAX))
    assert sparse == set(range(31))


def test_a_dense_first_block_may_reach_n_alone():
    """Block 0 holds 10 bits, so below length 10 no separator is needed
    before position n; the decompressor still rebuilds the prefix."""
    values = list(range(10, 11 + N_MAX))    # every block has data
    g, g_ref = twin_bounds(values)
    word = "0110100" * 12
    for n in range(4, 12):
        assert_codec_matches(g, g_ref, values, word, n)
        for seed in (word, word[:3], ""):
            assert (interleave_decompressor(g).run(seed, n)
                    == reference_run(g_ref)(seed, n))
    assert not any(isinstance(lay.take, itemgetter)
                   for lay in g._layouts.values())
