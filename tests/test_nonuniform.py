"""Codec, diagonalization, and compressibility-check tests.

Ground truth comes from three independent sources: a position-walking
interleaver (separator schedule evaluated directly, no block slicing),
survivor recounts that refilter the family against the finished
diagonal slice, and hand scans of the sample-length inequality whose
results are frozen below next to the scans that produced them.
"""

import random

import pytest
from hypothesis import given, strategies as st

from exactrnn.errors import (
    BoundViolation,
    MalformedAdvice,
    MalformedInterleaving,
    Mismatch,
    NotASampleLength,
    PreconditionViolated,
    SearchExhausted,
)
from exactrnn.machines import Advice, advice_from_stream, tma_run
from exactrnn.nonuniform import (
    BoundFunction,
    Decompressor,
    LanguageSlice,
    binary_word,
    check_kfg,
    compute_ni_sequence,
    double_bits,
    family_from_text,
    family_to_text,
    halving_diagonal,
    identity_decompressor,
    interleave,
    interleave_decompressor,
    pad_advice,
    prefix_codec_decode,
    prefix_codec_encode,
    recover_prefix,
    slice_to_line,
    unpad_wrapper,
    validate_reasonable,
)
from exactrnn.words import BitStream
from exactrnn.zoo import (
    advice_eater_tma,
    double_bound,
    eater_stream,
    identity_bound,
    log2_bound,
    log2_square_witness,
    sqrt_bound,
    square_poly,
    stream_compare_tma,
)

LOG2 = log2_bound()
SQRT = sqrt_bound()
IDENT = identity_bound()
DOUBLE = double_bound()
ZERO = BoundFunction("zero", lambda n: 0)


def interleave_by_positions(r, g, n):
    """Independent reconstruction: walk every output position and ask
    the separator schedule whether it is separator number i."""
    total = g(n) + n
    sep_at = {g(i) + i: True for i in range(n)}
    out = []
    j = 0
    for pos in range(total):
        if pos in sep_at:
            out.append("0")
        else:
            out.append(r.bit(j) and "1" or "0")
            j += 1
    return "".join(out)


def survivor_counts(family, result, f_n):
    """Recount, from the finished slice, how many distinct family
    members still agree with it after each vote."""
    live = list({frozenset(s.members) for s in family})
    counts = [len(live)]
    for i in range(f_n + 1):
        b = binary_word(i, result.n)
        live = [L for L in live if (b in L) == (b in result.members)]
        counts.append(len(live))
    return counts


def random_stream(rng, bits=96):
    return BitStream.from_word("".join(rng.choice("01") for _ in range(bits)))


# ---------------------------------------------------------------------------
# binary_word, slices, file lines


def test_binary_word_counts_msb_first():
    assert [binary_word(i, 2) for i in range(4)] == ["00", "01", "10", "11"]
    assert binary_word(0, 0) == ""
    assert binary_word(5, 3) == "101"
    with pytest.raises(ValueError):
        binary_word(4, 2)
    with pytest.raises(ValueError):
        binary_word(-1, 2)


def test_language_slice_validates_lengths():
    s = LanguageSlice(3, {"010", "110"})
    assert s.words == ("010", "110")
    with pytest.raises(ValueError):
        LanguageSlice(3, {"01"})
    with pytest.raises(ValueError):
        LanguageSlice(2, {"0x"})


def test_family_text_roundtrip():
    fam = [LanguageSlice(2, {"01", "10"}), LanguageSlice(2, set()),
           LanguageSlice(2, {"11"})]
    text = family_to_text(fam)
    assert text == "01,10\n-\n11\n"
    back = family_from_text("# comment\n\n" + text, 2)
    assert back == fam
    assert slice_to_line(LanguageSlice(1, set())) == "-"


# ---------------------------------------------------------------------------
# Interleaving


def test_interleave_identity_bound_alternates():
    ones = BitStream.from_word("", tail_bit=1)
    assert interleave(ones, IDENT, 3) == "010101"
    assert interleave(ones, IDENT, 5) == "0101010101"


def test_interleave_zero_bound_is_all_separators():
    r = BitStream.from_word("1011")
    assert interleave(r, ZERO, 6) == "000000"
    assert recover_prefix("000000", ZERO, 6) == ""


def test_interleave_matches_position_walk():
    rng = random.Random(71)
    for g in (LOG2, SQRT, IDENT, ZERO):
        for n in (0, 1, 2, 3, 7, 16, 33, 64):
            r = random_stream(rng)
            s = interleave(r, g, n)
            assert len(s) == g(n) + n
            assert s == interleave_by_positions(r, g, n)


def test_recover_inverts_interleave():
    rng = random.Random(72)
    for g in (LOG2, SQRT):
        for n in range(65):
            r = random_stream(rng)
            s = interleave(r, g, n)
            padded = (s + "1" * (2 * n))[:max(2 * n, len(s))]
            assert recover_prefix(s, g, n) == r.prefix(g(n))
            assert recover_prefix(padded, g, n) == r.prefix(g(n))


def test_recover_flags_missing_separator():
    r = BitStream.from_word("111111")
    s = interleave(r, LOG2, 12)
    p = LOG2(4) + 4
    broken = s[:p] + "1" + s[p + 1:]
    with pytest.raises(MalformedInterleaving):
        recover_prefix(broken, LOG2, 12)
    with pytest.raises(PreconditionViolated):
        recover_prefix(s[:5], LOG2, 12)


@given(st.text(alphabet="01", max_size=80), st.integers(0, 48),
       st.sampled_from(["log", "sqrt", "zero", "ident"]))
def test_interleave_roundtrip_property(word, n, gname):
    g = {"log": LOG2, "sqrt": SQRT, "zero": ZERO, "ident": IDENT}[gname]
    r = BitStream.from_word(word)
    s = interleave(r, g, n)
    assert len(s) == g(n) + n
    assert s == interleave_by_positions(r, g, n)
    assert recover_prefix(s, g, n) == r.prefix(g(n))


# ---------------------------------------------------------------------------
# Compressibility checking


def test_check_kfg_identity_clean():
    rng = random.Random(73)
    a = random_stream(rng, 32)
    rep = check_kfg(a, a, identity_decompressor(), IDENT, IDENT, n_max=32)
    assert rep.ok and rep.exceptions == () and rep.threshold == 1
    assert rep.checks == sum(32 - n + 1 for n in range(1, 33))


def test_check_kfg_interleaved_stream_demo():
    rng = random.Random(74)
    r = random_stream(rng, 64)
    s = BitStream.from_word(interleave(r, LOG2, 64))
    poly = BoundFunction("square-plus", lambda n: (n + 2) ** 2)
    rep = check_kfg(s, r, interleave_decompressor(LOG2), LOG2, poly, n_max=64)
    assert rep.ok, rep.lines()
    rep2 = check_kfg(s, r, interleave_decompressor(LOG2), LOG2, poly,
                     n_max=64, strict=True)
    assert rep2.ok


def test_check_kfg_reports_mismatch():
    a = BitStream.from_word("1111", tail_bit=1)
    b = BitStream.from_word("1101", tail_bit=1)
    rep = check_kfg(a, b, identity_decompressor(), IDENT, IDENT, n_max=8)
    assert not rep.ok
    assert rep.failures[0].kind == "mismatch"
    assert rep.exceptions == (3, 4, 5, 6, 7, 8)
    assert rep.threshold == 9
    assert any("fail n=3" in line for line in rep.lines())
    with pytest.raises(Mismatch):
        check_kfg(a, b, identity_decompressor(), IDENT, IDENT, n_max=8,
                  strict=True)


def test_check_kfg_reports_time_overrun():
    a = BitStream.from_word("0110", tail_bit=0)
    slow = Decompressor(name="slow", run=lambda seed, n: (seed[:n], n ** 3))
    rep = check_kfg(a, a, slow, IDENT, IDENT, n_max=6, n_min=2)
    assert not rep.ok and all(f.kind == "time" for f in rep.failures)
    with pytest.raises(BoundViolation):
        check_kfg(a, a, slow, IDENT, IDENT, n_max=6, n_min=2, strict=True)


# ---------------------------------------------------------------------------
# Reasonable-bound validation


def test_log_bound_family_validates():
    rep = validate_reasonable(
        [LOG2], n_max=2048, p_samples=[square_poly()], n_min=16,
        closure_witnesses={("ceil-log2", "square"): log2_square_witness()})
    assert rep.ok, rep.lines()
    assert rep.lines() == ["reasonable range n=16..2048 ok"]


def test_square_fails_sublinearity_at_two():
    rep = validate_reasonable([square_poly()], n_max=64)
    bad = [f for f in rep.failures if f[0] == "sub-linearity"]
    assert bad and bad[0][2] == 2


def test_squared_log_passes_on_its_range():
    f = LOG2
    sq = BoundFunction("sq-log2", lambda n: f(n) * f(n))
    assert validate_reasonable([sq], n_max=4096, n_min=36).ok
    rep = validate_reasonable([sq], n_max=4096, n_min=2)
    bad = [x for x in rep.failures if x[0] == "sub-linearity"]
    assert bad and bad[0][2] == 3


def test_missing_closure_witness_is_flagged():
    rep = validate_reasonable([LOG2], n_max=64, p_samples=[square_poly()],
                              n_min=16)
    assert not rep.ok
    assert any(x[0] == "closure" and "no witness" in x[3] for x in rep.failures)


# ---------------------------------------------------------------------------
# Halving diagonalization


def test_halving_single_empty_language():
    # Hand run: b(0) = 00 splits {emptyset} into 0 containing vs 1 not,
    # so the slice takes 00 and kills the family; b(1) = 01 then ties
    # at 0 vs 0 and stays out.
    out = halving_diagonal([LanguageSlice(2, set())], n=2, f_n=1)
    assert out == LanguageSlice(2, {"00"})


def test_halving_empty_family_is_vacuous():
    out = halving_diagonal([], n=3, f_n=2)
    assert out.members == frozenset()


def test_halving_preconditions():
    fam = [LanguageSlice(2, {w}) for w in ("00", "01", "10", "11")]
    with pytest.raises(PreconditionViolated):
        halving_diagonal(fam, n=2, f_n=1)  # 4 distinct members, cap 2
    with pytest.raises(PreconditionViolated):
        halving_diagonal([], n=2, f_n=4)  # needs 5 candidates, has 4
    with pytest.raises(PreconditionViolated):
        halving_diagonal([LanguageSlice(3, set())], n=2, f_n=1)


def check_escape(family, n, f_n):
    out = halving_diagonal(family, n, f_n)
    pool = {frozenset(s.members) for s in family}
    assert out.members not in pool
    window = {binary_word(i, n) for i in range(f_n + 1)}
    assert out.members <= window
    counts = survivor_counts(family, out, f_n)
    for before, after in zip(counts, counts[1:]):
        assert after <= before // 2
    assert counts[-1] == 0
    return out


def test_halving_exhaustive_window_families_n3():
    from itertools import combinations
    n = 3
    for f_n in (1, 2):
        window = [binary_word(i, n) for i in range(f_n + 1)]
        subsets = []
        for mask in range(1 << len(window)):
            subsets.append(LanguageSlice(
                n, {w for k, w in enumerate(window) if mask >> k & 1}))
        for size in range(2 ** f_n + 1):
            for combo in combinations(subsets, size):
                check_escape(list(combo), n, f_n)


def test_halving_randomized_families():
    rng = random.Random(75)
    for _ in range(200):
        n = rng.randint(3, 10)
        f_n = rng.randint(1, n - 1)
        window = [binary_word(i, n) for i in range(f_n + 1)]
        fam = []
        for _ in range(rng.randint(0, min(2 ** f_n, 32))):
            members = {w for w in window if rng.random() < 0.5}
            members.update(binary_word(rng.randrange(2 ** n), n)
                           for _ in range(2))
            fam.append(LanguageSlice(n, members))
        check_escape(fam, n, f_n)


@given(st.data())
def test_halving_escape_property(data):
    n = data.draw(st.integers(3, 6))
    f_n = data.draw(st.integers(1, min(3, n - 1)))
    window = [binary_word(i, n) for i in range(f_n + 1)]
    fam = data.draw(st.lists(
        st.builds(lambda ws: LanguageSlice(n, ws),
                  st.frozensets(st.sampled_from(window))),
        max_size=2 ** f_n))
    check_escape(fam, n, f_n)


# ---------------------------------------------------------------------------
# Advice padding


def fixed_advice(word):
    return Advice(size=lambda n: len(word), word=lambda n: word)


def test_pad_advice_formula():
    a = fixed_advice("101")
    assert pad_advice(a, lambda n: 6)(4) == "110101"
    assert pad_advice(a, lambda n: 4)(4) == "0101"
    with pytest.raises(PreconditionViolated):
        pad_advice(a, lambda n: 3)(4)


def test_unpad_wrapper_walks_ones_then_hands_over():
    cases = [
        (stream_compare_tma(),
         advice_from_stream(BitStream.from_word("", tail_bit=1), lambda n: n),
         lambda n: n + 3),
        (advice_eater_tma(),
         advice_from_stream(eater_stream(8), lambda n: 8),
         lambda n: 12),
    ]
    words = ["", "0", "1", "11", "10", "0110", "111111", "10101010"]
    for m, a, g in cases:
        wrapped = unpad_wrapper(m)
        padded = pad_advice(a, g)
        for w in words:
            bound = 4 * len(w) + 24
            base = tma_run(m, a, w, bound)
            other = tma_run(wrapped, padded, w, bound + g(len(w)))
            assert other.kind == base.kind, (w, base.kind, other.kind)
            if base.kind != "timeout":
                assert other.tau == base.tau + g(len(w)) - a.size(len(w))


def test_unpad_wrapper_avoids_name_collisions():
    m = stream_compare_tma()
    trans = {("unpad", sym, "*"): (sym, "S", "S", "unpad")
             for sym in ("0", "1", "_")}
    trans.update({(q, a, s): r for (q, a, s), r in m.trans.items()})
    clash = type(m)(trans=trans, initial="unpad")
    wrapped = unpad_wrapper(clash)
    assert wrapped.initial == "unpad_"


# ---------------------------------------------------------------------------
# Sample lengths and the block codec


def test_compute_ni_log_identity_frozen():
    # Hand scan, f = ceil-log2, g = identity. Block i costs
    # 2 (f(n) + 1) bits plus a 2-bit separator once placed.
    #   n0: first n with 2 (f(n) + 1) <= n;  n=7 gives 8 > 7, n=8 fits.
    #   n1: emitted 10; 10 + 2 (f(n) + 1) <= n first at n=22.
    #   n2: emitted 24; first fit n=38.   n3: emitted 40; first fit 54.
    assert compute_ni_sequence(LOG2, IDENT, 4) == (8, 22, 38, 54)


def test_compute_ni_log_double_frozen():
    # Same scan against g(n) = 2n: emitted runs 0, 4, 14, 26 and the
    # fits land at 1, 6, 12, 19.
    assert compute_ni_sequence(LOG2, DOUBLE, 4) == (1, 6, 12, 19)


def test_compute_ni_minimality_witnesses():
    for f, g in ((LOG2, IDENT), (LOG2, DOUBLE), (SQRT, DOUBLE)):
        seq = compute_ni_sequence(f, g, 4)
        emitted = 0
        prev = -1
        for n_i in seq:
            assert emitted + 2 * (f(n_i) + 1) <= g(n_i)
            for n in range(prev + 1, n_i):
                assert emitted + 2 * (f(n) + 1) > g(n), (f.name, g.name, n)
            emitted += 2 * (f(n_i) + 1) + 2
            prev = n_i


def test_compute_ni_exhausts_on_flat_bound():
    with pytest.raises(SearchExhausted):
        compute_ni_sequence(LOG2, BoundFunction("one", lambda n: 1), 1,
                            cap=500)


def test_double_bits_frozen():
    assert double_bits("10") == "1100"
    assert double_bits("") == ""
    assert double_bits("0110") == "00111100"


def test_codec_single_slice_example():
    # f = ceil-log2, g = n^2 puts the first sample at n=2 with window
    # {00, 01}; the slice {00} codes as the doubled word 1100, which
    # already fills g(2) = 4, and the next sample length is 4.
    adv = prefix_codec_encode([LanguageSlice(2, {"00"})], LOG2, square_poly())
    assert adv.sample_lengths == (2,)
    assert adv.core(2) == "1100"
    assert adv.padded(2) == "1100"
    assert prefix_codec_decode(adv.padded(2), 2) == LanguageSlice(2, {"00"})
    assert adv.core(3) == "110001"
    assert adv.padded(3) == "110001" + "101"
    with pytest.raises(NotASampleLength):
        prefix_codec_decode(adv.padded(3), 3)


def codec_fixture(seed=76):
    rng = random.Random(seed)
    slices = []
    for n in compute_ni_sequence(LOG2, DOUBLE, 4):
        window = [binary_word(j, n) for j in range(LOG2(n) + 1)]
        slices.append(LanguageSlice(n, {w for w in window
                                        if rng.random() < 0.5}))
    return slices, prefix_codec_encode(slices, LOG2, DOUBLE)


def test_codec_roundtrip_and_padding():
    slices, adv = codec_fixture()
    samples = dict(zip(adv.sample_lengths, slices))
    assert adv.sample_lengths == (1, 6, 12, 19)
    assert adv.valid_to == 25  # next sample would land at 26
    for n in range(adv.valid_to + 1):
        word = adv.padded(n)
        assert len(word) == DOUBLE(n)
        if n in samples:
            assert prefix_codec_decode(word, n) == samples[n]
            assert prefix_codec_decode(adv.core(n), n) == samples[n]
        else:
            with pytest.raises(NotASampleLength):
                prefix_codec_decode(word, n)
    with pytest.raises(ValueError):
        adv.padded(adv.valid_to + 1)


def test_codec_cores_form_prefix_chain():
    _, adv = codec_fixture()
    for n in range(1, adv.valid_to + 1):
        assert adv.core(n).startswith(adv.core(n - 1))
    assert adv.advice(12) == adv.padded(12)


def test_codec_odd_bound_uses_half_filler():
    odd = BoundFunction("double-plus3", lambda n: 2 * n + 3)
    seq = compute_ni_sequence(LOG2, odd, 2)
    assert seq == (0, 4)
    s0 = LanguageSlice(0, {""})
    s1 = LanguageSlice(4, {"0000", "0010"})
    adv = prefix_codec_encode([s0, s1], LOG2, odd)
    for n in range(adv.valid_to + 1):
        word = adv.padded(n)
        assert len(word) == odd(n)
        if n in seq:
            assert prefix_codec_decode(word, n) == (s0 if n == 0 else s1)
        else:
            with pytest.raises(NotASampleLength):
                prefix_codec_decode(word, n)
    assert adv.padded(0) == "11" + "1"
    with pytest.raises(MalformedAdvice):
        prefix_codec_decode(adv.padded(1)[:-1] + "0", 1)


def test_codec_encode_preconditions():
    with pytest.raises(PreconditionViolated):
        prefix_codec_encode([LanguageSlice(3, set())], LOG2, DOUBLE)
    with pytest.raises(PreconditionViolated):
        prefix_codec_encode([LanguageSlice(1, {"1"})], LOG2, DOUBLE)


def test_codec_tight_bound_cannot_fit_separator():
    # With g = identity the first block exactly fills g(8) = 8; one
    # length later the trailing separator has nowhere to live.
    adv = prefix_codec_encode(
        [LanguageSlice(8, {binary_word(0, 8)})], LOG2, IDENT)
    assert len(adv.padded(8)) == 8
    with pytest.raises(PreconditionViolated):
        adv.padded(9)


def test_decode_rejects_malformed_words():
    with pytest.raises(MalformedAdvice):
        prefix_codec_decode("111011", 2)  # filler inside the code region
    with pytest.raises(MalformedAdvice):
        prefix_codec_decode("110", 2)  # odd length ending in 0
    with pytest.raises(MalformedAdvice):
        prefix_codec_decode(double_bits("111"), 1)  # 3 flags, 2 words
    with pytest.raises(NotASampleLength):
        prefix_codec_decode("", 5)
    with pytest.raises(NotASampleLength):
        prefix_codec_decode("1010", 5)  # filler only


@given(st.data())
def test_codec_roundtrip_property(data):
    lengths = compute_ni_sequence(LOG2, DOUBLE, 3)
    slices = []
    for n in lengths:
        window = [binary_word(j, n) for j in range(LOG2(n) + 1)]
        slices.append(LanguageSlice(
            n, data.draw(st.frozensets(st.sampled_from(window)))))
    adv = prefix_codec_encode(slices, LOG2, DOUBLE)
    for s, n in zip(slices, lengths):
        assert prefix_codec_decode(adv.padded(n), n) == s


UNTAGGED = BoundFunction("untagged-log2", LOG2.fn, poly_computable=False)


@pytest.mark.parametrize("dominators, detail", [
    ({}, "no polynomial-computable dominator supplied"),
    ({"untagged-log2": BoundFunction("untagged-id", IDENT.fn,
                                     poly_computable=False)},
     "untagged-id not tagged polynomial-computable"),
])
def test_validate_reasonable_reports_a_missing_dominator(dominators, detail):
    rep = validate_reasonable([UNTAGGED], n_max=64, n_min=4,
                              dominators=dominators)
    assert not rep.ok
    assert rep.failures == (("dominance", "untagged-log2", 4, detail),)
    assert rep.lines() == [
        "reasonable range n=4..64 failures=1",
        f"fail dominance untagged-log2 n=4: {detail}"]


@pytest.mark.parametrize("cap, valid_to", [(4, 4), (5, 5), (6, 5)])
def test_codec_serves_up_to_cap_without_a_next_sample_length(cap, valid_to):
    # the sample lengths of (ceil-log2, double) are 1, 6, 12, ...; below
    # cap 6 no second one exists, so the advice serves through cap
    adv = prefix_codec_encode([LanguageSlice(1, {"0"})], LOG2, DOUBLE,
                              cap=cap)
    assert adv.sample_lengths == (1,)
    assert adv.valid_to == valid_to
