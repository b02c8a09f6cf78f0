"""Oracles the benchmark checks every op against.

Each one is written here from the definition of the language, the
timing law or the sampling construction, not taken from the library,
so a wrong library answer cannot also be the expected one.  Every
comparison is exact: integers, words and rationals, tolerance zero.
"""

import math
import random
from fractions import Fraction


class OpFailed(Exception):
    """An op's output disagreed with its oracle."""


def expect(cond, what):
    if not cond:
        raise OpFailed(what)


def parity(w):
    """Even number of ones."""
    return w.count("1") % 2 == 0


def dyck(w):
    """Balanced brackets with 0 opening and 1 closing."""
    depth = 0
    for ch in w:
        depth += 1 if ch == "0" else -1
        if depth < 0:
            return False
    return depth == 0


def kind(accepted):
    return "accept" if accepted else "reject"


def compiled_tau(n, s):
    """Decision step of a compiled network on n input bits when the
    source machine takes s steps."""
    return 6 * n + 5 * s + 6


def stream_match(stream_prefix, w):
    """Stream-compare language: w equals the advice stream's first |w|
    bits."""
    return stream_prefix[:len(w)] == w


def majority3(coins):
    """Majority-of-3 net: accept when two of the first three coins are 1."""
    return sum(coins[:3]) >= 2


def mc_pattern(seed, expansion, tau):
    """Coins of one Monte Carlo pattern: per step, fair bits against the
    coin probability's binary expansion, first difference decides."""
    rng = random.Random(seed * 2 ** 64)
    coins = []
    for _ in range(tau):
        i = 0
        while True:
            b = rng.getrandbits(1)
            s = int(expansion[i])
            if b != s:
                coins.append(1 if b < s else 0)
                break
            i += 1
    return coins


def ceil_log2(x):
    return (x - 1).bit_length()


def algo4_sizes(p, f):
    """Sample count k = ceil(10 p (1-p) f^2) and the least pair budget K
    with (p^2 + (1-p)^2)^K <= 1/(16 f)."""
    p = Fraction(p)
    k = math.ceil(10 * p * (1 - p) * f * f)
    stick = p * p + (1 - p) * (1 - p)
    budget = 1
    while stick ** budget > Fraction(1, 16 * f):
        budget += 1
    return k, budget


def within_budget(count, trials, budget):
    """Empirical rate at or below the design budget, compared exactly."""
    return Fraction(count, trials) <= budget
