"""Small exact combinatorics helpers shared across the package.

Everything returns ints or ``fractions.Fraction``; nothing here floats.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def star_binomial(a: int, b: int) -> int:
    """Binomial coefficient gated to 0 whenever a < b (or b < 0)."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def falling(a: int, p: int) -> int:
    """a * (a-1) * ... * (a-p+1); empty product for p = 0."""
    out = 1
    for t in range(p):
        out *= a - t
    return out


def rising(x: int, step: int, n: int) -> list:
    """Partial products [1, x, x(x+step), ...] up to n factors."""
    out = [1]
    for j in range(n):
        out.append(out[-1] * (x + j * step))
    return out


def prod(items) -> Fraction:
    out = Fraction(1)
    for x in items:
        out *= x
    return out


def multisets(labels, size: int):
    """All multisets of `size` labels as sorted tuples, in canonical order.

    `labels` must already be in canonical (alphabet) order; the output then
    enumerates deterministically.
    """
    return itertools.combinations_with_replacement(tuple(labels), size)


def permutation_count(ms) -> int:
    """Number of distinct orderings of a multiset (multinomial coefficient)."""
    n = len(ms)
    out = factorial(n)
    for c in Counter(ms).values():
        out //= factorial(c)
    return out


def sub_multisets(ms, k: int, top: int = None) -> list:
    """Each distinct sub-multiset of a canonical multiset with k to top
    labels (top defaults to k), with the number of subsets of positions that
    select it: prod_a binomial(n_a, k_a).  Sub-multisets come out canonical
    too."""
    top = k if top is None else top
    picks = [((), 1)]
    room = len(ms)  # positions after the current run of equal labels
    for label, run in itertools.groupby(ms):
        n = len(tuple(run))
        room -= n
        picks = [
            (sub + (label,) * j, mult * comb(n, j))
            for sub, mult in picks
            for j in range(max(0, k - len(sub) - room), min(n, top - len(sub)) + 1)
        ]
    return picks if 0 <= k <= len(ms) else []


def sub_multiset_sum(table, ms, k: int) -> Fraction:
    """Sum of table[sub] over every k-subset of the positions of ms, one
    lookup per distinct sub-multiset (the plain sum over k-subsets of
    positions adds binomial(len(ms), k) terms)."""
    return sum((mult * table[sub] for sub, mult in sub_multisets(ms, k)), Fraction(0))


def elementary_symmetric(top: int, k: int) -> int:
    """e_k(1, 2, ..., top); e_0 = 1, zero when k > top."""
    if k < 0 or k > max(top, 0):
        return 0
    # DP over prefix {1..j}
    e = [1] + [0] * k
    for j in range(1, top + 1):
        for d in range(min(j, k), 0, -1):
            e[d] += j * e[d - 1]
    return e[k]
