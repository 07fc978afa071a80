"""Small exact combinatorics helpers shared across the package.

Everything returns ints or ``fractions.Fraction``; nothing here floats.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import comb, factorial, lcm, perm


def binomial(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


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


def integer_numerators(values) -> tuple:
    """Rationals as integer numerators over their least common denominator."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def up(table, keys) -> dict:
    """The raising operator (U g)(x) = sum_a n_a(x) * g(x - a), the sum of g
    over x minus one position, at each canonical multiset x in `keys`.
    (U^j g)(x) is j! times the sum of g over the subsets of x's positions
    with j fewer elements."""
    out = {}
    for x in keys:
        total = i = 0
        while i < len(x):  # one term per run of equal labels, times its length
            n = x.count(x[i])
            total += n * table[x[:i] + x[i + 1:]]
            i += n
        out[x] = total
    return out


def subset_sums(tables, keys, size) -> tuple:
    """sum_a (sum of tables[a] over the a-subsets of x's positions) at each
    x in keys(size), as ({x: H(x)}, L) with the sum H(x) / L, by Horner's
    scheme: H_lo = tables[lo], H_k = U H_{k-1} + perm(size-lo, k-lo) *
    tables[k] on keys(k), L = (size-lo)!.  keys must be closed under
    removing a label; no tables give ({}, 1)."""
    lo = min(tables, default=size)
    sums = tables.get(lo, {})
    for k in range(lo + 1, size + 1):
        sums = up(sums, keys(k))
        weight = perm(size - lo, k - lo)
        for x, v in tables.get(k, {}).items():
            sums[x] += weight * v
    return sums, factorial(size - lo)
