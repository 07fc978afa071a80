"""Exact null spaces of rational matrices by fraction-free elimination.

Each row is scaled to integers by the lcm of its denominators and reduced on
integers (row_i = p*row_i - f*row_r, then divided by its gcd), so no gcd of a
rational runs inside the elimination; a ``Fraction`` is built only for the
basis entries.  The reduced form is the RREF up to row scaling, so the basis
is the one Gauss-Jordan elimination over the rationals gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .combinatorics import integer_numerators


def nullspace(matrix, ncols=None):
    """Basis of the right null space, one vector per free column.

    Each basis vector has a 1 in its free coordinate and is scaled so that
    its first nonzero coordinate is 1; the list follows free-column order,
    which is deterministic for a deterministic column ordering.
    """
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows = []
    for row in matrix:
        ints = integer_numerators(row)[0]
        if any(ints):
            rows.append(ints)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                row = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = Fraction(-row[f], row[p])
        lead = next(x for x in v if x != 0)
        basis.append([x / lead for x in v])
    return basis
