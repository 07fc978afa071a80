"""Exact null spaces of integer matrices by fraction-free elimination.

Rows are reduced on integers (row_i = p*row_i - f*row_r, then divided by its
gcd), so no rational arithmetic runs.  The reduced form is the RREF up to
row scaling, so each basis vector is the Gauss-Jordan one up to scaling.
"""

from __future__ import annotations

from math import gcd, lcm


def nullspace(matrix, ncols):
    """Basis of the right null space of integer rows, one vector per free
    column, in free-column order (deterministic for a deterministic column
    ordering).

    The vector of free column f is the Gauss-Jordan one (1 at f and
    -row[f]/row[p] at each pivot p) as a primitive integer vector with a
    positive first nonzero entry; that entry is the least common
    denominator of the Gauss-Jordan vector scaled to lead with 1.
    """
    rows = [row for row in matrix if any(row)]
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
    scale = lcm(*(row[p] for row, p in zip(rows, pivots)))
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = scale
        for row, p in zip(rows, pivots):
            v[p] = -row[f] * scale // row[p]
        g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
        basis.append([x // g for x in v])
    return basis
