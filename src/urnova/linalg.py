"""Exact linear algebra over rationals: RREF and null spaces.

Matrices are lists of lists of Fraction; rows are copied before elimination.
"""

from __future__ import annotations

from fractions import Fraction


def rref(matrix):
    """Reduced row-echelon form. Returns (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][col]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(matrix, ncols=None):
    """Basis of the right null space, one vector per free column.

    Each basis vector has a 1 in its free coordinate and is scaled so that
    its first nonzero coordinate is 1; the list follows free-column order,
    which is deterministic for a deterministic column ordering.
    """
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    if not matrix:
        matrix = [[Fraction(0)] * ncols]
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        lead = next(x for x in v if x != 0)
        basis.append([x / lead for x in v])
    return basis

