"""Shared test utilities: seeded random kernels, a grid of models covering
every replacement regime, independent projection oracles (Gram matrix,
i.i.d. inclusion-exclusion) used to cross-check the decomposition, an
i.i.d. enumeration of the maximum, a rational RREF for the null spaces,
the sub-multiset enumerator for sums over positions-subsets, a step-by-step
reference for the sampling stream, a hypothesis strategy of numeric urn
models over every replacement regime, and a reference CSV renderer."""

import csv
import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, groupby
from math import ceil, comb

from hypothesis import assume
from hypothesis import strategies as st
from urnova import (
    constant_kernel,
    degenerate_basis,
    expectation,
    from_table,
    indicator_kernel,
    urn_model,
    ustatistic,
)
from urnova.combinatorics import permutation_count, prod
from urnova.report import format_decimal

LABELED = [("u", 0), ("v", 1), ("w", 2), ("x", 3)]


def random_kernel(rng, alphabet, arity, span=9):
    return from_table(
        alphabet,
        arity,
        {ms: F(rng.randint(-span, span), rng.randint(1, span))
         for ms in alphabet.multisets(arity)},
    )


def random_centered(rng, model, arity):
    k = random_kernel(rng, model.alphabet, arity)
    return k.shift(-expectation(model, k))


def random_degenerate(rng, model, arity, tries=20):
    """Random nonzero element of the degenerate class at this arity."""
    basis = degenerate_basis(model, arity)
    for _ in range(tries):
        combo = None
        for b in basis:
            piece = b.scale(F(rng.randint(-4, 4), rng.randint(1, 4)))
            combo = piece if combo is None else combo + piece
        if combo is not None and not combo.is_zero():
            return combo
    raise AssertionError("could not draw a nonzero degenerate kernel")


def model_grid(size, length):
    """One model per replacement regime over a `size`-letter alphabet."""
    symbols = LABELED[:size]
    labels = [s for s, _ in symbols]
    wor_each = -(-2 * length // size)  # enough copies for double extendibility
    return [
        urn_model(symbols, {l: i + 1 for i, l in enumerate(labels)}, F(1), length),
        urn_model(symbols, {l: F(i + 1, 2) for i, l in enumerate(labels)}, F(0), length),
        urn_model(symbols, {l: wor_each for l in labels}, F(-1), length),
        urn_model(symbols, {l: F(2 * i + 1, 3) for i, l in enumerate(labels)}, F(1, 3), length),
    ]


@st.composite
def urn_models(draw, max_length=4):
    """An urn over one to three letters with integer values, from one
    regime: c > 0, c = 0, c = -1 or c = -1/2.  Weights may be zero, so
    observations of probability zero occur."""
    regime = draw(st.sampled_from(["polya", "iid", "wor", "frac"]))
    symbols = [(label, draw(st.integers(-2, 3))) for label in "abc"[:draw(st.integers(1, 3))]]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(symbols), max_size=len(symbols)))
    assume(any(weights))
    c = {"polya": F(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
         "iid": F(0), "wor": F(-1), "frac": F(-1, 2)}[regime]
    den = 2 if regime in ("polya", "frac") else 1
    alpha = {label: F(w, den) for (label, _), w in zip(symbols, weights)}
    if c < 0:  # the predictive denominator must stay positive across the horizon
        max_length = min(max_length, ceil(sum(alpha.values()) / -c))
    return urn_model(symbols, alpha, c, draw(st.integers(1, max_length)))


def values_agree(model, left, right, size):
    """Pointwise equality on the support (the a.s. notion of equality)."""
    return all(left.value(ms) == right.value(ms) for ms in model.support_multisets(size))


# -- independent oracles -------------------------------------------------------

def rref(matrix):
    """Reduced row-echelon form over the rationals. Returns (rows, pivot_columns)."""
    rows = [[F(x) for x in row] for row in matrix]
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


def rref_nullspace(matrix, ncols):
    """Null-space basis read off the rational RREF: one vector per free
    column, scaled so its first nonzero coordinate is 1."""
    rows, pivots = rref(matrix or [[F(0)] * ncols])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        lead = next(x for x in v if x != 0)
        basis.append([x / lead for x in v])
    return basis


def solve_consistent(matrix, rhs):
    """One solution of A x = b for a consistent (possibly singular) system.

    Free variables are set to 0. Raises ValueError if inconsistent.
    """
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0])
    rows, pivots = rref(aug)
    if ncols in pivots:
        raise ValueError("inconsistent linear system")
    x = [F(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][ncols]
    return x


def gram_projection(model, statistic, level):
    """Projection of an arity-M statistic onto the span of U-statistics with
    arity-`level` kernels, by exact normal equations on the Gram matrix.
    Level 0 projects onto constants."""
    size = statistic.arity
    weights = {ms: model.multiset_weight(ms) for ms in model.alphabet.multisets(size)}

    def inner(f, g):
        return sum(
            (w * f.value(ms) * g.value(ms) for ms, w in weights.items() if w),
            F(0),
        )

    if level == 0:
        return constant_kernel(model.alphabet, size, expectation(model, statistic))
    basis = [
        ustatistic(indicator_kernel(model.alphabet, ms), size)
        for ms in model.alphabet.multisets(level)
    ]
    basis.append(constant_kernel(model.alphabet, size, 1))
    gram = [[inner(u, v) for v in basis] for u in basis]
    rhs = [inner(u, statistic) for u in basis]
    coeffs = solve_consistent(gram, rhs)
    out = constant_kernel(model.alphabet, size, 0)
    for coef, u in zip(coeffs, basis):
        if coef:
            out = out + u.scale(coef)
    return out


def gram_level(model, statistic, level):
    """Orthogonal layer: projection onto span(level) minus span(level - 1)."""
    hi = gram_projection(model, statistic, level)
    lo = gram_projection(model, statistic, level - 1)
    return hi - lo


def iid_level_kernels(model, statistic):
    """Classical inclusion-exclusion kernels for an i.i.d. model (c = 0),
    written directly against product weights -- independent of the package's
    conditional machinery."""
    assert model.c == 0
    size = statistic.arity
    marginal = {label: model.alpha_of(label) / model.alpha_total
                for label in model.alphabet.labels}

    def fill_in(fixed, free):
        total = F(0)
        for ms in model.alphabet.multisets(free):
            w = permutation_count(ms) * prod(marginal[l] for l in ms)
            total += w * statistic.value(tuple(fixed) + ms)
        return total

    g = [
        {ms: fill_in(ms, size - a) for ms in model.alphabet.multisets(a)}
        for a in range(size + 1)
    ]
    kernels = []
    for s in range(1, size + 1):
        entries = []
        for ms in model.alphabet.multisets(s):
            value = F(0)
            for a in range(s + 1):
                sign = (-1) ** (s - a)
                for pick in combinations(range(s), a):
                    value += sign * g[a][model.alphabet.canon(ms[i] for i in pick)]
            entries.append((ms, value))
        kernels.append(from_table(model.alphabet, s, dict(entries)))
    return kernels


def iid_max_integral(model, free, fixed_values):
    """Integral of max(x_1..x_free, fixed...) against the product of the
    normalized weights alpha_a/alpha(A), which is the law of free draws
    only when c = 0."""
    alphabet = model.alphabet
    total = F(0)
    for ms in alphabet.multisets(free):
        weight = prod(model.alpha_of(label) / model.alpha_total for label in ms)
        if weight == 0:
            continue
        weight *= permutation_count(ms)
        values = [alphabet.value(label) for label in ms]
        total += weight * max(list(fixed_values) + values)
    return total


def sub_multisets(ms, k, top=None):
    """Each distinct sub-multiset of a canonical multiset with k to top
    labels (top defaults to k), with the number of subsets of positions that
    select it: prod_a binomial(n_a, k_a).  Sub-multisets come out canonical
    too."""
    top = k if top is None else top
    picks = [((), 1)]
    room = len(ms)  # positions after the current run of equal labels
    for label, run in groupby(ms):
        n = len(tuple(run))
        room -= n
        picks = [
            (sub + (label,) * j, mult * comb(n, j))
            for sub, mult in picks
            for j in range(max(0, k - len(sub) - room), min(n, top - len(sub)) + 1)
        ]
    return picks if 0 <= k <= len(ms) else []


def sub_multiset_sum(table, ms, k):
    """Sum of table[sub] over every k-subset of the positions of ms, one
    lookup per distinct sub-multiset."""
    return sum((mult * table[sub] for sub, mult in sub_multisets(ms, k)), F(0))


def sample_reference(model, n, seed):
    """The `mt19937-cdf64` stream in Fractions, one predictive step at a
    time: each draw takes 64 random bits u from random.Random(seed) and picks
    the first label, among those with positive predictive mass
    (alpha_a + c n_a) / (alpha + c t), whose cumulative mass exceeds u / 2**64."""
    rng = random.Random(seed)
    seen = Counter()
    out = []
    for t in range(n):
        u = F(rng.getrandbits(64), 2**64)
        cum = F(0)
        for label in model.alphabet.labels:
            p = (model.alpha_of(label) + model.c * seen[label]) / (model.alpha_total + model.c * t)
            cum += p
            if p and u < cum:
                break
        seen[label] += 1
        out.append(label)
    return tuple(out)


def reference_sort_key(report, row):
    """The row key of ``Report`` before each cell had a two-element key."""
    key = []
    for col in report.columns:
        v = row.get(col, "")
        if isinstance(v, (int, F)) and not isinstance(v, bool):
            key.append((0, v, ""))
        else:
            key.append((1, 0, str(v)))
    return tuple(key)


def reference_render(report, stream):
    """``Report.render`` before it chose the rational columns once per
    report, with ``format_rational`` inlined as ``str(F(v))``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["#meta"] + [f"{k}={v}" for k, v in report.meta.items()])
    header = []
    for col in report.columns:
        header.append(col)
        if col in report.rational_columns:
            header.append(f"{col}_decimal")
    writer.writerow(header)
    for row in sorted(report.rows, key=lambda row: reference_sort_key(report, row)):
        out = []
        for col in report.columns:
            v = row.get(col, "")
            if col in report.rational_columns and isinstance(v, F):
                out.append(str(F(v)))
                out.append(format_decimal(v))
            elif col in report.rational_columns:
                out.append("" if v == "" else str(v))
                out.append("")
            else:
                out.append(str(v))
        writer.writerow(out)
