"""Exact conditional expectations of symmetric statistics.

Two routes are provided and tested against each other.  The oracle route
conditions by enumerating the posterior law of the unobserved coordinates.
The production route builds the statistic's diagonal conditionals by the
tower property, one predictive step per level, and the expansions rewrite
every other conditional as a rational-coefficient combination of them,
which is where all the structure of the decomposition lives.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm

from .coefficients import _psi_sum, phi_table
from .combinatorics import binomial, integer_numerators
from .errors import ArityMismatch, IndexOutOfRange
from .kernels import SymmetricKernel
from .models import Record, check_horizon


def cond_expectation(model, statistic: SymmetricKernel, common, extra=()) -> Fraction:
    """E[statistic(common + fresh) | common and extra observed].

    ``common`` holds the observed values that are arguments of the
    statistic; ``extra`` holds observed values that are not.  The extra
    block enters only through the posterior update.
    """
    common = tuple(common)
    extra = tuple(extra)
    draws = statistic.arity - len(common)
    if draws < 0:
        raise ArityMismatch("more common values than the statistic has arguments")
    check_horizon(model, statistic.arity + len(extra))
    observed = model.alphabet.canon(common + extra)
    total = Fraction(0)
    for ext, weight in model.extension_law(observed, draws).items():
        if weight == 0:
            continue
        total += weight * statistic.value(common + ext)
    return total


class DiagonalFamily(Record, namedtuple("DiagonalFamily", "model statistic nums dens")):
    """The conditionals of a statistic given q of its own coordinates,
    q = 0 .. arity, tabulated on the model's support multisets.  Level q
    is kept as integer numerators nums[q] = {multiset: N} over one integer
    denominator dens[q]."""

    @cached_property
    def levels(self) -> tuple:
        """levels[q] = {multiset: value}, the exact values of level q."""
        return tuple({ms: Fraction(n, den) for ms, n in level.items()}
                     for level, den in zip(self.nums, self.dens))

    def value(self, labels) -> Fraction:
        """The level-len(labels) conditional at the observed labels; an
        observation of probability zero (off the support) is refused by the
        law primitive."""
        key = self.model.alphabet.canon(labels)
        q = len(key)
        if q > self.statistic.arity:
            raise ArityMismatch(f"diagonal family of arity {self.statistic.arity} "
                                f"evaluated on {q} labels")
        if key not in self.nums[q]:  # off the support: the primitive refuses it
            self.model.extension_law(key, 0)
        return Fraction(self.nums[q][key], self.dens[q])

    @property
    def mean(self) -> Fraction:
        return Fraction(self.nums[0][()], self.dens[0])


def diagonal_family(model, statistic: SymmetricKernel) -> DiagonalFamily:
    """Tabulate all diagonal conditionals of a statistic; cached on the
    model, keyed by the statistic.

    The top level is the statistic on its support, over the least common
    denominator of its values.  Each level below comes from the one above
    by the tower property, E[T | x] = sum_a P(a | x) * E[T | x + a], on
    integers: with P(a | x) = w_a(x) / d(x) the model's size-1 law
    primitive ``_build_size_law(1, x)`` and L the lcm of d(x) over the
    level, N_q(x) = sum_a w_a(x) * (L / d(x)) * N_{q+1}(x + a) and
    D_q = L * D_{q+1}.  Letters of zero weight are skipped (x + a is then
    off the support); the others give support multisets x + a.
    """
    families = model.diagonal_families
    fam = families.get(statistic)
    if fam is None:
        check_horizon(model, statistic.arity)
        labels = model.alphabet.labels
        top = list(model.support_multisets(statistic.arity))
        values, den = integer_numerators(statistic.table[ms] for ms in top)
        above = dict(zip(top, values))
        nums, dens = [above], [den]
        for q in range(statistic.arity - 1, -1, -1):
            steps = {ms: model._build_size_law(1, ms) for ms in model.support_multisets(q)}
            step_den = lcm(*(d for _, d in steps.values()))
            level = {}
            for ms, (weights, d) in steps.items():
                scale = step_den // d
                total = pos = 0
                for label, w in zip(labels, weights):
                    while pos < q and ms[pos] == label:  # insert label in canonical place
                        pos += 1
                    if w:
                        total += w * above[ms[:pos] + (label,) + ms[pos:]]
                level[ms] = total * scale
            above = level
            nums.append(level)
            dens.append(step_den * dens[-1])
        fam = families[statistic] = DiagonalFamily(
            model, statistic, tuple(reversed(nums)), tuple(reversed(dens)))
    return fam


def _expansion(model, statistic: SymmetricKernel, coef, top: int, shared,
               outside) -> Fraction:
    """sum_{p <= top} coef(phi, p) * (the statistic's diagonal family summed
    over shared + each p-subset of outside), where phi is the statistic's
    phi_table at the model's rate.  An observed block of probability zero
    is refused by the law primitive."""
    model.extension_law(shared + outside, 0)
    fam = diagonal_family(model, statistic)
    phi = phi_table(statistic.arity, model.rate)
    total = Fraction(0)
    for p in range(top + 1):
        weight = coef(phi, p)
        if weight == 0:
            continue
        inner = sum(
            (fam.value(shared + pick)
             for pick in itertools.combinations(outside, p)),
            Fraction(0),
        )
        total += weight * inner
    return total


def expand_conditional(model, statistic: SymmetricKernel, common, extra) -> Fraction:
    """Conditional of the statistic given len(common) of its own arguments
    and len(extra) outside values, rebuilt from the diagonal family alone:
    :func:`nested_conditional` with m = arity, which needs
    len(common) + len(extra) <= arity."""
    common = tuple(common)
    extra = tuple(extra)
    if len(common) + len(extra) > statistic.arity:
        raise ArityMismatch("conditioning block larger than the statistic")
    return nested_conditional(model, statistic, statistic.arity, len(common), common + extra)


def nested_conditional(model, statistic: SymmetricKernel, m: int, overlap: int,
                       conditioning) -> Fraction:
    """E[ diag_m(one m-block) | an n-block of observed values ] where the two
    blocks share `overlap` coordinates, for 1 <= m <= M, n <= M and
    0 <= overlap <= min(m, n), M the statistic's arity.  It is a two-block
    polynomial identity in the replacement constant with the coefficients
    phi(n, m, overlap, p), exact for every urn model.

    ``conditioning`` carries the n observed values with the shared ones
    first; by exchangeability only the overlap matters, so this canonical
    layout loses nothing.
    """
    conditioning = tuple(conditioning)
    n = len(conditioning)
    M = statistic.arity
    r = overlap
    if not (1 <= m <= M and n <= M and 0 <= r <= min(m, n)):
        raise IndexOutOfRange(f"bad sizes m={m}, n={n}, M={M}, overlap={r}")
    check_horizon(model, n + m - r)
    return _expansion(model, statistic, lambda phi, p: phi(n, m, r, p), m - r,
                      conditioning[:r], conditioning[r:])


def nested_conditional_at(model, statistic: SymmetricKernel, block, observed_block,
                          values) -> Fraction:
    """Index-tuple form of :func:`nested_conditional`.

    ``block`` is the m-tuple of coordinates the diagonal conditional sits
    on, ``observed_block`` the n-tuple being conditioned on, ``values`` the
    n observed values parallel to ``observed_block``; coordinates lie in
    1..M and each tuple has distinct entries.  Canonicalizes to the overlap
    form.
    """
    block = tuple(block)
    observed_block = tuple(observed_block)
    values = tuple(values)
    if len(values) != len(observed_block):
        raise ArityMismatch(f"{len(values)} values for an observed block of "
                            f"{len(observed_block)} coordinates")
    M = statistic.arity
    for idx in (*block, *observed_block):
        if not (1 <= idx <= M):
            raise IndexOutOfRange(f"coordinate {idx} outside 1..{M}")
    if len(set(block)) != len(block) or len(set(observed_block)) != len(observed_block):
        raise IndexOutOfRange("index tuples must have distinct entries")
    inside = set(block)
    shared = [v for idx, v in zip(observed_block, values) if idx in inside]
    outside = [v for idx, v in zip(observed_block, values) if idx not in inside]
    return nested_conditional(
        model, statistic, len(block), len(shared), tuple(shared) + tuple(outside)
    )


def nested_conditional_sum(model, statistic: SymmetricKernel, m: int,
                           conditioning) -> Fraction:
    """Sum of :func:`nested_conditional` over every m-subset of the horizon,
    for 1 <= m <= M and n <= M, collapsed to the aggregated coefficient
    table."""
    conditioning = tuple(conditioning)
    n = len(conditioning)
    M = statistic.arity
    if not (1 <= m <= M and n <= M):
        raise IndexOutOfRange(f"bad sizes m={m}, n={n}, M={M}")
    return _expansion(model, statistic, lambda phi, q: _psi_sum(M, q, n, m, phi), m,
                      (), conditioning)


def symmetrized_offdiagonal(model, statistic: SymmetricKernel, overlap: int) -> SymmetricKernel:
    """Average the overlap-r conditional of the statistic over all block
    assignments of its n-1 observed values; zero off the model's support."""
    n = statistic.arity
    r = overlap
    if not (0 <= r <= n - 1):
        raise IndexOutOfRange(f"overlap {r} outside 0..{n - 1}")
    check_horizon(model, 2 * n - r - 1)
    alphabet = model.alphabet
    support = set(model.support_multisets(n - 1))
    norm = Fraction(1, binomial(n - 1, r))
    entries = []
    for ms in alphabet.multisets(n - 1):
        if ms not in support:
            entries.append((ms, Fraction(0)))
            continue
        acc = Fraction(0)
        for pick in itertools.combinations(range(n - 1), r):
            chosen = set(pick)
            common = tuple(ms[i] for i in pick)
            extra = tuple(ms[i] for i in range(n - 1) if i not in chosen)
            acc += cond_expectation(model, statistic, common, extra)
        entries.append((ms, norm * acc))
    return SymmetricKernel(n - 1, alphabet, tuple(entries))
