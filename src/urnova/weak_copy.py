"""Tilted copies of Polya-type urn laws that keep all small marginals.

For a model with positive replacement constant, every mixed moment of the
directing measure is an ordered probability of the same urn, so tilting the
law by 1 + scale * (degenerate polynomial of the directing measure) needs
nothing beyond the urn's law: a tilted marginal is read from its law
primitive (``dirichlet_moment`` is the rising-factorial oracle).  Degeneracy
of the tilt kernel makes every marginal of dimension <= k coincide with the
base, while the (k+1)-marginals move.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .combinatorics import permutation_count, prod, rising
from .decomposition import decompose
from .errors import (
    ArityMismatch,
    RequiresPositiveC,
    ValidationError,
    ZeroProjection,
)
from .kernels import SymmetricKernel
from .models import Record, UrnModel, check_horizon


def dirichlet_moment(model: UrnModel, exponents) -> Fraction:
    """Mixed moment E[prod_a D(a)^m_a] of the directing measure of a
    positive-replacement urn: a ratio of rising factorials of the
    normalized weights."""
    if model.rate <= 0:
        raise RequiresPositiveC("directing-measure moments need c > 0")
    ms = model.alphabet.canon(exponents)
    cnt = Counter(ms)
    num = prod(rising(model.alpha_of(label) / model.c, 1, k)[k] for label, k in cnt.items())
    den = rising(model.alpha_total / model.c, 1, len(ms))[len(ms)]
    return num / den


class TiltedModel(Record, namedtuple("TiltedModel", "base level tilt scale eta")):
    """Base law reweighted by 1 + scale * tilt polynomial of the directing
    measure; immutable once built.  Marginals up to length ``level`` match
    the base; ``tilt`` is a completely degenerate kernel of arity
    level + 1; ``eta`` is the requested sup-norm budget for the density
    tilt."""

    @cached_property
    def coefficient_bound(self) -> Fraction:
        """Sum of absolute monomial coefficients of the tilt polynomial;
        every monomial is at most 1 on the simplex, so this certifies the
        sup norm."""
        return sum(
            (permutation_count(ms) * abs(v) for ms, v in self.tilt.entries),
            Fraction(0),
        )

    @property
    def certified_density_bound(self) -> Fraction:
        return self.scale * self.coefficient_bound

    def marginal_pmf(self, seq) -> Fraction:
        """Exact probability of an ordered sequence under the tilted law:
        P(seq) * (1 + scale * E[tilt(next arity draws) | seq]), since the
        moment E[D^seq D^ms] is the probability of seq followed by ms.  The
        next draws may run past the base horizon: with c > 0 the urn's law
        primitive holds for any number of draws."""
        seq = tuple(seq)
        check_horizon(self.base, len(seq))
        if self.scale != 0 and self.base.rate <= 0:
            raise RequiresPositiveC("directing-measure moments need c > 0")
        p = self.base.multiset_weight(seq) / permutation_count(seq)
        if p == 0 or self.scale == 0:
            return p
        table = self.tilt.table
        law = self.base._law(self.tilt.arity, self.base.alphabet.canon(seq))
        return p * (1 + self.scale * sum(w * table[ext] for ext, w in law.items()))


def build_weak_copy(base: UrnModel, level: int, seed_statistic: SymmetricKernel,
                    eta) -> TiltedModel:
    """Tilt the base law with the top extracted kernel of a seed statistic.

    The seed must have arity level + 1; its top-level kernel is completely
    degenerate, which is exactly what keeps the small marginals fixed.  The
    scale is set to half the sup-norm budget divided by the certified
    coefficient bound, so the density stays within eta.
    """
    eta = Fraction(eta)
    if not (0 < eta < 1):
        raise ValidationError("eta must lie in (0, 1)")
    if base.rate <= 0:
        raise RequiresPositiveC("weak copies are built on c > 0 bases")
    arity = level + 1
    if seed_statistic.arity != arity:
        raise ArityMismatch(f"seed statistic must have arity {arity}")
    tilt = decompose(base, seed_statistic, arity).kernels[arity - 1]
    if tilt.is_zero():
        raise ZeroProjection(
            "top-level projection of the seed statistic vanishes; pick another seed"
        )
    unscaled = TiltedModel(base, level, tilt, Fraction(0), eta)
    return TiltedModel(base, level, tilt, eta / (2 * unscaled.coefficient_bound), eta)


class WeakCopyReport(NamedTuple):
    level: int
    checked_length: int
    small_marginals_match: bool
    exchangeable: bool  # true by construction: every ordering reads its multiset
    normalized: bool
    discrepancy: tuple  # (sequence, base pmf, tilted pmf) or () if none
    degenerate_copy: bool  # scale 0 reproduces the base law exactly
    density_bound: Fraction
    density_ok: bool
    marginals: tuple  # (sequence, base pmf, tilted pmf) for every checked sequence

    @property
    def passed(self) -> bool:
        return (
            self.small_marginals_match
            and self.exchangeable
            and self.normalized
            and self.density_ok
            and (self.degenerate_copy or bool(self.discrepancy))
        )


def verify_weak_copy(tilted: TiltedModel) -> WeakCopyReport:
    """Exhaustive exact checks of the tilted law's finite marginals.

    Verifies: marginals of length <= level equal the base; marginal tables
    up to level + 2 (horizon permitting) sum to one; some (level+1)-marginal
    moves unless the scale is zero; the certified density bound stays below
    eta.  Each multiset's base probability is read off the base's size law
    and its tilted one comes from one ``marginal_pmf`` call; every ordering
    shares that pair, so the tables are permutation-invariant by
    construction.  The report keeps every checked sequence's base and
    tilted probability.
    """
    base = tilted.base
    labels = base.alphabet.labels
    k = tilted.level
    top = min(k + 2, base.length)
    small_ok = True
    normalized = True
    discrepancy = ()
    marginals = []
    for length in range(top + 1):
        total = Fraction(0)
        pairs = {}
        for key, weight in base.size_law(length).items():
            count = permutation_count(key)
            base_p, p = pairs[key] = (weight / count, tilted.marginal_pmf(key))
            total += count * p
            if length <= k and p != base_p:
                small_ok = False
        if length and total != 1:
            normalized = False
        for seq in itertools.product(labels, repeat=length):
            pair = pairs[base.alphabet.canon(seq)]
            if length == k + 1 and not discrepancy and pair[0] != pair[1]:
                discrepancy = (seq, *pair)
            marginals.append((seq, *pair))
    return WeakCopyReport(
        level=k,
        checked_length=top,
        small_marginals_match=small_ok,
        exchangeable=True,
        normalized=normalized,
        discrepancy=discrepancy,
        degenerate_copy=(tilted.scale == 0),
        density_bound=tilted.certified_density_bound,
        density_ok=tilted.certified_density_bound < tilted.eta,
        marginals=tuple(marginals),
    )
