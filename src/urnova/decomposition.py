"""Orthogonal decomposition of symmetric urn statistics into degenerate
U-statistic layers, plus the covariance identities the layers satisfy.

A centered statistic T of the first M draws splits as a sum over levels
s = 1..M of U-statistics with completely degenerate kernels; both the level
projections and the extracted kernels are rational-coefficient combinations
of T's diagonal conditionals, with coefficients from the theta recursion.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .coefficients import (
    gamma_coeff,
    level_weight,
    pair_covariance_factor,
    theta_table,
)
from .combinatorics import binomial, integer_numerators, subset_sums
from .conditional import diagonal_family
from .errors import (
    ArityMismatch,
    DegeneracyViolated,
    IndexOutOfRange,
    ValidationError,
    ZeroDenominator,
)
from .kernels import SymmetricKernel, expectation, ustatistic
from .models import Record, check_horizon


class HoeffdingDecomposition(
        Record, namedtuple("HoeffdingDecomposition", "model statistic horizon mean kernels")):
    """Mean plus one completely degenerate kernel per level; kernels[s-1]
    has arity s."""

    def reconstruction_value(self, labels) -> Fraction:
        """mean + sum over levels and index subsets; equals the statistic."""
        x = self.model.alphabet.canon(labels)
        if len(x) != self.horizon:
            raise ArityMismatch(f"need {self.horizon} labels")
        return self.mean + self._level_sums[x]

    @cached_property
    def _level_sums(self) -> dict:
        """{x: sum_s of kernel s over the s-subsets of x's positions}."""
        sums, lead = subset_sums({s: k.table for s, k in enumerate(self.kernels, start=1)},
                                 self.model.alphabet.multisets, self.horizon)
        return {x: v / lead for x, v in sums.items()}


def _centered_family(model, statistic):
    """The statistic's diagonal family; its mean must already be zero."""
    fam = diagonal_family(model, statistic)
    if fam.mean != 0:
        raise ValidationError("statistic must be centered (subtract its mean)")
    return fam


def _combine_levels(model, fam, coefs: dict, size: int) -> SymmetricKernel:
    """Kernel of the given size: zero off the model's support, and on it
    sum_a coefs[a] * (sum of level a of the family over the size-a
    sub-multisets).  With coefs[a] / dens[a] = K_a / Q over one denominator
    Q, the sums run on the integers K_a * N_a by Horner's scheme in the
    raising operator, over support multisets only (the support is closed
    under taking sub-multisets), and each value is a single Fraction."""
    keys = [a for a, coef in coefs.items() if coef]
    K, Q = integer_numerators(Fraction(coefs[a]) / fam.dens[a] for a in keys)
    tables = {a: {ms: k * n for ms, n in fam.nums[a].items()} for a, k in zip(keys, K)}
    sums, lead = subset_sums(tables, model.support_multisets, size)
    return SymmetricKernel.tabulate(model.alphabet, size,
                                    lambda ms: Fraction(sums.get(ms, 0), lead * Q))


def _level_inputs(model, statistic: SymmetricKernel, horizon: int, s: int):
    """Checked arguments of a level-s projection: the centered statistic's
    diagonal family and the horizon's coefficient table."""
    if statistic.arity != horizon:
        raise ArityMismatch("statistic arity must equal the horizon")
    if not (1 <= s <= horizon):
        raise IndexOutOfRange(f"level {s} outside 1..{horizon}")
    check_horizon(model, horizon)
    fam = _centered_family(model, statistic)
    return fam, theta_table(horizon, model.rate)


def project_level(model, statistic: SymmetricKernel, horizon: int, s: int) -> SymmetricKernel:
    """Level-s component of a centered statistic, as a statistic of all
    `horizon` coordinates, built directly from the theta coefficients."""
    fam, table = _level_inputs(model, statistic, horizon, s)
    coefs = {a: table.theta[(s, a)] for a in range(1, s + 1)}
    return _combine_levels(model, fam, coefs, horizon)


def extract_kernel(model, statistic: SymmetricKernel, horizon: int, s: int) -> SymmetricKernel:
    """The degenerate arity-s kernel whose U-statistic is the level-s
    component; star-scaled theta coefficients over the kernel's own
    coordinate subsets."""
    fam, table = _level_inputs(model, statistic, horizon, s)
    coefs = {a: table.theta_star[(s, a)] for a in range(1, s + 1)}
    return _combine_levels(model, fam, coefs, s)


def decompose(model, statistic: SymmetricKernel, horizon: int) -> HoeffdingDecomposition:
    """Full decomposition: record the mean, center, extract every level."""
    if statistic.arity != horizon:
        raise ArityMismatch("statistic arity must equal the horizon")
    check_horizon(model, horizon)
    mean = expectation(model, statistic)
    centered = statistic.shift(-mean)
    kernels = tuple(
        extract_kernel(model, centered, horizon, s) for s in range(1, horizon + 1)
    )
    return HoeffdingDecomposition(model, statistic, horizon, mean, kernels)


def is_degenerate(model, kernel: SymmetricKernel) -> bool:
    """True when conditioning on all but one of the kernel's coordinates
    kills it on the model's support (level arity - 1 of its family)."""
    return not any(diagonal_family(model, kernel).nums[kernel.arity - 1].values())


def project_degenerate_ustat(model, kernel: SymmetricKernel, horizon: int) -> SymmetricKernel:
    """Level projection shortcut for a U-statistic built from an already
    degenerate kernel: a single gamma-weighted diagonal term.  Must agree
    with project_level and leave every other level empty."""
    if not is_degenerate(model, kernel):
        raise DegeneracyViolated("kernel is not completely degenerate")
    n = kernel.arity
    stat = ustatistic(kernel, horizon)
    fam = diagonal_family(model, stat)
    g = gamma_coeff(horizon, n, model.rate)
    return _combine_levels(model, fam, {n: g}, horizon)


def degenerate_cov(model, left: SymmetricKernel, right: SymmetricKernel,
                   overlap: int) -> Fraction:
    """Covariance of two degenerate kernels placed on coordinate blocks
    sharing `overlap` positions: a closed-form multiple of their same-block
    product moment."""
    if left.arity != right.arity:
        raise ArityMismatch("kernels must share an arity")
    n = left.arity
    if not 0 <= overlap <= n:
        raise IndexOutOfRange(f"overlap {overlap} outside 0..{n} for kernels of arity {n}")
    check_horizon(model, 2 * n - overlap)
    if not (is_degenerate(model, left) and is_degenerate(model, right)):
        raise DegeneracyViolated("both kernels must be completely degenerate")
    factor = pair_covariance_factor(n, overlap, model.rate)
    return factor * expectation(model, left.pointwise_product(right))


def covariance_levels(model, left: SymmetricKernel, right: SymmetricKernel,
                      horizon: int):
    """Per-level contributions to E[left*right] for centered statistics,
    plus their total.  Each level term is the level weight times the product
    moment of the two extracted kernels on one block."""
    _centered_family(model, left)
    _centered_family(model, right)
    dl = decompose(model, left, horizon)
    dr = decompose(model, right, horizon)
    levels = []
    for s in range(1, horizon + 1):
        weight = level_weight(horizon, s, model.rate)
        moment = expectation(
            model, dl.kernels[s - 1].pointwise_product(dr.kernels[s - 1])
        )
        levels.append(weight * moment)
    return tuple(levels), sum(levels, Fraction(0))


def ustat_square_norm(model, kernel: SymmetricKernel, size: int) -> Fraction:
    """E[(sum of the kernel over all index subsets of `size` coordinates)^2]."""
    u = ustatistic(kernel, size)
    return expectation(model, u.pointwise_product(u))


def ustat_norm_lower_constant(N: int, n: int, i: int) -> Fraction:
    """Law-free constant k with E[(U-statistic)^2] >= k * E[kernel^2] for
    every exchangeable model extendible to 2(N-1) coordinates."""
    if not (1 <= i <= n <= N - 1):
        raise IndexOutOfRange(f"need 1 <= i <= n <= N-1, got N={N} n={n} i={i}")
    candidates = [Fraction(binomial(n, i) ** 2)]
    for s in range(1, i + 1):
        num = binomial(n - s, i - s) ** 2 * binomial(2 * N - 2 - n, s) * binomial(n, s)
        den = binomial(2 * N - 2 - s, s) * binomial(i, s) ** 2
        candidates.append(Fraction(num, den))
    return min(candidates)


def wor_level_variance_printed(population: int, sample: int, level: int,
                               g_norm) -> Fraction:
    """Classical closed form, exactly as printed in its source, for the
    squared norm of a level projection under sampling without replacement.

    Kept verbatim for comparison; acceptance rests on the enumeration
    route, and disagreements are reported, never patched here.
    """
    if population - sample < level:
        return Fraction(0)
    den = binomial(population - level, level)
    if den == 0:
        raise ZeroDenominator("vanishing binomial in printed variance formula")
    num = binomial(sample, level) * binomial(population - sample, population - level)
    return Fraction(num, den) * Fraction(g_norm)


def wor_level_variance_derived(population: int, sample: int, level: int) -> Fraction:
    """Same constant derived from the pairwise covariance identity: count
    block pairs at each overlap inside the sample."""
    return level_weight(sample, level, Fraction(-1, population))
