"""Decide, by exact linear algebra, whether full-overlap degeneracy of
symmetric kernels forces all partial-overlap symmetrized conditionals to
vanish -- the property that makes a model's statistics split into
orthogonal degenerate layers.

Each overlap-r conditional at an observed (n-1)-multiset is linear in the
kernel, so it is built once as an integer functional read off the model's
integer law primitive.  The overlap-(n-1) functionals are the rows whose
integer null space gives the degenerate basis at level n; the sweep applies
those of every overlap r <= n - 2 to the whole basis, held as those integer
vectors, and collects nonzero witnesses.  Only ``degenerate_basis``, the
basis's public kernel view, builds kernels from them.
``conditional.symmetrized_offdiagonal`` is the enumeration oracle the sweep
is tested against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .combinatorics import binomial, integer_numerators
from .conditional import diagonal_family
from .errors import LengthExceeded, ValidationError
from .kernels import SymmetricKernel, from_table
from .linalg import nullspace
from .models import MixtureModel, check_horizon


def _null_vectors(model, n: int) -> tuple:
    """The integer null space of the one-step prediction map at level n.

    The map sends a kernel phi to the function
    x -> sum_a P(next = a | x) * phi(x + a) on observed (n-1)-multisets:
    its rows are the sweep's overlap-(n-1) functionals at the support
    multisets, its columns the size-n multisets.  Each vector is a
    primitive integer tuple with a positive first nonzero entry, its lead;
    the order is the null space's, which is deterministic.
    """
    if n < 1:
        raise ValidationError("level must be at least 1")
    check_horizon(model, n)
    rows = [offdiagonal_functional(model, ms, n - 1)[0] for ms in model.support_multisets(n - 1)]
    ncols = binomial(len(model.alphabet.labels) + n - 1, n)
    return tuple(map(tuple, nullspace(rows, ncols)))


def degenerate_basis(model, n: int):
    """Basis of arity-n kernels with vanishing one-step predictive average:
    the null vectors of the prediction map, each divided by its lead, so
    each kernel leads with 1."""
    columns = list(model.alphabet.multisets(n))
    basis = []
    for vec in _null_vectors(model, n):
        lead = next(x for x in vec if x)
        entries = tuple((ms, Fraction(x, lead)) for ms, x in zip(columns, vec))
        basis.append(SymmetricKernel(n, model.alphabet, entries))
    return basis


class Violation(NamedTuple):
    basis_index: int
    overlap: int
    witness: tuple
    value: Fraction


class DegeneracyReport(NamedTuple):
    level: int
    basis: tuple  # the integer null vectors; degenerate_basis is their kernel view
    violations: tuple
    unchecked_overlaps: tuple  # overlaps whose conditional needs more horizon

    @property
    def passed(self) -> bool:
        return not self.violations


def offdiagonal_functional(model, observed, overlap: int) -> tuple:
    """The overlap-r symmetrized conditional at one canonical observed
    (n-1)-multiset, as a linear functional on arity-n kernels: integer
    weights over the size-n multisets in canonical order, and one
    denominator.

    Every block assignment of the observed values conditions on the same
    multiset, so the integer law of the next n - r draws from the model's
    primitive serves all binomial(n-1, r) picks; picks with equal shared
    values are merged with their multiplicity.
    """
    alphabet = model.alphabet
    n = len(observed) + 1
    check_horizon(model, 2 * n - overlap - 1)
    column = {ms: i for i, ms in enumerate(alphabet.multisets(n))}
    weights, den = model._build_size_law(n - overlap, observed)
    functional = [0] * len(column)
    for common, mult in Counter(itertools.combinations(observed, overlap)).items():
        for ext, weight in zip(alphabet.multisets(n - overlap), weights):
            if weight:
                functional[column[alphabet.canon(common + ext)]] += mult * weight
    return functional, den * binomial(n - 1, overlap)


def check_weak_independence(model, n: int) -> DegeneracyReport:
    """Evaluate the overlap-r symmetrized conditionals, r = 0 .. n - 2, of
    every degenerate basis kernel.  Exact zeros everywhere mean the model
    passes at this level (within its horizon); overlaps that would need
    coordinates beyond the horizon are reported as unchecked, never skipped
    silently.  The sweep runs on the integer null vectors: each value is an
    integer dot product, and only a violation becomes a Fraction, over the
    functional's denominator times the vector's lead."""
    basis = _null_vectors(model, n)
    leads = [next(x for x in vec if x) for vec in basis]
    support = list(model.support_multisets(n - 1))
    violations = []
    unchecked = []
    # overlap n - 1 defines the basis: zero by construction, never past the horizon
    for r in range(n - 1):
        try:
            functionals = [(ms, *offdiagonal_functional(model, ms, r)) for ms in support]
        except LengthExceeded:
            unchecked.append(r)
            continue
        for b, (vec, lead) in enumerate(zip(basis, leads)):
            for ms, functional, f_den in functionals:
                dot = sum(map(mul, functional, vec))
                if dot:
                    violations.append(Violation(b, r, ms, Fraction(dot, f_den * lead)))
    return DegeneracyReport(n, basis, tuple(violations), tuple(unchecked))


# -- the two-point mixture family that fails the check -------------------------

def witness_kernel(epsilon) -> SymmetricKernel:
    """Arity-2 kernel on {0,1} whose one-coordinate conditionals vanish
    under the mixture law while a disjoint-coordinate conditional does not.

    Off-diagonal entries are 1; the diagonal entries are chosen to cancel
    the one-coordinate conditionals exactly.
    """
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise ValidationError("epsilon must lie strictly inside (0, 1)")
    phi_11 = 1 - Fraction(3, 2) / epsilon
    phi_00 = (epsilon**2 - Fraction(3, 2) * epsilon) / (3 - 3 * epsilon + epsilon**2)
    mix = MixtureModel(epsilon)
    return from_table(
        mix.alphabet,
        2,
        {("0", "0"): phi_00, ("0", "1"): Fraction(1), ("1", "1"): phi_11},
    )


def witness_conditional_closed_form(epsilon) -> Fraction:
    """Value of the disjoint-coordinate conditional at observed 0; negative
    for every epsilon in (0, 1) and vanishing as epsilon -> 1."""
    epsilon = Fraction(epsilon)
    num = epsilon**3 * (epsilon - 1)
    den = (3 - 3 * epsilon + epsilon**2) * (epsilon - epsilon**2 / 2)
    return Fraction(1, 8) * num / den


class WitnessReport(NamedTuple):
    epsilon: Fraction
    given_second_zero: Fraction
    given_second_one: Fraction
    given_third_zero: Fraction
    closed_form: Fraction

    @property
    def passed(self) -> bool:
        return (
            self.given_second_zero == 0
            and self.given_second_one == 0
            and self.given_third_zero == self.closed_form
            and self.given_third_zero < 0
        )


def witness_report(epsilon) -> WitnessReport:
    """The witness kernel's conditionals under the mixture law, next to the
    closed form they must reproduce: the one-coordinate ones from the
    diagonal family, the disjoint-coordinate one from the overlap-0
    functional of the ``check-wi`` sweep."""
    epsilon = Fraction(epsilon)
    mix = MixtureModel(epsilon)
    kernel = witness_kernel(epsilon)
    family = diagonal_family(mix, kernel)
    functional, f_den = offdiagonal_functional(mix, ("0",), 0)
    nums, den = integer_numerators(v for _, v in kernel.entries)
    return WitnessReport(
        epsilon=epsilon,
        given_second_zero=family.value(("0",)),
        given_second_one=family.value(("1",)),
        given_third_zero=Fraction(sum(map(mul, functional, nums)), f_den * den),
        closed_form=witness_conditional_closed_form(epsilon),
    )
