"""Symmetric statistics stored exactly on multisets.

A kernel of arity n is a total rational-valued table on the multisets of
size n over a fixed alphabet; evaluating it on a tuple only ever consults
the tuple's multiset, so symmetry holds by construction.  Dense tables keep
the linear algebra on kernels (null spaces, projections) direct.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import factorial

from .combinatorics import (
    binomial,
    permutation_count,
    prod,
    subset_sums,
)
from .errors import (
    ArityMismatch,
    DuplicateMultiset,
    MissingMultiset,
    NonNumericAlphabet,
)
from .models import Alphabet, Record, as_fraction, check_horizon


class SymmetricKernel(Record, namedtuple("SymmetricKernel", "arity alphabet entries")):
    """Kernel of ``arity`` over ``alphabet``; ``entries`` is
    ((multiset, Fraction), ...) in canonical multiset order."""

    @cached_property
    def table(self) -> dict:
        return dict(self.entries)

    @cached_property
    def _hash(self) -> int:
        return hash((self.arity, self.alphabet, self.entries))

    def __hash__(self) -> int:
        # the hash of the field tuple, computed once: kernels key the
        # per-model diagonal-family caches
        return self._hash

    def value(self, labels) -> Fraction:
        """Evaluate on a tuple or multiset of labels."""
        if len(labels) != self.arity:
            raise ArityMismatch(
                f"kernel of arity {self.arity} evaluated on {len(labels)} labels"
            )
        return self.table[self.alphabet.canon(labels)]

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.entries)

    def _with_values(self, fn):
        return SymmetricKernel(
            self.arity,
            self.alphabet,
            tuple((ms, fn(ms, v)) for ms, v in self.entries),
        )

    def __add__(self, other: "SymmetricKernel") -> "SymmetricKernel":
        return self._with_values(lambda ms, v: v + other.table[ms])

    def __sub__(self, other: "SymmetricKernel") -> "SymmetricKernel":
        return self._with_values(lambda ms, v: v - other.table[ms])

    def scale(self, factor) -> "SymmetricKernel":
        factor = as_fraction(factor)
        return self._with_values(lambda ms, v: factor * v)

    def shift(self, constant) -> "SymmetricKernel":
        constant = as_fraction(constant)
        return self._with_values(lambda ms, v: v + constant)

    def pointwise_product(self, other: "SymmetricKernel") -> "SymmetricKernel":
        return self._with_values(lambda ms, v: v * other.table[ms])


def from_table(alphabet: Alphabet, arity: int, mapping) -> SymmetricKernel:
    """Build a kernel from {labels: value}; every multiset must appear once."""
    if hasattr(mapping, "items"):
        items = mapping.items()
    else:
        items = mapping
    seen = {}
    for labels, value in items:
        key = alphabet.canon(labels)
        if len(key) != arity:
            raise ArityMismatch(f"entry {labels!r} has size {len(key)}, not {arity}")
        if key in seen:
            raise DuplicateMultiset(f"multiset {key!r} specified twice")
        seen[key] = as_fraction(value)
    entries = []
    for ms in alphabet.multisets(arity):
        if ms not in seen:
            raise MissingMultiset(f"no value for multiset {ms!r}")
        entries.append((ms, seen[ms]))
    return SymmetricKernel(arity, alphabet, tuple(entries))


def constant_kernel(alphabet: Alphabet, arity: int, value) -> SymmetricKernel:
    value = as_fraction(value)
    return SymmetricKernel(
        arity,
        alphabet,
        tuple((ms, value) for ms in alphabet.multisets(arity)),
    )


def zero_kernel(alphabet: Alphabet, arity: int) -> SymmetricKernel:
    return constant_kernel(alphabet, arity, 0)


def indicator_kernel(alphabet: Alphabet, target) -> SymmetricKernel:
    """1 on one multiset, 0 elsewhere."""
    key = alphabet.canon(target)
    return SymmetricKernel(
        alphabet=alphabet,
        arity=len(key),
        entries=tuple(
            (ms, Fraction(1 if ms == key else 0))
            for ms in alphabet.multisets(len(key))
        ),
    )


def symmetrize(alphabet: Alphabet, arity: int, fn) -> SymmetricKernel:
    """Average a function of ordered tuples over all orderings.

    The average runs over all arity! permutations, so a function that is
    already symmetric comes back unchanged (the map is a projection).
    """
    entries = []
    norm = Fraction(1, factorial(arity))
    for ms in alphabet.multisets(arity):
        total = sum((as_fraction(fn(p)) for p in itertools.permutations(ms)), Fraction(0))
        entries.append((ms, norm * total))
    return SymmetricKernel(arity, alphabet, tuple(entries))


BUILTIN_KERNELS = ("max", "min", "mean", "indicator")


def builtin_kernel(alphabet: Alphabet, arity: int, name: str, target=None) -> SymmetricKernel:
    """Named kernels: max, min, mean (numeric alphabets) and indicator."""
    if name == "indicator":
        if target is None:
            raise MissingMultiset("indicator kernel needs a target multiset")
        kernel = indicator_kernel(alphabet, target)
        if kernel.arity != arity:
            raise ArityMismatch(
                f"indicator target has size {kernel.arity}, requested arity {arity}"
            )
        return kernel
    if name not in ("max", "min", "mean"):
        raise ValueError(f"unknown builtin kernel {name!r}")
    if not alphabet.is_numeric():
        raise NonNumericAlphabet(f"builtin {name!r} needs numeric symbol values")
    def evaluate(ms):
        values = [alphabet.value(label) for label in ms]
        if name == "max":
            return max(values)
        if name == "min":
            return min(values)
        return sum(values, Fraction(0)) / len(values)
    return SymmetricKernel(
        arity,
        alphabet,
        tuple((ms, evaluate(ms)) for ms in alphabet.multisets(arity)),
    )


def ustatistic(kernel: SymmetricKernel, size: int) -> SymmetricKernel:
    """Arity-`size` statistic summing the kernel over all index subsets."""
    if size < kernel.arity:
        raise ArityMismatch("u-statistic size below kernel arity")
    sums, lead = subset_sums({kernel.arity: kernel.table}, kernel.alphabet.multisets, size)
    return SymmetricKernel(size, kernel.alphabet, tuple(
        (ms, sums[ms] / lead) for ms in kernel.alphabet.multisets(size)
    ))


def expectation(model, kernel: SymmetricKernel) -> Fraction:
    """E[T] by multiset enumeration against the model's size law; exact."""
    check_horizon(model, kernel.arity)
    total = Fraction(0)
    for ms, value in kernel.entries:
        if value == 0:
            continue
        total += model.multiset_weight(ms) * value
    return total


# -- closed forms for the maximum of a real-valued urn sequence ---------------

def _raw_max_integral(model, free: int, fixed_values) -> Fraction:
    """Integral of max(x_1..x_free, fixed...) against the product of the
    normalized weights alpha_a/alpha(A), which is the law of free draws
    only when c = 0."""
    alphabet = model.alphabet
    total = Fraction(0)
    for ms in alphabet.multisets(free):
        weight = prod(model.alpha_of(label) / model.alpha_total for label in ms)
        if weight == 0:
            continue
        weight *= permutation_count(ms)
        values = [alphabet.value(label) for label in ms]
        total += weight * max(list(fixed_values) + values)
    return total


def _tie_constants(rate, draws: int, occupied: int):
    """Coefficients rate^k e_k(1..draws-1) / prod of denominators for a run
    of `draws` extractions whose measure already carries `occupied`
    increments, at unit total weight; a run of no draws has the one
    coefficient 1."""
    den = prod(1 + rate * (occupied + t - 1) for t in range(1, draws + 1))
    e = [1]  # e_k(1..draws-1) is the x^k coefficient of prod_{t < draws} (1 + t x)
    for t in range(1, draws):
        e = [a + t * b for a, b in zip(e + [0], [0] + e)]
    return [rate**k * e_k / den for k, e_k in enumerate(e)]


def max_mean_closed_form(model, horizon: int) -> Fraction:
    """E[max of the first `horizon` draws] without enumerating sequences:
    the conditional closed form at level 0."""
    return max_cond_closed_form(model, horizon, 0, ())


def max_cond_closed_form(model, horizon: int, level: int, args) -> Fraction:
    """Conditional expectation of the maximum of the first `horizon` draws
    given the first `level` of them, the values `args`, for every level
    from 0 to the horizon.

    Ties between draws collapse the maximum onto fewer fresh coordinates;
    the tie pattern count gives elementary symmetric sums and the fresh
    coordinates integrate against products of normalized weights.
    Conditioning shortens the run to horizon - level draws and adds one
    weight increment per observed value; expanding the shifted measure
    yields binomially weighted raw integrals with the observed values glued
    into the max.
    """
    if len(args) != level:
        raise ArityMismatch(f"level {level} needs exactly {level} arguments")
    if horizon < max(level, 1):
        raise ArityMismatch(f"horizon {horizon} must be at least 1 and at least the level {level}")
    check_horizon(model, horizon)
    if not model.alphabet.is_numeric():
        raise NonNumericAlphabet("max needs numeric symbol values")
    values = [model.alphabet.value(label) for label in args]
    free = horizon - level
    rate = model.rate
    coeffs = _tie_constants(rate, free, occupied=level)
    total = Fraction(0)
    for k, n_k in enumerate(coeffs):
        if n_k == 0:
            continue
        inner = Fraction(0)
        for j in range(free - k + 1):
            atom = (level * rate) ** (free - k - j)
            if atom == 0:
                continue
            inner += binomial(free - k, j) * atom * _raw_max_integral(model, j, values)
        total += n_k * inner
    return total
