"""Symmetric statistics stored exactly on multisets.

A kernel of arity n is a total rational-valued table on the multisets of
size n over a fixed alphabet; evaluating it on a tuple only ever consults
the tuple's multiset, so symmetry holds by construction.  Dense tables keep
the linear algebra on kernels (null spaces, projections) direct.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from math import factorial

from .combinatorics import prod, subset_sums
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

def max_mean_closed_form(model, horizon: int) -> Fraction:
    """E[max of the first `horizon` draws] without enumerating sequences:
    the conditional closed form at level 0."""
    return max_cond_closed_form(model, horizon, 0, ())


def max_cond_closed_form(model, horizon: int, level: int, args) -> Fraction:
    """Conditional expectation of the maximum of the first `horizon` draws
    given the first `level` of them, the values `args`, for every level
    from 0 to the horizon, read off the lumped urn: max <= v exactly when
    every draw lands in S_v = {a : value(a) <= v}, and lumping S_v and its
    complement leaves an urn with the same c.  With p_S = alpha(S)/alpha(A),
    rate = c/alpha(A), n_S the observed draws in S and f = horizon - level,
    P(max <= v | args) = [max(args) <= v] *
    prod_{t<f} (p_S + rate (n_S + t)) / (1 + rate (level + t)),
    and the expectation sums v times the jumps of this law.  An observation
    of probability zero is refused by the law primitive.
    """
    if len(args) != level:
        raise ArityMismatch(f"level {level} needs exactly {level} arguments")
    if horizon < max(level, 1):
        raise ArityMismatch(f"horizon {horizon} must be at least 1 and at least the level {level}")
    check_horizon(model, horizon)
    alphabet = model.alphabet
    if not alphabet.is_numeric():
        raise NonNumericAlphabet("max needs numeric symbol values")
    rate = model.rate
    seen = Counter(args)
    floor = max((alphabet.value(label) for label in args), default=None)
    model.extension_law(args, 0)
    free = horizon - level
    den = prod(1 + rate * (level + t) for t in range(free))
    total = below = mass = count = Fraction(0)
    for v, letters in itertools.groupby(sorted(alphabet.labels, key=alphabet.value),
                                        key=alphabet.value):
        for label in letters:
            mass += model.alpha_of(label) / model.alpha_total
            count += seen[label]
        if floor is None or floor <= v:
            law = prod(mass + rate * (count + t) for t in range(free)) / den
            total += v * (law - below)
            below = law
    return total
