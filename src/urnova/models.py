"""Exchangeable models over finite alphabets with exact rational laws.

Two families are provided:

* ``UrnModel`` -- sequential draws where each observed symbol has its weight
  bumped by a constant ``c`` before the next draw.  ``c = 0`` is i.i.d.
  sampling, ``c = -1`` with integer weights is sampling without replacement,
  ``c > 0`` is a Polya urn.
* ``MixtureModel`` -- binary trials that are i.i.d. Bernoulli(Y) given a
  success rate Y drawn uniformly from (0, epsilon).

All probabilities are ``fractions.Fraction``; floats never enter the law.
Models are immutable and hashable.  Each instance carries its own lazily
filled caches (size laws, diagonal families); they live in the instance
dictionary and take no part in equality or hashing.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import NamedTuple, Optional

from .combinatorics import binomial, integer_numerators, multisets, permutation_count, rising
from .errors import (
    EmptyMeasure,
    ExhaustedUrn,
    LengthExceeded,
    NonNumericAlphabet,
    UnknownSymbol,
    ValidationError,
)

#: identifier of the sampling generator, recorded in report metadata:
#: Mersenne twister driving an exact 64-bit inverse-CDF walk.
RNG_ALGORITHM = "mt19937-cdf64"


def as_fraction(value) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction; a bool is an
    int but not a rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValidationError(f"not an exact rational: {value!r}")


class Record:
    """Mixin for the immutable classes built on a ``namedtuple`` of their
    fields that keep ``cached_property`` caches in an instance dictionary:
    equal only to an instance of the same class, hashed as the field tuple,
    and closed to attribute assignment (``cached_property`` writes the
    instance dictionary directly)."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")


class Symbol(NamedTuple):
    """One alphabet point; ``value`` is only needed by order statistics."""

    label: str
    value: Optional[Fraction] = None


class Alphabet(Record, namedtuple("Alphabet", "symbols")):
    def __new__(cls, symbols: tuple):
        labels = [s.label for s in symbols]
        if len(set(labels)) != len(labels):
            raise ValidationError("alphabet labels must be pairwise distinct")
        if not labels:
            raise ValidationError("alphabet must not be empty")
        return super().__new__(cls, symbols)

    @cached_property
    def labels(self) -> tuple:
        return tuple(s.label for s in self.symbols)

    @cached_property
    def _index(self):
        return {s.label: i for i, s in enumerate(self.symbols)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol {label!r}") from None

    def value(self, label: str) -> Fraction:
        v = self.symbols[self.index(label)].value
        if v is None:
            raise NonNumericAlphabet(f"symbol {label!r} has no numeric value")
        return v

    def is_numeric(self) -> bool:
        return all(s.value is not None for s in self.symbols)

    def canon(self, labels) -> tuple:
        """Canonical multiset key: labels sorted in alphabet order.  Keys
        are read in input order, so the first unknown label is the one
        reported."""
        try:
            return tuple(sorted(labels, key=self._index.__getitem__))
        except KeyError as exc:
            raise UnknownSymbol(f"unknown symbol {exc.args[0]!r}") from None

    def multisets(self, size: int):
        return multisets(self.labels, size)


class _Law:
    """Laws and caches shared by both model families.

    Each family defines one law primitive, ``_build_size_law(k, observed)``:
    the law of the multiset of the next k draws after an observed multiset,
    as integers ``(nums, den)``: one numerator per size-k multiset in
    canonical order, over one denominator.  ``size_law(n)`` is its
    ``Fraction`` view with nothing observed, computed once per size;
    ``extension_law`` and ``predictive`` are its ``Fraction`` view at an
    observed multiset, and the integer-only callers read the pair itself.
    ``diagonal_families`` holds the diagonal families built by
    :func:`urnova.conditional.diagonal_family`, keyed by statistic.
    Returned tables are shared: read them, never mutate them.
    """

    @property
    def rate(self) -> Fraction:
        """The urn-only routes (expansions, decompositions, closed forms,
        weak copies) read the law through this rate; a law outside the urn
        class has none, so it refuses them here."""
        raise ValidationError(
            f"{type(self).__name__} has no replacement rate c/alpha(A): "
            "this route needs an urn model"
        )

    @cached_property
    def _size_laws(self) -> dict:
        return {}

    @cached_property
    def diagonal_families(self) -> dict:
        return {}

    def _law(self, k: int, observed: tuple = ()) -> dict:
        """{multiset: probability} of the next k draws, from the primitive."""
        nums, den = self._build_size_law(k, observed)
        return {ext: Fraction(n, den) for ext, n in zip(self.alphabet.multisets(k), nums)}

    def size_law(self, size: int) -> dict:
        """{multiset: probability} over every multiset of `size` labels, in
        canonical order, zero weights included."""
        law = self._size_laws.get(size)
        if law is None:
            check_horizon(self, size)
            law = self._size_laws[size] = self._law(size)
        return law

    def multiset_weight(self, ms) -> Fraction:
        """Probability of an unordered outcome: ordered pmf times the number
        of distinct orderings."""
        ms = self.alphabet.canon(ms)
        return self.size_law(len(ms))[ms]

    def support_multisets(self, size: int):
        return (ms for ms, w in self.size_law(size).items() if w)

    def extension_law(self, observed, k: int) -> dict:
        """Conditional law of the multiset of the next k draws."""
        ms = self.alphabet.canon(observed)
        check_horizon(self, len(ms) + k)
        if not ms:
            return dict(self.size_law(k))
        return self._law(k, ms)

    def predictive(self, observed=()) -> dict:
        """Law of the next draw given an observed multiset of labels."""
        return {ext[0]: p for ext, p in self.extension_law(observed, 1).items()}


class UrnModel(Record, namedtuple("UrnModel", "alphabet alpha c length"), _Law):
    """Law of ``length`` sequential draws with replacement increment ``c``.

    ``alpha`` is kept as a tuple of (label, weight) pairs in alphabet order
    so the model is hashable; ``alpha_of`` gives dictionary-style access.
    """

    def __new__(cls, alphabet: Alphabet, alpha: tuple, c: Fraction, length: int):
        self = super().__new__(cls, alphabet, alpha, c, length)
        if type(length) is not int or length < 1:  # bool is an int subclass
            raise ValidationError("length must be a positive integer")
        if {label for label, _ in alpha} != set(alphabet.labels):
            raise ValidationError("alpha must assign a weight to every symbol")
        for label, w in alpha:
            if w < 0:
                raise ValidationError(f"alpha({label!r}) must be >= 0")
        total = self.alpha_total
        if total == 0:
            raise EmptyMeasure("total alpha mass must be positive")
        if c < 0:
            step = -c
            for label, w in alpha:
                if (w / step).denominator != 1:
                    raise ExhaustedUrn(
                        f"alpha({label!r}) must be an integer multiple of |c| "
                        "when c < 0, else a replacement factor turns negative"
                    )
        if total + c * (length - 1) <= 0:
            raise ExhaustedUrn(
                "a predictive denominator reaches zero within the horizon"
            )
        return self

    @cached_property
    def _alpha_map(self):
        return dict(self.alpha)

    @cached_property
    def alpha_total(self) -> Fraction:
        return sum((w for _, w in self.alpha), Fraction(0))

    def alpha_of(self, label: str) -> Fraction:
        try:
            return self._alpha_map[label]
        except KeyError:
            raise UnknownSymbol(f"unknown symbol {label!r}") from None

    @property
    def rate(self) -> Fraction:
        """Replacement rate c / alpha(A); the decomposition constants depend
        on the law only through this ratio."""
        return self.c / self.alpha_total

    @property
    def is_double_extendible(self) -> bool:
        """Whether the law extends to twice the horizon.  Uniqueness and
        norm lower bounds for U-statistic representations are only
        guaranteed on models with this property; the law itself exists
        without it."""
        return self.alpha_total + 2 * self.c * self.length >= 0

    # -- law -----------------------------------------------------------------

    @cached_property
    def _integer_weights(self):
        """(A, C): alpha (a tuple in alphabet order) and c scaled by the least
        common denominator D, so every law is a ratio of integers."""
        den = lcm(self.c.denominator, *(w.denominator for _, w in self.alpha))
        return tuple(int(w * den) for _, w in self.alpha), int(self.c * den)

    def joint_pmf(self, seq) -> Fraction:
        """Probability of an ordered sequence of labels; the step-by-step
        oracle for the tabulated laws."""
        seq = tuple(seq)
        check_horizon(self, len(seq))
        out = Fraction(1)
        seen = Counter()
        for i, label in enumerate(seq):
            num = self.alpha_of(label) + self.c * seen[label]
            if num == 0:
                return Fraction(0)
            out *= num / (self.alpha_total + self.c * i)
            seen[label] += 1
        return out

    def posterior(self, observed) -> "UrnModel":
        """Model of the remaining draws after observing a multiset."""
        ms = self.alphabet.canon(observed)
        if not ms:
            return self
        check_horizon(self, len(ms) + 1)  # at least one draw must remain
        cnt = Counter(ms)
        alpha = tuple(
            (label, w + self.c * cnt[label]) for label, w in self.alpha
        )
        return UrnModel(self.alphabet, alpha, self.c, self.length - len(ms))

    def _build_size_law(self, k: int, observed: tuple = ()) -> tuple:
        """Law of the multiset of the next k draws after a canonical
        observed multiset, unreduced on integers: with A_a = D*alpha_a +
        C*n_a, the numerator of ext is
        multinomial(ext) * prod_a prod_{j<e_a} (A_a + jC) and the
        denominator prod_{i<k} (A + iC).  At k = 1 that is A_a + C*n_a over
        A + C*len(observed)."""
        weights, step = self._integer_weights
        cnt = Counter(observed)
        factors = {}
        for label, w in zip(self.alphabet.labels, weights):
            w += step * cnt[label]
            if w < 0:
                raise ValidationError(f"observing {observed!r} exhausts {label!r}")
            factors[label] = rising(w, step, k)
        nums = []
        for ext in self.alphabet.multisets(k):
            num, i = factorial(k), 0
            while i < k:  # one run of e equal labels at a time; each quotient is exact
                e = ext.count(ext[i])
                num = num * factors[ext[i]][e] // factorial(e)
                i += e
            nums.append(num)
        return nums, rising(sum(weights) + step * len(observed), step, k)[k]

    # -- sampling --------------------------------------------------------------

    def sample(self, n: int, seed: int) -> tuple:
        """Draw n labels sequentially; deterministic for a given 64-bit seed.

        The urn holds the integer weights A_a + C*n_a, total A + C*m after m
        draws.  Draw i reads u, the i-th getrandbits(64) call of
        random.Random(seed), and subtracts the weights, in alphabet order,
        from t = floor(u * total / 2**64) until t is below the next: the
        predictive inverse CDF at u / 2**64, exactly; a label of zero weight
        is never drawn."""
        check_horizon(self, n)
        weights, step = self._integer_weights
        weights = list(weights)
        total = sum(weights)
        labels = self.alphabet.labels
        bits = random.Random(seed).getrandbits
        out = []
        for _ in range(n):
            t = (bits(64) * total) >> 64
            i = 0
            while t >= weights[i]:
                t -= weights[i]
                i += 1
            weights[i] += step
            total += step
            out.append(labels[i])
        return tuple(out)


def urn_model(symbols, alpha, c, length) -> UrnModel:
    """Convenience builder accepting labels, (label, value) pairs and loose
    rational types."""
    syms = []
    for s in symbols:
        if isinstance(s, Symbol):
            syms.append(s)
        elif isinstance(s, tuple):
            label, value = s
            syms.append(Symbol(label, as_fraction(value)))
        else:
            syms.append(Symbol(s))
    alphabet = Alphabet(tuple(syms))
    for label in alpha:
        alphabet.index(label)  # reject unknown keys
    pairs = tuple(
        (label, as_fraction(alpha.get(label, 0))) for label in alphabet.labels
    )
    return UrnModel(alphabet, pairs, as_fraction(c), length)


MIXTURE_ALPHABET = Alphabet((Symbol("0", Fraction(0)), Symbol("1", Fraction(1))))


class MixtureModel(Record, namedtuple("MixtureModel", "epsilon"), _Law):
    """Binary exchangeable trials driven by a uniform rate on (0, epsilon).

    The ordered pmf of a sequence with k successes among n trials is the
    exact polynomial (1/eps) * integral_0^eps x^k (1-x)^(n-k) dx, expanded
    binomially so every value is rational in epsilon.
    """

    def __new__(cls, epsilon: Fraction):
        if not (0 < epsilon <= 1):
            raise ValidationError("epsilon must lie in (0, 1]")
        return super().__new__(cls, epsilon)

    @property
    def alphabet(self) -> Alphabet:
        return MIXTURE_ALPHABET

    #: unlimited horizon; the sequence extends indefinitely
    length = None

    def joint_pmf(self, seq) -> Fraction:
        seq = tuple(seq)
        for e in seq:
            if e not in ("0", "1"):
                raise UnknownSymbol(f"mixture sequences are over '0'/'1': {e!r}")
        n = len(seq)
        k = sum(1 for e in seq if e == "1")
        out = Fraction(0)
        eps = self.epsilon
        for j in range(n - k + 1):
            out += Fraction((-1) ** j) * binomial(n - k, j) * eps ** (k + j) / (k + j + 1)
        return out

    def _build_size_law(self, k: int, observed: tuple = ()) -> tuple:
        """Law of the multiset of the next k trials after observing a
        multiset: ratios of ordered probabilities, over their least common
        denominator."""
        base = self.joint_pmf(observed)
        return integer_numerators(
            permutation_count(ext) * self.joint_pmf(observed + ext) / base
            for ext in self.alphabet.multisets(k)
        )


def check_horizon(model, needed: int, asker: str = ""):
    """The one horizon rule: raise LengthExceeded (alias HorizonTooShort)
    unless the model supports `needed` coordinates; a length of None is
    unlimited.  Given an `asker` such as "<file>: --M 9", the message is
    "<asker> exceeds length <length>"."""
    if model.length is not None and needed > model.length:
        raise LengthExceeded(f"{asker} exceeds length {model.length}" if asker else
                             f"needs {needed} coordinates, model allows {model.length}")
