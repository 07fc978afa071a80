"""Each fast path of the law engine against the oracle it replaced: the
integer size laws against the ordered pmf, the tower-built diagonal family
against posterior enumeration, the integer-weight sampling walk against a
step-by-step Fraction inverse CDF, the grouped sub-multiset sums against
plain sums over index subsets, and the raising operator against the
sub-multiset oracle.  Models span every replacement regime, with
zero weights allowed so that letters of zero predictive mass occur."""

import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import factorial, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_kernel, sample_reference, sub_multiset_sum, sub_multisets
from urnova import (
    MixtureModel,
    TiltedModel,
    check_weak_independence,
    cond_expectation,
    degenerate_basis,
    diagonal_family,
    expectation,
    extract_kernel,
    is_degenerate,
    project_level,
    symmetrized_offdiagonal,
    theta_table,
    urn_model,
    ustatistic,
)
from urnova.combinatorics import permutation_count, up
from urnova.errors import (
    DegenerateAssumption,
    HorizonTooShort,
    LengthExceeded,
    UnknownSymbol,
    ZeroDenominator,
)

MIXTURE_SIZES = 4  # sizes checked on the mixture, whose horizon is unlimited


@st.composite
def models(draw, urn_only=False):
    """A model from one replacement regime; urn weights may be zero."""
    regimes = ["polya", "iid", "wor", "frac"]
    if not urn_only:
        regimes += ["mixture", "mixture-1"]
    regime = draw(st.sampled_from(regimes))
    if regime == "mixture":
        return MixtureModel(F(draw(st.integers(1, 9)), 10))
    if regime == "mixture-1":
        return MixtureModel(F(1))
    labels = ["a", "b", "c"][:draw(st.integers(1, 3))]
    weights = draw(st.lists(st.integers(0, 3), min_size=len(labels), max_size=len(labels)))
    assume(any(weights))
    c = {"polya": F(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
         "iid": F(0), "wor": F(-1), "frac": F(-1, 2)}[regime]
    den = 2 if regime in ("polya", "frac") else 1
    alpha = {l: F(w, den) for l, w in zip(labels, weights)}
    length = draw(st.integers(1, 4))
    if c < 0:
        # the predictive denominator must stay positive across the horizon
        assume(sum(alpha.values()) + c * (length - 1) > 0)
    return urn_model(labels, alpha, c, length)


def horizon(model):
    return MIXTURE_SIZES if model.length is None else model.length


class TestSizeLaw:
    @given(model=models())
    @settings(max_examples=80, deadline=None)
    def test_equals_permutation_count_times_ordered_pmf(self, model):
        for size in range(horizon(model) + 1):
            law = model.size_law(size)
            assert list(law) == list(model.alphabet.multisets(size))
            for ms, weight in law.items():
                assert weight == permutation_count(ms) * model.joint_pmf(ms)
                assert model.multiset_weight(tuple(reversed(ms))) == weight
            assert sum(law.values()) == 1
            assert list(model.support_multisets(size)) == [ms for ms, w in law.items() if w]

    @given(model=models())
    @settings(max_examples=60, deadline=None)
    def test_extension_law_equals_posterior_enumeration(self, model):
        for m in range(horizon(model)):
            for observed in model.support_multisets(m):
                if model.length is None:
                    base = model.joint_pmf(observed)
                    oracle = lambda ext: model.joint_pmf(observed + ext) / base
                else:
                    oracle = model.posterior(observed).joint_pmf
                for k in range(horizon(model) - m + 1):
                    law = model.extension_law(observed, k)
                    expected = {ext: permutation_count(ext) * oracle(ext)
                                for ext in model.alphabet.multisets(k)}
                    assert law == expected
                    # the integer primitive, one numerator per multiset in
                    # canonical order over one denominator
                    nums, den = model._build_size_law(k, observed)
                    assert all(type(n) is int for n in nums) and type(den) is int
                    assert [F(n, den) for n in nums] == list(expected.values())
                if model.length is not None:
                    # at k = 1 the urn's pair is A_a + C*n_a over A + C*q,
                    # unreduced, on alpha and c scaled by their common denominator
                    scale = lcm(model.c.denominator, *(w.denominator for _, w in model.alpha))
                    cnt = Counter(observed)
                    assert model._build_size_law(1, observed) == (
                        [scale * (w + model.c * cnt[label]) for label, w in model.alpha],
                        scale * (model.alpha_total + model.c * m))
                step = model.extension_law(observed, 1)
                assert model.predictive(observed) == {
                    label: step[(label,)] for label in model.alphabet.labels
                }

    @given(model=models(urn_only=True))
    @settings(max_examples=30, deadline=None)
    def test_beyond_the_horizon_raises(self, model):
        label = model.alphabet.labels[0]
        with pytest.raises(LengthExceeded):
            model.multiset_weight((label,) * (model.length + 1))
        with pytest.raises(LengthExceeded):
            model.size_law(model.length + 1)
        with pytest.raises(UnknownSymbol):
            model.multiset_weight(("z",))

    def test_tables_are_computed_once_per_instance(self):
        model = urn_model(["a", "b"], {"a": 1, "b": 2}, 1, 4)
        assert model.size_law(3) is model.size_law(3)
        # equal models share no cache; equality and hashing ignore it
        twin = urn_model(["a", "b"], {"a": 1, "b": 2}, 1, 4)
        assert twin == model and hash(twin) == hash(model)
        assert twin.size_law(3) is not model.size_law(3)
        assert twin.size_law(3) == model.size_law(3)


class TestTowerFamily:
    @given(model=models(), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_level_equals_the_enumeration_oracle(self, model, seed, data):
        arity = data.draw(st.integers(1, min(3, horizon(model))))
        statistic = random_kernel(random.Random(seed), model.alphabet, arity)
        fam = diagonal_family(model, statistic)
        assert len(fam.levels) == arity + 1
        for q, level in enumerate(fam.levels):
            assert list(level) == list(model.support_multisets(q))
            for ms, value in level.items():
                assert value == cond_expectation(model, statistic, ms)
        assert fam.mean == expectation(model, statistic)

    @given(model=models(), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_is_degenerate_matches_the_oracle(self, model, seed, data):
        arity = data.draw(st.integers(1, min(3, horizon(model))))
        rng = random.Random(seed)
        for kernel in degenerate_basis(model, arity) + [random_kernel(rng, model.alphabet, arity)]:
            oracle = all(cond_expectation(model, kernel, ms) == 0
                         for ms in model.support_multisets(arity - 1))
            assert is_degenerate(model, kernel) == oracle

    @given(model=models(), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_levels_are_kept_as_integer_numerators(self, model, seed, data):
        arity = data.draw(st.integers(1, min(3, horizon(model))))
        fam = diagonal_family(model, random_kernel(random.Random(seed), model.alphabet, arity))
        assert len(fam.nums) == len(fam.dens) == arity + 1
        assert all(type(den) is int and den > 0 for den in fam.dens)
        assert all(type(num) is int for level in fam.nums for num in level.values())

    def test_cached_on_the_model(self):
        model = urn_model(["a", "b"], {"a": 1, "b": 2}, 1, 3)
        statistic = random_kernel(random.Random(1), model.alphabet, 2)
        fam = diagonal_family(model, statistic)
        assert model.diagonal_families == {statistic: fam}


class TestSampling:
    @given(model=models(urn_only=True), seed=st.integers(0, 2**64 - 1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_integer_walk_equals_fraction_inverse_cdf(self, model, seed, data):
        full = model.sample(model.length, seed)
        assert full == sample_reference(model, model.length, seed)
        # one getrandbits(64 * n) read must give the words of n getrandbits(64)
        # calls, so a shorter sample is a prefix of the full-horizon one
        n = data.draw(st.integers(0, model.length), label="n")
        assert model.sample(n, seed) == sample_reference(model, n, seed) == full[:n]



class TestOneHorizonRule:
    """check_horizon is the one horizon rule: every route that needs
    coordinates raises LengthExceeded exactly when its need exceeds the
    model's length, and the sweep reports exactly the overlaps past it."""

    @given(model=models(), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_route_refuses_exactly_past_the_horizon(self, model, seed, data):
        need = data.draw(st.integers(0, horizon(model) + 2), label="need")
        rng = random.Random(seed)
        labels = model.alphabet.labels
        is_urn = model.length is not None
        # a supported sequence of `need` labels, padded past the horizon
        within = min(need, horizon(model))
        seq = model.sample(within, seed) if is_urn else tuple(rng.choices(labels, k=within))
        seq += labels[:1] * (need - within)
        routes = [
            lambda: model.size_law(need),
            lambda: model.extension_law(seq[:1], need - len(seq[:1])),
            lambda: model.joint_pmf(seq),
        ]
        if is_urn:
            routes.append(lambda: model.sample(need, seed))
        if is_urn and need:
            routes.append(lambda: model.posterior(seq[:need - 1]))  # one draw must remain
        if need:
            n = (need + 2) // 2  # the overlap-r conditional needs 2n - r - 1 coordinates
            routes += [
                lambda: cond_expectation(model, random_kernel(rng, model.alphabet, 1), (),
                                         seq[:need - 1]),
                lambda: symmetrized_offdiagonal(
                    model, random_kernel(rng, model.alphabet, n), 2 * n - 1 - need),
                lambda: degenerate_basis(model, need),
                lambda: check_weak_independence(model, need),
            ]
        if is_urn and model.c > 0:
            tilted = TiltedModel(model, 1, random_kernel(rng, model.alphabet, 2), F(1, 10),
                                 F(1, 2))
            routes.append(lambda: tilted.marginal_pmf(seq))
        for route in routes:
            if is_urn and need > model.length:
                with pytest.raises(LengthExceeded):
                    route()
            else:
                route()

    @given(model=models(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_the_sweep_reports_the_overlaps_past_the_horizon(self, model, data):
        n = data.draw(st.integers(1, horizon(model)), label="n")
        unchecked = [r for r in range(n - 1)
                     if model.length is not None and 2 * n - r - 1 > model.length]
        assert list(check_weak_independence(model, n).unchecked_overlaps) == unchecked

    def test_one_exception_class(self):
        assert HorizonTooShort is LengthExceeded


def index_subsets(n, k):
    """All increasing k-tuples of positions from range(n)."""
    return combinations(range(n), k)


def plain_sum(table, ms, k):
    return sum((table[tuple(ms[i] for i in pick)] for pick in index_subsets(len(ms), k)), F(0))


class TestSubMultisets:
    @given(ms=st.lists(st.sampled_from("abcd"), max_size=7), k=st.integers(-1, 8))
    @settings(max_examples=200, deadline=None)
    def test_multiplicities_count_index_subsets(self, ms, k):
        ms = tuple(sorted(ms))
        expected = Counter(combinations(ms, k)) if k >= 0 else Counter()
        assert dict(sub_multisets(ms, k)) == dict(expected)

    @given(ms=st.lists(st.sampled_from("abcd"), max_size=7), k=st.integers(0, 8),
           extra=st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_size_ranges_count_index_subsets(self, ms, k, extra):
        ms = tuple(sorted(ms))
        expected = Counter() if k > len(ms) else Counter(
            sub for j in range(k, k + extra + 1) for sub in combinations(ms, j))
        assert dict(sub_multisets(ms, k, k + extra)) == dict(expected)

    @given(ms=st.lists(st.sampled_from("abc"), max_size=6), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_grouped_sum_equals_plain_sum(self, ms, seed):
        ms = tuple(sorted(ms))
        rng = random.Random(seed)
        for k in range(len(ms) + 1):
            table = {sub: F(rng.randint(-9, 9), rng.randint(1, 9))
                     for sub in set(combinations(ms, k))}
            assert sub_multiset_sum(table, ms, k) == plain_sum(table, ms, k)
            # the raising operator, applied j times over the sub-multisets
            # of ms (a set closed under removing a label), sums j! times over
            raised = table
            for j in range(1, len(ms) - k + 1):
                raised = up(raised, set(combinations(ms, k + j)))
                for sub, value in raised.items():
                    assert value == factorial(j) * sub_multiset_sum(table, sub, k)

    @given(model=models(), seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ustatistic_equals_plain_sum(self, model, seed, data):
        size = data.draw(st.integers(1, min(4, horizon(model))))
        arity = data.draw(st.integers(1, size))
        kernel = random_kernel(random.Random(seed), model.alphabet, arity)
        u = ustatistic(kernel, size)
        for ms, value in u.entries:
            assert value == plain_sum(kernel.table, ms, arity)

    @given(model=models(urn_only=True), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_kernels_and_levels_equal_plain_oracle_sums(self, model, seed):
        M = model.length
        statistic = random_kernel(random.Random(seed), model.alphabet, M)
        statistic = statistic.shift(-expectation(model, statistic))
        try:
            table = theta_table(M, model.rate)
        except (DegenerateAssumption, ZeroDenominator):
            assume(False)  # no coefficient recursion on this short urn

        def oracle(coefs, ms, s):
            # the statistic's diagonal conditionals by enumeration, summed
            # over every index subset of the multiset
            if model.multiset_weight(ms) == 0:
                return F(0)
            return sum(
                (coefs[(s, a)] * cond_expectation(model, statistic, tuple(ms[i] for i in pick))
                 for a in range(1, s + 1) for pick in index_subsets(len(ms), a)),
                F(0),
            )

        for s in range(1, M + 1):
            kernel = extract_kernel(model, statistic, M, s)
            for ms, value in kernel.entries:
                assert value == oracle(table.theta_star, ms, s)
            level = project_level(model, statistic, M, s)
            for ms, value in level.entries:
                assert value == oracle(table.theta, ms, s)
