import random
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnova import (
    MixtureModel,
    cond_expectation,
    constant_kernel,
    diagonal_family,
    expand_conditional,
    expectation,
    from_table,
    indicator_kernel,
    max_cond_closed_form,
    nested_conditional,
    nested_conditional_at,
    nested_conditional_sum,
    symmetrized_offdiagonal,
    urn_model,
    zero_kernel,
)
from urnova.errors import (
    ArityMismatch,
    HorizonTooShort,
    IndexOutOfRange,
    LengthExceeded,
    ValidationError,
)
from helpers import model_grid, random_kernel, urn_models


def polya3(length=10):
    return urn_model(["a", "b", "c"], {"a": 1, "b": 2, "c": 1}, 1, length)


class TestOracle:
    def test_full_conditioning_returns_statistic(self):
        m = polya3()
        k = random_kernel(random.Random(0), m.alphabet, 3)
        for ms in m.alphabet.multisets(3):
            assert cond_expectation(m, k, ms) == k.value(ms)

    def test_no_conditioning_is_expectation(self):
        m = polya3()
        k = random_kernel(random.Random(1), m.alphabet, 2)
        assert cond_expectation(m, k, ()) == expectation(m, k)

    def test_iid_ignores_outside_values(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 8)
        k = random_kernel(random.Random(2), m.alphabet, 2)
        base = cond_expectation(m, k, ("a",))
        for extra in [("a",), ("b",), ("a", "b")]:
            assert cond_expectation(m, k, ("a",), extra) == base

    def test_block_symmetries(self):
        m = polya3()
        k = random_kernel(random.Random(3), m.alphabet, 3)
        common, extra = ("a", "b"), ("c", "a")
        want = cond_expectation(m, k, common, extra)
        for pc in permutations(common):
            for pe in permutations(extra):
                assert cond_expectation(m, k, pc, pe) == want

    def test_horizon_guard(self):
        m = polya3(length=3)
        k = random_kernel(random.Random(4), m.alphabet, 3)
        with pytest.raises(LengthExceeded):
            cond_expectation(m, k, ("a",), ("b",))  # needs 4 coordinates

    def test_mixture_conditioning(self):
        mix = MixtureModel(F(1, 2))
        k = indicator_kernel(mix.alphabet, ("1", "1"))
        # P(X1=X2=1 | X3=1) = P(111)/P(1)
        want = mix.joint_pmf(("1", "1", "1")) / mix.joint_pmf(("1",))
        assert cond_expectation(mix, k, (), ("1",)) == want


class TestDiagonalFamily:
    def test_constant_statistic(self):
        m = polya3()
        fam = diagonal_family(m, constant_kernel(m.alphabet, 3, F(5, 3)))
        for q in range(4):
            for ms in m.support_multisets(q):
                assert fam.value(ms) == F(5, 3)

    def test_without_replacement_hand_enumeration(self):
        # uniform 3-item urn, two draws, indicator of drawing {a, b}
        m = urn_model(["a", "b", "c"], {"a": 1, "b": 1, "c": 1}, -1, 2)
        k = indicator_kernel(m.alphabet, ("a", "b"))
        fam = diagonal_family(m, k)
        # all 6 orderings of (a, b, c): those starting with a hit {a,b} in 1 of 2
        assert fam.value(("a",)) == F(1, 2)
        assert fam.value(("c",)) == 0
        assert fam.mean == F(1, 3)

    def test_top_level_is_statistic(self):
        m = polya3()
        k = random_kernel(random.Random(5), m.alphabet, 2)
        fam = diagonal_family(m, k)
        for ms in m.support_multisets(2):
            assert fam.value(ms) == k.value(ms)

    def test_cached_per_pair(self):
        m = polya3()
        k = random_kernel(random.Random(6), m.alphabet, 2)
        assert diagonal_family(m, k) is diagonal_family(m, k)

    def test_tower_property(self):
        m = polya3()
        k = random_kernel(random.Random(7), m.alphabet, 3)
        fam = diagonal_family(m, k)
        for q in range(1, 4):
            level_q = from_table(m.alphabet, q, {
                ms: fam.value(ms) for ms in m.alphabet.multisets(q)
            })
            for p in range(q):
                for ms in m.support_multisets(p):
                    assert cond_expectation(m, level_q, ms) == fam.value(ms)


class TestExpansion:
    @pytest.mark.parametrize("size", [2, 3])
    def test_matches_oracle_across_models(self, size):
        rng = random.Random(10 + size)
        for model in model_grid(size, 8):
            for arity in range(1, 5):
                k = random_kernel(rng, model.alphabet, arity)
                for r in range(arity + 1):
                    for extra_len in range(arity - r + 1):
                        for common in model.support_multisets(r):
                            for extra in model.support_multisets(extra_len):
                                if model.multiset_weight(
                                        model.alphabet.canon(common + extra)) == 0:
                                    continue
                                assert (expand_conditional(model, k, common, extra)
                                        == cond_expectation(model, k, common, extra))

    def test_no_promotion_when_iid(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 8)
        k = random_kernel(random.Random(20), m.alphabet, 3)
        fam = diagonal_family(m, k)
        for common in m.alphabet.multisets(1):
            for extra in m.alphabet.multisets(2):
                assert expand_conditional(m, k, common, extra) == fam.value(common)

    def test_full_overlap_collapses(self):
        m = polya3()
        k = random_kernel(random.Random(21), m.alphabet, 3)
        fam = diagonal_family(m, k)
        for ms in m.alphabet.multisets(2):
            assert expand_conditional(m, k, ms, ()) == fam.value(ms)


def two_stage_oracle(model, fam, m, r, conditioning):
    obs = model.alphabet.canon(conditioning)
    total = F(0)
    for ext, w in model.extension_law(obs, m - r).items():
        if w:
            total += w * fam.value(tuple(conditioning[:r]) + ext)
    return total


class TestNestedConditional:
    def test_matches_two_stage_oracle(self):
        rng = random.Random(30)
        for model in model_grid(2, 8):
            size = 4
            k = random_kernel(rng, model.alphabet, size)
            fam = diagonal_family(model, k)
            for n in range(1, size + 1):
                for m_ in range(1, n + 1):
                    for r in range(m_ + 1):
                        for vals in product(model.alphabet.labels, repeat=n):
                            if model.multiset_weight(model.alphabet.canon(vals)) == 0:
                                continue
                            assert (nested_conditional(model, k, m_, r, vals)
                                    == two_stage_oracle(model, fam, m_, r, vals))

    def test_full_overlap_is_identity(self):
        model = polya3(8)
        k = random_kernel(random.Random(31), model.alphabet, 4)
        fam = diagonal_family(model, k)
        for m_ in (1, 2, 3):
            for vals in product(model.alphabet.labels, repeat=3):
                if m_ <= 3:
                    got = nested_conditional(model, k, m_, m_, vals)
                    assert got == fam.value(vals[:m_])

    def test_iid_keeps_only_shared(self):
        model = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 8)
        k = random_kernel(random.Random(32), model.alphabet, 3)
        fam = diagonal_family(model, k)
        for vals in product(model.alphabet.labels, repeat=3):
            assert nested_conditional(model, k, 2, 1, vals) == fam.value(vals[:1])

    def test_index_form_canonicalizes(self):
        model = polya3(8)
        k = random_kernel(random.Random(33), model.alphabet, 4)
        vals = ("a", "b", "c")
        direct = nested_conditional_at(model, k, (2, 4), (1, 2, 3), vals)
        # block (2,4) meets observed (1,2,3) in coordinate 2 -> overlap 1,
        # shared value is vals[1]
        canon = nested_conditional(model, k, 2, 1, (vals[1], vals[0], vals[2]))
        assert direct == canon

    def test_index_validation(self):
        model = polya3(8)
        k = random_kernel(random.Random(34), model.alphabet, 4)
        with pytest.raises(IndexOutOfRange):
            nested_conditional_at(model, k, (0, 1), (1, 2), ("a", "b"))
        with pytest.raises(IndexOutOfRange):
            nested_conditional_at(model, k, (1, 1), (2, 3), ("a", "b"))


class TestNestedSum:
    def test_matches_block_sum(self):
        rng = random.Random(40)
        for model in model_grid(2, 8)[:3]:
            size = 4
            k = random_kernel(rng, model.alphabet, size)
            for n in (2, 3):
                for m_ in range(1, n + 1):
                    for vals in product(model.alphabet.labels, repeat=n):
                        if model.multiset_weight(model.alphabet.canon(vals)) == 0:
                            continue
                        brute = sum(
                            (nested_conditional_at(model, k, block,
                                                   tuple(range(1, n + 1)), vals)
                             for block in combinations(range(1, size + 1), m_)),
                            F(0),
                        )
                        assert nested_conditional_sum(model, k, m_, vals) == brute

    def test_saturated_sum_returns_statistic(self):
        model = polya3(8)
        k = random_kernel(random.Random(41), model.alphabet, 3)
        for vals in product(model.alphabet.labels, repeat=3):
            assert nested_conditional_sum(model, k, 3, vals) == k.value(vals)

    def test_zero_statistic(self):
        model = polya3(8)
        z = zero_kernel(model.alphabet, 3)
        assert nested_conditional_sum(model, z, 2, ("a", "b", "c")) == 0


class TestWidenedDomains:
    """nested_conditional and nested_conditional_sum at every block size,
    m > n and n = 0 included, against the two-stage enumeration; an
    observation of probability zero is refused, and a block past the
    horizon exits as LengthExceeded."""

    @given(model=urn_models(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_nested_conditional_at_every_size(self, model, data):
        M = data.draw(st.integers(1, model.length))
        k = random_kernel(random.Random(data.draw(st.integers(0, 99))), model.alphabet, M)
        fam = diagonal_family(model, k)
        for n in range(M + 1):
            for ms in model.alphabet.multisets(n):
                vals = data.draw(st.permutations(ms))
                possible = model.multiset_weight(ms) != 0
                for m_ in range(1, M + 1):
                    for r in range(min(m_, n) + 1):
                        if n + m_ - r > model.length:
                            with pytest.raises(LengthExceeded):
                                nested_conditional(model, k, m_, r, vals)
                        elif not possible:
                            with pytest.raises(ValidationError, match="probability zero"):
                                nested_conditional(model, k, m_, r, vals)
                        else:
                            assert (nested_conditional(model, k, m_, r, vals)
                                    == two_stage_oracle(model, fam, m_, r, vals))

    @given(model=urn_models(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_nested_sum_at_every_size(self, model, data):
        M = data.draw(st.integers(1, model.length))
        k = random_kernel(random.Random(data.draw(st.integers(0, 99))), model.alphabet, M)
        fam = diagonal_family(model, k)
        for n in range(M + 1):
            for ms in model.alphabet.multisets(n):
                vals = data.draw(st.permutations(ms))
                possible = model.multiset_weight(ms) != 0
                for m_ in range(1, M + 1):
                    if not possible:
                        with pytest.raises(ValidationError, match="probability zero"):
                            nested_conditional_sum(model, k, m_, vals)
                        continue
                    brute = F(0)
                    for block in combinations(range(M), m_):
                        shared = tuple(vals[i] for i in block if i < n)
                        outside = tuple(v for i, v in enumerate(vals) if i not in block)
                        brute += two_stage_oracle(model, fam, m_, len(shared), shared + outside)
                    assert nested_conditional_sum(model, k, m_, vals) == brute

    def test_sizes_outside_the_domain(self):
        model = polya3(8)
        k = random_kernel(random.Random(35), model.alphabet, 3)
        for m_, r, vals in ((0, 0, ()), (4, 0, ()), (2, 1, ()), (2, 3, ("a",) * 3),
                            (1, 0, ("a",) * 4)):
            with pytest.raises(IndexOutOfRange):
                nested_conditional(model, k, m_, r, vals)
        for m_, vals in ((0, ("a",)), (4, ()), (1, ("a",) * 4)):
            with pytest.raises(IndexOutOfRange):
                nested_conditional_sum(model, k, m_, vals)
        with pytest.raises(ArityMismatch):
            expand_conditional(model, k, ("a", "b"), ("c", "a"))


class TestImpossibleObservation:
    """Every conditioning route refuses an observed multiset of probability
    zero with the law primitive's ValidationError."""

    @pytest.mark.parametrize("alpha, c, observed", [
        ({"a": 1, "b": F(1, 2), "z": 0}, 1, ("z",)),
        ({"a": 1, "b": F(1, 2), "z": 0}, 1, ("a", "z")),
        ({"a": 1, "b": F(1, 2), "z": 0}, 0, ("z",)),
        ({"a": 1, "b": 2, "z": 0}, -1, ("z",)),
        ({"a": 1, "b": 2, "z": 1}, -1, ("a", "a")),
        ({"a": 1, "b": 1, "z": F(1, 2)}, F(-1, 2), ("z", "z")),
    ])
    def test_refused_on_every_route(self, alpha, c, observed):
        model = urn_model(["a", "b", "z"], alpha, c, 3)
        k = random_kernel(random.Random(80), model.alphabet, 2)
        routes = [
            lambda: model.extension_law(observed, 1),
            lambda: model.predictive(observed),
            lambda: model.posterior(observed),
            lambda: cond_expectation(model, k, observed[:1], observed[1:]),
            lambda: expand_conditional(model, k, observed, ()),
            lambda: nested_conditional(model, k, 1, 0, observed),
            lambda: nested_conditional_sum(model, k, 1, observed),
        ]
        for route in routes:
            with pytest.raises(ValidationError) as refusal:
                route()
            assert str(refusal.value) == (f"cannot condition on {observed!r}: "
                                          "it has probability zero")

    @pytest.mark.parametrize("alpha, c, observed", [
        ({"a": 1, "b": F(1, 2), "z": 0}, 1, ("z",)),
        ({"a": 1, "b": F(1, 2), "z": 0}, 1, ("a", "z")),
        ({"a": 1, "b": F(1, 2), "z": 0}, 0, ("z",)),
        ({"a": 1, "b": 2, "z": 0}, -1, ("z",)),
        ({"a": 1, "b": 2, "z": 1}, -1, ("a", "a")),
        ({"a": 1, "b": 1, "z": F(1, 2)}, F(-1, 2), ("z", "z")),
    ])
    def test_refused_with_every_argument_observed(self, alpha, c, observed):
        # no draw is left to the law, yet the observation is still refused
        model = urn_model([("a", 0), ("b", 1), ("z", 2)], alpha, c, 3)
        k = random_kernel(random.Random(81), model.alphabet, len(observed))
        routes = [
            lambda: cond_expectation(model, k, observed),
            lambda: diagonal_family(model, k).value(observed),
            lambda: max_cond_closed_form(model, 3, len(observed), observed),
            lambda: max_cond_closed_form(model, len(observed), len(observed), observed),
        ]
        for route in routes:
            with pytest.raises(ValidationError) as refusal:
                route()
            assert str(refusal.value) == (f"cannot condition on {observed!r}: "
                                          "it has probability zero")

    def test_an_exhausted_letter_may_still_be_observed(self):
        # c = -1 with weight 1: one draw of a is possible, the second is not
        model = urn_model(["a", "b"], {"a": 1, "b": 2}, -1, 3)
        assert model.predictive(("a",)) == {"a": 0, "b": 1}
        assert model.posterior(("a",)).alpha_of("a") == 0


class TestSymmetrizedOffdiagonal:
    def test_top_overlap_unchanged(self):
        model = polya3(8)
        k = random_kernel(random.Random(50), model.alphabet, 3)
        tilde = symmetrized_offdiagonal(model, k, 2)
        for ms in model.support_multisets(2):
            assert tilde.value(ms) == cond_expectation(model, k, ms)

    def test_constant_statistic(self):
        model = polya3(8)
        tilde = symmetrized_offdiagonal(model, constant_kernel(model.alphabet, 3, 4), 1)
        for ms in model.support_multisets(2):
            assert tilde.value(ms) == 4

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_matches_full_permutation_average(self, arity):
        model = polya3(10)
        k = random_kernel(random.Random(60 + arity), model.alphabet, arity)
        for r in range(arity):
            tilde = symmetrized_offdiagonal(model, k, r)
            for ms in model.support_multisets(arity - 1):
                avg = sum(
                    (cond_expectation(model, k, perm[:r], perm[r:])
                     for perm in permutations(ms)),
                    F(0),
                ) / factorial(arity - 1)
                assert tilde.value(ms) == avg

    def test_horizon_guard(self):
        model = polya3(length=3)
        k = random_kernel(random.Random(70), model.alphabet, 3)
        with pytest.raises(HorizonTooShort):
            symmetrized_offdiagonal(model, k, 0)  # needs 5 coordinates
        symmetrized_offdiagonal(model, k, 2)  # needs 3: fine
