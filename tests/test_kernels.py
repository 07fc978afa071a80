import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnova import (
    builtin_kernel,
    cond_expectation,
    constant_kernel,
    expectation,
    from_table,
    indicator_kernel,
    max_cond_closed_form,
    max_mean_closed_form,
    symmetrize,
    urn_model,
    ustatistic,
    zero_kernel,
)
from urnova.errors import (
    ArityMismatch,
    DuplicateMultiset,
    MissingMultiset,
    NonNumericAlphabet,
    UnknownSymbol,
)
from helpers import iid_max_integral, random_kernel, urn_models

NUMERIC = [("a", F(1, 2)), ("b", 3), ("c", F(5, 2))]


def numeric_model(c=F(2, 3), length=8):
    return urn_model(NUMERIC, {"a": 1, "b": F(1, 2), "c": 2}, c, length)


class TestTables:
    def test_indicator_table(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 4)
        k = from_table(m.alphabet, 1, {("a",): 1, ("b",): 0})
        assert k.value(("a",)) == 1 and k.value(("b",)) == 0

    def test_zero_kernel(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 4)
        assert zero_kernel(m.alphabet, 2).is_zero()

    def test_missing_multiset(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 4)
        with pytest.raises(MissingMultiset):
            from_table(m.alphabet, 2, {("a", "a"): 1, ("b", "b"): 0})

    def test_duplicate_multiset(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 4)
        with pytest.raises(DuplicateMultiset):
            from_table(m.alphabet, 2,
                       [(("a", "b"), 1), (("b", "a"), 2), (("a", "a"), 0), (("b", "b"), 0)])

    def test_evaluation_is_symmetric(self):
        m = numeric_model()
        k = random_kernel(random.Random(0), m.alphabet, 2)
        assert k.value(("a", "b")) == k.value(("b", "a"))

    def test_arity_mismatch(self):
        m = numeric_model()
        with pytest.raises(ArityMismatch):
            indicator_kernel(m.alphabet, ("a",)).value(("a", "a"))

    def test_unknown_symbol(self):
        m = numeric_model()
        with pytest.raises(UnknownSymbol):
            indicator_kernel(m.alphabet, ("a",)).value(("z",))


class TestSymmetrize:
    def test_projection_on_symmetric_input(self):
        m = numeric_model()
        k = random_kernel(random.Random(1), m.alphabet, 3)
        again = symmetrize(m.alphabet, 3, k.value)
        assert again.table == k.table

    def test_two_point_average(self):
        m = numeric_model()
        k = symmetrize(m.alphabet, 2, lambda t: F(1 if t[0] == "a" else 0))
        assert k.value(("a", "b")) == F(1, 2)
        assert k.value(("a", "a")) == 1

    @pytest.mark.parametrize("arity,split", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_block_average_equals_full_average(self, arity, split):
        # for functions symmetric within the two blocks, averaging over
        # block assignments agrees with the full permutation average
        m = numeric_model()
        rng = random.Random(arity * 10 + split)
        left = random_kernel(rng, m.alphabet, split)
        right = random_kernel(rng, m.alphabet, arity - split)

        def two_block(t):
            return left.value(t[:split]) * right.value(t[split:])

        full = symmetrize(m.alphabet, arity, two_block)
        from itertools import combinations

        for ms in m.alphabet.multisets(arity):
            picks = list(combinations(range(arity), split))
            block_avg = sum(
                (two_block(tuple(ms[i] for i in pick)
                           + tuple(ms[i] for i in range(arity) if i not in pick))
                 for pick in picks),
                F(0),
            ) / len(picks)
            assert block_avg == full.value(ms)


class TestExpectation:
    def test_constant(self):
        m = numeric_model()
        assert expectation(m, constant_kernel(m.alphabet, 3, F(7, 5))) == F(7, 5)

    def test_first_draw_marginal(self):
        for c in (F(0), F(1), F(-1), F(1, 3)):
            m = urn_model(["a", "b", "c"], {"a": 3, "b": 6, "c": 3},
                          c, 2 if c < 0 else 5)
            k = indicator_kernel(m.alphabet, ("a",))
            assert expectation(m, k) == m.alpha_of("a") / m.alpha_total

    def test_pair_indicator_matches_pmf(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 4)
        k = indicator_kernel(m.alphabet, ("a", "a"))
        assert expectation(m, k) == F(1, 3)

    def test_linearity(self):
        m = numeric_model()
        rng = random.Random(2)
        k1 = random_kernel(rng, m.alphabet, 2)
        k2 = random_kernel(rng, m.alphabet, 2)
        lam = F(5, 7)
        assert (expectation(m, k1.scale(lam) + k2)
                == lam * expectation(m, k1) + expectation(m, k2))


class TestBuiltins:
    def test_max_min_mean(self):
        m = urn_model([("a", 1), ("b", 3)], {"a": 1, "b": 1}, 1, 4)
        assert builtin_kernel(m.alphabet, 2, "max").value(("a", "b")) == 3
        assert builtin_kernel(m.alphabet, 2, "min").value(("a", "b")) == 1
        assert builtin_kernel(m.alphabet, 2, "mean").value(("a", "b")) == 2

    def test_indicator_builtin(self):
        m = numeric_model()
        k = builtin_kernel(m.alphabet, 2, "indicator", ("a", "a"))
        assert k.value(("a", "b")) == 0 and k.value(("a", "a")) == 1

    def test_non_numeric_alphabet(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 4)
        with pytest.raises(NonNumericAlphabet):
            builtin_kernel(m.alphabet, 2, "max")

    def test_ustatistic_counts_subsets(self):
        m = numeric_model()
        one = constant_kernel(m.alphabet, 2, 1)
        lifted = ustatistic(one, 4)
        assert lifted.value(("a", "a", "b", "c")) == 6  # C(4,2)


class TestMaxClosedForms:
    def test_mean_matches_enumeration(self):
        rng = random.Random(3)
        for trial in range(6):
            c = F(rng.randint(0, 4), rng.randint(1, 4))
            m = urn_model(NUMERIC,
                          {"a": F(rng.randint(1, 5)), "b": F(rng.randint(1, 5), 2),
                           "c": F(rng.randint(1, 5))},
                          c, 6)
            for horizon in range(1, 6):
                direct = expectation(m, builtin_kernel(m.alphabet, horizon, "max"))
                assert max_mean_closed_form(m, horizon) == direct

    def test_single_draw(self):
        m = numeric_model()
        want = sum(
            (m.alphabet.value(l) * m.alpha_of(l) for l in m.alphabet.labels),
            F(0),
        ) / m.alpha_total
        assert max_mean_closed_form(m, 1) == want

    def test_iid_unit_mass_single_term(self):
        m = urn_model(NUMERIC, {"a": F(1, 4), "b": F(1, 4), "c": F(1, 2)}, 0, 6)
        assert m.alpha_total == 1
        direct = expectation(m, builtin_kernel(m.alphabet, 4, "max"))
        assert max_mean_closed_form(m, 4) == direct

    @pytest.mark.parametrize("horizon", [2, 3, 4])
    def test_conditionals_match_oracle(self, horizon):
        for c in (F(0), F(2, 3), F(1)):
            m = numeric_model(c=c)
            top = builtin_kernel(m.alphabet, horizon, "max")
            for z in m.alphabet.labels:
                assert (max_cond_closed_form(m, horizon, 1, (z,))
                        == cond_expectation(m, top, (z,)))
            for pair in product(m.alphabet.labels, repeat=2):
                assert (max_cond_closed_form(m, horizon, 2, pair)
                        == cond_expectation(m, top, pair))

    def test_iid_unit_mass_reduces_to_single_integrals(self):
        # with c = 0 and unit total mass the conditionals collapse to one
        # raw integral over the remaining coordinates
        m = urn_model(NUMERIC, {"a": F(1, 4), "b": F(1, 4), "c": F(1, 2)}, 0, 6)
        M = 4
        for z in m.alphabet.labels:
            assert (max_cond_closed_form(m, M, 1, (z,))
                    == iid_max_integral(m, M - 1, [m.alphabet.value(z)]))
        for pair in product(m.alphabet.labels, repeat=2):
            fixed = [m.alphabet.value(l) for l in pair]
            assert (max_cond_closed_form(m, M, 2, pair)
                    == iid_max_integral(m, M - 2, fixed))

    def test_dominating_value_is_fixed_point(self):
        m = numeric_model()
        top_label = max(m.alphabet.labels, key=m.alphabet.value)
        assert (max_cond_closed_form(m, 5, 1, (top_label,))
                == m.alphabet.value(top_label))

    def test_without_replacement_conditionals(self):
        m = urn_model(NUMERIC, {"a": 2, "b": 2, "c": 2}, -1, 3)
        top = builtin_kernel(m.alphabet, 3, "max")
        for z in m.alphabet.labels:
            assert (max_cond_closed_form(m, 3, 1, (z,))
                    == cond_expectation(m, top, (z,)))

    @given(model=urn_models(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_level_matches_oracle(self, model, data):
        horizon = data.draw(st.integers(1, model.length))
        top = builtin_kernel(model.alphabet, horizon, "max")
        assert max_mean_closed_form(model, horizon) == expectation(model, top)
        for level in range(horizon + 1):
            for ms in model.support_multisets(level):
                args = data.draw(st.permutations(ms))
                assert (max_cond_closed_form(model, horizon, level, args)
                        == cond_expectation(model, top, args))

    @pytest.mark.parametrize("c, weights", [
        (F(1, 2), (1, 2, 0, F(1, 2), F(3, 2), 1)),
        (F(0), (1, 2, 0, F(1, 2), F(3, 2), 1)),
        (F(-1), (2, 2, 0, 1, 3, 2)),
        (F(-1, 2), (1, F(1, 2), 0, F(3, 2), 1, F(1, 2))),
    ])
    def test_scale_matches_oracle(self, c, weights):
        # six letters with two pairs of tied values and one zero weight
        symbols = [("u", 0), ("v", 1), ("w", 1), ("x", 2), ("y", 3), ("z", 3)]
        model = urn_model(symbols, dict(zip("uvwxyz", weights)), c, 8)
        top = builtin_kernel(model.alphabet, 8, "max")
        for level in range(3):
            for ms in model.support_multisets(level):
                assert (max_cond_closed_form(model, 8, level, ms[::-1])
                        == cond_expectation(model, top, ms[::-1]))

    def test_horizon_below_one_is_refused(self):
        m = numeric_model()
        for horizon in (0, -1):
            with pytest.raises(ArityMismatch):
                max_mean_closed_form(m, horizon)
            with pytest.raises(ArityMismatch):
                max_cond_closed_form(m, horizon, 0, ())
        with pytest.raises(ArityMismatch):
            max_cond_closed_form(m, 2, 3, ("a", "b", "c"))
        with pytest.raises(ArityMismatch):
            max_cond_closed_form(m, 3, 2, ("a",))

    def test_requires_numeric_values(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 4)
        with pytest.raises(NonNumericAlphabet):
            max_mean_closed_form(m, 2)
