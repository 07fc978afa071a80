from collections import namedtuple
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnova import (
    Alphabet,
    MixtureModel,
    Symbol,
    build_weak_copy,
    builtin_kernel,
    covariance_levels,
    decompose,
    degenerate_basis,
    degenerate_cov,
    dirichlet_moment,
    expand_conditional,
    expectation,
    extract_kernel,
    max_cond_closed_form,
    max_mean_closed_form,
    nested_conditional,
    nested_conditional_sum,
    project_degenerate_ustat,
    project_level,
    urn_model,
)
from urnova.errors import (
    EmptyMeasure,
    ExhaustedUrn,
    LengthExceeded,
    UnknownSymbol,
    ValidationError,
)


def polya(length=8):
    return urn_model(["a", "b"], {"a": 1, "b": 1}, 1, length)


def wor_uniform(labels, length):
    return urn_model(labels, {l: 1 for l in labels}, -1, length)


class TestConstruction:
    def test_without_replacement_three_items_is_valid(self):
        m = wor_uniform(["a", "b", "c"], 2)
        assert m.alpha_total == 3

    def test_fractional_weight_with_negative_c_rejected(self):
        with pytest.raises(ExhaustedUrn):
            urn_model(["a", "b"], {"a": F(3, 2), "b": 2}, -1, 1)

    def test_polya_always_valid(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 10)
        assert m.length == 10

    def test_empty_measure(self):
        with pytest.raises(EmptyMeasure):
            urn_model(["a"], {"a": 0}, 1, 2)

    def test_exhausted_denominator(self):
        # 4 items, 5 draws without replacement: denominator hits zero
        with pytest.raises(ExhaustedUrn):
            urn_model(["a", "b"], {"a": 2, "b": 2}, -1, 5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            urn_model(["a", "b"], {"a": -1, "b": 2}, 0, 2)

    def test_extendibility_is_reported_not_fatal(self):
        assert not wor_uniform(["a", "b", "c"], 2).is_double_extendible
        assert urn_model(["a"] , {"a": 1}, 0, 5).is_double_extendible


# reprs at the last commit built on dataclasses; param_hash hashes them
MODEL_REPR = (
    "UrnModel(alphabet=Alphabet(symbols=(Symbol(label='a', value=Fraction(0, 1)), "
    "Symbol(label='b', value=Fraction(1, 2)))), alpha=(('a', Fraction(1, 1)), "
    "('b', Fraction(3, 2))), c=Fraction(-1, 2), length=3)"
)
KERNEL_REPR = (
    "SymmetricKernel(arity=2, alphabet=Alphabet(symbols=(Symbol(label='a', "
    "value=Fraction(0, 1)), Symbol(label='b', value=Fraction(1, 2)))), entries=((('a', 'a'), "
    "Fraction(0, 1)), (('a', 'b'), Fraction(1, 2)), (('b', 'b'), Fraction(1, 2))))"
)


class TestRecords:
    """Models, alphabets and kernels are immutable records: they print as
    before, equal only their own class and hash as their field tuple."""

    def model(self):
        return urn_model([("a", 0), ("b", F(1, 2))], {"a": 1, "b": F(3, 2)}, F(-1, 2), 3)

    def test_repr_is_pinned(self):
        model = self.model()
        assert repr(model) == MODEL_REPR
        assert repr(builtin_kernel(model.alphabet, 2, "max")) == KERNEL_REPR
        assert repr(MixtureModel(F(1, 3))) == "MixtureModel(epsilon=Fraction(1, 3))"

    def test_equal_only_within_the_class(self):
        model = self.model()
        kernel = builtin_kernel(model.alphabet, 2, "max")
        for record, names in [
            (model, "alphabet alpha c length"),
            (kernel, "arity alphabet entries"),
            (model.alphabet, "symbols"),
            (MixtureModel(F(1, 3)), "epsilon"),
        ]:
            fields = tuple(getattr(record, name) for name in names.split())
            assert record != fields and fields != record and not record == fields
            subclass = type("Other", (type(record),), {})(*fields)
            assert record != subclass and subclass != record and not record == subclass
            # a bare namedtuple equals every equal tuple on its own side
            named = namedtuple(type(record).__name__, names)(*fields)
            assert record != named and not record == named
            assert hash(record) == hash(fields)
        assert self.model() == model and hash(self.model()) == hash(model)

    def test_immutable_and_caches_start_empty(self):
        model = self.model()
        model.size_law(2)
        with pytest.raises(AttributeError):
            model.c = F(1)
        with pytest.raises(AttributeError):
            model.extra = 1
        again = self.model()
        assert again == model
        assert "_size_laws" in vars(model) and "_size_laws" not in vars(again)

    @pytest.mark.parametrize("length, alpha, error", [
        (0, {"a": 1, "b": 1}, ValidationError),
        (-2, {"a": 1, "b": 1}, ValidationError),
        (3, {"a": -1, "b": 2}, ValidationError),
        (3, {"a": 1, "z": 1}, UnknownSymbol),
        (3, {"a": 0, "b": 0}, EmptyMeasure),
        (3, {"a": 0.5, "b": 1}, ValidationError),
        (3, {"a": 1, "b": True}, ValidationError),
        # the length is passed on as given, never truncated or parsed
        (2.7, {"a": 1, "b": 1}, ValidationError),
        (True, {"a": 1, "b": 1}, ValidationError),
        ("3", {"a": 1, "b": 1}, ValidationError),
    ])
    def test_bad_fields_raise_the_same_class(self, length, alpha, error):
        with pytest.raises(ValidationError) as exc:
            urn_model(["a", "b"], alpha, 1, length)
        assert type(exc.value) is error

    def test_bad_alphabet_raises(self):
        for symbols in [(), (Symbol("a"), Symbol("a"))]:
            with pytest.raises(ValidationError) as exc:
                Alphabet(symbols)
            assert type(exc.value) is ValidationError


class TestCanon:
    @given(labels=st.lists(st.sampled_from(["c", "a", "b", "x", "", "A"]), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_equals_sorting_by_index(self, labels):
        alphabet = urn_model(["c", "a", "b"], {"c": 1, "a": 1, "b": 1}, 1, 3).alphabet
        try:
            expected = tuple(sorted(labels, key=alphabet.index))
        except UnknownSymbol as exc:
            with pytest.raises(UnknownSymbol) as got:
                alphabet.canon(labels)
            assert str(got.value) == str(exc)
        else:
            assert alphabet.canon(labels) == expected
            assert alphabet.canon(iter(labels)) == expected


class TestJointPmf:
    def test_polya_two_heads(self):
        assert polya().joint_pmf(("a", "a")) == F(1, 3)

    def test_iid_product_form(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 6)
        seq = ("a", "b", "b", "a")
        expected = F(1, 4) ** 2 * F(3, 4) ** 2
        assert m.joint_pmf(seq) == expected

    def test_without_replacement_repeat_impossible(self):
        assert wor_uniform(["a", "b", "c"], 2).joint_pmf(("a", "a")) == 0

    def test_length_guard(self):
        with pytest.raises(LengthExceeded):
            polya(2).joint_pmf(("a", "a", "a"))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, data):
        m = data.draw(st.sampled_from([
            polya(6),
            urn_model(["a", "b", "c"], {"a": 1, "b": F(1, 2), "c": 2}, F(1, 3), 6),
            wor_uniform(["a", "b", "c", "d"], 3),
        ]))
        seq = data.draw(st.lists(st.sampled_from(m.alphabet.labels),
                                 min_size=1, max_size=min(4, m.length)))
        perm = data.draw(st.permutations(seq))
        assert m.joint_pmf(seq) == m.joint_pmf(perm)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_chain_rule(self, data):
        m = data.draw(st.sampled_from([
            polya(6),
            urn_model(["a", "b"], {"a": 2, "b": 2}, -1, 4),
        ]))
        head = data.draw(st.lists(st.sampled_from(m.alphabet.labels),
                                  min_size=1, max_size=2))
        tail = data.draw(st.lists(st.sampled_from(m.alphabet.labels),
                                  min_size=1, max_size=2))
        whole = m.joint_pmf(tuple(head) + tuple(tail))
        first = m.joint_pmf(head)
        if first == 0:
            assert whole == 0
        else:
            assert whole == first * m.posterior(head).joint_pmf(tail)


class TestPredictive:
    def test_polya_update(self):
        assert polya().predictive(("a",)) == {"a": F(2, 3), "b": F(1, 3)}

    def test_iid_ignores_prefix(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 6)
        assert m.predictive(("b", "b")) == m.predictive(())

    def test_without_replacement_removal(self):
        law = wor_uniform(["a", "b", "c"], 2).predictive(("a",))
        assert law == {"a": 0, "b": F(1, 2), "c": F(1, 2)}

    def test_no_draw_left(self):
        with pytest.raises(LengthExceeded):
            polya(1).predictive(("a",))

    def test_sums_to_one(self):
        m = urn_model(["a", "b", "c"], {"a": 1, "b": F(1, 2), "c": 2}, F(1, 3), 6)
        for prefix in [(), ("a",), ("a", "c"), ("b", "b")]:
            assert sum(m.predictive(prefix).values()) == 1


class TestPosterior:
    def test_polya_adds_mass(self):
        post = polya().posterior(("a",))
        assert dict(post.alpha) == {"a": F(2), "b": F(1)}
        assert post.length == 7

    def test_iid_only_length_changes(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 6)
        post = m.posterior(("a", "b"))
        assert dict(post.alpha) == dict(m.alpha)
        assert post.length == 4

    def test_without_replacement_decrements(self):
        post = wor_uniform(["a", "b", "c"], 2).posterior(("a",))
        assert dict(post.alpha) == {"a": F(0), "b": F(1), "c": F(1)}

    def test_cannot_observe_whole_horizon(self):
        with pytest.raises(LengthExceeded):
            polya(2).posterior(("a", "b"))


class TestMultisetWeight:
    def test_polya_pair(self):
        assert polya().multiset_weight(("a", "b")) == F(1, 3)

    def test_empty_multiset(self):
        assert polya().multiset_weight(()) == 1

    def test_normalization(self):
        models = [
            polya(5),
            urn_model(["a", "b", "c"], {"a": 1, "b": F(1, 2), "c": 2}, F(1, 3), 5),
            wor_uniform(["a", "b", "c", "d"], 3),
        ]
        for m in models:
            for n in range(1, 4):
                total = sum(m.multiset_weight(ms) for ms in m.alphabet.multisets(n))
                assert total == 1


class TestSampling:
    def test_deterministic(self):
        m = polya()
        assert m.sample(5, 123456789) == m.sample(5, 123456789)

    def test_full_permutation_without_replacement(self):
        m = wor_uniform(["a", "b", "c"], 3)
        assert sorted(m.sample(3, 7)) == ["a", "b", "c"]

    def test_iid_frequencies_within_four_sigma(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 1)
        n = 5000
        count = sum(m.sample(1, seed=900 + i)[0] == "a" for i in range(n))
        p = F(1, 4)
        assert (F(count) - n * p) ** 2 <= 16 * n * p * (1 - p)

    def test_length_guard(self):
        with pytest.raises(LengthExceeded):
            polya(2).sample(3, 1)

    @pytest.mark.parametrize("model, seed, expected", [
        (urn_model(["a", "b", "c", "d"], {"a": F(1, 2), "b": 0, "c": F(3, 2), "d": 2}, 1, 10),
         2024, "c c c d d d d d d c"),
        (urn_model(["a", "b", "c"], {"a": 2, "b": 1, "c": 3}, -1, 6), 7, "c a a c b c"),
        (urn_model(["x", "y", "z"], {"x": F(1, 3), "y": F(2, 7), "z": 1}, F(5, 11), 8),
         31337, "z z z y y y y z"),
        (urn_model(["a", "b"], {"a": F(3, 2), "b": F(1, 2)}, F(-1, 2), 4), 99, "a a a b"),
        (urn_model(["0", "1"], {"0": 1, "1": 3}, 0, 12), 2**64 - 1,
         "0 1 1 0 1 1 1 0 0 1 1 1"),
    ])
    def test_golden_streams(self, model, seed, expected):
        # the mt19937-cdf64 stream is part of the output contract
        assert " ".join(model.sample(model.length, seed)) == expected


class TestMixture:
    def test_single_one(self):
        eps = F(2, 5)
        assert MixtureModel(eps).joint_pmf(("1",)) == eps / 2

    def test_eps_one_pair(self):
        assert MixtureModel(F(1)).joint_pmf(("1", "1")) == F(1, 3)

    def test_normalization(self):
        mix = MixtureModel(F(1, 3))
        for n in range(1, 5):
            assert sum(mix.joint_pmf(seq) for seq in product("01", repeat=n)) == 1

    def test_eps_one_equals_polya(self):
        mix = MixtureModel(F(1))
        urn = urn_model(["0", "1"], {"0": 1, "1": 1}, 1, 6)
        for n in range(7):
            for seq in product("01", repeat=n):
                assert mix.joint_pmf(seq) == urn.joint_pmf(seq)

    def test_epsilon_range(self):
        with pytest.raises(ValidationError):
            MixtureModel(F(0))
        with pytest.raises(ValidationError):
            MixtureModel(F(3, 2))

    def test_rejects_foreign_labels(self):
        with pytest.raises(UnknownSymbol):
            MixtureModel(F(1, 2)).joint_pmf(("a",))


MIX = MixtureModel(F(1, 2))
MAX2 = builtin_kernel(MIX.alphabet, 2, "max")
MAX3 = builtin_kernel(MIX.alphabet, 3, "max")
CENTERED2 = MAX2.shift(-expectation(MIX, MAX2))
# degenerate under the mixture, so the routes that check degeneracy first
# still reach the rate
DEGENERATE = degenerate_basis(MIX, 2)[0]
URN_ONLY_ROUTES = {
    "expand_conditional": lambda: expand_conditional(MIX, MAX2, ("0",), ("1",)),
    "nested_conditional": lambda: nested_conditional(MIX, MAX3, 1, 1, ("0", "1")),
    "nested_conditional_sum": lambda: nested_conditional_sum(MIX, MAX3, 1, ("0", "1")),
    "decompose": lambda: decompose(MIX, MAX2, 2),
    "extract_kernel": lambda: extract_kernel(MIX, CENTERED2, 2, 1),
    "project_level": lambda: project_level(MIX, CENTERED2, 2, 1),
    "project_degenerate_ustat": lambda: project_degenerate_ustat(MIX, DEGENERATE, 3),
    "degenerate_cov": lambda: degenerate_cov(MIX, DEGENERATE, DEGENERATE, 1),
    "covariance_levels": lambda: covariance_levels(MIX, CENTERED2, CENTERED2, 2),
    "build_weak_copy": lambda: build_weak_copy(MIX, 1, MAX2, F(1, 2)),
    "max_mean_closed_form": lambda: max_mean_closed_form(MIX, 2),
    "max_cond_closed_form": lambda: max_cond_closed_form(MIX, 3, 1, ("0",)),
    "dirichlet_moment": lambda: dirichlet_moment(MIX, ("0",)),
}


class TestNonUrnRefusal:
    @pytest.mark.parametrize("route", sorted(URN_ONLY_ROUTES))
    def test_mixture_is_refused_by_the_rate(self, route):
        with pytest.raises(ValidationError, match="needs an urn model"):
            URN_ONLY_ROUTES[route]()
