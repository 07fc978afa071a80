import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urnova import (
    build_weak_copy,
    constant_kernel,
    dirichlet_moment,
    indicator_kernel,
    urn_model,
    verify_weak_copy,
)
from urnova.combinatorics import binomial, permutation_count
from urnova.errors import (
    RequiresPositiveC,
    UnknownSymbol,
    ValidationError,
    ZeroProjection,
)
from urnova.weak_copy import TiltedModel
from helpers import random_kernel


def polya01(length=8):
    return urn_model(["0", "1"], {"0": 1, "1": 1}, 1, length)


class TestDirichletMoments:
    def test_first_moment_is_marginal(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 3}, 2, 6)
        assert dirichlet_moment(m, ("a",)) == F(1, 4)

    def test_second_moment_matches_pmf(self):
        m = polya01()
        assert dirichlet_moment(m, ("0", "0")) == F(1, 3) == m.joint_pmf(("0", "0"))

    def test_empty_moment(self):
        assert dirichlet_moment(polya01(), ()) == 1

    def test_moments_reproduce_the_ordered_pmf(self):
        for m in (polya01(), urn_model(["a", "b", "c"],
                                       {"a": 1, "b": F(1, 2), "c": 2}, F(1, 3), 6)):
            for n in range(1, 6):
                for ms in m.alphabet.multisets(n):
                    assert dirichlet_moment(m, ms) == m.joint_pmf(ms)

    def test_requires_positive_c(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 0, 4)
        with pytest.raises(RequiresPositiveC):
            dirichlet_moment(m, ("a",))


class TestBuild:
    def test_indicator_seed_succeeds(self):
        base = polya01()
        tilted = build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")),
                                 F(1, 2))
        assert not tilted.tilt.is_zero()
        assert tilted.certified_density_bound < F(1, 2)

    def test_constant_seed_projects_to_zero(self):
        base = polya01()
        with pytest.raises(ZeroProjection):
            build_weak_copy(base, 1, constant_kernel(base.alphabet, 2, 3), F(1, 2))

    def test_budget_scales_monotonically(self):
        base = polya01()
        seed = indicator_kernel(base.alphabet, ("1", "1"))
        small = build_weak_copy(base, 1, seed, F(1, 4))
        large = build_weak_copy(base, 1, seed, F(1, 2))
        assert large.scale == 2 * small.scale

    def test_rejects_nonpositive_replacement(self):
        base = urn_model(["0", "1"], {"0": 1, "1": 1}, 0, 6)
        with pytest.raises(RequiresPositiveC):
            build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")), F(1, 2))

    def test_eta_domain(self):
        base = polya01()
        with pytest.raises(ValidationError):
            build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")), F(1))

    def test_base_horizon_guard(self):
        from urnova.errors import LengthExceeded

        base = polya01(length=1)
        with pytest.raises(LengthExceeded):
            build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")),
                            F(1, 2))


class TestMarginals:
    def test_small_marginals_equal_base(self):
        base = polya01()
        tilted = build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")),
                                 F(1, 2))
        assert tilted.marginal_pmf(()) == 1
        for label in ("0", "1"):
            assert tilted.marginal_pmf((label,)) == base.joint_pmf((label,))

    def test_some_pair_marginal_moves(self):
        base = polya01()
        tilted = build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")),
                                 F(1, 2))
        moved = [seq for seq in product("01", repeat=2)
                 if tilted.marginal_pmf(seq) != base.joint_pmf(seq)]
        assert moved

    def test_degenerate_moment_mechanism(self):
        # the tilt polynomial is exactly uncorrelated with every event on
        # at most `level` coordinates
        base = polya01()
        for level in (1, 2):
            seed = random_kernel(random.Random(level), base.alphabet, level + 1)
            tilted = build_weak_copy(base, level, seed, F(1, 3))
            for length in range(level + 1):
                for seq in product("01", repeat=length):
                    total = sum(
                        (permutation_count(ms) * v
                         * dirichlet_moment(base, tuple(seq) + ms)
                         for ms, v in tilted.tilt.entries),
                        F(0),
                    )
                    assert total == 0


def moment_oracle(tilted, seq):
    """The tilted pmf summed term by term from dirichlet_moment."""
    base = tilted.base
    correction = sum(
        (permutation_count(ms) * v * dirichlet_moment(base, tuple(seq) + ms)
         for ms, v in tilted.tilt.entries),
        F(0),
    )
    return base.joint_pmf(seq) + tilted.scale * correction


class TestMomentTable:
    @given(seed=st.integers(0, 2**16), level=st.integers(1, 2), size=st.integers(2, 3),
           c=st.sampled_from([F(1), F(1, 3), F(5, 2)]), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_marginal_pmf_matches_dirichlet_moments(self, seed, level, size, c, data):
        rng = random.Random(seed)
        labels = ["a", "b", "c"][:size]
        # zero weights are valid for c > 0: such a letter is never drawn
        alpha = {l: F(rng.randint(0, 4), rng.randint(1, 3)) for l in labels}
        assume(sum(w > 0 for w in alpha.values()) >= 2)
        base = urn_model(labels, alpha, c, level + 2)
        try:
            tilted = build_weak_copy(base, level, random_kernel(rng, base.alphabet, level + 1),
                                     F(1, 2))
        except ZeroProjection:
            assume(False)
        sequences = data.draw(st.lists(
            st.lists(st.sampled_from(labels), max_size=base.length), min_size=1, max_size=8))
        for seq in sequences:
            assert tilted.marginal_pmf(seq) == moment_oracle(tilted, seq)

    def test_unknown_symbol(self):
        base = polya01()
        tilted = build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")),
                                 F(1, 2))
        with pytest.raises(UnknownSymbol):
            tilted.marginal_pmf(("0", "z"))

    def test_nonpositive_c_needs_zero_scale(self):
        built = build_weak_copy(polya01(), 1,
                                indicator_kernel(polya01().alphabet, ("1", "1")), F(1, 2))
        iid = urn_model(["0", "1"], {"0": 1, "1": 1}, 0, 8)
        frozen = TiltedModel(iid, 1, built.tilt, F(0), built.eta)
        assert frozen.marginal_pmf(("0", "1")) == iid.joint_pmf(("0", "1"))
        tilted = TiltedModel(iid, 1, built.tilt, built.scale, built.eta)
        with pytest.raises(RequiresPositiveC):
            tilted.marginal_pmf(("0",))


class TestVerify:
    def test_successful_build_passes(self):
        base = polya01()
        for level in (1, 2):
            seed = random_kernel(random.Random(10 + level), base.alphabet, level + 1)
            tilted = build_weak_copy(base, level, seed, F(1, 2))
            report = verify_weak_copy(tilted)
            assert report.passed
            assert report.small_marginals_match and report.exchangeable
            assert report.normalized and report.discrepancy

    def test_zero_scale_is_flagged_degenerate(self):
        base = polya01()
        built = build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")),
                                F(1, 2))
        frozen = TiltedModel(base, 1, built.tilt, F(0), built.eta)
        report = verify_weak_copy(frozen)
        assert report.degenerate_copy and not report.discrepancy
        assert report.passed  # degenerate copies reproduce the base exactly

    @pytest.mark.parametrize("labels, level", [("01", 1), ("01", 2), ("abc", 1), ("abc", 2)])
    def test_one_evaluation_per_multiset(self, monkeypatch, labels, level):
        # the report reads each multiset's pair once and reuses it for every
        # ordering; exchangeability itself is pinned here, against the
        # term-by-term moment oracle on every ordered sequence
        base = urn_model(list(labels), {l: i + 1 for i, l in enumerate(labels)}, 1, level + 3)
        seed = random_kernel(random.Random(level), base.alphabet, level + 1)
        tilted = build_weak_copy(base, level, seed, F(1, 2))
        lengths = []
        original = TiltedModel.marginal_pmf

        def counted(self, seq):
            lengths.append(len(tuple(seq)))
            return original(self, seq)

        monkeypatch.setattr(TiltedModel, "marginal_pmf", counted)
        report = verify_weak_copy(tilted)
        top = level + 2
        assert sorted(lengths) == [m for m in range(top + 1)
                                   for _ in range(binomial(len(labels) + m - 1, m))]
        monkeypatch.undo()
        expected = [(seq, base.joint_pmf(seq), moment_oracle(tilted, seq))
                    for m in range(top + 1) for seq in product(labels, repeat=m)]
        assert list(report.marginals) == expected
        for seq, _, p in expected:
            assert tilted.marginal_pmf(seq) == p
        assert report.passed and report.exchangeable

    def test_marginal_tables_normalized(self):
        base = polya01()
        tilted = build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")),
                                 F(1, 2))
        for length in (1, 2, 3):
            assert sum(tilted.marginal_pmf(seq)
                       for seq in product("01", repeat=length)) == 1
