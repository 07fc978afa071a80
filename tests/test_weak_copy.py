import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urnova import (
    build_weak_copy,
    check_weak_independence,
    constant_kernel,
    degenerate_basis,
    dirichlet_moment,
    indicator_kernel,
    symmetrized_offdiagonal,
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
from urnova.weak_independence import Violation
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


def zero_letter_copy(c):
    """A weak copy over a, b and a letter z of zero weight: built by the
    tilt when c > 0, at scale zero (the base law itself) otherwise."""
    alpha = {"a": 3, "b": 4, "z": 0} if c < 0 else {"a": 1, "b": F(1, 2), "z": 0}
    base = urn_model(["a", "b", "z"], alpha, c, 4)
    built = build_weak_copy(polya01(), 1, indicator_kernel(polya01().alphabet, ("1", "1")),
                            F(1, 2))
    if c <= 0:
        return TiltedModel(base, 1, built.tilt, F(0), built.eta)
    return build_weak_copy(base, 1, random_kernel(random.Random(7), base.alphabet, 2), F(1, 2))


class TestTiltedLaw:
    """A weak copy is a law over its base's alphabet and horizon whose
    size laws come from the default primitive: ratios of marginal_pmf."""

    @pytest.mark.parametrize("c", [F(1), F(1, 3), F(0), F(-1)])
    def test_laws_are_ratios_of_marginal_pmf(self, c):
        tilted = zero_letter_copy(c)
        labels = tilted.alphabet.labels
        pmf = tilted.marginal_pmf

        def brute(observed, k):
            law = {ext: F(0) for ext in tilted.alphabet.multisets(k)}
            for seq in product(labels, repeat=k):
                law[tilted.alphabet.canon(seq)] += pmf(observed + seq) / pmf(observed)
            return law

        assert tilted.length == tilted.base.length == 4
        for m in range(tilted.length + 1):
            assert tilted.size_law(m) == brute((), m)
            for observed in tilted.support_multisets(m):
                for k in range(tilted.length - m + 1):
                    assert tilted.extension_law(observed, k) == brute(observed, k)
                if m < tilted.length:
                    assert tilted.predictive(observed) == {
                        a: pmf(observed + (a,)) / pmf(observed) for a in labels}
        assert tilted.size_law(1)[("z",)] == 0

    def test_zero_probability_is_refused(self):
        tilted = zero_letter_copy(F(1))
        for observed in (("z",), ("a", "z")):
            with pytest.raises(ValidationError) as refusal:
                tilted.extension_law(observed, 1)
            assert repr(observed) in str(refusal.value)
        # the urn's closed form refuses the same observation
        with pytest.raises(ValidationError,
                           match=r"cannot condition on \('z',\): it has probability zero"):
            tilted.base.predictive(("z",))

    def test_constant_tilt_stays_unnormalized(self):
        base = polya01()
        tilted = TiltedModel(base, 1, constant_kernel(base.alphabet, 2, 1), F(1, 4), F(1, 2))
        assert tilted.size_law(0) == {(): F(5, 4)}
        assert sum(tilted.size_law(2).values()) == F(5, 4)
        report = verify_weak_copy(tilted)
        assert not report.normalized and not report.passed

    @pytest.mark.parametrize("level, length, failing", [(1, 6, 2), (2, 6, 2), (3, 7, 3)])
    def test_weak_independence_of_copies(self, level, length, failing):
        base = urn_model(["a", "b", "c"], {"a": 1, "b": 2, "c": 3}, 1, length)
        seed = random_kernel(random.Random(level), base.alphabet, level + 1)
        tilted = build_weak_copy(base, level, seed, F(1, 2))
        # levels n with 2n - 1 <= level read marginals of at most `level`
        # coordinates, which the copy shares with the base
        for n in range(1, (level + 1) // 2 + 1):
            assert check_weak_independence(tilted, n) == check_weak_independence(base, n)
        assert check_weak_independence(base, failing).passed
        report = check_weak_independence(tilted, failing)
        expected = []
        for r in range(failing - 1):
            for b, kernel in enumerate(degenerate_basis(tilted, failing)):
                oracle = symmetrized_offdiagonal(tilted, kernel, r)
                expected += [Violation(b, r, ms, oracle.value(ms))
                             for ms in tilted.support_multisets(failing - 1) if oracle.value(ms)]
        assert report.violations == tuple(expected)
        assert len(expected) == {1: 9, 2: 9, 3: 46}[level]
