import random
from fractions import Fraction as F
from itertools import product

import pytest

from urnova import (
    constant_kernel,
    covariance_levels,
    decompose,
    degenerate_cov,
    diagonal_family,
    expectation,
    extract_kernel,
    indicator_kernel,
    is_degenerate,
    project_degenerate_ustat,
    project_level,
    urn_model,
    ustat_norm_lower_constant,
    ustat_square_norm,
    ustatistic,
    wor_level_variance_derived,
    wor_level_variance_printed,
    zero_kernel,
)
from urnova.errors import (
    DegeneracyViolated,
    IndexOutOfRange,
    ValidationError,
)
from helpers import (
    gram_level,
    iid_level_kernels,
    model_grid,
    random_centered,
    random_degenerate,
    random_kernel,
    values_agree,
)


def polya2(length=9):
    return urn_model(["a", "b"], {"a": 1, "b": 2}, 1, length)


class TestProjectLevel:
    def test_first_level_closed_form(self):
        model = polya2()
        M = 4
        T = random_centered(random.Random(0), model, M)
        fam = diagonal_family(model, T)
        coef = (model.alpha_total + model.c) / (model.alpha_total + model.c * M)
        level1 = project_level(model, T, M, 1)
        for ms in model.support_multisets(M):
            want = coef * sum(fam.value((label,)) for label in ms)
            assert level1.value(ms) == want

    def test_zero_statistic(self):
        model = polya2()
        z = zero_kernel(model.alphabet, 3)
        for s in (1, 2, 3):
            assert project_level(model, z, 3, s).is_zero()

    def test_levels_sum_to_statistic(self):
        model = polya2()
        M = 4
        T = random_centered(random.Random(1), model, M)
        levels = [project_level(model, T, M, s) for s in range(1, M + 1)]
        for ms in model.support_multisets(M):
            assert sum(L.value(ms) for L in levels) == T.value(ms)

    def test_requires_centered(self):
        model = polya2()
        with pytest.raises(ValidationError):
            project_level(model, constant_kernel(model.alphabet, 3, 1), 3, 1)

    def test_level_range(self):
        model = polya2()
        T = random_centered(random.Random(2), model, 3)
        with pytest.raises(IndexOutOfRange):
            project_level(model, T, 3, 4)


class TestExtractKernel:
    def test_ustatistic_reproduces_level(self):
        model = polya2()
        M = 4
        T = random_centered(random.Random(3), model, M)
        for s in range(1, M + 1):
            phi = extract_kernel(model, T, M, s)
            assert values_agree(
                model, ustatistic(phi, M), project_level(model, T, M, s), M
            )

    def test_top_level_single_term(self):
        # at s = M the star coefficients and the plain ones coincide and the
        # leading term contributes the statistic itself
        model = polya2()
        M = 3
        T = random_centered(random.Random(4), model, M)
        phi = extract_kernel(model, T, M, M)
        fam = diagonal_family(model, T)
        from urnova.coefficients import theta_table
        table = theta_table(M, model.rate)
        from itertools import combinations
        for ms in model.support_multisets(M):
            tail = sum(
                (table.theta_star[(M, a)]
                 * sum(fam.value(tuple(ms[i] for i in pick))
                       for pick in combinations(range(M), a))
                 for a in range(1, M)),
                F(0),
            )
            assert phi.value(ms) == T.value(ms) + tail

    def test_iid_matches_inclusion_exclusion(self):
        model = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 9)
        M = 4
        T = random_centered(random.Random(5), model, M)
        classical = iid_level_kernels(model, T)
        d = decompose(model, T, M)
        for s in range(1, M + 1):
            assert values_agree(model, d.kernels[s - 1], classical[s - 1], s)


class TestDecompose:
    def test_constant_statistic(self):
        model = polya2()
        d = decompose(model, constant_kernel(model.alphabet, 3, F(9, 2)), 3)
        assert d.mean == F(9, 2)
        assert all(k.is_zero() for k in d.kernels)

    def test_additive_statistic_lives_at_level_one(self):
        model = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 7)
        M = 3
        h = indicator_kernel(model.alphabet, ("a",))
        T = ustatistic(h, M)
        d = decompose(model, T, M)
        assert not d.kernels[0].is_zero()
        for s in range(2, M + 1):
            assert all(d.kernels[s - 1].value(ms) == 0
                       for ms in model.support_multisets(s))

    def test_reconstruction(self):
        rng = random.Random(6)
        for model in model_grid(2, 7):
            T = random_kernel(rng, model.alphabet, 3)
            d = decompose(model, T, 3)
            for ms in model.support_multisets(3):
                assert d.reconstruction_value(ms) == T.value(ms)

    def test_extracted_kernels_are_degenerate(self):
        rng = random.Random(7)
        for model in model_grid(2, 7):
            T = random_kernel(rng, model.alphabet, 3)
            d = decompose(model, T, 3)
            for k in d.kernels:
                assert is_degenerate(model, k)

    def test_without_replacement_matches_gram_oracle(self):
        # four-item urn, two draws, indicator of one unordered pair
        model = urn_model(["a", "b", "c", "d"], {l: 1 for l in "abcd"}, -1, 2)
        T = indicator_kernel(model.alphabet, ("a", "b"))
        mean = expectation(model, T)
        centered = T.shift(-mean)
        for s in (1, 2):
            mine = project_level(model, centered, 2, s)
            oracle = gram_level(model, centered, s)
            assert values_agree(model, mine, oracle, 2)

    def test_uniqueness_under_reextraction(self):
        model = polya2()
        M = 4
        T = random_centered(random.Random(8), model, M)
        d = decompose(model, T, M)
        for s in range(1, M + 1):
            again = decompose(model, ustatistic(d.kernels[s - 1], M), M)
            assert values_agree(model, again.kernels[s - 1], d.kernels[s - 1], s)
            for other in range(1, M + 1):
                if other != s:
                    assert all(
                        again.kernels[other - 1].value(ms) == 0
                        for ms in model.support_multisets(other)
                    )


class TestDegenerateUstatProjection:
    def test_matches_general_projection(self):
        model = polya2()
        M = 4
        for n in (1, 2):
            g = random_degenerate(random.Random(10 + n), model, n)
            stat = ustatistic(g, M)
            mine = project_degenerate_ustat(model, g, M)
            general = project_level(model, stat, M, n)
            assert values_agree(model, mine, general, M)
            # and the projection is the statistic itself
            assert values_agree(model, mine, stat, M)

    def test_zero_kernel(self):
        model = polya2()
        z = zero_kernel(model.alphabet, 2)
        assert project_degenerate_ustat(model, z, 4).is_zero()

    def test_saturated_projection_is_identity(self):
        model = polya2()
        g = random_degenerate(random.Random(12), model, 2)
        assert values_agree(model, project_degenerate_ustat(model, g, 2),
                            ustatistic(g, 2), 2)

    def test_rejects_nondegenerate(self):
        model = polya2()
        with pytest.raises(DegeneracyViolated):
            project_degenerate_ustat(model, constant_kernel(model.alphabet, 2, 1), 4)


def overlapped_product_oracle(model, T, V, r):
    n = T.arity
    total = F(0)
    for seq in product(model.alphabet.labels, repeat=2 * n - r):
        p = model.joint_pmf(seq)
        if p:
            total += p * T.value(seq[:n]) * V.value(seq[:r] + seq[n:])
    return total


class TestDegenerateCovariance:
    def test_full_overlap_is_product_moment(self):
        model = polya2()
        T = random_degenerate(random.Random(20), model, 2)
        V = random_degenerate(random.Random(21), model, 2)
        assert degenerate_cov(model, T, V, 2) == expectation(model, T.pointwise_product(V))

    def test_iid_disjoint_blocks_uncorrelated(self):
        model = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 9)
        T = random_degenerate(random.Random(22), model, 2)
        assert degenerate_cov(model, T, T, 0) == 0

    def test_matches_enumeration(self):
        rng = random.Random(23)
        for model in model_grid(3, 7):
            for n in (1, 2, 3):
                T = random_degenerate(rng, model, n)
                V = random_degenerate(rng, model, n)
                for r in range(n + 1):
                    assert (degenerate_cov(model, T, V, r)
                            == overlapped_product_oracle(model, T, V, r))

    def test_rejects_nondegenerate(self):
        model = polya2()
        with pytest.raises(DegeneracyViolated):
            degenerate_cov(model, constant_kernel(model.alphabet, 2, 1),
                           constant_kernel(model.alphabet, 2, 1), 1)


class TestCovarianceLevels:
    def test_total_is_product_moment(self):
        rng = random.Random(30)
        for model in model_grid(2, 9):
            for M in (2, 3, 4):
                T = random_centered(rng, model, M)
                Z = random_centered(rng, model, M)
                levels, total = covariance_levels(model, T, Z, M)
                assert total == expectation(model, T.pointwise_product(Z))

    def test_self_covariance_levels_are_square_norms(self):
        model = polya2()
        M = 4
        T = random_centered(random.Random(31), model, M)
        levels, total = covariance_levels(model, T, T, M)
        assert all(x >= 0 for x in levels)
        for s in range(1, M + 1):
            L = project_level(model, T, M, s)
            assert levels[s - 1] == expectation(model, L.pointwise_product(L))


class TestUstatNormBound:
    def test_small_case_value(self):
        assert ustat_norm_lower_constant(3, 2, 1) == F(4, 3)

    def test_single_coordinate_substitution(self):
        for N in (10, 100):
            want = min(F(1), F((2 * N - 2 - 1) * 1, (2 * N - 3)))
            assert ustat_norm_lower_constant(N, 1, 1) == want == 1

    def test_inequality_on_random_kernels(self):
        rng = random.Random(40)
        N = 4
        models = [
            urn_model(["a", "b"], {"a": 1, "b": 3}, F(1, 2), N - 1),
            urn_model(["a", "b"], {"a": N - 1, "b": N - 1}, -1, N - 1),
        ]
        for model in models:
            assert model.is_double_extendible
            for n in range(1, N):
                for i in range(1, n + 1):
                    k = ustat_norm_lower_constant(N, n, i)
                    for _ in range(10):
                        phi = random_kernel(rng, model.alphabet, i)
                        lhs = ustat_square_norm(model, phi, n)
                        rhs = k * expectation(model, phi.pointwise_product(phi))
                        assert lhs >= rhs

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            ustat_norm_lower_constant(3, 3, 1)


class TestWithoutReplacementVariance:
    def test_printed_vanishes_past_population_gap(self):
        assert wor_level_variance_printed(5, 3, 3, F(1)) == 0

    def test_zero_norm(self):
        assert wor_level_variance_printed(6, 2, 1, F(0)) == 0

    def test_derived_matches_enumeration(self):
        rng = random.Random(50)
        for population, sample in [(6, 3), (6, 2), (4, 2), (4, 1), (6, 1)]:
            labels = [str(i) for i in range(population)]
            model = urn_model(labels, {l: 1 for l in labels}, -1, sample)
            for i in range(1, sample + 1):
                g = random_degenerate(rng, model, i)
                lhs = ustat_square_norm(model, g, sample)
                rhs = (wor_level_variance_derived(population, sample, i)
                       * expectation(model, g.pointwise_product(g)))
                assert lhs == rhs

    def test_printed_disagreement_is_reported_not_hidden(self):
        # the printed arrangement vanishes whenever level < sample; the
        # derived constant does not -- both stay available for reports
        printed = wor_level_variance_printed(6, 3, 1, F(1))
        derived = wor_level_variance_derived(6, 3, 1)
        assert printed == 0 and derived == F(9, 5)


class TestShortPopulationSampling:
    """Sampling runs longer than half the population: the coefficient route
    is genuinely undefined (zero denominators), and empirically the high
    projection levels vanish -- statistics live in the low U-statistic span."""

    def test_coefficient_route_refuses(self):
        from urnova.coefficients import theta_table
        from urnova.errors import DegenerateAssumption, ZeroDenominator

        with pytest.raises((ZeroDenominator, DegenerateAssumption)):
            theta_table(2, F(-1, 3))

    def test_top_gram_level_vanishes(self):
        rng = random.Random(60)
        # population 3, two draws: every centered symmetric statistic
        # projects entirely onto the level-1 span (3 - 2 = 1)
        model = urn_model(["a", "b", "c"], {l: 1 for l in "abc"}, -1, 2)
        for _ in range(10):
            T = random_centered(rng, model, 2)
            top = gram_level(model, T, 2)
            assert all(top.value(ms) == 0 for ms in model.support_multisets(2))
            low = gram_level(model, T, 1)
            assert values_agree(model, low, T, 2)
