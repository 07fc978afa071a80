"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (run with -s to watch them stream).

Everything asserted here is an exact rational identity unless the line says
otherwise; the only tolerances are the four-sigma gates on seeded Monte
Carlo counts, evaluated as exact integer inequalities.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations, product

from urnova import (
    MixtureModel,
    build_weak_copy,
    check_weak_independence,
    cond_expectation,
    covariance_levels,
    decompose,
    degenerate_cov,
    diagonal_family,
    expand_conditional,
    expectation,
    indicator_kernel,
    nested_conditional,
    nested_conditional_at,
    nested_conditional_sum,
    project_level,
    theta_table,
    urn_model,
    ustat_norm_lower_constant,
    ustat_square_norm,
    verify_weak_copy,
    witness_report,
    wor_level_variance_derived,
    wor_level_variance_printed,
)
from urnova.cli import main
from helpers import (
    gram_level,
    iid_level_kernels,
    model_grid,
    random_centered,
    random_degenerate,
    random_kernel,
    values_agree,
)


@contextmanager
def criterion(num, label, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} FAIL  {label}")
        raise
    elapsed = time.monotonic() - start
    stamp = f" [{elapsed:.2f}s]" if budget else ""
    print(f"\nACCEPTANCE {num:2d} PASS  {label}{stamp}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def random_rate_pairs(rng, M, count):
    """Random (alpha_total, c) with every denominator in the horizon-M
    tables positive."""
    pairs = []
    while len(pairs) < count:
        a = F(rng.randint(1, 12), rng.randint(1, 6))
        if len(pairs) % 3 == 2:
            c = F(-rng.randint(1, 3), rng.randint(1, 6))
            if a + 2 * M * c <= 0:
                continue
        else:
            c = F(rng.randint(0, 9), rng.randint(1, 6))
        pairs.append((a, c))
    return pairs


def test_criterion_01_theta_closed_forms():
    with criterion(1, "theta closed forms, M=2..6, 20 random (mass, c) pairs", budget=1.0):
        rng = random.Random(101)
        for M in range(2, 7):
            for a, c in random_rate_pairs(rng, M, 20):
                t = theta_table(M, c / a)
                assert t.theta[(1, 1)] == (a + c) / (a + c * M)
                assert t.theta[(2, 1)] == -(M - 1) * (a + 3 * c) * (a + c) / (
                    (a + c * M) * (a + c * (M + 1)))
                assert t.theta[(2, 2)] == (a + 3 * c) * (a + 2 * c) / (
                    (a + M * c) * (a + c * (M + 1)))


_GRID = None


def decomposition_grid():
    """|A| in {2,3} x M in {2..5}, 50 random kernels per configuration,
    cycling the four replacement regimes; shared by criteria 2 and 3."""
    global _GRID
    if _GRID is None:
        rng = random.Random(202)
        grid = []
        for size in (2, 3):
            models = model_grid(size, 9)
            for M in range(2, 6):
                for j in range(50):
                    model = models[j % len(models)]
                    T = random_kernel(rng, model.alphabet, M)
                    d = decompose(model, T, M)
                    centered = T.shift(-d.mean)
                    levels = [project_level(model, centered, M, s)
                              for s in range(1, M + 1)]
                    grid.append((model, T, d, levels))
        _GRID = grid
    return _GRID


def test_criterion_02_reconstruction_and_orthogonality():
    with criterion(2, "reconstruction + orthogonality, |A|x M grid, 50 kernels each",
                   budget=120.0):
        for model, T, d, levels in decomposition_grid():
            M = d.horizon
            for ms in model.support_multisets(M):
                assert d.reconstruction_value(ms) == T.value(ms)
                assert (d.mean + sum(L.value(ms) for L in levels)
                        == T.value(ms))
            for s in range(M):
                for t in range(s + 1, M):
                    inner = expectation(
                        model, levels[s].pointwise_product(levels[t]))
                    assert inner == 0


def test_criterion_03_degeneracy_of_extracted_kernels():
    with criterion(3, "all admissible partial-overlap conditionals of extracted kernels vanish"):
        for model, T, d, _levels in decomposition_grid():
            for s in range(1, d.horizon + 1):
                phi = d.kernels[s - 1]
                for r in range(s):
                    if 2 * s - r - 1 > model.length:
                        continue
                    for common in model.support_multisets(r):
                        for extra in model.support_multisets(s - 1 - r):
                            whole = model.alphabet.canon(common + extra)
                            if model.multiset_weight(whole) == 0:
                                continue
                            assert cond_expectation(model, phi, common, extra) == 0


def test_criterion_04_expansions_match_oracles():
    with criterion(4, "conditional expansion identities == enumeration oracles, n,M <= 4",
                   budget=60.0):
        rng = random.Random(404)
        for size in (2, 3):
            for model in model_grid(size, 8):
                # partial-overlap expansion of a statistic's conditionals
                for arity in range(1, 5):
                    T = random_kernel(rng, model.alphabet, arity)
                    for r in range(arity + 1):
                        for extra_len in range(arity - r + 1):
                            for common in model.support_multisets(r):
                                for extra in model.support_multisets(extra_len):
                                    if model.multiset_weight(
                                            model.alphabet.canon(common + extra)) == 0:
                                        continue
                                    assert (expand_conditional(model, T, common, extra)
                                            == cond_expectation(model, T, common, extra))
                # nested conditionals of diagonal conditionals, plus their sums
                M = 4
                T = random_kernel(rng, model.alphabet, M)
                fam = diagonal_family(model, T)

                def two_stage(m_, r, vals):
                    obs = model.alphabet.canon(vals)
                    return sum(
                        (w * fam.value(tuple(vals[:r]) + ext)
                         for ext, w in model.extension_law(obs, m_ - r).items() if w),
                        F(0),
                    )

                for n in range(1, M + 1):
                    for m_ in range(1, n + 1):
                        for vals in product(model.alphabet.labels, repeat=n):
                            if model.multiset_weight(model.alphabet.canon(vals)) == 0:
                                continue
                            for r in range(m_ + 1):
                                assert (nested_conditional(model, T, m_, r, vals)
                                        == two_stage(m_, r, vals))
                            brute = sum(
                                (nested_conditional_at(
                                    model, T, block, tuple(range(1, n + 1)), vals)
                                 for block in combinations(range(1, M + 1), m_)),
                                F(0),
                            )
                            assert nested_conditional_sum(model, T, m_, vals) == brute


def test_criterion_05_classical_reductions():
    with criterion(5, "c=0 equals i.i.d. inclusion-exclusion; c=-1 equals Gram projection"):
        rng = random.Random(505)
        # i.i.d. route
        for size in (2, 3):
            labels = ["u", "v", "w"][:size]
            model = urn_model(labels, {l: i + 1 for i, l in enumerate(labels)}, 0, 9)
            for M in (2, 3, 4):
                for _ in range(5):
                    T = random_centered(rng, model, M)
                    classical = iid_level_kernels(model, T)
                    d = decompose(model, T, M)
                    for s in range(1, M + 1):
                        assert values_agree(model, d.kernels[s - 1],
                                            classical[s - 1], s)
        # sampling-without-replacement route
        wor_cases = [
            urn_model(["a", "b", "c", "d"], {l: 1 for l in "abcd"}, -1, 2),
            urn_model(["u", "v"], {"u": 4, "v": 4}, -1, 3),
            urn_model(["u", "v", "w"], {"u": 3, "v": 3, "w": 3}, -1, 4),
        ]
        for model in wor_cases:
            M = model.length
            for _ in range(4):
                T = random_centered(rng, model, M)
                for s in range(1, M + 1):
                    assert values_agree(model, project_level(model, T, M, s),
                                        gram_level(model, T, s), M)
        # the named small case: pair indicator under a four-item urn
        model = wor_cases[0]
        T = indicator_kernel(model.alphabet, ("a", "b"))
        centered = T.shift(-expectation(model, T))
        for s in (1, 2):
            assert values_agree(model, project_level(model, centered, 2, s),
                                gram_level(model, centered, s), 2)


def test_criterion_06_mixture_witness():
    with criterion(6, "witness kernel: exact conditionals and closed form at eps=1/2",
                   budget=1.0):
        r = witness_report(F(1, 2))
        assert r.given_second_zero == 0
        assert r.given_second_one == 0
        assert r.given_third_zero == F(-1, 84) == r.closed_form
        assert check_weak_independence(MixtureModel(F(1)), 2).passed
        assert not check_weak_independence(MixtureModel(F(1, 2)), 2).passed


def test_criterion_07_covariance_identities():
    with criterion(7, "pair covariance identity and level decomposition == enumeration"):
        rng = random.Random(707)
        for size in (2, 3):
            for model in model_grid(size, 8):
                for n in (1, 2, 3):
                    T = random_degenerate(rng, model, n)
                    V = random_degenerate(rng, model, n)
                    for r in range(n + 1):
                        width = 2 * n - r
                        brute = F(0)
                        for seq in product(model.alphabet.labels, repeat=width):
                            p = model.joint_pmf(seq)
                            if p:
                                brute += p * T.value(seq[:n]) * V.value(seq[:r] + seq[n:])
                        assert degenerate_cov(model, T, V, r) == brute
                for M in (2, 3, 4):
                    T = random_centered(rng, model, M)
                    Z = random_centered(rng, model, M)
                    levels, total = covariance_levels(model, T, Z, M)
                    assert total == expectation(model, T.pointwise_product(Z))
                    self_levels, _ = covariance_levels(model, T, T, M)
                    if model.c >= 0:
                        assert all(x >= 0 for x in self_levels)


def test_criterion_08_ustat_norm_lower_bound():
    with criterion(8, "U-statistic square-norm lower bound, N=4..6, 100+ kernels"):
        assert ustat_norm_lower_constant(3, 2, 1) == F(4, 3)
        rng = random.Random(808)
        checked = 0
        for N in (4, 5, 6):
            length = N - 1
            models = [
                urn_model(["a", "b"], {"a": 1, "b": 2}, F(1), length),
                urn_model(["a", "b"], {"a": 1, "b": 3}, F(0), length),
                urn_model(["a", "b"], {"a": length, "b": length}, F(-1), length),
            ]
            for model in models:
                assert model.is_double_extendible
                for n in range(1, N):
                    for i in range(1, n + 1):
                        bound = ustat_norm_lower_constant(N, n, i)
                        for _ in range(2):
                            phi = random_kernel(rng, model.alphabet, i)
                            lhs = ustat_square_norm(model, phi, n)
                            rhs = bound * expectation(
                                model, phi.pointwise_product(phi))
                            assert lhs >= rhs
                            checked += 1
        assert checked >= 100


def test_criterion_09_wor_variance_policy():
    label = "finite-sampling variance: enumeration identity exact; printed form reported"
    with criterion(9, label):
        rng = random.Random(909)
        printed_matches = []
        for population in range(2, 7):
            for sample in range(1, 4):
                if sample >= population or population < 2 * sample:
                    continue  # draw laws outside the doubly extendible range are not gated here
                labels = [str(i) for i in range(population)]
                model = urn_model(labels, {l: 1 for l in labels}, -1, sample)
                for i in range(1, sample + 1):
                    derived = wor_level_variance_derived(population, sample, i)
                    for _ in range(2):
                        g = random_degenerate(rng, model, i)
                        lhs = ustat_square_norm(model, g, sample)
                        rhs = derived * expectation(model, g.pointwise_product(g))
                        assert lhs == rhs
                    printed = wor_level_variance_printed(population, sample, i, F(1))
                    printed_matches.append(
                        ((population, sample, i), printed == derived))
        # informational per policy: the printed arrangement is kept verbatim,
        # compared and reported; the acceptance gate is the enumeration identity
        agree = sum(1 for _, ok in printed_matches if ok)
        print(f"\n    printed-form agreement: {agree}/{len(printed_matches)} "
              f"(disagreements reported, never patched)")


def test_criterion_10_weak_copy():
    with criterion(10, "tilted copy of the two-color urn: marginals, bound, exchangeability",
                   budget=10.0):
        base = urn_model(["0", "1"], {"0": 1, "1": 1}, 1, 6)
        tilted = build_weak_copy(base, 1, indicator_kernel(base.alphabet, ("1", "1")),
                                 F(1, 2))
        report = verify_weak_copy(tilted)
        assert report.small_marginals_match
        assert report.discrepancy
        assert report.density_bound < F(1, 2)
        assert report.exchangeable and report.normalized
        assert report.passed


def test_criterion_11_monte_carlo(tmp_path):
    with criterion(11, "100k seeded samples x3 models within 4 sigma; byte-identical reruns",
                   budget=30.0):
        draws = 100_000
        polya_doc = {
            "symbols": [{"label": "a"}, {"label": "b"}],
            "alpha": {"a": "1", "b": "1"}, "c": "1", "length": 4,
        }
        model_path = tmp_path / "polya.json"
        import json

        model_path.write_text(json.dumps(polya_doc))
        out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
        args = ["sample", "--model", str(model_path), "--M", "2",
                "--count", str(draws), "--seed", "20240601"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

        polya = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 4)
        counts = {}
        with open(out1) as fh:
            next(fh), next(fh)
            for line in fh:
                _, seq = line.rstrip("\n").split(",")
                key = tuple(seq.split(" "))
                counts[key] = counts.get(key, 0) + 1
        others = [
            urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 4),
            urn_model(["a", "b", "c", "d"], {l: 1 for l in "abcd"}, -1, 2),
        ]
        tallies = [(polya, counts)]
        for k, model in enumerate(others):
            tally = {}
            for i in range(draws):
                seq = model.sample(2, seed=(k + 1) * 10_000_019 + i)
                tally[seq] = tally.get(seq, 0) + 1
            tallies.append((model, tally))
        for model, tally in tallies:
            for seq in product(model.alphabet.labels, repeat=2):
                p = model.joint_pmf(seq)
                got = tally.get(tuple(seq), 0)
                assert (F(got) - draws * p) ** 2 <= 16 * draws * p * (1 - p)
