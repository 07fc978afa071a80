import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from urnova import (
    MixtureModel,
    check_weak_independence,
    cond_expectation,
    decompose,
    degenerate_basis,
    expectation,
    symmetrized_offdiagonal,
    urn_model,
    witness_conditional_closed_form,
    witness_kernel,
    witness_report,
)
from urnova import weak_independence
from urnova.combinatorics import integer_numerators
from urnova.errors import HorizonTooShort, ValidationError
from urnova.kernels import SymmetricKernel
from urnova.linalg import nullspace
from urnova.weak_independence import DegeneracyReport, Violation, offdiagonal_functional
from helpers import model_grid, random_kernel, rref, rref_nullspace


def constraint_rows(model, n):
    """The one-step prediction map on size-n multisets, row by row."""
    columns = list(model.alphabet.multisets(n))
    rows = []
    for observed in model.support_multisets(n - 1):
        row = [F(0)] * len(columns)
        for label, p in model.predictive(observed).items():
            row[columns.index(model.alphabet.canon(observed + (label,)))] += p
        rows.append(row)
    return columns, rows


class TestDegenerateBasis:
    def test_iid_coin_level_one(self):
        m = urn_model(["0", "1"], {"0": 1, "1": 1}, 0, 4)
        basis = degenerate_basis(m, 1)
        assert len(basis) == 1
        assert expectation(m, basis[0]) == 0

    def test_dimension_matches_constraint_rank(self):
        m = urn_model(["a", "b", "c"], {"a": 2, "b": 2, "c": 2}, -1, 3)
        n = 2
        columns, rows = constraint_rows(m, n)
        _, pivots = rref(rows)
        assert len(degenerate_basis(m, n)) == len(columns) - len(pivots)

    def test_basis_kernels_are_annihilated(self):
        for model in model_grid(2, 6):
            for n in (1, 2):
                for k in degenerate_basis(model, n):
                    for ms in model.support_multisets(n - 1):
                        assert cond_expectation(model, k, ms) == 0

    def test_constraint_map_never_zero(self):
        # a nondegenerate predictive law constrains something at every level
        m = urn_model(["a", "b"], {"a": 1, "b": 2}, 1, 6)
        for n in (1, 2, 3):
            domain = len(list(m.alphabet.multisets(n)))
            assert len(degenerate_basis(m, n)) < domain

    def test_horizon_guard(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 1}, 1, 2)
        with pytest.raises(HorizonTooShort):
            degenerate_basis(m, 3)


class TestCheckWeakIndependence:
    def test_polya_passes(self):
        m = urn_model(["0", "1"], {"0": 1, "1": 1}, 1, 8)
        report = check_weak_independence(m, 2)
        assert report.passed and not report.unchecked_overlaps

    def test_mixture_fails_with_disjoint_witness(self):
        report = check_weak_independence(MixtureModel(F(1, 2)), 2)
        assert not report.passed
        assert {v.overlap for v in report.violations} == {0}

    def test_mixture_at_one_passes(self):
        assert check_weak_independence(MixtureModel(F(1)), 2).passed

    def test_iid_passes_all_levels(self):
        m = urn_model(["a", "b"], {"a": 1, "b": 3}, 0, 8)
        for n in (1, 2, 3):
            assert check_weak_independence(m, n).passed

    def test_urn_grid_passes(self):
        rng = random.Random(0)
        for size in (2, 3):
            for model in model_grid(size, 6):
                for n in (1, 2, 3):
                    report = check_weak_independence(model, n)
                    assert report.passed, (model.c, n, report.violations[:2])

    def test_short_horizon_reports_unchecked(self):
        m = urn_model(["a", "b"], {"a": 2, "b": 2}, -1, 2)
        report = check_weak_independence(m, 2)
        # overlap 0 needs 3 coordinates; only overlap 1 is checkable
        assert report.unchecked_overlaps == (0,)
        assert report.passed


@st.composite
def models_and_levels(draw):
    """A model from one replacement regime (small alphabet) and a level 1..3
    within its horizon."""
    n = draw(st.integers(1, 3))
    regime = draw(st.sampled_from(["polya", "iid", "wor", "frac", "mixture", "mixture-1"]))
    if regime == "mixture":
        return MixtureModel(F(draw(st.integers(1, 9)), 10)), n
    if regime == "mixture-1":
        return MixtureModel(F(1)), n
    labels = ["a", "b", "c"][:draw(st.integers(1, 3))]
    weights = draw(st.lists(st.integers(1, 3), min_size=len(labels), max_size=len(labels)))
    c = {"polya": F(draw(st.integers(1, 3)), draw(st.integers(1, 3))),
         "iid": F(0), "wor": F(-1), "frac": F(-1, 2)}[regime]
    den = 2 if regime in ("polya", "frac") else 1
    alpha = {l: F(w, den) for l, w in zip(labels, weights)}
    length = n + draw(st.integers(0, 2))
    if c < 0:
        # the predictive denominator must stay positive across the horizon
        assume(sum(alpha.values()) + c * (length - 1) > 0)
    return urn_model(labels, alpha, c, length), n


class TestBatchedSweep:
    @given(case=models_and_levels(), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_functionals_match_the_enumeration_oracle(self, case, seed):
        model, n = case
        basis = degenerate_basis(model, n)
        # a random kernel too: on passing models every basis value is 0
        kernels = basis + [random_kernel(random.Random(seed), model.alphabet, n)]
        support = list(model.support_multisets(n - 1))
        expected = []
        for r in range(n):
            if model.length is not None and 2 * n - r - 1 > model.length:
                continue
            functionals = [offdiagonal_functional(model, ms, r) for ms in support]
            for b, kernel in enumerate(kernels):
                tilde = symmetrized_offdiagonal(model, kernel, r)
                for ms, (functional, den) in zip(support, functionals):
                    assert all(type(w) is int for w in functional)
                    value = tilde.value(ms)
                    applied = sum((w * v for w, (_, v) in zip(functional, kernel.entries)), F(0))
                    assert applied / den == value
                    if b < len(basis) and value != 0:
                        expected.append(Violation(b, r, ms, value))
        # same violations, in the same (overlap, basis index, multiset) order
        assert check_weak_independence(model, n).violations == tuple(expected)

    @given(case=models_and_levels())
    @settings(max_examples=60, deadline=None)
    def test_report_equals_the_oracle_report(self, case):
        # basis from the rational RREF, values from the enumeration oracle
        model, n = case
        columns, rows = constraint_rows(model, n)
        kernels = [SymmetricKernel(n, model.alphabet, tuple(zip(columns, v)))
                   for v in rref_nullspace(rows, len(columns))]
        violations, unchecked = [], []
        for r in range(n):
            if model.length is not None and 2 * n - r - 1 > model.length:
                unchecked.append(r)
                continue
            for b, kernel in enumerate(kernels):
                tilde = symmetrized_offdiagonal(model, kernel, r)
                violations += [Violation(b, r, ms, tilde.value(ms))
                               for ms in model.support_multisets(n - 1) if tilde.value(ms)]
        basis = tuple(map(tuple, rref_integer_basis(rows, len(columns))))
        expected = DegeneracyReport(n, basis, tuple(violations), tuple(unchecked))
        assert check_weak_independence(model, n) == expected

    def test_sweep_builds_no_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the check-wi sweep left the integer null space")

        monkeypatch.setattr(weak_independence, "SymmetricKernel", refuse)
        monkeypatch.setattr(weak_independence, "integer_numerators", refuse)
        urn = urn_model(["a", "b", "c"], {"a": 1, "b": 2, "c": 1}, 1, 6)
        passing = check_weak_independence(urn, 3)
        failing = check_weak_independence(MixtureModel(F(1, 2)), 2)
        assert passing.passed and passing.basis
        assert not failing.passed and failing.violations[0].overlap == 0


RATIONALS = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.builds(F, st.integers(-9, 9), st.integers(1, 9)),
)


def rref_integer_basis(rows, ncols):
    """The lead-1 RREF basis, each vector scaled to integers."""
    return [integer_numerators(v)[0] for v in rref_nullspace(rows, ncols)]


class TestIntegerNullspace:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_rref_basis(self, data):
        ncols = data.draw(st.integers(0, 6))
        row = st.lists(RATIONALS, min_size=ncols, max_size=ncols)
        rows = data.draw(st.lists(st.one_of(row, st.just([0] * ncols)), max_size=6))
        if rows and data.draw(st.booleans()):
            rows.append(list(data.draw(st.sampled_from(rows))))
        basis = nullspace([integer_numerators(row)[0] for row in rows], ncols)
        assert basis == rref_integer_basis(rows, ncols)
        assert all(type(x) is int for v in basis for x in v)

    @pytest.mark.parametrize("rows, ncols", [
        ([], 3),
        ([], 0),
        ([[0, 0, 0], [0, 0, 0]], 3),
        ([[2, -4, 3], [2, -4, 3]], 3),
        ([[-10, 20, 0, -6], [0, 0, 0, 0], [1, -2, 1, 0]], 4),
    ])
    def test_edge_cases(self, rows, ncols):
        assert nullspace(rows, ncols) == rref_integer_basis(rows, ncols)


class TestWitnessKernel:
    def test_displayed_entries(self):
        k = witness_kernel(F(1, 2))
        assert k.value(("1", "0")) == 1
        assert k.value(("1", "1")) == -2
        assert k.value(("0", "0")) == F(-2, 7)

    def test_epsilon_domain(self):
        with pytest.raises(ValidationError):
            witness_kernel(F(1))

    def test_one_coordinate_conditionals_vanish_for_every_epsilon(self):
        for eps in (F(1, 10), F(1, 3), F(1, 2), F(9, 10)):
            mix = MixtureModel(eps)
            k = witness_kernel(eps)
            for e in ("0", "1"):
                assert cond_expectation(mix, k, (e,)) == 0


class TestWitnessReport:
    def test_exact_values_at_one_half(self):
        r = witness_report(F(1, 2))
        assert r.given_second_zero == 0
        assert r.given_second_one == 0
        assert r.given_third_zero == F(-1, 84)
        assert r.closed_form == F(-1, 84)
        assert r.passed

    def test_closed_form_matches_bayes_on_a_grid(self):
        for eps in (F(1, 5), F(2, 5), F(3, 4)):
            r = witness_report(eps)
            assert r.passed and r.given_third_zero < 0

    def test_values_equal_the_enumeration_oracle(self):
        for eps in (F(1, 10), F(1, 3), F(1, 2), F(2, 3), F(9, 10)):
            mix = MixtureModel(eps)
            k = witness_kernel(eps)
            r = witness_report(eps)
            assert r.given_second_zero == cond_expectation(mix, k, common=("0",))
            assert r.given_second_one == cond_expectation(mix, k, common=("1",))
            assert r.given_third_zero == cond_expectation(mix, k, common=(), extra=("0",))

    def test_closed_form_vanishes_at_one(self):
        assert witness_conditional_closed_form(F(1)) == 0


class TestDecomposabilityCoherence:
    def test_urn_kernels_fully_degenerate(self):
        # models passing the check have decompositions whose kernels vanish
        # under every admissible partial-overlap conditional
        rng = random.Random(1)
        model = urn_model(["a", "b"], {"a": 1, "b": 2}, 1, 9)
        M = 3
        for n in (1, 2, 3):
            assert check_weak_independence(model, n).passed
        T = random_kernel(rng, model.alphabet, M)
        d = decompose(model, T, M)
        for s in range(1, M + 1):
            phi = d.kernels[s - 1]
            for r in range(s):
                for common in model.support_multisets(r):
                    for extra in model.support_multisets(s - 1 - r):
                        assert cond_expectation(model, phi, common, extra) == 0

    def test_mixture_ustat_correlates_with_third_coordinate(self):
        # the failing model: the pair-kernel U-statistic over three trials
        # retains correlation with a function of the third coordinate
        eps = F(1, 2)
        mix = MixtureModel(eps)
        k = witness_kernel(eps)
        corr = F(0)
        for seq in product("01", repeat=3):
            p = mix.joint_pmf(seq)
            u = (k.value(seq[:2]) + k.value((seq[0], seq[2]))
                 + k.value((seq[1], seq[2])))
            h = 1 if seq[2] == "0" else 0
            corr += p * u * h
        want = mix.joint_pmf(("0",)) * witness_report(eps).given_third_zero
        assert corr == want != 0
