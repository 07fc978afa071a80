from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnova.coefficients import (
    CoefficientTable,
    _compute_maps,
    assumption_check,
    gamma_coeff,
    level_weight,
    pair_covariance_factor,
    phi_coeff,
    psi_coeff,
    theta_table,
)
from urnova.combinatorics import binomial
from urnova.errors import DegenerateAssumption, ZeroDenominator

rationals = st.fractions(min_value=F(1, 4), max_value=6, max_denominator=8)

RATES = st.one_of(
    st.fractions(min_value=F(1, 9), max_value=5, max_denominator=9),  # c > 0
    st.just(F(0)),  # c = 0
    st.integers(1, 17).map(lambda S: F(-1, S)),  # c = -1 on integer alpha
    st.fractions(min_value=-2, max_value=F(-1, 9), max_denominator=9),  # fractional c < 0
)


class TestPhi:
    def test_trivial_overlap(self):
        assert phi_coeff(3, 2, 2, 0, F(5), F(2)) == 1

    def test_iid_values(self):
        assert phi_coeff(3, 2, 1, 1, F(5), F(0)) == 0
        assert phi_coeff(3, 2, 1, 0, F(5), F(0)) == 1

    def test_hand_value(self):
        assert phi_coeff(1, 1, 0, 1, F(2), F(1)) == F(1, 3)

    def test_zero_denominator(self):
        # total mass 3, c = -1, n = 2, m = 2, r = 0 hits a zero factor
        with pytest.raises(ZeroDenominator):
            phi_coeff(2, 2, 0, 0, F(3), F(-1))


class TestPsi:
    def test_saturated_is_one(self):
        for M in range(1, 6):
            assert psi_coeff(M, M, M, M, F(3), F(2)) == 1

    @given(a=rationals, c=rationals, M=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_single_coordinate_closed_form(self, a, c, M):
        assert psi_coeff(M, 1, 1, 1, a, c) == (a + c * M) / (a + c)

    def test_iid_collapses_to_count(self):
        M, q, n, m = 5, 1, 2, 2
        assert psi_coeff(M, q, n, m, F(2), F(0)) == binomial(M - n, m - q)


class TestGammaAndAssumptions:
    @given(a=rationals, c=rationals, M=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_single_level_inverse(self, a, c, M):
        assert gamma_coeff(M, 1, c / a) == (a + c) / (a + c * M)

    def test_top_level_is_one(self):
        assert gamma_coeff(4, 4, F(7, 6)) == 1

    def test_iid_is_identity(self):
        for M in range(1, 6):
            for k in range(1, M + 1):
                assert gamma_coeff(M, k, F(0)) == 1

    def test_nonnegative_replacement_never_degenerate(self):
        for c in (F(0), F(1), F(1, 3)):
            for M in range(1, 6):
                assert assumption_check(M, c / 2) == ()

    def test_counting_measure_scan_agrees_with_direct(self):
        # record the vanishing pivots on a small grid; the scan must agree
        # with direct evaluation everywhere it is defined
        hits = {}
        for S in range(2, 9):
            for M in range(1, 5):
                try:
                    bad = assumption_check(M, F(-1, S))
                except ZeroDenominator:
                    continue
                for q, n in bad:
                    assert psi_coeff(M, q, n, q, F(S), F(-1)) == 0
                if bad:
                    hits[(S, M)] = bad
        assert hits  # the under-extendible region does produce pivots
        assert all(S < 2 * M for (S, M) in hits)

    def test_degenerate_assumption_raised(self):
        with pytest.raises(DegenerateAssumption):
            theta_table(3, F(-1, 4))


def check_theta_system(t):
    """theta against the system that defines it: theta(k, k) = gamma_k, the
    aggregation sums over levels q < k vanish, the top level balances the
    lower ones, and theta* = theta / binomial(M - a, k - a)."""
    M = t.M
    keys = {(k, a) for k in range(1, M + 1) for a in range(1, k + 1)}
    assert set(t.theta) == keys == set(t.theta_star)
    for k in range(1, M):
        assert t.theta[(k, k)] == t.gamma[k]
        for q in range(1, k):
            total = F(0)
            for i in range(q, k + 1):
                for j in range(q, i + 1):
                    total += t.theta[(i, j)] * t.psi[(q, k, j)]
            assert total == 0
    assert t.theta[(M, M)] == 1
    for a in range(1, M):
        assert t.theta[(M, a)] == -sum(t.theta[(s, a)] for s in range(a, M))
    for (k, a), v in t.theta.items():
        assert t.theta_star[(k, a)] == v / binomial(M - a, k - a)


class TestThetaTable:
    def test_hand_value(self):
        assert theta_table(3, F(1)).theta[(1, 1)] == F(1, 2)

    @given(a=rationals, c=rationals, M=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_low_level_closed_forms(self, a, c, M):
        t = theta_table(M, c / a)
        assert t.theta[(1, 1)] == (a + c) / (a + c * M)
        assert t.theta[(2, 2)] == (a + 3 * c) * (a + 2 * c) / ((a + M * c) * (a + c * (M + 1)))
        assert t.theta[(2, 1)] == -(M - 1) * (a + 3 * c) * (a + c) / ((a + c * M) * (a + c * (M + 1)))

    def test_iid_inclusion_exclusion_values(self):
        for M in range(2, 7):
            t = theta_table(M, F(0))
            assert t.theta[(1, 1)] == 1
            assert t.theta[(2, 2)] == 1
            assert t.theta[(2, 1)] == -(M - 1)

    @given(M=st.integers(1, 8), rate=RATES)
    @settings(max_examples=120, deadline=None)
    def test_recursion_invariants(self, M, rate):
        try:
            t = theta_table(M, rate)
        except (ZeroDenominator, DegenerateAssumption):
            return
        check_theta_system(t)

    def test_negative_rate_sweep(self):
        # r = -p/q with p <= 4, q <= 40: every outcome occurs, and none is a
        # ZeroDivisionError
        raised = set()
        for M in range(1, 13):
            for p in range(1, 5):
                for q in range(1, 41):
                    try:
                        t = _compute_maps(M, F(-p, q))
                    except (ZeroDenominator, DegenerateAssumption) as exc:
                        raised.add(type(exc))
                        continue
                    check_theta_system(CoefficientTable(M, *t))
                    raised.add(None)
        assert raised == {None, ZeroDenominator, DegenerateAssumption}

    def test_scale_invariance_uncached(self):
        # the tables at rate c/a equal the pair oracles at the rescaled pair
        a, c, lam = F(3, 2), F(2, 5), F(7, 3)
        phi, psi = _compute_maps(4, c / a)[:2]
        for (n, m, r, p), v in phi.items():
            assert v == phi_coeff(n, m, r, p, lam * a, lam * c)
        for (q, n, m), v in psi.items():
            assert v == psi_coeff(4, q, n, m, lam * a, lam * c)

    def test_caching_by_rate(self):
        a, c = F(1), F(1, 2)
        assert theta_table(4, c / a) is theta_table(4, (2 * c) / (2 * a))


def oracle_phi(M, rate):
    """The phi map from phi_coeff, behind the checks the table makes first:
    every psi entry (ZeroDenominator), then the pivots
    (DegenerateAssumption)."""
    one = F(1)
    for n in range(1, M + 1):
        for m in range(1, n + 1):
            for q in range(m + 1):
                psi_coeff(M, q, n, m, one, rate)
    if any(psi_coeff(M, q, n, q, one, rate) == 0
           for n in range(1, M + 1) for q in range(1, n + 1)):
        raise DegenerateAssumption("vanishing pivot")
    return {
        (n, m, r, p): phi_coeff(n, m, r, p, one, rate)
        for n in range(1, M + 1) for m in range(1, n + 1)
        for r in range(m + 1) for p in range(m - r + 1)
    }


def check_phi_table(M, rate):
    """The integer phi table equals phi_coeff entry by entry, or raises the
    oracle's exception class; returns that class, or None."""
    try:
        expected = oracle_phi(M, rate)
    except (ZeroDenominator, DegenerateAssumption) as exc:
        with pytest.raises((ZeroDenominator, DegenerateAssumption)) as info:
            _compute_maps(M, rate)
        assert type(info.value) is type(exc)
        return type(exc)
    phi = _compute_maps(M, rate)[0]
    assert list(phi) == list(expected)
    for key, value in expected.items():
        assert phi[key] == value, key
    return None


class TestIntegerPhiTable:
    @given(M=st.integers(1, 8), rate=RATES)
    @settings(max_examples=120, deadline=None)
    def test_equals_phi_coeff(self, M, rate):
        check_phi_table(M, rate)

    def test_short_populations_raise_like_the_oracle(self):
        # c = -1 on a population of S balls: every pivot and zero-denominator
        # case up to M = 8 occurs among S = 1 .. 2M
        raised = {check_phi_table(M, F(-1, S)) for M in range(1, 9) for S in range(1, 2 * M + 1)}
        assert raised == {None, ZeroDenominator, DegenerateAssumption}


def outcome(fn):
    """fn(), or the class ZeroDenominator when it raises that."""
    try:
        return fn()
    except ZeroDenominator:
        return ZeroDenominator


class TestCovarianceWeights:
    @given(n=st.integers(1, 7), rate=RATES, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_pair_factor_is_the_phi_oracle(self, n, rate, data):
        r = data.draw(st.integers(0, n))
        assert (outcome(lambda: pair_covariance_factor(n, r, rate))
                == outcome(lambda: phi_coeff(n, n, r, n - r, F(1), rate)))

    @given(M=st.integers(1, 8), rate=RATES, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_level_weight_is_the_psi_oracle(self, M, rate, data):
        s = data.draw(st.integers(1, M))
        assert (outcome(lambda: level_weight(M, s, rate))
                == outcome(lambda: binomial(M, s) * psi_coeff(M, s, s, s, F(1), rate)))

    def test_pair_factor_full_overlap(self):
        assert pair_covariance_factor(3, 3, F(5, 2)) == 1

    def test_pair_factor_iid_disjoint(self):
        assert pair_covariance_factor(2, 0, F(0)) == 0

    def test_level_weight_iid(self):
        for M in range(1, 6):
            for s in range(1, M + 1):
                assert level_weight(M, s, F(0)) == binomial(M, s)
