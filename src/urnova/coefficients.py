"""Rational coefficient tables for urn-model conditional calculus.

The laws with weights (alpha, c) and (t*alpha, t*c) coincide, so every table
is a pure function of integer indices and the replacement rate
c/alpha(A), and the production routes take that rate alone.  The Fraction
oracles phi_coeff and psi_coeff keep the pair (alpha(A), c), so that the
rescaling invariance stays a tested property.  theta and theta* are in
closed form on the factors of phi_table, formed only after the pivots
psi(q, n, q) are checked (_compute_maps).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import perm
from typing import NamedTuple

from .combinatorics import binomial, prod, rising
from .errors import DegenerateAssumption, ZeroDenominator


def phi_coeff(n: int, m: int, r: int, p: int, alpha_total, c) -> Fraction:
    """Weight of a p-step promotion when conditioning m coordinates, r of
    them shared, against an n-coordinate target.

    Empty products are 1 and c**0 is 1 even at c = 0.  The Fraction oracle
    of phi_table, which production code reads instead.
    """
    if not (1 <= m <= n and 0 <= r <= m and 0 <= p <= m - r):
        raise ValueError(f"bad indices n={n} m={m} r={r} p={p}")
    den = prod(alpha_total + c * (n + s - 1) for s in range(1, m - r + 1))
    if den == 0:
        raise ZeroDenominator("vanishing denominator in coefficient table")
    num = c**p * perm(m - r, p)
    num *= prod(alpha_total + c * (r + p + s - 1) for s in range(1, m - (r + p) + 1))
    return num / den


def psi_coeff(M: int, q: int, n: int, m: int, alpha_total, c) -> Fraction:
    """Aggregated promotion weight over all placements of an m-set against
    a fixed n-set, grouped by the size-q surviving argument set.

    q = 0 is the constant term of the aggregation.  The Fraction oracle of
    _psi_sum over phi_table.
    """
    if not (0 <= q <= m <= n <= M):
        raise ValueError(f"bad indices M={M} q={q} n={n} m={m}")
    return _psi_sum(M, q, n, m, lambda *key: phi_coeff(*key, alpha_total, c))


def _psi_sum(M: int, q: int, n: int, m: int, phi) -> Fraction:
    """psi from a lookup phi(n, m, r, p): the placements sharing r of the
    q surviving arguments, each with its p = q - r step promotion weight."""
    total = Fraction(0)
    for r in range(q + 1):
        count = binomial(q, r) * binomial(M - n, m - r)
        if count:
            total += count * phi(n, m, r, q - r)
    return total


def phi_table(M: int, rate):
    """phi(n, m, r, p) at alpha(A) = 1 and c = rate, as a memoised lookup
    for indices up to M.

    With rate c/alpha(A) = P/Q in lowest terms, alpha + c*t is a multiple
    of Q + P*t, so every entry is a ratio of the integer products
    R[x][k] = prod_{t=x}^{x+k-1} (Q + P*t):
    phi(n, m, r, p) = P^p * perm(m-r, p) * R[r+p][m-r-p] / R[n][m-r].
    The formula also holds for m > n, where it weights the conditional of
    an m-block given n observed values (nested_conditional).
    """
    rate = Fraction(rate)
    P, Q = rate.numerator, rate.denominator
    R = [rising(Q + P * x, P, M) for x in range(M + 1)]
    memo = {}

    def phi_at(n, m, r, p):
        key = (n, m, r, p)
        if key not in memo:
            den = R[n][m - r]
            if den == 0:
                raise ZeroDenominator(
                    f"vanishing denominator in coefficient table at M = {M}: "
                    f"alpha(A) + c*t = 0 at t = {-Q // P} (rate c/alpha(A) = {rate})"
                )
            memo[key] = Fraction(P**p * perm(m - r, p) * R[r + p][m - r - p], den)
        return memo[key]

    return phi_at


def gamma_coeff(M: int, k: int, rate) -> Fraction:
    if not 1 <= k <= M:
        raise ValueError(f"bad level k={k} for M={M}")
    pivot = _psi_sum(M, k, k, k, phi_table(M, rate))
    if pivot == 0:
        raise DegenerateAssumption(f"pivot at (q={k}, n={k}) vanishes")
    return 1 / pivot


def assumption_check(M: int, rate) -> tuple:
    """All (q, n) pairs whose pivot vanishes; empty means the coefficient
    recursion is well posed.  Always empty when rate >= 0."""
    phi = phi_table(M, rate)
    return _vanishing_pivots(M, lambda q, n: _psi_sum(M, q, n, q, phi))


def _vanishing_pivots(M: int, pivot) -> tuple:
    """The (q, n) pairs, 1 <= q <= n <= M, at which pivot(q, n) = psi(q, n, q)
    is zero."""
    return tuple(
        (q, n) for n in range(1, M + 1) for q in range(1, n + 1) if pivot(q, n) == 0
    )


class CoefficientTable(NamedTuple):
    """All constants needed to decompose statistics at one horizon."""

    M: int
    phi: dict
    psi: dict
    gamma: dict
    theta: dict
    theta_star: dict


def _compute_maps(M: int, rate):
    """Uncached construction of the five coefficient maps.

    phi comes from phi_table and psi is summed from it.  The pivots
    psi(q, n, q) are checked first; building phi then divides by every
    factor f(t) = Q + P*t of phi_table with t <= 2M - 1.  theta is not
    solved for: theta(k, j) = binomial(M-j, k-j) theta*(k, j), where
    theta*(k, j) = (-1)^(k-j) f(2k-1) prod_{t=j}^{j+k-2} f(t) / prod_{t=M}^{M+k-1} f(t)
    = (-1)^(k-j) gamma_k phi(k, j+k-1, j, 0), as gamma_k = R[k][k] / R[M][k].
    """
    phi_at = phi_table(M, rate)
    # psi reads only phi entries whose denominator factors alpha + c*t have
    # 1 <= t < M, as the pivots psi(1, t, 1) do; so psi fails exactly where
    # the pivots do, and a vanishing pivot is reported before the remaining
    # phi entries (with t up to 2M - 1) can raise ZeroDenominator
    psi = {
        (q, n, m): _psi_sum(M, q, n, m, phi_at)
        for n in range(1, M + 1) for m in range(1, n + 1) for q in range(m + 1)
    }
    bad = _vanishing_pivots(M, lambda q, n: psi[(q, n, q)])
    if bad:
        raise DegenerateAssumption(f"vanishing pivots at (q, n) pairs {bad}")
    phi = {
        (n, m, r, p): phi_at(n, m, r, p)
        for n in range(1, M + 1) for m in range(1, n + 1)
        for r in range(m + 1) for p in range(m - r + 1)
    }
    gamma = {k: 1 / psi[(k, k, k)] for k in range(1, M + 1)}
    theta_star = {
        (k, j): (-1) ** (k - j) * gamma[k] * phi_at(k, j + k - 1, j, 0)
        for k in range(1, M + 1) for j in range(1, k + 1)
    }
    theta = {(k, j): binomial(M - j, k - j) * v for (k, j), v in theta_star.items()}
    return phi, psi, gamma, theta, theta_star


@lru_cache(maxsize=16)
def theta_table(M: int, rate) -> CoefficientTable:
    """Coefficient table for horizon M at rate c/alpha(A); cached by
    (M, rate), so equal rates share one table."""
    return CoefficientTable(M, *_compute_maps(M, rate))


def pair_covariance_factor(n: int, r: int, rate) -> Fraction:
    """Multiplier turning E[T*V] on one coordinate block into the covariance
    of T and V placed on blocks sharing r of their n coordinates:
    phi(n, n, r, n - r)."""
    if not (0 <= r <= n):
        raise ValueError(f"bad overlap r={r} for arity {n}")
    return phi_table(n, rate)(n, n, r, n - r)


def level_weight(M: int, s: int, rate) -> Fraction:
    """Total weight of level s in the covariance of two horizon-M
    statistics: the number of block pairs at each overlap times the
    pair covariance factor, binomial(M, s) * psi(M; s, s, s)."""
    return binomial(M, s) * _psi_sum(M, s, s, s, phi_table(M, rate))
