"""Exact checks of urnova CSV reports.

Each check takes the generated inputs and the path of one CSV and returns a
list of problems; an empty list means the output is right.  No check reads
the `#meta` row or depends on the order of `basis_index` values, since both
may change without the results changing.  Expected values come from the
benchmark's own urn law (`Urn.prob`), from identities the coefficient tables
must satisfy, or from an independent replay of the sampling stream.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from pathlib import Path


@dataclass(frozen=True)
class Urn:
    """An urn model as the benchmark generates it: symbol i has value i.

    Multisets are tuples of counts, one per label in alphabet order.
    """

    labels: tuple
    alpha: tuple
    c: Fraction
    length: int

    @property
    def total(self) -> Fraction:
        return sum(self.alpha, Fraction(0))

    def seq_prob(self, counts) -> Fraction:
        """Probability of any one ordering of the outcome `counts`:
        rising products of the weights over rising products of the total."""
        num = prod(a + j * self.c for a, k in zip(self.alpha, counts) for j in range(k))
        den = prod(self.total + i * self.c for i in range(sum(counts)))
        return Fraction(num) / den

    def prob(self, counts) -> Fraction:
        """Probability of the unordered outcome `counts`."""
        orderings = factorial(sum(counts)) // prod(factorial(k) for k in counts)
        return orderings * self.seq_prob(counts)

    def counts(self, text: str) -> tuple:
        """Counts of a space-separated label sequence as the CSV writes it."""
        out = [0] * len(self.labels)
        for label in text.split():
            out[self.labels.index(label)] += 1
        return tuple(out)


def multisets(size: int, n: int):
    """Count tuples of all multisets of n draws from `size` labels."""
    for combo in itertools.combinations_with_replacement(range(size), n):
        counts = [0] * size
        for i in combo:
            counts[i] += 1
        yield tuple(counts)


def maximum(counts) -> Fraction:
    return Fraction(max(i for i, k in enumerate(counts) if k))


def minimum(counts) -> Fraction:
    return Fraction(min(i for i, k in enumerate(counts) if k))


def read_rows(path) -> list:
    """Data rows as dicts; the `#meta` row is skipped, never read."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("#meta"):
        raise ValueError("the first row is not the #meta row")
    return list(csv.DictReader(lines[1:]))


def _expect(name, got, want) -> list:
    return [] if got == want else [f"{name}: got {got}, expected {want}"]


def _theta_problems(theta: dict, theta_star: dict, M: int) -> list:
    """The top level balances the lower ones (every column a < M sums to
    0 and theta(M, M) = 1), and theta_star is theta over C(M - a, k - a)."""
    keys = {(k, a) for k in range(1, M + 1) for a in range(1, k + 1)}
    if set(theta) != keys or set(theta_star) != keys:
        return ["theta tables do not cover 1 <= a <= k <= M"]
    out = _expect("theta(M, M)", theta[(M, M)], 1)
    for a in range(1, M):
        out += _expect(f"theta column {a} sum", sum(theta[(k, a)] for k in range(a, M + 1)), 0)
    for (k, a), v in theta.items():
        out += _expect(f"theta_star({k}, {a}) * C", theta_star[(k, a)] * comb(M - a, k - a), v)
    return out


def validate(urn: Urn, path) -> list:
    rows = read_rows(path)
    want = {
        "kind": "urn",
        "symbols": " ".join(urn.labels),
        **{f"alpha[{l}]": str(w) for l, w in zip(urn.labels, urn.alpha)},
        "c": str(urn.c),
        "length": str(urn.length),
        "alpha_total": str(urn.total),
        "rate": str(urn.c / urn.total),
        "double_extendible": str(urn.total + 2 * urn.c * urn.length >= 0),
    }
    got = {r["field"]: r["value"] for r in rows}
    return _expect("rows", len(rows), len(want)) + [
        f"{k}: got {got.get(k)!r}, expected {v!r}" for k, v in want.items() if got.get(k) != v
    ]


def decompose(urn: Urn, stat, M: int, path) -> list:
    """`decompose --out`: the mean is E[stat] under the urn law, the CSV
    kernel rows equal the re-parsed level sidecars, and mean plus the level
    U-statistics rebuilds the statistic on every support multiset."""
    rows = read_rows(path)
    size = len(urn.labels)
    support = [x for x in multisets(size, M) if urn.prob(x)]
    means = [Fraction(r["value"]) for r in rows if r["row"] == "mean"]
    if len(means) != 1:
        return [f"{len(means)} mean rows"]
    mean = means[0]
    out = _expect("mean", mean, sum(urn.prob(x) * stat(x) for x in support))

    theta, theta_star, kernels = {}, {}, {}
    for r in rows:
        if r["row"] == "theta":
            theta[(int(r["level"]), int(r["a"]))] = Fraction(r["value"])
        elif r["row"] == "theta_star":
            theta_star[(int(r["level"]), int(r["a"]))] = Fraction(r["value"])
        elif r["row"] == "kernel":
            kernels[(int(r["level"]), urn.counts(r["multiset"]))] = Fraction(r["value"])
    out += _theta_problems(theta, theta_star, M)
    n_kernel_rows = sum(comb(size + s - 1, s) for s in range(1, M + 1))
    out += _expect("rows", len(rows), 1 + 2 * len(theta) + n_kernel_rows)

    sidecars = {}
    for s in range(1, M + 1):
        doc = json.loads(Path(f"{path}.level{s}.json").read_text())
        out += _expect(f"level {s} arity", doc["arity"], s)
        for entry in doc["entries"]:
            counts = tuple(entry["multiset"].get(l, 0) for l in urn.labels)
            sidecars[(s, counts)] = Fraction(entry["value"])
    if sidecars != kernels:
        out.append("CSV kernel rows differ from the level sidecars")

    for x in support:
        total = mean
        for sub in itertools.product(*(range(k + 1) for k in x)):
            if any(sub):
                ways = prod(comb(k, j) for k, j in zip(x, sub))
                total += ways * sidecars[(sum(sub), sub)]
        if total != stat(x):
            out.append(f"reconstruction at {x}: {total} != {stat(x)}")
            break
    return out


def covariance(urn: Urn, M: int, path) -> list:
    """`covariance` of max and min: both means and the centered product
    moment match the urn law, and total = product_moment = sum of levels."""
    rows = read_rows(path)
    out = _expect("rows", len(rows), M + 4)
    levels = {int(r["level"]): Fraction(r["value"]) for r in rows if r["row"] == "level_term"}
    named = {r["row"]: Fraction(r["value"]) for r in rows if r["row"] != "level_term"}
    out += _expect("levels", sorted(levels), list(range(1, M + 1)))

    def mean(f):
        return sum(urn.prob(x) * f(x) for x in multisets(len(urn.labels), M))

    mean_left, mean_right = mean(maximum), mean(minimum)
    moment = mean(lambda x: maximum(x) * minimum(x)) - mean_left * mean_right
    out += _expect("mean_left", named.get("mean_left"), mean_left)
    out += _expect("mean_right", named.get("mean_right"), mean_right)
    out += _expect("product_moment", named.get("product_moment"), moment)
    out += _expect("total", named.get("total"), moment)
    out += _expect("sum of level terms", sum(levels.values()), moment)
    return out


def coeffs(M: int, path) -> list:
    """`coeffs` on a c >= 0 model: a constant statistic keeps its value
    through every phi promotion, psi aggregates phi, gamma(k) is
    1/psi(k, k, k), and theta satisfies the level identities."""
    rows = read_rows(path)
    tables = defaultdict(dict)
    for r in rows:
        key = tuple(int(r[f"i{j}"]) for j in range(1, 5) if r[f"i{j}"] != "")
        tables[r["table"]][key] = Fraction(r["value"])
    phi, psi, gamma = tables["phi"], tables["psi"], tables["gamma"]
    triples = [(n, m, r) for n in range(1, M + 1) for m in range(1, n + 1) for r in range(m + 1)]
    phi_keys = {(n, m, r, p) for n, m, r in triples for p in range(m - r + 1)}
    psi_keys = {(q, n, m) for n in range(1, M + 1) for m in range(1, n + 1) for q in range(m + 1)}
    if set(phi) != phi_keys or set(psi) != psi_keys or set(gamma) != {(k,) for k in range(1, M + 1)}:
        return ["phi, psi or gamma keys are incomplete"]
    theta = tables["theta"]
    out = _expect("rows", len(rows), len(phi_keys) + len(psi_keys) + M + 2 * len(theta))
    for n, m, r in triples:
        total = sum(phi[(n, m, r, p)] * comb(n - r, p) for p in range(m - r + 1))
        out += _expect(f"phi({n}, {m}, {r}, .) on a constant", total, 1)
    for (q, n, m), v in psi.items():
        want = sum(comb(q, r) * comb(M - n, m - r) * phi[(n, m, r, q - r)] for r in range(q + 1))
        out += _expect(f"psi({q}, {n}, {m})", v, want)
    for k in range(1, M + 1):
        out += _expect(f"gamma({k}) * psi({k}, {k}, {k})", gamma[(k,)] * psi[(k, k, k)], 1)
    for k in range(1, M):
        out += _expect(f"theta({k}, {k})", theta.get((k, k)), gamma[(k,)])
    return out + _theta_problems(theta, tables["theta_star"], M)


def check_wi(urn, level: int, path) -> list:
    """`check-wi`: every urn level passes with basis size C(|A|+n-2, n) and
    reports exactly the overlaps beyond the horizon as not checkable; the
    mixture model (`urn` None) fails at every level n >= 2."""
    rows = read_rows(path)
    size, length = (2, None) if urn is None else (len(urn.labels), urn.length)
    summaries, unchecked, violations = {}, defaultdict(list), Counter()
    for r in rows:
        n = int(r["level"])
        if r["row"] == "summary":
            summaries.setdefault(n, []).append((r["witness"], int(r["basis_index"])))
        elif r["row"] == "not-checkable":
            unchecked[n].append(int(r["overlap"]))
        elif r["row"] == "violation":
            violations[n] += 1
        else:
            return [f"unknown row kind {r['row']!r}"]
    out = _expect("levels", sorted(summaries), list(range(1, level + 1)))
    for n in range(1, level + 1):
        passes = urn is not None or n == 1
        want_unchecked = [r for r in range(n) if length is not None and 2 * n - r - 1 > length]
        out += _expect(f"level {n} summary", summaries.get(n),
                       [("passed" if passes else "failed", comb(size + n - 2, n))])
        out += _expect(f"level {n} not-checkable", sorted(unchecked[n]), want_unchecked)
        if passes == bool(violations[n]):
            out.append(f"level {n}: {violations[n]} violation rows")
    return out


def counterexample(epsilon: Fraction, path) -> list:
    """`counterexample`: both one-coordinate conditionals vanish and the
    disjoint one equals the closed form of the mixture witness."""
    rows = read_rows(path)
    eps = epsilon
    closed = eps**3 * (eps - 1) / (8 * (3 - 3 * eps + eps**2) * (eps - eps**2 / 2))
    want = {
        "epsilon": eps,
        "E[phi|second=0]": 0,
        "E[phi|second=1]": 0,
        "E[phi|third=0]": closed,
        "closed_form": closed,
        "passed": 1,
    }
    got = {r["quantity"]: Fraction(r["value"]) for r in rows}
    return _expect("rows", len(rows), len(want)) + [
        f"{k}: got {got.get(k)}, expected {v}" for k, v in want.items() if got.get(k) != v
    ]


def weak_copy(urn: Urn, level: int, path) -> list:
    """`weak-copy`: every sequence up to min(level + 2, length) is listed
    once with its base probability under the urn law; the difference is
    tilted - base, 0 up to the level and nonzero somewhere at level + 1;
    each length's tilted probabilities sum to 1."""
    rows = read_rows(path)
    top = min(level + 2, urn.length)
    size = len(urn.labels)
    by_length = defaultdict(dict)
    for r in rows:
        n = int(r["length"])
        counts = urn.counts(r["sequence"])
        if sum(counts) != n:
            return [f"sequence {r['sequence']!r} is not of length {n}"]
        by_length[n][r["sequence"]] = (
            urn.seq_prob(counts), Fraction(r["base_pmf"]), Fraction(r["tilted_pmf"]), Fraction(r["difference"]))
    out = _expect("lengths", sorted(by_length), list(range(top + 1)))
    out += _expect("rows", len(rows), sum(size**n for n in range(top + 1)))
    for n, table in sorted(by_length.items()):
        out += _expect(f"length {n} sequences", len(table), size**n)
        out += _expect(f"length {n} tilted sum", sum(t for _, _, t, _ in table.values()), 1)
        for seq, (law, base, tilted, diff) in table.items():
            out += _expect(f"base_pmf({seq})", base, law)
            out += _expect(f"difference({seq})", diff, tilted - base)
            if n <= level and diff != 0:
                out.append(f"length {n} <= level moved at {seq!r}")
        if n == level + 1 and all(d == 0 for *_, d in table.values()):
            out.append(f"no length-{n} marginal moved")
    return out


@lru_cache(maxsize=None)
def replay_samples(urn: Urn, count: int, seed: int) -> tuple:
    """The `mt19937-cdf64` stream: row i draws `length` labels from
    random.Random(seed + i); each draw takes 64 random bits u and picks the
    first label, among those with positive predictive mass, whose
    cumulative mass exceeds u / 2**64."""
    cumulative = {}
    rows = []
    for i in range(count):
        rng = random.Random(seed + i)
        counts = [0] * len(urn.labels)
        seq = []
        for t in range(urn.length):
            key = tuple(counts)
            if key not in cumulative:
                den = urn.total + t * urn.c
                acc, law = Fraction(0), []
                for j, (a, k) in enumerate(zip(urn.alpha, counts)):
                    p = (a + k * urn.c) / den
                    if p:
                        acc += p
                        law.append((j, acc.numerator << 64, acc.denominator))
                cumulative[key] = law
            law = cumulative[key]
            u = rng.getrandbits(64)
            pick = next((j for j, num, den in law if u * den < num), law[-1][0])
            counts[pick] += 1
            seq.append(urn.labels[pick])
        rows.append(" ".join(seq))
    return tuple(rows)


def sample(urn: Urn, count: int, seed: int, path) -> list:
    """`sample`: `count` rows indexed 0.., labels from the alphabet, and
    every row equal to the replayed stream."""
    rows = read_rows(path)
    want = replay_samples(urn, count, seed)
    out = _expect("rows", len(rows), count)
    for i, (r, seq) in enumerate(zip(rows, want)):
        if r["index"] != str(i) or r["sequence"] != seq:
            labels = set(r["sequence"].split())
            where = "labels outside the alphabet" if labels - set(urn.labels) else "stream mismatch"
            return out + [f"row {i}: {where}: {r['index']},{r['sequence']!r}"]
    return out
