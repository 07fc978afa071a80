"""Seeded inputs of the benchmark workloads.

Each workload is a fixed list of urnova commands over fixed alphabet sizes,
horizons and replacement regimes.  The seed draws only bounded rational
weights, kernel tables, epsilon and sample seeds, so the cost of a pass
varies little from seed to seed.  The generated model and kernel files are
the only thing the program sees; each command carries the exact check its
CSV must pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple  # urnova arguments, without --out
    check: Callable  # csv path -> list of problems


@dataclass(frozen=True)
class Workload:
    setup: Command  # `validate` on the workload's first model
    commands: tuple


def _urn(rng, size, c, length, lo, hi, den=1) -> checks.Urn:
    """Urn with weights drawn from {lo/den, ..., hi/den}; symbol i has value i.

    With c < 0 the weights are integer multiples of |c| as long as den * c
    is an integer, and lo is chosen so the predictive denominators stay
    positive across the horizon.
    """
    alpha = tuple(Fraction(rng.randint(lo, hi), den) for _ in range(size))
    return checks.Urn(tuple("abcdef"[:size]), alpha, Fraction(c), length)


def _table(rng, urn, arity) -> dict:
    return {ms: Fraction(rng.randint(-5, 5)) for ms in checks.multisets(len(urn.labels), arity)}


class Files:
    """Writes the generated documents into the run's work directory."""

    def __init__(self, work: Path):
        self.work = work

    def write(self, name, doc) -> str:
        path = self.work / name
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        return str(path)

    def model(self, name, urn: checks.Urn) -> str:
        return self.write(name, {
            "symbols": [{"label": l, "value": str(i)} for i, l in enumerate(urn.labels)],
            "alpha": {l: str(w) for l, w in zip(urn.labels, urn.alpha)},
            "c": str(urn.c),
            "length": urn.length,
        })

    def table(self, name, urn: checks.Urn, arity, values: dict) -> str:
        entries = [
            {"multiset": {l: k for l, k in zip(urn.labels, ms) if k}, "value": str(v)}
            for ms, v in values.items()
        ]
        return self.write(name, {"arity": arity, "entries": entries})

    def builtin(self, name) -> str:
        return self.write(f"{name}.json", {"builtin": name})


def validate(path, urn) -> Command:
    return Command("validate", ("validate", "--model", path), partial(checks.validate, urn))


def _decompose(rng, files: Files) -> Workload:
    # Bulk law enumeration: diagonal families and per-level expectations
    # over all four urn regimes, builtin and random table statistics.
    polya = _urn(rng, 6, 1, 6, 1, 4, den=2)
    iid = _urn(rng, 4, 0, 8, 1, 4)
    wor = _urn(rng, 5, -1, 6, 6, 9)
    frac = _urn(rng, 5, Fraction(-1, 2), 6, 12, 18, den=2)
    iid_table = _table(rng, iid, 8)
    frac_table = _table(rng, frac, 6)
    m_polya = files.model("polya6.json", polya)
    m_iid = files.model("iid4.json", iid)
    m_wor = files.model("wor5.json", wor)
    m_frac = files.model("frac5.json", frac)
    k_max, k_min = files.builtin("max"), files.builtin("min")
    k_iid = files.table("table_iid4.json", iid, 8, iid_table)
    k_frac = files.table("table_frac5.json", frac, 6, frac_table)

    def decompose(name, model, urn, kernel, stat, M):
        return Command(name, ("decompose", "--model", model, "--kernel", kernel, "--M", str(M)),
                       partial(checks.decompose, urn, stat, M))

    return Workload(validate(m_polya, polya), (
        decompose("decompose-polya-max", m_polya, polya, k_max, checks.maximum, 6),
        decompose("decompose-iid-table", m_iid, iid, k_iid, iid_table.__getitem__, 8),
        decompose("decompose-wor-max", m_wor, wor, k_max, checks.maximum, 6),
        decompose("decompose-frac-table", m_frac, frac, k_frac, frac_table.__getitem__, 6),
        Command("covariance-polya", ("covariance", "--model", m_polya, "--kernel", k_max,
                                     "--kernel", k_min, "--M", "5"),
                partial(checks.covariance, polya, 5)),
        Command("coeffs-polya", ("coeffs", "--model", m_polya, "--M", "12"),
                partial(checks.coeffs, 12)),
    ))


def _verify(rng, files: Files) -> Workload:
    # Posterior enumeration with an extra block (the weak-independence
    # sweep), exact null spaces and the weak-copy moment sums.
    polya = _urn(rng, 4, 1, 8, 1, 4, den=2)
    iid = _urn(rng, 4, 0, 6, 1, 4)
    wor = _urn(rng, 3, -1, 7, 7, 10)
    frac = _urn(rng, 3, Fraction(-1, 2), 7, 14, 20, den=2)
    epsilon = Fraction(rng.randint(1, 9), 10)
    m_polya = files.model("polya4.json", polya)
    m_iid = files.model("iid4.json", iid)
    m_wor = files.model("wor3.json", wor)
    m_frac = files.model("frac3.json", frac)
    m_mix = files.write("mixture.json", {"epsilon": str(epsilon)})
    k_max = files.builtin("max")

    def check_wi(name, model, urn, level):
        return Command(name, ("check-wi", "--model", model, "--level", str(level)),
                       partial(checks.check_wi, urn, level))

    return Workload(validate(m_polya, polya), (
        check_wi("check-wi-polya-l8", m_polya, polya, 4),
        check_wi("check-wi-iid-l6", m_iid, iid, 4),
        check_wi("check-wi-wor", m_wor, wor, 4),
        check_wi("check-wi-frac", m_frac, frac, 4),
        check_wi("check-wi-mixture", m_mix, None, 5),
        Command("counterexample", ("counterexample", "--epsilon", str(epsilon)),
                partial(checks.counterexample, epsilon)),
        Command("weak-copy-polya", ("weak-copy", "--model", m_polya, "--kernel", k_max,
                                    "--level", "2"),
                partial(checks.weak_copy, polya, 2)),
    ))


def _sample(rng, files: Files) -> Workload:
    # Many small predictive draws behind the cumulative-law cache, and tens
    # of thousands of CSV rows.
    polya = _urn(rng, 6, 1, 12, 1, 4, den=2)
    wor = _urn(rng, 6, -1, 12, 2, 5)
    iid = _urn(rng, 2, 0, 12, 1, 4)
    commands = []
    for name, urn in (("polya", polya), ("wor", wor), ("iid", iid)):
        model = files.model(f"{name}.json", urn)
        seed = rng.randrange(2**31)
        commands.append(Command(
            f"sample-{name}",
            ("sample", "--model", model, "--count", "10000", "--seed", str(seed)),
            partial(checks.sample, urn, 10000, seed),
        ))
    return Workload(validate(commands[0].argv[2], polya), tuple(commands))


MAKERS = {"decompose": _decompose, "verify": _verify, "sample": _sample}
WORKLOADS = tuple(MAKERS)


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the input files of workload `name` for `seed` into `work`."""
    return MAKERS[name](random.Random(f"{name}:{seed}"), Files(work))
