"""Deterministic CSV reports.

Every run writes one CSV: a metadata row (tool version, parameter hash,
seed, generator), a header, then the rows sorted column by column in the
declared order: numbers (ints and rationals, never booleans) by value and
before any text, text by its characters, a missing cell as empty text.
Rationals are written as "p/q" beside an advisory decimal column rounded to
12 significant digits; the rational is the value of record.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import IoError


def param_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def format_decimal(x: Fraction) -> str:
    try:
        value = float(x)
        if abs(value) >= sys.float_info.min or not x:
            return f"{value:.12g}"
    except OverflowError:
        pass
    # outside the normal float range, where a float keeps fewer than 12
    # digits: round the exact quotient to 12 digits instead
    with localcontext() as ctx:
        ctx.prec = 12
        return f"{(Decimal(x.numerator) / x.denominator).normalize():.12g}"


class Report:
    """A CSV in the making: ``rows``, a list of {column: value} dicts, grows by ``add``."""

    def __init__(self, meta: dict, columns: list, rational_columns=()):
        self.meta = meta
        self.columns = columns
        self.rows = []
        self.rational_columns = rational_columns

    def add(self, **values):
        self.rows.append(values)

    def _sort_key(self, row):
        key = []
        for col in self.columns:
            v = row.get(col, "")
            number = isinstance(v, (int, Fraction)) and not isinstance(v, bool)
            key.append((0, v) if number else (1, str(v)))
        return tuple(key)

    def render(self, stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["#meta"] + [f"{k}={v}" for k, v in self.meta.items()])
        plan = [(col, col in self.rational_columns) for col in self.columns]
        writer.writerow([name for col, rational in plan
                         for name in ((col, f"{col}_decimal") if rational else (col,))])
        for row in sorted(self.rows, key=self._sort_key):
            out = []
            for col, rational in plan:
                v = row.get(col, "")
                out.append(str(v))
                if rational:  # a rational column may also hold "" or an int
                    out.append(format_decimal(v) if isinstance(v, Fraction) else "")
            writer.writerow(out)


def render_csv(report: Report, path=None):
    """Write the report as UTF-8 to `path`, or stdout when no path is given."""
    try:
        if path is None:
            sys.stdout.reconfigure(encoding="utf-8")
            report.render(sys.stdout)
            sys.stdout.flush()
        else:
            with open(path, "w", newline="", encoding="utf-8") as fh:
                report.render(fh)
    except OSError as exc:
        if path is None:  # e.g. a closed pipe
            # fd 1 now discards, so the flush at interpreter exit cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise IoError(f"cannot write {path or 'stdout'}: {exc}") from exc
