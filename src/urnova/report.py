"""Deterministic CSV reports.

Every run writes one CSV: a metadata row (tool version, parameter hash,
seed, generator), a column header, then data rows in a deterministic order.
Rational values are written as "p/q" with a parallel decimal column rounded
to 12 significant digits; the decimal is advisory, the rational is the
value of record.
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


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


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
    """A CSV in the making: ``rows`` is a list of {column: value} dicts
    that grows by ``add``."""

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
            if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
                key.append((0, v, ""))
            else:
                key.append((1, 0, str(v)))
        return tuple(key)

    def render(self, stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["#meta"] + [f"{k}={v}" for k, v in self.meta.items()])
        header = []
        for col in self.columns:
            header.append(col)
            if col in self.rational_columns:
                header.append(f"{col}_decimal")
        writer.writerow(header)
        for row in sorted(self.rows, key=self._sort_key):
            out = []
            for col in self.columns:
                v = row.get(col, "")
                if col in self.rational_columns and isinstance(v, Fraction):
                    out.append(format_rational(v))
                    out.append(format_decimal(v))
                elif col in self.rational_columns:
                    out.append("" if v == "" else str(v))
                    out.append("")
                else:
                    out.append(str(v))
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
