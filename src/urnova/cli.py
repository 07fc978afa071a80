"""Batch command line: parse model/kernel files, dispatch one computation,
emit one deterministic CSV report.

Exit codes by error category: 0 success, 2 parse, 3 validation, 4 horizon,
5 degenerate-assumption, 6 io, 1 anything else.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import sys
import threading
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .coefficients import theta_table
from .combinatorics import permutation_count
from .decomposition import (
    covariance_levels,
    decompose,
    degenerate_cov,
    ustat_norm_lower_constant,
    wor_level_variance_derived,
    wor_level_variance_printed,
)
from .errors import (ArityMismatch, IoError, ParseError, UnknownSymbol, UrnovaError,
                     ValidationError, WorkerFailed)
from .kernels import BUILTIN_KERNELS, SymmetricKernel, builtin_kernel, expectation, from_table
from .models import (
    MixtureModel,
    RNG_ALGORITHM,
    UrnModel,
    as_fraction,
    check_horizon,
    shown,
    urn_model,
)
from .report import Report, param_hash, render_csv
from .weak_copy import build_weak_copy, verify_weak_copy
from .weak_independence import check_weak_independence, witness_report

# exact values are written in full: a command lifts the interpreter's limit on
# the digits of an int (3.10.7+) once its inputs are read; main restores it
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)

EXIT_CODES = {
    "parse": 2,
    "validation": 3,
    "horizon": 4,
    "degenerate-assumption": 5,
    "io": 6,
}


def rational(value) -> Fraction:
    """A flag's or a document's rational, as a Fraction: an int or a
    RATIONAL_TEXT string, read by the library's as_fraction."""
    try:
        return as_fraction(value)
    except ValidationError:
        raise argparse.ArgumentTypeError(f"not a rational: {shown(value)}") from None


def _rational(value, where: str) -> Fraction:
    try:
        return rational(value)
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def parse_model_file(path):
    """Model files: an urn document with symbols/alpha/c/length, or a
    mixture document carrying just an epsilon."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: model document must be an object")
    if "epsilon" in doc:
        return MixtureModel(_rational(doc["epsilon"], f"{path}: epsilon"))
    for key in ("symbols", "alpha", "c", "length"):
        if key not in doc:
            raise ParseError(f"{path}: missing field {shown(key)}")
    if not isinstance(doc["symbols"], list):
        raise ParseError(f"{path}: symbols must be a list, not {shown(doc['symbols'])}")
    if not isinstance(doc["alpha"], dict):
        raise ParseError(f"{path}: alpha must map labels to weights, not {shown(doc['alpha'])}")
    if type(doc["length"]) is not int:  # bool is a subclass of int
        raise ParseError(f"{path}: length must be an integer, not {shown(doc['length'])}")
    symbols = []
    for i, entry in enumerate(doc["symbols"]):
        if not isinstance(entry, dict) or not isinstance(entry.get("label"), str):
            raise ParseError(f"{path}: symbols[{i}] needs a string label, not {shown(entry)}")
        label = entry["label"]
        if not label or any(ch.isspace() or ch == "," or "\ud800" <= ch <= "\udfff"
                            for ch in label):
            # CSV rows join labels with spaces, --seq splits on commas, and a
            # lone surrogate (a JSON escape) has no UTF-8 form
            raise ParseError(f"{path}: symbols[{i}] label must be non-empty UTF-8, without "
                             f"whitespace or commas, not {shown(label)}")
        if "value" in entry and entry["value"] is not None:
            symbols.append((label, _rational(entry["value"], f"{path}: symbols[{i}].value")))
        else:
            symbols.append(label)
    alpha = {
        label: _rational(v, f"{path}: alpha[{shown(label)}]")
        for label, v in doc["alpha"].items()
    }
    try:
        return urn_model(symbols, alpha, _rational(doc["c"], f"{path}: c"), doc["length"])
    except UnknownSymbol as exc:  # only an alpha key can name a symbol not in symbols
        raise UnknownSymbol(f"{path}: alpha: {exc}") from None


def parse_kernel_file(path, model, arity=None) -> SymmetricKernel:
    """Kernel files: an explicit multiset table, or a builtin reference
    resolved against the model's alphabet.  A builtin takes its arity from
    the document or else from `arity`, the arity the command needs, which
    the kernel must then have."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: kernel document must be an object")
    if "builtin" in doc:
        name = doc["builtin"]
        if name not in BUILTIN_KERNELS:
            raise ParseError(
                f"{path}: builtin must be one of {', '.join(BUILTIN_KERNELS)}, not {shown(name)}"
            )
        size = _arity(doc, path) if "arity" in doc else arity
        if size is None:
            raise ParseError(f"{path}: builtin kernel needs an arity")
        target = None
        if "multiset" in doc:
            target = _expand_multiset(doc["multiset"], f"{path}: multiset")
        try:
            kernel = builtin_kernel(model.alphabet, size, name, target)
        except ValidationError as exc:
            field = "multiset" if name == "indicator" else "builtin"
            raise type(exc)(f"{path}: {field}: {exc}") from None
    else:
        for key in ("arity", "entries"):
            if key not in doc:
                raise ParseError(f"{path}: missing field {shown(key)}")
        if not isinstance(doc["entries"], list):
            raise ParseError(f"{path}: entries must be a list, not {shown(doc['entries'])}")
        entries = []
        for i, entry in enumerate(doc["entries"]):
            if not isinstance(entry, dict) or "multiset" not in entry or "value" not in entry:
                raise ParseError(f"{path}: entries[{i}] needs multiset and value, "
                                 f"not {shown(entry)}")
            labels = _expand_multiset(entry["multiset"], f"{path}: entries[{i}].multiset")
            entries.append((labels, _rational(entry["value"], f"{path}: entries[{i}].value")))
        try:
            kernel = from_table(model.alphabet, _arity(doc, path), entries)
        except ValidationError as exc:
            raise type(exc)(f"{path}: entries: {exc}") from None
    if arity is not None and kernel.arity != arity:
        raise ArityMismatch(f"{path}: arity {kernel.arity}, but the command needs arity {arity}")
    return kernel


def _arity(doc, path) -> int:
    value = doc["arity"]
    if type(value) is not int or value < 1:  # bool is a subclass of int
        raise ParseError(f"{path}: arity must be a positive integer, not {shown(value)}")
    return value


def _expand_multiset(doc, where: str) -> tuple:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: must map labels to counts, not {shown(doc)}")
    labels = []
    for label, count in doc.items():
        if type(count) is not int or count < 0:  # bool is a subclass of int
            raise ParseError(f"{where}: bad multiplicity for {shown(label)}: {shown(count)}")
        labels.extend([label] * count)
    return tuple(labels)


def kernel_to_json(kernel: SymmetricKernel) -> dict:
    entries = [{"multiset": dict(Counter(ms)), "value": str(v)} for ms, v in kernel.entries]
    return {"arity": kernel.arity, "entries": entries}


def kernel_json_text(kernel: SymmetricKernel) -> str:
    """``json.dumps(kernel_to_json(kernel), indent=1, sort_keys=True)``,
    written directly for the fixed schema: with an indent the stdlib
    encodes in pure Python."""
    quote = json.encoder.encode_basestring_ascii
    entries = []
    for ms, v in kernel.entries:
        counts = ",\n    ".join(f"{quote(label)}: {k}" for label, k in sorted(Counter(ms).items()))
        multiset = f"{{\n    {counts}\n   }}" if counts else "{}"
        entries.append(f'  {{\n   "multiset": {multiset},\n   "value": {quote(str(v))}\n  }}')
    body = "[\n" + ",\n".join(entries) + "\n ]" if entries else "[]"
    return f'{{\n "arity": {kernel.arity},\n "entries": {body}\n}}'


def _meta(args, *inputs, **extra):
    # the hash covers what the run computes: the command, its own flag
    # values and the parsed inputs; no path (input file or --out) is hashed
    config = {k: v for k, v in vars(args).items() if k not in ("model", "kernel", "out")}
    config["inputs"] = [repr(x) for x in inputs]
    meta = {
        "tool_version": __version__,
        "param_hash": param_hash(config),
        "seed": getattr(args, "seed", ""),
        "rng": RNG_ALGORITHM,
    }
    meta.update(extra)
    return meta


def _require_urn(model, what: str) -> UrnModel:
    if not isinstance(model, UrnModel):
        raise ValidationError(f"{what} needs an urn model, not a mixture")
    return model


# -- subcommands ---------------------------------------------------------------

def cmd_validate(args):
    model = parse_model_file(args.model)
    rep = Report(_meta(args, model), ["field", "value"])
    if isinstance(model, MixtureModel):
        rep.add(field="kind", value="mixture")
        rep.add(field="epsilon", value=model.epsilon)
    else:
        rep.add(field="kind", value="urn")
        rep.add(field="symbols", value=" ".join(model.alphabet.labels))
        for label, w in model.alpha:
            rep.add(field=f"alpha[{label}]", value=w)
        rep.add(field="c", value=model.c)
        rep.add(field="length", value=model.length)
        rep.add(field="alpha_total", value=model.alpha_total)
        rep.add(field="rate", value=model.rate)
        rep.add(field="double_extendible", value=model.is_double_extendible)
    return rep


def cmd_pmf(args):
    model = parse_model_file(args.model)
    if args.seq is None:
        check_horizon(model, args.M, f"{args.model}: --M {args.M}")
    rep = Report(
        _meta(args, model),
        ["sequence", "ordered_pmf", "multiset_weight"],
        rational_columns=("ordered_pmf", "multiset_weight"),
    )
    sequences = model.alphabet.multisets(args.M) if args.seq is None else [args.seq.split(",")]
    for seq in sequences:
        try:
            weight = model.multiset_weight(seq)
        except UrnovaError as exc:
            raise exc if args.seq is None else type(exc)(f"--seq: {exc}") from None
        rep.add(
            sequence=" ".join(seq),
            ordered_pmf=weight / permutation_count(seq),
            multiset_weight=weight,
        )
    return rep


def cmd_sample(args):
    model = _require_urn(parse_model_file(args.model), "sampling")
    n = args.M or model.length
    check_horizon(model, n, f"{args.model}: --M {n}")
    rep = Report(_meta(args, model), ["index", "sequence"])

    def rows(start, stop):
        return [" ".join(model.sample(n, args.seed + i)) for i in range(start, stop)]

    for i, sequence in enumerate(forked_rows(rows, args.count)):
        rep.add(index=i, sequence=sequence)
    return rep


ROWS_PER_WORKER = 1000  # a fork and its waitpid (about 2 ms) stay a small share of a block


def _worker_count(count: int) -> int:
    """One process per usable CPU, with at least ROWS_PER_WORKER rows each;
    one where fork is missing or unsafe (in a process with threads)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, count // ROWS_PER_WORKER))


def forked_rows(compute, count: int) -> list:
    """``compute(0, count)``, a list of str, computed in contiguous blocks:
    the first by this process and each other by a forked worker, which
    sends its list back marshalled through a pipe.  ``compute(start, stop)``
    must give the rows start..stop-1 whatever the blocks are.  The call
    raises WorkerFailed when a worker fails, and no worker outlives it."""
    workers = _worker_count(count)
    bounds = [count * j // workers for j in range(workers + 1)]
    running = []  # (pid, pipe, start, stop) of each worker not yet reaped
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            read, write = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(compute, start, stop, write)
            except OSError:
                os.close(read)
                raise
            finally:  # in this process only: a worker never returns
                os.close(write)
            running.append((pid, open(read, "rb"), start, stop))
        rows = compute(bounds[0], bounds[1])
        while running:
            pid, pipe, start, stop = running[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del running[0]
            if code:
                raise WorkerFailed(f"the worker of rows {start} to {stop - 1} exited with {code}")
            rows += marshal.loads(data)
        return rows
    finally:
        for pid, pipe, _, _ in running:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _worker(compute, start, stop, write):
    """A forked worker's whole life: write ``compute(start, stop)``
    marshalled to the pipe end ``write`` and exit, running no exit handler
    and flushing no stdio buffer it inherited."""
    try:
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(compute(start, stop)))
        code = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
        code = 1
    os._exit(code)


def cmd_coeffs(args):
    model = _require_urn(parse_model_file(args.model), "coefficient tables")
    table = theta_table(args.M, model.rate)
    rep = Report(
        _meta(args, model),
        ["table", "i1", "i2", "i3", "i4", "value"],
        rational_columns=("value",),
    )
    for name in table._fields[1:]:  # the five maps after M
        for key, v in getattr(table, name).items():
            indices = key if isinstance(key, tuple) else (key,)  # gamma is keyed by k alone
            rep.add(table=name, **dict(zip(("i1", "i2", "i3", "i4"), indices)), value=v)
    return rep


def cmd_decompose(args):
    model = _require_urn(parse_model_file(args.model), "decomposition")
    check_horizon(model, args.M, f"{args.model}: --M {args.M}")
    statistic = parse_kernel_file(args.kernel[0], model, args.M)
    result = decompose(model, statistic, args.M)
    table = theta_table(args.M, model.rate)
    rep = Report(
        _meta(args, model, statistic),
        ["row", "level", "a", "multiset", "value"],
        rational_columns=("value",),
    )
    rep.add(row="mean", level="", a="", multiset="", value=result.mean)
    for (k, a), v in table.theta.items():
        rep.add(row="theta", level=k, a=a, multiset="", value=v)
        rep.add(row="theta_star", level=k, a=a, multiset="", value=table.theta_star[(k, a)])
    for s, kernel in enumerate(result.kernels, start=1):
        for ms, v in kernel.entries:
            rep.add(row="kernel", level=s, a="", multiset=" ".join(ms), value=v)
    if args.out:
        _set_digit_limit(0)
        for s, kernel in enumerate(result.kernels, start=1):
            side = f"{args.out}.level{s}.json"
            try:
                with open(side, "w", encoding="utf-8") as fh:
                    fh.write(kernel_json_text(kernel))
            except OSError as exc:
                raise IoError(f"cannot write {side}: {exc}") from exc
    return rep


def cmd_covariance(args):
    model = _require_urn(parse_model_file(args.model), "covariance")
    check_horizon(model, args.M, f"{args.model}: --M {args.M}")
    left, right = (parse_kernel_file(path, model, args.M) for path in args.kernel)
    meta = _meta(args, model, left, right)
    # the identity is stated for centered statistics; center here and record
    mean_left = expectation(model, left)
    mean_right = expectation(model, right)
    left = left.shift(-mean_left)
    right = right.shift(-mean_right)
    levels, total = covariance_levels(model, left, right, args.M)
    rep = Report(meta, ["row", "level", "value"], rational_columns=("value",))
    rep.add(row="mean_left", level="", value=mean_left)
    rep.add(row="mean_right", level="", value=mean_right)
    for s, v in enumerate(levels, start=1):
        rep.add(row="level_term", level=s, value=v)
    rep.add(row="total", level="", value=total)
    rep.add(row="product_moment", level="", value=expectation(model, left.pointwise_product(right)))
    return rep


def cmd_degenerate_cov(args):
    model = _require_urn(parse_model_file(args.model), "degenerate covariance")
    left, right = (parse_kernel_file(path, model) for path in args.kernel)
    if left.arity != right.arity:
        raise ArityMismatch(f"{args.kernel[1]}: arity {right.arity}, but degenerate-cov "
                            f"needs the arity {left.arity} of {args.kernel[0]}")
    overlap = args.overlap if args.overlap is not None else left.arity
    value = degenerate_cov(model, left, right, overlap)
    rep = Report(_meta(args, model, left, right), ["overlap", "value"],
                 rational_columns=("value",))
    rep.add(overlap=overlap, value=value)
    return rep


def cmd_check_wi(args):
    model = parse_model_file(args.model)
    check_horizon(model, args.level, f"{args.model}: --level {args.level}")
    rep = Report(
        _meta(args, model, scope=f"weakly-independent-up-to-level-{args.level}"),
        ["level", "row", "basis_index", "overlap", "witness", "value"],
        rational_columns=("value",),
    )
    for n in range(1, args.level + 1):
        result = check_weak_independence(model, n)
        rep.add(level=n, row="summary", basis_index=len(result.basis),
                overlap="", witness="passed" if result.passed else "failed", value="")
        for r in result.unchecked_overlaps:
            rep.add(level=n, row="not-checkable", overlap=r)
        for v in result.violations:
            rep.add(level=n, row="violation", basis_index=v.basis_index,
                    overlap=v.overlap, witness=" ".join(v.witness), value=v.value)
    return rep


def cmd_counterexample(args):
    result = witness_report(args.epsilon)
    rep = Report(_meta(args), ["quantity", "value"], rational_columns=("value",))
    rep.add(quantity="epsilon", value=args.epsilon)
    rep.add(quantity="E[phi|second=0]", value=result.given_second_zero)
    rep.add(quantity="E[phi|second=1]", value=result.given_second_one)
    rep.add(quantity="E[phi|third=0]", value=result.given_third_zero)
    rep.add(quantity="closed_form", value=result.closed_form)
    rep.add(quantity="passed", value=Fraction(1 if result.passed else 0))
    return rep


def cmd_weak_copy(args):
    model = _require_urn(parse_model_file(args.model), "weak copies")
    arity = args.level + 1  # of the seed statistic and its tilt
    check_horizon(model, arity, f"{args.model}: --level {args.level} (needs {arity} coordinates)")
    seed_stat = parse_kernel_file(args.kernel[0], model, arity)
    tilted = build_weak_copy(model, args.level, seed_stat, args.eta)
    result = verify_weak_copy(tilted)
    rep = Report(
        _meta(
            args, model, seed_stat,
            scale=tilted.scale,
            density_bound=result.density_bound,
            passed=str(result.passed),
        ),
        ["length", "sequence", "base_pmf", "tilted_pmf", "difference"],
        rational_columns=("base_pmf", "tilted_pmf", "difference"),
    )
    for seq, base_p, tilt_p in result.marginals:
        rep.add(length=len(seq), sequence=" ".join(seq), base_pmf=base_p,
                tilted_pmf=tilt_p, difference=tilt_p - base_p)
    return rep


def cmd_wor_variance(args):
    if args.draws > args.M:
        raise ParseError(f"zhao-chen: --draws {args.draws} exceeds --M {args.M}")
    if args.level and args.level > args.draws:
        raise ParseError(f"zhao-chen: --level {args.level} exceeds --draws {args.draws}")
    levels = [args.level] if args.level else list(range(1, args.draws + 1))
    rep = Report(
        _meta(args),
        ["population", "sample", "level", "printed", "derived", "agree"],
        rational_columns=("printed", "derived"),
    )
    for i in levels:
        printed = wor_level_variance_printed(args.M, args.draws, i, Fraction(1))
        derived = wor_level_variance_derived(args.M, args.draws, i)
        rep.add(population=args.M, sample=args.draws, level=i,
                printed=printed, derived=derived, agree=printed == derived)
    return rep


def cmd_ustat_bound(args):
    rep = Report(
        _meta(args),
        ["N", "n", "i", "constant"],
        rational_columns=("constant",),
    )
    if (args.n is None) != (args.level is None):
        given, missing = ("--n", "--level") if args.level is None else ("--level", "--n")
        raise ParseError(f"lemma3: {given} needs {missing}")
    pairs = ([(args.n, args.level)] if args.n else
             [(n, i) for n in range(1, args.N) for i in range(1, n + 1)])
    for n, i in pairs:
        rep.add(N=args.N, n=n, i=i, constant=ustat_norm_lower_constant(args.N, n, i))
    return rep


# -- flags ---------------------------------------------------------------------

def _int_at_least(text: str, least: int, words: str) -> int:
    """An integer flag of at least `least`; text that is no integer is
    refused in the same words as one out of range."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        raise argparse.ArgumentTypeError(f"must be {words}, not {shown(text)}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1, "a positive integer")


def non_negative_int(text: str) -> int:
    return _int_at_least(text, 0, "a non-negative integer")


def open_unit_rational(text: str) -> Fraction:
    value = rational(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, not {shown(text)}")
    return value


# argparse settings of each flag; a command's table entry may add to them
FLAGS = {
    "model": {"metavar": "PATH"},
    "M": {"type": positive_int},
    "seq": {"metavar": "LABELS"},
    "count": {"type": positive_int, "default": 1},
    "seed": {"type": non_negative_int},
    "level": {"type": positive_int},
    "overlap": {"type": non_negative_int},
    "epsilon": {"type": open_unit_rational},
    "eta": {"type": open_unit_rational, "default": Fraction(1, 2)},
    "draws": {"type": positive_int},
    "N": {"type": positive_int},
    "n": {"type": positive_int},
}
REQUIRED = {"required": True}


class Command(NamedTuple):
    run: Callable
    flags: dict  # flag -> settings added to FLAGS[flag]; every command also takes --out
    kernels: int = 0  # number of --kernel files; nonzero adds a required --kernel


COMMANDS = {
    "validate": Command(cmd_validate, {"model": REQUIRED}),
    "pmf": Command(cmd_pmf, {"model": REQUIRED, "M": {"default": 1}, "seq": {}}),
    "sample": Command(cmd_sample, {"model": REQUIRED, "M": {}, "count": {}, "seed": REQUIRED}),
    "coeffs": Command(cmd_coeffs, {"model": REQUIRED, "M": REQUIRED}),
    "decompose": Command(cmd_decompose, {"model": REQUIRED, "M": REQUIRED}, kernels=1),
    "covariance": Command(cmd_covariance, {"model": REQUIRED, "M": REQUIRED}, kernels=2),
    "degenerate-cov": Command(cmd_degenerate_cov, {"model": REQUIRED, "overlap": {}}, kernels=2),
    "check-wi": Command(cmd_check_wi, {"model": REQUIRED, "level": {"default": 2}}),
    "counterexample": Command(cmd_counterexample, {"epsilon": REQUIRED}),
    "weak-copy": Command(cmd_weak_copy, {"model": REQUIRED, "level": {"default": 1}, "eta": {}},
                         kernels=1),
    "zhao-chen": Command(cmd_wor_variance, {"M": REQUIRED, "draws": REQUIRED, "level": {}}),
    "lemma3": Command(cmd_ustat_bound, {"N": REQUIRED, "n": {}, "level": {}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnova",
        description="exact conditional calculus and decompositions for urn sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, settings in command.flags.items():
            p.add_argument(f"--{flag}", **FLAGS[flag], **settings)
        if command.kernels:
            p.add_argument("--kernel", action="append", required=True, metavar="PATH")
        p.add_argument("--out", metavar="PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    limit = _get_digit_limit()
    try:
        if command.kernels and len(args.kernel) != command.kernels:
            raise ValidationError(
                f"{args.command} takes {command.kernels} --kernel file(s), got {len(args.kernel)}"
            )
        report = command.run(args)
        _set_digit_limit(0)
        render_csv(report, args.out)
    except UrnovaError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    finally:
        _set_digit_limit(limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
