"""Run one urnova command with timing wrappers around each layer.

Usage: python trace_child.py TRACE_JSON URNOVA_ARGS...

The wrappers are installed from here, so the package itself is unchanged.
Modules import each other's functions with `from .x import y`, so every
urnova module namespace holding a wrapped function is patched.  Coarse
boundaries record one span (name, start, end, parent, leaf time) per call;
hot leaf functions only add to per-name call counts and, where listed as
timed, self times.  Leaf functions call no span function, so a span's self
time is its duration minus its child spans and the leaf time inside it.
Everything stays in memory and is written to TRACE_JSON at exit.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# (metric name, module, attribute); an attribute "Class.method" patches the class
SPANS = (
    ("cli.parse", "cli", "build_parser"),
    ("cli.parse", "cli", "parse_model_file"),
    ("cli.parse", "cli", "parse_kernel_file"),
    ("kernels.expectation", "kernels", "expectation"),
    ("conditional.diagonal_family", "conditional", "diagonal_family"),
    ("conditional.cond_expectation", "conditional", "cond_expectation"),
    ("conditional.symmetrized_offdiagonal", "conditional", "symmetrized_offdiagonal"),
    ("coefficients.theta_table", "coefficients", "theta_table"),
    ("decomposition.decompose", "decomposition", "decompose"),
    ("decomposition.extract_kernel", "decomposition", "extract_kernel"),
    ("decomposition.covariance_levels", "decomposition", "covariance_levels"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("weak_independence.degenerate_basis", "weak_independence", "degenerate_basis"),
    ("weak_independence.check_weak_independence", "weak_independence",
     "check_weak_independence"),
    ("weak_copy.build_weak_copy", "weak_copy", "build_weak_copy"),
    ("weak_copy.verify_weak_copy", "weak_copy", "verify_weak_copy"),
    ("report.render_csv", "report", "render_csv"),
)
TIMED_LEAVES = (
    ("models.multiset_weight", "models", "UrnModel.multiset_weight"),
    ("models.multiset_weight", "models", "MixtureModel.multiset_weight"),
    ("models.extension_law", "models", "UrnModel.extension_law"),
    ("models.extension_law", "models", "MixtureModel.extension_law"),
    ("models.sample", "models", "UrnModel.sample"),
)
COUNTED_LEAVES = (
    ("models.joint_pmf", "models", "UrnModel.joint_pmf"),
    ("models.joint_pmf", "models", "MixtureModel.joint_pmf"),
    ("models.predictive", "models", "UrnModel.predictive"),
    ("models.predictive", "models", "MixtureModel.predictive"),
    ("weak_copy.dirichlet_moment", "weak_copy", "dirichlet_moment"),
    ("weak_copy.marginal_pmf", "weak_copy", "TiltedModel.marginal_pmf"),
)


def _nullspace_cells(counters, matrix, ncols=None):
    cols = ncols if ncols is not None else (len(matrix[0]) if matrix else 0)
    counters["linalg.nullspace.cells"] += len(matrix) * cols


def _report_counters(counters, report, path=None):
    counters["report.rows"] += len(report.rows)
    bits = max(
        (max(v.numerator.bit_length(), v.denominator.bit_length())
         for row in report.rows for v in row.values() if isinstance(v, Fraction)),
        default=0,
    )
    counters["report.rational_bits_max"] = max(counters["report.rational_bits_max"], bits)


HOOKS = {
    "linalg.nullspace": _nullspace_cells,
    "report.render_csv": _report_counters,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1, leaf seconds]
        self.stack = []  # open frames: [span index or -1 for a leaf, child leaf seconds]
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()

    def span(self, name, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook:
                hook(counters, *args, **kwargs)
            parent = stack[-1][0] if stack else -1
            record = [name, perf_counter(), 0.0, parent, 0.0]
            frame = [len(spans), 0.0]
            spans.append(record)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                record[4] = frame[1]
        return wrapper

    def timed(self, name, fn):
        stack, calls, self_s = self.stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [-1, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package):
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for kinds, make in ((SPANS, self.span), (TIMED_LEAVES, self.timed),
                            (COUNTED_LEAVES, self.counted)):
            for name, module, attr in kinds:
                owner = getattr(package, module)
                *classes, leaf = attr.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, leaf)
                wrapped = make(name, original)
                if classes:
                    setattr(owner, leaf, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def dump(self, path, import_s):
        with open(path, "w") as fh:
            json.dump({
                "import_s": import_s,
                "spans": self.spans,
                "calls": self.calls,
                "self_s": self.self_s,
                "counters": self.counters,
            }, fh)


def main(argv):
    trace_path, args = argv[0], argv[1:]
    start = perf_counter()
    import urnova
    import urnova.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install(urnova)
    run = tracer.span("cli.main", urnova.cli.main)
    try:
        return run(args)
    finally:
        tracer.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
