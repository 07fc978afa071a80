"""Self-test of the benchmark: the generator is deterministic, every exact
check passes on real urnova output and flags each single mutated value, and
the traced child reports the metrics BENCHMARK.json names.

Run from the repository root:  python3 -m unittest discover -s bench
"""

from __future__ import annotations

import csv
import json
import tempfile
import unittest
from fractions import Fraction
from functools import partial
from pathlib import Path

import checks
import run
import trace_child
import workloads
from workloads import Command

SWAPS = {"passed": "failed", "failed": "passed", "True": "False", "False": "True",
         "urn": "mixture"}


def mutated(value: str, labels) -> str:
    try:
        return str(Fraction(value) + 1)
    except ValueError:
        pass
    if value in SWAPS:
        return SWAPS[value]
    words = value.split()
    if words and all(w in labels for w in words):
        words[0] = labels[(labels.index(words[0]) + 1) % len(labels)]
        return " ".join(words)
    return value + "x"


def rewrite_cell(path: Path, row: int, column: str, value: str):
    meta, *lines = path.read_text().splitlines()
    table = list(csv.reader(lines))
    table[row + 1][table[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        fh.write(meta + "\n")
        csv.writer(fh, lineterminator="\n").writerows(table)


class Fixture(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.work = Path(tmp.name)
        self.files = workloads.Files(self.work)
        self.runner = run.Runner(self.work)

    def urn(self, name, alpha, c, length):
        urn = checks.Urn(tuple("abcdef"[:len(alpha)]), tuple(map(Fraction, alpha)),
                         Fraction(c), length)
        return urn, self.files.model(f"{name}.json", urn)


class GeneratorTest(unittest.TestCase):
    def snapshot(self, name, seed):
        with tempfile.TemporaryDirectory() as tmp:
            workload = workloads.build(name, seed, Path(tmp))
            files = {p.name: p.read_text() for p in Path(tmp).iterdir()}
            argv = [tuple(a.replace(tmp, "<work>") for a in c.argv)
                    for c in (workload.setup, *workload.commands)]
        return files, argv

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first = self.snapshot(name, 7)
                self.assertEqual(first, self.snapshot(name, 7))
                self.assertNotEqual(first, self.snapshot(name, 8))


class ChecksTest(Fixture):
    """Each command runs once on small inputs; its CSV must pass its check,
    and every single mutated value of record must fail it."""

    def assert_checked(self, command: Command, labels, columns, rows=None):
        result = self.runner.run(command)
        self.assertEqual(result.problems, [], command.name)
        path = self.work / f"{command.name}.csv"
        original = path.read_text()
        data = list(csv.DictReader(original.splitlines()[1:]))
        mutations = 0
        for i, row in enumerate(data):
            if rows and row[rows[0]] not in rows[1]:
                continue
            for column in columns:
                if row[column] == "":
                    continue
                rewrite_cell(path, i, column, mutated(row[column], labels))
                with self.subTest(command=command.name, row=i, column=column):
                    self.assertNotEqual(command.check(path), [])
                path.write_text(original)
                mutations += 1
        self.assertGreater(mutations, 0)

    def test_validate(self):
        urn, model = self.urn("frac", ["3/2", "2", "5/2"], "-1/2", 4)
        self.assert_checked(workloads.validate(model, urn), urn.labels, ["value"])

    def test_decompose(self):
        urn, model = self.urn("wor", [3, 2, 4], -1, 3)
        table = {ms: Fraction(i - 4, 3) for i, ms in enumerate(checks.multisets(3, 3))}
        kernel = self.files.table("table.json", urn, 3, table)
        for name, kernel_file, stat in (("max", self.files.builtin("max"), checks.maximum),
                                        ("table", kernel, table.__getitem__)):
            command = Command(f"decompose-{name}", ("decompose", "--model", model, "--kernel",
                                            kernel_file, "--M", "3"),
                              partial(checks.decompose, urn, stat, 3))
            self.assert_checked(command, urn.labels, ["value"])

    def test_covariance(self):
        urn, model = self.urn("polya", ["1/2", 1, 2], 1, 3)
        command = Command("covariance", ("covariance", "--model", model,
                                         "--kernel", self.files.builtin("max"),
                                         "--kernel", self.files.builtin("min"), "--M", "3"),
                          partial(checks.covariance, urn, 3))
        self.assert_checked(command, urn.labels, ["value"])

    def test_coeffs(self):
        urn, model = self.urn("polya", [1, 2], "1/2", 4)
        command = Command("coeffs", ("coeffs", "--model", model, "--M", "4"),
                          partial(checks.coeffs, 4))
        self.assert_checked(command, urn.labels, ["value"])

    def test_check_wi(self):
        urn, model = self.urn("iid", [1, 2, 3], 0, 4)
        mixture = self.files.write("mixture.json", {"epsilon": "1/3"})
        for name, path, model_urn in (("urn", model, urn), ("mixture", mixture, None)):
            command = Command(f"check-wi-{name}", ("check-wi", "--model", path, "--level", "3"),
                              partial(checks.check_wi, model_urn, 3))
            self.assert_checked(command, urn.labels, ["witness", "basis_index"],
                                rows=("row", {"summary"}))
        self.assert_checked(Command("check-wi-urn", ("check-wi", "--model", model, "--level", "3"),
                                    partial(checks.check_wi, urn, 3)),
                            urn.labels, ["overlap"], rows=("row", {"not-checkable"}))

    def test_counterexample(self):
        command = Command("counterexample", ("counterexample", "--epsilon", "2/7"),
                          partial(checks.counterexample, Fraction(2, 7)))
        self.assert_checked(command, (), ["value"])

    def test_weak_copy(self):
        urn, model = self.urn("polya", [1, "3/2"], 1, 3)
        command = Command("weak-copy", ("weak-copy", "--model", model, "--kernel",
                                        self.files.builtin("max"), "--level", "1"),
                          partial(checks.weak_copy, urn, 1))
        self.assert_checked(command, urn.labels, ["base_pmf", "tilted_pmf", "difference"])

    def test_sample(self):
        urn, model = self.urn("wor", [1, 2, 2], -1, 4)
        command = Command("sample", ("sample", "--model", model, "--count", "25",
                                     "--seed", "99"),
                          partial(checks.sample, urn, 25, 99))
        self.assert_checked(command, urn.labels, ["index", "sequence"])


class TraceTest(Fixture):
    def test_spans_reach_every_module_namespace(self):
        urn, model = self.urn("polya", [1, 2, 1], 1, 3)
        command = Command("decompose", ("decompose", "--model", model, "--kernel",
                                        self.files.builtin("max"), "--M", "3"),
                          partial(checks.decompose, urn, checks.maximum, 3))
        result = self.runner.run(command, traced=True)
        self.assertEqual(result.problems, [])
        layers = run.layer_metrics([result])
        self.assertEqual(layers["decomposition.extract_kernel.calls"], 3)
        self.assertEqual(layers["cli.main.calls"], 1)
        self.assertEqual(layers["report.rows"], 1 + 2 * 6 + 3 + 6 + 10)
        self.assertGreater(layers["models.multiset_weight.calls"], 0)
        total = result.trace["spans"][0]
        self.assertEqual(total[0], "cli.main")
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        self.assertAlmostEqual(self_sum, total[2] - total[1], places=6)

    def test_benchmark_metrics_are_produced(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        produced = {"cli.import_s", "trace.overhead_s", "linalg.nullspace.cells",
                    "report.rows", "report.rational_bits_max"}
        for name, *_ in trace_child.SPANS:
            produced |= {f"{name}.calls", f"{name}.self_s", f"{name}.total_s"}
        for name, *_ in trace_child.TIMED_LEAVES:
            produced |= {f"{name}.calls", f"{name}.self_s"}
        produced |= {f"{name}.calls" for name, *_ in trace_child.COUNTED_LEAVES}
        self.assertLessEqual({m["name"] for m in spec["per_layer"]}, produced)
        self.assertEqual({m["name"] for m in spec["end_to_end"]},
                         {"setup_s", "slowest_cmd_s", "ok_frac",
                          *run.pass_metrics([run.Result(1, 1, 1, [], None)])})


if __name__ == "__main__":
    unittest.main()
