"""urnova benchmark: seeded CLI workloads with exact output checks.

Usage (from the repository root):

    python3 bench/run.py --workload decompose|verify|sample --seed N --seconds S --trace 0|1

One client runs `python -m urnova.cli <subcommand>` in a closed loop, one
fresh process per command and one command at a time, so every command pays
interpreter start-up, the package import and cold in-process caches, as a
user does.  A pass runs the workload's commands once; passes repeat while
the next one is expected to end within S seconds.  Every command's CSV is
checked exactly, and its data rows must be byte-identical in every pass.

End-to-end metrics, medians over the run except ok_frac:
  setup_s        wall time of `validate` on the workload's first model
  run_s          sum of the command wall times of one pass
  slowest_cmd_s  wall time of the command with the largest median
  cpu_s          user + system time of one pass's processes (os.wait4)
  peak_rss_mb    largest ru_maxrss among one pass's processes
  ok_frac        share of commands that exited 0 and passed their check

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced passes with traced ones (each command under
trace_child.py) and reports the per-layer metrics, including the tracing
overhead.  Metric names and units are those of BENCHMARK.json.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_CHILD = BENCH / "trace_child.py"
SETUP_PER_PASS = 3
MIN_PASSES = 3


@dataclass
class Result:
    wall: float
    cpu: float
    rss_mb: float
    problems: list
    trace: dict | None


class Runner:
    """Spawns urnova commands one at a time and checks their output."""

    def __init__(self, work: Path):
        self.work = work
        # Bytecode is never cached, so every command compiles the package as
        # a fresh checkout does and nothing is written outside the work dir.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        PYTHONDONTWRITEBYTECODE="1")
        self.digests = {}
        self.attempted = 0
        self.problems = []

    def run(self, command: workloads.Command, traced: bool = False) -> Result:
        out = self.work / f"{command.name}.csv"
        for stale in self.work.glob(f"{command.name}.csv*"):
            stale.unlink()
        trace_path = self.work / f"{command.name}.trace.json"
        if traced:
            argv = [sys.executable, str(TRACE_CHILD), str(trace_path)]
        else:
            argv = [sys.executable, "-m", "urnova.cli"]
        argv += [*command.argv, "--out", str(out)]
        stderr = f"{out}.stderr"
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        start = perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start

        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = Path(stderr).read_text().strip().splitlines()[-1:]
            problems = [f"exit code {code}: {' '.join(tail)}"]
        else:
            problems = self._check(command, out)
        self.attempted += 1
        if problems:
            self.problems.append((command.name, problems))
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text())
            trace_path.unlink()
        return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      problems, trace)

    def _check(self, command, out: Path) -> list:
        try:
            problems = command.check(out)
            data_rows = out.read_bytes().split(b"\n", 1)[1]
        except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return [f"unreadable output: {exc!r}"]
        digest = hashlib.sha256(data_rows).hexdigest()
        if self.digests.setdefault(command.name, digest) != digest:
            problems.append("data rows differ from the first pass")
        return problems


def layer_metrics(results) -> Counter:
    """Per-layer totals of one traced pass.  A span's self time is its
    duration minus its child spans and the leaf calls timed inside it; its
    total time is the whole duration, subtree included."""
    out = Counter()
    for result in results:
        trace = result.trace
        if trace is None:
            continue
        out["cli.import_s"] += trace["import_s"]
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, leaf_s), child_s in zip(spans, covered):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_s - leaf_s
            out[f"{name}.total_s"] += end - start
        for name, n in trace["calls"].items():
            out[f"{name}.calls"] += n
        for name, seconds in trace["self_s"].items():
            out[f"{name}.self_s"] += seconds
        for name, value in trace["counters"].items():
            if name == "report.rational_bits_max":
                out[name] = max(out[name], value)
            else:
                out[name] += value
    return out


def pass_metrics(results) -> dict:
    return {
        "run_s": sum(r.wall for r in results),
        "cpu_s": sum(r.cpu for r in results),
        "peak_rss_mb": max(r.rss_mb for r in results),
    }


def metadata(seed) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "urnova").glob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def summarize(name, values, unit) -> str:
    median = statistics.median(values)
    spread = ""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f", quartiles {q1:.6g}..{q3:.6g}"
    return f"{name:45s} {median:12.6g} {unit:6s} (median of {len(values)}{spread})"


def measure(workload, runner: Runner, seconds: float, trace: bool):
    """Repeat passes while the next one is expected to end within `seconds`
    (at least MIN_PASSES untraced passes, or one untraced and one traced
    pass with tracing on).  Set-up samples are taken before every pass, so
    a burst of machine noise at one moment cannot decide the median."""
    runner.run(workload.setup)  # warm-up: brings the interpreter into the file cache
    setup, untraced, traced = [], [], []
    start = perf_counter()
    while True:
        setup += [runner.run(workload.setup).wall for _ in range(SETUP_PER_PASS)]
        untraced.append([runner.run(c) for c in workload.commands])
        if trace:
            traced.append([runner.run(c, traced=True) for c in workload.commands])
        elapsed = perf_counter() - start
        enough = trace or len(untraced) >= MIN_PASSES
        if enough and elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            break
    samples = {"setup_s": setup}
    for metrics in map(pass_metrics, untraced):
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
    # the command whose median is largest; a maximum over one noisy pass
    # would mostly measure the noise
    samples["slowest_cmd_s"] = max(
        ([p[i].wall for p in untraced] for i in range(len(workload.commands))),
        key=statistics.median,
    )
    samples["ok_frac"] = [1 - len(runner.problems) / runner.attempted]
    if trace:
        layers = [layer_metrics(p) for p in traced]
        overhead = (statistics.median(pass_metrics(p)["run_s"] for p in traced)
                    - statistics.median(samples["run_s"]))
        names = set().union(*layers)
        for name in names:
            samples[name] = [layer[name] for layer in layers]
        samples["trace.overhead_s"] = [overhead]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "urnova" / "cli.py").is_file():
        print(f"error: no urnova sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]

    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(work)
        workload = workloads.build(args.workload, args.seed, work)
        samples = measure(workload, runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    meta = metadata(args.seed)
    print("# " + " ".join(f"{k}={v}" for k, v in
                          {"workload": args.workload, **meta}.items()))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in units:
        if name in samples:
            print(summarize(name, samples[name], units[name]))
    for name, problems in runner.problems[:10]:
        print(f"FAILED {name}: {'; '.join(problems[:3])}", file=sys.stderr)

    metrics = {
        m["name"]: {"value": statistics.median(samples.get(m["name"], [0])), "unit": m["unit"]}
        for m in reported
    }
    failed = len(runner.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
