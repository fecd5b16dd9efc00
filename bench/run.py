"""Benchmark of the risbvqe CLI on three seeded workloads.

    python3 bench/run.py --workload classical-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it writes only under `.bench_runs/`.
Every command runs in a fresh single-threaded interpreter (bench/child.py)
that calls `risbvqe.cli.main(argv)`, one client in a closed loop.

--trace 0 measures the end-to-end metrics: `setup_s` is the median of
SETUP_REPEATS fresh interpreters from spawn to ready, then commands run back
to back while the next one is expected to end within --seconds (at least
one), and `wall_s`, `cpu_s` and `peak_rss_mb` are medians over them.

--trace 1 gives the per-layer metrics: one untraced command and two traced
ones.  The traced artifacts must be byte-identical to the untraced ones,
every count must agree between the two traced commands, and the wrappers
must be gone when each ends; `trace.overhead_s` is the traced wall time
minus the untraced one.

The metric names and units come from BENCHMARK.json.  The last line on
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 2 when no result can be produced.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
WORK = Path(".bench_runs")
SETUP_REPEATS = 5
DEADLINE_S = 170  # whole invocation, kept under three minutes
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


class Runner:
    """Spawns the child interpreters of one invocation."""

    def __init__(self, workload, seed: int, trace: bool, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.work = WORK / f"{workload.name}-s{seed}-t{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.ini"
        self.config.write_text(workload.ini(seed), encoding="utf-8")
        self.env = dict(os.environ, **BLAS_THREADS)
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def spawn(self, mode: str, tag: str) -> tuple[float, dict | None]:
        """Seconds from spawn to ready, and the child's result (None when
        it died after set-up, e.g. on the deadline)."""
        alarm = int(self.deadline - time.monotonic())
        if alarm < 1:
            raise BenchError(f"no time left for {tag}")
        result_path = self.work / f"{tag}.json"
        log_path = self.work / f"{tag}.log"
        cmd = [sys.executable, str(BENCH / "child.py"), "--mode", mode,
               "--workload", self.workload.name,
               "--config", str(self.config), "--out", str(self.work / tag),
               "--result", str(result_path), "--run-id", tag,
               "--alarm", str(alarm)]
        if mode == "trace":
            cmd += ["--spans", str(self.work / f"{tag}_spans.csv")]
        with open(log_path, "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                    env=self.env, text=True)
            try:
                ready = proc.stdout.readline().strip() == "ready"
                ready_s = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=alarm + 5)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
            finally:
                proc.stdout.close()
        if not ready:
            tail = log_path.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"{tag} stopped before set-up finished:\n{tail}")
        if code != 0 or not result_path.exists():
            return ready_s, None
        return ready_s, json.loads(result_path.read_text(encoding="utf-8"))


def same_tree(a: Path, b: Path) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files,
                                           shallow=False)
    return not mismatch and not errors


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self, operations: int):
        self.operations = operations
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, tag: str, result: dict | None) -> None:
        self.attempted += self.operations
        if result is None:
            self.fail(tag, "the command did not finish")
            return
        self.failed += result["failed"]
        self.problems += [f"{tag}: {p}" for p in result["problems"]]

    def fail(self, tag: str, reason: str) -> None:
        """Counts every operation of an already added command as failed."""
        self.failed = min(self.attempted, self.failed + self.operations)
        self.problems.append(f"{tag}: {reason}")


def measure(runner: Runner, seconds: float, tally: Tally) -> dict:
    setups = [runner.spawn("setup", f"setup{i}")
              for i in range(SETUP_REPEATS)]
    if any(result is None for _, result in setups):
        raise BenchError("a set-up interpreter failed; see "
                         f"{runner.work}/setup*.log")
    print("environment: " + json.dumps(setups[0][1]["environment"]))
    samples = {"setup_s": [ready_s for ready_s, _ in setups],
               "wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    start = time.monotonic()
    while True:
        tag = f"run{len(samples['wall_s'])}"
        _, result = runner.spawn("run", tag)
        tally.add(tag, result)
        if result is None:
            break
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[key].append(result[key])
        elapsed = time.monotonic() - start
        per_command = elapsed / len(samples["wall_s"])
        if (elapsed + per_command > seconds
                or time.monotonic() + 2 * per_command > runner.deadline):
            break
    if not samples["wall_s"]:
        raise BenchError("no command finished: " + "; ".join(tally.problems))
    return samples


def measure_traced(runner: Runner, per_layer: list[dict],
                   tally: Tally) -> dict:
    _, plain = runner.spawn("run", "untraced")
    tally.add("untraced", plain)
    traced = []
    for tag in ("traced1", "traced2"):
        _, result = runner.spawn("trace", tag)
        tally.add(tag, result)
        if result is None:
            raise BenchError(f"{tag} did not finish: "
                             + "; ".join(tally.problems))
        if not result["wrappers_removed"]:
            tally.fail(tag, "tracing wrappers were left installed")
        if plain and not same_tree(runner.work / "untraced",
                                   runner.work / tag):
            tally.fail(tag, "artifacts differ from the untraced run")
        traced.append(result)
    if traced[0]["missing_functions"]:
        print("not traced (absent from the package): "
              + ", ".join(traced[0]["missing_functions"]))
    for error in traced[0]["probe_errors"]:
        print(f"tracing probe failed, its facts read 0: {error}")
    counts = [m["name"] for m in per_layer if m["unit"] != "s"]
    differ = [name for name in counts
              if traced[0]["layers"].get(name) != traced[1]["layers"].get(name)]
    if differ:
        tally.fail("traced2", "counts differ between the traced runs: "
                   + ", ".join(differ))
    samples = {name: [t["layers"][name] for t in traced]
               for name in traced[0]["layers"]}
    if plain:
        samples["trace.overhead_s"] = [t["wall_s"] - plain["wall_s"]
                                       for t in traced]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not Path("src/risbvqe/cli.py").is_file():
            raise BenchError("src/risbvqe is missing; run from the root of "
                             "a risbvqe checkout")
        spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = spec["per_layer" if opts.trace else "end_to_end"]
        workload = WORKLOADS[opts.workload]
        seed = opts.seed % 2 ** 31
        runner = Runner(workload, seed, bool(opts.trace), deadline)
        tally = Tally(workload.operations)
        if opts.trace:
            samples = measure_traced(runner, wanted, tally)
        else:
            samples = measure(runner, opts.seconds, tally)
        absent = [m["name"] for m in wanted if m["name"] not in samples]
        if absent:
            raise BenchError("metrics not produced: " + ", ".join(absent))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload {workload.name}, seed {seed}: {tally.attempted} "
          f"operations attempted, {tally.failed} failed")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"  {name:40s} {median:14.6g} {unit:6s} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
