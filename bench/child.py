"""One fresh interpreter of the benchmark.

It does the set-up a user's run pays (import risbvqe with numpy and scipy,
parse the config, load the warm-start table, build the ansatz), prints
`ready` on stdout, and in `setup` mode stops there.  In `run` and `trace`
mode it then times one `risbvqe.cli.main(argv)` call, the latter with the
layer wrappers of tracing.py installed, and checks the artifacts outside
the timed interval.  The result goes to the JSON file named by --result.

    python3 bench/child.py --mode run --workload noisy-vqe \
        --config CONFIG.ini --out DIR --result RESULT.json

run.py sets PYTHONPATH to the checkout's src/ and pins the BLAS pools to
one thread before this interpreter starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, artifact_hash


def thread_count() -> int | None:
    """Operating-system threads of this process (Linux only)."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "threads_after_setup": thread_count(),
    }


def check(workload, out: Path, expected_hash: str) -> tuple[int, list[str]]:
    """Failed operations of one finished command, with the reasons."""
    problems: list[str] = []
    wrong = [p.name for p in sorted(out.iterdir())
             if p.is_file() and artifact_hash(p) != expected_hash]
    if wrong:
        problems.append(f"config hash differs from {expected_hash} in "
                        f"{', '.join(wrong)}")
    try:
        per_op = workload.check(out)
    except (OSError, KeyError, ValueError) as exc:
        per_op = []
        problems.append(f"unreadable artifacts: {exc!r}")
    for entry in per_op:
        problems.extend(entry)
    ops = workload.operations
    if wrong:
        return ops, problems
    missing = max(0, ops - len(per_op))
    if missing:
        problems.append(f"{missing} of {ops} operations left no result")
    return min(ops, missing + sum(1 for p in per_op if p)), problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--alarm", type=int, default=170,
                        help="seconds before SIGALRM ends this process")
    opts = parser.parse_args()
    signal.alarm(max(1, opts.alarm))

    from risbvqe import cli
    workload = WORKLOADS[opts.workload]
    argv = [workload.command, "--config", opts.config, "--out", opts.out]
    cfg = cli.load_config(cli.build_parser().parse_args(argv))
    if cfg.classical_table:
        cli.load_reference(cfg)
    cli.build_ansatz(cfg)
    print("ready", flush=True)

    result: dict = {"mode": opts.mode}
    if opts.mode == "setup":
        result["environment"] = environment()
    else:
        tracer = Tracer(opts.run_id) if opts.mode == "trace" else None
        if tracer:
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a lost run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime
                   + after.ru_stime - before.ru_stime),
            peak_rss_mb=after.ru_maxrss / 1024.0)
        if tracer:
            result["wrappers_removed"] = tracer.uninstall()
            result["missing_functions"] = tracer.missing
            result["probe_errors"] = sorted(tracer.probe_errors)
            result["layers"] = layer_metrics(tracer.spans)
            if opts.spans:
                tracer.write_spans(Path(opts.spans))
        if code == 0:
            failed, problems = check(workload, Path(opts.out),
                                     cli.run_hash(cfg))
        else:
            failed, problems = workload.operations, [f"exit code {code}"]
        result.update(operations=workload.operations, failed=failed,
                      problems=problems)
    Path(opts.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
