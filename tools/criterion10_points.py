"""Per-point figures of acceptance criterion 10, the noisy hardware model.

Runs `test_criterion_10_noisy_hardware_model_tracks_reference` from
`tests/test_acceptance.py` as it stands, outside pytest and on one BLAS
thread, with the module's `risb_sweep` wrapped so that every circuit-solver
point prints one line: its phase (1 noiseless mrep, 2 calibrated mrep,
3 calibrated LDCA), U, cost evaluations, first, last and best cost, the
largest Z deviation from the exact reference point, and wall seconds.
The test's own closing line follows.

    PYTHONPATH=src python tools/criterion10_points.py
"""

import importlib.util
import os
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

TESTS = Path(__file__).resolve().parents[1] / "tests"
# The phase of each circuit-solver sweep, in the order the test runs them.
PHASES = (1, 1, 1, 2, 2, 2, 3, 3)


def load_acceptance():
    sys.path.insert(0, str(TESTS))  # the module imports `oracles`
    spec = importlib.util.spec_from_file_location(
        "test_acceptance", TESTS / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    acceptance = load_acceptance()
    sweep = acceptance.risb_sweep
    reference: dict = {}
    phases = iter(PHASES)

    def recorded(spec, u_values, impurity_solver=None, **kwargs):
        start = time.perf_counter()
        points = sweep(spec, u_values, impurity_solver, **kwargs)
        seconds = time.perf_counter() - start
        if impurity_solver is None:
            reference.update((p.u, p.output) for p in points)
            return points
        for point in points:
            out = point.output
            costs = [c for _, c in out.cost_trace]
            dev = float(np.max(np.abs(out.z - reference[point.u].z)))
            print(f"phase {next(phases)}  U = {point.u:4.2f}"
                  f"  evals {len(costs):3d}  cost first {costs[0]:.4g}"
                  f" last {costs[-1]:.4g} best {out.cost:.4g}"
                  f"  Z dev {dev:.4f}  {seconds:6.1f} s", flush=True)
        return points

    acceptance.risb_sweep = recorded
    start = time.perf_counter()
    acceptance.test_criterion_10_noisy_hardware_model_tracks_reference()
    print(f"total {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
