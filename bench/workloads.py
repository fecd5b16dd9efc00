"""The benchmark's workloads: the INI each one feeds the CLI, and the checks
its artifacts must pass.

Why these three: see README.md in this directory.  The checks read the
artifacts as text, so run.py can import this module without loading
numpy or the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Exact-solver sweep n_c=2, U = 0, 0.05, ..., 0.2, produced once by the
# classical-sweep workload at the commit that introduced the benchmark.
TABLE = Path("bench/data/classical_table.csv")

COST_TOL = 1e-6         # fixed-point criterion on every classical point
TABLE_TOL = 1e-5        # |Z - Z_table| and |lambda~ - lambda~_table|
VARIATIONAL_TOL = 1e-9  # best VQE energy may undercut E0 by this much
TABLE_COLUMNS = ("Z_plus", "Z_minus", "lambda_tilde_plus",
                 "lambda_tilde_minus")


def read_artifact_csv(path: Path) -> tuple[str, list[dict[str, str]]]:
    """Config hash from the `# config = ...` header, and the rows."""
    config, columns, rows = "", None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# config = "):
            config = line[len("# config = "):].strip()
        elif line and not line.startswith("#"):
            cells = line.split(",")
            if columns is None:
                columns = cells
            else:
                rows.append(dict(zip(columns, cells)))
    return config, rows


def artifact_hash(path: Path) -> str:
    if path.suffix == ".json":
        return str(json.loads(path.read_text(encoding="utf-8"))
                   .get("config", ""))
    return read_artifact_csv(path)[0]


def _finite(row: dict, columns) -> list[str]:
    bad = []
    for col in columns:
        try:
            value = float(row[col])
        except (KeyError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            bad.append(f"{col}={row.get(col)!r} is not finite")
    return bad


def check_classical(out: Path) -> list[list[str]]:
    """One entry per U point: cost below the fixed-point threshold, Z and
    lambda~ within TABLE_TOL of the committed table."""
    _, rows = read_artifact_csv(out / "bench_sweep_ed_off.csv")
    _, table = read_artifact_csv(TABLE)
    reference = {float(row["U"]): row for row in table}
    results = []
    for row in rows:
        problems = _finite(row, ("U", "cost_final") + TABLE_COLUMNS)
        if problems:
            results.append(problems)
            continue
        u = float(row["U"])
        if not float(row["cost_final"]) < COST_TOL:
            problems.append(f"U={u}: cost_final {row['cost_final']} "
                            f">= {COST_TOL}")
        want = reference.get(u)
        if want is None:
            problems.append(f"U={u} is not in {TABLE}")
        else:
            for col in TABLE_COLUMNS:
                gap = abs(float(row[col]) - float(want[col]))
                if not gap <= TABLE_TOL:
                    problems.append(f"U={u}: {col} differs from the table "
                                    f"by {gap:.3g}")
        results.append(problems)
    return results


def check_circuit(out: Path) -> list[list[str]]:
    """One entry per U point: Z, lambda~ and the cost are finite."""
    _, rows = read_artifact_csv(out / "bench_sweep_mrep_off.csv")
    return [_finite(row, TABLE_COLUMNS + ("cost_final",)) for row in rows]


def check_noisy(out: Path) -> list[list[str]]:
    """One entry per VQE start: a finite energy no lower than E0 - 1e-9
    (the variational bound holds for mixed states too)."""
    path = out / "bench_vqe_mrep_exact-no_calibrated_summary.json"
    results = []
    for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
        e0 = float(run["e0"])
        for energy in run["energies"]:
            energy = float(energy)
            if not (math.isfinite(energy) and math.isfinite(e0)):
                results.append([f"U={run['u']}: energy {energy}, E0 {e0}"])
            elif energy < e0 - VARIATIONAL_TOL:
                results.append([f"U={run['u']}: energy {energy!r} below "
                                f"E0 {e0!r}"])
            else:
                results.append([])
    return results


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # risbvqe subcommand
    config: str       # INI body; the seed section is prepended
    operations: int   # U points (sweeps) or VQE starts per command
    check: Callable[[Path], list[list[str]]]

    def ini(self, seed: int) -> str:
        return f"[run]\nseed = {seed}\n\n{self.config}"


WORKLOADS = {w.name: w for w in (
    Workload(
        "classical-sweep", "ed-reference",
        "[lattice]\nn_c = 2\n\n"
        "[sweep]\nu_values = 0.05, 0.1, 0.15, 0.2\n\n"
        "[optimizer]\nrisb_max_iter = 400\n\n"
        "[output]\nlabel = bench\n",
        operations=5,  # the command prepends U = 0
        check=check_classical),
    Workload(
        "circuit-sweep", "risb-sweep",
        "[lattice]\nn_c = 2\n\n"
        "[sweep]\nu_values = 0.2\n\n"
        "[ansatz]\ntag = mrep\nlayers = 4\nbasis = exact-no\n\n"
        "[optimizer]\ntag = bfgs\nn_starts = 2\nmax_iter = 50\n"
        "risb_max_iter = 4\n\n"
        "[noise]\nmode = off\n\n"
        f"[output]\nlabel = bench\nclassical_table = {TABLE.as_posix()}\n",
        operations=1,
        check=check_circuit),
    Workload(
        "noisy-vqe", "vqe",
        "[lattice]\nn_c = 2\n\n"
        "[sweep]\nu_values = 0.05\n\n"
        "[ansatz]\ntag = mrep\nlayers = 4\nbasis = exact-no\n\n"
        "[optimizer]\ntag = nelder-mead\nn_starts = 1\nmax_iter = 80\n\n"
        "[noise]\nmode = calibrated\n\n"
        "[output]\nlabel = bench\n",
        operations=1,
        check=check_noisy),
)}
