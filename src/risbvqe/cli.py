"""Batch experiment driver: one subcommand per `cmd_*` function in
`COMMANDS`, each reading an INI configuration whose keys are the fields of
`RunConfig`.  README.md ("Config grammar") lists every key with its default.

Exit codes: 0 success, 2 configuration error, 3 a solver did not converge
(`SolverFailure`); any other exception propagates with its traceback.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import SolverFailure
from .circuits import (Circuit, build_hea_nc1, build_ldca, build_mr_nc1,
                       build_mrep)
from .ed import ground_state, half_filling_sector, hamiltonian_matrix
from .embedding import (MOTT_CLAMP, LatticeSpec, classical_point, eps_loc,
                        find_mu, risb_sweep)
from .noization import BASIS_MODES, exact_no_basis, noize, \
    rotate_hamiltonian, vqe_impurity_solver
from .runio import config_hash, read_table, write_csv, write_json
from .simulator import NoiseModel, Observable, calibrate_noise
from .vqe import landscape_scan, multi_start, vqe_minimize

ANSATZE = ("ed", "mr", "mrep", "ldca", "hea")
OPTIMIZERS = ("bfgs", "nelder-mead")
NOISE_MODES = ("off", "calibrated", "scale")

SWEEP_COLUMNS = ("U", "Z_plus", "Z_minus", "lambda_tilde_plus",
                 "lambda_tilde_minus", "cost_final", "n_iter",
                 "solver_tag", "noise_tag", "converged", "clamped",
                 "n_eval")


class ConfigError(Exception):
    """Rejected configuration; the driver maps it to exit code 2."""


def _key(section: str, default, key: str = "", choices: tuple = ()):
    """A config field read from `[section] key` (the field name when `key`
    is empty), typed by its default and limited to `choices` if given."""
    return field(default=default, metadata={
        "section": section, "key": key, "choices": choices})


@dataclass(frozen=True)
class RunConfig:
    """Flat, fully-typed view of one experiment configuration; the field
    order is the order of the canonical INI text."""

    seed: int = _key("run", 7)
    n_c: int = _key("lattice", 1)
    t: float = _key("lattice", -0.25)
    u: float = _key("lattice", 1.0)
    mesh: int = _key("lattice", 0)
    beta: float = _key("lattice", 0.0)
    u_start: float = _key("sweep", 0.05)
    u_stop: float = _key("sweep", 3.0)
    u_step: float = _key("sweep", 0.05)
    u_values: str = _key("sweep", "")
    ansatz: str = _key("ansatz", "mrep", "tag", ANSATZE)
    layers: int = _key("ansatz", 4)
    cycles: int = _key("ansatz", 1)
    basis: str = _key("ansatz", "exact-no", choices=BASIS_MODES)
    optimizer: str = _key("optimizer", "bfgs", "tag", OPTIMIZERS)
    n_starts: int = _key("optimizer", 3)
    max_iter: int = _key("optimizer", 10_000)
    noize_steps: int = _key("optimizer", 3)
    risb_max_iter: int = _key("optimizer", 100)
    noise_mode: str = _key("noise", "off", "mode", NOISE_MODES)
    noise_scale: float = _key("noise", 1.0, "scale")
    eps1: float = _key("noise", 0.0016)
    eps2: float = _key("noise", 0.006)
    r_start: float = _key("landscape", 0.8)
    r_stop: float = _key("landscape", 1.2)
    r_num: int = _key("landscape", 5)
    lam_start: float = _key("landscape", 0.01)
    lam_stop: float = _key("landscape", 0.09)
    lam_num: int = _key("landscape", 5)
    out_dir: str = _key("output", "runs", "dir")
    label: str = _key("output", "run")
    classical_table: str = _key("output", "")


def _grammar():
    """(section, key, field) of every config key, in INI order."""
    return [(f.metadata["section"], f.metadata["key"] or f.name, f)
            for f in fields(RunConfig)]


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    grammar = _grammar()
    known = {(section, key) for section, key, _ in grammar}
    sections = {section for section, _ in known}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    values: dict = {}
    for section, key, f in grammar:
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        kind = type(f.default)
        if kind is str:
            values[f.name] = raw.strip()
            continue
        try:
            values[f.name] = kind(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: expected "
                              f"{kind.__name__}, got {raw!r}") from exc
    cfg = RunConfig(**values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for section, key, f in _grammar():
        value, allowed = getattr(cfg, f.name), f.metadata["choices"]
        if allowed and value not in allowed:
            raise ConfigError(f"[{section}] {key} must be one of "
                              f"{', '.join(allowed)}; got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite")
    if cfg.seed < 0:
        raise ConfigError("[run] seed must be nonnegative")
    if cfg.n_c not in (1, 2):
        raise ConfigError("[lattice] n_c must be 1 or 2")
    if cfg.mesh < 0 or cfg.beta < 0:
        raise ConfigError("[lattice] mesh and beta must be nonnegative")
    if cfg.u_step <= 0:
        raise ConfigError("[sweep] u_step must be positive")
    if min(cfg.layers, cfg.cycles, cfg.n_starts, cfg.max_iter,
           cfg.noize_steps, cfg.risb_max_iter) < 1:
        raise ConfigError("iteration and depth counts must be >= 1")
    if not 0.0 <= cfg.noise_scale <= 1.0:
        raise ConfigError("[noise] scale must lie in [0, 1]")
    if cfg.eps1 < 0 or cfg.eps2 < 0:
        raise ConfigError("[noise] error rates must be nonnegative")
    if cfg.r_num < 1 or cfg.lam_num < 1:
        raise ConfigError("[landscape] grid sizes must be >= 1")


def serialize_config(cfg: RunConfig, for_hash: bool = False) -> str:
    """Canonical INI text; `for_hash` drops the output naming, which does
    not influence computed values."""
    skip = {("output", "dir"), ("output", "label")} if for_hash else set()
    lines: list[str] = []
    current = None
    for section, key, f in _grammar():
        if (section, key) in skip:
            continue
        if section != current:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = "%.17g" % value
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def run_hash(cfg: RunConfig) -> str:
    return config_hash(serialize_config(cfg, for_hash=True))


def lattice_spec(cfg: RunConfig, u: float | None = None) -> LatticeSpec:
    try:
        return LatticeSpec(n_c=cfg.n_c, u=cfg.u if u is None else float(u),
                           t=cfg.t, mesh=cfg.mesh or None,
                           beta=cfg.beta or None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_noise(cfg: RunConfig) -> NoiseModel | None:
    """The run's noise model, None when noise is off; every command builds
    it here, so an invalid rate is a ConfigError everywhere."""
    if cfg.noise_mode == "off":
        return None
    try:
        base = calibrate_noise(cfg.eps1, cfg.eps2)
        if cfg.noise_mode == "scale":
            return base.scaled(cfg.noise_scale)
        return base
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def noise_tag(cfg: RunConfig) -> str:
    if cfg.noise_mode == "scale":
        return "scale%g" % cfg.noise_scale
    return cfg.noise_mode


def build_ansatz(cfg: RunConfig) -> Circuit | None:
    if cfg.ansatz == "ed":
        return None
    if cfg.ansatz in ("mr", "hea") and cfg.n_c != 1:
        raise ConfigError(f"the {cfg.ansatz} ansatz covers only the "
                          "single-site cluster")
    if cfg.ansatz == "mrep" and cfg.n_c != 2:
        raise ConfigError("the mrep ansatz covers only the two-site "
                          "cluster; set [lattice] n_c = 2")
    if cfg.ansatz == "mr":
        return build_mr_nc1()
    if cfg.ansatz == "hea":
        return build_hea_nc1()
    if cfg.ansatz == "mrep":
        return build_mrep(n_c=cfg.n_c, n_layers=cfg.layers)
    return build_ldca(n_qubits=4 * cfg.n_c, n_cycles=cfg.cycles)


def u_grid(cfg: RunConfig) -> list[float]:
    if cfg.u_values.strip():
        try:
            us = [float(tok) for tok in cfg.u_values.split(",")
                  if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"[sweep] u_values: {exc}") from exc
    else:
        us = [float(u) for u in np.arange(cfg.u_start,
                                          cfg.u_stop + cfg.u_step / 2,
                                          cfg.u_step)]
    if not us:
        raise ConfigError("the U grid is empty")
    if not all(math.isfinite(u) for u in us):
        raise ConfigError("[sweep] u_values must be finite")
    return us


def _require_circuit(cfg: RunConfig) -> Circuit:
    ansatz = build_ansatz(cfg)
    if ansatz is None:
        raise ConfigError("this command needs a circuit ansatz, not 'ed'")
    return ansatz


def _write_sweep_artifacts(cfg: RunConfig, points, solver_tag: str,
                           ntag: str) -> Path:
    out = Path(cfg.out_dir)
    h = run_hash(cfg)
    rows = []
    pad = [math.nan] * (2 - cfg.n_c)  # a single site has no minus channel
    for point in points:
        out_u = point.output
        lt = out_u.lambda_tilde(lattice_spec(cfg, u=point.u))
        rows.append((point.u, *out_u.z, *pad, *lt, *pad,
                     out_u.cost, out_u.n_iter, solver_tag, ntag,
                     out_u.converged, out_u.clamped, len(out_u.cost_trace)))
        trace_path = out / (f"{cfg.label}_trace_{solver_tag}_{ntag}"
                            f"_u{point.u:g}.csv")
        # cost_trace rows are already (step, cost) pairs
        write_csv(trace_path, ("step", "cost"),
                  point.output.cost_trace, h)
    sweep_path = out / f"{cfg.label}_sweep_{solver_tag}_{ntag}.csv"
    write_csv(sweep_path, SWEEP_COLUMNS, rows, h)
    return sweep_path


def run_classical_sweep(cfg: RunConfig) -> Path:
    """Exact-solver sweep; the ed-reference command and the ED branch of
    risb-sweep both land here, so their artifacts are identical."""
    us = u_grid(cfg)
    if us[0] > 1e-12:
        us = [0.0] + us
    spec = lattice_spec(cfg, u=0.0)
    points = risb_sweep(spec, us, max_iter=cfg.risb_max_iter)
    return _write_sweep_artifacts(cfg, points, "ed", "off")


def load_reference(cfg: RunConfig) -> dict:
    """Warm-start table from a classical sweep CSV.

    R is recovered as sqrt(Z) (classical solutions keep R positive).  The
    table has no mu column, but find_mu moves with a uniform shift of
    lambda: with e the local level at mu = 0 and mu' = find_mu(R,
    lambda~ + e), lambda = lambda~ + e - mu'/2 solves
    lambda~ = lambda - e + mu exactly.
    """
    if not cfg.classical_table:
        raise ConfigError("a classical reference table is required; set "
                          "[output] classical_table")
    path = Path(cfg.classical_table)
    if not path.exists():
        raise ConfigError(f"classical reference table {path} not found")
    rows = read_table(path)
    if not rows:
        raise ConfigError(f"classical reference table {path} is empty")
    mapping: dict = {}
    for row in rows:
        try:
            u = float(row["U"])
            z_plus = max(float(row["Z_plus"]), 0.0)
            z_minus = float(row["Z_minus"])
            lt_plus = float(row["lambda_tilde_plus"])
            lt_minus = float(row["lambda_tilde_minus"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed reference table {path}: "
                              f"{exc}") from exc
        # A single-site table writes nan into the minus channel.
        n_ch = 1 if math.isnan(z_minus) else 2
        if n_ch != cfg.n_c:
            raise ConfigError(f"reference table {path} holds {n_ch} "
                              f"channel(s) at U = {u:g}, but [lattice] "
                              f"n_c = {cfg.n_c}")
        spec = lattice_spec(cfg, u=u)
        r = np.sqrt([z_plus, max(z_minus, 0.0)][:n_ch])
        lam = np.array([lt_plus, lt_minus])[:n_ch] + eps_loc(spec, 0.0)
        # risb_cost sets mu at R clamped off the Mott floor
        mu = find_mu(np.maximum(r, MOTT_CLAMP), lam, spec)
        mapping[u] = (r, lam - 0.5 * mu)
    return mapping


def cmd_ed_reference(cfg: RunConfig) -> int:
    """exact-solver sweep along the U grid; the warm-start table"""
    run_classical_sweep(cfg)
    return 0


def cmd_risb_sweep(cfg: RunConfig) -> int:
    """self-consistency along the U grid (exact or circuit solver)"""
    if cfg.ansatz == "ed":
        run_classical_sweep(cfg)
        return 0
    reference = load_reference(cfg)
    ansatz = _require_circuit(cfg)
    noise = build_noise(cfg)
    solver = vqe_impurity_solver(ansatz, basis=cfg.basis, noise=noise,
                                 n_starts=cfg.n_starts, seed=cfg.seed,
                                 optimizer=cfg.optimizer,
                                 max_iter=cfg.max_iter,
                                 n_steps=cfg.noize_steps)
    us = u_grid(cfg)
    spec = lattice_spec(cfg, u=us[0])
    points = risb_sweep(spec, us, solver, reference=reference,
                        max_iter=cfg.risb_max_iter)
    _write_sweep_artifacts(cfg, points, cfg.ansatz, noise_tag(cfg))
    return 0


def cmd_vqe(cfg: RunConfig) -> int:
    """multi-start ground-state searches on the self-consistent cluster
    Hamiltonian, one trace file per seed"""
    if cfg.basis == "noize":
        raise ConfigError("iterative basis updates belong to the noize "
                          "command; pick original or exact-no here")
    ansatz = _require_circuit(cfg)
    noise = build_noise(cfg)
    ntag = noise_tag(cfg)
    out = Path(cfg.out_dir)
    h = run_hash(cfg)
    records = []
    for u in u_grid(cfg):
        spec = lattice_spec(cfg, u=u)
        _, report = classical_point(spec)
        ham = report.emb
        gs = ground_state(ham, half_filling_sector(cfg.n_c))
        e0 = gs.energy
        if cfg.basis == "exact-no":
            ham = rotate_hamiltonian(ham, exact_no_basis(ham, gs))
        observable = Observable(hamiltonian_matrix(ham))
        energies = []
        for i in range(cfg.n_starts):
            seed = cfg.seed + i
            fit = vqe_minimize(observable, ansatz,
                               optimizer=cfg.optimizer, noise=noise,
                               seed=seed, max_iter=cfg.max_iter)
            trace_path = out / (f"{cfg.label}_vqe_{cfg.ansatz}_{cfg.basis}"
                                f"_{ntag}_u{u:g}_s{seed}.csv")
            write_csv(trace_path, ("step", "energy"), fit.trace, h)
            energies.append(fit.best_energy)
        best = min(energies)
        records.append({"u": u, "e0": e0, "energies": energies,
                        "best_energy": best,
                        "rel_error": abs(best - e0) / abs(e0)})
    write_json(out / (f"{cfg.label}_vqe_{cfg.ansatz}_{cfg.basis}_{ntag}"
                      "_summary.json"),
               {"runs": records}, h)
    return 0


def cmd_noize(cfg: RunConfig) -> int:
    """iterative basis-update run plus an exact-NO reference"""
    if cfg.ansatz == "mr":
        # a superposition of two determinants that differ by a double
        # excitation has a diagonal 1-RDM at every angle, so the measured
        # rotation never leaves the starting basis
        raise ConfigError("the two-determinant circuit cannot drive the "
                          "basis iteration; use mrep, ldca, or hea")
    ansatz = _require_circuit(cfg)
    noise = build_noise(cfg)
    spec = lattice_spec(cfg)
    _, report = classical_point(spec)
    emb = report.emb
    gs = ground_state(emb, half_filling_sector(cfg.n_c))
    result = noize(emb, ansatz=ansatz, n_steps=cfg.noize_steps,
                   n_starts=cfg.n_starts, seed=cfg.seed, noise=noise,
                   optimizer=cfg.optimizer, max_iter=cfg.max_iter)
    rotated = rotate_hamiltonian(emb, exact_no_basis(emb, gs))
    reference = multi_start(Observable(hamiltonian_matrix(rotated)), ansatz,
                            n_starts=cfg.n_starts, seed=cfg.seed + 1,
                            optimizer=cfg.optimizer, noise=noise,
                            max_iter=cfg.max_iter)
    payload = {"u": cfg.u, "e0": gs.energy,
               "exact_no_energy": reference.best_energy,
               "steps": result.reports}
    write_json(Path(cfg.out_dir) / (f"{cfg.label}_noize_{cfg.ansatz}"
                                    f"_{noise_tag(cfg)}.json"),
               payload, run_hash(cfg))
    return 0


def cmd_landscape(cfg: RunConfig) -> int:
    """cost over an (R, lambda) grid for the single-site problem"""
    if cfg.n_c != 1:
        raise ConfigError("landscape scans cover the single-site pipeline")
    r_values = np.linspace(cfg.r_start, cfg.r_stop, cfg.r_num)
    lam_values = np.linspace(cfg.lam_start, cfg.lam_stop, cfg.lam_num)
    noise = build_noise(cfg)
    scales = (0.0,) if noise is None else (noise.scale,)
    table = landscape_scan(lattice_spec(cfg), r_values, lam_values,
                           noise_scales=scales, base_noise=noise)
    rows = []
    for s, scale in enumerate(table.noise_scales):
        for i, r in enumerate(table.r_values):
            for j, lam in enumerate(table.lambda_values):
                rows.append((scale, r, lam, table.costs[s, i, j]))
    write_csv(Path(cfg.out_dir) / (f"{cfg.label}_landscape"
                                   f"_{noise_tag(cfg)}.csv"),
              ("scale", "R", "lambda", "cost"), rows, run_hash(cfg))
    return 0


COMMANDS = {
    "vqe": cmd_vqe,
    "noize": cmd_noize,
    "risb-sweep": cmd_risb_sweep,
    "landscape": cmd_landscape,
    "ed-reference": cmd_ed_reference,
}


def parse_noise_flag(value: str) -> tuple[str, float]:
    if value in ("off", "calibrated"):
        return value, 1.0
    if value.startswith("scale="):
        try:
            return "scale", float(value[len("scale="):])
        except ValueError as exc:
            raise ConfigError(f"--noise {value!r}: {exc}") from exc
    raise ConfigError(f"--noise must be off, calibrated, or scale=X; "
                      f"got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risbvqe",
        description="Slave-boson embedding experiments with circuit-based "
                    "cluster solvers")
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind, command in COMMANDS.items():
        sub = subparsers.add_parser(kind, help=command.__doc__)
        sub.add_argument("--config", metavar="PATH",
                         help="INI configuration file")
        sub.add_argument("--seed", type=int, metavar="N")
        sub.add_argument("--out", metavar="DIR",
                         help="output directory (default from config)")
        sub.add_argument("--noise", metavar="MODE",
                         help="off, calibrated, or scale=X")
    return parser


def load_config(args: argparse.Namespace) -> RunConfig:
    text = ""
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"configuration file {path} not found")
        text = path.read_text(encoding="utf-8")
    cfg = parse_config(text)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.noise:
        mode, scale = parse_noise_flag(args.noise)
        cfg = replace(cfg, noise_mode=mode, noise_scale=scale)
    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.kind](load_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
