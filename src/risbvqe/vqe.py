"""Variational minimization of cluster energies over circuit parameters.

Single starts wrap scipy optimizers around the exact channel expectation,
BFGS with exact adjoint gradients and noisy Nelder-Mead with its starting
simplex from one sweep; multi-start keeps the best of a seeded batch.  The
landscape scan sweeps the single-site self-consistency cost over an (R,
lambda) grid with the one-parameter ansatz tuned analytically at each
node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from . import SolverFailure
from .circuits import Circuit, build_mr_nc1
from .ed import exact_no_basis, hamiltonian_matrix
from .embedding import LatticeSpec, risb_cost
from .estimator import circuit_rdm1, expectation, parameter_shift_minimize
from .simulator import (NoiseModel, Observable, adjoint_gradient,
                        displaced_energies, run)

GRADIENT_TOL = 1e-8


@dataclass
class VqeResult:
    """Best point of one optimization (or of a multi-start batch)."""

    best_params: np.ndarray
    best_energy: float
    trace: list
    n_starts: int
    converged: bool
    parameter_names: tuple
    n_iter: int = 0
    start_energies: list = field(default_factory=list)

    def bindings(self) -> dict:
        return dict(zip(self.parameter_names, self.best_params))


def vqe_minimize(observable: Observable, ansatz: Circuit,
                 optimizer: str = "bfgs",
                 noise: NoiseModel | None = None,
                 seed: int | None = None,
                 max_iter: int = 10_000,
                 x0: Sequence[float] | None = None) -> VqeResult:
    """Minimize <observable> over the ansatz angles.

    BFGS takes the channel expectation and its exact gradient together
    from one forward and one reverse (adjoint) sweep of the circuit.
    Nelder-Mead with noise builds scipy's default starting simplex itself
    (x0, and per coordinate x0 with it times 1.05, or 0.00025 where it is
    0), passes it as `initial_simplex`, so scipy's trajectory is unchanged,
    and answers its N + 1 vertices from one `displaced_energies` sweep;
    every other point, and a vertex whose parameter fills more than one
    slot, is one `run`.  Without noise every point is one `run`: <O> of a
    pure state is quadratic in each gate matrix.
    """
    names = ansatz.parameter_names
    if not names:
        raise ValueError("ansatz has no free parameters")
    optimizer = optimizer.lower().replace("-", "").replace("_", "")
    if optimizer not in ("bfgs", "neldermead"):
        raise ValueError(f"unknown optimizer {optimizer!r}")
    rng = np.random.default_rng(seed)
    if x0 is None:
        x0 = rng.uniform(-math.pi, math.pi, len(names))
    x0 = np.asarray(x0, dtype=float)
    if x0.size != len(names):
        raise ValueError(f"{x0.size} initial angles for {len(names)} "
                         f"parameters")

    bfgs = optimizer == "bfgs"
    options = {"maxiter": max_iter}
    known = {}
    if bfgs:
        options["gtol"] = GRADIENT_TOL
    else:
        options.update(xatol=1e-6, fatol=1e-9)
        if noise is not None:
            simplex = np.tile(x0, (len(x0) + 1, 1))
            moved = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
            simplex[1:][np.diag_indices(len(x0))] = moved
            options["initial_simplex"] = simplex
            energies = displaced_energies(ansatz, observable,
                                          dict(zip(names, x0)), moved, noise)
            known = {vertex.tobytes(): value for vertex, value
                     in zip(simplex, energies) if value is not None}
    trace: list[tuple[int, float]] = []
    best = {"energy": math.inf, "x": x0.copy()}

    def objective(x: np.ndarray):
        # BFGS: <O> and its gradient from one adjoint sweep, whose lambda
        # starts as O psi.  Nelder-Mead: <O> from `known`, keyed by the
        # point's bytes and answered once, or else from one `run`.  The
        # sweep and the run read <O> off the final state with the same
        # arithmetic, so they give the same value bit for bit.
        bindings = dict(zip(names, x))
        if bfgs:
            _, value, grad = adjoint_gradient(ansatz, observable, bindings,
                                              noise=noise)
            if not np.all(np.isfinite(grad)):
                bad = grad[~np.isfinite(grad)][0]
                raise SolverFailure(f"objective gradient diverged to {bad}")
        else:
            value = known.pop(np.asarray(x, dtype=float).tobytes(), None)
            if value is None:
                value = expectation(run(ansatz, bindings, noise=noise),
                                    observable)
        if not math.isfinite(value):
            raise SolverFailure(f"objective diverged to {value}")
        trace.append((len(trace), value))
        if value < best["energy"]:
            best.update(energy=value, x=np.asarray(x, dtype=float).copy())
        return (value, grad) if bfgs else value

    result = minimize(objective, x0, method="BFGS" if bfgs else "Nelder-Mead",
                      jac=True if bfgs else None, options=options)
    return VqeResult(best_params=best["x"], best_energy=best["energy"],
                     trace=trace, n_starts=1,
                     converged=bool(result.success),
                     parameter_names=names, n_iter=int(result.nit))


def multi_start(observable: Observable, ansatz: Circuit, n_starts: int = 5,
                seed: int | None = None, **kwargs) -> VqeResult:
    """Best-of-n restarts with starting angles drawn from one seeded
    stream; ties resolve to the earliest start."""
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    rng = np.random.default_rng(seed)
    n_params = len(ansatz.parameter_names)
    winner: VqeResult | None = None
    energies: list[float] = []
    for index in range(n_starts):
        x0 = rng.uniform(-math.pi, math.pi, n_params)
        outcome = vqe_minimize(observable, ansatz, x0=x0,
                               seed=int(rng.integers(2 ** 63)), **kwargs)
        energies.append(outcome.best_energy)
        if winner is None or outcome.best_energy < winner.best_energy:
            winner = outcome
    winner.n_starts = n_starts
    winner.start_energies = energies
    return winner


def mr_impurity_solver(noise: NoiseModel | None = None) -> Callable:
    """Single-site cluster solver built on the two-determinant circuit.

    The cluster is rotated to its natural orbitals (from the exact
    half-filled ground state), the one free angle is tuned analytically,
    and the measured density matrix is rotated back.  Depolarizing noise
    acts on every circuit run, including the measurement of the density
    matrix itself.
    """
    circuit = build_mr_nc1()

    def solve(emb) -> np.ndarray:
        basis = exact_no_basis(emb).v
        rotated = emb.rotate(basis)
        fit = parameter_shift_minimize(
            circuit, Observable(hamiltonian_matrix(rotated)), noise=noise)
        return circuit_rdm1(circuit, {"theta": fit.theta}, emb.n_c,
                            noise=noise, basis=basis)

    return solve


@dataclass(frozen=True)
class LandscapeTable:
    """Self-consistency cost over an (R, lambda) grid per noise scale."""

    r_values: np.ndarray
    lambda_values: np.ndarray
    noise_scales: tuple
    costs: np.ndarray

    def min_node(self, scale_index: int = 0) -> tuple[int, int]:
        sheet = self.costs[scale_index]
        flat = int(np.argmin(sheet))
        return flat // sheet.shape[1], flat % sheet.shape[1]


def landscape_scan(spec: LatticeSpec, r_values, lambda_values,
                   noise_scales: Sequence[float] = (0.0,),
                   base_noise: NoiseModel | None = None) -> LandscapeTable:
    """Cost of the single-site self-consistency on a rectangular grid.

    Each node runs the full pipeline with the circuit-based cluster solver
    at every requested fraction of the base noise level.
    """
    if spec.n_c != 1:
        raise ValueError("landscape scans cover the single-site pipeline")
    r_values = np.asarray(r_values, dtype=float)
    lambda_values = np.asarray(lambda_values, dtype=float)
    if r_values.size == 0 or lambda_values.size == 0:
        raise ValueError("grid is empty")
    costs = np.empty((len(noise_scales), r_values.size, lambda_values.size))
    for s, scale in enumerate(noise_scales):
        noise = None
        if scale > 0.0:
            if base_noise is None:
                raise ValueError("positive noise scale needs a base noise "
                                 "model")
            noise = base_noise.scaled(scale)
        solver = mr_impurity_solver(noise)
        for i, r in enumerate(r_values):
            for j, lam in enumerate(lambda_values):
                report = risb_cost(np.array([r]), np.array([lam]), spec,
                                   impurity_solver=solver)
                costs[s, i, j] = report.cost
    return LandscapeTable(r_values=r_values, lambda_values=lambda_values,
                          noise_scales=tuple(noise_scales), costs=costs)
