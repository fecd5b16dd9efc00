"""Variational minimization of cluster energies over circuit parameters.

Single starts wrap scipy optimizers around the exact channel expectation,
BFGS with exact adjoint gradients; multi-start keeps the best of a seeded
batch.  The landscape scan sweeps the single-site self-consistency cost
over an (R, lambda) grid with the one-parameter ansatz tuned analytically
at each node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from . import SolverFailure
from .circuits import Circuit, build_mr_nc1
from .ed import exact_no_basis
from .embedding import LatticeSpec, SymMatrix, risb_cost
from .estimator import circuit_rdm1, expectation, parameter_shift_minimize
from .pauli import PauliSum
from .simulator import NoiseModel, adjoint_gradient, run

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


def _objective(circuit: Circuit, observable: PauliSum,
               noise: NoiseModel | None, gradient: bool) -> Callable:
    """x -> (<O>, d<O>/dx) from one adjoint sweep, or (<O>, None) from one
    `run`; the energy is read off the final state either way, so both give
    the same value bit for bit."""
    names = circuit.parameter_names

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray | None]:
        bindings = dict(zip(names, x))
        grad = None
        if gradient:
            state, grad = adjoint_gradient(circuit, observable, bindings,
                                           noise=noise)
            if not np.all(np.isfinite(grad)):
                bad = grad[~np.isfinite(grad)][0]
                raise SolverFailure(f"objective gradient diverged to {bad}")
        else:
            state = run(circuit, bindings, noise=noise)
        value = expectation(state, observable)
        if not math.isfinite(value):
            raise SolverFailure(f"objective diverged to {value}")
        return value, grad

    return evaluate


def vqe_minimize(observable: PauliSum, ansatz: Circuit,
                 optimizer: str = "bfgs",
                 noise: NoiseModel | None = None,
                 seed: int | None = None,
                 max_iter: int = 10_000,
                 x0: Sequence[float] | None = None) -> VqeResult:
    """Minimize <observable> over the ansatz angles.

    BFGS takes the channel expectation and its exact gradient together
    from one forward and one reverse (adjoint) sweep of the circuit.
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
    evaluate = _objective(ansatz, observable, noise, gradient=bfgs)
    trace: list[tuple[int, float]] = []
    best = {"energy": math.inf, "x": x0.copy()}

    def traced(x: np.ndarray):
        value, grad = evaluate(x)
        trace.append((len(trace), value))
        if value < best["energy"]:
            best.update(energy=value, x=np.asarray(x, dtype=float).copy())
        return (value, grad) if bfgs else value

    if bfgs:
        result = minimize(traced, x0, method="BFGS", jac=True,
                          options={"gtol": GRADIENT_TOL,
                                   "maxiter": max_iter})
    else:
        result = minimize(traced, x0, method="Nelder-Mead",
                          options={"maxiter": max_iter, "xatol": 1e-6,
                                   "fatol": 1e-9})
    return VqeResult(best_params=best["x"], best_energy=best["energy"],
                     trace=trace, n_starts=1,
                     converged=bool(result.success),
                     parameter_names=names, n_iter=int(result.nit))


def multi_start(observable: PauliSum, ansatz: Circuit, n_starts: int = 5,
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
        rotated = emb.orbital().rotate(basis)
        fit = parameter_shift_minimize(circuit, rotated.to_pauli(),
                                       noise=noise)
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
                report = risb_cost(SymMatrix(float(r)),
                                   SymMatrix(float(lam)), spec,
                                   impurity_solver=solver)
                costs[s, i, j] = report.cost
    return LandscapeTable(r_values=r_values, lambda_values=lambda_values,
                          noise_scales=tuple(noise_scales), costs=costs)
