"""Slave-boson self-consistency for the square-lattice Hubbard model.

The lattice problem is reduced to a quasiparticle k-sum plus an interacting
impurity+bath cluster.  Everything is expressed in the symmetry-adapted
(bonding/antibonding) basis where the two-site cluster matrices
[[a, b], [b, a]] become two independent channels; the single-site cluster
is the one-channel special case.  R, lambda, Delta, D and lambda_c are
float arrays of one value per channel, plus = a + b then minus = a - b.
Matsubara sums are evaluated as Fermi functions of the quasiparticle
matrix; a brute-force frequency sum with analytic tail corrections is kept
alongside as a validation reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.special import expit, polygamma

from . import SolverFailure
from .ed import ed_rdm1, ground_state, half_filling_sector
from .hamiltonians import EmbeddingHamiltonian

MOTT_CLAMP = 1e-3
BAND_CACHE_SIZE = 16
# Nelder-Mead on (R, lambda): initial simplex edge and stopping tolerances.
SIMPLEX_STEP = 0.02
SIMPLEX_XATOL = 1e-8
SIMPLEX_FATOL = 1e-12
WARM_STEP = 0.05
# A fixed point is reached when the residual norm falls below this.
FIXED_POINT_TOL = 1e-9
# Forward-difference step of a Jacobian column, relative to max(|x_j|, 1):
# a lambda of order 1e-17 must still move the residual.
FD_STEP = math.sqrt(np.finfo(float).eps)
# A circuit solver's chord iterate with some Z = R^2 above this has run off
# the physical range Z <= 1, which VQE jitter near U = 0 overshoots by 3e-3.
Z_RUNAWAY = 1.1


@dataclass(frozen=True)
class LatticeSpec:
    """Square-lattice Hubbard problem with an N_c-site cluster tiling."""

    n_c: int
    u: float
    t: float = -0.25
    mesh: int | None = None
    beta: float | None = None
    filling: float = 0.5

    def __post_init__(self):
        if self.n_c not in (1, 2):
            raise ValueError("cluster size must be 1 or 2")
        if self.mesh is None:
            object.__setattr__(self, "mesh", 40 if self.n_c == 1 else 32)
        if self.beta is None:
            object.__setattr__(self, "beta", 200.0 if self.n_c == 1
                               else 300.0)
        if self.mesh < 2:
            raise ValueError("mesh must be at least 2")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.filling < 1.0:
            raise ValueError("filling must lie in (0, 1)")


def channel_matrix(c) -> np.ndarray:
    """Cluster matrix of channel values: [[c]] for one, [[a, b], [b, a]]
    with a + b and a - b the two channels for two."""
    if len(c) == 1:
        return np.array([[c[0]]], dtype=float)
    a = 0.5 * (c[0] + c[1])
    b = 0.5 * (c[0] - c[1])
    return np.array([[a, b], [b, a]])


def sym_project(m) -> np.ndarray:
    """Channel values of a nearly-symmetric matrix, averaging away any small
    asymmetry (used on measured, hence noisy, cluster blocks)."""
    m = np.asarray(m, dtype=float)
    if m.shape == (1, 1):
        return m[0].copy()
    a = 0.5 * (m[0, 0] + m[1, 1])
    b = 0.5 * (m[0, 1] + m[1, 0])
    return np.array([a + b, a - b])


def fermi(x, beta: float):
    """Fermi-Dirac occupation, stable for large |beta * x|."""
    return expit(-beta * np.asarray(x, dtype=float))


def _k_grid(mesh: int) -> tuple[np.ndarray, np.ndarray]:
    vals = 2.0 * math.pi * np.arange(mesh) / mesh
    kx, ky = np.meshgrid(vals, vals, indexing="ij")
    return kx.ravel(), ky.ravel()


def _band_components(spec: LatticeSpec):
    """Channel-diagonal dispersion e (and inter-channel coupling s for the
    two-site cell) over the whole mesh."""
    return _bands(spec.n_c, spec.t, spec.mesh)


@lru_cache(maxsize=BAND_CACHE_SIZE)
def _bands(n_c: int, t: float, mesh: int):
    # Depends on the lattice geometry only, so U, beta and filling share one
    # read-only entry.
    kx, ky = _k_grid(mesh)
    if n_c == 1:
        bands, s = (2.0 * t * (np.cos(kx) + np.cos(ky)),), None
    else:
        e_plus = 2.0 * t * np.cos(ky) + t * (1.0 + np.cos(kx))
        e_minus = 2.0 * t * np.cos(ky) - t * (1.0 + np.cos(kx))
        bands, s = (e_plus, e_minus), t * np.sin(kx)
    for array in bands + (() if s is None else (s,)):
        array.flags.writeable = False
    return bands, s


def eps_loc(spec: LatticeSpec, mu: float) -> np.ndarray:
    """Mesh average of the dispersion minus the chemical potential."""
    bands, _ = _band_components(spec)
    return np.array([band.mean() - mu for band in bands])


def _qp_levels(r: np.ndarray, lam: np.ndarray, spec: LatticeSpec):
    """Mu-independent levels E of R e_k R+ + lambda, one row per band, and
    for the two-site cell its channel mean a, half-splitting b and
    rad = |(b, inter-channel coupling)|, so that E = a +- rad."""
    if np.any(np.abs(r) < 1e-12):
        raise ValueError("quasiparticle weight matrix is singular")
    bands, s = _band_components(spec)
    diag = [r[i] ** 2 * bands[i] + lam[i] for i in range(spec.n_c)]
    if spec.n_c == 1:
        return diag[0][None], None
    a, b = 0.5 * (diag[0] + diag[1]), 0.5 * (diag[0] - diag[1])
    rad = np.hypot(b, r[0] * r[1] * s)
    return a + np.array([[1.0], [-1.0]]) * rad, (a, b, rad)


def qp_fill(r: np.ndarray, lam: np.ndarray, mu: float,
            spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Quasiparticle occupation Delta^p and the kinetic right-hand side.

    For every k the levels of `_qp_levels`, shifted by -mu, are filled
    with finite-beta Fermi factors in closed form; the inter-channel
    coupling of the two-site cell is odd in kx, so its mesh average
    vanishes and both outputs stay channel-diagonal.
    """
    levels, split = _qp_levels(r, lam, spec)
    beta = spec.beta
    bands, s = _band_components(spec)
    if split is None:
        f = fermi(levels[0] - mu, beta)
        return np.array([f.mean()]), np.array([(bands[0] * r[0] * f).mean()])
    a, b, rad = split
    f_up, f_dn = fermi(levels - mu, beta)
    f0, df = 0.5 * (f_up + f_dn), 0.5 * (f_up - f_dn)
    flat = rad <= 1e-9
    ratio = df / np.where(flat, 1.0, rad)
    centre = fermi(a[flat] - mu, beta)
    ratio[flat] = -beta * centre * (1.0 - centre)
    delta = np.array([(f0 + ratio * b).mean(), (f0 - ratio * b).mean()])
    cross = s ** 2 * ratio
    k_plus = (bands[0] * r[0] * (f0 + ratio * b)
              + r[0] * r[1] ** 2 * cross).mean()
    k_minus = (bands[1] * r[1] * (f0 - ratio * b)
               + r[1] * r[0] ** 2 * cross).mean()
    return delta, np.array([k_plus, k_minus])


def matsubara_fermi(h: np.ndarray, beta: float,
                    n_freq: int = 100_000) -> np.ndarray:
    """Occupation matrix from an explicit frequency sum.

    Sums 1/2 - (2/beta) H (w_n^2 + H^2)^(-1) over the first `n_freq`
    positive fermionic frequencies with third-order polygamma tail
    corrections; validation reference for the Fermi-function shortcut.
    """
    h = np.atleast_2d(np.asarray(h))
    dim = h.shape[0]
    n = np.arange(n_freq)
    omega_sq = ((2 * n + 1) * math.pi / beta) ** 2
    stack = omega_sq[:, None, None] * np.eye(dim) + h @ h
    summed = np.linalg.inv(stack).sum(axis=0)
    out = 0.5 * np.eye(dim) - (2.0 / beta) * (h @ summed)
    tail1 = -(beta / (2.0 * math.pi ** 2)) * polygamma(1, n_freq + 0.5) * h
    tail3 = (beta ** 3 / (48.0 * math.pi ** 4)) \
        * polygamma(3, n_freq + 0.5) * (h @ h @ h)
    return out + tail1 + tail3


def bath_kernel(x):
    """sqrt(Delta (1 - Delta)) appearing in the bath-coupling equations."""
    return np.sqrt(np.asarray(x, dtype=float)
                   * (1.0 - np.asarray(x, dtype=float)))


def bath_kernel_slope(x):
    x = np.asarray(x, dtype=float)
    return (1.0 - 2.0 * x) / (2.0 * bath_kernel(x))


def solve_d(delta: np.ndarray, kinetic: np.ndarray) -> np.ndarray:
    """Hybridization amplitudes from the channel-diagonal linear system
    bath_kernel(Delta) * D = K."""
    if np.any(delta <= 0.0) or np.any(delta >= 1.0):
        raise ValueError(f"degenerate bath: occupations {delta} touch 0 or 1")
    g = bath_kernel(delta)
    if np.any(g < 1e-8):
        raise ValueError("degenerate bath: vanishing square-root factor")
    return kinetic / g


def lambda_c(delta: np.ndarray, d: np.ndarray, r: np.ndarray,
             lam: np.ndarray) -> np.ndarray:
    """Bath one-body potential closing the Lagrange equations, one value
    per symmetry channel."""
    if np.any(delta <= 0.0) or np.any(delta >= 1.0):
        raise ValueError("bath occupations outside (0, 1)")
    return -lam - 2.0 * d * r * bath_kernel_slope(delta)


def find_mu(r: np.ndarray, lam: np.ndarray, spec: LatticeSpec) -> float:
    """Chemical potential hitting the filling target.

    The particle-hole symmetric single-site band pins mu = lambda exactly
    at half filling; otherwise mu is bracketed and bisected on the mean of
    fermi(E - mu) over the levels E of `_qp_levels`, built once.
    """
    if spec.n_c == 1 and spec.filling == 0.5:
        return float(lam[0])
    levels, _ = _qp_levels(r, lam, spec)

    # brentq starts by evaluating both bracket ends, which the doubling
    # loop has just evaluated.
    gaps: dict[float, float] = {}

    def filling_gap(mu: float) -> float:
        if mu not in gaps:
            gaps[mu] = fermi(levels - mu, spec.beta).mean() - spec.filling
        return gaps[mu]

    width = 2.0 + float(np.max(np.abs(lam)))
    lo, hi = -width, width
    for _ in range(80):
        if filling_gap(lo) < 0.0 < filling_gap(hi):
            break
        lo, hi = 2.0 * lo, 2.0 * hi
    else:
        raise SolverFailure("could not bracket the chemical potential")
    return float(brentq(filling_gap, lo, hi, xtol=1e-12))


def build_embedding_hamiltonian(spec: LatticeSpec, d: np.ndarray,
                                lam_c: np.ndarray,
                                mu: float = 0.0) -> EmbeddingHamiltonian:
    """Impurity+bath cluster for the current self-consistency point.

    The impurity one-body part carries only the intra-cluster hopping (t
    between the two sites); on-site physics enters through lambda_c and mu.
    """
    if spec.n_c == 1:
        t_intra = np.zeros((1, 1))
    else:
        t_intra = np.array([[0.0, spec.t], [spec.t, 0.0]])
    return EmbeddingHamiltonian(n_c=spec.n_c, u_int=spec.u,
                                d_mix=channel_matrix(d),
                                lambda_c=channel_matrix(lam_c), mu=mu,
                                t_intra=t_intra)


def ed_impurity_solver(emb: EmbeddingHamiltonian) -> np.ndarray:
    """Exact cluster solver: half-filled, spin-zero ground-state 1-RDM."""
    gs = ground_state(emb, half_filling_sector(emb.n_c))
    return ed_rdm1(gs.state, emb.n_c).matrix


def _is_exact(impurity_solver: Callable | None) -> bool:
    """Whether a solver argument means the exact cluster solver."""
    return impurity_solver is None or impurity_solver is ed_impurity_solver


@dataclass
class CostReport:
    cost: float
    f1: np.ndarray | None = None
    f2: np.ndarray | None = None
    mu: float = math.nan
    delta: np.ndarray | None = None
    rdm: np.ndarray | None = None
    clamped: bool = False
    emb: EmbeddingHamiltonian | None = None


def risb_cost(r: np.ndarray, lam: np.ndarray, spec: LatticeSpec,
              impurity_solver: Callable | None = None) -> CostReport:
    """Root-function residuals of the self-consistency at (R, lambda).

    Pipeline: adjust mu -> k-sums -> (D, lambda_c) -> cluster ground state
    -> compare the measured bath-hole and impurity-bath blocks against the
    quasiparticle predictions.  The composite cost is the Frobenius norm of
    the stacked channel residuals.  `impurity_solver(emb)` returns the
    cluster's per-spin 1-RDM as an array.
    """
    if impurity_solver is None:
        impurity_solver = ed_impurity_solver
    clamped = False
    if np.any(np.abs(r) < MOTT_CLAMP):
        # Near the localization transition the k-sum becomes ill-behaved;
        # clamp and flag rather than dividing by ~0.
        r = np.where(np.abs(r) < MOTT_CLAMP,
                     np.where(r < 0, -MOTT_CLAMP, MOTT_CLAMP), r)
        clamped = True
    try:
        mu = find_mu(r, lam, spec)
        delta, kinetic = qp_fill(r, lam, mu, spec)
        d = solve_d(delta, kinetic)
        lam_c = lambda_c(delta, d, r, lam)
    except ValueError:
        return CostReport(cost=math.inf, clamped=clamped)
    emb = build_embedding_hamiltonian(spec, d, lam_c, mu)
    rdm = impurity_solver(emb)
    n = spec.n_c
    bath_hole = np.eye(n) - rdm[n:, n:].real
    mixing = rdm[:n, n:].real
    f1 = sym_project(bath_hole) - delta
    f2 = sym_project(mixing) - r * bath_kernel(delta)
    cost = math.sqrt(float(np.sum(f1 ** 2)) + float(np.sum(f2 ** 2)))
    return CostReport(cost=cost, f1=f1, f2=f2, mu=mu, delta=delta, rdm=rdm,
                      clamped=clamped, emb=emb)


@dataclass
class RisbOutput:
    """Best-seen self-consistency point; `converged` says whether its cost
    is below FIXED_POINT_TOL.  `n_iter` counts its cost evaluations
    (= len(cost_trace)); `jacobian` is the root iteration's final J, None
    if the iteration stopped early."""

    r: np.ndarray
    lam: np.ndarray
    mu: float
    cost: float
    cost_trace: list
    converged: bool
    n_iter: int
    clamped: bool = False
    report: CostReport | None = None
    jacobian: np.ndarray | None = None

    @property
    def z(self) -> np.ndarray:
        return self.r ** 2

    def lambda_tilde(self, spec: LatticeSpec) -> np.ndarray:
        return self.lam - eps_loc(spec, self.mu)


class _LeaveRoot(Exception):
    """The root search reached a point where the residual cannot vanish."""


class _Capped(Exception):
    """The root search used up its `max_iter` cost evaluations."""


def risb_solve(spec: LatticeSpec, impurity_solver: Callable | None = None,
               start: tuple[np.ndarray, np.ndarray] | None = None,
               max_iter: int = 100, *,
               jacobian: np.ndarray | None = None) -> RisbOutput:
    """Solve the self-consistency over the symmetry-reduced (R, lambda).

    Every solver seeks the root of the 2 n_c residuals (f1, f2) by steps
    x <- x - J^-1 f(x) from `start`, until a cost falls below
    FIXED_POINT_TOL or `max_iter` evaluations, difference columns included,
    are spent.  J starts as the carried `jacobian` or the forward-difference
    Jacobian of the exact solver's residual at `start`.  With the exact
    cluster solver a step that lowers the cost is taken and J gets Broyden's
    rank-one update, or is rebuilt by differences if the cost did not halve;
    any other step is refused, and J is rebuilt at x, or the next step
    halved if J is fresh.  A circuit solver, too rough for difference
    columns and cost comparisons, takes every chord step on the J at `start`
    (2 n_c + 1 exact evaluations, kept out of `cost_trace`).  The iteration
    stops early, keeping no J, if a cost is not finite, a point is clamped
    on the Mott side, where the residual cannot vanish, or J is singular,
    and with a circuit solver also at a chord iterate with some Z above
    Z_RUNAWAY (not evaluated) or a cluster the solver rejects with a
    ValueError (noisy residuals have no root, and steps along the exact
    J's near-flat directions run off).  An exact point ends there; a
    circuit solver's goes on to Nelder-Mead, which minimizes the cost from
    `start` with the evaluations of `max_iter` not yet spent.  `cost_trace`
    holds every evaluation, and `report` is the best point's CostReport.
    """
    n, exact = spec.n_c, _is_exact(impurity_solver)
    x0 = np.concatenate(start or (np.ones(n), np.zeros(n)), dtype=float)
    trace: list[tuple[int, float]] = []
    best: dict = {"cost": math.inf, "report": None, "x": x0}

    def evaluate(x: np.ndarray) -> CostReport:
        report = risb_cost(x[:n], x[n:], spec, impurity_solver)
        trace.append((len(trace), report.cost))
        if report.cost < best["cost"]:
            best.update(cost=report.cost, report=report, x=x.copy())
        return report

    def vector(report: CostReport) -> np.ndarray:
        if report.clamped or not math.isfinite(report.cost):
            raise _LeaveRoot
        return np.concatenate([report.f1, report.f2])

    def residual(x: np.ndarray) -> np.ndarray:
        if len(trace) >= max_iter:
            raise _Capped
        if not exact and np.any(x[:n] ** 2 > Z_RUNAWAY):
            raise _LeaveRoot
        return vector(evaluate(x))

    def exact_residual(x: np.ndarray) -> np.ndarray:
        return vector(risb_cost(x[:n], x[n:], spec))

    def differences(fun: Callable, x: np.ndarray,
                    f: np.ndarray) -> np.ndarray:
        steps = np.diag(FD_STEP * np.maximum(np.abs(x), 1.0))
        return np.column_stack([(fun(x + h) - f) / h[j]
                                for j, h in enumerate(steps)])

    x, scale, fresh, fallback = x0, 1.0, False, False
    try:
        f, cost = vector(evaluate(x0)), best["cost"]
        while best["cost"] >= FIXED_POINT_TOL:
            if jacobian is None:
                jacobian = (differences(residual, x, f) if exact else
                            differences(exact_residual, x, exact_residual(x)))
                fresh = True
            dx = -scale * np.linalg.solve(jacobian, f)
            f_new = residual(x + dx)
            cost_new = np.linalg.norm(f_new)
            if exact and cost_new >= cost:  # refused: halve on a fresh J
                scale, jacobian = ((scale / 2, jacobian) if fresh
                                   else (1.0, None))
                continue
            if exact and cost_new > cost / 2:
                jacobian = None
            elif exact:  # Broyden's rank-one update
                jacobian = jacobian + np.outer(f_new - f - jacobian @ dx,
                                               dx) / (dx @ dx)
            x, f, cost, scale, fresh = x + dx, f_new, cost_new, 1.0, False
    except _Capped:
        pass
    except (_LeaveRoot, ValueError) as err:  # a singular J is a LinAlgError
        if exact and not isinstance(err, (_LeaveRoot, np.linalg.LinAlgError)):
            raise  # the exact solver's own error
        fallback, jacobian = not exact, None
    if fallback:
        simplex = np.vstack([x0, x0 + SIMPLEX_STEP * np.eye(x0.size)])
        minimize(lambda x: evaluate(x).cost, x0, method="Nelder-Mead",
                 options={"maxfev": max_iter - len(trace),
                          "xatol": SIMPLEX_XATOL, "fatol": SIMPLEX_FATOL,
                          "initial_simplex": simplex})
    if not math.isfinite(best["cost"]):
        raise SolverFailure(f"cost never became finite over "
                            f"{len(trace)} evaluations")
    report = best["report"]
    return RisbOutput(r=best["x"][:n].copy(), lam=best["x"][n:].copy(),
                      mu=report.mu, cost=best["cost"], cost_trace=trace,
                      converged=best["cost"] < FIXED_POINT_TOL,
                      n_iter=len(trace), clamped=report.clamped,
                      report=report, jacobian=jacobian)


def noninteracting_start(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact U = 0 fixed point: R = 1 and lambda equal to the local level,
    so the self-energy vanishes identically."""
    return np.ones(spec.n_c), eps_loc(spec, 0.0)


@dataclass(frozen=True)
class SweepPoint:
    u: float
    output: RisbOutput


def _reference_start(reference: Sequence[SweepPoint] | Mapping | None,
                     u: float) -> tuple[np.ndarray, np.ndarray]:
    if not reference:
        raise ValueError("a non-empty classical reference table is required "
                         "to warm-start a quantum-solver sweep")
    if isinstance(reference, Mapping):
        entries = [(float(k), v) for k, v in reference.items()]
    else:
        entries = [(p.u, (p.output.r, p.output.lam)) for p in reference]
    _, value = min(entries, key=lambda item: abs(item[0] - (u - WARM_STEP)))
    return value


def _warm_start(points: list[SweepPoint], spec: LatticeSpec):
    """Exact-solver start and Jacobian after `points`: the last point,
    extrapolated linearly in U when it and the one before are unclamped
    roots."""
    if not points:
        return noninteracting_start(spec), None
    x = [np.concatenate([p.output.r, p.output.lam]) for p in points[-2:]]
    if len(x) == 2 and points[-2].u != points[-1].u and all(
            p.output.converged and not p.output.clamped
            for p in points[-2:]):
        x.append(x[1] + (x[1] - x[0]) * (spec.u - points[-1].u)
                 / (points[-1].u - points[-2].u))
    return tuple(np.split(x[-1], 2)), points[-1].output.jacobian


def risb_sweep(spec: LatticeSpec, u_values,
               impurity_solver: Callable | None = None, *,
               reference: Sequence[SweepPoint] | Mapping | None = None,
               max_iter: int = 100) -> list[SweepPoint]:
    """Solve the self-consistency along an interaction grid.

    Every point is risb_solve's root iteration.  With the exact cluster
    solver it starts from `_warm_start`'s extrapolation of the last
    solutions, with the previous point's final Jacobian.  A quantum solver
    instead warm-starts every point from the classical reference entry
    nearest to U minus one grid step, so errors do not compound along the
    sweep, and takes chord steps on the exact Jacobian there.  `max_iter`
    is risb_solve's cap on cost evaluations at every point.
    """
    points: list[SweepPoint] = []
    for u in u_values:
        spec_u = replace(spec, u=float(u))
        if _is_exact(impurity_solver):
            start, jacobian = _warm_start(points, spec_u)
        else:
            start, jacobian = _reference_start(reference, float(u)), None
        out = risb_solve(spec_u, impurity_solver, start=start,
                         max_iter=max_iter, jacobian=jacobian)
        points.append(SweepPoint(u=float(u), output=out))
    return points


def classical_point(spec: LatticeSpec, *, step: float = 0.05,
                    max_iter: int = 400) -> tuple[RisbOutput, CostReport]:
    """Converged exact-solver solution at spec.u, chained up from U = 0.

    Every grid point is risb_sweep's root iteration capped at `max_iter`
    cost evaluations; U = step builds its Jacobian by differences, later
    points carry it.  The grid ends at spec.u exactly.  Returns the
    solution together with the cost report of its best point, which
    carries the self-consistent cluster Hamiltonian and mu.
    """
    grid = [u for u in np.arange(0.0, spec.u + step / 2, step)
            if u < spec.u - 1e-12] + [spec.u]
    out = risb_sweep(spec, grid, max_iter=max_iter)[-1].output
    return out, out.report
