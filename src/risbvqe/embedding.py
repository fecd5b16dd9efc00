"""Slave-boson self-consistency for the square-lattice Hubbard model.

The lattice problem is reduced to a quasiparticle k-sum plus an interacting
impurity+bath cluster.  Everything is expressed in the symmetry-adapted
(bonding/antibonding) basis where the two-site cluster matrices
[[a, b], [b, a]] become two independent channels; the single-site cluster
is the one-channel special case.  Matsubara sums are evaluated as Fermi
functions of the quasiparticle matrix; a brute-force frequency sum with
analytic tail corrections is kept alongside as a validation reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import brentq, minimize, root
from scipy.special import expit, polygamma

from . import SolverFailure
from .ed import ed_rdm1, ground_state, half_filling_sector
from .hamiltonians import EmbeddingHamiltonian

FILLING_TOL = 1e-8
MOTT_CLAMP = 1e-3
BAND_CACHE_SIZE = 16
# Nelder-Mead on (R, lambda): initial simplex edge and stopping tolerances.
SIMPLEX_STEP = 0.02
SIMPLEX_XATOL = 1e-8
SIMPLEX_FATOL = 1e-12
WARM_STEP = 0.05
# A fixed point is reached when the residual norm falls below this.
FIXED_POINT_TOL = 1e-9


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

    @property
    def n_channels(self) -> int:
        return self.n_c


@dataclass(frozen=True)
class SymMatrix:
    """Symmetry-adapted view of a cluster matrix.

    A two-site matrix [[a, b], [b, a]] carries the two channel values
    plus = a + b and minus = a - b; a single-site quantity uses only
    `plus` and leaves `minus` as None.
    """

    plus: float
    minus: float | None = None

    @property
    def n_channels(self) -> int:
        return 1 if self.minus is None else 2

    def channels(self) -> np.ndarray:
        if self.minus is None:
            return np.array([self.plus], dtype=float)
        return np.array([self.plus, self.minus], dtype=float)

    @classmethod
    def from_channels(cls, values) -> "SymMatrix":
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 1:
            return cls(float(values[0]))
        if values.size == 2:
            return cls(float(values[0]), float(values[1]))
        raise ValueError("one or two channel values expected")

    def to_matrix(self) -> np.ndarray:
        if self.minus is None:
            return np.array([[self.plus]])
        a = 0.5 * (self.plus + self.minus)
        b = 0.5 * (self.plus - self.minus)
        return np.array([[a, b], [b, a]])

    def map(self, fn) -> "SymMatrix":
        return SymMatrix.from_channels(fn(self.channels()))


def sym_project(m) -> SymMatrix:
    """Channel view of a nearly-symmetric matrix, averaging away any small
    asymmetry (used on measured, hence noisy, cluster blocks)."""
    m = np.asarray(m, dtype=float)
    if m.shape == (1, 1):
        return SymMatrix(float(m[0, 0]))
    a = 0.5 * (m[0, 0] + m[1, 1])
    b = 0.5 * (m[0, 1] + m[1, 0])
    return SymMatrix(a + b, a - b)


def fermi(x, beta: float):
    """Fermi-Dirac occupation, stable for large |beta * x|."""
    return expit(-beta * np.asarray(x, dtype=float))


def dispersion(spec: LatticeSpec, k) -> np.ndarray:
    """Free dispersion at one wavevector, as an N_c x N_c site matrix.

    The two-site cell is oriented along x; its matrix form folds the
    original band so the half-bandwidth stays 4|t|.
    """
    kx, ky = float(k[0]), float(k[1])
    t = spec.t
    if spec.n_c == 1:
        return np.array([[2.0 * t * (math.cos(kx) + math.cos(ky))]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    return (2.0 * t * math.cos(ky) * np.eye(2)
            + t * (1.0 + math.cos(kx)) * sx
            + t * math.sin(kx) * sy)


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


def eps_loc(spec: LatticeSpec, mu: float) -> SymMatrix:
    """Mesh average of the dispersion minus the chemical potential."""
    bands, _ = _band_components(spec)
    return SymMatrix.from_channels([band.mean() - mu for band in bands])


def qp_fill(r: SymMatrix, lam: SymMatrix, mu: float,
            spec: LatticeSpec) -> tuple[SymMatrix, SymMatrix]:
    """Quasiparticle occupation Delta^p and the kinetic right-hand side.

    For every k the quasiparticle matrix R e_k R+ + lambda - mu is filled
    with finite-beta Fermi factors in closed form; the inter-channel
    coupling of the two-site cell is odd in kx, so its mesh average
    vanishes and both outputs stay channel-diagonal.
    """
    rc, lc = r.channels(), lam.channels()
    if np.any(np.abs(rc) < 1e-12):
        raise ValueError("quasiparticle weight matrix is singular")
    bands, s = _band_components(spec)
    beta = spec.beta
    if spec.n_c == 1:
        h = rc[0] ** 2 * bands[0] + lc[0] - mu
        f = fermi(h, beta)
        delta = float(f.mean())
        kinetic = float((bands[0] * rc[0] * f).mean())
        return SymMatrix(delta), SymMatrix(kinetic)
    diag = [rc[i] ** 2 * bands[i] + lc[i] - mu for i in range(2)]
    a = 0.5 * (diag[0] + diag[1])
    b = 0.5 * (diag[0] - diag[1])
    c = rc[0] * rc[1] * s
    rad = np.hypot(b, c)
    f_up = fermi(a + rad, beta)
    f_dn = fermi(a - rad, beta)
    f0 = 0.5 * (f_up + f_dn)
    df = 0.5 * (f_up - f_dn)
    centre = fermi(a, beta)
    slope = -beta * centre * (1.0 - centre)
    ratio = np.where(rad > 1e-9, df / np.where(rad > 1e-9, rad, 1.0), slope)
    delta = SymMatrix(float((f0 + ratio * b).mean()),
                      float((f0 - ratio * b).mean()))
    cross = s ** 2 * ratio
    k_plus = (bands[0] * rc[0] * (f0 + ratio * b)
              + rc[0] * rc[1] ** 2 * cross).mean()
    k_minus = (bands[1] * rc[1] * (f0 - ratio * b)
               + rc[1] * rc[0] ** 2 * cross).mean()
    return delta, SymMatrix(float(k_plus), float(k_minus))


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


def solve_d(delta: SymMatrix, kinetic: SymMatrix) -> SymMatrix:
    """Hybridization amplitudes from the channel-diagonal linear system
    bath_kernel(Delta) * D = K."""
    dc = delta.channels()
    if np.any(dc <= 0.0) or np.any(dc >= 1.0):
        raise ValueError(f"degenerate bath: occupations {dc} touch 0 or 1")
    g = bath_kernel(dc)
    if np.any(g < 1e-8):
        raise ValueError("degenerate bath: vanishing square-root factor")
    return SymMatrix.from_channels(kinetic.channels() / g)


def lambda_c(delta: SymMatrix, d: SymMatrix, r: SymMatrix,
             lam: SymMatrix) -> SymMatrix:
    """Bath one-body potential closing the Lagrange equations, one value
    per symmetry channel."""
    dc = delta.channels()
    if np.any(dc <= 0.0) or np.any(dc >= 1.0):
        raise ValueError("bath occupations outside (0, 1)")
    correction = 2.0 * d.channels() * r.channels() * bath_kernel_slope(dc)
    return SymMatrix.from_channels(-lam.channels() - correction)


def find_mu(r: SymMatrix, lam: SymMatrix, spec: LatticeSpec) -> float:
    """Chemical potential hitting the filling target.

    The particle-hole symmetric single-site band pins mu = lambda exactly
    at half filling; otherwise mu is bracketed and bisected.
    """
    if spec.n_c == 1 and spec.filling == 0.5:
        return lam.plus

    # brentq starts by evaluating both bracket ends, which the doubling
    # loop has just evaluated.
    gaps: dict[float, float] = {}

    def filling_gap(mu: float) -> float:
        if mu not in gaps:
            delta, _ = qp_fill(r, lam, mu, spec)
            gaps[mu] = float(delta.channels().mean()) - spec.filling
        return gaps[mu]

    width = 2.0 + float(np.max(np.abs(lam.channels())))
    lo, hi = -width, width
    for _ in range(80):
        if filling_gap(lo) < 0.0 < filling_gap(hi):
            break
        lo, hi = 2.0 * lo, 2.0 * hi
    else:
        raise SolverFailure("could not bracket the chemical potential")
    return float(brentq(filling_gap, lo, hi, xtol=1e-12))


def build_embedding_hamiltonian(spec: LatticeSpec, d: SymMatrix,
                                lam_c: SymMatrix,
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
                                d_mix=d.to_matrix(),
                                lambda_c=lam_c.to_matrix(), mu=mu,
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
    f1: SymMatrix | None = None
    f2: SymMatrix | None = None
    mu: float = math.nan
    delta: SymMatrix | None = None
    d: SymMatrix | None = None
    lam_c: SymMatrix | None = None
    rdm: np.ndarray | None = None
    clamped: bool = False
    emb: EmbeddingHamiltonian | None = None


def risb_cost(r: SymMatrix, lam: SymMatrix, spec: LatticeSpec,
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
    rc = r.channels()
    if np.any(np.abs(rc) < MOTT_CLAMP):
        # Near the localization transition the k-sum becomes ill-behaved;
        # clamp and flag rather than dividing by ~0.
        rc = np.where(np.abs(rc) < MOTT_CLAMP,
                      np.where(rc < 0, -MOTT_CLAMP, MOTT_CLAMP), rc)
        r = SymMatrix.from_channels(rc)
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
    f1 = SymMatrix.from_channels(sym_project(bath_hole).channels()
                                 - delta.channels())
    f2 = SymMatrix.from_channels(sym_project(mixing).channels()
                                 - r.channels() * bath_kernel(
                                     delta.channels()))
    cost = math.sqrt(float(np.sum(f1.channels() ** 2))
                     + float(np.sum(f2.channels() ** 2)))
    return CostReport(cost=cost, f1=f1, f2=f2, mu=mu, delta=delta, d=d,
                      lam_c=lam_c, rdm=rdm, clamped=clamped, emb=emb)


@dataclass
class RisbOutput:
    """Best-seen self-consistency point; `converged` says whether its cost
    is below FIXED_POINT_TOL."""

    r: SymMatrix
    lam: SymMatrix
    mu: float
    cost: float
    cost_trace: list
    converged: bool
    n_iter: int
    clamped: bool = False
    report: CostReport | None = None

    @property
    def z(self) -> SymMatrix:
        return self.r.map(lambda c: c ** 2)

    def lambda_tilde(self, spec: LatticeSpec) -> SymMatrix:
        local = eps_loc(spec, self.mu)
        return SymMatrix.from_channels(self.lam.channels()
                                       - local.channels())


def _pack(r: SymMatrix, lam: SymMatrix) -> np.ndarray:
    return np.concatenate([r.channels(), lam.channels()])


def _unpack(x: np.ndarray, n_channels: int) -> tuple[SymMatrix, SymMatrix]:
    return (SymMatrix.from_channels(x[:n_channels]),
            SymMatrix.from_channels(x[n_channels:]))


class _LeaveRoot(Exception):
    """The root search reached a point where the residual cannot vanish."""


def risb_solve(spec: LatticeSpec, impurity_solver: Callable | None = None,
               start: tuple[SymMatrix, SymMatrix] | None = None,
               max_iter: int = 100) -> RisbOutput:
    """Solve the self-consistency over the symmetry-reduced (R, lambda).

    With the exact cluster solver, MINPACK's hybrid Powell method first
    looks for the root of the 2 n_ch residuals (f1, f2) with at most
    `max_iter` evaluations, and its root is accepted when it succeeds with
    a best cost below FIXED_POINT_TOL.  Otherwise (it fails, a cost is not
    finite, or a point is clamped on the Mott side, where the residual
    cannot vanish), and from the outset for circuit solvers, whose capped
    VQE is too rough for a finite-difference Jacobian, Nelder-Mead
    minimizes the cost from `start` with `max_iter` iterations.  A start
    whose cost is already below FIXED_POINT_TOL is returned after that one
    evaluation.  `n_iter` counts the root search's evaluations or
    Nelder-Mead's iterations; `cost_trace` holds every evaluation of both
    phases, and `report` is the best point's CostReport.
    """
    if start is None:
        one = SymMatrix(1.0) if spec.n_c == 1 else SymMatrix(1.0, 1.0)
        zero = one.map(lambda c: 0.0 * c)
        start = (one, zero)
    n_ch = start[0].n_channels
    x0 = _pack(*start)
    trace: list[tuple[int, float]] = []
    best: dict = {"cost": math.inf, "report": None, "x": x0}

    def evaluate(x: np.ndarray) -> CostReport:
        r, lam = _unpack(x, n_ch)
        report = risb_cost(r, lam, spec, impurity_solver)
        trace.append((len(trace), report.cost))
        if report.cost < best["cost"]:
            best.update(cost=report.cost, report=report, x=x.copy())
        return report

    def residual(x: np.ndarray) -> np.ndarray:
        # hybr's first call is at x0, which `first` already evaluated
        report = first.pop() if first else evaluate(x)
        if report.clamped or not math.isfinite(report.cost):
            raise _LeaveRoot
        return np.concatenate([report.f1.channels(), report.f2.channels()])

    n_iter = None
    if _is_exact(impurity_solver):
        first = [evaluate(x0)]
        try:
            if first[0].cost < FIXED_POINT_TOL:  # the start is the root
                n_iter = 1
            else:
                found = root(residual, x0, method="hybr",
                             options={"maxfev": max_iter})
                if found.success and best["cost"] < FIXED_POINT_TOL:
                    n_iter = int(found.nfev)
        except _LeaveRoot:
            pass
    if n_iter is None:
        simplex = np.vstack([x0] + [x0 + SIMPLEX_STEP * e
                                    for e in np.eye(x0.size)])
        result = minimize(lambda x: evaluate(x).cost, x0,
                          method="Nelder-Mead",
                          options={"maxiter": max_iter,
                                   "xatol": SIMPLEX_XATOL,
                                   "fatol": SIMPLEX_FATOL,
                                   "initial_simplex": simplex})
        n_iter = int(result.nit)
    if not math.isfinite(best["cost"]):
        raise SolverFailure(f"cost never became finite over "
                            f"{len(trace)} evaluations")
    r, lam = _unpack(best["x"], n_ch)
    report = best["report"]
    return RisbOutput(r=r, lam=lam, mu=report.mu, cost=best["cost"],
                      cost_trace=trace,
                      converged=best["cost"] < FIXED_POINT_TOL,
                      n_iter=n_iter, clamped=report.clamped, report=report)


def noninteracting_start(spec: LatticeSpec) -> tuple[SymMatrix, SymMatrix]:
    """Exact U = 0 fixed point: R = 1 and lambda equal to the local level,
    so the self-energy vanishes identically."""
    ones = (SymMatrix(1.0) if spec.n_c == 1
            else SymMatrix(1.0, 1.0))
    return ones, eps_loc(spec, 0.0)


@dataclass(frozen=True)
class SweepPoint:
    u: float
    output: RisbOutput


def _reference_start(reference: Sequence[SweepPoint] | Mapping,
                     u: float) -> tuple[SymMatrix, SymMatrix]:
    if isinstance(reference, Mapping):
        entries = [(float(k), v) for k, v in reference.items()]
    else:
        entries = [(p.u, (p.output.r, p.output.lam)) for p in reference]
    if not entries:
        raise ValueError("classical reference table is empty")
    target = u - WARM_STEP
    _, value = min(entries, key=lambda item: abs(item[0] - target))
    return value


def risb_sweep(spec: LatticeSpec, u_values,
               impurity_solver: Callable | None = None, *,
               reference: Sequence[SweepPoint] | Mapping | None = None,
               max_iter: int = 100) -> list[SweepPoint]:
    """Solve the self-consistency along an interaction grid.

    With the exact cluster solver each point warm-starts from the previous
    solution, anchored at the U = 0 fixed point, and is solved as a root
    problem (see risb_solve).  A quantum solver instead warm-starts every
    point from the classical reference entry nearest to U minus one grid
    step, so errors do not compound along the sweep, and minimizes the cost
    with Nelder-Mead.  `max_iter` is risb_solve's cap at every point.
    """
    points: list[SweepPoint] = []
    prev: tuple[SymMatrix, SymMatrix] | None = None
    for u in u_values:
        spec_u = replace(spec, u=float(u))
        if _is_exact(impurity_solver):
            start = prev if prev is not None else noninteracting_start(
                spec_u)
        else:
            if reference is None:
                raise ValueError("a classical reference table is required "
                                 "to warm-start a quantum-solver sweep")
            start = _reference_start(reference, float(u))
        out = risb_solve(spec_u, impurity_solver, start=start,
                         max_iter=max_iter)
        prev = (out.r, out.lam)
        points.append(SweepPoint(u=float(u), output=out))
    return points


def classical_point(spec: LatticeSpec, *, step: float = 0.05,
                    max_iter: int = 400) -> tuple[RisbOutput, CostReport]:
    """Converged exact-solver solution at spec.u, chained up from U = 0.

    Every grid point is a root search capped at `max_iter` evaluations,
    with Nelder-Mead as risb_solve's fallback.  The grid ends at spec.u
    exactly.  Returns the solution together with the cost report of its
    best point, which carries the self-consistent cluster Hamiltonian and
    mu.
    """
    grid = [u for u in np.arange(0.0, spec.u + step / 2, step)
            if u < spec.u - 1e-12] + [spec.u]
    out = risb_sweep(spec, grid, max_iter=max_iter)[-1].output
    return out, out.report
