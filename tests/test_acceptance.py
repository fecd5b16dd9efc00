"""Acceptance checklist for the embedding-plus-circuits pipeline.

One test per shipping requirement, each ending in a single printed
``criterion N: PASS`` line with the measured figure (run with ``-s`` to see
them).  Numbers 1-9, 11 and 12 finish in minutes; number 10 replays the
full noisy-hardware comparison and is marked ``nightly``.
"""

import math
import warnings

import numpy as np
import pytest

from risbvqe.circuits import (
    Gate,
    build_ldca,
    build_mr_nc1,
    build_mrep,
    decompose_circuit,
)
from risbvqe.ed import ground_state, half_filling_sector, hamiltonian_matrix
from risbvqe.embedding import (
    LatticeSpec,
    classical_point,
    fermi,
    matsubara_fermi,
    risb_cost,
    risb_sweep,
)
from risbvqe.estimator import parameter_shift_minimize
from risbvqe.hamiltonians import EmbeddingHamiltonian
from risbvqe.noization import (
    determine_fixed_no_basis,
    exact_no_basis,
    noize,
    rotate_hamiltonian,
    vqe_impurity_solver,
)
from risbvqe.pauli import FermionOperator, count_terms, jordan_wigner
from risbvqe.simulator import (
    Observable,
    QuantumState,
    apply_gate,
    calibrate_noise,
)
from risbvqe.vqe import landscape_scan, multi_start

from oracles import single_site_z

I2 = np.eye(2, dtype=complex)
MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_word(word):
    m = np.eye(1, dtype=complex)
    for ch in word:
        m = np.kron(m, MATS[ch])
    return m


def kron_sum(p):
    m = np.zeros((2 ** p.n_qubits,) * 2, dtype=complex)
    for word, coeff in p.items():
        m += coeff * kron_word(word)
    return m


NC1_US = (0.2, 0.6, 1.0)
NC2_PICKS = (0.0, 0.05, 1.0, 2.0)


@pytest.fixture(scope="module")
def nc1_points():
    """Converged single-site fixed points, one chain per interaction."""
    out = {}
    for u in NC1_US:
        spec = LatticeSpec(n_c=1, u=u)
        output, report = classical_point(spec)
        out[u] = (spec, output, report)
    return out


@pytest.fixture(scope="module")
def nc2_points():
    # one warm-started chain, then a closing cost call to capture the
    # cluster model at each retained interaction
    grid = [0.0] + [round(0.05 * k, 10) for k in range(1, 41)]
    points = risb_sweep(LatticeSpec(n_c=2, u=0.0), grid, max_iter=400)
    by_u = {p.u: p for p in points}
    out = {}
    for u in NC2_PICKS:
        spec = LatticeSpec(n_c=2, u=u)
        point = by_u[u]
        report = risb_cost(point.output.r, point.output.lam, spec)
        out[u] = (spec, point.output, report)
    return out


@pytest.fixture(scope="module")
def exact_no_runs(nc2_points):
    """Best-of-three layered-circuit runs in the exact natural-orbital
    basis of each converged two-site cluster."""
    runs = {}
    for u in (0.0, 1.0, 2.0):
        _, _, report = nc2_points[u]
        emb = report.emb
        gs = ground_state(emb, half_filling_sector(emb.n_c))
        rotated = rotate_hamiltonian(emb.orbital(), exact_no_basis(emb))
        fit = multi_start(Observable(hamiltonian_matrix(rotated)),
                          build_mrep(2, 4), n_starts=3, seed=20, max_iter=300)
        runs[u] = (emb, gs.energy, fit)
    return runs


def test_criterion_01_ladder_algebra_and_hermitian_encoding():
    worst_algebra = 0.0
    for n in range(2, 7):
        eye = np.eye(2 ** n)
        ops = [kron_sum(jordan_wigner(FermionOperator.annihilation(j), n))
               for j in range(n)]
        for i in range(n):
            for j in range(n):
                ci, cj = ops[i], ops[j]
                acomm = ci @ cj.conj().T + cj.conj().T @ ci
                expected = eye if i == j else 0.0 * eye
                worst_algebra = max(worst_algebra,
                                    np.max(np.abs(acomm - expected)),
                                    np.max(np.abs(ci @ cj + cj @ ci)))
    assert worst_algebra <= 1e-10

    rng = np.random.default_rng(12)
    worst_herm = 0.0
    for k in range(100):
        n_c = 1 if k % 2 == 0 else 2
        lam_c = rng.uniform(-1, 1, (n_c, n_c))
        t_intra = rng.uniform(-1, 1, (n_c, n_c))
        emb = EmbeddingHamiltonian(
            n_c=n_c,
            u_int=float(rng.uniform(-2, 2)),
            d_mix=rng.uniform(-1, 1, (n_c, n_c)),
            lambda_c=(lam_c + lam_c.T) / 2,
            mu=float(rng.uniform(-1, 1)),
            t_intra=(t_intra + t_intra.T) / 2,
        )
        m = kron_sum(emb.to_pauli())
        worst_herm = max(worst_herm, np.max(np.abs(m - m.conj().T)))
    assert worst_herm <= 1e-10
    print(f"criterion 1: PASS (algebra dev {worst_algebra:.1e}, "
          f"hermiticity dev {worst_herm:.1e})")


def test_criterion_02_pauli_word_counts_in_reference_bases():
    emb = EmbeddingHamiltonian(n_c=1, u_int=1.0, d_mix=[[-0.4]],
                               lambda_c=[[-0.475]], mu=0.475)
    n_plain = count_terms(emb.orbital().to_pauli())
    assert n_plain == 7
    mixing = determine_fixed_no_basis()
    n_mixed = count_terms(rotate_hamiltonian(emb.orbital(),
                                             mixing).to_pauli())
    assert n_mixed == 52
    print(f"criterion 2: PASS (word counts {n_plain} and {n_mixed})")


def test_criterion_03_ansatz_parameter_and_gate_census():
    mrep = build_mrep(2, 4)
    assert len(mrep.parameter_names) == 58
    ldca = build_ldca(8, 1)
    assert len(ldca.parameter_names) == 148
    native = decompose_circuit(ldca)
    n_gates = native.count_gates()
    n_cnots = native.count_cnots()
    assert n_gates == 1108
    assert n_cnots == 280
    print(f"criterion 3: PASS (58/148 parameters, {n_gates} gates, "
          f"{n_cnots} CNOTs)")


def test_criterion_04_calibrated_channel_is_cptp_and_unital():
    noise = calibrate_noise()
    assert abs(noise.effective_p1 - 0.0024) <= 1e-12
    assert abs(noise.effective_p2 - (1.0 - math.sqrt(1.0 - 0.0075))) <= 1e-12

    rng = np.random.default_rng(4)
    n = 3
    dim = 2 ** n
    gates = (Gate("RY", (1,), (0.8,)), Gate("CNOT", (0, 2)),
             Gate("RZ", (2,), (-1.3,)), Gate("CNOT", (1, 0)))
    for _ in range(20):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        state = QuantumState.from_density(rho)
        for gate in gates:
            state = apply_gate(state, gate, noise=noise)
        state.check(1e-10)
    mixed = QuantumState.from_density(np.eye(dim) / dim)
    for gate in gates:
        mixed = apply_gate(mixed, gate, noise=noise)
    unital_dev = np.max(np.abs(mixed.density() - np.eye(dim) / dim))
    assert unital_dev <= 1e-10
    print(f"criterion 4: PASS (rates exact, unital dev {unital_dev:.1e})")


def test_criterion_05_two_determinant_circuit_reaches_exact_energy(
        nc1_points):
    embs = [report.emb for (_, _, report) in nc1_points.values()]
    embs.append(EmbeddingHamiltonian(n_c=1, u_int=0.0, d_mix=[[-0.4]],
                                     lambda_c=[[0.004]], mu=0.0))
    worst = 0.0
    for emb in embs:
        gs = ground_state(emb, half_filling_sector(emb.n_c))
        rotated = rotate_hamiltonian(emb.orbital(), exact_no_basis(emb))
        fit = parameter_shift_minimize(build_mr_nc1(),
                                       Observable(hamiltonian_matrix(rotated)))
        worst = max(worst, abs(fit.energy - gs.energy))
    assert worst <= 1e-8
    print(f"criterion 5: PASS (max |E - E0| = {worst:.1e} "
          f"over {len(embs)} clusters)")


def test_criterion_06_layered_circuit_ground_state_accuracy(exact_no_runs):
    worst = 0.0
    for u, (_, e0, fit) in exact_no_runs.items():
        rel = abs(fit.best_energy - e0) / abs(e0)
        assert rel < 1e-2, f"U = {u}: relative error {rel:.3e}"
        worst = max(worst, rel)
    print(f"criterion 6: PASS (worst relative error {worst:.1e})")


def test_criterion_07_basis_iteration_recovers_reference_energy(
        exact_no_runs):
    worst = 0.0
    for u, (emb, e0, fit) in exact_no_runs.items():
        result = noize(emb, ansatz=build_mrep(2, 4), n_steps=3,
                       n_starts=2, seed=33, max_iter=300)
        gap = abs(min(result.energies) - fit.best_energy)
        bar = 1e-2 * abs(e0)
        assert gap <= bar, f"U = {u}: gap {gap:.3e} exceeds {bar:.3e}"
        worst = max(worst, gap / bar)
    print(f"criterion 7: PASS (worst gap at {worst:.3f} of budget)")


def test_criterion_08_quasiparticle_weight_sweep_matches_scalar_oracle():
    grid = [0.0] + [round(0.05 * k, 10) for k in range(1, 61)]
    points = risb_sweep(LatticeSpec(n_c=1, u=0.0), grid, max_iter=20)
    zs = [p.output.z[0] for p in points]
    assert abs(zs[0] - 1.0) <= 1e-6
    for a, b in zip(zs, zs[1:]):
        assert b <= a + 1e-9
    # the scalar bisection loses its bracket once the metallic root
    # collapses, so compare only where it still resolves a finite weight
    worst = 0.0
    n_checked = 0
    for point, z in zip(points[1:], zs[1:]):
        z_ref = single_site_z(point.u)
        if z_ref < 0.05:
            continue
        worst = max(worst, abs(z - z_ref))
        n_checked += 1
    assert n_checked >= 50
    assert worst <= 1e-3
    print(f"criterion 8: PASS (Z(0) exact, monotone, "
          f"max |dZ| = {worst:.1e} on {n_checked} points)")


def test_criterion_09_fixed_point_cost_vanishes(nc1_points, nc2_points):
    worst = 0.0
    for family in (nc1_points, nc2_points):
        for _, _, report in family.values():
            worst = max(worst, report.cost)
    assert worst < 1e-6
    print(f"criterion 9: PASS (max fixed-point cost {worst:.1e})")


@pytest.mark.nightly
def test_criterion_10_noisy_hardware_model_tracks_reference():
    grid = [round(0.05 * k, 10) for k in range(1, 41)]
    reference = risb_sweep(LatticeSpec(n_c=2, u=0.0), grid, max_iter=100)
    ref_by_u = {p.u: p for p in reference}
    noise = calibrate_noise()

    # noiseless layered circuit reproduces the reference observables
    worst_rel = 0.0
    for u in (0.05, 1.0, 2.0):
        spec = LatticeSpec(n_c=2, u=u)
        solver = vqe_impurity_solver(build_mrep(2, 4), basis="exact-no",
                                     n_starts=3, seed=101, max_iter=150)
        point = risb_sweep(spec, [u], solver, reference=reference,
                           max_iter=100)[0]
        ref = ref_by_u[u]
        for got, want in (
                (point.output.z[0], ref.output.z[0]),
                (point.output.z[1], ref.output.z[1]),
                (point.output.lambda_tilde(spec)[0],
                 ref.output.lambda_tilde(spec)[0]),
                (point.output.lambda_tilde(spec)[1],
                 ref.output.lambda_tilde(spec)[1])):
            rel = abs(got - want) / abs(want)
            assert rel <= 0.05, f"U = {u}: {got} vs {want}"
            worst_rel = max(worst_rel, rel)

    # calibrated noise: descending cost, deviations largest at weak
    # coupling where the displaced minimum is relatively furthest
    devs = {}
    for u in (0.05, 1.0, 2.0):
        spec = LatticeSpec(n_c=2, u=u)
        ref = ref_by_u[u]
        closing = risb_cost(ref.output.r, ref.output.lam, spec)
        rotated = rotate_hamiltonian(closing.emb.orbital(),
                                     exact_no_basis(closing.emb))
        warm = multi_start(Observable(hamiltonian_matrix(rotated)),
                           build_mrep(2, 4), n_starts=2, seed=7, max_iter=200)
        solver = vqe_impurity_solver(build_mrep(2, 4), basis="exact-no",
                                     noise=noise, n_starts=2, seed=7,
                                     optimizer="nelder-mead", max_iter=250,
                                     x0=warm.best_params)
        point = risb_sweep(spec, [u], solver, reference=reference,
                           max_iter=30)[0]
        costs = [c for _, c in point.output.cost_trace]
        assert costs[-1] < costs[0], f"U = {u}: cost did not descend"
        devs[u] = max(abs(point.output.z[0] - ref.output.z[0]),
                      abs(point.output.z[1] - ref.output.z[1]))
    assert devs[0.05] > devs[2.0], f"deviations {devs}"

    # the deep hardware-efficient circuit cannot converge under the same
    # noise: its cost stays of the order of the starting value
    for u in (0.05, 2.0):
        spec = LatticeSpec(n_c=2, u=u)
        solver = vqe_impurity_solver(build_ldca(8, 1), basis="exact-no",
                                     noise=noise, n_starts=2, seed=7,
                                     optimizer="nelder-mead", max_iter=100)
        point = risb_sweep(spec, [u], solver, reference=reference,
                           max_iter=15)[0]
        costs = [c for _, c in point.output.cost_trace]
        assert costs[-1] > 0.5 * costs[0], f"U = {u}: {costs[-1]} vs {costs[0]}"
    print(f"criterion 10: PASS (noiseless rel dev {worst_rel:.2e}, "
          f"noisy Z devs {devs[0.05]:.3f} > {devs[2.0]:.3f}, "
          f"deep circuit stalls)")


def test_criterion_11_occupation_from_frequency_sum_matches_direct():
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(50):
        dim = (1, 2, 4)[k % 3]
        beta = (50.0, 200.0, 300.0)[(k // 3) % 3]
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        w, v = np.linalg.eigh(h)
        direct = (v * fermi(w, beta)) @ v.conj().T
        summed = matsubara_fermi(h, beta)
        worst = max(worst, np.max(np.abs(summed - direct)))
    assert worst <= 1e-5
    print(f"criterion 11: PASS (max deviation {worst:.1e} on 50 matrices)")


def test_criterion_12_noise_displaces_landscape_minimum():
    spec = LatticeSpec(n_c=1, u=0.1)
    r_values = np.round(np.arange(0.95, 1.0101, 0.01), 10)
    lam_values = np.round(np.arange(0.03, 0.0701, 0.01), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = landscape_scan(spec, r_values, lam_values,
                               noise_scales=(0.0, 1.0),
                               base_noise=calibrate_noise())
    output, _ = classical_point(spec)
    i_star = int(np.argmin(np.abs(r_values - output.r[0])))
    j_star = int(np.argmin(np.abs(lam_values - output.lam[0])))
    clean = table.min_node(0)
    noisy = table.min_node(1)
    assert clean == (i_star, j_star)
    steps = max(abs(noisy[0] - clean[0]), abs(noisy[1] - clean[1]))
    assert steps >= 1
    print(f"criterion 12: PASS (clean minimum at the converged node, "
          f"noisy minimum {steps} grid steps away)")
