"""Brute-force dense oracles shared across the test suite.

Everything here works by explicit bit manipulation on full 2^n arrays, or by
Pauli-string algebra, so it stays independent of the package's
tensor-contraction simulator and of its ladder-table kernel; the
exceptions are `pauli_rdm1_full`, the Pauli-expectation 1-RDM that the
compiled table is checked against, and `gate_matrix` and
`gate_derivatives`, the batch of one of `circuits.gate_stack`.
`oracle_transfer` builds a noisy gate's Pauli transfer matrix, or its
derivative, from explicit traces over Pauli words.  `full_register_walk`
and `unfactored` do read the simulator's compiled blocks: they check its
product-state start against every block applied to the whole register.
`simplex_by_runs` evaluates Nelder-Mead's starting simplex by one `run`
per vertex, which the one-sweep `displaced_energies` replaced.
`gather_scatter_walk` is the pure walk of the compiled chain written
per gate on the real planes [Re psi, Im psi], each gate's real form
applied in place through the gather index of its qubits in both planes,
with its adjoint sweep, and `per_term_hamiltonian_matrix` is `ed`'s
per-term loop over sector-restricted `pauli.ladder_table`s that the
stacked accumulation replaced; both must agree with production bit for
bit.
`oracle_jordan_wigner` is the string-product Jordan-Wigner map
(single-qubit product table `_MUL`), and the Fock-space loops (`_ladder`,
`oracle_hamiltonian_matrix`, `oracle_rdm1_full`) keep their own sign
bookkeeping.  Qubit 0 is the most significant bit, mode p sits on qubit
p.  `build_product_ry` is the entanglement-free ansatz several tests
run; `pauli_zero` and `pauli_identity` build the empty and identity
sums, and `sym_from_matrix` reads a symmetry-adapted matrix back into its
channels, which `assert_channel_arrays` checks are separate float
arrays.  `zero_state` builds |0...0> on either backend and `from_vector`
the pure state of an amplitude vector.
`kron_gradient` is the dense complex product of np.kron-built gate
matrices (`kron_matrix`), with each named slot's derivative.
`expectation_matrix` is the Pauli route to a dense matrix, one bitmask
permutation per word, and `pauli_observable` wraps it as a simulator
observable for tests that state observables as Pauli words.
`dispersion` is the per-k band matrix the mesh kernels are checked against.
`per_mu_qp_fill` and `per_mu_find_mu` are the k-sum and chemical-potential
search that rebuilt the whole quasiparticle spectrum for every mu, which
the mu-independent levels replaced.  `fermion_creation` and
`fermion_number` build the one-term ladder operators the Jordan-Wigner
tests use.
"""

import functools
import itertools
import math

import numpy as np

from risbvqe import SolverFailure, ed, simulator
from risbvqe.circuits import (Circuit, Gate, ParamRef, gate_stack,
                              real_stack)
from risbvqe.embedding import (_band_components, bath_kernel,
                               bath_kernel_slope, fermi)
from risbvqe.estimator import expectation
from risbvqe.pauli import (MODE_CAP, PRUNE_TOL, FermionOperator, PauliSum,
                          jordan_wigner, ladder_table)
from risbvqe.simulator import Observable


# Single-qubit products (a, b) -> (phase, a*b).
_MUL = {
    ("I", "I"): (1.0, "I"),
    ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"),
    ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"),
    ("Y", "I"): (1.0, "Y"),
    ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"),
    ("Y", "Y"): (1.0, "I"),
    ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1.0j, "Z"),
    ("Y", "X"): (-1.0j, "Z"),
    ("Y", "Z"): (1.0j, "X"),
    ("Z", "Y"): (-1.0j, "X"),
    ("Z", "X"): (1.0j, "Y"),
    ("X", "Z"): (-1.0j, "Y"),
}


def pauli_zero(n_qubits):
    """The empty sum on `n_qubits`."""
    return PauliSum({}, n_qubits)


def pauli_identity(n_qubits, coeff=1.0):
    """`coeff` times the identity word on `n_qubits`."""
    return PauliSum({"I" * n_qubits: coeff}, n_qubits)


def pauli_product(a, b):
    """Multiply two Pauli words: matrix(a) @ matrix(b) = phase * matrix(c)."""
    if len(a) != len(b):
        raise ValueError(f"word lengths differ: {len(a)} vs {len(b)}")
    phase = 1.0 + 0.0j
    out = []
    for ca, cb in zip(a, b):
        ph, c = _MUL[ca, cb]
        phase *= ph
        out.append(c)
    return phase, "".join(out)


def pauli_sum_product(a, b):
    """PauliSum a @ b, word by word through `pauli_product`."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("register size mismatch")
    merged = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            phase, wc = pauli_product(wa, wb)
            merged[wc] = merged.get(wc, 0.0) + phase * ca * cb
    return PauliSum(merged, a.n_qubits)


def _masks(word):
    """(x_mask, z_mask, number of Y) of a word; qubit 0 is the top bit."""
    x = z = 0
    for ch in word:
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "ZY")
    return x, z, word.count("Y")


def expectation_matrix(p):
    """A PauliSum as a dense 2^n x 2^n matrix.

    A word maps basis state j to i^(#Y) (-1)^popcount(j & z_mask) times
    basis state j ^ x_mask (Y = iXZ), so each word fills one permutation
    pattern of entries; words sharing an x_mask share the pattern.
    """
    if p.n_qubits > MODE_CAP:
        raise ValueError(f"{p.n_qubits} qubits exceeds the dense cap "
                         f"{MODE_CAP}")
    dim = 2 ** p.n_qubits
    cols = np.arange(dim)
    by_x = {}
    for word, coeff in p.items():
        x, z, n_y = _masks(word)
        phase = coeff * (1, 1j, -1, -1j)[n_y % 4]
        parity = np.bitwise_count(cols & z).astype(int) & 1
        values = phase * (1 - 2 * parity)
        by_x[x] = by_x[x] + values if x in by_x else values
    m = np.zeros((dim, dim), dtype=complex)
    for x, values in by_x.items():
        m[cols ^ x, cols] = values
    return m


def pauli_observable(terms, n_qubits=None):
    """The simulator observable of a PauliSum, or of its terms, built
    through `expectation_matrix`."""
    if not isinstance(terms, PauliSum):
        terms = PauliSum(terms, n_qubits)
    return Observable(expectation_matrix(terms))


def _ladder_image(mode, dagger, n_modes):
    # c+_j carries the Z string on all earlier modes; (X - iY)/2 raises
    # |0> to |1> so |1> means occupied.
    head = "Z" * mode
    tail = "I" * (n_modes - mode - 1)
    y_coeff = -0.5j if dagger else 0.5j
    return PauliSum({head + "X" + tail: 0.5, head + "Y" + tail: y_coeff},
                    n_modes)


def oracle_jordan_wigner(op, n_modes):
    """Jordan-Wigner by string products: each term is the product of its
    ladder images, merged into the running sum in order, dropping words
    with |c| <= PRUNE_TOL after each term."""
    if op.max_mode() >= n_modes:
        raise ValueError(f"mode index {op.max_mode()} out of range "
                         f"for {n_modes} modes")
    total = {}
    for coeff, ops in op.terms:
        acc = pauli_identity(n_modes, coeff)
        for mode, dagger in ops:
            acc = pauli_sum_product(acc, _ladder_image(mode, dagger, n_modes))
        for word, value in acc.items():
            value = total.get(word, 0.0) + value
            if abs(value) > PRUNE_TOL:
                total[word] = value
            else:
                total.pop(word, None)
    return PauliSum(total, n_modes)


# Every gate kind, RPQ with each of its nine axis pairs.
KIND_AXES = ([(k, None) for k in ("RX", "RY", "RZ", "X", "H", "CNOT", "FSIM")]
             + [("RPQ", (a, b)) for a in "XYZ" for b in "XYZ"])


def _resolve(slot, bindings):
    if isinstance(slot, ParamRef):
        try:
            return slot.scale * bindings[slot.name]
        except KeyError:
            raise ValueError(f"unbound parameter {slot.name!r}") from None
    return float(slot)


def gate_matrix(gate, bindings=None):
    """Dense 2x2 or 4x4 unitary of a gate with all parameters resolved:
    `gate_stack`'s batch of one."""
    angles = [[_resolve(slot, bindings or {}) for slot in gate.params]]
    return gate_stack(gate.kind, angles, gate.axes)[0]


def gate_derivatives(gate, bindings=None):
    """(name, d gate_matrix / d name) for every named slot of the gate, one
    `gate_stack` derivative each.

    The slot's scale enters by the chain rule; a name on two slots of one
    gate appears twice, and callers sum the contributions.
    """
    angles = [[_resolve(slot, bindings or {}) for slot in gate.params]]
    return [(slot.name,
             slot.scale * gate_stack(gate.kind, angles, gate.axes, i)[0])
            for i, slot in enumerate(gate.params)
            if isinstance(slot, ParamRef)]


def embed_gate(n_qubits, gate, bindings=None):
    """Full 2^n unitary of a single gate."""
    return embed_matrix(n_qubits, gate.qubits,
                        gate_matrix(gate, bindings or {}))


def embed_matrix(n_qubits, qubits, u):
    """A 2x2 or 4x4 matrix on `qubits` (in the listed order) as a full
    2^n matrix, bit by bit."""
    dim = 2 ** n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    if len(qubits) == 1:
        (q,) = qubits
        shift = n_qubits - 1 - q
        for col in range(dim):
            b = (col >> shift) & 1
            base = col & ~(1 << shift)
            for nb in (0, 1):
                full[base | (nb << shift), col] += u[nb, b]
    else:
        qa, qb = qubits
        sa, sb = n_qubits - 1 - qa, n_qubits - 1 - qb
        for col in range(dim):
            ba, bb = (col >> sa) & 1, (col >> sb) & 1
            base = col & ~(1 << sa) & ~(1 << sb)
            for row in range(4):
                na, nb = row >> 1, row & 1
                full[base | (na << sa) | (nb << sb), col] += u[row, 2 * ba + bb]
    return full


def dense_unitary(circuit, bindings=None):
    u = np.eye(2 ** circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        u = embed_gate(circuit.n_qubits, g, bindings) @ u
    return u


def dense_state(circuit, bindings=None):
    return dense_unitary(circuit, bindings)[:, 0]


def kron_matrix(n_qubits, qubits, u):
    """A 2x2 or 4x4 matrix on `qubits` (in the listed order) as a full 2^n
    matrix by np.kron: per entry u[r, c], the kron of |r_j><c_j| on its
    j-th qubit and the identity on the others."""
    k, basis = len(qubits), np.eye(2)
    full = np.zeros((2 ** n_qubits,) * 2, dtype=complex)
    for r, c in itertools.product(range(2 ** k), repeat=2):
        ops = [basis] * n_qubits
        for j, q in enumerate(qubits):
            bit = k - 1 - j
            ops[q] = np.outer(basis[r >> bit & 1], basis[c >> bit & 1])
        full += u[r, c] * functools.reduce(np.kron, ops)
    return full


def kron_gradient(circuit, matrix, bindings=None):
    """(final amplitudes, <psi|O psi>, d<O>/d(parameter) in
    `parameter_names` order) for O = `matrix`, from dense complex products
    of the `kron_matrix` of each gate, the gradient one gate at a time
    replaced by its derivative in one named slot (`gate_derivatives`)."""
    n, names = circuit.n_qubits, circuit.parameter_names
    mats = [kron_matrix(n, g.qubits, gate_matrix(g, bindings))
            for g in circuit.gates]
    start = np.eye(2 ** n, 1, dtype=complex).ravel()
    psi = functools.reduce(lambda v, m: m @ v, mats, start)
    grad = dict.fromkeys(names, 0.0)
    for p, gate in enumerate(circuit.gates):
        for name, du in gate_derivatives(gate, bindings):
            v = start
            for q, m in enumerate(mats):
                v = (kron_matrix(n, gate.qubits, du) if q == p else m) @ v
            grad[name] += 2.0 * np.vdot(psi, matrix @ v).real
    return (psi, np.vdot(psi, matrix @ psi).real,
            np.array([grad[name] for name in names]))


def _mode_bit(index, mode, n):
    return (index >> (n - 1 - mode)) & 1


def _jw_parity(index, mode, n):
    # Occupation parity of modes 0..mode-1, i.e. the top `mode` bits.
    return -1 if bin(index >> (n - mode)).count("1") % 2 else 1


def oracle_rdm1_full(psi, n_modes):
    """<c†_p c_q> for all spin-orbitals, straight from amplitudes."""
    psi = np.asarray(psi).ravel()
    rdm = np.zeros((n_modes, n_modes), dtype=complex)
    for i, amp in enumerate(psi):
        if abs(amp) < 1e-16:
            continue
        for q in range(n_modes):
            if not _mode_bit(i, q, n_modes):
                continue
            s1 = _jw_parity(i, q, n_modes)
            j = i & ~(1 << (n_modes - 1 - q))
            for p in range(n_modes):
                if _mode_bit(j, p, n_modes):
                    continue
                s2 = _jw_parity(j, p, n_modes)
                k = j | (1 << (n_modes - 1 - p))
                rdm[p, q] += np.conj(psi[k]) * amp * s1 * s2
    return rdm


def oracle_rdm1_density(rho, n_modes):
    """Tr(rho c†_p c_q) for all spin-orbitals, straight from a density
    matrix: the loop of `oracle_rdm1_full` with rho[i, k] in place of
    conj(psi[k]) psi[i]."""
    rho = np.asarray(rho)
    rdm = np.zeros((n_modes, n_modes), dtype=complex)
    for i in range(rho.shape[0]):
        for q in range(n_modes):
            if not _mode_bit(i, q, n_modes):
                continue
            s1 = _jw_parity(i, q, n_modes)
            j = i & ~(1 << (n_modes - 1 - q))
            for p in range(n_modes):
                if _mode_bit(j, p, n_modes):
                    continue
                s2 = _jw_parity(j, p, n_modes)
                k = j | (1 << (n_modes - 1 - p))
                rdm[p, q] += rho[i, k] * s1 * s2
    return rdm


def fermion_creation(mode, coeff=1.0):
    """c+_mode as a one-term FermionOperator."""
    return FermionOperator([(coeff, ((mode, True),))])


def fermion_number(mode, coeff=1.0):
    """n_mode = c+_mode c_mode as a one-term FermionOperator."""
    return FermionOperator([(coeff, ((mode, True), (mode, False)))])


@functools.lru_cache(maxsize=None)
def _hopping_parts(p, q, n_modes):
    """Hermitian pieces h1 = c+_p c_q + h.c. and h2 = i c+_p c_q + h.c.;
    <c+_p c_q> = (<h1> - i <h2>) / 2."""
    hop, back = ((p, True), (q, False)), ((q, True), (p, False))
    h1 = FermionOperator([(1.0, hop), (1.0, back)])
    h2 = FermionOperator([(1j, hop), (-1j, back)])
    return (pauli_observable(jordan_wigner(h1, n_modes)),
            pauli_observable(jordan_wigner(h2, n_modes)))


@functools.lru_cache(maxsize=None)
def _number_op(p, n_modes):
    return pauli_observable(jordan_wigner(fermion_number(p), n_modes))


def pauli_rdm1_full(state):
    """<c+_p c_q> over every mode of a simulator state, entry by entry from
    exact expectations of Jordan-Wigner-compiled number and hopping
    operators; Hermitian by construction."""
    n_modes = state.n_qubits
    out = np.zeros((n_modes, n_modes), dtype=complex)
    for p in range(n_modes):
        out[p, p] = expectation(state, _number_op(p, n_modes))
        for q in range(p + 1, n_modes):
            h1, h2 = _hopping_parts(p, q, n_modes)
            val = 0.5 * (expectation(state, h1) - 1j * expectation(state, h2))
            out[p, q] = val
            out[q, p] = np.conj(val)
    return out


def _ladder(index, mode, dagger, n):
    """c+_mode (dagger) or c_mode on a basis index: (new index, sign), or
    None when the mode's occupation annihilates the state."""
    if dagger == bool(_mode_bit(index, mode, n)):
        return None
    return index ^ (1 << (n - 1 - mode)), _jw_parity(index, mode, n)


def oracle_sector_basis(n_modes, sector):
    """Basis indices with the sector's particle count and 2*Sz, ascending;
    every index when `sector` is None."""
    if sector is None:
        return list(range(2 ** n_modes))
    half = n_modes // 2
    out = []
    for i in range(2 ** n_modes):
        n_up = bin(i >> half).count("1")
        n_dn = bin(i & ((1 << half) - 1)).count("1")
        if (n_up + n_dn, n_up - n_dn) == (sector.n_particles,
                                          sector.sz_twice):
            out.append(i)
    return out


def oracle_hamiltonian_matrix(orb, sector=None):
    """Sector-restricted Fock matrix built term by term and column by
    column, walking each operator string over every basis state."""
    m = orb.n_modes
    basis = oracle_sector_basis(m, sector)
    position = {idx: col for col, idx in enumerate(basis)}
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for coeff, ops in orb.to_fermion_operator().terms:
        for col, start in enumerate(basis):
            state, sign = start, 1
            dead = False
            for mode, dagger in reversed(ops):
                step = _ladder(state, mode, dagger, m)
                if step is None:
                    dead = True
                    break
                state, s = step
                sign *= s
            if dead:
                continue
            row = position.get(state)
            if row is None:
                raise ValueError("term leaves the requested sector")
            out[row, col] += sign * coeff
    return out


def per_term_hamiltonian_matrix(orb, sector=None):
    """The dense Hamiltonian as one fancy-index update per fermion term,
    out[rows, cols] += signs * coeff over its `pauli.ladder_table`
    restricted to the sector basis, in term order."""
    states = ed._sector_states(orb.n_modes, sector)
    position = np.full(2 ** orb.n_modes, -1)
    position[states] = np.arange(states.size)
    out = np.zeros((states.size, states.size), dtype=complex)
    for coeff, ops in orb.to_fermion_operator().terms:
        rows, cols, signs = ladder_table(ops, orb.n_modes)
        keep = position[cols] >= 0
        out[position[rows[keep]], position[cols[keep]]] += signs[keep] * coeff
    return out


def matrix_lambda_c(delta, d, r, lam):
    """Matrix form of the bath potential for general symmetric inputs.

    The derivative of the matrix square-root kernel is evaluated by the
    eigendecomposition divided-difference formula; coinciding eigenvalues
    fall back to the analytic slope.
    """
    vals, q = np.linalg.eigh(np.asarray(delta, dtype=float))
    if np.any(vals <= 0.0) or np.any(vals >= 1.0):
        raise ValueError("bath occupations outside (0, 1)")
    dim = vals.size
    gamma = np.empty((dim, dim))
    for i in range(dim):
        for j in range(dim):
            if abs(vals[i] - vals[j]) > 1e-10:
                gamma[i, j] = ((bath_kernel(vals[i]) - bath_kernel(vals[j]))
                               / (vals[i] - vals[j]))
            else:
                gamma[i, j] = bath_kernel_slope(0.5 * (vals[i] + vals[j]))
    m = np.asarray(r, dtype=float) @ np.asarray(d, dtype=float)
    t_mat = q @ (gamma * (q.T @ m @ q)) @ q.T
    return -np.asarray(lam, dtype=float) - (t_mat + t_mat.T)


def per_mu_qp_fill(r, lam, mu, spec):
    """`embedding.qp_fill` as it was before the mu-independent levels were
    split out: the whole two-band spectrum is rebuilt with mu inside the
    quasiparticle matrix."""
    if np.any(np.abs(r) < 1e-12):
        raise ValueError("quasiparticle weight matrix is singular")
    bands, s = _band_components(spec)
    beta = spec.beta
    if spec.n_c == 1:
        h = r[0] ** 2 * bands[0] + lam[0] - mu
        f = fermi(h, beta)
        delta = float(f.mean())
        kinetic = float((bands[0] * r[0] * f).mean())
        return np.array([delta]), np.array([kinetic])
    diag = [r[i] ** 2 * bands[i] + lam[i] - mu for i in range(2)]
    a = 0.5 * (diag[0] + diag[1])
    b = 0.5 * (diag[0] - diag[1])
    c = r[0] * r[1] * s
    rad = np.hypot(b, c)
    f_up = fermi(a + rad, beta)
    f_dn = fermi(a - rad, beta)
    f0 = 0.5 * (f_up + f_dn)
    df = 0.5 * (f_up - f_dn)
    centre = fermi(a, beta)
    slope = -beta * centre * (1.0 - centre)
    ratio = np.where(rad > 1e-9, df / np.where(rad > 1e-9, rad, 1.0), slope)
    delta = np.array([(f0 + ratio * b).mean(), (f0 - ratio * b).mean()])
    cross = s ** 2 * ratio
    k_plus = (bands[0] * r[0] * (f0 + ratio * b)
              + r[0] * r[1] ** 2 * cross).mean()
    k_minus = (bands[1] * r[1] * (f0 - ratio * b)
               + r[1] * r[0] ** 2 * cross).mean()
    return delta, np.array([k_plus, k_minus])


def per_mu_find_mu(r, lam, spec):
    """`embedding.find_mu` bisecting on one `per_mu_qp_fill` per mu, with
    the production bracket and tolerance."""
    from scipy.optimize import brentq

    if spec.n_c == 1 and spec.filling == 0.5:
        return float(lam[0])
    gaps = {}

    def filling_gap(mu):
        if mu not in gaps:
            delta, _ = per_mu_qp_fill(r, lam, mu, spec)
            gaps[mu] = float(delta.mean()) - spec.filling
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


def partial_trace(psi, keep, n_qubits):
    """Reduced density matrix over ``keep`` (in the given order)."""
    tensor = np.asarray(psi).reshape((2,) * n_qubits)
    drop = [q for q in range(n_qubits) if q not in keep]
    perm = list(keep) + drop
    tensor = np.transpose(tensor, perm)
    tensor = tensor.reshape(2 ** len(keep), 2 ** len(drop))
    return tensor @ tensor.conj().T


PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def word_mat(word):
    full = np.eye(1, dtype=complex)
    for ch in word:
        full = np.kron(full, PAULI_1Q[ch])
    return full


def depolarize_rho(rho, qubit, p, n_qubits):
    """(1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z) on one qubit."""
    out = (1.0 - p) * rho
    for ch in "XYZ":
        op = word_mat("".join(ch if q == qubit else "I"
                              for q in range(n_qubits)))
        out = out + (p / 3.0) * (op @ rho @ op)
    return out


# Generators G with dU / d(angle) = -i G U, slot by slot, on the gate's own
# qubits: RX, RY, RZ are exp(-i t sigma / 2), RPQ is exp(i t P o Q), and
# FSIM is exp(-i theta (|01><10| + |10><01|)) exp(-i phi |11><11|).
def _generator(gate, slot):
    if gate.kind in ("RX", "RY", "RZ"):
        return PAULI_1Q[gate.kind[1]] / 2.0
    if gate.kind == "RPQ":
        return -np.kron(PAULI_1Q[gate.axes[0]], PAULI_1Q[gate.axes[1]])
    hop = np.zeros((4, 4), dtype=complex)
    if slot == 0:
        hop[1, 2] = hop[2, 1] = 1.0
    else:
        hop[3, 3] = 1.0
    return hop


def oracle_transfer(gate, bindings, block, noise, slot=None):
    """Pauli transfer matrix of the noisy gate on the block's qubits (in
    the listed order), entry by entry: tr(P_p E(P_q)) / 2^k over the
    block's k-qubit Pauli words, E(rho) = D(U rho U^dag) with D the gate's
    depolarizing channels (p1 for one qubit, p2 on each qubit of a pair).
    With `slot`, its derivative in that angle: D(dU rho U^dag + U rho
    dU^dag), dU = -i G U from the slot's generator."""
    k = len(block)
    local = tuple(block.index(q) for q in gate.qubits)
    u = gate_matrix(gate, bindings)
    du = None if slot is None else embed_matrix(
        k, local, -1j * _generator(gate, slot) @ u)
    u = embed_matrix(k, local, u)
    p = 0.0
    if noise is not None:
        p = noise.effective_p1 if len(local) == 1 else noise.effective_p2
    words = [word_mat("".join(w)) for w in itertools.product("IXYZ",
                                                              repeat=k)]
    out = np.zeros((len(words), len(words)))
    for col, q_word in enumerate(words):
        if du is None:
            image = u @ q_word @ u.conj().T
        else:
            image = du @ q_word @ u.conj().T + u @ q_word @ du.conj().T
        for q in local:
            image = depolarize_rho(image, q, p, k)
        for row, p_word in enumerate(words):
            out[row, col] = np.trace(p_word @ image).real / 2 ** k
    return out


def noisy_density(circuit, noise, bindings=None):
    """Density-matrix evolution with per-gate depolarizing channels."""
    dim = 2 ** circuit.n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    for g in circuit.gates:
        u = embed_gate(circuit.n_qubits, g, bindings)
        rho = u @ rho @ u.conj().T
        if noise is not None:
            p = noise.effective_p1 if len(g.qubits) == 1 else noise.effective_p2
            for q in g.qubits:
                rho = depolarize_rho(rho, q, p, circuit.n_qubits)
    return rho


def superoperator_density(circuit, noise, bindings=None):
    """Density matrix of a circuit from one dense 4^n x 4^n superoperator
    per gate, acting on the row-major vector of rho: U o U* for the gate,
    then (1-p) 1 + (p/3) sum_P P o P* for each touched qubit."""
    n = circuit.n_qubits
    dim = 2 ** n
    vec = np.zeros(dim * dim, dtype=complex)
    vec[0] = 1.0
    for g in circuit.gates:
        u = embed_gate(n, g, bindings)
        step = np.kron(u, u.conj())
        p = 0.0
        if noise is not None:
            p = noise.effective_p1 if len(g.qubits) == 1 else noise.effective_p2
        for q in g.qubits:
            channel = (1.0 - p) * np.eye(dim * dim, dtype=complex)
            for ch in "XYZ":
                op = word_mat("".join(ch if k == q else "I" for k in range(n)))
                channel = channel + (p / 3.0) * np.kron(op, op.conj())
            step = channel @ step
        vec = step @ vec
    return vec.reshape(dim, dim)


def zero_state(n_qubits, mixed=False):
    """|0...0> on `n_qubits`: one amplitude set to 1, or the outer product
    of |0><0|'s Pauli coefficients (1, 0, 0, 1) on each qubit."""
    if not mixed:
        tensor = np.zeros((2,) * n_qubits, dtype=complex)
        tensor[(0,) * n_qubits] = 1.0
        return simulator.QuantumState(n_qubits, "pure", tensor)
    tensor = functools.reduce(np.multiply.outer,
                              [np.array([1.0, 0.0, 0.0, 1.0])] * n_qubits,
                              np.ones(()))
    return simulator.QuantumState(n_qubits, "mixed", tensor)


def from_vector(vec):
    """The pure state of an amplitude vector of power-of-two length."""
    vec = np.asarray(vec, dtype=complex).ravel()
    n = vec.size.bit_length() - 1
    if vec.size < 1 or 1 << n != vec.size:
        raise ValueError("amplitude vector length is not a power of two")
    return simulator.QuantumState(n, "pure", vec.reshape((2,) * n))


def full_register_walk(circuit, bindings=None, noise=None, mixed=False):
    """The final tensor of `simulator._fuse`'s blocks applied one by one to
    the whole |0...0> register tensor, with no product-state start; a
    pure state's is `gather_scatter_walk`'s."""
    if not mixed:
        return gather_scatter_walk(circuit, bindings)
    _, fused, _ = simulator._fuse(circuit, bindings, True, noise)
    tensor = zero_state(circuit.n_qubits, True).tensor
    for block, _, prefixes in fused:
        tensor = simulator._apply_unitary(tensor, prefixes[-1], block.qubits)
    return tensor


def gather_scatter_walk(circuit, bindings=None, observable=None):
    """The pure final tensor from |0...0>, walked on its real planes
    [Re psi, Im psi]: per gate, its rows gathered through the index of its
    qubits in both planes, its real form [[Re U, -Im U], [Im U, Re U]]
    (from `simulator._fuse`) applied and the rows scattered back; a 0/1
    permutation gate (CNOT, X), which `_fuse` leaves out, reorders its
    rows instead.  With an observable, (final tensor, <O>, gradient) from
    the adjoint sweep over the same gathers and scatters by the transposed
    real forms (the first gate's skipped) and one stacked contraction per
    gate kind of the environments L X^T with the derivatives' real
    forms."""
    n, size = circuit.n_qubits, 2 ** circuit.n_qubits
    kinds, matrices, _ = simulator._fuse(circuit, bindings, False, None)
    blocks = circuit.compiled[False, None][0]
    real = {block.positions.start: s for block, s in zip(blocks, matrices)}
    grid = np.arange(size).reshape((2,) * n)
    idx, orders = [], {}
    for p, gate in enumerate(circuit.gates):
        rows = simulator._flatten(grid, gate.qubits)[0]
        idx.append(np.concatenate([rows, rows + size]))
        if p not in real:
            u = gate_matrix(gate, bindings)
            order = np.abs(u).argmax(axis=1)
            assert np.array_equal(u, np.eye(len(u))[order])
            orders[p] = np.concatenate([order, order + len(u)])

    def act(p, x, back=False):
        if p in real:
            return (real[p].T if back else real[p]).dot(x)
        return x[np.argsort(orders[p])] if back else x[orders[p]]

    flat, entering, leaving = np.eye(1, 2 * size).ravel(), {}, {}
    for p in range(len(circuit.gates)):
        entering[p] = flat[idx[p]]
        flat[idx[p]] = act(p, entering[p])
    tensor = flat.reshape(2, -1).T.copy().view(complex).reshape((2,) * n)
    if observable is None:
        return tensor
    energy, lam = simulator._observe(tensor, observable, False)
    lam = np.concatenate([lam.real.ravel(), lam.imag.ravel()])
    for p in range(len(circuit.gates) - 1, -1, -1):
        leaving[p] = lam[idx[p]]
        if p:
            lam[idx[p]] = act(p, leaving[p], back=True)
    grad = np.zeros(circuit.n_params + 1)
    for (kind, axes, positions, index, scale), a in kinds:
        m = np.array([leaving[p] for p in positions.tolist()]) @ np.array(
            [entering[p] for p in positions.tolist()]).transpose(0, 2, 1)
        du = [real_stack(kind, a, axes, slot) for slot in range(a.shape[1])]
        terms = (scale.T[:, :, None, None] * np.array(du) * m).reshape(
            *a.shape[::-1], -1).sum(-1)
        grad += 2.0 * np.bincount(index.T.ravel(), terms.ravel(),
                                  minlength=len(grad))
    return tensor, energy.real, grad[:-1]


def unfactored(circuit, mixed, noise=None):
    """A copy of `circuit` whose compiled plan has no factored steps and no
    half layout: its `run` and `adjoint_gradient` start from the whole
    |0...0> register and walk every block on it.  A pure plan is so
    already."""
    n = circuit.n_qubits
    copy = Circuit(n, circuit.gates)
    blocks, fixed, kinds, plan = simulator._compile(copy, mixed, noise)
    if mixed:
        plan = (), simulator._frame({q: (q,) for q in range(n)}, set(),
                                    n), None
    copy.compiled[mixed, noise] = blocks, fixed, kinds, plan
    return copy


def whole_register(circuit, noise=None):
    """A copy of `circuit` whose compiled density-matrix plan keeps its
    factored steps but has no half layout: its `run` and
    `adjoint_gradient` walk the blocks after the join on the whole
    (4,)*n register."""
    copy = Circuit(circuit.n_qubits, circuit.gates)
    blocks, fixed, kinds, (steps, frame, _) = simulator._compile(copy, True,
                                                                 noise)
    copy.compiled[True, noise] = blocks, fixed, kinds, (steps, frame, None)
    return copy


def simplex_by_runs(circuit, observable, bindings, moved, noise):
    """What `simulator.displaced_energies` gives, by one `run` per vertex
    of Nelder-Mead's starting simplex: <O> at `bindings`, then with each
    parameter of `circuit.parameter_names` alone moved to moved[k]."""
    names = circuit.parameter_names
    points = [bindings] + [{**bindings, name: value}
                           for name, value in zip(names, moved)]
    return [expectation(simulator.run(circuit, point, noise=noise),
                        observable) for point in points]

def sym_from_matrix(m, tol=1e-8):
    """Channel values of a 1x1 matrix or of a 2x2 matrix of [[a, b], [b, a]]
    form within `tol`; any other matrix raises ValueError."""
    m = np.asarray(m, dtype=float)
    if m.shape == (1, 1):
        return m[0].copy()
    if m.shape != (2, 2):
        raise ValueError(f"expected 1x1 or 2x2 matrix, got {m.shape}")
    if abs(m[0, 0] - m[1, 1]) > tol or abs(m[0, 1] - m[1, 0]) > tol:
        raise ValueError(f"matrix deviates from [[a,b],[b,a]] form by "
                         f"more than {tol}")
    a = 0.5 * (m[0, 0] + m[1, 1])
    b = 0.5 * (m[0, 1] + m[1, 0])
    return np.array([a + b, a - b])


def assert_channel_arrays(n_c, *arrays):
    """Each array holds n_c float channel values, and no two share
    memory."""
    for i, a in enumerate(arrays):
        assert isinstance(a, np.ndarray) and a.dtype == float
        assert a.shape == (n_c,)
        for b in arrays[:i]:
            assert not np.shares_memory(a, b)


def dispersion(spec, k):
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


def build_product_ry(n_qubits):
    """Entanglement-free test ansatz: one RY per qubit acting on |0...0>."""
    gates = tuple(Gate("RY", (q,), (ParamRef(f"t{q}"),))
                  for q in range(n_qubits))
    return Circuit(n_qubits, gates)


def random_bindings(circuit, rng):
    """Uniform angles in [-pi, pi) for the parameters of `circuit`, drawn
    as one vector in `parameter_names` order."""
    names = circuit.parameter_names
    return dict(zip(names, rng.uniform(-np.pi, np.pi, len(names))))


def finite_difference_gradient(fn, x, step=1e-6):
    """Central-difference gradient of a scalar function of an angle
    vector: two evaluations per component."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        shift = np.zeros_like(x)
        shift[i] = step
        grad[i] = (fn(x + shift) - fn(x - shift)) / (2.0 * step)
    return grad


def square_band(t=-0.25, mesh=40):
    """Nearest-neighbour dispersion over the mesh x mesh k-grid."""
    k = 2.0 * np.pi * np.arange(mesh) / mesh
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return 2.0 * t * (np.cos(kx) + np.cos(ky)).ravel()


def brinkman_rice_uc(t=-0.25, mesh=40, beta=200.0):
    """Brinkman-Rice critical interaction 16 |mean of eps f(eps)|: sixteen
    times the free kinetic energy per spin on the grid at this beta."""
    eps = square_band(t, mesh)
    occupation = 0.5 * (1.0 - np.tanh(0.5 * beta * eps))
    return 16.0 * abs(float((eps * occupation).mean()))


def brinkman_rice_z(u, t=-0.25, mesh=40, beta=200.0):
    """Gutzwiller quasiparticle weight 1 - (U/U_c)^2 of the half-filled
    single site, 0 from U_c on (Brinkman & Rice, PRB 2, 4302 (1970))."""
    return max(0.0, 1.0 - (u / brinkman_rice_uc(t, mesh, beta)) ** 2)


def single_site_z(u, t=-0.25, mesh=40, beta=200.0):
    """Quasiparticle weight of the half-filled single-site cluster.

    The half-filled fixed point reduces to one scalar root equation: the
    four-state cluster at bath level zero and impurity level -U/2 has
    ground energy -U/4 - sqrt(U^2/16 + 4 D^2) and impurity-bath mixing
    sqrt(2) b / (2 + b^2) with b = E0 / (sqrt(2) D), which must equal R/2.
    """
    from scipy.optimize import brentq
    from scipy.special import expit

    eps = square_band(t, mesh)

    def mixing_gap(r):
        d = 2.0 * float((eps * r * expit(-beta * r * r * eps)).mean())
        e0 = -u / 4.0 - np.sqrt(u * u / 16.0 + 4.0 * d * d)
        b = e0 / (np.sqrt(2.0) * d)
        return np.sqrt(2.0) * b / (2.0 + b * b) - r / 2.0

    # The localized solution r = 0 always solves the equation; walk down
    # from r = 1 to bracket the metallic root only.
    grid = np.linspace(1.0, 0.01, 200)
    vals = [mixing_gap(r) for r in grid]
    for i in range(len(grid) - 1):
        if vals[i] <= 0.0 < vals[i + 1]:
            r_star = brentq(mixing_gap, grid[i + 1], grid[i], xtol=1e-13)
            return r_star ** 2
    return 0.0
