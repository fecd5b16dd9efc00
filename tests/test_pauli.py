"""Pauli-word and Jordan-Wigner tests, checked against dense matrix
oracles built independently with numpy kron products and against the
string-product Jordan-Wigner map of the test oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risbvqe.pauli import (
    MODE_CAP,
    PRUNE_TOL,
    FermionOperator,
    PauliSum,
    count_terms,
    jordan_wigner,
    ladder_table,
)

from oracles import (expectation_matrix, fermion_creation, fermion_number,
                     oracle_jordan_wigner, pauli_identity, pauli_product,
                     pauli_sum_product, pauli_zero)

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def oracle_matrix(word):
    m = np.eye(1, dtype=complex)
    for ch in word:
        m = np.kron(m, MATS[ch])
    return m


def oracle_sum_matrix(p):
    m = np.zeros((2 ** p.n_qubits,) * 2, dtype=complex)
    for word, coeff in p.items():
        m += coeff * oracle_matrix(word)
    return m


def random_word(rng, n):
    return "".join(rng.choice(list("IXYZ")) for _ in range(n))


finite = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def pauli_sums(draw, max_qubits=6):
    n = draw(st.integers(1, max_qubits))
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n),
                          max_size=12))
    return PauliSum({w: complex(draw(finite), draw(finite)) for w in words},
                    n)


def pauli_to_text(p):
    """Lines ``coeff_re coeff_im WORD``, word-sorted."""
    return "\n".join(f"{c.real!r} {c.imag!r} {word}"
                     for word, c in sorted(p.items()))


def pauli_from_text(text, n_qubits=None):
    terms = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        re_s, im_s, word = line.split()
        terms[word] = terms.get(word, 0.0) + complex(float(re_s), float(im_s))
    return PauliSum(terms, n_qubits)


class TestPauliProduct:
    def test_single_qubit_table_against_matrices(self):
        for a in "IXYZ":
            for b in "IXYZ":
                phase, c = pauli_product(a, b)
                assert np.allclose(MATS[a] @ MATS[b], phase * MATS[c])

    def test_known_products(self):
        assert pauli_product("X", "Y") == (1j, "Z")
        assert pauli_product("Z", "Z") == (1.0, "I")

    def test_two_qubit_product_frozen(self):
        # (X o Z)(Y o I) = i (Z o Z), frozen from the 4x4 multiplication.
        phase, word = pauli_product("XZ", "YI")
        assert (phase, word) == (1j, "ZZ")
        assert np.allclose(oracle_matrix("XZ") @ oracle_matrix("YI"),
                           phase * oracle_matrix(word))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pauli_product("XX", "X")

    def test_associativity_with_phases(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = (random_word(rng, 3) for _ in range(3))
            p1, ab = pauli_product(a, b)
            p2, ab_c = pauli_product(ab, c)
            q1, bc = pauli_product(b, c)
            q2, a_bc = pauli_product(a, bc)
            assert ab_c == a_bc
            assert p1 * p2 == q1 * q2
            assert np.allclose(
                oracle_matrix(a) @ oracle_matrix(b) @ oracle_matrix(c),
                p1 * p2 * oracle_matrix(ab_c))


class TestPauliSum:
    def test_pruning(self):
        p = PauliSum({"X": 1e-13, "Z": 1.0})
        assert p.terms == {"Z": 1.0}

    @pytest.mark.parametrize("terms, n_qubits, message", [
        ({"XA": 1.0}, None, "invalid Pauli word 'XA'"),
        ({"xz": 1.0}, 2, "invalid Pauli word 'xz'"),
        ({"XZ": 1.0, "Y": 1.0}, None, "word 'Y' has length 1, expected 2"),
        ({}, None, "n_qubits required")])
    def test_bad_words(self, terms, n_qubits, message):
        with pytest.raises(ValueError, match=message):
            PauliSum(terms, n_qubits)

    def test_arithmetic_against_matrices(self):
        # the oracles' product of sums, which the string-product
        # Jordan-Wigner map is built from
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = PauliSum({random_word(rng, 2): complex(*rng.normal(size=2))
                          for _ in range(3)}, 2)
            b = PauliSum({random_word(rng, 2): complex(*rng.normal(size=2))
                          for _ in range(3)}, 2)
            assert np.allclose(oracle_sum_matrix(pauli_sum_product(a, b)),
                               oracle_sum_matrix(a) @ oracle_sum_matrix(b))

    @settings(max_examples=60, deadline=None)
    @given(pauli_sums())
    def test_expectation_matrix_matches_kronecker_sum(self, p):
        got = expectation_matrix(p)
        assert got.shape == (2 ** p.n_qubits,) * 2
        np.testing.assert_allclose(got, oracle_sum_matrix(p), rtol=0,
                                   atol=1e-12)

    def test_expectation_matrix_examples(self):
        assert np.allclose(expectation_matrix(PauliSum({"Z": 1.0})),
                           np.diag([1.0, -1.0]))
        assert np.allclose(
            expectation_matrix(PauliSum({"I": 0.5, "Z": -0.5})),
            np.diag([0.0, 1.0]))

    def test_expectation_matrix_cap(self):
        with pytest.raises(ValueError):
            expectation_matrix(pauli_identity(MODE_CAP + 1))

    def test_count_terms_excludes_identity_by_default(self):
        p = PauliSum({"II": 0.7, "XI": 1.0, "ZZ": -0.2})
        assert count_terms(p) == 2
        assert len(p) == 3
        assert count_terms(PauliSum({"XI": 1.0, "ZZ": -0.2})) == 2
        assert count_terms(pauli_zero(3)) == 0

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(3)
        p = PauliSum({random_word(rng, 4): complex(*rng.normal(size=2))
                      for _ in range(6)}, 4)
        q = pauli_from_text(pauli_to_text(p))
        assert q == p

    def test_serialization_format(self):
        assert pauli_to_text(PauliSum({"XZIY": 0.25})) == "0.25 0.0 XZIY"


class TestJordanWigner:
    def test_creation_single_mode(self):
        p = jordan_wigner(fermion_creation(0), 1)
        assert p.terms == {"X": 0.5, "Y": -0.5j}
        assert np.allclose(oracle_sum_matrix(p),
                           np.array([[0, 0], [1, 0]], dtype=complex))

    def test_number_operator(self):
        p = jordan_wigner(fermion_number(0), 1)
        assert p.terms == {"I": 0.5, "Z": -0.5}

    def test_cross_mode_anticommutator_is_zero_symbolically(self):
        c0, c1d = (0, False), (1, True)
        acomm = jordan_wigner(FermionOperator([(1.0, (c0, c1d)),
                                               (1.0, (c1d, c0))]), 2)
        assert len(acomm) == 0

    def test_out_of_range_mode_raises(self):
        with pytest.raises(ValueError):
            jordan_wigner(fermion_creation(3), 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical_anticommutation(self, n):
        eye = np.eye(2 ** n)
        ops = [oracle_sum_matrix(jordan_wigner(FermionOperator.annihilation(j), n))
               for j in range(n)]
        for i in range(n):
            for j in range(n):
                ci, cj = ops[i], ops[j]
                acomm = ci @ cj.conj().T + cj.conj().T @ ci
                expected = eye if i == j else 0.0 * eye
                assert np.max(np.abs(acomm - expected)) < 1e-10
                acomm2 = ci @ cj + cj @ ci
                assert np.max(np.abs(acomm2)) < 1e-10

    def test_adjoint_commutes_with_encoding(self):
        # the image of the adjoint string list is the conjugate word list
        rng = np.random.default_rng(5)
        terms, adjoint = [], []
        for _ in range(4):
            p, q = map(int, rng.integers(0, 4, size=2))
            coeff = complex(*rng.normal(size=2))
            terms.append((coeff, ((p, True), (q, False))))
            adjoint.append((coeff.conjugate(), ((q, True), (p, False))))
        image = jordan_wigner(FermionOperator(terms), 4)
        assert jordan_wigner(FermionOperator(adjoint), 4) == PauliSum(
            {w: c.conjugate() for w, c in image.items()}, 4)

    def test_quadratic_hermiticity(self):
        rng = np.random.default_rng(9)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        op = FermionOperator([(h[p, q], ((p, True), (q, False)))
                              for p in range(4) for q in range(4)])
        image = jordan_wigner(op, 4)
        assert all(abs(c.imag) <= 1e-10 for _, c in image.items())
        m = oracle_sum_matrix(image)
        assert np.max(np.abs(m - m.conj().T)) < 1e-10

    def test_prune_tolerance_is_tight(self):
        # The published term counts assume this exact knob.
        assert PRUNE_TOL == 1e-12


# Coefficients from O(1) down to a few PRUNE_TOL: a term's words carry
# c / 2^(touched modes), so small ones fall on either side of the cut.
# Parts below 1e-200 are drawn as 0: in the subnormal range the string
# route's repeated halving rounds differently from one scaling by 2^-d
# (see test_subnormal_parts_round_once).
parts = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) > 1e-200 else 0.0)
coefficients = st.builds(
    lambda re, im, scale: complex(re, im) * scale, parts, parts,
    st.sampled_from((10.0, 1.0, 1e-3, 64 * PRUNE_TOL, 16 * PRUNE_TOL,
                     4 * PRUNE_TOL, 2 * PRUNE_TOL, PRUNE_TOL)))


@st.composite
def fermion_operators(draw):
    """(operator, n_modes): up to 6 modes, terms drawn from a small pool of
    ladder strings (empty, repeated modes, up to 4 operators) so that equal
    strings recur with other coefficients, opposite ones included."""
    n = draw(st.integers(1, 6))
    ladder = st.tuples(st.integers(0, n - 1), st.booleans())
    pool = draw(st.lists(st.lists(ladder, max_size=4).map(tuple),
                         min_size=1, max_size=4))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        coeff, ops = draw(coefficients), draw(st.sampled_from(pool))
        terms.append((coeff, ops))
        if draw(st.booleans()):
            terms.append((-coeff, ops))
    return FermionOperator(terms), n


class TestLadderKernel:
    @settings(max_examples=300, deadline=None)
    @given(fermion_operators())
    def test_jordan_wigner_matches_string_oracle(self, case):
        op, n = case
        got, want = jordan_wigner(op, n), oracle_jordan_wigner(op, n)
        assert got == want
        # Same word order too, so dense sums accumulate identically.
        assert list(got.items()) == list(want.items())

    def test_subnormal_parts_round_once(self):
        # c_0 c_1 c+_1 spreads c over four words of weight c / 4.  The
        # kernel scales once, so a subnormal part is c.imag / 4 correctly
        # rounded; the oracle's products of halves may round it twice.
        coeff = complex(1e-3, 1.1125369292535e-311)
        op = FermionOperator([(coeff, ((0, False), (1, False), (1, True)))])
        got = jordan_wigner(op, 2)
        want = oracle_jordan_wigner(op, 2)
        assert list(got.terms) == list(want.terms)
        for word, value in got.items():
            assert {abs(value.real), abs(value.imag)} == \
                {coeff.real / 4, coeff.imag / 4}
            assert abs(value - want.terms[word]) <= 2 * 5e-324

    def test_cap_raises_instead_of_allocating(self):
        op = fermion_creation(0)
        with pytest.raises(ValueError, match="dense cap"):
            jordan_wigner(op, MODE_CAP + 1)
        with pytest.raises(ValueError, match="dense cap"):
            ladder_table(((0, True),), MODE_CAP + 1)
        assert len(jordan_wigner(op, MODE_CAP)) == 2

    def test_table_entries_example(self):
        # c+_2 c_0 on three modes: c_0 sees no modes before it, c+_2 sees
        # mode 1, which is occupied only in the second column.
        row, col, sign = ladder_table(((2, True), (0, False)), 3)
        assert (row.tolist(), col.tolist(), sign.tolist()) == \
            ([0b001, 0b011], [0b100, 0b110], [1, -1])
