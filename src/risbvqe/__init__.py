"""Slave-boson embedding of the 2D Hubbard model with variational quantum
impurity solvers.

The package is organized bottom-up: Pauli/fermion algebra (`pauli`), gate and
ansatz construction (`circuits`), exact state-vector and density-matrix
simulation with depolarizing noise (`simulator`), orbital Hamiltonians
(`hamiltonians`), exact diagonalization and the one-particle density-matrix
kernel (`ed`), observable estimation and analytic one-parameter tuning
(`estimator`), the slave-boson self-consistency
(`embedding`), variational minimization and impurity-solver adapters (`vqe`),
the natural-orbitalization loop (`noization`), and a batch CLI (`cli`) with
deterministic artifact writers (`runio`).
"""

import numpy as np

__version__ = "0.1.0"

MATRIX_TOL = 1e-10  # times max(1, max |entry|)


class SolverFailure(RuntimeError):
    """A solver stopped without converging; the CLI exits with code 3."""


def check_adjoint(a: np.ndarray, b: np.ndarray, message: str) -> None:
    """Raise ValueError(message) unless max|A - B^H| <= MATRIX_TOL *
    max(1, max|A|), reading 32 rows at a time, so no full-size temporary
    is built.  A Hermitian check passes M twice; a unitary check passes
    V^H V and the identity, its own adjoint.  A NaN anywhere fails."""
    skew = size = 0.0
    for start in range(0, len(a), 32):
        rows = slice(start, start + 32)
        skew = np.abs(a[rows] - b[:, rows].conj().T).max(initial=skew)
        size = np.abs(a[rows]).max(initial=size)
    if not skew <= MATRIX_TOL * max(1.0, size):
        raise ValueError(message)
