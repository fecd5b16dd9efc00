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

__version__ = "0.1.0"


class SolverFailure(RuntimeError):
    """A solver stopped without converging; the CLI exits with code 3."""
