"""Truncated Fock space of two motional modes and an optional qubit: cutoffs,
basis indexing, states, and the dense ladder operators.

Basis ordering is fixed: qubit slowest (down=0, up=1), then the axial mode a,
then the radial mode b fastest.  The package evolves states on the exact
conserved-charge blocks of ``dynamics``; the dense operators here only build
``dynamics.build_hamiltonian`` and ``dynamics.conserved_charge``, the dense
reference form of the coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_RTOL = 1e-12


class FockSpaceError(ValueError):
    pass


@dataclass(frozen=True)
class FockCutoff:
    """Truncation of the two-mode (optionally qubit-extended) Hilbert space.

    Mode a keeps levels 0..n_a_max, mode b keeps 0..n_b_max.  The coupling
    moves quanta in pairs on mode b, hence n_b_max >= 2.
    """

    n_a_max: int
    n_b_max: int
    with_qubit: bool = False

    def __post_init__(self):
        if self.n_a_max < 1:
            raise FockSpaceError(f"n_a_max must be >= 1, got {self.n_a_max}")
        if self.n_b_max < 2:
            raise FockSpaceError(f"n_b_max must be >= 2, got {self.n_b_max}")

    @property
    def dim_a(self) -> int:
        return self.n_a_max + 1

    @property
    def dim_b(self) -> int:
        return self.n_b_max + 1

    @property
    def dim(self) -> int:
        return (2 if self.with_qubit else 1) * self.dim_a * self.dim_b


def basis_index(n_a: int, n_b: int, cutoff: FockCutoff) -> int:
    """Row-major linear index of |n_a, n_b> (b fastest); with a qubit factor,
    the index of the qubit-down state, since the qubit is slowest."""
    if not 0 <= n_a <= cutoff.n_a_max:
        raise FockSpaceError(f"axial quantum number n_a={n_a} outside [0, {cutoff.n_a_max}]")
    if not 0 <= n_b <= cutoff.n_b_max:
        raise FockSpaceError(f"radial quantum number n_b={n_b} outside [0, {cutoff.n_b_max}]")
    return n_a * cutoff.dim_b + n_b


def _ladder(dim: int) -> np.ndarray:
    """Single-mode annihilation operator, <n-1|op|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def annihilation_op(cutoff: FockCutoff, mode: str) -> np.ndarray:
    """Annihilation operator for mode 'a' or 'b', identity on the other factors."""
    if mode == "a":
        op = np.kron(_ladder(cutoff.dim_a), np.eye(cutoff.dim_b))
    elif mode == "b":
        op = np.kron(np.eye(cutoff.dim_a), _ladder(cutoff.dim_b))
    else:
        raise FockSpaceError(f"mode must be 'a' or 'b', got {mode!r}")
    if cutoff.with_qubit:
        op = np.kron(np.eye(2), op)
    return op


def number_op(cutoff: FockCutoff, mode: str) -> np.ndarray:
    a = annihilation_op(cutoff, mode)
    return a.conj().T @ a


def basis_vector(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


@dataclass
class FockState:
    """Pure (vector) or mixed (density matrix) state on a truncated Fock space."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim not in (1, 2):
            raise FockSpaceError("state data must be a vector or a square matrix")
        if self.data.ndim == 2 and self.data.shape[0] != self.data.shape[1]:
            raise FockSpaceError("density matrix must be square")

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def validate(self, atol: float = 1e-10) -> None:
        if self.is_pure:
            nrm = np.linalg.norm(self.data)
            if abs(nrm - 1.0) > atol:
                raise FockSpaceError(f"pure state norm {nrm} deviates from 1 by more than {atol}")
        else:
            assert_hermitian(self.data)
            tr = np.trace(self.data).real
            if abs(tr - 1.0) > atol:
                raise FockSpaceError(f"density matrix trace {tr} deviates from 1 by more than {atol}")
            evals = np.linalg.eigvalsh(self.data)
            if evals.min() < -atol:
                raise FockSpaceError(f"density matrix has negative eigenvalue {evals.min()}")

    def density(self) -> np.ndarray:
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def populations(self) -> np.ndarray:
        """Diagonal of the density matrix in the computational (Fock) basis."""
        if self.is_pure:
            return np.abs(self.data) ** 2
        return np.real(np.diag(self.data))


def hermiticity_defect(M: np.ndarray) -> float:
    return float(np.max(np.abs(M - M.conj().T)))


def assert_hermitian(M: np.ndarray, rtol: float = HERM_RTOL) -> None:
    scale = float(np.max(np.abs(M)))
    defect = hermiticity_defect(M)
    if scale > 0 and defect > rtol * scale:
        raise FockSpaceError(
            f"matrix is not Hermitian: max|M - M^dag| = {defect:.3e} "
            f"(threshold {rtol * scale:.3e})"
        )
