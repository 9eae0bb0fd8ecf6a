"""Coupled-mode dynamics: H/hbar = Da n_a + ((delta+Da)/2) n_b + xi (a^dag b^2 + a b^dag^2).

The rotating frame removes omega_a - Da from mode a and half of it from mode b,
so the coupling term is static.  With the default frame offset Da = 0 the zero
of energy sits at the bare |0_a, 0_b> state.

The coupling conserves N = 2 n_a + n_b, so the Hamiltonian is block diagonal in
manifolds of fixed N.  Each block is an unreduced symmetric tridiagonal (Jacobi)
matrix when xi > 0, so its eigenvalues are simple and never cross as xi grows
from 0: the k-th lowest dressed energy belongs to the k-th lowest bare level.

A k-th sideband drive sigma+ a^dag^k conserves M = N - 2k sigma_up: block M
joins manifold M (qubit down) to manifold M + 2k (qubit up).

Every evolution in the package runs on these blocks: ``manifold_blocks``
splits a state into its N-diagonal blocks and ``block_populations`` evolves
one block from its eigendecomposition.  ``exchange_trace`` and
``spectra.driven_scan`` are exact, so a cutoff only sizes the initial state.
``build_hamiltonian`` keeps the dense Kronecker form as a reference.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .fock import FockCutoff, FockSpaceError, FockState, annihilation_op, basis_index, number_op
from .trap import TWO_PI, TrapConfig, detune_to, mode_frequencies


class DynamicsError(ValueError):
    pass


class AssignmentError(DynamicsError):
    """Dressed-to-bare labeling failed: two bare levels of a coupled manifold
    coincide (delta = 0), so no dressed branch connects to a single bare state."""


@dataclass(frozen=True)
class CoupledModeParams:
    delta: float  # rad/s
    xi: float     # rad/s
    cutoff: FockCutoff

    def __post_init__(self):
        if self.xi < 0:
            raise DynamicsError("xi must be >= 0")


def build_hamiltonian(p: CoupledModeParams, frame_offset: float = 0.0) -> np.ndarray:
    """Rotating-frame Hamiltonian (angular-frequency units, i.e. H/hbar).

    ``frame_offset`` is the residual axial detuning Da; the radial mode carries
    (delta + Da)/2 so that the trilinear coupling stays time independent.
    """
    cutoff = p.cutoff
    a = annihilation_op(cutoff, "a")
    b = annihilation_op(cutoff, "b")
    n_a = number_op(cutoff, "a")
    n_b = number_op(cutoff, "b")
    coupling = a.conj().T @ b @ b
    H = frame_offset * n_a + 0.5 * (p.delta + frame_offset) * n_b + p.xi * (coupling + coupling.conj().T)
    return H


def conserved_charge(cutoff: FockCutoff) -> np.ndarray:
    """The conserved quantity N = 2 a^dag a + b^dag b (diagonal)."""
    return 2 * number_op(cutoff, "a") + number_op(cutoff, "b")


def manifold_states(N: int) -> list[tuple[int, int]]:
    """Bare states (n_a, n_b) with 2 n_a + n_b = N, ordered by increasing n_a."""
    return [(n_a, N - 2 * n_a) for n_a in range(N // 2 + 1)]


def manifold_block(delta: float, xi: float, N: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Exact Hamiltonian block of the manifold N (frame offset 0), plus its basis labels.

    Manifolds are finite, so no truncation enters here.  Diagonal entries are
    (delta/2) n_b; the coupling links (n_a, n_b) <-> (n_a+1, n_b-2) with matrix
    element xi sqrt((n_a+1) n_b (n_b-1)).
    """
    states = manifold_states(N)
    m = len(states)
    H = np.zeros((m, m))
    for i, (n_a, n_b) in enumerate(states):
        H[i, i] = 0.5 * delta * n_b
        if n_b >= 2:
            j = i + 1  # (n_a + 1, n_b - 2)
            if j < m:
                H[i, j] = H[j, i] = xi * np.sqrt((n_a + 1) * n_b * (n_b - 1))
    return H, states


def manifold_blocks(rho: np.ndarray, cutoff: FockCutoff) -> Iterator[tuple[int, np.ndarray]]:
    """The nonzero N-diagonal blocks (N, rho_N) of a two-mode density matrix on
    ``cutoff``'s motional space, indexed by n_a as in ``manifold_block``.

    Entries of a manifold that the cutoff leaves out are zero; the couplings
    and the drive conserve N (or M), so the blocks between different N never
    enter a population.
    """
    dim = cutoff.dim_a * cutoff.dim_b
    if rho.shape != (dim, dim):
        raise FockSpaceError(f"state dim {rho.shape[0]} != motional dim {dim}")
    n_a, n_b = np.divmod(np.arange(dim), cutoff.dim_b)
    charge = 2 * n_a + n_b
    for N in range(int(charge.max()) + 1):
        idx = np.flatnonzero(charge == N)
        rho_N = np.zeros((N // 2 + 1,) * 2, dtype=complex)
        rho_N[np.ix_(n_a[idx], n_a[idx])] = rho[np.ix_(idx, idx)]
        if rho_N.any():
            yield N, rho_N


def block_populations(vals: np.ndarray, vecs: np.ndarray, rho: np.ndarray, t) -> np.ndarray:
    """diag(U rho U^dag) with U = exp(-i H t), from ``eigh`` (vals, vecs) of a
    real symmetric block H, for a state rho on its first len(rho) basis states.

    Leading axes of (vals, vecs) and of t broadcast against each other.
    """
    # Basis states past rho's last nonzero row add nothing: only U's first s
    # columns enter (s = 1 for a radial state embedded in the axial vacuum).
    s = np.flatnonzero(rho.any(axis=0)).max(initial=-1) + 1
    phases = np.exp(-1j * vals * np.asarray(t)[..., None])
    U = (vecs * phases[..., None, :]) @ vecs[..., :s, :].swapaxes(-1, -2)
    return np.sum((U @ rho[:s, :s]) * U.conj(), axis=-1).real


def _manifold_dressed_energies(delta: float, xi: float, N: int) -> dict[tuple[int, int], float]:
    """Dressed eigenvalues of manifold N labeled by the bare state each branch is
    adiabatically connected to: ascending eigenvalues map onto the bare states
    in ascending order of their bare energy (delta/2) n_b."""
    H, states = manifold_block(delta, xi, N)
    bare = np.diag(H)
    order = np.argsort(bare, kind="stable")
    if xi != 0 and np.any(np.diff(bare[order]) == 0):
        raise AssignmentError(
            f"cannot label dressed states of manifold N={N}: bare levels coincide at "
            f"delta/2pi = {delta / TWO_PI:.1f} Hz, which is outside the dispersive regime"
        )
    vals = np.linalg.eigh(H)[0]
    return {states[i]: float(v) for i, v in zip(order, vals)}


def dressed_energy(delta: float, xi: float, n_a: int, n_b: int) -> float:
    """Eigenvalue of the dressed state adiabatically connected to bare |n_a, n_b>,
    within its N = 2 n_a + n_b manifold."""
    return _manifold_dressed_energies(delta, xi, 2 * n_a + n_b)[(n_a, n_b)]


@dataclass
class ShiftTable:
    """Axial sideband shifts vs radial phonon number, relative to the n_b = 0 peak."""

    n_b: np.ndarray
    shift_exact: np.ndarray         # rad/s
    shift_perturbative: np.ndarray  # rad/s, -4 xi^2 n_b / delta


def dispersive_shift_table(p: CoupledModeParams, n_b_max_report: int) -> ShiftTable:
    """Sideband shift vs n_b from exact manifold diagonalization, plus the
    second-order law -4 xi^2 n_b / delta (both referenced to n_b = 0)."""
    if p.delta == 0:
        raise DynamicsError("dispersive shifts require delta != 0")
    energy = {}
    for N in range(max(n_b_max_report, 0) + 3):  # |1_a, n_b> lies in manifold n_b + 2
        energy.update(_manifold_dressed_energies(p.delta, p.xi, N))
    ref = energy[1, 0] - energy[0, 0]
    n_vals = np.arange(n_b_max_report + 1)
    exact = np.array([energy[1, n] - energy[0, n] - ref for n in n_vals])
    pert = -4.0 * p.xi**2 * n_vals / p.delta
    return ShiftTable(n_b=n_vals, shift_exact=exact, shift_perturbative=pert)


@dataclass
class CrossingMap:
    """Eigenenergy branches vs two-mode detuning, with axial-excitation weights."""

    delta_grid: np.ndarray       # rad/s
    branch_energies: np.ndarray  # (grid, branch), rad/s, ascending per row
    branch_weights: np.ndarray   # (grid, branch), summed |<n_a >= 1|eigvec>|^2


def crossing_map(cfg: TrapConfig, delta_grid: np.ndarray, manifold_N_max: int) -> CrossingMap:
    """Eigenenergies of all manifolds N <= manifold_N_max across a detuning sweep.

    xi is recomputed at each grid point from the detuned trap config (it varies
    weakly through omega_b).  Rows of the result are independent; computing them
    in any order gives identical output.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    n_branches = sum(N // 2 + 1 for N in range(manifold_N_max + 1))
    energies = np.empty((delta_grid.size, n_branches))
    weights = np.empty_like(energies)
    for i, d in enumerate(delta_grid):
        modes = mode_frequencies(detune_to(cfg, d))
        evals = []
        wts = []
        for N in range(manifold_N_max + 1):
            H, states = manifold_block(d, modes.xi, N)
            vals, vecs = np.linalg.eigh(H)
            axial = np.array([s[0] >= 1 for s in states], dtype=float)
            evals.extend(vals)
            wts.extend(axial @ np.abs(vecs) ** 2)
        order = np.argsort(evals, kind="stable")
        energies[i] = np.asarray(evals)[order]
        weights[i] = np.asarray(wts)[order]
    return CrossingMap(delta_grid=delta_grid, branch_energies=energies, branch_weights=weights)


def exchange_trace(
    p: CoupledModeParams,
    initial: FockState,
    t_grid: np.ndarray,
    track: list[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Populations of selected bare states along a time grid (default |1,0>, |0,2>).

    Exact on the manifold blocks: p.cutoff only sizes ``initial`` and bounds
    the states that can be tracked.
    """
    if track is None:
        track = [(1, 0), (0, 2)]
    initial.validate()
    for s in track:
        basis_index(*s, p.cutoff)  # a FockSpaceError names a state outside the cutoff
    t_grid = np.asarray(t_grid, dtype=float)
    out = {s: np.zeros(t_grid.size) for s in track}
    for N, rho_N in manifold_blocks(initial.density(), p.cutoff):
        tracked = [s for s in track if 2 * s[0] + s[1] == N]
        if tracked:
            vals, vecs = np.linalg.eigh(manifold_block(p.delta, p.xi, N)[0])
            pops = block_populations(vals, vecs, rho_N, t_grid)
            for s in tracked:
                out[s] = pops[:, s[0]]
    return out
