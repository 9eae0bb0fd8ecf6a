"""Axial blue-sideband spectra: effective multi-peak model, full driven dynamics,
and shot-noise sampling.

Detuning axes are referenced to the n_b = 0 axial sideband peak (the dressed
one, matching how measured scans are referenced to the n_b = 0 line), so the
effective model and the driven simulation share one frequency axis.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CoupledModeParams,
    block_populations,
    dispersive_shift_table,
    dressed_energy,
    manifold_block,
    manifold_blocks,
)
from .fock import FockState
from .states import PhononDistribution
from .trap import TWO_PI

SPECTRUM_COLUMNS = ["detuning_hz", "p_up", "shots"]
FWHM_PER_RABI = 1.5973707105694022  # lineshape FWHM in units of the Rabi frequency

class SpectroscopyError(ValueError):
    pass


@dataclass(frozen=True)
class DriveParams:
    """Sideband drive: t_pi is the pi time on the bare first-order axial blue
    sideband; order selects first or second sideband."""

    t_pi: float
    order: int = 1

    def __post_init__(self):
        if self.t_pi <= 0:
            raise SpectroscopyError("t_pi must be > 0")
        if self.order not in (1, 2):
            raise SpectroscopyError("sideband order must be 1 or 2")

    @property
    def rabi(self) -> float:
        return np.pi / self.t_pi


@dataclass
class Spectrum:
    """Sampled excitation probability vs drive detuning (rad/s)."""

    detuning: np.ndarray
    p_up: np.ndarray
    shots_per_point: int | None = None

    def __post_init__(self):
        self.detuning = np.asarray(self.detuning, dtype=float)
        self.p_up = np.asarray(self.p_up, dtype=float)
        if np.any(np.diff(self.detuning) <= 0):
            raise SpectroscopyError("detuning grid must be strictly increasing")
        if np.any((self.p_up < -1e-12) | (self.p_up > 1 + 1e-12)):
            raise SpectroscopyError("p_up values must lie in [0, 1]")

    def rows(self) -> list[list]:
        """Table rows under SPECTRUM_COLUMNS, as written to CSV and JSON artifacts."""
        shots = "" if self.shots_per_point is None else self.shots_per_point
        return [[f"{d / TWO_PI:.12g}", f"{p:.12g}", shots] for d, p in zip(self.detuning, self.p_up)]

    @classmethod
    def read_csv(cls, path: str) -> "Spectrum":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != SPECTRUM_COLUMNS:
            raise SpectroscopyError(f"{path}: expected header detuning_hz,p_up,shots")
        det, pup, shots = [], [], set()
        for row in rows[1:]:
            det.append(TWO_PI * float(row[0]))
            pup.append(float(row[1]))
            shots.add(row[2])
        shots.discard("")
        n_shots = int(next(iter(shots))) if len(shots) == 1 else None
        return cls(np.array(det), np.array(pup), shots_per_point=n_shots)


def lineshape(delta_n: np.ndarray | float, drive: DriveParams) -> np.ndarray | float:
    """Pi-pulse excitation profile f(D) = [(W/Wn) sin(pi Wn / 2W)]^2, Wn = sqrt(W^2 + D^2).

    Equals 1 on resonance; even in D; first zero at D = sqrt(3) W.
    """
    omega = drive.rabi
    omega_n = np.hypot(omega, delta_n)
    return (omega / omega_n * np.sin(np.pi * omega_n / (2 * omega))) ** 2


def lineshape_fwhm(drive: DriveParams) -> float:
    """Full width at half maximum of the single-peak profile: 2 x W, where
    f(x W) = sin^2(pi sqrt(1 + x^2) / 2) / (1 + x^2) = 1/2."""
    return FWHM_PER_RABI * drive.rabi


def peak_positions(params: CoupledModeParams, n_max: int) -> np.ndarray:
    """Sideband peak frequency offsets omega_n for radial occupations 0..n_max,
    exact-diagonalization branch, referenced so omega_0 = 0."""
    return dispersive_shift_table(params, n_max).shift_exact


def response_basis(grid: np.ndarray, centers: np.ndarray, drive: DriveParams) -> np.ndarray:
    """The response basis B[i, n] = f(w_i - w_n) of the effective model: every
    spectrum it predicts is g + eta B p, linear in the populations p."""
    if drive.order != 1:
        raise SpectroscopyError(
            f"the effective model covers the first sideband only, got order {drive.order}; "
            "a second-sideband scan needs the full driven dynamics"
        )
    return lineshape(np.subtract.outer(np.asarray(grid, dtype=float), centers), drive)


def model_spectrum(
    dist: PhononDistribution,
    params: CoupledModeParams,
    drive: DriveParams,
    grid: np.ndarray,
    eta: float = 1.0,
    g: float = 0.0,
) -> Spectrum:
    """Effective fit model p(w) = g + eta sum_n p_n f(w - w_n), noiseless."""
    B = response_basis(grid, peak_positions(params, dist.n_max), drive)
    return Spectrum(np.asarray(grid, dtype=float), detected(B @ dist.p, eta, g))


def detected(p_up: np.ndarray, eta: float, g: float) -> np.ndarray:
    """The detected excitation g + eta p_up of an ideal excitation p_up, for
    detection efficiency eta and background g, after checking (eta, g).

    The clip to [0, 1] only absorbs rounding (rng.binomial rejects p > 1 by
    one ulp); the fits model the same curve without it.
    """
    if not (0 <= eta <= 1 and g >= 0 and g + eta <= 1 + 1e-12):
        raise SpectroscopyError(f"need 0 <= eta <= 1, g >= 0, g + eta <= 1; got eta={eta}, g={g}")
    return np.clip(g + eta * p_up, 0.0, 1.0)


def driven_scan(
    initial: FockState,
    params: CoupledModeParams,
    drive: DriveParams,
    grid: np.ndarray,
    axis_reference: str = "dressed",
) -> Spectrum:
    """Full qubit + two-mode dynamics: for each drive detuning, evolve
    |down> (x) initial for t_pi under the static rotating-frame Hamiltonian and
    report P(up).

    The drive term is (W_k/2)(sigma+ a^dag^k + h.c.) with k = drive.order; the
    carrier and red-sideband couplings are dropped (resolved-sideband regime).
    Drive and coupling conserve M = 2 n_a + n_b - 2k sigma_up, so the scan is
    exact on M-blocks (see ``dynamics``); params.cutoff must carry the qubit but
    only sizes the basis of ``initial``, the motional-only state.

    axis_reference selects the zero of the detuning axis: "dressed" pins it to
    the dressed n_b = 0 sideband (matching ``peak_positions``; requires the
    dispersive regime), "bare" to the uncoupled sideband (use near resonance).
    """
    cutoff = params.cutoff
    if not cutoff.with_qubit:
        raise SpectroscopyError("driven_scan needs a cutoff with with_qubit=True")
    motional_dim = cutoff.dim_a * cutoff.dim_b
    if initial.dim != motional_dim:
        raise SpectroscopyError(
            f"initial state dim {initial.dim} != motional dim {motional_dim}"
        )

    k = drive.order
    if axis_reference == "dressed":
        # Dressed k-th order n_b = 0 sideband offset relative to the bare one.
        ref = dressed_energy(params.delta, params.xi, k, 0) - dressed_energy(
            params.delta, params.xi, 0, 0
        )
    elif axis_reference == "bare":
        ref = 0.0
    else:
        raise SpectroscopyError(f"axis_reference must be 'dressed' or 'bare', got {axis_reference!r}")

    grid = np.asarray(grid, dtype=float)
    p_up = np.zeros(grid.size)
    for M, rho_M in manifold_blocks(initial.density(), cutoff):
        # Block M: the down chain of manifold M, then the up chain of M + 2k, both by n_a.
        H_down, _ = manifold_block(params.delta, params.xi, M)
        H_up, _ = manifold_block(params.delta, params.xi, M + 2 * k)
        m = len(H_down)
        # sigma+ a^dag^k takes down (n_a, n_b) to up (n_a + k, n_b).
        n = np.arange(m)
        V = np.zeros((len(H_up), m))
        V[n + k, n] = 0.5 * drive.rabi * np.sqrt(np.prod([n + j for j in range(1, k + 1)], axis=0))
        H = np.repeat(np.block([[H_down, V.T], [V, H_up]])[None], grid.size, axis=0)
        # The drive frame shifts only the up chain's diagonal.
        up = np.arange(m, m + len(H_up))
        H[:, up, up] -= (grid + ref)[:, None]
        vals, vecs = np.linalg.eigh(H)
        p_up += block_populations(vals, vecs, rho_M, drive.t_pi)[:, m:].sum(axis=1)
    return Spectrum(grid, np.clip(p_up, 0.0, 1.0))


def add_shot_noise(spec: Spectrum, shots: int, seed: int) -> Spectrum:
    """Replace each point by Binomial(shots, p)/shots.

    Each grid point draws from its own counter-keyed stream default_rng([seed, i]),
    so parallel evaluation is bitwise-identical to serial.
    """
    if shots < 1:
        raise SpectroscopyError("shots must be >= 1")
    noisy = np.empty_like(spec.p_up)
    for i, p in enumerate(spec.p_up):
        rng = np.random.default_rng([seed, i])
        noisy[i] = rng.binomial(shots, p) / shots
    return Spectrum(spec.detuning.copy(), noisy, shots_per_point=shots)
