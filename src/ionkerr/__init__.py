"""Cross-Kerr coupled motional modes of three trapped ions: coupled-mode
spectra, dispersive phonon-dependent sideband shifts, sideband-scan synthesis,
phonon-number reconstruction, and projective single-shot phonon measurement."""

__version__ = "0.1.0"

from .dynamics import (
    CoupledModeParams,
    CrossingMap,
    ShiftTable,
    build_hamiltonian,
    conserved_charge,
    crossing_map,
    dispersive_shift_table,
    exchange_trace,
)
from .fock import FockCutoff, FockState, annihilation_op, basis_index
from .measure import ShotRecord, repeated_interrogation, single_shot
from .spectra import DriveParams, Spectrum, add_shot_noise, driven_scan, lineshape, model_spectrum, peak_positions
from .states import PhononDistribution, StateSpec, parse_state_spec, prepare, random_walk_thermal
from .trap import ModePair, TrapConfig, detune_to, load_config, mode_frequencies, paper_trap
from .fitting import FitResult, fit_free_distribution, fit_parametric, fit_peak_center
