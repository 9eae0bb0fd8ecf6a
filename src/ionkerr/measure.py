"""Single-shot projective phonon measurement with imperfect detection.

A pi pulse at the n-th sideband followed by fluorescence detection implements
the two-outcome POVM  E_bright = g 1 + eta |n><n|,  E_dark = 1 - E_bright.
Both are diagonal in the Fock basis, so a shot acts on the phonon number
distribution p alone: P(bright) = g + eta p_n.  Dark outcomes update it with
the square-root (minimally disturbing) instrument, p <- m^2 p / sum(m^2 p)
with m^2 the diagonal of E_dark, which reduces to the ideal projector
complement 1 - |n><n| at eta = 1, g = 0.  Bright outcomes destroy the
motional state (fluorescence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeasurementError(ValueError):
    pass


@dataclass
class ShotRecord:
    target_n: int
    outcome: str  # "bright" | "dark"
    p_bright: float
    seed: int | None = None


def single_shot(
    p: np.ndarray,
    target_n: int,
    eta: float,
    g: float,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[ShotRecord, np.ndarray | None]:
    """One interrogation of Fock level ``target_n`` of the populations p.

    Returns the outcome record and the post-measurement populations: the
    dark-updated ones, or None for a destroyed bright outcome.
    """
    p = np.asarray(p, dtype=float)
    if not (0 <= eta <= 1 and g >= 0 and g + eta <= 1 + 1e-12):
        raise MeasurementError(f"need 0 <= eta <= 1, g >= 0, g + eta <= 1; got eta={eta}, g={g}")
    if not 0 <= target_n < len(p):
        raise MeasurementError(f"target_n={target_n} outside state dimension {len(p)}")
    if rng is None:
        rng = np.random.default_rng(seed)
    p_bright = min(g + eta * float(p[target_n]), 1.0)
    bright = bool(rng.random() < p_bright)
    record = ShotRecord(target_n=target_n, outcome="bright" if bright else "dark", p_bright=p_bright, seed=seed)
    if bright:
        return record, None
    if p_bright >= 1:
        raise MeasurementError(
            f"dark outcome impossible: state is exactly |{target_n}> with perfect detection"
        )
    m2 = np.full(len(p), 1.0 - g)
    m2[target_n] = max(1.0 - g - eta, 0.0)
    post = m2 * p
    return record, post / post.sum()


def repeated_interrogation(
    p: np.ndarray,
    schedule: list[int],
    eta: float,
    g: float,
    seed: int,
) -> tuple[list[ShotRecord], np.ndarray | None, int | None]:
    """Apply single shots along a target schedule; a bright outcome terminates
    the run with the identified Fock number.

    Returns (records, final populations or None, identified n or None).  A
    single RNG stream seeded once drives the whole sequence, so identical seeds
    give identical outcome sequences.
    """
    rng = np.random.default_rng(seed)
    records: list[ShotRecord] = []
    for n in schedule:
        record, p = single_shot(p, n, eta, g, rng=rng)
        records.append(record)
        if record.outcome == "bright":
            return records, p, n
    return records, p, None
