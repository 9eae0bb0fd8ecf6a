"""Radial-mode motional states as phonon number distributions.

The package reads a radial state in the axial vacuum only through its
populations p_n: the cross-Kerr coupling conserves N = 2 n_a + n_b, so
|0_a, n_b> is alone in its block, and the shot POVM is diagonal in the Fock
basis. ``distribution`` is therefore the one form a state takes; ``prepare``
adds the truncation check and the dephased state diag(p) that the general
two-mode path (``embed_radial``, ``spectra.driven_scan``) takes.

Conventions: D(alpha) = exp(alpha b^dag - alpha* b); S(r) = exp((r* b^2 - r b^dag^2)/2)
(the standard anti-Hermitian exponent; all populations depend on |r| only).
The Fock matrix elements of S(r) come from an exact recurrence
(``squeeze_elements``), so no larger space is built and truncated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .fock import FockCutoff, FockSpaceError, FockState

TAIL_LIMIT = 1e-4
WALK_TAIL_LIMIT = 1e-3
THERMAL_SUM_TAIL = 1e-17  # thermal weight distribution may leave out

FAMILIES = ("fock", "coherent", "thermal", "squeezed_vacuum", "squeezed_thermal", "squeezed_fock")


class StatePrepError(ValueError):
    pass


@dataclass
class PhononDistribution:
    """Probability vector over n = 0..n_max with the truncated tail mass reported.

    p is never silently renormalized: sum(p) + truncation_tail = 1 up to float error.
    """

    p: np.ndarray
    truncation_tail: float = 0.0

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        if (self.p < -1e-12).any():
            raise StatePrepError("negative probability in distribution")
        self.p = np.maximum(self.p, 0.0)  # np.clip(p, 0, None), cheaper on every fit residual

    @property
    def n_max(self) -> int:
        return len(self.p) - 1

    def mean(self) -> float:
        return float(np.arange(len(self.p)) @ self.p)

    def variance(self) -> float:
        n = np.arange(len(self.p))
        return float(n**2 @ self.p - self.mean() ** 2)


@dataclass(frozen=True)
class StateSpec:
    """Parametric family descriptor: fock(n), coherent(alpha), thermal(nbar),
    squeezed_vacuum(r), squeezed_thermal(nbar, r), squeezed_fock(n, r)."""

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StatePrepError(f"unknown state family {self.family!r}; expected one of {FAMILIES}")
        n = self.params.get("n")
        if self.family in ("fock", "squeezed_fock") and not isinstance(n, (int, np.integer)):
            raise StatePrepError(f"{self.family} needs an integer Fock index n, got {n!r}")
        for k, v in self.params.items():
            if not np.isfinite(v):
                raise StatePrepError(f"{self.family} needs finite parameters, got {k}={v!r}")


def parse_state_spec(text: str) -> StateSpec:
    """Parse compact forms like 'coherent:1.2+0.0i', 'thermal:1.5',
    'squeezed_fock:n=1,r=0.6', 'fock:3'."""
    if ":" not in text:
        raise StatePrepError(f"state spec {text!r} must look like 'family:params'")
    family, _, rest = text.partition(":")
    family = family.strip()
    rest = rest.strip()

    def as_complex(s: str) -> complex:
        return complex(s.replace("i", "j").replace(" ", ""))

    if family == "fock":
        return StateSpec("fock", {"n": int(rest)})
    if family == "coherent":
        return StateSpec("coherent", {"alpha": as_complex(rest)})
    if family == "thermal":
        return StateSpec("thermal", {"nbar": float(rest)})
    if family == "squeezed_vacuum":
        return StateSpec("squeezed_vacuum", {"r": as_complex(rest)})
    if family in ("squeezed_thermal", "squeezed_fock"):
        kv = {}
        for part in rest.split(","):
            m = re.fullmatch(r"\s*(\w+)\s*=\s*([^,]+?)\s*", part)
            if not m:
                raise StatePrepError(f"cannot parse parameter {part!r} in {text!r}")
            kv[m.group(1)] = m.group(2)
        if family == "squeezed_thermal":
            return StateSpec(family, {"nbar": float(kv["nbar"]), "r": as_complex(kv["r"])})
        return StateSpec(family, {"n": int(kv["n"]), "r": as_complex(kv["r"])})
    raise StatePrepError(f"unknown state family {family!r}")


def format_state_spec(spec: StateSpec) -> str:
    p = spec.params
    if spec.family == "fock":
        return f"fock:{p['n']}"
    if spec.family == "coherent":
        return f"coherent:{p['alpha']}"
    if spec.family == "thermal":
        return f"thermal:{p['nbar']}"
    if spec.family == "squeezed_vacuum":
        return f"squeezed_vacuum:{p['r']}"
    if spec.family == "squeezed_thermal":
        return f"squeezed_thermal:nbar={p['nbar']},r={p['r']}"
    return f"squeezed_fock:n={p['n']},r={p['r']}"


# --- closed-form population families -----------------------------------------


def poisson_pops(mean_n: float, n_max: int) -> np.ndarray:
    """Poisson populations of a coherent state with |alpha|^2 = mean_n."""
    if mean_n == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1)
    return np.exp(n * np.log(mean_n) - mean_n - gammaln(n + 1))


def thermal_pops(nbar: float, n_max: int) -> np.ndarray:
    """Geometric populations nbar^n / (1 + nbar)^(n+1)."""
    if nbar < 0:
        raise StatePrepError("nbar must be >= 0")
    if nbar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1)
    return np.exp(n * np.log(nbar) - (n + 1) * np.log(1 + nbar))


def squeezed_vacuum_pops(r_mag: float, n_max: int) -> np.ndarray:
    """Even-n populations p_2k = (2k)!/(4^k (k!)^2) tanh^2k(r) / cosh(r)."""
    p = np.zeros(n_max + 1)
    if r_mag == 0:
        p[0] = 1.0
        return p
    ks = np.arange(n_max // 2 + 1)
    logp = (
        gammaln(2 * ks + 1)
        - ks * np.log(4.0)
        - 2 * gammaln(ks + 1)
        + 2 * ks * np.log(np.tanh(r_mag))
        - np.log(np.cosh(r_mag))
    )
    p[2 * ks] = np.exp(logp)
    return p


# --- operator constructions ---------------------------------------------------


def squeeze_elements(r: complex, rows: int, cols: int) -> np.ndarray:
    """<m|S(r)|n> for m <= rows and n <= cols, exact (Kim, de Oliveira & Knight,
    PRA 40, 2494 (1989)); complex when r has a phase.

    Column 0 is the squeezed vacuum. With mu = cosh|r| and nu = sinh|r|,
    b^dag S = S(mu b^dag - nu b) for real r gives
    S|n+1> = (b^dag S|n> + nu sqrt(n) S|n-1>) / (mu sqrt(n+1)).
    Row m of a column needs only rows <= m of the earlier ones, so truncating
    the rows loses nothing. r = |r| e^(i theta) multiplies element (m, n) by
    e^(i theta (m - n)/2).

    Rounding error grows along the diagonal: against the same recurrence at
    50 digits it is 3e-12 for a 41 x 41 block at r = 0.7 and 1e-9 for 61 x 61,
    while blocks with min(rows, cols) <= 10 stay near 1e-15.
    """
    r_mag, theta = abs(r), float(np.angle(r))
    mu, nu = np.cosh(r_mag), np.sinh(r_mag)
    S = np.zeros((rows + 1, cols + 1))
    k = np.arange(1, rows // 2 + 1)
    S[0::2, 0] = np.cumprod(np.append(mu**-0.5, -np.tanh(r_mag) * np.sqrt((2 * k - 1) / (2 * k))))
    sq = np.sqrt(np.arange(max(rows, cols) + 1))
    for n in range(cols):
        S[1:, n + 1] = sq[1 : rows + 1] * S[:-1, n]
        if n:
            S[:, n + 1] += nu * sq[n] * S[:, n - 1]
        S[:, n + 1] /= mu * sq[n + 1]
    if theta:
        m, n = np.ogrid[: rows + 1, : cols + 1]
        return S * np.exp(0.5j * theta * (m - n))
    return S


def smallest_cutoff(tail, start: int, limit: float = TAIL_LIMIT) -> int:
    """The smallest cutoff m > start with tail(m) <= limit, for a tail that only
    falls as the cutoff grows: double past it, then bisect (about 2 log2(m / start)
    calls of tail)."""
    lo, hi = start, start + 1
    while tail(hi) > limit:
        lo, hi = hi, max(2 * hi, 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail(mid) <= limit else (mid, hi)
    return hi


# --- preparation --------------------------------------------------------------


def distribution(spec: StateSpec, n_max: int) -> PhononDistribution:
    """Populations over n = 0..n_max of any state family, computed directly
    (the model p_n(params) of the spectral fits).

    This never fails on truncation: the weight above n_max is reported as
    truncation_tail, never folded back (a Fock index above n_max gives tail 1).
    squeezed_fock takes |<m|S|n>|^2 down column n; squeezed_thermal sums
    p_th(n) |<m|S|n>|^2 over thermal columns until the thermal weight left out
    is below THERMAL_SUM_TAIL.
    """
    par = spec.params
    n = par.get("n", 0)
    if n < 0:
        raise StatePrepError(f"{spec.family} needs n >= 0, got {n}")
    r_mag = abs(par.get("r", 0.0))
    if spec.family == "fock":
        p = np.zeros(n_max + 1)
        if n <= n_max:
            p[n] = 1.0
    elif spec.family == "coherent":
        p = poisson_pops(abs(par["alpha"]) ** 2, n_max)
    elif spec.family == "thermal":
        p = thermal_pops(par["nbar"], n_max)
    elif spec.family == "squeezed_vacuum":
        p = squeezed_vacuum_pops(r_mag, n_max)
    elif spec.family == "squeezed_fock":
        p = squeeze_elements(r_mag, n_max, n)[:, n] ** 2
    else:  # squeezed_thermal
        nbar = par["nbar"]
        # columns 0..cols leave out the thermal weight (nbar / (1 + nbar))^(cols + 1)
        cols = int(np.log(THERMAL_SUM_TAIL) / np.log(nbar / (1 + nbar))) if nbar > 0 else 0
        # |<m|S|n>| = |<n|S|m>| (S(r)^T = S(-r)), so recur over the short side
        p = thermal_pops(nbar, cols) @ squeeze_elements(r_mag, cols, n_max) ** 2
    return PhononDistribution(p, truncation_tail=max(0.0, 1.0 - p.sum()))


def prepare(spec: StateSpec, n_max: int) -> tuple[FockState, PhononDistribution]:
    """The dephased radial state diag(p) and its populations over n = 0..n_max.

    Unlike ``distribution``, this raises when more than TAIL_LIMIT of the
    population lies above n_max (a Fock index above it included), and names
    the smallest n_max that suffices.
    """
    dist = distribution(spec, n_max)
    if dist.truncation_tail > TAIL_LIMIT:
        need = smallest_cutoff(lambda m: distribution(spec, m).truncation_tail, n_max)
        raise StatePrepError(
            f"{format_state_spec(spec)} has {dist.truncation_tail:.2e} of its population above "
            f"the cutoff n_max = {n_max}, more than {TAIL_LIMIT}; use n_max >= {need}"
        )
    return FockState(np.diag(dist.p)), dist


def fock10_imperfect_preset(n_max: int = 12) -> PhononDistribution:
    """The imperfect |10_b> ladder preparation reported experimentally:
    p10 = 0.80, p9 = 0.06, p8 = 0.06; the 0.08 remainder is spread uniformly
    over n = 0..7 (each below the 0.04 level seen for spurious populations)."""
    if n_max < 10:
        raise StatePrepError("preset needs n_max >= 10")
    p = np.zeros(n_max + 1)
    p[10], p[9], p[8] = 0.80, 0.06, 0.06
    p[:8] = 0.08 / 8
    return PhononDistribution(p)


# --- thermal state via random-walk displacement -------------------------------


def random_walk_thermal(
    pulses: int,
    step_alpha: float,
    rng_seed: int,
    trajectories: int,
    n_max: int,
) -> PhononDistribution:
    """Monte Carlo thermal state: average populations over trajectories of
    ``pulses`` equal-amplitude displacements with independent uniform phases.

    A product of displacements equals (up to a global phase) the displacement by
    the summed amplitude, so each trajectory contributes exactly the Poisson
    populations of |sum_k alpha e^(i phi_k)|^2.

    Per-trajectory RNG streams are keyed as default_rng([rng_seed, k]) for
    trajectory index k, so any parallel split reproduces the serial result.
    """
    if pulses < 1 or trajectories < 1:
        raise StatePrepError("pulses and trajectories must be >= 1")
    acc = np.zeros(n_max + 1)
    tail_acc = 0.0
    for k in range(trajectories):
        rng = np.random.default_rng([rng_seed, k])
        phases = rng.uniform(0.0, 2.0 * np.pi, size=pulses)
        amp = step_alpha * np.exp(1j * phases).sum()
        pops = poisson_pops(abs(amp) ** 2, n_max)
        acc += pops
        tail_acc += max(0.0, 1.0 - pops.sum())
    acc /= trajectories
    tail = tail_acc / trajectories
    if tail > WALK_TAIL_LIMIT:
        raise StatePrepError(
            f"random-walk truncation tail {tail:.2e} exceeds {WALK_TAIL_LIMIT}; "
            f"increase n_max beyond {n_max}"
        )
    return PhononDistribution(acc, truncation_tail=tail)


# --- embedding ----------------------------------------------------------------


def embed_radial(state_b: FockState, cutoff: FockCutoff) -> FockState:
    """Tensor |0_a> with a radial-mode state to get a two-mode state (no qubit)."""
    if cutoff.with_qubit:
        raise FockSpaceError("embed_radial produces a motional-only state; use a qubit-free cutoff")
    if state_b.dim != cutoff.dim_b:
        raise FockSpaceError(f"radial state dim {state_b.dim} != cutoff dim_b {cutoff.dim_b}")
    vac_a = np.zeros(cutoff.dim_a)
    vac_a[0] = 1.0
    if state_b.is_pure:
        return FockState(np.kron(vac_a, state_b.data))
    return FockState(np.kron(np.outer(vac_a, vac_a), state_b.data))
