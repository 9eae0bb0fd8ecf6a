"""The in-process workloads: recon, squeezed and driven.

Each workload is a cycle of cases. A run repeats the cycle a fixed number of
times, --seconds / NOMINAL_CYCLE_S (the cycle's duration at the commit that
defined the benchmark, on a 2-core Xeon VM), so every run of every commit
holds the same ops and the tail is the same percentile.
An op gets only generated inputs (detuning, state spec, shots, noise key,
order) and calls the public ionkerr API the way a user script would.

Output checks return a list of failure classes (empty when the op passed).
Their tolerances come from the physics or from the project's own bounds:

- ``simplex``: the free fit must satisfy p_n >= 0 and sum(p) <= 1 + 1e-9,
  the bound of tests/test_fitting.py::test_simplex_constraints_respected.
- ``pull``: each parametric estimate lies within PULL_LIMIT of the fit's own
  1-sigma of the generating value (a calibrated fit lands beyond 5 sigma
  with probability 6e-7 per parameter).
- ``not_converged``: a parametric fit reports non-convergence.
- ``p_up_range``: a driven scan returns P_up outside [0, 1].
- ``truncation``: driven P_up moves by more than TRUNCATION_LIMIT when the
  axial cutoff is raised from n_a <= 3 to n_a <= 6. The limit is the
  package's own truncation rule: tail mass above 1e-4 must not be silent.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ionkerr import dynamics, fitting, spectra, states, trap
from ionkerr.fock import FockCutoff
from provenance import source_digest

TWO_PI = trap.TWO_PI
PULL_LIMIT = 5.0
SIMPLEX_SLACK = 1e-9
TRUNCATION_LIMIT = 1e-4

DELTAS_HZ = (10e3, 14.3e3, 20e3, 30e3)
SHOTS = (100, 400, 1600)
PAPER_DELTA_HZ = 14.3e3
ETA, G = 0.7, 0.02
FIT_N_MAX = 10
SPECTRUM_CUTOFF = FockCutoff(n_a_max=6, n_b_max=20)  # the CLI's default cutoff
DRIVE = spectra.DriveParams(t_pi=8e-3)
SPECTRUM_GRID = TWO_PI * np.linspace(-4.5e3, 1.5e3, 161)
DRIVEN_GRID = TWO_PI * np.linspace(-4.5e3, 1.5e3, 81)
DRIVEN_N_B_MAX = 18  # the CLI's --driven cutoff at its default n_max = 12
DRIVEN_N_A_MAX = 3
REFERENCE_N_A_MAX = 6
REFERENCE_FILE = Path(__file__).resolve().parent / "driven_reference.json"


def _params(delta_hz: float, cutoff: FockCutoff) -> dynamics.CoupledModeParams:
    modes = trap.mode_frequencies(trap.detune_to(trap.paper_trap(), TWO_PI * delta_hz))
    return dynamics.CoupledModeParams(delta=TWO_PI * delta_hz, xi=modes.xi, cutoff=cutoff)


def _start_guess(truth: dict) -> dict:
    # Criterion 8 starts its fits at 1.3 x the generating values; n stays fixed.
    return {k: (v if k == "n" else 1.3 * v) for k, v in truth.items()}


def round_trip(case: dict):
    """peak_positions -> model_spectrum -> add_shot_noise -> free fit (eta fixed),
    then a parametric fit of the generating family when the case names one."""
    params = _params(case["delta_hz"], SPECTRUM_CUTOFF)
    centers = spectra.peak_positions(params, FIT_N_MAX)
    if case["family"] == "fock10_imperfect":
        dist = states.fock10_imperfect_preset(FIT_N_MAX)
    else:
        dist = states.distribution(states.StateSpec(case["family"], case["truth"]), FIT_N_MAX)
    clean = spectra.model_spectrum(dist, params, DRIVE, SPECTRUM_GRID, eta=ETA, g=G)
    noisy = spectra.add_shot_noise(clean, case["shots"], case["noise_key"])
    free = fitting.fit_free_distribution(noisy, centers, DRIVE, FIT_N_MAX, eta=ETA)
    parametric = None
    if case["fit_parametric"]:
        parametric = fitting.fit_parametric(
            noisy, case["family"], _start_guess(case["truth"]), centers, DRIVE
        )
    return free, parametric


def check_round_trip(case: dict, out) -> list[str]:
    free, parametric = out
    failures = []
    p = free.p_hat.p
    if np.any(p < 0) or p.sum() > 1 + SIMPLEX_SLACK:
        failures.append("simplex")
    if parametric is not None:
        if not parametric.converged:
            failures.append("not_converged")
        for k, v in case["truth"].items():
            if k == "n":
                continue
            sigma = parametric.param_sigma[k]
            if not abs(parametric.params[k] - v) <= PULL_LIMIT * sigma:
                failures.append("pull")
                break
    return failures


class Recon:
    """Reconstruction round trips: 4 detunings x 3 states x 3 shot counts per
    cycle; the seed draws the thermal and coherent parameters and the cycle
    order. Noise keys are common random numbers, fixed by (cycle, stratum):
    whether a free fit breaks its simplex bound depends mostly on the noise
    draw, and seeded keys made failed_frac a binomial count that spread by a
    fifth from seed to seed."""

    name = "recon"
    NOMINAL_CYCLE_S = 0.95
    STATES = ("thermal", "coherent", "fock10_imperfect")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _case(self, rng, delta_hz, family, shots, noise_key) -> dict:
        if family == "thermal":
            truth = {"nbar": float(rng.uniform(0.5, 2.0))}
        elif family == "coherent":
            truth = {"alpha": float(rng.uniform(0.5, 1.5))}
        else:
            truth = {}
        return {
            "delta_hz": delta_hz,
            "family": family,
            "truth": truth,
            "shots": shots,
            "noise_key": noise_key,
            "fit_parametric": family != "fock10_imperfect",
        }

    def warmup(self) -> dict:
        rng = np.random.default_rng([self.seed, 1])
        return self._case(rng, PAPER_DELTA_HZ, "thermal", 400, noise_key=2**31 - 1)

    def cycle(self, k: int) -> list[dict]:
        rng = np.random.default_rng([self.seed, 2, k])
        strata = [(d, f, s) for d in DELTAS_HZ for f in self.STATES for s in SHOTS]
        cases = [
            dict(self._case(rng, *stratum, noise_key=k * len(strata) + i), id=i)
            for i, stratum in enumerate(strata)
        ]
        return [cases[i] for i in rng.permutation(len(cases))]

    run_op = staticmethod(round_trip)
    check = staticmethod(check_round_trip)


def _fixed_order(seed: int, cases: list) -> list:
    order = np.random.default_rng([seed, 3]).permutation(len(cases))
    return [cases[i] for i in order]


class Squeezed:
    """Round trips with squeezed states: 3 families at the ends and the middle
    of the squeezing range r in [0.2, 0.9], with fixed noise keys. Whether a
    fit fails its checks depends on the noise draw, and a run holds only 27
    of these slow ops, so a seeded draw would make failed_frac swing from run
    to run; the seed sets the order the fixed cases are cycled in. The three
    families differ in cost by 30x, so an odd number of cases per family keeps
    the median op inside one family's cluster rather than on a boundary."""

    name = "squeezed"
    NOMINAL_CYCLE_S = 6.5
    R_VALUES = (0.2, 0.55, 0.9)

    def __init__(self, seed: int, workdir: Path):
        cases = []
        for i, family in enumerate(("squeezed_vacuum", "squeezed_thermal", "squeezed_fock")):
            for j, r in enumerate(self.R_VALUES):
                truth = {"r": float(r)}
                if family == "squeezed_thermal":
                    truth["nbar"] = 0.8
                if family == "squeezed_fock":
                    truth["n"] = 1
                cases.append(
                    {
                        "delta_hz": PAPER_DELTA_HZ,
                        "family": family,
                        "truth": truth,
                        "shots": SHOTS[(i + j) % len(SHOTS)],
                        "noise_key": len(cases),
                        "fit_parametric": True,
                        "id": len(cases),
                    }
                )
        self.cases = cases
        self.order = _fixed_order(seed, cases)

    def warmup(self) -> dict:
        return self.cases[0]

    def cycle(self, k: int) -> list[dict]:
        return self.order

    run_op = staticmethod(round_trip)
    check = staticmethod(check_round_trip)


def driven(case: dict, n_a_max: int = DRIVEN_N_A_MAX):
    cutoff = FockCutoff(n_a_max=n_a_max, n_b_max=DRIVEN_N_B_MAX, with_qubit=True)
    params = _params(PAPER_DELTA_HZ, cutoff)
    state, _ = states.prepare(states.parse_state_spec(case["state"]), DRIVEN_N_B_MAX)
    initial = states.embed_radial(state, FockCutoff(n_a_max, DRIVEN_N_B_MAX))
    drive = spectra.DriveParams(t_pi=DRIVE.t_pi, order=case["order"])
    return spectra.driven_scan(initial, params, drive, DRIVEN_GRID)


class Driven:
    """Full driven scans of the states the CLI documents (the scan default
    fock:0, the shots default coherent:1.0, the README's thermal:1.5) at
    sideband orders 1 and 2. A scan is deterministic, so the cases are fixed
    and the seed sets the order they are cycled in.

    The n_a <= 6 reference of each case was computed once with the dense
    path at the commit that defined the benchmark (``write_references``) and
    is committed as REFERENCE_FILE, so the check does not move with the
    program under test."""

    name = "driven"
    NOMINAL_CYCLE_S = 2.5
    CASES = tuple(
        {"state": s, "order": k, "id": 2 * i + k - 1}
        for i, s in enumerate(("fock:0", "coherent:1.0", "thermal:1.5"))
        for k in (1, 2)
    )

    def __init__(self, seed: int, workdir: Path):
        self.order = _fixed_order(seed, list(self.CASES))
        table = json.loads(REFERENCE_FILE.read_text())["p_up"]
        self.refs = {_reference_key(c): np.array(table[_reference_key(c)]) for c in self.CASES}

    def warmup(self) -> dict:
        return self.CASES[0]

    def cycle(self, k: int) -> list[dict]:
        return self.order

    run_op = staticmethod(driven)

    def check(self, case: dict, spectrum) -> list[str]:
        failures = []
        p = spectrum.p_up
        if np.any((p < 0) | (p > 1)):
            failures.append("p_up_range")
        if np.max(np.abs(p - self.refs[_reference_key(case)])) > TRUNCATION_LIMIT:
            failures.append("truncation")
        return failures


def _reference_key(case: dict) -> str:
    return f"{case['state']}/order{case['order']}"


def write_references(commit: str) -> None:
    """Recompute REFERENCE_FILE with the program on the path. It was run once,
    at the commit that defined the benchmark; a later run would check the
    program against itself."""
    doc = {
        "commit": commit,
        "source_digest": source_digest(Path(states.__file__).resolve().parent),
        "n_a_max": REFERENCE_N_A_MAX,
        "n_b_max": DRIVEN_N_B_MAX,
        "p_up": {_reference_key(c): driven(c, REFERENCE_N_A_MAX).p_up.tolist() for c in Driven.CASES},
    }
    REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")


WORKLOADS = {w.name: w for w in (Recon, Squeezed, Driven)}
