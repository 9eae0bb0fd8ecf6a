"""Command-line harness: named experiments over the coupled-mode physics,
emitting reproducible CSV/JSON artifacts plus a run manifest.

Subcommands: modes, exchange, crossing, shift, scan, fit, shots, walk.
``main`` owns the run: it loads the trap, creates --out, calls the command
(which writes its artifacts and returns their paths) and writes manifest.json.
``modes`` only prints. Every float flag must be finite, every count at least 1,
and --n-max and --manifold-n-max at least 0.
Exit codes: 0 success, 1 fit non-convergence (artifacts still written),
2 input/configuration errors (one "error:" line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import CoupledModeParams, crossing_map, dispersive_shift_table, exchange_trace
from .fitting import FitError, fit_free_distribution, fit_parametric
from .fock import FockCutoff, FockState, basis_index
from .measure import single_shot
from .spectra import (
    SPECTRUM_COLUMNS,
    DriveParams,
    Spectrum,
    add_shot_noise,
    detected,
    driven_scan,
    model_spectrum,
    peak_positions,
)
from .states import (
    TAIL_LIMIT,
    PhononDistribution,
    StatePrepError,
    distribution,
    embed_radial,
    fock10_imperfect_preset,
    parse_state_spec,
    random_walk_thermal,
    smallest_cutoff,
)
from .trap import TWO_PI, TrapModelError, detune_to, load_config, mode_frequencies, paper_trap

DEFAULT_CUTOFF = FockCutoff(n_a_max=6, n_b_max=20)
DRIVEN_N_B_PAD = 6  # the driven scan's radial cutoff is --n-max + DRIVEN_N_B_PAD


class CliError(Exception):
    pass


def _write_json(path: Path, payload) -> Path:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def _write_table(out_dir: Path, stem: str, header: list[str], rows: list[list], fmt: str) -> Path:
    """Tabular artifact in the selected format; CSV uses '.' decimals and LF endings."""
    if fmt == "json":
        return _write_json(out_dir / f"{stem}.json", [dict(zip(header, row)) for row in rows])
    path = out_dir / f"{stem}.csv"
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    return path


def _params_at(cfg, delta: float, cutoff: FockCutoff = DEFAULT_CUTOFF) -> CoupledModeParams:
    modes = mode_frequencies(detune_to(cfg, delta))
    return CoupledModeParams(delta=delta, xi=modes.xi, cutoff=cutoff)


def cmd_modes(cfg) -> None:
    modes = mode_frequencies(cfg)
    print(f"omega_a/2pi = {modes.omega_a / TWO_PI:.3f} Hz (axial breathing)")
    print(f"omega_b/2pi = {modes.omega_b / TWO_PI:.3f} Hz (radial zigzag)")
    print(f"delta/2pi   = {modes.delta / TWO_PI:.3f} Hz")
    print(f"x0          = {modes.x0 * 1e6:.4f} um")
    print(f"xi/2pi      = {modes.xi / TWO_PI:.3f} Hz")
    res = mode_frequencies(detune_to(cfg, 0.0))
    print(f"2*sqrt(2)*xi/2pi at resonance = {2 * np.sqrt(2) * res.xi / TWO_PI:.3f} Hz")
    if modes.delta == 0:
        print("delta = 0: resonance condition 2 omega_b = omega_a holds")


def cmd_exchange(args, cfg, out: Path):
    params = _params_at(cfg, TWO_PI * args.delta_hz)
    t_grid = np.linspace(0.0, args.t_max_ms * 1e-3, args.points)
    vec = np.zeros(params.cutoff.dim, dtype=complex)
    vec[basis_index(1, 0, params.cutoff)] = 1.0
    traces = exchange_trace(params, FockState(vec), t_grid)
    columns = zip(t_grid, traces[(1, 0)], traces[(0, 2)])
    rows = [[f"{t:.12g}", f"{a:.12g}", f"{b:.12g}"] for t, a, b in columns]
    path = _write_table(out, "exchange", ["t_s", "p_1a0b", "p_0a2b"], rows, args.format)
    print(f"predicted exchange frequency 2*sqrt(2)*xi/2pi = {2 * np.sqrt(2) * params.xi / TWO_PI:.2f} Hz")
    return [path], 0


def cmd_crossing(args, cfg, out: Path):
    grid = TWO_PI * 1e3 * np.linspace(args.delta_min_khz, args.delta_max_khz, args.points)
    cmap = crossing_map(cfg, grid, args.manifold_n_max)
    energies, weights = cmap.branch_energies / TWO_PI, cmap.branch_weights
    rows = [
        [f"{d / TWO_PI:.12g}", j, f"{energies[i, j]:.12g}", f"{weights[i, j]:.12g}"]
        for i, d in enumerate(cmap.delta_grid)
        for j in range(energies.shape[1])
    ]
    header = ["delta_hz", "branch_index", "energy_hz", "axial_weight"]
    return [_write_table(out, "crossing", header, rows, args.format)], 0


def cmd_shift(args, cfg, out: Path):
    table = dispersive_shift_table(_params_at(cfg, TWO_PI * args.delta_hz), args.n_max)
    rows = [
        [int(n), f"{se / TWO_PI:.12g}", f"{sp / TWO_PI:.12g}"]
        for n, se, sp in zip(table.n_b, table.shift_exact, table.shift_perturbative)
    ]
    header = ["n_b", "shift_exact_hz", "shift_perturbative_hz"]
    return [_write_table(out, "shift", header, rows, args.format)], 0


def _parse_state(args, n_max: int) -> PhononDistribution:
    """The populations of --state at radial cutoff n_max, which is --n-max
    plus any pad the command adds. More than TAIL_LIMIT of its population
    above the cutoff is an error that names the smallest --n-max that suffices."""
    if args.state == "fock10_imperfect":
        return fock10_imperfect_preset(n_max)
    spec = parse_state_spec(args.state)
    dist = distribution(spec, n_max)
    if dist.truncation_tail > TAIL_LIMIT:
        pad = n_max - args.n_max
        need = smallest_cutoff(lambda m: distribution(spec, m + pad).truncation_tail, args.n_max)
        raise CliError(
            f"{args.state} has {dist.truncation_tail:.2e} of its population above "
            f"n_b = {n_max}, more than {TAIL_LIMIT}; use --n-max {need}"
        )
    return dist


def cmd_scan(args, cfg, out: Path):
    delta = TWO_PI * args.delta_hz
    drive = DriveParams(t_pi=args.t_pi_ms * 1e-3, order=args.order)
    grid = TWO_PI * np.linspace(args.grid_min_hz, args.grid_max_hz, args.points)
    if args.driven:
        # The driven scan is exact; its cutoff only sizes the radial state,
        # which enters dephased: the scan reads its populations only.
        cutoff = FockCutoff(n_a_max=1, n_b_max=args.n_max + DRIVEN_N_B_PAD, with_qubit=True)
        params = _params_at(cfg, delta, cutoff)
        p = _parse_state(args, cutoff.n_b_max).p
        initial = embed_radial(FockState(np.diag(p)), FockCutoff(cutoff.n_a_max, cutoff.n_b_max))
        p_up = driven_scan(initial, params, drive, grid).p_up
        spectrum = Spectrum(grid, detected(p_up, args.eta, args.g))
    else:
        dist = _parse_state(args, args.n_max)
        spectrum = model_spectrum(dist, _params_at(cfg, delta), drive, grid, eta=args.eta, g=args.g)
    if args.shots:
        spectrum = add_shot_noise(spectrum, args.shots, args.seed)
    return [_write_table(out, "scan", SPECTRUM_COLUMNS, spectrum.rows(), args.format)], 0


def cmd_fit(args, cfg, out: Path):
    spectrum = Spectrum.read_csv(args.input)
    drive = DriveParams(t_pi=args.t_pi_ms * 1e-3)
    centers = peak_positions(_params_at(cfg, TWO_PI * args.delta_hz), args.n_max)
    if args.family == "free":
        eta = None if args.eta == "free" else float(args.eta)
        result = fit_free_distribution(spectrum, centers, drive, args.n_max, eta=eta)
    else:
        pairs = (item.partition("=") for item in args.p0 or [])
        params0 = {key: int(val) if key == "n" else float(val) for key, _, val in pairs}
        result = fit_parametric(spectrum, args.family, params0, centers, drive)
    path = out / "fit.json"
    result.to_json(str(path))
    if not result.converged:
        print("warning: fit did not converge; results flagged", file=sys.stderr)
    return [path], 0 if result.converged else 1


def cmd_shots(args, cfg, out: Path):
    p = _parse_state(args, args.n_max).p
    log_path = out / "shots.log"
    bright = 0
    with open(log_path, "w", newline="\n") as fh:
        dark_run = 0
        for k in range(args.num_shots):
            record, _ = single_shot(
                p, args.target_n, args.eta, args.g, rng=np.random.default_rng([args.seed, k])
            )
            if record.outcome == "dark":
                dark_run += 1
            else:
                bright += 1
            fh.write(f"{record.target_n} {record.outcome} {dark_run}\n")
    summary = {
        "target_n": args.target_n,
        "shots": args.num_shots,
        "bright_fraction": bright / args.num_shots,
        "expected_bright": args.g + args.eta * float(p[args.target_n]),
    }
    return [log_path, _write_json(out / "shots_summary.json", summary)], 0


def cmd_walk(args, cfg, out: Path):
    dist = random_walk_thermal(args.pulses, args.step_alpha, args.seed, args.trajectories, args.n_max)
    rows = [[n, f"{p:.12g}"] for n, p in enumerate(dist.p)]
    return [_write_table(out, "walk", ["n", "probability"], rows, args.format)], 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad argument exits 2 with one error line, like every other input error."""
        self.exit(2, f"error: {message}\n")


def _at_least(least: int):
    """argparse type: an integer >= least, so no command runs empty."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


def _finite(text: str) -> float:
    """argparse type: a finite float, so no nan or inf reaches an artifact."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


# The flags several commands take, each typed once here; each command sets its own default.
SHARED_FLAGS = dict(
    delta_hz=_finite, t_pi_ms=_finite, eta=_finite, g=_finite, points=_at_least(1), n_max=_at_least(0)
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ionkerr",
        description="Cross-Kerr coupled motional modes of three trapped ions: "
        "spectra, phonon counting, reconstruction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="trap config file ([trap] section, *_hz keys)")
    common.add_argument("--seed", type=int, default=0, help="RNG seed (all randomness flows from it)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--format", choices=("csv", "json"), default="csv", help="tabular output format")

    def command(name, func, help):
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    def shared(p, **defaults):
        for dest, default in defaults.items():
            p.add_argument("--" + dest.replace("_", "-"), type=SHARED_FLAGS[dest], default=default)

    command("modes", cmd_modes, "derived trap quantities (omega_a, omega_b, delta, xi, x0)")

    p = command("exchange", cmd_exchange, "coherent |1_a,0_b> <-> |0_a,2_b> exchange trace")
    shared(p, delta_hz=0.0)
    p.add_argument("--t-max-ms", type=_finite, default=2.0)
    shared(p, points=401)

    p = command("crossing", cmd_crossing, "eigenenergy branches across the two-mode resonance")
    p.add_argument("--delta-min-khz", type=_finite, default=-20.0)
    p.add_argument("--delta-max-khz", type=_finite, default=120.0)
    shared(p, points=201)
    p.add_argument("--manifold-n-max", type=_at_least(0), default=4)

    p = command("shift", cmd_shift, "dispersive sideband shift vs radial phonon number")
    shared(p, delta_hz=14.3e3, n_max=10)

    p = command("scan", cmd_scan, "synthesize an axial blue-sideband spectrum")
    p.add_argument("--state", default="fock:0", help="e.g. thermal:1.5, coherent:1.2+0i, fock10_imperfect")
    shared(p, delta_hz=14.3e3, t_pi_ms=8.0)
    p.add_argument("--order", type=int, default=1, choices=(1, 2), help="sideband order; 2 needs --driven")
    shared(p, eta=0.7, g=0.02)
    p.add_argument("--shots", type=int, default=0, help="0 = noiseless")
    p.add_argument("--grid-min-hz", type=_finite, default=-4.5e3)
    p.add_argument("--grid-max-hz", type=_finite, default=1.5e3)
    shared(p, points=161, n_max=12)
    p.add_argument("--driven", action="store_true", help="full qubit+two-mode dynamics")

    p = command("fit", cmd_fit, "fit a spectrum CSV (parametric family or free distribution)")
    p.add_argument("--input", required=True, help="spectrum CSV from the scan command")
    p.add_argument(
        "--family",
        default="free",
        choices=("free", "coherent", "thermal", "squeezed_vacuum", "squeezed_thermal", "squeezed_fock"),
    )
    shared(p, delta_hz=14.3e3, t_pi_ms=8.0, n_max=10)
    p.add_argument("--eta", default="0.7", help="free fit: fixed value, or 'free'")
    p.add_argument(
        "--p0",
        nargs="*",
        help="initial parametric guesses, e.g. nbar=1.0 r=0.5; missing ones start at "
        "nbar=alpha=1.0, r=0.5; squeezed_fock needs its integer Fock index n",
    )

    p = command("shots", cmd_shots, "Monte Carlo single-shot phonon interrogation")
    p.add_argument("--state", default="coherent:1.0+0i")
    p.add_argument("--target-n", type=int, default=0)
    p.add_argument("--num-shots", type=_at_least(1), default=1000)
    shared(p, eta=0.7, g=0.0, n_max=20)

    p = command("walk", cmd_walk, "random-walk thermal state preparation (Monte Carlo)")
    p.add_argument("--pulses", type=_at_least(1), default=18)
    p.add_argument("--step-alpha", type=_finite, default=0.2887)
    p.add_argument("--trajectories", type=_at_least(1), default=10000)
    shared(p, n_max=20)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Load the trap, create --out, run the command, whose cmd_* takes (args, cfg,
    out) and returns (artifact paths, exit status), and write manifest.json."""
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
            config_hash = hashlib.sha256(Path(args.config).read_bytes()).hexdigest()
        else:
            cfg, config_hash = paper_trap(), "builtin:paper"
        if args.command == "modes":
            cmd_modes(cfg)
            return 0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        paths, status = args.func(args, cfg, out)
        manifest = {
            "command": args.command,
            "config_hash": config_hash,
            "seed": args.seed,
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "outputs": [path.name for path in paths],
        }
        _write_json(out / "manifest.json", manifest)
        return status
    except (TrapModelError, StatePrepError, FitError, CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
