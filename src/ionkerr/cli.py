"""Command-line harness: named experiments over the coupled-mode physics,
emitting reproducible CSV/JSON artifacts plus a run manifest.

Subcommands: modes, exchange, crossing, shift, scan, fit, shots, walk.
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


def _load_trap(args):
    if args.config:
        return load_config(args.config), _hash_file(args.config)
    return paper_trap(), "builtin:paper"


def _hash_file(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config_hash: str, seed, outputs: list[str]):
    manifest = {
        "command": command,
        "config_hash": config_hash,
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _write_table(out_dir: Path, stem: str, header: list[str], rows: list[list], fmt: str) -> Path:
    """Tabular artifact in the selected format; CSV uses '.' decimals and LF endings."""
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        payload = [dict(zip(header, row)) for row in rows]
        with open(path, "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        path = out_dir / f"{stem}.csv"
        with open(path, "w", newline="\n") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    return path


def _params_at(cfg, delta: float, cutoff: FockCutoff = DEFAULT_CUTOFF) -> CoupledModeParams:
    modes = mode_frequencies(detune_to(cfg, delta))
    return CoupledModeParams(delta=delta, xi=modes.xi, cutoff=cutoff)


def cmd_modes(args) -> int:
    cfg, _ = _load_trap(args)
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
    return 0


def cmd_exchange(args) -> int:
    cfg, config_hash = _load_trap(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = _params_at(cfg, TWO_PI * args.delta_hz)
    t_grid = np.linspace(0.0, args.t_max_ms * 1e-3, args.points)
    vec = np.zeros(params.cutoff.dim, dtype=complex)
    vec[basis_index(1, 0, params.cutoff)] = 1.0
    traces = exchange_trace(params, FockState(vec), t_grid)
    rows = [
        [f"{t:.12g}", f"{traces[(1, 0)][i]:.12g}", f"{traces[(0, 2)][i]:.12g}"]
        for i, t in enumerate(t_grid)
    ]
    path = _write_table(out, "exchange", ["t_s", "p_1a0b", "p_0a2b"], rows, args.format)
    print(f"predicted exchange frequency 2*sqrt(2)*xi/2pi = {2 * np.sqrt(2) * params.xi / TWO_PI:.2f} Hz")
    _write_manifest(out, "exchange", config_hash, args.seed, [path.name])
    return 0


def cmd_crossing(args) -> int:
    cfg, config_hash = _load_trap(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = TWO_PI * 1e3 * np.linspace(args.delta_min_khz, args.delta_max_khz, args.points)
    cmap = crossing_map(cfg, grid, args.manifold_n_max)
    rows = [
        [
            f"{d / TWO_PI:.12g}",
            j,
            f"{cmap.branch_energies[i, j] / TWO_PI:.12g}",
            f"{cmap.branch_weights[i, j]:.12g}",
        ]
        for i, d in enumerate(cmap.delta_grid)
        for j in range(cmap.branch_energies.shape[1])
    ]
    path = _write_table(
        out, "crossing", ["delta_hz", "branch_index", "energy_hz", "axial_weight"], rows, args.format
    )
    _write_manifest(out, "crossing", config_hash, args.seed, [path.name])
    return 0


def cmd_shift(args) -> int:
    cfg, config_hash = _load_trap(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = _params_at(cfg, TWO_PI * args.delta_hz)
    table = dispersive_shift_table(params, args.n_max)
    rows = [
        [int(n), f"{se / TWO_PI:.12g}", f"{sp / TWO_PI:.12g}"]
        for n, se, sp in zip(table.n_b, table.shift_exact, table.shift_perturbative)
    ]
    path = _write_table(
        out, "shift", ["n_b", "shift_exact_hz", "shift_perturbative_hz"], rows, args.format
    )
    _write_manifest(out, "shift", config_hash, args.seed, [path.name])
    return 0


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


def cmd_scan(args) -> int:
    cfg, config_hash = _load_trap(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        spectrum = driven_scan(initial, params, drive, grid)
        if args.eta != 1.0 or args.g != 0.0:
            spectrum = Spectrum(spectrum.detuning, args.g + args.eta * spectrum.p_up)
    else:
        dist = _parse_state(args, args.n_max)
        spectrum = model_spectrum(dist, _params_at(cfg, delta), drive, grid, eta=args.eta, g=args.g)
    if args.shots:
        spectrum = add_shot_noise(spectrum, args.shots, args.seed)
    path = _write_table(out, "scan", SPECTRUM_COLUMNS, spectrum.rows(), args.format)
    _write_manifest(out, "scan", config_hash, args.seed, [path.name])
    return 0


def cmd_fit(args) -> int:
    cfg, config_hash = _load_trap(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spectrum = Spectrum.read_csv(args.input)
    delta = TWO_PI * args.delta_hz
    drive = DriveParams(t_pi=args.t_pi_ms * 1e-3)
    params = _params_at(cfg, delta)
    centers = peak_positions(params, args.n_max)
    if args.family == "free":
        eta = None if args.eta == "free" else float(args.eta)
        result = fit_free_distribution(spectrum, centers, drive, args.n_max, eta=eta)
    else:
        params0 = {}
        for item in args.p0 or []:
            key, _, val = item.partition("=")
            params0[key] = int(val) if key == "n" else float(val)
        result = fit_parametric(spectrum, args.family, params0, centers, drive)
    path = out / "fit.json"
    result.to_json(str(path))
    _write_manifest(out, "fit", config_hash, args.seed, [path.name])
    if not result.converged:
        print("warning: fit did not converge; results flagged", file=sys.stderr)
        return 1
    return 0


def cmd_shots(args) -> int:
    _, config_hash = _load_trap(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    summary_path = out / "shots_summary.json"
    with open(summary_path, "w", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    _write_manifest(out, "shots", config_hash, args.seed, [log_path.name, summary_path.name])
    return 0


def cmd_walk(args) -> int:
    _, config_hash = _load_trap(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dist = random_walk_thermal(args.pulses, args.step_alpha, args.seed, args.trajectories, args.n_max)
    rows = [[n, f"{p:.12g}"] for n, p in enumerate(dist.p)]
    path = _write_table(out, "walk", ["n", "probability"], rows, args.format)
    _write_manifest(out, "walk", config_hash, args.seed, [path.name])
    return 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ionkerr",
        description="Cross-Kerr coupled motional modes of three trapped ions: "
        "spectra, phonon counting, reconstruction.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="trap config file ([trap] section, *_hz keys)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (all randomness flows from it)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="tabular output format")

    p = sub.add_parser("modes", help="derived trap quantities (omega_a, omega_b, delta, xi, x0)")
    common(p)
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("exchange", help="coherent |1_a,0_b> <-> |0_a,2_b> exchange trace")
    common(p)
    p.add_argument("--delta-hz", type=float, default=0.0)
    p.add_argument("--t-max-ms", type=float, default=2.0)
    p.add_argument("--points", type=_at_least(1), default=401)
    p.set_defaults(func=cmd_exchange)

    p = sub.add_parser("crossing", help="eigenenergy branches across the two-mode resonance")
    common(p)
    p.add_argument("--delta-min-khz", type=float, default=-20.0)
    p.add_argument("--delta-max-khz", type=float, default=120.0)
    p.add_argument("--points", type=_at_least(1), default=201)
    p.add_argument("--manifold-n-max", type=_at_least(0), default=4)
    p.set_defaults(func=cmd_crossing)

    p = sub.add_parser("shift", help="dispersive sideband shift vs radial phonon number")
    common(p)
    p.add_argument("--delta-hz", type=float, default=14.3e3)
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("scan", help="synthesize an axial blue-sideband spectrum")
    common(p)
    p.add_argument("--state", default="fock:0", help="e.g. thermal:1.5, coherent:1.2+0i, fock10_imperfect")
    p.add_argument("--delta-hz", type=float, default=14.3e3)
    p.add_argument("--t-pi-ms", type=float, default=8.0)
    p.add_argument("--order", type=int, default=1, choices=(1, 2), help="sideband order; 2 needs --driven")
    p.add_argument("--eta", type=float, default=0.7)
    p.add_argument("--g", type=float, default=0.02)
    p.add_argument("--shots", type=int, default=0, help="0 = noiseless")
    p.add_argument("--grid-min-hz", type=float, default=-4.5e3)
    p.add_argument("--grid-max-hz", type=float, default=1.5e3)
    p.add_argument("--points", type=_at_least(1), default=161)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--driven", action="store_true", help="full qubit+two-mode dynamics")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="fit a spectrum CSV (parametric family or free distribution)")
    common(p)
    p.add_argument("--input", required=True, help="spectrum CSV from the scan command")
    p.add_argument(
        "--family",
        default="free",
        choices=("free", "coherent", "thermal", "squeezed_vacuum", "squeezed_thermal", "squeezed_fock"),
    )
    p.add_argument("--delta-hz", type=float, default=14.3e3)
    p.add_argument("--t-pi-ms", type=float, default=8.0)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--eta", default="0.7", help="free fit: fixed value, or 'free'")
    p.add_argument(
        "--p0",
        nargs="*",
        help="initial parametric guesses, e.g. nbar=1.0 r=0.5; missing ones start at "
        "nbar=alpha=1.0, r=0.5; squeezed_fock needs its integer Fock index n",
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("shots", help="Monte Carlo single-shot phonon interrogation")
    common(p)
    p.add_argument("--state", default="coherent:1.0+0i")
    p.add_argument("--target-n", type=int, default=0)
    p.add_argument("--num-shots", type=_at_least(1), default=1000)
    p.add_argument("--eta", type=float, default=0.7)
    p.add_argument("--g", type=float, default=0.0)
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(func=cmd_shots)

    p = sub.add_parser("walk", help="random-walk thermal state preparation (Monte Carlo)")
    common(p)
    p.add_argument("--pulses", type=_at_least(1), default=18)
    p.add_argument("--step-alpha", type=float, default=0.2887)
    p.add_argument("--trajectories", type=_at_least(1), default=10000)
    p.add_argument("--n-max", type=int, default=20)
    p.set_defaults(func=cmd_walk)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TrapModelError, StatePrepError, FitError, CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
