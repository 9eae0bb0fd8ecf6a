"""End-to-end command-line harness: artifacts, manifests, exit codes, determinism."""

import argparse
import dataclasses
import json

import numpy as np
import pytest

from ionkerr import cli
from ionkerr.cli import main
from ionkerr.fock import FockCutoff, FockState
from ionkerr.spectra import DriveParams, Spectrum, driven_scan
from ionkerr.states import distribution, embed_radial, fock10_imperfect_preset
from ionkerr.trap import TWO_PI, paper_trap

GOOD_CONFIG = "[trap]\nomega_x_hz = 1042e3\nomega_y_hz = 979e3\nomega_z_hz = 587e3\n"


def run(*argv):
    return main(list(argv))


def exit_code(*argv):
    """main's return value, or the code of the SystemExit that argparse raises."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


class TestModes:
    def test_prints_derived_quantities(self, capsys):
        assert run("modes") == 0
        out = capsys.readouterr().out
        assert "omega_a" in out and "xi/2pi" in out
        assert "3124.5" in out  # 2 sqrt(2) xi at resonance

    def test_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "trap.ini"
        cfgfile.write_text(GOOD_CONFIG)
        assert run("modes", "--config", str(cfgfile)) == 0


class TestExchange:
    def test_artifacts(self, tmp_path):
        assert run("exchange", "--out", str(tmp_path), "--points", "101", "--t-max-ms", "1") == 0
        lines = (tmp_path / "exchange.csv").read_text().splitlines()
        assert lines[0] == "t_s,p_1a0b,p_0a2b"
        assert len(lines) == 102
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "exchange"
        assert manifest["config_hash"] == "builtin:paper"
        assert manifest["outputs"] == ["exchange.csv"]

    def test_json_format(self, tmp_path):
        assert run("exchange", "--out", str(tmp_path), "--points", "11", "--format", "json") == 0
        rows = json.loads((tmp_path / "exchange.json").read_text())
        assert len(rows) == 11 and "p_1a0b" in rows[0]


class TestCrossingAndShift:
    def test_crossing(self, tmp_path):
        assert run("crossing", "--out", str(tmp_path), "--points", "5", "--manifold-n-max", "2") == 0
        lines = (tmp_path / "crossing.csv").read_text().splitlines()
        assert lines[0] == "delta_hz,branch_index,energy_hz,axial_weight"
        assert len(lines) == 1 + 5 * 4  # manifolds 0..2 hold 4 branches

    def test_shift(self, tmp_path):
        assert run("shift", "--out", str(tmp_path), "--n-max", "3") == 0
        lines = (tmp_path / "shift.csv").read_text().splitlines()
        assert len(lines) == 5
        n, exact, _ = lines[2].split(",")
        assert float(exact) == pytest.approx(-317.6, abs=1.0)


class TestScanAndFit:
    def test_scan_artifact(self, tmp_path):
        thermal = ("--state", "thermal:1.5", "--n-max", "18")
        assert run("scan", "--out", str(tmp_path), *thermal, "--shots", "200") == 0
        sp = Spectrum.read_csv(str(tmp_path / "scan.csv"))
        assert sp.shots_per_point == 200
        assert sp.detuning.size == 161

    def test_round_trip_thermal(self, tmp_path):
        scan_dir = tmp_path / "scan"
        fit_dir = tmp_path / "fit"
        thermal = ("--state", "thermal:1.5", "--n-max", "18")
        assert run("scan", "--out", str(scan_dir), *thermal, "--shots", "400") == 0
        assert (
            run(
                "fit",
                "--out",
                str(fit_dir),
                "--input",
                str(scan_dir / "scan.csv"),
                "--family",
                "thermal",
                "--p0",
                "nbar=1.0",
            )
            == 0
        )
        result = json.loads((fit_dir / "fit.json").read_text())
        assert result["converged"]
        assert result["params"]["nbar"] == pytest.approx(1.5, rel=0.15)
        assert result["eta_hat"] == pytest.approx(0.7, abs=0.05)

    def test_free_fit_preset(self, tmp_path):
        scan_dir = tmp_path / "scan"
        fit_dir = tmp_path / "fit"
        assert (
            run("scan", "--out", str(scan_dir), "--state", "fock10_imperfect", "--shots", "400") == 0
        )
        assert (
            run("fit", "--out", str(fit_dir), "--input", str(scan_dir / "scan.csv"), "--family", "free")
            == 0
        )
        result = json.loads((fit_dir / "fit.json").read_text())
        assert result["p_hat"][10] == pytest.approx(0.80, abs=0.1)

    def test_parametric_fit_without_p0(self, tmp_path):
        scan_dir = tmp_path / "scan"
        fit_dir = tmp_path / "fit"
        thermal = ("--state", "thermal:1.5", "--n-max", "18")
        assert run("scan", "--out", str(scan_dir), *thermal, "--shots", "400") == 0
        args = ["fit", "--out", str(fit_dir), "--input", str(scan_dir / "scan.csv")]
        assert run(*args, "--family", "thermal") == 0
        result = json.loads((fit_dir / "fit.json").read_text())
        assert result["converged"]
        assert result["params"]["nbar"] == pytest.approx(1.5, rel=0.15)

    def test_squeezed_fock_fit_takes_integer_n(self, tmp_path, capsys):
        scan_dir = tmp_path / "scan"
        fit_dir = tmp_path / "fit"
        state = "squeezed_fock:n=1,r=0.4"
        assert run("scan", "--out", str(scan_dir), "--state", state, "--shots", "400") == 0
        args = ["fit", "--out", str(fit_dir), "--input", str(scan_dir / "scan.csv")]
        assert run(*args, "--family", "squeezed_fock", "--p0", "n=1", "r=0.4") == 0
        result = json.loads((fit_dir / "fit.json").read_text())
        assert result["params"]["n"] == 1
        assert result["params"]["r"] == pytest.approx(0.4, abs=0.05)
        assert run(*args, "--family", "squeezed_fock", "--p0", "r=0.4") == 2
        assert "index n" in capsys.readouterr().err

    def test_driven_scan(self, tmp_path):
        assert (
            run(
                "scan",
                "--out",
                str(tmp_path),
                "--driven",
                "--state",
                "fock:1",
                "--points",
                "9",
                "--grid-min-hz",
                "-500",
                "--grid-max-hz",
                "-100",
                "--n-max",
                "6",
            )
            == 0
        )
        sp = Spectrum.read_csv(str(tmp_path / "scan.csv"))
        assert sp.p_up.max() > 0.5  # the n=1 peak at ~ -320 Hz falls in this window

    def test_driven_preset_is_the_population_sum_of_fock_scans(self, tmp_path):
        # the preset enters as populations: its scan is sum_n p_n (scan of |0_a, n_b>)
        grid_hz = ("--grid-min-hz", "-3400", "--grid-max-hz", "-2400", "--points", "41")
        args = ("scan", "--out", str(tmp_path), "--driven", "--eta", "1", "--g", "0", *grid_hz)
        assert run(*args, "--state", "fock10_imperfect") == 0
        got = Spectrum.read_csv(str(tmp_path / "scan.csv"))
        n_b_max = 12 + cli.DRIVEN_N_B_PAD
        cutoff = FockCutoff(1, n_b_max, with_qubit=True)
        params = cli._params_at(paper_trap(), TWO_PI * 14.3e3, cutoff)
        want = sum(
            p_n * driven_scan(
                embed_radial(FockState(np.eye(n_b_max + 1)[n]), FockCutoff(1, n_b_max)),
                params, DriveParams(t_pi=8e-3), got.detuning,
            ).p_up
            for n, p_n in enumerate(fock10_imperfect_preset(n_b_max).p)
        )
        assert np.max(np.abs(got.p_up - want)) < 1e-12
        assert got.p_up.max() > 0.5  # the window holds the n = 8, 9 and 10 peaks

    def test_driven_truncation_names_n_max(self, tmp_path, capsys):
        # thermal:3 leaves (3/4)^19 = 4.2e-3 above n_b = 18; (3/4)^33 < 1e-4 needs n_b = 32
        args = ("scan", "--out", str(tmp_path), "--driven", "--state", "thermal:3", "--points", "3")
        assert run(*args) == 2
        assert "--n-max 26" in capsys.readouterr().err
        assert run(*args, "--n-max", "25") == 2
        assert run(*args, "--n-max", "26") == 0

    def test_scan_truncation_names_n_max(self, tmp_path, capsys):
        # thermal:3 leaves (3/4)^13 = 2.4e-2 above n_b = 12; (3/4)^33 < 1e-4 needs n_b = 32
        args = ("scan", "--out", str(tmp_path), "--state", "thermal:3", "--points", "3")
        assert run(*args) == 2
        assert "--n-max 32" in capsys.readouterr().err
        assert run(*args, "--n-max", "31") == 2
        assert run(*args, "--n-max", "32") == 0

    def test_coherent_truncation_names_n_max(self, tmp_path, capsys):
        # coherent:3 leaves 0.12 above n_b = 12 and 1.8e-4 above 21
        args = ("scan", "--out", str(tmp_path), "--state", "coherent:3", "--points", "3")
        assert run(*args) == 2
        assert "--n-max 22" in capsys.readouterr().err
        assert run(*args, "--n-max", "21") == 2
        assert run(*args, "--n-max", "22") == 0

    def test_squeezed_truncation_names_the_smallest_n_max(self, tmp_path, capsys):
        args = ("scan", "--out", str(tmp_path), "--state", "squeezed_vacuum:1.2", "--points", "3")
        assert run(*args) == 2
        assert "--n-max 42" in capsys.readouterr().err
        assert run(*args, "--n-max", "41") == 2
        assert run(*args, "--n-max", "42") == 0

    def test_driven_squeezed_truncation_names_n_max(self, tmp_path, capsys):
        # the driven cutoff is --n-max + DRIVEN_N_B_PAD, so n_b = 42 needs --n-max 36
        args = ("scan", "--out", str(tmp_path), "--driven", "--state", "squeezed_vacuum:1.2", "--points", "3")
        assert run(*args) == 2
        assert f"--n-max {42 - cli.DRIVEN_N_B_PAD}" in capsys.readouterr().err
        assert run(*args, "--n-max", str(41 - cli.DRIVEN_N_B_PAD)) == 2
        assert run(*args, "--n-max", str(42 - cli.DRIVEN_N_B_PAD)) == 0

    def test_tail_check_builds_no_state(self, tmp_path, capsys, monkeypatch):
        # thermal:100 needs --n-max 925; the check and the search read populations
        # only, so no (m + 1)^2 density matrix is built on the way there
        def refuse(data):
            raise AssertionError(f"FockState of shape {np.shape(data)} built")

        monkeypatch.setattr(cli, "FockState", refuse)
        assert run("scan", "--out", str(tmp_path), "--state", "thermal:100", "--points", "3") == 2
        assert "--n-max 925" in capsys.readouterr().err

    def test_n_max_search_is_logarithmic(self, tmp_path, capsys, monkeypatch):
        # the tail only falls with the cutoff, so doubling then bisecting finds
        # the smallest --n-max in about 2 log2(92108 / 13) population calls
        calls = []

        def counted(spec, n_max):
            calls.append(n_max)
            return distribution(spec, n_max)

        monkeypatch.setattr(cli, "distribution", counted)
        assert run("scan", "--out", str(tmp_path), "--state", "thermal:10000", "--points", "3") == 2
        assert "use --n-max 92108" in capsys.readouterr().err
        assert len(calls) <= 40

    def test_non_finite_state_rejected(self, tmp_path, capsys):
        assert run("scan", "--out", str(tmp_path), "--state", "coherent:nan", "--points", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert not (tmp_path / "scan.csv").exists()

    def test_fit_eta_outside_unit_interval_rejected(self, tmp_path, capsys):
        assert run("scan", "--out", str(tmp_path), "--points", "41") == 0
        args = ("fit", "--out", str(tmp_path), "--input", str(tmp_path / "scan.csv"))
        assert run(*args, "--eta", "1.5") == 2
        assert "eta" in capsys.readouterr().err
        assert run(*args, "--eta", "1.0") == 0

    def test_free_eta_fit_json_is_strict(self, tmp_path):
        # sigma_eta is infinite, and JSON has no infinity: it is written as null
        assert run("scan", "--out", str(tmp_path), "--shots", "400") == 0
        args = ("fit", "--out", str(tmp_path), "--input", str(tmp_path / "scan.csv"))
        assert run(*args, "--family", "free", "--eta", "free") == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        result = json.loads((tmp_path / "fit.json").read_text(), parse_constant=reject)
        assert result["param_sigma"]["eta"] is None
        assert isinstance(result["param_sigma"]["p_0"], float)

    @pytest.mark.parametrize("points", ["1", "5"])
    def test_fit_of_too_few_points_is_unidentifiable(self, tmp_path, points):
        # fewer points than the 12 free-fit parameters: every sigma is unbounded
        assert run("scan", "--out", str(tmp_path), "--points", points, "--shots", "400") == 0
        args = ("fit", "--out", str(tmp_path), "--input", str(tmp_path / "scan.csv"))
        families = ("free", "thermal") if points == "1" else ("free",)
        for family in families:
            assert run(*args, "--family", family) == 0
            result = json.loads((tmp_path / "fit.json").read_text())
            assert result["degenerate"] is True
            assert set(result["param_sigma"].values()) == {None}

    def test_effective_second_order_refused(self, tmp_path, capsys):
        # the effective model knows the first sideband only; it used to ignore --order
        args = ("scan", "--out", str(tmp_path), "--state", "thermal:1.5", "--n-max", "18")
        assert run(*args, "--order", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "scan.csv").exists()

    def test_scan_json_rows_match_csv(self, tmp_path):
        for fmt in ("csv", "json"):
            args = ("scan", "--out", str(tmp_path), "--shots", "400", "--points", "9")
            assert run(*args, "--format", fmt) == 0
        rows = json.loads((tmp_path / "scan.json").read_text())
        lines = (tmp_path / "scan.csv").read_text().splitlines()
        assert lines[0] == ",".join(rows[0])
        assert lines[1:] == [",".join(str(v) for v in row.values()) for row in rows]

    def test_driven_scan_checks_eta_and_g(self, tmp_path, capsys):
        # the driven path detects through the same checked g + eta p as the effective model
        grid_hz = ("--points", "3", "--grid-min-hz", "500", "--grid-max-hz", "1500")
        for grid in (grid_hz, ("--points", "3")):
            args = ("scan", "--out", str(tmp_path), "--driven", "--eta", "0.9", "--g", "0.3", *grid)
            assert run(*args) == 2
            err = capsys.readouterr().err
            assert err == "error: need 0 <= eta <= 1, g >= 0, g + eta <= 1; got eta=0.9, g=0.3\n"
            assert not (tmp_path / "scan.csv").exists()

    def test_unconverged_fit_exits_1_with_its_artifacts(self, tmp_path, capsys, monkeypatch):
        fit = cli.fit_parametric

        def unconverged(*args):
            return dataclasses.replace(fit(*args), converged=False)

        monkeypatch.setattr(cli, "fit_parametric", unconverged)
        assert run("scan", "--out", str(tmp_path), "--points", "41") == 0
        args = ("fit", "--out", str(tmp_path), "--input", str(tmp_path / "scan.csv"))
        assert run(*args, "--family", "thermal") == 1
        assert json.loads((tmp_path / "fit.json").read_text())["converged"] is False
        assert json.loads((tmp_path / "manifest.json").read_text())["outputs"] == ["fit.json"]
        err = capsys.readouterr().err
        assert err.startswith("warning:") and err.count("\n") == 1

    def test_second_order_flag(self, tmp_path):
        assert (
            run(
                "scan",
                "--out",
                str(tmp_path),
                "--order",
                "2",
                "--driven",
                "--state",
                "fock:0",
                "--points",
                "5",
            )
            == 0
        )


class TestShots:
    def test_perfect_detection_on_fock(self, tmp_path):
        assert (
            run(
                "shots",
                "--out",
                str(tmp_path),
                "--state",
                "fock:3",
                "--target-n",
                "3",
                "--eta",
                "1.0",
                "--num-shots",
                "200",
            )
            == 0
        )
        summary = json.loads((tmp_path / "shots_summary.json").read_text())
        assert summary["bright_fraction"] == 1.0
        log = (tmp_path / "shots.log").read_text().splitlines()
        assert len(log) == 200
        assert log[0].startswith("3 bright")

    def test_empirical_rate(self, tmp_path):
        assert (
            run(
                "shots",
                "--out",
                str(tmp_path),
                "--state",
                "coherent:1.0+0i",
                "--target-n",
                "0",
                "--eta",
                "0.7",
                "--num-shots",
                "2000",
            )
            == 0
        )
        summary = json.loads((tmp_path / "shots_summary.json").read_text())
        se = np.sqrt(summary["expected_bright"] * (1 - summary["expected_bright"]) / 2000)
        assert abs(summary["bright_fraction"] - summary["expected_bright"]) < 4 * se

    def test_truncation_names_n_max(self, tmp_path, capsys):
        # thermal:10 leaves (10/11)^6 = 0.56 above n_b = 5; (10/11)^97 < 1e-4 needs n_b = 96
        args = ("shots", "--out", str(tmp_path), "--state", "thermal:10", "--num-shots", "10")
        assert run(*args, "--n-max", "5") == 2
        assert "--n-max 96" in capsys.readouterr().err
        assert run(*args, "--n-max", "95") == 2
        assert run(*args, "--n-max", "96") == 0


class TestWalk:
    def test_artifact(self, tmp_path):
        assert run("walk", "--out", str(tmp_path), "--pulses", "4", "--trajectories", "500") == 0
        lines = (tmp_path / "walk.csv").read_text().splitlines()
        assert lines[0] == "n,probability"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=0.01)


class TestErrorsAndDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("exchange", "--points", "0"),
            ("crossing", "--manifold-n-max", "-1"),
            ("shots", "--num-shots", "0"),
            ("walk", "--trajectories", "0"),
            ("walk", "--pulses", "0"),
            ("scan", "--points", "many"),
            ("scan", "--t-pi-ms", "inf"),
            ("scan", "--grid-min-hz", "nan"),
            ("walk", "--step-alpha", "nan"),
            ("exchange", "--t-max-ms", "nan"),
            ("fit", "--n-max", "-1", "--input", "scan.csv"),
            ("shift", "--n-max", "-1"),
        ],
        ids=[
            "points", "manifold-n-max", "num-shots", "trajectories", "pulses", "non-integer",
            "t-pi-ms", "grid-min-hz", "step-alpha", "t-max-ms", "fit-n-max", "shift-n-max",
        ],
    )
    def test_empty_run_rejected(self, tmp_path, capsys, argv):
        assert exit_code(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {argv[1]}:") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_every_float_flag_is_checked_finite(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for name, sub in commands.choices.items():
            for action in sub._actions:
                if isinstance(action.default, float):
                    assert action.type is cli._finite, f"{name} {action.option_strings}"
                if action.dest == "n_max":
                    assert action.type("0") == 0
                    with pytest.raises(argparse.ArgumentTypeError):
                        action.type("-1")

    def test_infeasible_config_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "trap.ini"
        cfgfile.write_text("[trap]\nomega_x_hz = 500e3\nomega_y_hz = 979e3\nomega_z_hz = 587e3\n")
        assert run("modes", "--config", str(cfgfile)) == 2
        assert "omega_x" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        assert run("fit", "--out", str(tmp_path), "--input", str(bad)) == 2
        assert "header" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert run("modes", "--config", str(tmp_path / "none.ini")) == 2

    def test_scan_byte_identical_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert (
                run("scan", "--out", str(d), "--state", "thermal:1.0", "--n-max", "13",
                    "--shots", "150", "--seed", "7")
                == 0
            )
        assert (d1 / "scan.csv").read_bytes() == (d2 / "scan.csv").read_bytes()

    def test_walk_byte_identical_across_runs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert (
                run("walk", "--out", str(d), "--pulses", "3", "--trajectories", "300", "--seed", "9")
                == 0
            )
        assert (d1 / "walk.csv").read_bytes() == (d2 / "walk.csv").read_bytes()

    def test_seed_changes_noisy_output(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run("scan", "--out", str(d1), "--shots", "150", "--seed", "1")
        run("scan", "--out", str(d2), "--shots", "150", "--seed", "2")
        assert (d1 / "scan.csv").read_bytes() != (d2 / "scan.csv").read_bytes()

    def test_manifest_records_config_hash(self, tmp_path):
        cfgfile = tmp_path / "trap.ini"
        cfgfile.write_text(GOOD_CONFIG)
        run("shift", "--out", str(tmp_path), "--config", str(cfgfile))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["config_hash"]) == 64
        assert manifest["tool_version"]
