"""Peak-center, parametric, and free-distribution fits with calibrated errors."""

import numpy as np
import pytest

from ionkerr.fitting import (
    FitError,
    fit_free_distribution,
    fit_parametric,
    fit_peak_center,
    point_sigmas,
)
from ionkerr.spectra import Spectrum, add_shot_noise, lineshape, model_spectrum
from ionkerr.states import (
    PhononDistribution,
    StatePrepError,
    StateSpec,
    distribution,
    fock10_imperfect_preset,
)
from ionkerr.trap import TWO_PI


@pytest.fixture(scope="module")
def thermal_spectrum(params_143, drive, grid):
    dist = distribution(StateSpec("thermal", {"nbar": 1.5}), 10)
    return model_spectrum(dist, params_143, drive, grid, eta=0.7, g=0.02)


class TestPointSigmas:
    def test_unit_when_shots_unknown(self, grid):
        sp = Spectrum(grid, np.full(grid.size, 0.3))
        assert np.all(point_sigmas(sp) == 1.0)

    def test_binomial_with_floor(self, grid):
        sp = Spectrum(grid, np.concatenate([np.zeros(80), np.full(81, 0.5)]), shots_per_point=100)
        sig = point_sigmas(sp)
        assert sig[0] == pytest.approx(1e-2)  # floor at sqrt(1e-4)
        assert sig[-1] == pytest.approx(np.sqrt(0.25 / 100))


class TestPeakCenter:
    def make(self, drive, center, seed=None, shots=None):
        g = TWO_PI * np.linspace(-400.0, 400.0, 81)
        sp = Spectrum(g, 0.02 + 0.7 * lineshape(g - center, drive))
        if shots:
            sp = add_shot_noise(sp, shots, seed)
        return sp

    def test_noiseless_recovery(self, drive):
        truth = TWO_PI * 37.0
        sp = self.make(drive, truth)
        center, sigma, converged = fit_peak_center(sp, drive, (-TWO_PI * 400, TWO_PI * 400))
        assert converged
        assert center == pytest.approx(truth, abs=TWO_PI * 0.01)

    def test_sigma_calibration(self, drive):
        # ~95% of noisy fits land within 3 sigma of the truth
        truth = TWO_PI * 10.0
        window = (-TWO_PI * 400, TWO_PI * 400)
        hits = 0
        n_rep = 300
        for seed in range(n_rep):
            sp = self.make(drive, truth, seed=seed, shots=200)
            center, sigma, converged = fit_peak_center(sp, drive, window)
            hits += converged and abs(center - truth) <= 3 * sigma
        assert hits / n_rep >= 0.93

    def test_peak_outside_window_flagged(self, drive):
        sp = self.make(drive, TWO_PI * 350.0)
        _, _, converged = fit_peak_center(sp, drive, (-TWO_PI * 400, TWO_PI * 0.0))
        assert not converged

    def test_flat_data_rejected(self, drive):
        g = TWO_PI * np.linspace(-400.0, 400.0, 81)
        sp = Spectrum(g, np.full(81, 0.3))
        with pytest.raises(FitError, match="flat"):
            fit_peak_center(sp, drive, (g[0], g[-1]))

    def test_too_few_points_rejected(self, drive):
        g = TWO_PI * np.linspace(-400.0, 400.0, 81)
        sp = Spectrum(g, 0.5 * lineshape(g, drive))
        with pytest.raises(FitError, match="7"):
            fit_peak_center(sp, drive, (0.0, TWO_PI * 40.0))


class TestParametric:
    TRUTHS = {
        "coherent": {"alpha": 1.2},
        "thermal": {"nbar": 1.5},
        "squeezed_vacuum": {"r": 0.6},
        "squeezed_thermal": {"nbar": 0.8, "r": 0.4},
        "squeezed_fock": {"n": 1, "r": 0.5},
    }

    @pytest.mark.parametrize("family", sorted(TRUTHS))
    def test_noiseless_round_trip(self, family, params_143, drive, grid, centers_10):
        truth = self.TRUTHS[family]
        dist = distribution(StateSpec(family, truth), 10)
        sp = model_spectrum(dist, params_143, drive, grid, eta=0.7, g=0.02)
        start = {k: (v * 1.3 if k != "n" else v) for k, v in truth.items()}
        res = fit_parametric(sp, family, start, centers_10, drive, eta0=0.5, g0=0.05)
        assert res.converged and not res.degenerate
        for k, v in truth.items():
            if k != "n":
                assert res.params[k] == pytest.approx(v, rel=1e-4)
        assert res.eta_hat == pytest.approx(0.7, abs=1e-4)
        assert res.g_hat == pytest.approx(0.02, abs=1e-4)

    def test_unknown_family_rejected(self, thermal_spectrum, drive, centers_10):
        with pytest.raises(FitError, match="family"):
            fit_parametric(thermal_spectrum, "gaussian", {}, centers_10, drive)

    def test_sigma_reported_for_all_parameters(self, thermal_spectrum, drive, centers_10):
        noisy = add_shot_noise(thermal_spectrum, 200, 0)
        res = fit_parametric(noisy, "thermal", {"nbar": 1.0}, centers_10, drive)
        assert set(res.param_sigma) == {"nbar", "eta", "g"}
        assert all(s > 0 for s in res.param_sigma.values())

    def test_coverage_calibrated(self, thermal_spectrum, drive, centers_10):
        # 1-sigma interval coverage should sit near the nominal 68%
        hits = 0
        n_rep = 200
        for seed in range(n_rep):
            noisy = add_shot_noise(thermal_spectrum, 200, seed)
            res = fit_parametric(noisy, "thermal", {"nbar": 1.5}, centers_10, drive)
            hits += abs(res.params["nbar"] - 1.5) <= res.param_sigma["nbar"]
        assert 0.60 <= hits / n_rep <= 0.75

    def test_single_visible_peak_flagged_degenerate(self, params_143, drive, centers_10):
        # a window holding only the n=0 peak cannot separate eta from the
        # population amplitude
        grid0 = TWO_PI * np.linspace(-100.0, 100.0, 61)
        dist = distribution(StateSpec("coherent", {"alpha": 0.05}), 10)
        sp = add_shot_noise(model_spectrum(dist, params_143, drive, grid0, eta=0.7, g=0.02), 200, 2)
        res = fit_parametric(sp, "coherent", {"alpha": 0.05}, centers_10, drive)
        assert res.degenerate
        assert res.degenerate_direction is not None
        worst = max(res.degenerate_direction, key=lambda k: abs(res.degenerate_direction[k]))
        assert worst == "alpha"

    def test_squeezed_fock_index_held_fixed(self, params_143, drive, grid, centers_10):
        dist = distribution(StateSpec("squeezed_fock", {"n": 2, "r": 0.3}), 10)
        sp = model_spectrum(dist, params_143, drive, grid, eta=0.7, g=0.02)
        res = fit_parametric(sp, "squeezed_fock", {"n": 2, "r": 0.5}, centers_10, drive)
        assert res.params["n"] == 2
        assert res.params["r"] == pytest.approx(0.3, rel=1e-3)

    def test_squeezed_fock_rejects_float_index(self, thermal_spectrum, drive, centers_10):
        with pytest.raises(StatePrepError, match="integer Fock index n"):
            fit_parametric(thermal_spectrum, "squeezed_fock", {"n": 1.0, "r": 0.5}, centers_10, drive)

    def test_residual_rms_small_noiseless(self, thermal_spectrum, drive, centers_10):
        res = fit_parametric(thermal_spectrum, "thermal", {"nbar": 1.0}, centers_10, drive)
        assert res.residual_rms < 1e-8


class TestFreeDistribution:
    def test_noiseless_recovery(self, params_143, drive, grid, centers_10):
        truth = distribution(StateSpec("thermal", {"nbar": 1.0}), 10)
        sp = model_spectrum(truth, params_143, drive, grid, eta=0.7, g=0.02)
        res = fit_free_distribution(sp, centers_10, drive, 10, eta=0.7)
        assert res.converged
        assert np.max(np.abs(res.p_hat.p - truth.p)) < 1e-5
        assert res.g_hat == pytest.approx(0.02, abs=1e-5)

    def test_noisy_total_variation(self, params_143, drive, grid, centers_10):
        truth = fock10_imperfect_preset(10)
        sp = add_shot_noise(model_spectrum(truth, params_143, drive, grid, eta=0.7, g=0.02), 400, 3)
        res = fit_free_distribution(sp, centers_10, drive, 10, eta=0.7)
        tvd = 0.5 * np.sum(np.abs(res.p_hat.p - truth.p))
        assert res.converged
        assert tvd < 0.1

    def test_eta_fitted_when_free(self, params_143, drive, grid, centers_10):
        truth = distribution(StateSpec("thermal", {"nbar": 1.0}), 10)
        sp = model_spectrum(truth, params_143, drive, grid, eta=0.6, g=0.02)
        res = fit_free_distribution(sp, centers_10, drive, 10, eta=None)
        assert "eta" in res.param_sigma
        assert res.eta_hat * res.p_hat.p[0] == pytest.approx(0.6 * truth.p[0], rel=1e-3)

    def test_simplex_constraints_respected(self, params_143, drive, grid, centers_10):
        truth = fock10_imperfect_preset(10)
        sp = add_shot_noise(model_spectrum(truth, params_143, drive, grid, eta=0.7, g=0.02), 100, 7)
        res = fit_free_distribution(sp, centers_10, drive, 10, eta=0.7)
        assert np.all(res.p_hat.p >= 0) and np.all(res.p_hat.p <= 1)
        assert res.p_hat.p.sum() <= 1 + 1e-9

    def test_center_count_checked(self, thermal_spectrum, drive, centers_10):
        with pytest.raises(FitError, match="centers"):
            fit_free_distribution(thermal_spectrum, centers_10[:4], drive, 10, eta=0.7)

    def test_unresolvable_peaks_warned(self, params_143, grid, centers_10):
        from ionkerr.spectra import DriveParams

        short = DriveParams(t_pi=1e-3)  # FWHM ~ 800 Hz > 320 Hz spacing
        truth = distribution(StateSpec("thermal", {"nbar": 1.0}), 10)
        sp = model_spectrum(truth, params_143, short, grid, eta=0.7, g=0.02)
        res = fit_free_distribution(sp, centers_10, short, 10, eta=0.7)
        assert any("FWHM" in w for w in res.warnings)

    def test_population_missing_from_window_flagged(self, params_143, drive, centers_10):
        # restrict the scan to the n >= 3 peaks: p_0 is then unidentifiable
        gridw = np.sort(centers_10[2] - TWO_PI * 150.0 - TWO_PI * np.linspace(0.0, 2600.0, 120))
        truth = fock10_imperfect_preset(10)
        sp = add_shot_noise(model_spectrum(truth, params_143, drive, gridw, eta=0.7, g=0.02), 200, 1)
        res = fit_free_distribution(sp, centers_10, drive, 10, eta=0.7)
        assert res.degenerate
        assert res.param_sigma["p_0"] > 1.0

    def test_json_artifact(self, params_143, drive, grid, centers_10, tmp_path):
        truth = distribution(StateSpec("thermal", {"nbar": 1.0}), 10)
        sp = model_spectrum(truth, params_143, drive, grid, eta=0.7, g=0.02)
        res = fit_free_distribution(sp, centers_10, drive, 10, eta=0.7)
        path = tmp_path / "fit.json"
        res.to_json(str(path))
        import json

        payload = json.loads(path.read_text())
        assert payload["converged"] is True
        assert len(payload["p_hat"]) == 11
