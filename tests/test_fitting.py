"""Peak-center, parametric, and free-distribution fits with calibrated errors."""

import numpy as np
import pytest

from scipy.optimize import least_squares, minimize

from ionkerr.fitting import (
    _FAMILY_BOUNDS,
    _FAMILY_PARAMS,
    _FAMILY_START,
    _PARAM_SCALES,
    MAX_ITER,
    WEIGHT_FLOOR,
    FitError,
    _onto_simplex,
    _sigma_from_jacobian,
    fit_free_distribution,
    fit_parametric,
    fit_peak_center,
    point_sigmas,
)
from ionkerr.spectra import (
    DriveParams,
    SpectroscopyError,
    Spectrum,
    add_shot_noise,
    lineshape,
    model_spectrum,
    peak_positions,
    response_basis,
)
from ionkerr.states import (
    PhononDistribution,
    StatePrepError,
    StateSpec,
    distribution,
    fock10_imperfect_preset,
    parse_state_spec,
)
from ionkerr.trap import TWO_PI


def clipped_curve(grid, p, centers, drive, eta, g):
    """The multi-peak curve as the earlier fits modelled it: a loop over the
    peaks, clipped to [0, 1]."""
    out = np.full(grid.shape, float(g))
    for p_n, w_n in zip(p, centers):
        if p_n != 0.0:
            out += eta * p_n * lineshape(grid - w_n, drive)
    return np.clip(out, 0.0, 1.0)


def slsqp_free_fit(spec, centers, drive, n_max, eta=0.7, g0=0.02):
    """Reference free fit: SLSQP over (p, g[, eta]) with the simplex constraint
    held to its tolerance, one restart after a line-search stop, and one
    reweighting pass.  Returns (p, g, eta)."""
    centers = np.asarray(centers, dtype=float)[: n_max + 1]
    sig = point_sigmas(spec)
    fit_eta = eta is None
    basis = np.stack([lineshape(spec.detuning - c, drive) for c in centers], axis=1)

    def split(th):
        return th[: n_max + 1], th[n_max + 1], (th[n_max + 2] if fit_eta else eta)

    def curve(th):
        p, g, e = split(th)
        return g + e * basis @ p

    def objective(th):
        r = (curve(th) - spec.p_up) / sig
        return float(r @ r)

    def gradient(th):
        p, g, e = split(th)
        wr = (curve(th) - spec.p_up) / sig**2
        grad = np.empty_like(th)
        grad[: n_max + 1] = 2 * e * basis.T @ wr
        grad[n_max + 1] = 2 * wr.sum()
        if fit_eta:
            grad[n_max + 2] = 2 * (basis @ p) @ wr
        return grad

    x0 = np.concatenate([np.full(n_max + 1, 1.0 / (n_max + 2)), [g0]])
    bounds = [(0.0, 1.0)] * (n_max + 1) + [(0.0, 0.5)]
    constraints = [{"type": "ineq", "fun": lambda th: 1.0 - th[: n_max + 1].sum()}]
    if fit_eta:
        x0 = np.append(x0, 0.7)
        bounds.append((0.0, 1.0))
        constraints.append({"type": "ineq", "fun": lambda th: 1.0 - th[n_max + 1] - th[n_max + 2]})
    opts = {"maxiter": MAX_ITER, "ftol": 1e-10}

    def solve(start):
        kw = dict(jac=gradient, bounds=bounds, constraints=constraints, method="SLSQP", options=opts)
        res = minimize(objective, start, **kw)
        if not res.success:
            res2 = minimize(objective, res.x, **kw)
            if res2.fun < res.fun:
                res = res2
        return res

    res = solve(x0)
    if spec.shots_per_point is not None:
        fitted = np.clip(curve(res.x), 0.0, 1.0)
        sig = np.sqrt(np.maximum(fitted * (1 - fitted) / spec.shots_per_point, WEIGHT_FLOOR))
        res = solve(res.x)
    return split(res.x)


def fd_parametric_fit(spec, family, params0, centers, drive, eta0=0.7, g0=0.02):
    """Reference parametric fit: least_squares with finite-difference Jacobians
    on the clipped curve, one reweighting pass.  Returns (estimates, sigmas)."""
    names = _FAMILY_PARAMS[family]
    n_fixed = params0.get("n")
    n_max = len(centers) - 1
    x0 = [float(params0.get(k, _FAMILY_START[k])) for k in names] + [eta0, g0]
    lo = [_FAMILY_BOUNDS[k][0] for k in names] + [0.0, 0.0]
    hi = [_FAMILY_BOUNDS[k][1] for k in names] + [1.0, 0.5]

    def curve(theta):
        values = dict(zip(names, theta[: len(names)]))
        if n_fixed is not None:
            values["n"] = n_fixed
        p = distribution(StateSpec(family, values), n_max).p
        return clipped_curve(spec.detuning, p, centers, drive, theta[-2], theta[-1])

    def solve(start, sig):
        return least_squares(
            lambda th: (curve(th) - spec.p_up) / sig, x0=start, bounds=(lo, hi),
            xtol=1e-12, ftol=1e-14, gtol=1e-12, max_nfev=MAX_ITER * 8,
        )

    res = solve(x0, point_sigmas(spec))
    fitted = curve(res.x)
    res = solve(res.x, np.sqrt(np.maximum(fitted * (1 - fitted) / spec.shots_per_point, WEIGHT_FLOOR)))
    param_names = names + ["eta", "g"]
    sigma, _, _ = _sigma_from_jacobian(
        res.jac, res.fun, len(res.x), known_noise=True,
        param_scales=np.array([_PARAM_SCALES[k] for k in param_names]),
    )
    return dict(zip(param_names, res.x)), dict(zip(param_names, sigma))


@pytest.fixture(scope="module")
def thermal_spectrum(params_143, drive, grid):
    dist = distribution(StateSpec("thermal", {"nbar": 1.5}), 10)
    return model_spectrum(dist, params_143, drive, grid, eta=0.7, g=0.02)


class TestForwardModel:
    @pytest.mark.parametrize(
        "text", ["fock:0", "thermal:1.5", "coherent:1.2", "squeezed_thermal:nbar=0.8,r=0.4"]
    )
    def test_model_spectrum_matches_peak_loop(self, text, params_143, drive, grid, centers_10):
        dist = distribution(parse_state_spec(text), 10)
        sp = model_spectrum(dist, params_143, drive, grid, eta=0.7, g=0.02)
        want = clipped_curve(grid, dist.p, centers_10, drive, 0.7, 0.02)
        assert np.max(np.abs(sp.p_up - want)) < 1e-15

    def test_effective_model_is_first_order(self, grid, centers_10):
        with pytest.raises(SpectroscopyError, match="first sideband"):
            response_basis(grid, centers_10, DriveParams(t_pi=8e-3, order=2))


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

    @pytest.mark.parametrize("shots, seed", [(100, 1), (400, 2)])
    @pytest.mark.parametrize("family", sorted(TRUTHS))
    def test_matches_finite_difference_oracle(
        self, family, shots, seed, params_143, drive, grid, centers_10
    ):
        truth = self.TRUTHS[family]
        dist = distribution(StateSpec(family, truth), 10)
        clean = model_spectrum(dist, params_143, drive, grid, eta=0.7, g=0.02)
        sp = add_shot_noise(clean, shots, seed)
        start = {k: (v * 1.3 if k != "n" else v) for k, v in truth.items()}
        res = fit_parametric(sp, family, start, centers_10, drive)
        want, want_sigma = fd_parametric_fit(sp, family, start, centers_10, drive)
        got = dict(res.params, eta=res.eta_hat, g=res.g_hat)
        for k, v in want.items():
            assert got[k] == pytest.approx(v, rel=1e-6)
            assert res.param_sigma[k] == pytest.approx(want_sigma[k], rel=1e-6)

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

    def test_fock10_sweep_matches_slsqp(self, params_143, drive, grid, centers_10):
        # the exact solve holds sum(p) <= 1 in float, which SLSQP held only to
        # its tolerance, and finds the same populations
        clean = model_spectrum(fock10_imperfect_preset(10), params_143, drive, grid, eta=0.7, g=0.02)
        worst = 0.0
        for seed in range(300):
            sp = add_shot_noise(clean, 100, seed)
            p = fit_free_distribution(sp, centers_10, drive, 10, eta=0.7).p_hat.p
            assert np.all(p >= 0) and p.sum() <= 1.0, seed
            worst = max(worst, np.max(np.abs(p - slsqp_free_fit(sp, centers_10, drive, 10)[0])))
        assert worst < 1e-5

    def test_free_eta_is_unidentifiable(self, params_143, drive, grid, centers_10):
        # the data fix only q = eta p: eta is reported as its bound sum(q), and
        # its 1-sigma is infinite
        truth = distribution(StateSpec("thermal", {"nbar": 1.0}), 10)
        sp = add_shot_noise(model_spectrum(truth, params_143, drive, grid, eta=0.6, g=0.02), 400, 5)
        res = fit_free_distribution(sp, centers_10, drive, 10, eta=None)
        assert res.degenerate
        assert res.param_sigma["eta"] == np.inf
        direction = res.degenerate_direction
        assert direction["eta"] < 0 and direction["p_0"] == pytest.approx(
            -direction["eta"] * res.p_hat.p[0] / res.eta_hat
        )
        assert res.p_hat.p.sum() <= 1.0
        p, _, eta = slsqp_free_fit(sp, centers_10, drive, 10, eta=None)
        assert np.max(np.abs(res.eta_hat * res.p_hat.p - eta * p)) < 1e-5

    def test_free_eta_population_sigma_matches_constrained_parameters(
        self, params_143, drive, grid, centers_10
    ):
        # the 1-sigma of p = q / sum(q) equals that of a fit over (p_1..p_10, eta, g)
        # with p_0 = 1 - sum of the rest, the same model in other coordinates
        # (unit weights and one pass, so both sides see the same residuals)
        truth = distribution(StateSpec("thermal", {"nbar": 1.0}), 10)
        noisy = add_shot_noise(model_spectrum(truth, params_143, drive, grid, eta=0.6, g=0.02), 400, 5)
        res = fit_free_distribution(Spectrum(grid, noisy.p_up), centers_10, drive, 10, eta=None)
        B = response_basis(grid, centers_10, drive)
        J = np.column_stack([res.eta_hat * (B[:, 1:] - B[:, :1]), B @ res.p_hat.p, np.ones(len(B))])
        rss = res.residuals @ res.residuals
        cov = np.linalg.inv(J.T @ J) * rss / (len(grid) - J.shape[1])
        want = np.sqrt(np.append(cov[:10, :10].sum(), np.diag(cov)[:10]))
        got = np.array([res.param_sigma[f"p_{n}"] for n in range(11)])
        assert np.max(np.abs(got / want - 1)) < 1e-8
        assert res.param_sigma["g"] == pytest.approx(np.sqrt(cov[-1, -1]), rel=1e-8)

    def test_free_eta_on_dark_data_sees_no_population(self, drive, grid, centers_10):
        # eta_hat = 0 exactly: p = q / eta is undefined, so every p_n is unbounded
        dark = Spectrum(grid, np.zeros(grid.size), shots_per_point=400)
        res = fit_free_distribution(dark, centers_10, drive, 10, eta=None)
        assert res.eta_hat == 0 and not res.p_hat.p.any()
        assert all(res.param_sigma[f"p_{n}"] == np.inf for n in range(11))

    def test_simplex_guard_holds_in_float(self):
        # p / sum(p) sums to 1 + 2.2e-16 here; the guard steps it down
        p = np.array([0.04546790658470145, 0.11666322392035021, 0.1567019038374162,
                      0.02105578652054861, 0.14358147955511777, 0.009872993936913717,
                      0.06322035745461753, 0.07135654988870169, 0.08116501256737578,
                      0.16212468057888482, 0.1287901061553724])
        assert (p / p.sum()).sum() > 1
        guarded = _onto_simplex(p)
        assert guarded.sum() <= 1 and np.all(guarded >= 0)
        assert np.max(np.abs(guarded - p / p.sum())) < 1e-15

    def test_populations_beyond_the_window(self, params_143, drive, grid):
        # peaks n >= 19 lie beyond the scan: the design matrix is rank deficient,
        # and the solve must still reach SLSQP's fit instead of amplifying noise
        centers = peak_positions(params_143, 40)
        vacuum = distribution(StateSpec("fock", {"n": 0}), 12)
        sp = add_shot_noise(model_spectrum(vacuum, params_143, drive, grid, eta=0.7, g=0.02), 400, 1)
        res = fit_free_distribution(sp, centers, drive, 40, eta=0.7)
        p, g, _ = slsqp_free_fit(sp, centers, drive, 40)
        want = np.sqrt(np.mean((g + 0.7 * response_basis(grid, centers, drive) @ p - sp.p_up) ** 2))
        assert res.residual_rms == pytest.approx(want, rel=1e-4)
        assert res.p_hat.p.sum() <= 1 and res.param_sigma["p_40"] == np.inf

    def test_eta_outside_unit_interval_rejected(self, thermal_spectrum, drive, centers_10):
        with pytest.raises(FitError, match="eta"):
            fit_free_distribution(thermal_spectrum, centers_10, drive, 10, eta=1.5)

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

    def test_json_artifact_writes_infinite_sigma_as_null(
        self, thermal_spectrum, drive, centers_10, tmp_path
    ):
        res = fit_free_distribution(thermal_spectrum, centers_10, drive, 10, eta=0.7)
        res.param_sigma["p_3"] = np.inf
        path = tmp_path / "fit.json"
        res.to_json(str(path))
        assert "Infinity" not in path.read_text()
        import json

        assert json.loads(path.read_text())["param_sigma"]["p_3"] is None
