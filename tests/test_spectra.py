"""Sideband lineshape, effective multi-peak model, driven scans, and shot noise."""

import numpy as np
import pytest

from ionkerr.dynamics import CoupledModeParams, dressed_energy
from ionkerr.fock import FockCutoff, FockState, annihilation_op, basis_index, number_op
from ionkerr.spectra import (
    DriveParams,
    SpectroscopyError,
    Spectrum,
    add_shot_noise,
    driven_scan,
    lineshape,
    lineshape_fwhm,
    model_spectrum,
    peak_positions,
)
from ionkerr.states import StateSpec, distribution, embed_radial, prepare
from ionkerr.trap import TWO_PI


def dense_driven_scan(initial, params, drive, grid, axis_reference="dressed"):
    """Reference driven scan: the whole truncated qubit + two-mode Hamiltonian,
    built from Kronecker operators and diagonalised densely at each detuning.
    It equals the exact scan when params.cutoff holds every M-block that the
    initial state touches."""
    cutoff = params.cutoff
    motional_dim = cutoff.dim_a * cutoff.dim_b
    a = annihilation_op(cutoff, "a")
    b = annihilation_op(cutoff, "b")
    n_a = number_op(cutoff, "a")
    n_b = number_op(cutoff, "b")
    coupling = a.conj().T @ b @ b
    coupling = coupling + coupling.conj().T
    k = drive.order
    a_k = np.linalg.matrix_power(a, k)
    sigma_plus = np.kron([[0.0, 0.0], [1.0, 0.0]], np.eye(motional_dim))  # |up><down|, qubit slowest
    drive_term = 0.5 * drive.drive_rabi * (sigma_plus @ a_k.conj().T)
    drive_term = drive_term + drive_term.conj().T
    up_slice = slice(motional_dim, 2 * motional_dim)
    ref = 0.0
    if axis_reference == "dressed":
        ref = dressed_energy(params.delta, params.xi, k, 0) - dressed_energy(
            params.delta, params.xi, 0, 0
        )
    down = np.array([1.0, 0.0])
    rho0 = np.kron(np.outer(down, down), initial.density())
    p_up = np.empty(len(grid))
    for i, det in enumerate(grid):
        frame = -(det + ref) / k
        H = frame * n_a + 0.5 * (params.delta + frame) * n_b + params.xi * coupling + drive_term
        vals, vecs = np.linalg.eigh(H)
        U = (vecs * np.exp(-1j * vals * drive.t_pi)) @ vecs.conj().T
        rho = U @ rho0 @ U.conj().T
        p_up[i] = np.real(np.trace(rho[up_slice, up_slice]))
    return np.clip(p_up, 0.0, 1.0)


class TestDriveParams:
    def test_rabi(self):
        d = DriveParams(t_pi=8e-3)
        assert d.rabi == pytest.approx(np.pi / 8e-3)
        assert d.drive_rabi == d.rabi

    def test_second_order_strength_override(self):
        d = DriveParams(t_pi=8e-3, order=2, rabi2=100.0)
        assert d.drive_rabi == 100.0

    def test_validation(self):
        with pytest.raises(SpectroscopyError):
            DriveParams(t_pi=0.0)
        with pytest.raises(SpectroscopyError):
            DriveParams(t_pi=1e-3, order=3)


class TestLineshape:
    def test_unit_on_resonance(self, drive):
        assert lineshape(0.0, drive) == pytest.approx(1.0, abs=1e-12)

    def test_first_zero_at_sqrt3_rabi(self, drive):
        assert lineshape(np.sqrt(3) * drive.rabi, drive) == pytest.approx(0.0, abs=1e-12)

    def test_even(self, drive, rng):
        d = rng.uniform(-5 * drive.rabi, 5 * drive.rabi, size=50)
        assert np.allclose(lineshape(d, drive), lineshape(-d, drive), atol=1e-12)

    def test_bounded(self, drive, rng):
        d = rng.uniform(-20 * drive.rabi, 20 * drive.rabi, size=200)
        f = lineshape(d, drive)
        assert np.all((f >= 0) & (f <= 1))

    def test_fwhm(self, drive):
        w = lineshape_fwhm(drive)
        assert lineshape(w / 2, drive) == pytest.approx(0.5, abs=1e-9)
        # ~100 Hz for the 8 ms pi time
        assert w / TWO_PI == pytest.approx(99.8, abs=0.5)


class TestPeakPositions:
    def test_reference_and_spacing(self, params_143, centers_10):
        assert centers_10[0] == 0.0
        # per-phonon shift ~ -320 Hz at this operating point
        assert centers_10[1] / TWO_PI == pytest.approx(-317.6, abs=1.0)
        assert np.all(np.diff(centers_10) < 0)

    def test_resolvable_at_default_drive(self, drive, centers_10):
        assert np.min(np.abs(np.diff(centers_10))) > lineshape_fwhm(drive)


class TestModelSpectrum:
    def test_vacuum_peak_height(self, params_143, drive):
        dist = distribution(StateSpec("fock", {"n": 0}), 10)
        grid = np.array([-100.0, 0.0, 100.0]) * TWO_PI
        sp = model_spectrum(dist, params_143, drive, grid, eta=0.7, g=0.0)
        assert sp.p_up[1] == pytest.approx(0.7, abs=1e-6)

    def test_background_floor(self, params_143, drive):
        dist = distribution(StateSpec("fock", {"n": 0}), 10)
        grid = TWO_PI * np.linspace(500.0, 1500.0, 11)  # far from every peak
        sp = model_spectrum(dist, params_143, drive, grid, eta=0.7, g=0.05)
        assert np.all(sp.p_up < 0.1)
        assert sp.p_up.min() >= 0.05

    def test_linear_in_distribution(self, params_143, drive, grid):
        d0 = distribution(StateSpec("fock", {"n": 0}), 5)
        d1 = distribution(StateSpec("fock", {"n": 1}), 5)
        from ionkerr.states import PhononDistribution

        mix = PhononDistribution(0.25 * d0.p + 0.75 * d1.p)
        s_mix = model_spectrum(mix, params_143, drive, grid, eta=0.5, g=0.0)
        s0 = model_spectrum(d0, params_143, drive, grid, eta=0.5, g=0.0)
        s1 = model_spectrum(d1, params_143, drive, grid, eta=0.5, g=0.0)
        assert np.allclose(s_mix.p_up, 0.25 * s0.p_up + 0.75 * s1.p_up, atol=1e-12)

    def test_eta_zero_gives_background(self, params_143, drive, grid):
        dist = distribution(StateSpec("thermal", {"nbar": 1.0}), 10)
        sp = model_spectrum(dist, params_143, drive, grid, eta=0.0, g=0.03)
        assert np.allclose(sp.p_up, 0.03)

    def test_invalid_eta_g(self, params_143, drive, grid):
        dist = distribution(StateSpec("fock", {"n": 0}), 5)
        with pytest.raises(SpectroscopyError):
            model_spectrum(dist, params_143, drive, grid, eta=0.9, g=0.2)


class TestSpectrumIO:
    def test_csv_round_trip(self, tmp_path, grid):
        sp = Spectrum(grid, np.linspace(0.0, 1.0, grid.size), shots_per_point=250)
        path = tmp_path / "spec.csv"
        sp.write_csv(str(path))
        back = Spectrum.read_csv(str(path))
        assert np.allclose(back.detuning, sp.detuning, rtol=1e-10)
        assert np.allclose(back.p_up, sp.p_up, rtol=1e-10)
        assert back.shots_per_point == 250

    def test_csv_noiseless_round_trip(self, tmp_path, grid):
        sp = Spectrum(grid, np.full(grid.size, 0.25))
        path = tmp_path / "spec.csv"
        sp.write_csv(str(path))
        assert Spectrum.read_csv(str(path)).shots_per_point is None

    def test_lf_line_endings(self, tmp_path, grid):
        sp = Spectrum(grid[:5], np.zeros(5))
        path = tmp_path / "spec.csv"
        sp.write_csv(str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,prob\n0,0.5\n")
        with pytest.raises(SpectroscopyError, match="header"):
            Spectrum.read_csv(str(path))

    def test_grid_must_increase(self):
        with pytest.raises(SpectroscopyError, match="increasing"):
            Spectrum(np.array([0.0, -1.0]), np.array([0.1, 0.2]))

    def test_probability_range_checked(self):
        with pytest.raises(SpectroscopyError):
            Spectrum(np.array([0.0, 1.0]), np.array([0.5, 1.5]))


class TestDrivenScan:
    def test_zero_coupling_vacuum_traces_lineshape(self, drive):
        cut = FockCutoff(2, 4, with_qubit=True)
        p = CoupledModeParams(delta=TWO_PI * 14.3e3, xi=0.0, cutoff=cut)
        state, _ = prepare(StateSpec("fock", {"n": 0}), 4)
        init = embed_radial(state, FockCutoff(2, 4))
        grid = TWO_PI * np.linspace(-300.0, 300.0, 41)
        sp = driven_scan(init, p, drive, grid, axis_reference="bare")
        assert np.allclose(sp.p_up, lineshape(grid, drive), atol=1e-9)

    def test_requires_qubit_cutoff(self, params_143, drive):
        state, _ = prepare(StateSpec("fock", {"n": 0}), 20)
        init = embed_radial(state, FockCutoff(6, 20))
        with pytest.raises(SpectroscopyError, match="qubit"):
            driven_scan(init, params_143, drive, np.array([0.0]))

    def test_dimension_check(self, drive):
        cut = FockCutoff(2, 6, with_qubit=True)
        p = CoupledModeParams(delta=TWO_PI * 14.3e3, xi=100.0, cutoff=cut)
        state, _ = prepare(StateSpec("fock", {"n": 0}), 4)
        init = embed_radial(state, FockCutoff(2, 4))
        with pytest.raises(SpectroscopyError, match="dim"):
            driven_scan(init, p, drive, np.array([0.0]))

    def test_bad_axis_reference(self, drive):
        cut = FockCutoff(2, 4, with_qubit=True)
        p = CoupledModeParams(delta=TWO_PI * 14.3e3, xi=100.0, cutoff=cut)
        state, _ = prepare(StateSpec("fock", {"n": 0}), 4)
        init = embed_radial(state, FockCutoff(2, 4))
        with pytest.raises(SpectroscopyError, match="axis_reference"):
            driven_scan(init, p, drive, np.array([0.0]), axis_reference="lab")

    def test_mixed_equals_pure_for_projector(self, delta_143, xi_143, drive):
        cut = FockCutoff(2, 6, with_qubit=True)
        p = CoupledModeParams(delta=delta_143, xi=xi_143, cutoff=cut)
        state, _ = prepare(StateSpec("fock", {"n": 1}), 6)
        init_pure = embed_radial(state, FockCutoff(2, 6))
        rho = np.outer(init_pure.data, init_pure.data.conj())
        from ionkerr.fock import FockState

        grid = TWO_PI * np.linspace(-500.0, 0.0, 9)
        sp_pure = driven_scan(init_pure, p, drive, grid)
        sp_mixed = driven_scan(FockState(rho), p, drive, grid)
        assert np.allclose(sp_pure.p_up, sp_mixed.p_up, atol=1e-10)

    def test_second_order_resonance_triplet(self, cfg, drive):
        # at delta = 0 the N=4 manifold splits into (-4 xi, 0, +4 xi): a scan of
        # the second sideband from vacuum shows three resonances
        from ionkerr.trap import detune_to, mode_frequencies

        xi = mode_frequencies(detune_to(cfg, 0.0)).xi
        cut = FockCutoff(3, 8, with_qubit=True)
        p = CoupledModeParams(delta=0.0, xi=xi, cutoff=cut)
        d2 = DriveParams(t_pi=8e-3, order=2)
        state, _ = prepare(StateSpec("fock", {"n": 0}), 8)
        init = embed_radial(state, FockCutoff(3, 8))
        targets = np.array([-4 * xi, 0.0, 4 * xi])
        for t in targets:
            window = t + TWO_PI * np.linspace(-60.0, 60.0, 13)
            window = np.sort(window)
            sp = driven_scan(init, p, d2, window, axis_reference="bare")
            k = int(np.argmax(sp.p_up))
            assert sp.p_up[k] > 0.2
            assert abs(window[k] - t) < TWO_PI * 30.0


def _radial_on(cutoff, state_b):
    """Embed a radial state of smaller dimension into a larger motional cutoff."""
    pad = cutoff.dim_b - state_b.dim
    data = np.pad(state_b.data, [(0, pad)] * state_b.data.ndim)
    return embed_radial(FockState(data), FockCutoff(cutoff.n_a_max, cutoff.n_b_max))


def _two_mode(cutoff, amplitudes):
    """Pure two-mode state from {(n_a, n_b): amplitude}, normalised."""
    vec = np.zeros(cutoff.dim_a * cutoff.dim_b, dtype=complex)
    for (n_a, n_b), amp in amplitudes.items():
        vec[basis_index(n_a, n_b, cutoff)] = amp
    return FockState(vec / np.linalg.norm(vec))


class TestDrivenScanOracle:
    """The block scan against the dense Kronecker-product scan, at cutoffs that
    hold every block whole: n_b_max >= M_max + 2k, n_a_max >= (M_max + 2k) // 2."""

    M_MAX = 4  # largest 2 n_a + n_b carried by the initial states below

    def _params(self, delta, xi, order):
        top = self.M_MAX + 2 * order
        return CoupledModeParams(delta=delta, xi=xi, cutoff=FockCutoff(top // 2, top, with_qubit=True))

    def _initial(self, name, cutoff):
        motional = FockCutoff(cutoff.n_a_max, cutoff.n_b_max)
        if name == "fock":
            return _radial_on(motional, prepare(StateSpec("fock", {"n": 3}), 4)[0])
        if name == "coherent":
            vec = prepare(StateSpec("coherent", {"alpha": 0.2 + 0.1j}), 8)[0].data[:5]
            return _radial_on(motional, FockState(vec / np.linalg.norm(vec)))
        if name == "thermal":
            return _radial_on(motional, prepare(StateSpec("thermal", {"nbar": 1.5}), 4)[0])
        if name == "non_embedded":
            # (|1_a,0_b> + |0_a,2_b>)/sqrt2 in M = 2, plus a coherence with M = 1
            return _two_mode(motional, {(1, 0): 1.0, (0, 2): 1.0, (0, 1): 0.5j})
        rho = _two_mode(motional, {(1, 0): 1.0, (0, 2): -1.0}).density()
        rho = 0.5 * rho + 0.5 * _two_mode(motional, {(2, 0): 1.0, (0, 1): 1.0}).density()
        return FockState(rho)

    @pytest.mark.parametrize("state", ["fock", "coherent", "thermal", "non_embedded", "mixed"])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("axis_reference", ["dressed", "bare"])
    def test_matches_dense(self, delta_143, xi_143, drive, state, order, axis_reference):
        params = self._params(delta_143, xi_143, order)
        initial = self._initial(state, params.cutoff)
        d = DriveParams(t_pi=drive.t_pi, order=order)
        grid = TWO_PI * np.linspace(-2500.0, 500.0, 25)
        got = driven_scan(initial, params, d, grid, axis_reference=axis_reference).p_up
        want = dense_driven_scan(initial, params, d, grid, axis_reference=axis_reference)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(want) > 0.05  # the window holds excitation, not only zeros

    @pytest.mark.parametrize("order", [1, 2])
    def test_near_resonance(self, cfg, order):
        from ionkerr.trap import detune_to, mode_frequencies

        delta = TWO_PI * 200.0
        xi = mode_frequencies(detune_to(cfg, delta)).xi
        params = self._params(delta, xi, order)
        initial = self._initial("mixed", params.cutoff)
        d = DriveParams(t_pi=8e-3, order=order)
        grid = TWO_PI * np.linspace(-2e3, 2e3, 11)
        got = driven_scan(initial, params, d, grid, axis_reference="bare").p_up
        want = dense_driven_scan(initial, params, d, grid, axis_reference="bare")
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_axial_cutoff_only_sizes_the_state(self, delta_143, xi_143, drive, order):
        state, _ = prepare(StateSpec("thermal", {"nbar": 1.5}), 18)
        d = DriveParams(t_pi=drive.t_pi, order=order)
        grid = TWO_PI * np.linspace(-4.5e3, 1.5e3, 21)
        scans = []
        for n_a_max in (1, 6):
            p = CoupledModeParams(delta_143, xi_143, FockCutoff(n_a_max, 18, with_qubit=True))
            init = embed_radial(state, FockCutoff(n_a_max, 18))
            scans.append(driven_scan(init, p, d, grid).p_up)
        assert np.array_equal(scans[0], scans[1])


class TestShotNoise:
    def test_deterministic_and_seed_sensitive(self, grid):
        sp = Spectrum(grid, np.full(grid.size, 0.3))
        n1 = add_shot_noise(sp, 100, seed=5)
        n2 = add_shot_noise(sp, 100, seed=5)
        n3 = add_shot_noise(sp, 100, seed=6)
        assert np.array_equal(n1.p_up, n2.p_up)
        assert not np.array_equal(n1.p_up, n3.p_up)

    def test_extremes_are_noise_free(self, grid):
        sp = Spectrum(grid, np.concatenate([np.zeros(80), np.ones(81)]))
        noisy = add_shot_noise(sp, 50, seed=0)
        assert np.array_equal(noisy.p_up, sp.p_up)

    def test_counter_keyed_streams_are_point_independent(self, grid):
        # evaluating the points in any order gives the same draws
        sp = Spectrum(grid, np.full(grid.size, 0.4))
        noisy = add_shot_noise(sp, 200, seed=9)
        reversed_draws = np.empty(grid.size)
        for i in reversed(range(grid.size)):
            rng = np.random.default_rng([9, i])
            reversed_draws[i] = rng.binomial(200, 0.4) / 200
        assert np.array_equal(noisy.p_up, reversed_draws)

    def test_standard_error_scaling(self, grid):
        sp = Spectrum(grid, np.full(grid.size, 0.5))
        noisy = add_shot_noise(sp, 400, seed=1)
        sd = np.std(noisy.p_up - 0.5)
        assert sd == pytest.approx(np.sqrt(0.25 / 400), rel=0.2)

    def test_shots_validated(self, grid):
        sp = Spectrum(grid, np.zeros(grid.size))
        with pytest.raises(SpectroscopyError):
            add_shot_noise(sp, 0, seed=0)
