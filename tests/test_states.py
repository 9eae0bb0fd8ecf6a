"""Radial-mode state preparation, closed-form populations, and the random walk."""

import numpy as np
import pytest

from ionkerr.fock import FockCutoff, FockSpaceError
from ionkerr.states import (
    StatePrepError,
    StateSpec,
    distribution,
    embed_radial,
    family_populations,
    fock10_imperfect_preset,
    format_state_spec,
    parse_state_spec,
    poisson_pops,
    prepare,
    random_walk_thermal,
    squeeze_op,
    squeezed_vacuum_pops,
    thermal_pops,
    thermal_state,
    two_pulse_vacuum_probability,
)


class TestSpecParsing:
    @pytest.mark.parametrize(
        "text,family",
        [
            ("fock:3", "fock"),
            ("coherent:1.2+0.0i", "coherent"),
            ("thermal:1.5", "thermal"),
            ("squeezed_vacuum:0.6", "squeezed_vacuum"),
            ("squeezed_thermal:nbar=0.8,r=0.4", "squeezed_thermal"),
            ("squeezed_fock:n=1,r=0.6", "squeezed_fock"),
        ],
    )
    def test_families(self, text, family):
        spec = parse_state_spec(text)
        assert spec.family == family

    def test_values(self):
        spec = parse_state_spec("coherent:1.2+0.5i")
        assert spec.params["alpha"] == pytest.approx(1.2 + 0.5j)
        spec = parse_state_spec("squeezed_fock:n=2,r=0.3")
        assert spec.params == {"n": 2, "r": pytest.approx(0.3)}

    def test_round_trip(self):
        for text in ["fock:3", "thermal:1.5", "squeezed_thermal:nbar=0.8,r=0.4"]:
            spec = parse_state_spec(text)
            assert parse_state_spec(format_state_spec(spec)) == spec

    def test_bad_specs(self):
        with pytest.raises(StatePrepError):
            parse_state_spec("fock3")
        with pytest.raises(StatePrepError):
            parse_state_spec("gaussian:1.0")
        with pytest.raises(StatePrepError):
            StateSpec("gaussian", {})


class TestClosedFormPopulations:
    def test_poisson(self):
        p = poisson_pops(1.0, 30)
        assert p[1] == pytest.approx(np.exp(-1.0))
        assert np.arange(31) @ p == pytest.approx(1.0, abs=1e-10)

    def test_thermal_geometric(self):
        nbar = 1.5
        p = thermal_pops(nbar, 60)
        assert p[0] == pytest.approx(1 / (1 + nbar))
        assert np.allclose(p[1:] / p[:-1], nbar / (1 + nbar))
        assert np.arange(61) @ p == pytest.approx(nbar, rel=1e-6)

    def test_thermal_negative_rejected(self):
        with pytest.raises(StatePrepError):
            thermal_pops(-0.1, 10)

    def test_squeezed_vacuum(self):
        r = 0.6
        p = squeezed_vacuum_pops(r, 60)
        assert np.all(p[1::2] == 0)  # even parity
        assert p[0] == pytest.approx(1 / np.cosh(r))
        assert np.arange(61) @ p == pytest.approx(np.sinh(r) ** 2, rel=1e-10)

    def test_zero_parameters_are_vacuum(self):
        for p in (poisson_pops(0.0, 5), thermal_pops(0.0, 5), squeezed_vacuum_pops(0.0, 5)):
            assert p[0] == 1.0 and p[1:].sum() == 0.0


class TestOperatorConstructions:
    def test_squeeze_unitary_on_guarded_block(self):
        S = squeeze_op(0.6, 60)
        defect = (S.conj().T @ S - np.eye(61))[:7, :7]
        assert np.max(np.abs(defect)) < 1e-8

    def test_squeeze_parity(self):
        S = squeeze_op(0.5, 40)
        assert np.max(np.abs(S[1::2, 0])) < 1e-12

    def test_squeeze_too_strong(self):
        with pytest.raises(StatePrepError):
            squeeze_op(2.0, 10)

    def test_thermal_state_diagonal(self):
        rho = thermal_state(0.5, 10)
        assert np.max(np.abs(rho.data - np.diag(np.diag(rho.data)))) == 0


class TestPrepare:
    def test_fock(self):
        state, dist = prepare(StateSpec("fock", {"n": 3}), 8)
        assert state.is_pure and abs(state.data[3]) == 1.0
        assert dist.p[3] == 1.0 and dist.truncation_tail == 0.0

    def test_fock_outside_cutoff(self):
        with pytest.raises(StatePrepError, match="cutoff"):
            prepare(StateSpec("fock", {"n": 9}), 8)

    def test_coherent(self):
        state, dist = prepare(StateSpec("coherent", {"alpha": 1.2}), 25)
        assert np.allclose(dist.p, poisson_pops(1.44, 25), atol=1e-12)
        assert np.allclose(np.abs(state.data) ** 2, dist.p / dist.p.sum(), atol=1e-10)

    def test_thermal(self):
        state, dist = prepare(StateSpec("thermal", {"nbar": 1.5}), 40)
        assert not state.is_pure
        assert dist.mean() == pytest.approx(1.5, rel=1e-4)

    def test_squeezed_vacuum_matches_closed_form(self):
        _, dist = prepare(StateSpec("squeezed_vacuum", {"r": 0.6}), 40)
        assert np.allclose(dist.p, squeezed_vacuum_pops(0.6, 40), atol=1e-8)

    def test_squeezed_thermal_valid_density(self):
        state, dist = prepare(StateSpec("squeezed_thermal", {"nbar": 0.8, "r": 0.4}), 60)
        state.validate(atol=1e-6)
        # <n> = nbar cosh^2(r) + (nbar + 1) sinh^2(r)
        expected = 0.8 * np.cosh(0.4) ** 2 + 1.8 * np.sinh(0.4) ** 2
        assert dist.mean() == pytest.approx(expected, rel=1e-3)

    def test_squeezed_fock_mean(self):
        n, r = 1, 0.5
        _, dist = prepare(StateSpec("squeezed_fock", {"n": n, "r": r}), 60)
        expected = n * np.cosh(2 * r) + np.sinh(r) ** 2
        assert dist.mean() == pytest.approx(expected, rel=1e-3)

    def test_phase_of_r_does_not_change_populations(self):
        _, d1 = prepare(StateSpec("squeezed_vacuum", {"r": 0.5}), 40)
        _, d2 = prepare(StateSpec("squeezed_vacuum", {"r": 0.5j}), 40)
        assert np.allclose(d1.p, d2.p, atol=1e-10)


class TestDistribution:
    def test_truncation_tail_reported_not_renormalized(self):
        dist = distribution(StateSpec("squeezed_vacuum", {"r": 0.6}), 10)
        assert dist.truncation_tail > 0
        assert dist.p.sum() + dist.truncation_tail == pytest.approx(1.0, abs=1e-10)

    def test_squeezed_families_allowed_at_small_cutoff(self):
        # prepare() raises on excessive tails; distribution() reports them instead
        dist = distribution(StateSpec("squeezed_thermal", {"nbar": 0.8, "r": 0.4}), 10)
        assert dist.p.sum() < 1.0

    def test_matches_family_populations(self):
        spec = StateSpec("squeezed_fock", {"n": 1, "r": 0.5})
        assert np.allclose(distribution(spec, 10).p, family_populations(spec, 10).p)


class TestFockPreset:
    def test_values(self):
        dist = fock10_imperfect_preset(12)
        assert dist.p[10] == pytest.approx(0.80)
        assert dist.p[9] == pytest.approx(0.06)
        assert dist.p[8] == pytest.approx(0.06)
        assert np.all(dist.p[:8] < 0.04)
        assert dist.p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_needs_room(self):
        with pytest.raises(StatePrepError):
            fock10_imperfect_preset(9)


class TestRandomWalk:
    def test_single_pulse_is_poisson(self):
        a = 0.4
        dist = random_walk_thermal(1, a, rng_seed=0, trajectories=3, n_max=15)
        assert np.allclose(dist.p, poisson_pops(a**2, 15), atol=1e-12)

    def test_deterministic(self):
        d1 = random_walk_thermal(5, 0.3, rng_seed=7, trajectories=100, n_max=15)
        d2 = random_walk_thermal(5, 0.3, rng_seed=7, trajectories=100, n_max=15)
        assert np.array_equal(d1.p, d2.p)
        d3 = random_walk_thermal(5, 0.3, rng_seed=8, trajectories=100, n_max=15)
        assert not np.array_equal(d1.p, d3.p)

    def test_two_pulse_vacuum_probability(self):
        a = 0.5
        dist = random_walk_thermal(2, a, rng_seed=1, trajectories=20_000, n_max=15)
        assert dist.p[0] == pytest.approx(two_pulse_vacuum_probability(a), abs=0.01)
        assert two_pulse_vacuum_probability(0.0) == pytest.approx(1.0)

    def test_mean_energy(self):
        # mean phonon number after k independent pulses is k a^2
        k, a = 8, 0.3
        dist = random_walk_thermal(k, a, rng_seed=2, trajectories=5_000, n_max=20)
        assert dist.mean() == pytest.approx(k * a**2, rel=0.05)

    def test_tail_guard(self):
        with pytest.raises(StatePrepError, match="n_max"):
            random_walk_thermal(18, 0.5, rng_seed=0, trajectories=50, n_max=5)

    def test_bad_arguments(self):
        with pytest.raises(StatePrepError):
            random_walk_thermal(0, 0.3, rng_seed=0, trajectories=10, n_max=10)


class TestEmbedRadial:
    def test_pure(self):
        state, _ = prepare(StateSpec("fock", {"n": 2}), 5)
        cut = FockCutoff(2, 5)
        full = embed_radial(state, cut)
        pops = full.populations()
        assert pops[2] == pytest.approx(1.0)  # index (0_a, 2_b) with b fastest
        assert pops.sum() == pytest.approx(1.0)

    def test_mixed(self):
        state, _ = prepare(StateSpec("thermal", {"nbar": 0.2}), 5)
        full = embed_radial(state, FockCutoff(2, 5))
        assert not full.is_pure
        assert np.trace(full.data).real == pytest.approx(state.data.trace().real)

    def test_dim_mismatch(self):
        state, _ = prepare(StateSpec("fock", {"n": 0}), 5)
        with pytest.raises(FockSpaceError, match="dim"):
            embed_radial(state, FockCutoff(2, 7))

    def test_qubit_cutoff_rejected(self):
        state, _ = prepare(StateSpec("fock", {"n": 0}), 5)
        with pytest.raises(FockSpaceError, match="qubit"):
            embed_radial(state, FockCutoff(2, 5, with_qubit=True))
