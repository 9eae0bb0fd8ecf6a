"""Radial-mode state preparation, closed-form populations, and the random walk."""

import functools

import numpy as np
import pytest
from scipy.linalg import expm

from ionkerr.fock import FockCutoff, FockSpaceError, _ladder
from ionkerr.states import (
    StatePrepError,
    StateSpec,
    distribution,
    embed_radial,
    fock10_imperfect_preset,
    format_state_spec,
    parse_state_spec,
    poisson_pops,
    prepare,
    random_walk_thermal,
    squeeze_elements,
    squeeze_op,
    squeezed_vacuum_pops,
    thermal_pops,
    thermal_state,
    two_pulse_vacuum_probability,
)


def _guarded_expm(generator_fn, n_max: int, guard: int) -> np.ndarray:
    """expm of a single-mode generator built at dim n_max + 1 + guard, truncated back."""
    dim = n_max + 1 + guard
    G = generator_fn(_ladder(dim))
    U = expm(G)
    return U[: n_max + 1, : n_max + 1]


@functools.lru_cache(maxsize=None)
def dense_squeeze(r: complex, n_max: int, guard: int) -> np.ndarray:
    """The dense oracle for squeeze_elements: S(r) by expm, truncated back."""
    return _guarded_expm(
        lambda b: 0.5 * (np.conj(r) * (b @ b) - r * (b.conj().T @ b.conj().T)), n_max, guard
    )


def converged_squeeze(r: complex, rows: int, cols: int) -> np.ndarray:
    # dim 401: against dim 300 the leading 41 x 41 block moves by < 1e-12 at r = 1.5
    return dense_squeeze(r, 400, 0)[: rows + 1, : cols + 1]


def dense_family_populations(spec: StateSpec, n_max: int) -> np.ndarray:
    """The squeezed-family populations before the exact recurrence: the dense
    squeeze at the work cutoff max(40, (n_max + 5) e^(2r) + 10), guard
    max(10, 4 sinh^2 r), and the thermal weights up to the work cutoff."""
    r = abs(spec.params["r"])
    work = max(40, int(np.ceil((n_max + 5) * np.exp(2 * r))) + 10)
    guard = max(10, int(np.ceil(4 * np.sinh(r) ** 2)))
    S2 = np.abs(dense_squeeze(r, work, guard)) ** 2
    if spec.family == "squeezed_thermal":
        return (S2 @ thermal_pops(spec.params["nbar"], work))[: n_max + 1]
    return S2[: n_max + 1, spec.params["n"]]


def mp_squeeze_elements(r: float, rows: int, cols: int) -> np.ndarray:
    """squeeze_elements' recurrence for real r, run in mpmath at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        mu, nu = mpmath.cosh(r), mpmath.sinh(r)
        S = [[mpmath.mpf(0)] * (cols + 1) for _ in range(rows + 1)]
        for k in range(rows // 2 + 1):
            S[2 * k][0] = (
                (-mpmath.tanh(r)) ** k
                * mpmath.sqrt(mpmath.factorial(2 * k))
                / (2**k * mpmath.factorial(k) * mpmath.sqrt(mu))
            )
        for n in range(cols):
            for m in range(rows + 1):
                up = mpmath.sqrt(m) * S[m - 1][n] if m else 0
                down = nu * mpmath.sqrt(n) * S[m][n - 1] if n else 0
                S[m][n + 1] = (up + down) / (mu * mpmath.sqrt(n + 1))
        return np.array([[float(x) for x in row] for row in S])


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

    def test_squeeze_op_exact_at_the_edge(self):
        # a guard of 10 states left column 30 of S(0.7) wrong by 0.35
        assert np.max(np.abs(squeeze_op(0.7, 30) - converged_squeeze(0.7, 30, 30))) < 1e-11

    def test_thermal_state_diagonal(self):
        rho = thermal_state(0.5, 10)
        assert np.max(np.abs(rho.data - np.diag(np.diag(rho.data)))) == 0


SQUEEZE_SHAPES = [(40, 40), (10, 60), (60, 10)]


class TestSqueezeRecurrence:
    @pytest.mark.parametrize("phase", [None, 0.9])
    @pytest.mark.parametrize("r_mag", [0.2, 0.7, 1.5])
    def test_matches_converged_expm(self, r_mag, phase):
        r = r_mag if phase is None else r_mag * np.exp(1j * phase)
        for rows, cols in SQUEEZE_SHAPES:
            S = squeeze_elements(r, rows, cols)
            assert S.shape == (rows + 1, cols + 1)
            assert np.max(np.abs(S - converged_squeeze(r, rows, cols))) < 1e-11

    def test_negative_real_r(self):
        S = squeeze_elements(-0.7, 20, 20)
        assert np.max(np.abs(S - converged_squeeze(-0.7, 20, 20))) < 1e-11

    @pytest.mark.parametrize("r", [0.2, 0.7, 1.5])
    def test_matches_mpmath(self, r):
        for rows, cols in SQUEEZE_SHAPES:
            S = squeeze_elements(r, rows, cols)
            assert np.max(np.abs(S - mp_squeeze_elements(r, rows, cols))) < 1e-11

    def test_real_r_gives_real_elements(self):
        assert np.isrealobj(squeeze_elements(0.7, 5, 5))
        assert np.iscomplexobj(squeeze_elements(0.7j, 5, 5))


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

    def test_squeezed_fock_exact_at_the_edge(self):
        # the former guard of 10 states moved p_n by 4.7e-7 here
        _, dist = prepare(StateSpec("squeezed_fock", {"n": 10, "r": 0.5}), 40)
        assert np.max(np.abs(dist.p - np.abs(converged_squeeze(0.5, 40, 10)[:, 10]) ** 2)) < 1e-11

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
        assert np.allclose(distribution(spec, 10).p, dense_family_populations(spec, 10))

    def test_coherent_tail_reported_not_raised(self):
        # prepare() raises here; distribution() reports the Poisson weight above n_max
        dist = distribution(StateSpec("coherent", {"alpha": 3.0}), 10)
        assert np.array_equal(dist.p, poisson_pops(9.0, 10))
        assert dist.truncation_tail == pytest.approx(1.0 - poisson_pops(9.0, 10).sum(), abs=1e-15)
        assert dist.truncation_tail > 0.2

    def test_fock_above_cutoff_is_all_tail(self):
        dist = distribution(StateSpec("fock", {"n": 12}), 10)
        assert not dist.p.any() and dist.truncation_tail == 1.0

    @pytest.mark.parametrize(
        "text", ["fock:3", "coherent:1.2", "thermal:0.7", "squeezed_vacuum:0.5",
                 "squeezed_thermal:nbar=0.4,r=0.3", "squeezed_fock:n=2,r=0.3"],
    )
    def test_matches_prepare_where_the_state_fits(self, text):
        spec = parse_state_spec(text)
        dist, prepared = distribution(spec, 40), prepare(spec, 40)[1]
        assert np.max(np.abs(dist.p - prepared.p)) < 1e-12
        assert dist.truncation_tail == pytest.approx(prepared.truncation_tail, abs=1e-12)

    def test_strong_squeezing_at_small_cutoff_does_not_raise(self):
        dist = distribution(StateSpec("squeezed_fock", {"n": 1, "r": 1.5}), 10)
        assert dist.truncation_tail > 0.5
        assert dist.p.sum() + dist.truncation_tail == pytest.approx(1.0, abs=1e-12)


R_GRID = [0.01, 0.2, 0.55, 0.9, 1.2, 1.5]


class TestFamilyPopulationsOracle:
    @pytest.mark.parametrize("r", R_GRID)
    @pytest.mark.parametrize("nbar", [0.0, 0.3, 0.8, 2.0])
    def test_squeezed_thermal(self, nbar, r):
        spec = StateSpec("squeezed_thermal", {"nbar": nbar, "r": r})
        dist = distribution(spec, 10)
        assert np.max(np.abs(dist.p - dense_family_populations(spec, 10))) < 1e-12
        assert dist.p.sum() + dist.truncation_tail == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", R_GRID)
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_squeezed_fock(self, n, r):
        spec = StateSpec("squeezed_fock", {"n": n, "r": r})
        dist = distribution(spec, 10)
        assert np.max(np.abs(dist.p - dense_family_populations(spec, 10))) < 1e-12
        assert dist.p.sum() + dist.truncation_tail == pytest.approx(1.0, abs=1e-12)

    def test_thermal_columns_beyond_the_former_work_cutoff(self):
        # At nbar = 10 the former work cutoff (51 states at r = 0.5) dropped thermal
        # columns worth 6e-10 in p_n <= 10. Summing all 401 columns of the converged
        # operator, whose thermal weight beyond is (10/11)^401 < 1e-16, settles it.
        spec = StateSpec("squeezed_thermal", {"nbar": 10.0, "r": 0.5})
        converged = (np.abs(converged_squeeze(0.5, 400, 400)) ** 2 @ thermal_pops(10.0, 400))[:11]
        assert np.max(np.abs(distribution(spec, 10).p - converged)) < 1e-13
        assert np.max(np.abs(dense_family_populations(spec, 10) - converged)) > 1e-10

    def test_negative_fock_index_rejected(self):
        with pytest.raises(StatePrepError, match="n >= 0"):
            distribution(StateSpec("squeezed_fock", {"n": -1, "r": 0.5}), 10)


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
