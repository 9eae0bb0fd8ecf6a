"""Single-shot projective phonon interrogation and repeated schedules."""

import numpy as np
import pytest

from ionkerr.measure import MeasurementError, repeated_interrogation, single_shot
from ionkerr.states import StateSpec, distribution


def superposition(n_max=5):
    """Populations of (|1> + |3>)/sqrt(2) on a small radial space."""
    p = np.zeros(n_max + 1)
    p[1] = p[3] = 0.5
    return p


def fock(n, n_max=5):
    return distribution(StateSpec("fock", {"n": n}), n_max).p


def pure_instrument(psi, target_n, eta, g, bright):
    """The dense oracle: P(bright) = <psi|E_bright|psi>, and on dark the
    square-root update sqrt(E_dark)|psi>, normalised, as an amplitude vector."""
    E_bright = g * np.eye(len(psi))
    E_bright[target_n, target_n] += eta
    p_bright = float(np.real(psi.conj() @ E_bright @ psi))
    if bright:
        return p_bright, None
    post = np.sqrt(np.diag(np.eye(len(psi)) - E_bright)) * psi
    return p_bright, post / np.linalg.norm(post)


class TestSingleShot:
    def test_bright_probability(self):
        state = superposition()
        record, _ = single_shot(state, 1, eta=0.7, g=0.02, seed=0)
        assert record.p_bright == pytest.approx(0.02 + 0.7 * 0.5)

    def test_empirical_rate(self):
        state = superposition()
        shots = 10_000
        bright = 0
        for k in range(shots):
            record, _ = single_shot(state, 3, eta=0.7, g=0.0, rng=np.random.default_rng([0, k]))
            bright += record.outcome == "bright"
        p = 0.7 * 0.5
        se = np.sqrt(p * (1 - p) / shots)
        assert abs(bright / shots - p) < 3 * se

    def test_ideal_dark_update_removes_level(self):
        state = superposition()
        rng = np.random.default_rng(3)
        while True:
            record, post = single_shot(state, 1, eta=1.0, g=0.0, rng=rng)
            if record.outcome == "dark":
                break
        assert post[1] == pytest.approx(0.0, abs=1e-14)
        assert post[3] == pytest.approx(1.0)

    def test_dark_update_keeps_unrelated_state_intact(self):
        # measuring an unoccupied level at eta=1, g=0 leaves the state unchanged
        state = superposition()
        rng = np.random.default_rng(0)
        record, post = single_shot(state, 5, eta=1.0, g=0.0, rng=rng)
        assert record.outcome == "dark"
        assert np.allclose(post, state)

    def test_repeat_dark_invariance(self):
        # once dark at eta=1, a repeat on the same level is dark with certainty
        state = superposition()
        rng = np.random.default_rng(1)
        while True:
            record, post = single_shot(state, 1, eta=1.0, g=0.0, rng=rng)
            if record.outcome == "dark":
                break
        record2, post2 = single_shot(post, 1, eta=1.0, g=0.0, rng=rng)
        assert record2.outcome == "dark"
        assert record2.p_bright == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(post2, post)

    def test_bright_destroys_state(self):
        record, post = single_shot(fock(2), 2, eta=1.0, g=0.0, seed=0)
        assert record.outcome == "bright"
        assert post is None

    def test_perfect_detection_on_exact_fock_state_always_bright(self):
        state = fock(2)
        for k in range(50):
            record, _ = single_shot(state, 2, eta=1.0, g=0.0, rng=np.random.default_rng(k))
            assert record.outcome == "bright"

    def test_mixed_state_dark_update(self):
        state = distribution(StateSpec("thermal", {"nbar": 1.0}), 12).p
        rng = np.random.default_rng(0)
        record, post = single_shot(state, 0, eta=1.0, g=0.0, rng=rng)
        assert record.outcome in ("bright", "dark")
        if record.outcome == "dark":
            assert post[0] == pytest.approx(0.0, abs=1e-14)
            assert post.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("eta,g", [(0.7, 0.02), (1.0, 0.0), (0.4, 0.5)])
    def test_matches_the_pure_state_instrument(self, eta, g):
        # a state with coherences: the POVM is diagonal, so they never reach an outcome
        psi = np.array([0.3, 0.5j, -0.4, 0.2 + 0.3j, 0.1, 0.6])
        psi /= np.linalg.norm(psi)
        for target_n in (0, 3):
            for bright in (True, False):
                p_bright, post = pure_instrument(psi, target_n, eta, g, bright)
                rng = np.random.default_rng(0)
                while True:
                    record, got = single_shot(np.abs(psi) ** 2, target_n, eta, g, rng=rng)
                    if (record.outcome == "bright") == bright:
                        break
                assert record.p_bright == pytest.approx(p_bright, abs=1e-15)
                if bright:
                    assert got is None
                else:
                    assert np.max(np.abs(got - np.abs(post) ** 2)) < 1e-15

    def test_parameter_validation(self):
        state = superposition()
        with pytest.raises(MeasurementError):
            single_shot(state, 1, eta=0.8, g=0.3, seed=0)
        with pytest.raises(MeasurementError, match="target_n"):
            single_shot(state, 99, eta=0.5, g=0.0, seed=0)

    def test_deterministic_given_seed(self):
        state = superposition()
        r1, _ = single_shot(state, 1, eta=0.7, g=0.02, seed=42)
        r2, _ = single_shot(state, 1, eta=0.7, g=0.02, seed=42)
        assert r1.outcome == r2.outcome


class TestRepeatedInterrogation:
    def test_terminates_on_bright(self):
        state = superposition()
        records, final, identified = repeated_interrogation(
            state, [0, 1, 2, 3, 4, 5], eta=1.0, g=0.0, seed=0
        )
        assert identified in (1, 3)
        assert records[-1].outcome == "bright"
        assert all(r.outcome == "dark" for r in records[:-1])
        assert final is None

    def test_all_dark_returns_updated_state(self):
        state = superposition()
        records, final, identified = repeated_interrogation(state, [0, 2, 4], eta=1.0, g=0.0, seed=0)
        assert identified is None
        assert len(records) == 3
        assert np.allclose(final, state)  # unoccupied levels leave it intact

    def test_identification_statistics_follow_chain_rule(self):
        # P(identified = n) should equal the population p_n when eta=1, g=0 and
        # the schedule covers the support
        state = superposition()
        counts = {1: 0, 3: 0}
        runs = 4000
        for seed in range(runs):
            _, _, identified = repeated_interrogation(state, [0, 1, 2, 3], eta=1.0, g=0.0, seed=seed)
            counts[identified] += 1
        for n in (1, 3):
            se = np.sqrt(0.25 / runs)
            assert abs(counts[n] / runs - 0.5) < 4 * se

    def test_deterministic(self):
        state = superposition()
        out1 = repeated_interrogation(state, [0, 1, 2, 3], eta=0.7, g=0.02, seed=11)
        out2 = repeated_interrogation(state, [0, 1, 2, 3], eta=0.7, g=0.02, seed=11)
        assert [r.outcome for r in out1[0]] == [r.outcome for r in out2[0]]
        assert out1[2] == out2[2]
