"""Coupled-mode Hamiltonian structure, dressed energies, shifts, and exchange."""

import numpy as np
import pytest

from ionkerr import cli
from ionkerr.dynamics import (
    AssignmentError,
    CoupledModeParams,
    DynamicsError,
    block_populations,
    build_hamiltonian,
    conserved_charge,
    crossing_map,
    dispersive_shift_table,
    dressed_energy,
    exchange_trace,
    manifold_block,
    manifold_blocks,
    manifold_states,
    sideband_offset,
)
from ionkerr.fock import FockCutoff, FockSpaceError, FockState, basis_index, basis_vector
from ionkerr.states import StateSpec, embed_radial, prepare
from ionkerr.trap import TWO_PI, detune_to, mode_frequencies, paper_trap

CUT = FockCutoff(4, 10)


class TestHamiltonian:
    def test_zero_coupling_is_diagonal(self):
        p = CoupledModeParams(delta=1.0, xi=0.0, cutoff=CUT)
        H = build_hamiltonian(p)
        assert np.max(np.abs(H - np.diag(np.diag(H)))) == 0

    def test_diagonal_energies(self):
        p = CoupledModeParams(delta=2.0, xi=0.5, cutoff=CUT)
        H = build_hamiltonian(p)
        i = basis_index(0, 3, CUT)
        assert H[i, i] == pytest.approx(3.0)  # (delta/2) n_b
        j = basis_index(2, 1, CUT)
        assert H[j, j] == pytest.approx(1.0)

    def test_coupling_matrix_element(self):
        p = CoupledModeParams(delta=0.0, xi=0.7, cutoff=CUT)
        H = build_hamiltonian(p)
        i = basis_index(1, 0, CUT)
        j = basis_index(0, 2, CUT)
        assert H[i, j] == pytest.approx(0.7 * np.sqrt(2))
        i = basis_index(1, 2, CUT)
        j = basis_index(0, 4, CUT)
        assert H[i, j] == pytest.approx(0.7 * np.sqrt(1 * 4 * 3))

    def test_frame_offset_moves_axial(self):
        p = CoupledModeParams(delta=0.0, xi=0.1, cutoff=CUT)
        H = build_hamiltonian(p, frame_offset=5.0)
        i = basis_index(1, 0, CUT)
        assert H[i, i] == pytest.approx(5.0)
        j = basis_index(0, 2, CUT)
        assert H[j, j] == pytest.approx(5.0)  # (delta + Da)/2 per radial quantum

    def test_hermitian(self):
        p = CoupledModeParams(delta=3.0, xi=1.3, cutoff=CUT)
        H = build_hamiltonian(p)
        assert np.max(np.abs(H - H.conj().T)) == 0

    def test_negative_xi_rejected(self):
        with pytest.raises(DynamicsError):
            CoupledModeParams(delta=0.0, xi=-1.0, cutoff=CUT)


class TestConservation:
    def test_charge_is_diagonal_with_expected_values(self):
        N = conserved_charge(CUT)
        i = basis_index(2, 3, CUT)
        assert N[i, i] == pytest.approx(7.0)

    def test_commutes_with_hamiltonian_random_draws(self, rng):
        N = conserved_charge(CUT)
        for _ in range(100):
            p = CoupledModeParams(
                delta=rng.uniform(-1e5, 1e5), xi=rng.uniform(1.0, 1e4), cutoff=CUT
            )
            H = build_hamiltonian(p, frame_offset=rng.uniform(-1e4, 1e4))
            comm = H @ N - N @ H
            assert np.max(np.abs(comm)) < 1e-12 * np.max(np.abs(H))


class TestManifolds:
    def test_states_enumeration(self):
        assert manifold_states(0) == [(0, 0)]
        assert manifold_states(2) == [(0, 2), (1, 0)]
        assert manifold_states(5) == [(0, 5), (1, 3), (2, 1)]

    def test_block_matches_full_hamiltonian(self):
        delta, xi = 7.0, 2.0
        H, states = manifold_block(delta, xi, 4)
        p = CoupledModeParams(delta=delta, xi=xi, cutoff=FockCutoff(4, 10))
        Hfull = build_hamiltonian(p)
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                assert H[i, j] == pytest.approx(
                    Hfull[basis_index(*si, p.cutoff), basis_index(*sj, p.cutoff)].real
                )

    def test_n2_gap(self):
        xi = 3.0
        H, _ = manifold_block(0.0, xi, 2)
        vals = np.linalg.eigvalsh(H)
        assert vals[-1] - vals[0] == pytest.approx(2 * np.sqrt(2) * xi, rel=1e-12)

    def test_n3_to_n2_ratio_sqrt3(self):
        xi = 1.7
        g2 = np.ptp(np.linalg.eigvalsh(manifold_block(0.0, xi, 2)[0]))
        g3 = np.ptp(np.linalg.eigvalsh(manifold_block(0.0, xi, 3)[0]))
        assert g3 / g2 == pytest.approx(np.sqrt(3), abs=1e-12)

    def test_n4_spectrum(self):
        xi = 2.5
        vals = np.linalg.eigvalsh(manifold_block(0.0, xi, 4)[0])
        assert np.allclose(vals, [-4 * xi, 0.0, 4 * xi], atol=1e-12)


class TestDressedEnergies:
    def test_far_detuned_limit_is_bare(self):
        # |delta| >> xi: dressed energies approach (delta/2) n_b
        delta, xi = 1e6, 10.0
        for n_a, n_b in [(0, 4), (1, 2), (2, 0)]:
            e = dressed_energy(delta, xi, n_a, n_b)
            assert e == pytest.approx(0.5 * delta * n_b, abs=0.05 * abs(delta))

    def test_zero_coupling_exact(self):
        assert dressed_energy(1000.0, 0.0, 1, 3) == pytest.approx(1500.0)

    def test_monotone_in_n_b(self, delta_143, xi_143):
        offsets = [sideband_offset(delta_143, xi_143, n) for n in range(11)]
        assert np.all(np.diff(offsets) < 0)

    @pytest.mark.parametrize("N", [2, 7])
    def test_assignment_fails_near_resonance(self, xi_143, N):
        # at delta = 0 the dressed branches are symmetric mixtures; no bare label applies
        with pytest.raises(AssignmentError, match="dispersive"):
            dressed_energy(0.0, xi_143, 1, N - 2)

    def test_uncoupled_resonance_is_zero(self):
        # delta = 0 with xi = 0: every bare level is 0 and nothing needs labeling
        for n_a, n_b in [(0, 0), (1, 0), (0, 2), (1, 5), (3, 4)]:
            assert dressed_energy(0.0, 0.0, n_a, n_b) == 0.0


class TestSortedLabelingOracle:
    """The sorted labeling against the dense Hamiltonian restricted to each manifold."""

    N_MAX = 24
    CUT = FockCutoff(N_MAX // 2, N_MAX)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("delta_hz", [0.2, 1e3, 14.3e3, 80e3])
    def test_matches_dense_manifold(self, cfg, delta_hz, sign):
        delta = sign * TWO_PI * delta_hz
        xi = mode_frequencies(detune_to(cfg, delta)).xi
        p = CoupledModeParams(delta=delta, xi=xi, cutoff=self.CUT)
        H = build_hamiltonian(p)
        charge = np.rint(np.diag(conserved_charge(self.CUT)).real)
        for N in range(self.N_MAX + 1):
            idx = np.flatnonzero(charge == N)
            vals, vecs = np.linalg.eigh(H[np.ix_(idx, idx)])
            states = manifold_states(N)
            labeled = np.array([dressed_energy(delta, xi, n_a, n_b) for n_a, n_b in states])
            scale = max(np.max(np.abs(vals)), 1.0)
            np.testing.assert_allclose(np.sort(labeled), vals, rtol=0, atol=1e-9 * scale)
            # A bare label names the dominant component only while mixing is weak:
            # every coupling element at most half the bare spacing |delta|.  At
            # 14.3 kHz that holds for N <= 7; from N = 10 on the branches are
            # strongly mixed, whatever labels them.
            coupling = np.diag(manifold_block(delta, xi, N)[0], 1)
            if np.any(coupling > abs(delta) / 2):
                continue
            for (n_a, n_b), e in zip(states, labeled):
                k = np.argmin(np.abs(vals - e))
                dominant = idx[np.argmax(np.abs(vecs[:, k]) ** 2)]
                assert dominant == basis_index(n_a, n_b, self.CUT)


class TestDispersiveShiftTable:
    def test_reference_is_zero(self, params_143):
        table = dispersive_shift_table(params_143, 5)
        assert table.shift_exact[0] == 0.0
        assert table.shift_perturbative[0] == 0.0

    def test_perturbative_law(self, params_143):
        table = dispersive_shift_table(params_143, 5)
        expected = -4 * params_143.xi**2 * np.arange(6) / params_143.delta
        assert np.allclose(table.shift_perturbative, expected, rtol=1e-12)

    def test_exact_approaches_perturbative_far_detuned(self, cfg):
        delta = TWO_PI * 200e3
        xi = mode_frequencies(detune_to(cfg, delta)).xi
        p = CoupledModeParams(delta=delta, xi=xi, cutoff=FockCutoff(6, 20))
        table = dispersive_shift_table(p, 4)
        assert np.allclose(table.shift_exact[1:], table.shift_perturbative[1:], rtol=0.02)

    def test_odd_in_delta(self, cfg):
        # shifts flip sign (to leading order) when delta does
        xi = mode_frequencies(detune_to(cfg, TWO_PI * 50e3)).xi
        pp = CoupledModeParams(delta=TWO_PI * 50e3, xi=xi, cutoff=FockCutoff(6, 20))
        pm = CoupledModeParams(delta=-TWO_PI * 50e3, xi=xi, cutoff=FockCutoff(6, 20))
        tp = dispersive_shift_table(pp, 3).shift_exact
        tm = dispersive_shift_table(pm, 3).shift_exact
        assert np.allclose(tp[1:], -tm[1:], rtol=0.05)

    def test_zero_delta_rejected(self, xi_143):
        p = CoupledModeParams(delta=0.0, xi=xi_143, cutoff=FockCutoff(6, 20))
        with pytest.raises(DynamicsError, match="delta"):
            dispersive_shift_table(p, 3)

    def test_csv_round_numbers(self, params_143, tmp_path):
        table = dispersive_shift_table(params_143, 3)
        assert cli.main(["shift", "--out", str(tmp_path), "--n-max", "3"]) == 0
        lines = (tmp_path / "shift.csv").read_text().splitlines()
        assert lines[0] == "n_b,shift_exact_hz,shift_perturbative_hz"
        assert len(lines) == 5
        n, exact, pert = lines[2].split(",")
        assert int(n) == 1
        assert float(exact) == pytest.approx(table.shift_exact[1] / TWO_PI)


class TestCrossingMap:
    def test_row_order_independence(self, cfg):
        grid = TWO_PI * 1e3 * np.linspace(-15.0, 40.0, 7)
        fwd = crossing_map(cfg, grid, 3)
        rev = crossing_map(cfg, grid[::-1].copy(), 3)
        assert np.array_equal(fwd.branch_energies, rev.branch_energies[::-1])
        assert np.array_equal(fwd.branch_weights, rev.branch_weights[::-1])

    def test_minimum_gap_at_resonance(self, cfg):
        grid = np.array([0.0])
        cmap = crossing_map(cfg, grid, 2)
        xi = mode_frequencies(detune_to(cfg, 0.0)).xi
        vals = np.sort(cmap.branch_energies[0])
        # branches: N=0 (0), N=1 (0), N=2 (-sqrt2 xi, +sqrt2 xi)
        assert vals[-1] - vals[0] == pytest.approx(2 * np.sqrt(2) * xi, rel=1e-10)

    def test_far_detuned_weights_are_sharp(self, cfg):
        cmap = crossing_map(cfg, np.array([TWO_PI * 88e3]), 2)
        # each branch is nearly a bare state: weight ~ 0 or ~ 1
        w = cmap.branch_weights[0]
        assert np.all((w < 0.05) | (w > 0.95))

    def test_weights_bounded(self, cfg):
        grid = TWO_PI * 1e3 * np.linspace(-5.0, 5.0, 5)
        cmap = crossing_map(cfg, grid, 4)
        assert np.all(cmap.branch_weights >= 0) and np.all(cmap.branch_weights <= 1 + 1e-12)


class TestExchange:
    def test_full_contrast_oscillation(self, cfg):
        xi = mode_frequencies(detune_to(cfg, 0.0)).xi
        p = CoupledModeParams(delta=0.0, xi=xi, cutoff=FockCutoff(6, 20))
        t = np.linspace(0.0, 2e-3, 801)
        vec = basis_vector(basis_index(1, 0, p.cutoff), p.cutoff.dim)
        traces = exchange_trace(p, FockState(vec), t)
        expected = np.cos(np.sqrt(2) * xi * t) ** 2
        assert np.allclose(traces[(1, 0)], expected, atol=1e-10)
        assert np.allclose(traces[(1, 0)] + traces[(0, 2)], 1.0, atol=1e-10)

    def test_detuning_reduces_contrast(self, cfg):
        xi = mode_frequencies(detune_to(cfg, 0.0)).xi
        p = CoupledModeParams(delta=20 * xi, xi=xi, cutoff=FockCutoff(6, 20))
        t = np.linspace(0.0, 2e-3, 401)
        vec = basis_vector(basis_index(1, 0, p.cutoff), p.cutoff.dim)
        traces = exchange_trace(p, FockState(vec), t)
        assert traces[(1, 0)].min() > 0.9

    def test_mixed_initial_state(self, cfg):
        xi = mode_frequencies(detune_to(cfg, 0.0)).xi
        p = CoupledModeParams(delta=0.0, xi=xi, cutoff=FockCutoff(6, 20))
        vec = basis_vector(basis_index(1, 0, p.cutoff), p.cutoff.dim)
        rho = np.outer(vec, vec.conj())
        t = np.linspace(0.0, 5e-4, 21)
        pure = exchange_trace(p, FockState(vec), t)
        mixed = exchange_trace(p, FockState(rho), t)
        assert np.allclose(pure[(1, 0)], mixed[(1, 0)], atol=1e-12)

    def test_tracked_state_outside_cutoff_rejected(self):
        p = CoupledModeParams(delta=0.0, xi=1.0, cutoff=FockCutoff(6, 20))
        vec = basis_vector(basis_index(1, 0, p.cutoff), p.cutoff.dim)
        with pytest.raises(FockSpaceError, match="n_a=7"):
            exchange_trace(p, FockState(vec), np.zeros(1), track=[(7, 0)])


def _on_cutoff(state, small, big):
    """The density matrix of a state on cutoff ``small`` embedded in ``big``."""
    idx = [basis_index(n_a, n_b, big) for n_a in range(small.dim_a) for n_b in range(small.dim_b)]
    rho = np.zeros((big.dim, big.dim), dtype=complex)
    rho[np.ix_(idx, idx)] = state.density()
    return rho


def dense_exchange_trace(p, initial, t_grid, track, big):
    """Reference trace: the dense Kronecker Hamiltonian at cutoff ``big``,
    diagonalised once. It equals the exact trace when ``big`` holds every
    manifold that ``initial`` touches."""
    q = CoupledModeParams(delta=p.delta, xi=p.xi, cutoff=big)
    vals, vecs = np.linalg.eigh(build_hamiltonian(q))
    rho0 = _on_cutoff(initial, p.cutoff, big)
    idx = [basis_index(*s, big) for s in track]
    out = np.empty((len(track), len(t_grid)))
    for k, t in enumerate(t_grid):
        U = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
        out[:, k] = np.real(np.diag(U @ rho0 @ U.conj().T))[idx]
    return out


class TestExchangeOracle:
    """exchange_trace against the dense trace at a cutoff that holds every
    manifold the state touches whole: n_a_max >= N_max // 2, n_b_max >= N_max."""

    CUT = FockCutoff(3, 6)  # the states below touch N <= 6
    TRACK = [(1, 0), (0, 2), (0, 1), (1, 1), (0, 3), (3, 0), (2, 2), (0, 6)]

    def _initial(self, name):
        c = self.CUT
        if name == "fock_1a0b":
            return FockState(basis_vector(basis_index(1, 0, c), c.dim))
        if name == "thermal_embedded":
            rho = embed_radial(prepare(StateSpec("thermal", {"nbar": 0.3}), c.n_b_max)[0], c).data
            return FockState(rho / np.trace(rho).real)
        amps = {(1, 0): 1.0, (0, 1): 0.7, (0, 2): 0.5j, (1, 1): 0.3 - 0.2j, (2, 2): 0.2}
        vec = np.zeros(c.dim, dtype=complex)
        for s, amp in amps.items():
            vec[basis_index(*s, c)] = amp
        vec /= np.linalg.norm(vec)
        if name == "pure_cross_n":  # coherences between N = 1, 2, 3 and 6
            return FockState(vec)
        other = basis_vector(basis_index(0, 3, c), c.dim) + basis_vector(basis_index(3, 0, c), c.dim)
        other /= np.linalg.norm(other)
        return FockState(0.6 * np.outer(vec, vec.conj()) + 0.4 * np.outer(other, other.conj()))

    @pytest.mark.parametrize("delta_hz", [0.0, 200.0, 14.3e3])
    @pytest.mark.parametrize("name", ["fock_1a0b", "thermal_embedded", "pure_cross_n", "mixed_cross_n"])
    def test_matches_dense(self, cfg, name, delta_hz):
        delta = TWO_PI * delta_hz
        xi = mode_frequencies(detune_to(cfg, delta)).xi
        p = CoupledModeParams(delta=delta, xi=xi, cutoff=self.CUT)
        initial = self._initial(name)
        t = np.linspace(0.0, 2e-3, 41)
        traces = exchange_trace(p, initial, t, track=self.TRACK)
        dense = dense_exchange_trace(p, initial, t, self.TRACK, self.CUT)
        assert np.max(np.abs(np.array([traces[s] for s in self.TRACK]) - dense)) < 1e-12

    @pytest.mark.parametrize("delta_hz", [0.0, 14.3e3])
    def test_whole_manifold_beyond_the_axial_cutoff(self, cfg, delta_hz):
        # |0_a, 20_b> lies in N = 20, whose states reach n_a = 10; the cutoff
        # (6, 20) only sizes the state. A dense trace at (6, 20) is off by 0.92
        # on this grid at delta = 0.
        delta = TWO_PI * delta_hz
        xi = mode_frequencies(detune_to(cfg, delta)).xi
        p = CoupledModeParams(delta=delta, xi=xi, cutoff=FockCutoff(6, 20))
        initial = FockState(basis_vector(basis_index(0, 20, p.cutoff), p.cutoff.dim))
        t = np.linspace(0.0, 2e-3, 41)
        track = [(0, 20), (1, 18), (6, 8)]
        traces = exchange_trace(p, initial, t, track=track)
        dense = dense_exchange_trace(p, initial, t, track, FockCutoff(10, 20))
        assert np.max(np.abs(np.array([traces[s] for s in track]) - dense)) < 1e-12


class TestManifoldBlocks:
    def test_blocks_hold_the_charge_diagonal_part(self, rng):
        c = FockCutoff(2, 5)
        M = rng.normal(size=(c.dim, c.dim)) + 1j * rng.normal(size=(c.dim, c.dim))
        rho = M @ M.conj().T
        charge = np.real(np.diag(conserved_charge(c))).astype(int)
        seen = set()
        for N, rho_N in manifold_blocks(rho, c):
            seen.add(N)
            states = manifold_states(N)
            assert rho_N.shape == (len(states), len(states))
            for i, si in enumerate(states):
                for j, sj in enumerate(states):
                    inside = all(s[0] <= c.n_a_max and s[1] <= c.n_b_max for s in (si, sj))
                    want = rho[basis_index(*si, c), basis_index(*sj, c)] if inside else 0.0
                    assert rho_N[i, j] == want
        assert seen == set(charge)

    def test_zero_blocks_skipped(self):
        c = FockCutoff(2, 5)
        rho = np.zeros((c.dim, c.dim), dtype=complex)
        rho[basis_index(1, 1, c), basis_index(1, 1, c)] = 1.0
        assert [N for N, _ in manifold_blocks(rho, c)] == [3]

    def test_dimension_mismatch(self):
        with pytest.raises(FockSpaceError, match="dim"):
            list(manifold_blocks(np.eye(5, dtype=complex), FockCutoff(2, 5)))


class TestBlockPopulations:
    def test_zero_time_is_identity(self, rng):
        H = rng.normal(size=(5, 5))
        vals, vecs = np.linalg.eigh(H + H.T)
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = A @ A.conj().T / np.trace(A @ A.conj().T).real
        pops = block_populations(vals, vecs, rho, 0.0)
        assert np.allclose(pops, np.r_[np.real(np.diag(rho)), 0.0, 0.0], atol=1e-14)

    def test_rabi_flop(self):
        # H = Omega sigma_x / 2 flips |0> -> |1> at t = pi / Omega
        Omega = 3.0
        vals, vecs = np.linalg.eigh(0.5 * Omega * np.array([[0.0, 1.0], [1.0, 0.0]]))
        pops = block_populations(vals, vecs, np.array([[1.0 + 0j]]), np.pi / Omega)
        assert pops == pytest.approx([0.0, 1.0], abs=1e-12)

    @pytest.mark.parametrize("support", [4, 2])
    def test_matches_dense_propagator_and_broadcasts(self, rng, support):
        # a batch of blocks at one time, and one block along a time grid; with
        # support 2 the state leaves the last two of its four basis states empty
        H = rng.normal(size=(4, 6, 6))
        vals, vecs = np.linalg.eigh(H + H.swapaxes(-1, -2))
        A = np.zeros((4, 4), dtype=complex)
        A[:support, :support] = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
        rho = A @ A.conj().T / np.trace(A @ A.conj().T).real
        full = np.zeros((6, 6), dtype=complex)
        full[:4, :4] = rho
        t = np.array([0.0, 0.3, 1.7])
        batch = block_populations(vals, vecs, rho, 0.3)
        times = block_populations(vals[1], vecs[1], rho, t)
        assert batch.shape == (4, 6) and times.shape == (3, 6)
        for b in range(4):
            U = (vecs[b] * np.exp(-1j * vals[b] * 0.3)) @ vecs[b].T
            assert np.allclose(batch[b], np.real(np.diag(U @ full @ U.conj().T)), atol=1e-13)
        for k, tk in enumerate(t):
            U = (vecs[1] * np.exp(-1j * vals[1] * tk)) @ vecs[1].T
            assert np.allclose(times[k], np.real(np.diag(U @ full @ U.conj().T)), atol=1e-13)

    def test_trace_preserved_over_many_times(self, rng):
        H = rng.normal(size=(12, 12))
        vals, vecs = np.linalg.eigh(H + H.T)
        psi = rng.normal(size=12) + 1j * rng.normal(size=12)
        psi /= np.linalg.norm(psi)
        pops = block_populations(vals, vecs, np.outer(psi, psi.conj()), np.linspace(0.0, 1e3, 2001))
        assert np.max(np.abs(pops.sum(axis=1) - 1.0)) < 1e-12
        assert pops.min() > -1e-15

    def test_mixed_state_is_the_mixture_of_pure_ones(self, rng):
        H = rng.normal(size=(5, 5))
        vals, vecs = np.linalg.eigh(H + H.T)
        psis = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        pure = [block_populations(vals, vecs, np.outer(v, v.conj()), 0.4) for v in psis]
        rho = 0.3 * np.outer(psis[0], psis[0].conj()) + 0.7 * np.outer(psis[1], psis[1].conj())
        mixed = block_populations(vals, vecs, rho, 0.4)
        assert np.allclose(mixed, 0.3 * pure[0] + 0.7 * pure[1], atol=1e-14)
