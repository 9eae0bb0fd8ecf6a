"""Truncated Fock-space cutoffs, indexing, dense operators, and states."""

import numpy as np
import pytest

from ionkerr.fock import (
    FockCutoff,
    FockSpaceError,
    FockState,
    annihilation_op,
    assert_hermitian,
    basis_index,
    basis_vector,
    number_op,
)


class TestCutoff:
    def test_dims(self):
        c = FockCutoff(6, 20)
        assert c.dim_a == 7 and c.dim_b == 21 and c.dim == 7 * 21
        assert FockCutoff(6, 20, with_qubit=True).dim == 2 * 7 * 21

    def test_minimums_enforced(self):
        with pytest.raises(FockSpaceError):
            FockCutoff(0, 20)
        with pytest.raises(FockSpaceError):
            FockCutoff(6, 1)


class TestBasisIndex:
    def test_origin(self):
        c = FockCutoff(2, 5, with_qubit=True)
        assert basis_index(0, 0, c) == 0
        assert basis_index(0, 1, c) == 1  # the qubit-down index

    def test_b_fastest(self):
        c = FockCutoff(2, 5)
        assert basis_index(1, 0, c) == 6
        assert basis_index(1, 3, c) == 9

    def test_qubit_slowest(self):
        # the qubit-down half comes first and repeats the motional ordering
        c = FockCutoff(2, 5, with_qubit=True)
        assert c.dim == 2 * c.dim_a * c.dim_b
        assert basis_index(1, 3, c) == basis_index(1, 3, FockCutoff(2, 5))

    def test_bijective_over_full_space(self):
        c = FockCutoff(3, 7)
        seen = {basis_index(na, nb, c) for na in range(c.dim_a) for nb in range(c.dim_b)}
        assert seen == set(range(c.dim))

    def test_out_of_range_names_quantum_number(self):
        c = FockCutoff(2, 5)
        with pytest.raises(FockSpaceError, match="n_a=3"):
            basis_index(3, 0, c)
        with pytest.raises(FockSpaceError, match="n_b=6"):
            basis_index(0, 6, c)


class TestOperators:
    def test_ladder_matrix_elements(self):
        c = FockCutoff(3, 4)
        b = annihilation_op(c, "b")
        i1 = basis_index(0, 1, c)
        i2 = basis_index(0, 2, c)
        assert b[i1, i2] == pytest.approx(np.sqrt(2))
        # vacuum is annihilated
        assert np.linalg.norm(b @ basis_vector(basis_index(0, 0, c), c.dim)) == 0

    def test_number_operator_eigenvalue(self):
        c = FockCutoff(3, 4)
        n_b = number_op(c, "b")
        v = basis_vector(basis_index(2, 3, c), c.dim)
        assert np.allclose(n_b @ v, 3 * v)
        n_a = number_op(c, "a")
        assert np.allclose(n_a @ v, 2 * v)

    def test_commutator_identity_below_cutoff(self):
        c = FockCutoff(4, 9)
        b = annihilation_op(c, "b")
        comm = b @ b.conj().T - b.conj().T @ b
        # [b, b^dag] = 1 except on the top level of the truncated ladder
        for na in range(c.dim_a):
            for nb in range(c.dim_b - 1):
                i = basis_index(na, nb, c)
                assert comm[i, i] == pytest.approx(1.0)

    def test_modes_commute(self):
        c = FockCutoff(3, 5)
        a = annihilation_op(c, "a")
        b = annihilation_op(c, "b")
        assert np.max(np.abs(a @ b - b @ a)) == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(FockSpaceError, match="mode"):
            annihilation_op(FockCutoff(2, 4), "c")

    def test_qubit_ops(self):
        # with a qubit factor the mode operators act as the identity on the qubit
        c = FockCutoff(1, 2, with_qubit=True)
        for mode in ("a", "b"):
            motional = annihilation_op(FockCutoff(1, 2), mode)
            assert np.array_equal(annihilation_op(c, mode), np.kron(np.eye(2), motional))


class TestEigh:
    """Hermiticity checks on dense matrices."""

    def test_non_hermitian_rejected(self):
        with pytest.raises(FockSpaceError, match="Hermitian"):
            assert_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_assert_hermitian_tolerance(self):
        H = np.eye(3, dtype=complex)
        assert_hermitian(H)  # exact
        H2 = H.copy()
        H2[0, 1] = 1e-6
        with pytest.raises(FockSpaceError):
            assert_hermitian(H2)


class TestStateAndExpectation:
    def test_validate_pure_norm(self):
        with pytest.raises(FockSpaceError, match="norm"):
            FockState(np.array([1.0, 1.0], dtype=complex)).validate()

    def test_validate_mixed(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        FockState(rho).validate()
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(FockSpaceError):
            FockState(bad).validate()

    def test_populations(self):
        psi = np.array([np.sqrt(0.25), np.sqrt(0.75)], dtype=complex)
        assert np.allclose(FockState(psi).populations(), [0.25, 0.75])
