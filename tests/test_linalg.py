import numpy as np
import pytest

from esdsim import linalg
from esdsim.linalg import (
    QUBIT_QUTRIT,
    BipartiteDims,
    DimensionMismatchError,
    NonHermitianError,
    hermitian_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
)

from esdsim.states import random_density_matrix

from numeric_oracles import charpoly_eigs_2x2, charpoly_eigs_3x3, random_hermitian, random_unitary


def corner_matrix(corner):
    m = np.diag([0.25, 0.125, 0.125, 0.125, 0.125, 0.25]).astype(complex)
    m[0, 5] = m[5, 0] = corner
    return m


def test_bipartite_dims_rejects_nonpositive():
    with pytest.raises(ValueError):
        BipartiteDims(0, 3)


def test_kron_identity_blocks():
    assert linalg.max_abs_diff(kron(np.eye(2), np.eye(3)), np.eye(6)) == 0.0


def test_kron_diagonal_patterns():
    g, w = 0.7, 0.3
    left = kron(np.diag([1.0, g]), np.eye(3))
    assert linalg.max_abs_diff(left, np.diag([1, 1, 1, g, g, g])) == 0.0
    right = kron(np.eye(2), np.diag([0.0, w, 0.0]))
    assert linalg.max_abs_diff(right, np.diag([0, w, 0, 0, w, 0])) == 0.0


def test_kron_entry_definition():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    out = kron(a, b)
    assert out.shape == (6, 6)
    for i in range(2):
        for j in range(3):
            for k in range(3):
                for l in range(2):
                    assert abs(out[i * 3 + k, j * 2 + l] - a[i, j] * b[k, l]) < 1e-15


def test_kron_trace_multiplicative_and_associative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        c = random_hermitian(rng, 2)
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12
        assert linalg.max_abs_diff(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-12


def test_partial_transpose_fixes_diagonal():
    m = np.diag([0.25, 0.125, 0.125, 0.125, 0.125, 0.25]).astype(complex)
    assert linalg.max_abs_diff(partial_transpose(m, QUBIT_QUTRIT, "A"), m) == 0.0
    assert linalg.max_abs_diff(partial_transpose(m, QUBIT_QUTRIT, "B"), m) == 0.0


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(9)
    for sub in ("A", "B"):
        m = random_hermitian(rng, 6)
        twice = partial_transpose(partial_transpose(m, QUBIT_QUTRIT, sub), QUBIT_QUTRIT, sub)
        assert linalg.max_abs_diff(twice, m) == 0.0


def test_partial_transpose_composition_is_full_transpose():
    rng = np.random.default_rng(10)
    m = random_hermitian(rng, 6)
    both = partial_transpose(partial_transpose(m, QUBIT_QUTRIT, "A"), QUBIT_QUTRIT, "B")
    assert linalg.max_abs_diff(both, m.T) == 0.0


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = random_hermitian(rng, 6)
        for sub in ("A", "B"):
            pt = partial_transpose(m, QUBIT_QUTRIT, sub)
            assert abs(np.trace(pt) - np.trace(m)) < 1e-14
            assert linalg.hermiticity_defect(pt) < 1e-14


def test_partial_transpose_corner_negative_eigenvalue():
    # boundary corner 1/4 pushes the smallest PT eigenvalue to -1/8
    eigs = hermitian_eigenvalues(partial_transpose(corner_matrix(0.25), QUBIT_QUTRIT, "A"))
    assert abs(eigs[0] + 0.125) < 1e-14


def test_pt_sides_share_spectrum():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = random_hermitian(rng, 6)
        ea = hermitian_eigenvalues(partial_transpose(m, QUBIT_QUTRIT, "A"))
        eb = hermitian_eigenvalues(partial_transpose(m, QUBIT_QUTRIT, "B"))
        assert np.max(np.abs(ea - eb)) < 1e-10


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_transpose(np.eye(4), QUBIT_QUTRIT, "A")
    with pytest.raises(ValueError):
        partial_transpose(np.eye(6), QUBIT_QUTRIT, "C")


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(13)
    a = random_hermitian(rng, 2)
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = random_hermitian(rng, 3)
    b = b @ b.conj().T
    b /= np.trace(b).real
    prod = kron(a, b)
    assert linalg.max_abs_diff(partial_trace(prod, QUBIT_QUTRIT, "A"), a) < 1e-14
    assert linalg.max_abs_diff(partial_trace(prod, QUBIT_QUTRIT, "B"), b) < 1e-14


def test_partial_trace_corner_state_values():
    m = corner_matrix(0.21)
    ra = partial_trace(m, QUBIT_QUTRIT, "A")
    rb = partial_trace(m, QUBIT_QUTRIT, "B")
    assert linalg.max_abs_diff(ra, np.diag([0.5, 0.5])) < 1e-15
    assert linalg.max_abs_diff(rb, np.diag([0.375, 0.25, 0.375])) < 1e-15


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(14)
    m = random_hermitian(rng, 6)
    for keep in ("A", "B"):
        assert abs(np.trace(partial_trace(m, QUBIT_QUTRIT, keep)) - np.trace(m)) < 1e-13
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(5), QUBIT_QUTRIT, "A")


def test_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(6)), np.ones(6), atol=1e-15)


def test_eigenvalues_small_closed_forms():
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(pauli_x), [-1.0, 1.0], atol=1e-14)
    complex_pair = np.array([[1.0, 1j], [-1j, 1.0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(complex_pair), [0.0, 2.0], atol=1e-14)


def test_eigenvalues_boundary_corner():
    eigs = hermitian_eigenvalues(corner_matrix(0.25))
    assert np.max(np.abs(eigs - [0.0, 0.125, 0.125, 0.125, 0.125, 0.5])) < 1e-14


def test_eigenvalue_sum_matches_trace():
    rng = np.random.default_rng(15)
    for n in (2, 3, 4, 6):
        m = random_hermitian(rng, n)
        assert abs(hermitian_eigenvalues(m).sum() - np.trace(m).real) < 1e-12


def test_eigenvalues_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(16)
    for _ in range(10):
        m = random_hermitian(rng, 6)
        u = random_unitary(rng, 6)
        before = hermitian_eigenvalues(m)
        after = hermitian_eigenvalues(u @ m @ u.conj().T)
        assert np.max(np.abs(before - after)) < 1e-11


def test_eigenvalues_match_characteristic_polynomial():
    # dual route: iterative diagonalization vs closed-form polynomial roots
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(200):
        h2 = random_hermitian(rng, 2)
        worst = max(worst, float(np.max(np.abs(hermitian_eigenvalues(h2) - charpoly_eigs_2x2(h2)))))
        h3 = random_hermitian(rng, 3)
        worst = max(worst, float(np.max(np.abs(hermitian_eigenvalues(h3) - charpoly_eigs_3x3(h3)))))
    assert worst < 1e-8


def test_eigenvalues_reject_non_hermitian():
    for bad in ([[0.0, 1.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array(bad, dtype=complex))


@pytest.mark.parametrize("read_only", [False, True])
def test_eigenvalues_leave_input_unchanged(read_only):
    rng = np.random.default_rng(18)
    m = random_density_matrix(rng).mat if read_only else random_hermitian(rng, 6)
    assert m.dtype == np.complex128 and m.flags.writeable is not read_only
    before = m.copy()
    expected = np.linalg.eigvalsh(before)
    assert np.max(np.abs(hermitian_eigenvalues(m) - expected)) < 1e-12
    assert m.tobytes() == before.tobytes()


@pytest.mark.parametrize("magnitude", [1e150, 1e200, 1.7e308])
def test_eigenvalues_of_huge_matrices(magnitude):
    # |a|^2 overflowed, so the off-diagonal norm was inf and the loop never converged
    h = magnitude * np.array([[0.5, 0.25 + 0.125j], [0.25 - 0.125j, -0.375]])
    expected = np.linalg.eigvalsh(h)
    got = hermitian_eigenvalues(h)
    assert np.all(np.abs(got - expected) <= 1e-14 * magnitude)

