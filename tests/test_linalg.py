import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import esdsim
from esdsim import (
    QUBIT_QUTRIT,
    BipartiteDims,
    DimensionMismatchError,
    EsdOutcome,
    NonHermitianError,
    Scenario,
    ScenarioKind,
    ansatz_x,
    channels,
    esd,
    evolve,
    format_state,
    hermitian_eigenvalues,
    linalg,
    negativity,
    numeric_esd_time,
    parse_state,
    partial_trace,
    partial_transpose,
    random_density_matrix,
    scalar,
)
from esdsim.scalar import SPECTRAL_TOL
from esdsim.states import JOINT_COHERENCE_SLOTS

from numeric_oracles import (
    charpoly_eigs_2x2,
    charpoly_eigs_3x3,
    jacobi_matrix_reference,
    min_pt_eigenvalue_reference,
    random_hermitian,
    random_unitary,
)


def corner_matrix(corner):
    m = np.diag([0.25, 0.125, 0.125, 0.125, 0.125, 0.25]).astype(complex)
    m[0, 5] = m[5, 0] = corner
    return m


def test_bipartite_dims_rejects_nonpositive():
    with pytest.raises(ValueError):
        BipartiteDims(0, 3)


@pytest.mark.parametrize("dims", [(2.5, 3), (2.0, 3.0), (2, 3.0), (np.float64(2.0), 3), (2, "3"), (None, 3),
                                  (True, 3), (2, True), (2, False)])
def test_bipartite_dims_rejects_non_integers(dims):
    # 2.5 x 3 made every matrix the wrong size ("expected a 7.5x7.5 matrix"),
    # 2.0 x 3.0 passed check on a 6x6 matrix and then failed inside reshape, and a
    # bool, an int subclass, made a state whose text "dims True 3" does not parse back
    with pytest.raises(ValueError, match="must be positive integers"):
        BipartiteDims(*dims)


def test_bipartite_dims_accepts_numpy_integers():
    dims = BipartiteDims(np.int64(2), np.int32(3))
    assert dims == QUBIT_QUTRIT and dims.total == 6
    rho = ansatz_x(0.2).mat
    assert partial_transpose(rho, dims, "A").tobytes() == partial_transpose(rho, QUBIT_QUTRIT, "A").tobytes()


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


def _pt_side_inputs():
    """Named matrices whose two partial transposes must give the same eigenvalue bits."""
    rng = np.random.default_rng(12)
    for i in range(10):
        yield f"hermitian-{i}", random_hermitian(rng, 6), QUBIT_QUTRIT
    for i in range(20):
        yield f"gram-{i}", random_density_matrix(rng).mat, QUBIT_QUTRIT
    for i in range(10):
        m = np.diag(rng.uniform(0.5, 1.5, 6)).astype(complex)
        for a, b in JOINT_COHERENCE_SLOTS:
            m[a, b] = complex(*rng.uniform(-0.3, 0.3, 2))
            m[b, a] = m[a, b].conjugate()
        yield f"joint-coherence-{i}", m / np.trace(m).real, QUBIT_QUTRIT
    for x in (0.0, 0.125, 0.25):
        yield f"family-{x}", ansatz_x(x).mat, QUBIT_QUTRIT
    for i in range(5):
        huge = random_density_matrix(rng).mat * 3e200
        yield f"scaled-{i}", 0.5 * (huge + huge.conj().T), QUBIT_QUTRIT  # exactly Hermitian
    for i in range(5):
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        skew = g - g.conj().T
        skewed = random_density_matrix(rng).mat + 1e-13 / np.abs(skew).max() * skew
        yield f"anti-hermitian-part-{i}", skewed, QUBIT_QUTRIT
    for dims in (BipartiteDims(2, 2), BipartiteDims(3, 3)):
        for i in range(5):
            yield f"dims-{dims.dim_a}x{dims.dim_b}-{i}", random_density_matrix(rng, dims).mat, dims


def test_pt_sides_share_spectrum():
    # PT_B(m) = PT_A(m)^T; the checked entry's symmetrized copy of a transpose is
    # the exact conjugate of the original's, and both Jacobi kernels commute with
    # conjugation, so the two sides give the same bits (states cache one of them)
    for name, m, dims in _pt_side_inputs():
        ea = hermitian_eigenvalues(partial_transpose(m, dims, "A"))
        eb = hermitian_eigenvalues(partial_transpose(m, dims, "B"))
        assert ea.tobytes() == eb.tobytes(), name


def test_hermiticity_defect_of_an_empty_matrix():
    assert linalg.hermiticity_defect(np.zeros((0, 0))) == 0.0


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
    prod = np.kron(a, b)
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
    with pytest.raises(ValueError, match="keep must be 'A' or 'B'"):
        partial_trace(m, QUBIT_QUTRIT, "C")


def test_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(6)), np.ones(6), atol=1e-15)


def test_eigenvalues_small_closed_forms():
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(pauli_x), [-1.0, 1.0], atol=1e-14)
    complex_pair = np.array([[1.0, 1j], [-1j, 1.0]], dtype=complex)
    assert np.allclose(hermitian_eigenvalues(complex_pair), [0.0, 2.0], atol=1e-14)
    # a 1x1 matrix is its own eigenvalue, bit for bit, sign of zero included
    for value in (0.0, -0.0, 5e-324, -2.5e-310, 1.0, 1e200, -1e308, 1.7e308):
        for one_by_one in ([[value]], np.array([[value]], dtype=complex)):
            eigs = hermitian_eigenvalues(one_by_one)
            assert eigs.dtype == np.float64 and eigs.tobytes() == np.array([value]).tobytes()


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
        worst = np.maximum(worst, float(np.max(np.abs(hermitian_eigenvalues(h2) - charpoly_eigs_2x2(h2)))))
        h3 = random_hermitian(rng, 3)
        worst = np.maximum(worst, float(np.max(np.abs(hermitian_eigenvalues(h3) - charpoly_eigs_3x3(h3)))))
    assert worst < 1e-8


def test_eigenvalues_reject_non_hermitian():
    for bad in ([[0.0, 1.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]],
                [[np.inf, 0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array(bad, dtype=complex))


def test_eigenvalues_reject_a_non_square_matrix():
    with pytest.raises(DimensionMismatchError, match=r"expected a square matrix, got shape \(2, 3\)"):
        hermitian_eigenvalues(np.zeros((2, 3), dtype=complex))


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



def test_eigenvalues_of_complex_entries_whose_modulus_overflows():
    # |1.7e308+1.7e308j| is inf, so a peak taken over |a| skipped the scaling and
    # symmetrizing overflowed; the spectrum, about +/-2.4e308, overflows to +/-inf
    z = 1.7e308 + 1.7e308j
    eigs = hermitian_eigenvalues(np.array([[0.5, z], [np.conj(z), 0.5]]))
    assert eigs.tolist() == [-np.inf, np.inf]


# -- stacks ----------------------------------------------------------------


def family_pt(rng):
    """The PT of an evolved x-state: one off-diagonal pair, the curve's sparse case."""
    m = corner_matrix(float(rng.uniform(0.0, 0.25)) * float(rng.uniform(0.0, 1.0)))
    return partial_transpose(m, QUBIT_QUTRIT, "A")


def one_pair(rng, n):
    """A real diagonal and one complex off-diagonal pair, (0, n - 1); only the diagonal at n = 1."""
    m = np.diag(rng.standard_normal(n)).astype(complex)
    if n > 1:
        m[0, -1] = complex(*rng.standard_normal(2))
        m[-1, 0] = np.conj(m[0, -1])
    return m


def stack_of(rng, kinds, n=6):
    members = []
    for kind in kinds:
        if kind == "sparse":
            members.append(family_pt(rng) if n == 6 else one_pair(rng, n))
        elif kind == "dense":
            members.append(random_hermitian(rng, n))
        else:  # diagonal, already converged
            members.append(np.diag(rng.standard_normal(n)).astype(complex))
    return np.array(members)


STACKS = {
    "sparse": ["sparse"] * 7,
    "dense": ["dense"] * 7,
    "mixed": ["sparse", "dense", "diagonal", "dense", "sparse", "diagonal", "dense"],
}


def trusted(mats):
    """mats made fit for the trusted entry by hand: symmetrized, then divided
    by a power of two (exactly) so that each Frobenius norm is at most 1.

    The checked entry leaves such input as it is and solves it at
    _JACOBI_OFF_TOL, so both entries must give the same bits on it.
    """
    h = 0.5 * (mats + np.swapaxes(mats, -1, -2).conj())
    peak = float(np.max(np.linalg.norm(h, axis=(-2, -1)), initial=0.0))
    h = h * 2.0 ** -int(np.frexp(peak)[1])
    assert np.array_equal(h, np.swapaxes(h, -1, -2).conj())
    assert np.all(np.linalg.norm(h, axis=(-2, -1)) <= 1.0)
    return h


def matrix_eigenvalues(m, off_tol):
    """Ascending eigenvalues of one trusted n x n matrix, 2 <= n <= 6, through the one-matrix kernel, shape (n,).

    The kernel takes the flat row-major real and imaginary parts and the
    checked entry's skip_tol, off_tol / (2n); n < 2 leaves nothing to rotate.
    """
    n = len(m)
    if n < 2:
        return np.sort(m.diagonal().real)
    diag = scalar._jacobi_kernel(n)(m.real.ravel().tolist(), m.imag.ravel().tolist(), off_tol, off_tol / (2 * n))
    return np.sort(diag)


def reference_eigenvalues(m, off_tol):
    """Ascending eigenvalues of one trusted n x n matrix, n >= 2, through the frozen plan-walking kernel."""
    n = len(m)
    return np.sort(jacobi_matrix_reference(m.real.tolist(), m.imag.tolist(), off_tol, off_tol / (2 * n)))


def planes(stack):
    """Fresh (n, n, k) real and imaginary float planes of a (k, n, n) stack, as the stack kernel takes them."""
    return stack.real.transpose(1, 2, 0).copy(), stack.imag.transpose(1, 2, 0).copy()


def stack_eigenvalues(stack):
    """Ascending eigenvalues of a trusted (k, n, n) stack through the stack kernel, shape (k, n).

    The kernel skips a pair at off_tol / (2n) of the stack's own n, as the
    one-matrix kernel does; n < 2 leaves nothing to rotate.
    """
    n = stack.shape[-1]
    if n < 2:
        return np.sort(stack.diagonal(axis1=-2, axis2=-1).real, axis=-1)
    off_tol = scalar._JACOBI_OFF_TOL
    return np.sort(linalg._jacobi_stack(*planes(stack), off_tol, off_tol / (2 * n)), axis=-1)


@pytest.mark.parametrize("kinds", list(STACKS.values()), ids=list(STACKS))
def test_stack_eigenvalues_match_eigvalsh_and_single_calls(kinds):
    # the stack kernel: each row must be what the checked entry gives for that matrix alone
    rng = np.random.default_rng(19)
    for n in (6, 1, 2, 3):
        for _ in range(5):
            stack = trusted(stack_of(rng, kinds, n))
            eigs = stack_eigenvalues(stack)
            assert eigs.shape == (len(kinds), n)
            assert np.max(np.abs(eigs - np.linalg.eigvalsh(stack))) < 1e-12
            singles = np.array([hermitian_eigenvalues(m) for m in stack])
            assert eigs.tobytes() == singles.tobytes()


@pytest.mark.parametrize("read_only", [False, True])
def test_kernels_overwrite_their_input_and_the_entries_only_read_theirs(read_only):
    # hermitian_eigenvalues and esd._pt_eigenvalues only read their matrix (the latter its real and
    # imaginary planes), and the one-matrix kernel its flat rows; the stack kernel overwrites the
    # float planes its callers build afresh
    rng = np.random.default_rng(26)
    off_tol = scalar._JACOBI_OFF_TOL
    m = trusted(random_hermitian(rng, 6))
    m.flags.writeable = not read_only
    before = m.copy()
    eigs = hermitian_eigenvalues(m)
    assert m.tobytes() == before.tobytes()
    assert eigs.dtype == np.float64 and eigs.shape == (6,)
    assert eigs.tobytes() == matrix_eigenvalues(before, off_tol).tobytes()
    re, im = m.real.ravel().tolist(), m.imag.ravel().tolist()
    diag = scalar._jacobi_kernel(6)(re, im, off_tol, off_tol / 12)
    assert len(diag) == 6 and np.sort(diag).tobytes() == eigs.tobytes()
    assert np.array(re).tobytes() == before.real.tobytes() and np.array(im).tobytes() == before.imag.tobytes()
    stack = trusted(stack_of(rng, STACKS["mixed"]))  # planes() copies: the stack route only reads the stack
    stack.flags.writeable = not read_only
    before = stack.copy()
    eigs = stack_eigenvalues(stack)
    assert stack.tobytes() == before.tobytes()
    assert eigs.tobytes() == np.array([matrix_eigenvalues(a, off_tol) for a in before]).tobytes()
    stack = trusted(stack_of(rng, STACKS["dense"]))  # every matrix rotated on the caller's planes
    re, im = planes(stack)
    diag = linalg._jacobi_stack(re, im, off_tol, off_tol / 12)
    assert np.sort(diag, axis=-1).tobytes() == np.array([matrix_eigenvalues(a, off_tol) for a in stack]).tobytes()
    assert not np.array_equal(re, planes(stack)[0]) and not np.array_equal(im, planes(stack)[1])
    pt = stack[0]
    pt.flags.writeable = not read_only
    before = pt.copy()
    ga, gb = np.array([1.0, 0.6, 0.0]), np.array([1.0, 0.3, 0.5])
    eigs = esd._pt_eigenvalues(pt.real, pt.imag, channels._MASK_TERMS, ga, gb)  # every row taken as live
    assert pt.tobytes() == before.tobytes()
    assert eigs.shape == (3, 6)
    masked = before * np.moveaxis(channels.dephasing_mask(ga, gb), -1, 0)
    assert np.max(np.abs(np.sort(eigs, axis=-1) - np.linalg.eigvalsh(masked))) < 1e-12


def test_a_pair_exactly_at_skip_tol_is_skipped():
    # the skip rule is r > skip_tol, strictly: both kernels leave a pair whose r is exactly skip_tol
    # as it is, as the reference does, and rotate it when skip_tol is the float below. The pair
    # couples a degenerate diagonal, so its rotation moves two eigenvalues by r, far more than an
    # ulp; the pair (1, 2) keeps the matrix from converging before the first sweep
    off_tol = scalar._JACOBI_OFF_TOL
    skip_tol = off_tol / 6
    m = np.diag([0.125, 0.125, 0.25]).astype(complex)
    m[0, 1] = m[1, 0] = skip_tol
    m[1, 2] = m[2, 1] = 0.03
    diagonals = []
    for tol in (skip_tol, math.nextafter(skip_tol, 0.0)):
        reference = jacobi_matrix_reference(m.real.tolist(), m.imag.tolist(), off_tol, tol)
        kernel = scalar._jacobi_kernel(3)(m.real.ravel().tolist(), m.imag.ravel().tolist(), off_tol, tol)
        stack = linalg._jacobi_stack(*planes(m[None]), off_tol, tol)
        assert np.array(kernel).tobytes() == np.array(reference).tobytes() == stack[0].tobytes(), tol
        diagonals.append(reference)
    assert diagonals[0][0] == 0.125 and abs(diagonals[1][0] - 0.125) > 0.5 * skip_tol


def signed_zero_pair():
    """A diagonal plus one 2x2 block, rows {1, 4}, with an imaginary coupling; and its copy with every zero -0.0."""
    m = np.diag([0.25, 0.125, -0.0625, 0.125, 0.375, 0.25]).astype(complex)
    m[1, 4] = -0.05j
    m[4, 1] = np.conj(m[1, 4])
    signed = m.copy()
    for part in (signed.real, signed.imag):  # views: 30 real and 34 imaginary zeros become -0.0
        part[part == 0.0] = -0.0
    return m, signed


def test_exact_zero_pairs_and_signed_zeros_give_the_same_eigenvalue_bits():
    # a diagonal plus one 2x2 block with an imaginary coupling: every other pair is an exact
    # zero, skipped before its hypot, and a zero written as -0.0, off the diagonal, as an
    # imaginary part or as the coupling's real part, changes no eigenvalue, none of which is zero
    m, signed = signed_zero_pair()
    assert np.signbit(signed.real).sum() == 30 + 1 and np.signbit(signed.imag).sum() == 34 + 1  # +1: a negative entry
    expected = hermitian_eigenvalues(m)
    assert np.max(np.abs(expected - np.linalg.eigvalsh(m))) < 1e-15
    assert {0.25, 0.125, -0.0625} <= set(expected.tolist())  # the inert rows keep their diagonal
    for a in (m, signed):
        assert matrix_eigenvalues(a, scalar._JACOBI_OFF_TOL).tobytes() == expected.tobytes()
    stacked = stack_eigenvalues(np.array([m, signed, m]))
    assert stacked.tobytes() == np.array([expected] * 3).tobytes()


@pytest.mark.parametrize("n", range(2, 7))
def test_generated_kernel_gives_the_reference_bits_and_only_reads_its_input(n, monkeypatch):
    # the kernel generated for n x n must give the frozen plan-walking kernel's bits on dense
    # matrices, dense ones with exact-zero pairs, one-pair and diagonal ones, blocks of the
    # signed-zero matrix holding its coupled rows {1, 4} and, at n = 2, the death-time probes'
    # live blocks, with their skip_tol, as the reference probe hands them to the kernel (the
    # generated probe rotates the same block in locals); it only reads the flat rows it is given
    rng = np.random.default_rng(70 + n)
    off_tol = scalar._JACOBI_OFF_TOL
    mats = list(trusted(np.array([random_hermitian(rng, n) for _ in range(40)])))
    for _ in range(40):
        h = random_hermitian(rng, n)
        zero = np.triu(rng.random((n, n)) < 0.5, 1)
        h[zero | zero.T] = 0.0
        mats.append(trusted(h))
    mats += list(trusted(stack_of(rng, ["sparse", "diagonal"] * 5, n)))
    rows = [1, 4, 0, 2, 3, 5][:n]
    mats += [a[np.ix_(rows, rows)] for a in signed_zero_pair()]
    if n >= 3:  # a degenerate diagonal that stops at once when its pairs are summed in row-major order,
        # and is rotated when they are summed in reverse
        edge = np.diag(np.full(n, 0.25)).astype(complex)
        for (i, j), entry in zip([(0, 1), (0, 2), (1, 2)], ["0x1.ba7096d0dd02ep-45", "0x1.b8f61e33abcd9p-45",
                                                            "0x1.f12a0317dc283p-47"]):
            edge[i, j] = edge[j, i] = float.fromhex(entry)
        assert matrix_eigenvalues(edge, off_tol).tolist() == [0.25] * n
        mats.append(edge)
    cases = [(m.real, m.imag, off_tol / (2 * n)) for m in mats]  # real and imaginary parts, skip_tol
    generate = scalar._jacobi_kernel
    if n == 2:
        def recording_kernel(size):
            def record(re, im, off_tol, skip_tol):
                cases.append((np.reshape(re, (size, size)), np.reshape(im, (size, size)), skip_tol))
                return generate(size)(re, im, off_tol, skip_tol)
            return record

        with monkeypatch.context() as patch:
            patch.setattr(scalar, "_jacobi_kernel", recording_kernel)  # where the reference probe reads it
            patch.setattr(scalar, "_family_probe", lambda: min_pt_eigenvalue_reference)  # where the root finder does
            for kind in ScenarioKind:
                for x in (0.126, 0.2, 0.25):
                    numeric_esd_time(Scenario(kind, x, 1.3, 0.7))
        assert len(cases) > len(mats) + 100
    kernel = generate(n)
    for re, im, skip_tol in cases:
        flat_re, flat_im = re.ravel().tolist(), im.ravel().tolist()
        diag = kernel(flat_re, flat_im, off_tol, skip_tol)
        reference = jacobi_matrix_reference(re.tolist(), im.tolist(), off_tol, skip_tol)
        assert type(diag) is list and np.array(diag).tobytes() == np.array(reference).tobytes()
        assert np.array(flat_re).tobytes() == re.tobytes() and np.array(flat_im).tobytes() == im.tobytes()


@pytest.mark.parametrize("n", [7, 8, 9])
def test_a_matrix_above_six_goes_through_the_stack_kernel_with_the_reference_bits(n, monkeypatch):
    # no kernel is generated above 6x6: the checked entry solves the matrix as a stack of one,
    # which gives the frozen one-matrix kernel's bits
    sizes, kernel = [], scalar._jacobi_kernel
    monkeypatch.setattr(scalar, "_jacobi_kernel", lambda size: sizes.append(size) or kernel(size))
    rng = np.random.default_rng(80 + n)
    mats = [*trusted(np.array([random_hermitian(rng, n) for _ in range(5)])), trusted(one_pair(rng, n))]
    for m in mats:
        assert hermitian_eigenvalues(m).tobytes() == reference_eigenvalues(m, scalar._JACOBI_OFF_TOL).tobytes()
    assert sizes == []


def test_no_kernel_is_generated_above_six(monkeypatch):
    # a 16x16 matrix and a dims 3 3 state's negativity take the stack route: the kernel cache
    # gains no size, and each answer agrees with LAPACK
    sizes, kernel = [], scalar._jacobi_kernel
    monkeypatch.setattr(scalar, "_jacobi_kernel", lambda size: sizes.append(size) or kernel(size))
    cached = kernel.cache_info().currsize
    rng = np.random.default_rng(73)
    h = random_hermitian(rng, 16)
    assert np.max(np.abs(hermitian_eigenvalues(h) - np.linalg.eigvalsh(h))) < 1e-12
    rho = parse_state(format_state(random_density_matrix(rng, BipartiteDims(3, 3))))
    eigs = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dims, "A"))
    result = negativity(rho)
    assert abs(result.min_pt_eigenvalue - eigs[0]) < 1e-12
    assert abs(result.value - (-eigs[eigs < -SPECTRAL_TOL].sum())) < 1e-12
    assert sizes == [] and kernel.cache_info().currsize == cached
    for size in (0, 1, 7, 16):
        with pytest.raises(ValueError, match="the one-matrix kernel takes 2 <= n <= 6"):
            kernel(size)


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 600], ids=["unscaled", "scaled"])
def test_checked_entry_hands_the_kernel_the_signed_zeros_of_its_input(scale, monkeypatch):
    # the checked entry scales and symmetrizes with no complex product: a real part -0.0 beside a
    # nonzero imaginary part reaches the kernel as -0.0, as the probe, sweep and evolve hand it on;
    # numpy's complex product by a real, (x + iy)(s + 0i), made -0.0 - 0.0 * y a +0.0 where y < 0
    m = np.array([[0.25 * scale, complex(-0.0, -0.1 * scale)], [complex(-0.0, 0.1 * scale), 0.25 * scale]])
    assert np.signbit(m.real).tolist() == [[False, True], [True, False]]
    rows, kernel = [], scalar._jacobi_kernel

    def recording_kernel(n):
        def record(re, im, off_tol, skip_tol):
            rows.append((np.reshape(re, (n, n)), np.reshape(im, (n, n))))
            return kernel(n)(re, im, off_tol, skip_tol)
        return record

    monkeypatch.setattr(scalar, "_jacobi_kernel", recording_kernel)
    eigs = hermitian_eigenvalues(m)
    [(re, im)] = rows
    assert np.signbit(re).tolist() == [[False, True], [True, False]]
    assert np.signbit(im).tolist() == [[False, True], [False, False]]
    assert (scale > linalg._JACOBI_SCALE_LIMIT) == (re[0, 0] < 0.25 * scale)  # the scaled path is taken
    assert np.max(np.abs(eigs / scale - [0.15, 0.35])) < 1e-15


@pytest.mark.parametrize("n", range(7))
def test_trusted_entry_gives_the_checked_bits_alone_and_stacked(n):
    # on trusted input, the trusted entry on one matrix, the stack kernel on a
    # stack and the checked entry give the same bytes
    rng = np.random.default_rng(40 + n)
    stack = trusted(stack_of(rng, STACKS["mixed"], n))
    for mats in (stack, stack / 64.0):
        checked = np.array([hermitian_eigenvalues(m) for m in mats])
        singles = [matrix_eigenvalues(m, scalar._JACOBI_OFF_TOL) for m in mats]
        assert np.array(singles).tobytes() == checked.tobytes()
        assert stack_eigenvalues(mats).tobytes() == checked.tobytes()


# The same seeded dense partial transposes, symmetrized, one matrix at a time
# through the checked entry and as a stack through the stack kernel, hashed;
# run in this process and in one on numpy's baseline loops.
_DENSE_DIGEST = """
import hashlib
import numpy as np
from esdsim.linalg import QUBIT_QUTRIT, hermitian_eigenvalues, partial_transpose
from esdsim.states import random_density_matrix
from test_linalg import stack_eigenvalues
rng = np.random.default_rng(27)
rhos = [random_density_matrix(rng).mat for _ in range(20)]
pts = np.array([partial_transpose(rho, QUBIT_QUTRIT, side) for rho in rhos for side in "AB"])
pts = 0.5 * (pts + np.swapaxes(pts, -1, -2).conj())  # exactly Hermitian, as the stack kernel needs
singles = np.array([hermitian_eigenvalues(m) for m in pts])
print(hashlib.sha256(singles.tobytes() + stack_eigenvalues(pts).tobytes()).hexdigest())
"""

#: numpy skips, with an ImportWarning, the names its build does not dispatch,
#: so this list serves any host.
_SIMD_OFF = "X86_V4 X86_V3 AVX512_ICL AVX512_SPR AVX512_SKX AVX512F AVX2 FMA3"


def test_dense_eigenvalues_do_not_depend_on_simd_dispatch():
    # numpy's AVX2 and AVX-512 complex multiply fuses its multiply and add and
    # the baseline loop does not; the kernels' real arithmetic must not care
    src = str(Path(esdsim.__file__).parents[1])
    tests = str(Path(__file__).parent)  # the script imports stack_eigenvalues from this module
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=_SIMD_OFF,
               PYTHONPATH=os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH")))))
    baseline = subprocess.run([sys.executable, "-c", _DENSE_DIGEST], capture_output=True, text=True,
                              check=True, env=env).stdout
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_DENSE_DIGEST, {})
    assert len(baseline.strip()) == 64
    assert here.getvalue() == baseline


#: sha256 of the family grid below. The family's eigenvalues do not depend on
#: the host's SIMD dispatch, so any change here changes curve and death-time bits.
FAMILY_BITS = "1c5da0a0ef3124494db849834a5d88cc65d7f510d2705935d090e59d2fb0de0e"


def test_family_eigenvalue_bits_are_pinned():
    digest = hashlib.sha256()
    rates = (1e-9, 1.0, 1e3)
    for kind in ScenarioKind:
        for x in (0.0, 0.125, 0.126, 0.2, 0.25):
            for rate in rates:
                scenario = Scenario(kind, x, rate, rate)
                times = [0.0] + [t / rate for t in (1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 10.0, 1e2, 1e4, 1e6)]
                states = [evolve(scenario, t).mat for t in times]
                for side in "AB":
                    pts = np.array([partial_transpose(m, QUBIT_QUTRIT, side) for m in states])
                    for m in pts:
                        digest.update(hermitian_eigenvalues(m).tobytes())
                    digest.update(stack_eigenvalues(pts).tobytes())
        for x in (0.126, 0.2, 0.25):
            for rate in rates:
                t_star = numeric_esd_time(Scenario(kind, x, rate, rate))
                assert not isinstance(t_star, EsdOutcome)
                digest.update(t_star.hex().encode())
    assert digest.hexdigest() == FAMILY_BITS


def test_stack_eigenvalues_match_characteristic_polynomial():
    rng = np.random.default_rng(20)
    for n, oracle in ((2, charpoly_eigs_2x2), (3, charpoly_eigs_3x3)):
        stack = trusted(np.array([random_hermitian(rng, n) for _ in range(100)]))
        expected = np.array([oracle(h) for h in stack])
        assert np.max(np.abs(stack_eigenvalues(stack) - expected)) < 1e-8


def test_eigenvalues_of_an_empty_matrix():
    # a 0x0 matrix has an empty spectrum, not a reshape error, and an empty stack an empty one per matrix
    empty = hermitian_eigenvalues(np.zeros((0, 0), dtype=complex))
    assert empty.shape == (0,) and empty.dtype == np.float64
    empty = stack_eigenvalues(np.zeros((0, 6, 6), dtype=complex))
    assert empty.shape == (0, 6) and empty.dtype == np.float64


@pytest.mark.parametrize("shape", [(0, 6, 6), (1, 6, 6), (2, 3, 6, 6)], ids=["empty", "one", "2x3"])
def test_public_entries_refuse_a_stack(shape):
    # one matrix per call: a stack goes through the stack kernel, or one call per member
    stack = np.zeros(shape, dtype=complex)
    with pytest.raises(ValueError, match=f"expected a 2-D matrix, got ndim={len(shape)}"):
        hermitian_eigenvalues(stack)
    for subsystem in ("A", "B"):
        with pytest.raises(ValueError, match=f"expected a 2-D matrix, got ndim={len(shape)}"):
            partial_transpose(stack, QUBIT_QUTRIT, subsystem)


@pytest.mark.parametrize("kernel", ["matrix", "stack"])
def test_jacobi_sweep_cap_raises(kernel, monkeypatch):
    # a dense 6x6 needs several sweeps: past the cap, either kernel must raise, not return a half-rotated diagonal
    # both kernels read the one cap, scalar's, when they are called
    monkeypatch.setattr(scalar, "_MAX_JACOBI_SWEEPS", 1)
    rng = np.random.default_rng(31)
    with pytest.raises(RuntimeError, match="Jacobi iteration did not converge"):
        if kernel == "matrix":
            hermitian_eigenvalues(random_hermitian(rng, 6))
        else:
            stack_eigenvalues(trusted(stack_of(rng, ["dense"] * 2)))
