import numpy as np
import pytest

from esdsim import linalg, states
from esdsim.linalg import QUBIT_QUTRIT, SPECTRAL_TOL, hermitian_eigenvalues
from esdsim.states import (
    ANSATZ_DIAGONAL,
    JOINT_COHERENCE_SLOTS,
    DensityMatrix,
    InvalidStateError,
    ansatz_general,
    ansatz_x,
    extract_corner,
    format_state,
    parse_state,
    random_density_matrix,
    reduce_a,
    reduce_b,
    validate,
)

from numeric_oracles import random_pattern_state, random_unitary


def test_ansatz_x_layout():
    rho = ansatz_x(0.2)
    assert np.allclose(np.diag(rho.mat), ANSATZ_DIAGONAL, atol=0)
    assert rho.mat[0, 5] == 0.2
    assert rho.mat[5, 0] == 0.2
    off = rho.mat - np.diag(np.diag(rho.mat))
    off[0, 5] = off[5, 0] = 0.0
    assert np.max(np.abs(off)) == 0.0


def test_ansatz_x_zero_is_diagonal():
    rho = ansatz_x(0.0)
    assert np.max(np.abs(rho.mat - np.diag(ANSATZ_DIAGONAL))) == 0.0


def test_ansatz_x_boundary_spectrum():
    eigs = hermitian_eigenvalues(ansatz_x(0.25).mat)
    assert np.max(np.abs(eigs - [0.0, 0.125, 0.125, 0.125, 0.125, 0.5])) < 1e-14


def test_ansatz_x_range_check():
    with pytest.raises(ValueError):
        ansatz_x(0.26)
    with pytest.raises(ValueError):
        ansatz_x(-1e-9)


def test_ansatz_x_validates_across_range():
    for x in np.linspace(0.0, 0.25, 11):
        rho = ansatz_x(float(x))
        validate(rho.mat)  # should not raise


def test_ansatz_general_matches_ansatz_x():
    rho = ansatz_general(ANSATZ_DIAGONAL, [0.0, 0.15, 0.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(rho.mat - ansatz_x(0.15).mat)) == 0.0


def test_ansatz_general_extended_class_is_valid():
    # three coherences at 0.1 on the standard diagonal stay PSD
    rho = ansatz_general(ANSATZ_DIAGONAL, [0.1, 0.1, 0.0, 0.1, 0.0, 0.0])
    assert hermitian_eigenvalues(rho.mat)[0] > 0.0


def test_ansatz_general_rejects_indefinite():
    with pytest.raises(InvalidStateError) as err:
        ansatz_general(ANSATZ_DIAGONAL, [0.3, 0.3, 0.3, 0.3, 0.3, 0.3])
    assert err.value.condition == "positivity"


def test_ansatz_general_rejects_bad_trace():
    with pytest.raises(InvalidStateError) as err:
        ansatz_general([0.2] * 6, [0.0] * 6)
    assert err.value.condition == "trace"


def test_ansatz_general_entry_counts():
    with pytest.raises(ValueError):
        ansatz_general([0.25] * 4, [0.0] * 6)
    with pytest.raises(ValueError):
        ansatz_general(ANSATZ_DIAGONAL, [0.0] * 5)


def test_validate_rejects_overlarge_corner():
    m = ansatz_x(0.0).mat.copy()
    m[0, 5] = m[5, 0] = 0.3
    with pytest.raises(InvalidStateError) as err:
        validate(m)
    assert err.value.condition == "positivity"
    assert abs(err.value.magnitude - 0.05) < 1e-12


def test_validate_rejects_bad_trace():
    with pytest.raises(InvalidStateError) as err:
        validate(np.diag([0.15, 0.15, 0.15, 0.15, 0.15, 0.15]).astype(complex))
    assert err.value.condition == "trace"
    assert abs(err.value.magnitude - 0.1) < 1e-12


def test_validate_rejects_non_hermitian():
    m = ansatz_x(0.1).mat.copy()
    m[0, 5] = 0.1 + 1e-6j
    with pytest.raises(InvalidStateError) as err:
        validate(m)
    assert err.value.condition == "hermiticity"


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.inf, np.inf)])
@pytest.mark.parametrize("slots", [((2, 2),), ((0, 5), (5, 0))], ids=["diagonal", "off-diagonal"])
def test_validate_rejects_non_finite_entries(value, slots):
    m = ansatz_x(0.2).mat.copy()
    for i, j in slots:
        m[i, j] = value
    with pytest.raises(InvalidStateError) as err:
        validate(m)
    assert err.value.condition == "finite"
    assert err.value.magnitude == len(slots)
    # DensityMatrix checks only the shape, so it can carry the bad entries into text
    with pytest.raises(InvalidStateError) as err:
        parse_state(format_state(DensityMatrix(m, QUBIT_QUTRIT)))
    assert err.value.condition == "finite"


@pytest.mark.parametrize("corner", [1e150, 1e200, 1e308])
def test_validate_rejects_huge_coherence(corner):
    m = ansatz_x(0.2).mat.copy()
    m[0, 5] = m[5, 0] = corner
    with pytest.raises(InvalidStateError) as err:
        parse_state(format_state(DensityMatrix(m, QUBIT_QUTRIT)))
    assert err.value.condition == "positivity"
    assert err.value.magnitude == pytest.approx(corner - 0.25)


def test_parse_rejects_coherence_whose_modulus_overflows():
    # the eigensolver's scaling missed this one, so with warnings off it was accepted
    text = "dims 1 2\n0.5+0j 1.7e308+1.7e308j\n1.7e308-1.7e308j 0.5+0j\n"
    with pytest.raises(InvalidStateError) as err:
        parse_state(text)
    assert err.value.condition == "positivity"
    assert err.value.magnitude == np.inf


@pytest.mark.parametrize("diagonal", [(1.7e308, 1.7e308, -1.7e308), (1.7e308, 1.7e308, -1.7e308, -1.7e308, 0.5, 0.5)],
                         ids=["sum-inf", "sum-nan"])
def test_parse_refuses_overflowing_trace(diagonal):
    # np.trace overflowed with a RuntimeWarning, and a NaN sum passed the trace check
    rows = [" ".join(repr(complex(v)) for v in row) for row in np.diag(diagonal)]
    with pytest.raises(InvalidStateError) as err:
        parse_state("\n".join([f"dims 1 {len(diagonal)}", *rows]) + "\n")
    assert err.value.condition == "trace"
    assert not np.isfinite(err.value.magnitude)  # inf or NaN, as numpy's summation order gives it


def test_validate_runs_the_eigensolve_only_to_refuse(monkeypatch):
    calls = []
    solve = linalg.hermitian_eigenvalues
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", lambda mat: calls.append(mat) or solve(mat))
    validate(random_density_matrix(np.random.default_rng(26)).mat)
    assert calls == []  # dense
    ansatz_general(ANSATZ_DIAGONAL, [0.1, 0.1, 0.0, 0.1, 0.0, 0.0])
    assert calls == []  # jointly coherent
    with pytest.raises(InvalidStateError) as err:
        ansatz_general(ANSATZ_DIAGONAL, [0.3, 0.3, 0.3, 0.3, 0.3, 0.3])
    assert err.value.condition == "positivity"
    assert len(calls) == 1


@pytest.mark.parametrize("lowest", [-2e-10, -1e-10 * (1 + 1e-6), -1e-10 * (1 - 1e-6), -5e-11 * (1 + 1e-3),
                                    -5e-11 * (1 - 1e-3), -1e-12, 0.0, 1e-12])
def test_validate_decides_positivity_as_the_jacobi_solve_does(lowest):
    # Q diag(lambda) Q^dagger around the noise floor and the certificate's shift
    rng = np.random.default_rng(27)
    for _ in range(25):
        q = random_unitary(rng, 6)
        spectrum = rng.uniform(0.05, 1.0, 6)
        spectrum *= (1.0 - lowest) / spectrum[1:].sum()
        spectrum[0] = lowest
        m = (q * spectrum) @ q.conj().T
        m = 0.5 * (m + m.conj().T)
        jacobi = float(hermitian_eigenvalues(m)[0])
        if jacobi >= -SPECTRAL_TOL:
            assert validate(m).mat.tobytes() == m.tobytes()
        else:
            with pytest.raises(InvalidStateError) as err:
                validate(m)
            assert err.value.condition == "positivity"
            assert err.value.magnitude.hex() == (-jacobi).hex()
        if lowest <= -2e-10:
            assert jacobi < -SPECTRAL_TOL
        if lowest >= -1e-12:
            assert linalg._cholesky_certifies(m)


def test_validate_accepts_boundary_state():
    validate(ansatz_x(0.25).mat)


def test_reductions_of_corner_state():
    rho = ansatz_x(0.25)
    assert np.max(np.abs(reduce_a(rho) - np.diag([0.5, 0.5]))) < 1e-15
    assert np.max(np.abs(reduce_b(rho) - np.diag([0.375, 0.25, 0.375]))) < 1e-15


def test_reductions_are_diagonal_for_pattern_states():
    rng = np.random.default_rng(21)
    for _ in range(25):
        rho = random_pattern_state(rng)
        ra, rb = reduce_a(rho), reduce_b(rho)
        assert np.max(np.abs(ra - np.diag(np.diag(ra)))) < 1e-14
        assert np.max(np.abs(rb - np.diag(np.diag(rb)))) < 1e-14
        assert abs(np.trace(ra) - 1.0) < 1e-12
        assert abs(np.trace(rb) - 1.0) < 1e-12


def test_pattern_defect_detects_stray_coherence():
    m = ansatz_x(0.1).mat.copy()
    assert states.is_locally_incoherent(m)
    m[0, 1] = m[1, 0] = 1e-3
    assert not states.is_locally_incoherent(m)
    assert abs(states.coherence_pattern_defect(m) - 1e-3) < 1e-18


def test_joint_coherence_slots_change_both_factors():
    for i, j in JOINT_COHERENCE_SLOTS:
        assert i // 3 != j // 3  # qubit index differs
        assert i % 3 != j % 3    # qutrit index differs


def test_extract_corner_roundtrip():
    for x in (0.0, 0.1, 0.25):
        assert extract_corner(ansatz_x(x)) == x


def test_density_matrix_is_read_only():
    rho = ansatz_x(0.1)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 9.0


def test_density_matrix_from_nested_lists_is_the_same_state():
    # a list has no .shape, so the constructor must coerce before it checks
    rho = ansatz_x(0.2)
    from_lists = DensityMatrix(rho.mat.tolist(), QUBIT_QUTRIT)
    assert from_lists.mat.dtype == np.complex128 and not from_lists.mat.flags.writeable
    assert from_lists.mat.tobytes() == rho.mat.tobytes()
    real_lists = DensityMatrix(rho.mat.real.tolist(), QUBIT_QUTRIT)
    assert real_lists.mat.tobytes() == rho.mat.tobytes()
    assert hermitian_eigenvalues(from_lists.mat).tobytes() == hermitian_eigenvalues(rho.mat).tobytes()


@pytest.mark.parametrize("bad", [[0.25] * 6, 0.5, np.zeros((1, 6, 6))], ids=["1-D", "0-D", "3-D"])
def test_density_matrix_refuses_input_that_is_not_a_matrix(bad):
    with pytest.raises(ValueError, match="expected a 2-D matrix"):
        DensityMatrix(bad, QUBIT_QUTRIT)


def test_density_matrix_refuses_the_wrong_size_from_lists():
    with pytest.raises(linalg.DimensionMismatchError):
        DensityMatrix(np.eye(4).tolist(), QUBIT_QUTRIT)


def test_format_parse_roundtrip_exact():
    rng = np.random.default_rng(22)
    for rho in (ansatz_x(0.25), random_density_matrix(rng)):
        back = parse_state(format_state(rho))
        assert np.array_equal(back.mat, rho.mat)
        assert back.dims == rho.dims


def test_format_layout():
    text = format_state(ansatz_x(0.25))
    lines = text.strip().splitlines()
    assert lines[0] == "dims 2 3"
    assert len(lines) == 7
    assert lines[1].split()[0] == "0.25+0j"


def test_format_bytes_of_edge_entries():
    # the expected text is what the per-entry f"{z.real:.17g}{z.imag:+.17g}j" rendering gave
    inf, nan = float("inf"), float("nan")
    m = np.zeros((6, 6), dtype=complex)
    m[0] = [complex(-0.0, -0.0), complex(5e-324, -5e-324), complex(1e308, -1e308),
            complex(inf, -inf), complex(nan, -nan), complex(0.1, 1 / 3)]
    m[1] = [complex(-inf, nan), -5e-324, 1.7976931348623157e308, complex(-0.0, -0.0), 1e-300j, 2.5]
    zeros = "0+0j 0+0j 0+0j 0+0j 0+0j 0+0j\n"
    assert format_state(DensityMatrix(m, QUBIT_QUTRIT)) == (
        "dims 2 3\n"
        "-0-0j 4.9406564584124654e-324-4.9406564584124654e-324j 1e+308-1e+308j inf-infj nan+nanj"
        " 0.10000000000000001+0.33333333333333331j\n"
        "-inf+nanj -4.9406564584124654e-324+0j 1.7976931348623157e+308+0j -0-0j 0+1e-300j 2.5+0j\n"
        + zeros * 4)
    real = np.array([[-0.0, 5e-324], [inf, nan]])
    assert format_state(DensityMatrix(real, linalg.BipartiteDims(1, 2))) == (
        "dims 1 2\n-0+0j 4.9406564584124654e-324+0j\ninf+0j nan+0j\n")
    single = np.array([[0.1, 1 / 3], [-3e38, 2.0]], dtype=np.float32)
    assert format_state(DensityMatrix(single, linalg.BipartiteDims(2, 1))) == (
        "dims 2 1\n0.10000000149011612+0j 0.3333333432674408+0j\n-3.0000000054977558e+38+0j 2+0j\n")


def test_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_state("")
    with pytest.raises(ValueError):
        parse_state("rows 2 3\n" + "0+0j " * 6)
    good = format_state(ansatz_x(0.1))
    truncated = "\n".join(good.splitlines()[:-1])
    with pytest.raises(ValueError):
        parse_state(truncated)


def test_random_density_matrix_is_valid():
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho = random_density_matrix(rng)
        validate(rho.mat)
