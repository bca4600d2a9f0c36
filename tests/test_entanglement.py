import copy
import math
import pickle

import numpy as np
import pytest

import esdsim
from esdsim import (QUBIT_QUTRIT, DensityMatrix, NonHermitianError, ansatz_x, esd, is_ppt, linalg, negativity,
                    pt_spectrum, random_density_matrix, validate)

from numeric_oracles import eigvalsh_negativity, random_unitary


def test_pt_spectrum_at_maximal_corner():
    spec = pt_spectrum(ansatz_x(0.25), "A")
    expected = [-0.125, 0.125, 0.125, 0.25, 0.25, 0.375]
    assert np.max(np.abs(spec - expected)) < 1e-14


def test_pt_spectrum_of_diagonal_state_matches_state():
    rho = ansatz_x(0.0)
    spec = pt_spectrum(rho, "A")
    assert np.max(np.abs(spec - np.sort(np.diag(rho.mat).real))) < 1e-14


def test_pt_spectrum_threshold_touches_zero():
    eigs = pt_spectrum(ansatz_x(0.125), "A")
    assert abs(eigs[0]) < 1e-14


def test_negativity_values_along_x():
    assert negativity(ansatz_x(0.0)).value == 0.0
    assert negativity(ansatz_x(0.125)).value == 0.0
    quarter = negativity(ansatz_x(0.25))
    assert abs(quarter.value - 0.125) < 1e-14
    assert quarter.is_entangled
    assert abs(quarter.min_pt_eigenvalue + 0.125) < 1e-14


def test_negativity_flags_separable_region():
    res = negativity(ansatz_x(0.1))
    assert res.value == 0.0
    assert not res.is_entangled


def test_is_ppt_examples():
    assert is_ppt(ansatz_x(0.1))
    assert not is_ppt(ansatz_x(0.2))
    mixed = DensityMatrix(np.eye(6, dtype=complex) / 6.0, QUBIT_QUTRIT)
    assert is_ppt(mixed)


def test_negativity_same_from_either_side():
    rng = np.random.default_rng(41)
    for _ in range(40):
        rho = random_density_matrix(rng)
        assert abs(negativity(rho, "A").value - negativity(rho, "B").value) < 1e-10


def test_negativity_against_library_eigensolver():
    rng = np.random.default_rng(42)
    for _ in range(40):
        rho = random_density_matrix(rng)
        assert abs(negativity(rho).value - eigvalsh_negativity(rho)) < 1e-10


def test_negativity_matches_corner_formula_under_evolution():
    scenario = esdsim.Scenario(kind=esdsim.ScenarioKind.MULTI_LOCAL, x=0.22, rate_a=0.9, rate_b=1.4)
    for t in np.linspace(0.0, 6.0, 40):
        rho = esd.evolve(scenario, float(t))
        expected = max(0.0, 0.22 * scenario.gamma_product(float(t)) - 0.125)
        assert abs(negativity(rho).value - expected) < 1e-10


def test_negativity_invariant_under_local_unitaries():
    rng = np.random.default_rng(43)
    for _ in range(10):
        rho = random_density_matrix(rng)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
        rotated = validate(u @ rho.mat @ u.conj().T)
        assert abs(negativity(rho).value - negativity(rotated).value) < 1e-10


def test_negativity_nonincreasing_under_dephasing():
    scenario = esdsim.Scenario(kind=esdsim.ScenarioKind.QUBIT_ONLY, x=0.25, rate_a=1.0)
    values = [negativity(esd.evolve(scenario, float(t))).value for t in np.linspace(0.0, 4.0, 60)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12


def test_negativity_range_on_family():
    # no dimensional prefactor: the family tops out at 1/8 exactly
    values = [negativity(ansatz_x(float(x))).value for x in np.linspace(0.0, 0.25, 26)]
    assert min(values) == 0.0
    assert abs(max(values) - 0.125) < 1e-14


@pytest.fixture
def solves(monkeypatch):
    """Counts the checked eigensolver's calls, wherever the package makes them."""
    calls = []
    real = linalg.hermitian_eigenvalues

    def counting(mat):
        calls.append(np.shape(mat))
        return real(mat)

    monkeypatch.setattr(linalg, "hermitian_eigenvalues", counting)
    return calls


def test_one_solve_serves_both_sides(solves):
    rho = random_density_matrix(np.random.default_rng(44))
    neg_a = negativity(rho, "A")
    neg_b = negativity(rho, "B")
    ppt = is_ppt(rho, "B")
    assert solves == [(6, 6)]
    assert neg_a == neg_b
    assert ppt == (not neg_a.is_entangled)
    assert pt_spectrum(rho, "A") is pt_spectrum(rho, "B")


def test_pt_spectrum_cannot_be_written():
    rho = ansatz_x(0.25)
    spec = pt_spectrum(rho)
    with pytest.raises(ValueError):
        spec[0] = 1.0
    assert pt_spectrum(rho, "B")[0] == spec[0]
    assert abs(negativity(rho).value - 0.125) < 1e-14


def test_pt_spectrum_rejects_unknown_subsystem():
    with pytest.raises(ValueError, match=r"^subsystem must be 'A' or 'B', got 'C'$"):
        pt_spectrum(ansatz_x(0.2), "C")


def test_failed_solve_is_not_kept(solves):
    # DensityMatrix checks only the shape, so a hand-built one can be non-Hermitian
    m = ansatz_x(0.2).mat.copy()
    m[0, 5] += 1e-9
    rho = DensityMatrix(m, QUBIT_QUTRIT)
    for side in ("A", "B", "A"):
        with pytest.raises(NonHermitianError):
            negativity(rho, side)
    assert len(solves) == 3


def test_state_over_a_view_keeps_its_matrix_and_negativity():
    base = ansatz_x(0.25).mat.copy()
    rho = DensityMatrix(base[:], QUBIT_QUTRIT)
    before = negativity(rho).value
    base[0, 5] = base[5, 0] = 0.0
    assert rho.mat[0, 5] == 0.25
    assert negativity(rho, "B").value == before
    assert negativity(DensityMatrix(rho.mat, QUBIT_QUTRIT)).value == before


def test_state_over_an_array_with_a_view_elsewhere_keeps_its_negativity():
    # the array owns its data, but a view of it can still write it after the spectrum is kept
    base = ansatz_x(0.25).mat.copy()
    view = base[:]
    rho = DensityMatrix(base, QUBIT_QUTRIT)
    before = negativity(rho).value
    view[0, 5] = view[5, 0] = 0.0
    assert rho.mat[0, 5] == 0.25
    assert negativity(rho).value == before == negativity(DensityMatrix(rho.mat, QUBIT_QUTRIT)).value


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda rho: pickle.loads(pickle.dumps(rho))])
def test_copies_are_read_only_and_solve_afresh(clone, solves):
    rho = ansatz_x(0.25)
    value = negativity(rho).value
    twin = clone(rho)
    assert not twin.mat.flags.writeable
    assert np.array_equal(twin.mat, rho.mat) and twin.dims == rho.dims and repr(twin) == repr(rho)
    assert negativity(twin).value == value
    assert len(solves) == 2
