import math

import numpy as np
import pytest

from esdsim import esd
from esdsim.entanglement import is_ppt, negativity, pt_spectrum
from esdsim.linalg import QUBIT_QUTRIT, kron
from esdsim.states import DensityMatrix, ansatz_x, random_density_matrix, validate

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
    scenario = esd.Scenario(kind=esd.ScenarioKind.MULTI_LOCAL, x=0.22, rate_a=0.9, rate_b=1.4)
    for t in np.linspace(0.0, 6.0, 40):
        rho = esd.evolve(scenario, float(t))
        expected = max(0.0, 0.22 * scenario.gamma_product(float(t)) - 0.125)
        assert abs(negativity(rho).value - expected) < 1e-10


def test_negativity_invariant_under_local_unitaries():
    rng = np.random.default_rng(43)
    for _ in range(10):
        rho = random_density_matrix(rng)
        u = kron(random_unitary(rng, 2), random_unitary(rng, 3))
        rotated = validate(u @ rho.mat @ u.conj().T)
        assert abs(negativity(rho).value - negativity(rotated).value) < 1e-10


def test_negativity_nonincreasing_under_dephasing():
    scenario = esd.Scenario(kind=esd.ScenarioKind.QUBIT_ONLY, x=0.25, rate_a=1.0)
    values = [negativity(esd.evolve(scenario, float(t))).value for t in np.linspace(0.0, 4.0, 60)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-12


def test_negativity_range_on_family():
    # no dimensional prefactor: the family tops out at 1/8 exactly
    values = [negativity(ansatz_x(float(x))).value for x in np.linspace(0.0, 0.25, 26)]
    assert min(values) == 0.0
    assert abs(max(values) - 0.125) < 1e-14
