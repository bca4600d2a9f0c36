import copy
import math
import pickle

import numpy as np
import pytest

from esdsim import channels, states
from esdsim.channels import (
    COMPLETENESS_TOL,
    DephasingParams,
    IncompleteChannelError,
    KrausChannel,
    apply,
    apply_multilocal,
    dephasing_mask,
    dephasing_qubit,
    dephasing_qutrit,
    identity_channel,
)
from esdsim.esd import Scenario, ScenarioKind
from esdsim.linalg import QUBIT_QUTRIT, DimensionMismatchError, hermitian_eigenvalues, max_abs_diff, partial_transpose
from esdsim.states import ansatz_x, random_density_matrix, validate

from numeric_oracles import random_pattern_state


def test_params_validation():
    with pytest.raises(ValueError):
        DephasingParams(rate=-0.1, t=1.0)
    with pytest.raises(ValueError):
        DephasingParams(rate=1.0, t=-1.0)
    with pytest.raises(ValueError):
        DephasingParams(rate=math.inf, t=1.0)


def test_params_limits():
    assert DephasingParams(rate=1.0, t=0.0).gamma == 1.0
    assert DephasingParams(rate=0.0, t=5.0).gamma == 1.0
    full = DephasingParams(rate=1.0, t=math.inf)
    assert full.gamma == 0.0
    assert full.omega == 1.0


def test_gamma_omega_identity():
    for rate in (0.0, 0.3, 1.0, 4.0):
        for t in (0.0, 0.1, 1.0, 7.5):
            p = DephasingParams(rate, t)
            assert abs(p.gamma ** 2 + p.omega ** 2 - 1.0) <= 1e-15


def test_qubit_channel_structure():
    p = DephasingParams(rate=1.0, t=2.0 * math.log(2.0))  # gamma = 1/2
    ch = dephasing_qubit(p)
    g, w = 0.5, math.sqrt(3.0) / 2.0
    assert max_abs_diff(ch.ops[0], np.diag([1, 1, 1, g, g, g])) < 1e-15
    assert max_abs_diff(ch.ops[1], np.diag([0, 0, 0, w, w, w])) < 1e-15


def test_qutrit_channel_structure():
    p = DephasingParams(rate=1.0, t=2.0 * math.log(2.0))
    ch = dephasing_qutrit(p)
    g, w = 0.5, math.sqrt(3.0) / 2.0
    assert max_abs_diff(ch.ops[0], np.diag([1, g, g, 1, g, g])) < 1e-15
    assert max_abs_diff(ch.ops[1], np.diag([0, w, 0, 0, w, 0])) < 1e-15
    assert max_abs_diff(ch.ops[2], np.diag([0, 0, w, 0, 0, w])) < 1e-15


def test_time_zero_channels_are_identity():
    p = DephasingParams(rate=1.0, t=0.0)
    assert max_abs_diff(dephasing_qubit(p).ops[0], np.eye(6)) == 0.0
    assert max_abs_diff(dephasing_qubit(p).ops[1], np.zeros((6, 6))) == 0.0
    rho = ansatz_x(0.25)
    assert max_abs_diff(apply(dephasing_qubit(p), rho).mat, rho.mat) == 0.0
    assert max_abs_diff(apply(dephasing_qutrit(p), rho).mat, rho.mat) == 0.0


def test_completeness_over_times():
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.0, 6.0, size=15):
        for rate in (0.2, 1.0, 2.7):
            p = DephasingParams(rate, float(t))
            assert dephasing_qubit(p).completeness_defect() <= COMPLETENESS_TOL
            assert dephasing_qutrit(p).completeness_defect() <= COMPLETENESS_TOL


def test_apply_identity_channel():
    rng = np.random.default_rng(32)
    rho = random_density_matrix(rng)
    # output is re-symmetrized, which can nudge entries by one ulp
    assert max_abs_diff(apply(identity_channel(6), rho).mat, rho.mat) < 1e-15


def test_apply_scales_corner_only():
    x = 0.25
    p = DephasingParams(rate=1.3, t=0.9)
    out = apply(dephasing_qubit(p), ansatz_x(x))
    assert abs(out.mat[0, 5].real - x * p.gamma) < 1e-15
    assert np.max(np.abs(np.diag(out.mat) - np.diag(ansatz_x(x).mat))) < 1e-15


def test_full_dephasing_kills_corner():
    out = apply(dephasing_qutrit(DephasingParams(rate=1.0, t=math.inf)), ansatz_x(0.25))
    assert max_abs_diff(out.mat, np.diag(np.diag(out.mat))) == 0.0


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(identity_channel(2), ansatz_x(0.1))
    for dim_a, dim_b in ((2, 6), (6, 2)):
        with pytest.raises(DimensionMismatchError, match="channel dimensions differ"):
            apply_multilocal(identity_channel(dim_a), identity_channel(dim_b), ansatz_x(0.1))


def test_apply_refuses_incomplete_channel():
    lossy = KrausChannel(ops=(0.5 * np.eye(6, dtype=complex),), dim=6)
    nan = KrausChannel(ops=(np.full((6, 6), np.nan, dtype=complex),), dim=6)
    for channel in (lossy, nan):
        with pytest.raises(IncompleteChannelError):
            apply(channel, ansatz_x(0.1))


def test_multilocal_matches_sequential():
    rng = np.random.default_rng(33)
    params = [
        (DephasingParams(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0))),
         DephasingParams(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0))))
        for _ in range(10)
    ]
    params += [
        (DephasingParams(1.0, math.inf), DephasingParams(0.7, 1.3)),
        (DephasingParams(0.0, 2.0), DephasingParams(1.0, math.inf)),
        (DephasingParams(0.0, 1.0), DephasingParams(0.0, math.inf)),
    ]
    for pa, pb in params:
        rho = random_density_matrix(rng)
        ca, cb = dephasing_qubit(pa), dephasing_qutrit(pb)
        combined = apply_multilocal(ca, cb, rho)
        sequential = apply(cb, apply(ca, rho))
        assert max_abs_diff(combined.mat, sequential.mat) < 1e-14
        swapped = apply(ca, apply(cb, rho))
        assert max_abs_diff(combined.mat, swapped.mat) < 1e-15
        # the mask is the third route: one entrywise product
        masked = rho.mat * dephasing_mask(pa.gamma, pb.gamma)
        assert max_abs_diff(masked, combined.mat) < 1e-15
        assert max_abs_diff(rho.mat * dephasing_mask(pa.gamma, 1.0), apply(ca, rho).mat) < 1e-15
        assert max_abs_diff(rho.mat * dephasing_mask(1.0, pb.gamma), apply(cb, rho).mat) < 1e-15


def test_dephasing_mask_of_arrays_is_per_pair():
    ga = np.array([[1.0, 0.9, 0.5], [0.123456789, 1e-200, 0.0]])
    gb = np.array([[1.0, 0.3, 0.77], [0.987654321, 0.0, 1.0]])
    masks = dephasing_mask(ga, gb)
    assert masks.shape == (2, 3, 6, 6)
    for idx in np.ndindex(2, 3):
        assert masks[idx].tobytes() == dephasing_mask(float(ga[idx]), float(gb[idx])).tobytes()
    qubit = np.array([[1.0, 0.9], [0.9, 1.0]])
    qutrit = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.09], [0.3, 0.09, 1.0]])
    assert max_abs_diff(masks[0, 1], np.kron(qubit, qutrit)) < 1e-16


MASK_GAMMAS = (0.0, 5e-324, 1e-160, 0.3, 1.0)


@pytest.mark.parametrize("side", ["A", "B"])
def test_dephasing_mask_is_its_own_partial_transpose(side):
    # M_A and M_B are symmetric, so PT(rho0 o M) = PT(rho0) o M with the same floats
    for ga in MASK_GAMMAS:
        for gb in MASK_GAMMAS:
            mask = dephasing_mask(ga, gb)
            assert partial_transpose(mask, QUBIT_QUTRIT, side).tobytes() == mask.astype(complex).tobytes()
    ga, gb = np.meshgrid(MASK_GAMMAS, MASK_GAMMAS)
    stack = dephasing_mask(ga.ravel(), gb.ravel())
    assert stack.shape == (len(MASK_GAMMAS) ** 2, 6, 6)
    for mask in stack:
        assert partial_transpose(mask, QUBIT_QUTRIT, side).tobytes() == mask.astype(complex).tobytes()


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_scenario_keeps_the_read_only_partial_transpose_of_its_state(kind):
    s = Scenario(kind, 0.2, 1.3, 0.7)
    pt = s._initial_pt
    assert pt.tobytes() == partial_transpose(s.initial_state.mat, QUBIT_QUTRIT, "A").tobytes()
    with pytest.raises(ValueError):
        pt[0, 0] = 1.0
    for copied in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert copied == s and not copied._initial_pt.flags.writeable
        assert copied._initial_pt.tobytes() == pt.tobytes()


def test_multilocal_corner_product():
    x = 0.25
    pa = DephasingParams(1.0, 0.8)
    pb = DephasingParams(2.0, 0.8)
    out = apply_multilocal(dephasing_qubit(pa), dephasing_qutrit(pb), ansatz_x(x))
    assert abs(out.mat[0, 5].real - x * pa.gamma * pb.gamma) < 1e-14


def test_corner_decoherence_additivity():
    # multi-local corner equals the product of the single-noise corners over x
    x = 0.2
    pa = DephasingParams(0.7, 1.1)
    pb = DephasingParams(1.9, 1.1)
    only_a = apply(dephasing_qubit(pa), ansatz_x(x)).mat[0, 5].real
    only_b = apply(dephasing_qutrit(pb), ansatz_x(x)).mat[0, 5].real
    both = apply_multilocal(dephasing_qubit(pa), dephasing_qutrit(pb), ansatz_x(x)).mat[0, 5].real
    assert abs(both - only_a * only_b / x) < 1e-14


def test_channels_preserve_state_invariants():
    rng = np.random.default_rng(34)
    for _ in range(30):
        rho = random_density_matrix(rng)
        pa = DephasingParams(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5.0)))
        pb = DephasingParams(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5.0)))
        for out in (
            apply(dephasing_qubit(pa), rho),
            apply(dephasing_qutrit(pb), rho),
            apply_multilocal(dephasing_qubit(pa), dephasing_qutrit(pb), rho),
        ):
            validate(out.mat)  # hermiticity, trace, positivity


def test_zero_pattern_closed_under_all_channels():
    rng = np.random.default_rng(35)
    for _ in range(10):
        rho = random_pattern_state(rng)
        pa = DephasingParams(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0)))
        pb = DephasingParams(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0)))
        ca, cb = dephasing_qubit(pa), dephasing_qutrit(pb)
        for out in (
            apply(ca, rho),
            apply(cb, rho),
            apply(cb, apply(ca, rho)),
            apply(ca, apply(cb, rho)),
            apply_multilocal(ca, cb, rho),
        ):
            assert states.coherence_pattern_defect(out.mat) < 1e-14
            assert np.max(np.abs(np.diag(out.mat) - np.diag(rho.mat))) < 1e-14


def test_dephasing_semigroup():
    rng = np.random.default_rng(36)
    rate = 1.7
    for _ in range(5):
        rho = random_density_matrix(rng)
        t1, t2 = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0))
        for make in (dephasing_qubit, dephasing_qutrit):
            stepped = apply(make(DephasingParams(rate, t2)), apply(make(DephasingParams(rate, t1)), rho))
            direct = apply(make(DephasingParams(rate, t1 + t2)), rho)
            assert max_abs_diff(stepped.mat, direct.mat) < 1e-12


def test_channel_output_is_positive_on_boundary_state():
    out = apply(dephasing_qubit(DephasingParams(1.0, 0.5)), ansatz_x(0.25))
    assert hermitian_eigenvalues(out.mat)[0] > -1e-10
