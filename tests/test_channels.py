import copy
import math
import pickle

import numpy as np
import pytest

from esdsim import channels, states
from esdsim.channels import (
    COMPLETENESS_TOL,
    IncompleteChannelError,
    KrausChannel,
    apply,
    apply_multilocal,
    decay_factor,
    dephasing_mask,
    dephasing_qubit,
    dephasing_qutrit,
    identity_channel,
)
from esdsim.esd import Scenario, ScenarioKind
from esdsim.linalg import QUBIT_QUTRIT, DimensionMismatchError, hermitian_eigenvalues, max_abs_diff, partial_transpose
from esdsim.states import ansatz_x, random_density_matrix, validate

from numeric_oracles import random_pattern_state


@pytest.mark.parametrize("build", [dephasing_qubit, dephasing_qutrit], ids=lambda f: f.__name__)
def test_builders_refuse_gamma_outside_the_unit_interval(build):
    for gamma in (-0.1, math.nextafter(1.0, 2.0), math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got "):
            build(gamma)


def test_gamma_limits():
    assert decay_factor(1.0, 0.0) == 1.0
    assert decay_factor(0.0, 5.0) == 1.0
    assert decay_factor(1.0, math.inf) == 0.0
    assert max_abs_diff(dephasing_qubit(0.0).ops[1], np.diag([0, 0, 0, 1, 1, 1])) == 0.0


@pytest.mark.parametrize("cast", [np.float32, np.float16], ids=lambda cast: cast.__name__)
def test_decay_factor_computes_in_float64_whatever_float_types_it_is_given(cast):
    # a numpy float32 or float16 rate or time kept the product -0.5 * t * rate in its own width:
    # decay_factor(0.7, np.float32(1.7)) was 0.5515625500874984, not 0.5515625566626364
    for rate, t in ((cast(0.7), cast(1.7)), (cast(0.7), 1.7), (0.7, cast(1.7))):
        got = decay_factor(rate, t)
        assert type(got) is float and got == decay_factor(float(rate), float(t)), (rate, t)
    assert decay_factor(0.7, np.float32(1.7)) == 0.5515625566626364
    assert decay_factor(cast(0.0), cast(1.7)) == 1.0


def test_gamma_omega_identity():
    for rate in (0.0, 0.3, 1.0, 4.0):
        for t in (0.0, 0.1, 1.0, 7.5):
            e1, e2 = dephasing_qubit(decay_factor(rate, t)).ops
            assert abs(e1[3, 3].real ** 2 + e2[3, 3].real ** 2 - 1.0) <= 1e-15


def test_qubit_channel_structure():
    ch = dephasing_qubit(0.5)
    g, w = 0.5, math.sqrt(3.0) / 2.0
    assert max_abs_diff(ch.ops[0], np.diag([1, 1, 1, g, g, g])) == 0.0
    assert max_abs_diff(ch.ops[1], np.diag([0, 0, 0, w, w, w])) == 0.0


def test_qutrit_channel_structure():
    ch = dephasing_qutrit(0.5)
    g, w = 0.5, math.sqrt(3.0) / 2.0
    assert max_abs_diff(ch.ops[0], np.diag([1, g, g, 1, g, g])) == 0.0
    assert max_abs_diff(ch.ops[1], np.diag([0, w, 0, 0, w, 0])) == 0.0
    assert max_abs_diff(ch.ops[2], np.diag([0, 0, w, 0, 0, w])) == 0.0


def test_time_zero_channels_are_identity():
    gamma = decay_factor(1.0, 0.0)
    assert max_abs_diff(dephasing_qubit(gamma).ops[0], np.eye(6)) == 0.0
    assert max_abs_diff(dephasing_qubit(gamma).ops[1], np.zeros((6, 6))) == 0.0
    rho = ansatz_x(0.25)
    assert max_abs_diff(apply(dephasing_qubit(gamma), rho).mat, rho.mat) == 0.0
    assert max_abs_diff(apply(dephasing_qutrit(gamma), rho).mat, rho.mat) == 0.0


def test_completeness_over_times():
    rng = np.random.default_rng(31)
    for t in rng.uniform(0.0, 6.0, size=15):
        for rate in (0.2, 1.0, 2.7):
            gamma = decay_factor(rate, float(t))
            assert dephasing_qubit(gamma).completeness_defect() <= COMPLETENESS_TOL
            assert dephasing_qutrit(gamma).completeness_defect() <= COMPLETENESS_TOL


def test_apply_identity_channel():
    rng = np.random.default_rng(32)
    rho = random_density_matrix(rng)
    # output is re-symmetrized, which can nudge entries by one ulp
    assert max_abs_diff(apply(identity_channel(6), rho).mat, rho.mat) < 1e-15


def test_apply_scales_corner_only():
    x = 0.25
    gamma = decay_factor(1.3, 0.9)
    out = apply(dephasing_qubit(gamma), ansatz_x(x))
    assert abs(out.mat[0, 5].real - x * gamma) < 1e-15
    assert np.max(np.abs(np.diag(out.mat) - np.diag(ansatz_x(x).mat))) < 1e-15


def test_full_dephasing_kills_corner():
    out = apply(dephasing_qutrit(decay_factor(1.0, math.inf)), ansatz_x(0.25))
    assert max_abs_diff(out.mat, np.diag(np.diag(out.mat))) == 0.0


def test_states_and_channels_compare_by_identity_and_hash():
    rho = ansatz_x(0.2)
    copied = copy.deepcopy(rho)
    channel = identity_channel(6)
    assert len({rho, copied, channel}) == 3
    assert (rho == rho) is True
    assert (rho == copied) is False
    assert (channel == identity_channel(6)) is False


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
    gammas = [
        (decay_factor(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0))),
         decay_factor(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0))))
        for _ in range(10)
    ]
    gammas += [
        (decay_factor(1.0, math.inf), decay_factor(0.7, 1.3)),
        (decay_factor(0.0, 2.0), decay_factor(1.0, math.inf)),
        (decay_factor(0.0, 1.0), decay_factor(0.0, math.inf)),
    ]
    for ga, gb in gammas:
        rho = random_density_matrix(rng)
        ca, cb = dephasing_qubit(ga), dephasing_qutrit(gb)
        combined = apply_multilocal(ca, cb, rho)
        sequential = apply(cb, apply(ca, rho))
        assert max_abs_diff(combined.mat, sequential.mat) < 1e-14
        swapped = apply(ca, apply(cb, rho))
        assert max_abs_diff(combined.mat, swapped.mat) < 1e-15
        # the mask is the third route: one entrywise product
        masked = rho.mat * dephasing_mask(ga, gb)
        assert max_abs_diff(masked, combined.mat) < 1e-15
        assert max_abs_diff(rho.mat * dephasing_mask(ga, 1.0), apply(ca, rho).mat) < 1e-15
        assert max_abs_diff(rho.mat * dephasing_mask(1.0, gb), apply(cb, rho).mat) < 1e-15


def test_dephasing_mask_of_arrays_is_per_pair():
    ga = np.array([[1.0, 0.9, 0.5], [0.123456789, 1e-200, 0.0]])
    gb = np.array([[1.0, 0.3, 0.77], [0.987654321, 0.0, 1.0]])
    masks = dephasing_mask(ga, gb)
    assert masks.shape == (6, 6, 2, 3)  # entry-major: each entry of every mask is one contiguous vector
    for idx in np.ndindex(2, 3):
        assert masks[(..., *idx)].tobytes() == dephasing_mask(float(ga[idx]), float(gb[idx])).tobytes()
    qubit = np.array([[1.0, 0.9], [0.9, 1.0]])
    qutrit = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.09], [0.3, 0.09, 1.0]])
    assert max_abs_diff(masks[..., 0, 1], np.kron(qubit, qutrit)) < 1e-16
    # a float factor broadcasts against an array, and a block of the terms gives that block
    assert dephasing_mask(ga, 0.3).tobytes() == dephasing_mask(ga, np.full(ga.shape, 0.3)).tobytes()
    block = np.ix_([2, 3], [2, 3])
    assert dephasing_mask(ga, gb, channels._MASK_TERMS[block]).tobytes() == masks[block].tobytes()


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
    assert stack.shape == (6, 6, len(MASK_GAMMAS) ** 2)
    for mask in np.moveaxis(stack, -1, 0):
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
    ga = decay_factor(1.0, 0.8)
    gb = decay_factor(2.0, 0.8)
    out = apply_multilocal(dephasing_qubit(ga), dephasing_qutrit(gb), ansatz_x(x))
    assert abs(out.mat[0, 5].real - x * ga * gb) < 1e-14


def test_corner_decoherence_additivity():
    # multi-local corner equals the product of the single-noise corners over x
    x = 0.2
    ga = decay_factor(0.7, 1.1)
    gb = decay_factor(1.9, 1.1)
    only_a = apply(dephasing_qubit(ga), ansatz_x(x)).mat[0, 5].real
    only_b = apply(dephasing_qutrit(gb), ansatz_x(x)).mat[0, 5].real
    both = apply_multilocal(dephasing_qubit(ga), dephasing_qutrit(gb), ansatz_x(x)).mat[0, 5].real
    assert abs(both - only_a * only_b / x) < 1e-14


def test_channels_preserve_state_invariants():
    rng = np.random.default_rng(34)
    for _ in range(30):
        rho = random_density_matrix(rng)
        ga = decay_factor(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5.0)))
        gb = decay_factor(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5.0)))
        for out in (
            apply(dephasing_qubit(ga), rho),
            apply(dephasing_qutrit(gb), rho),
            apply_multilocal(dephasing_qubit(ga), dephasing_qutrit(gb), rho),
        ):
            validate(out.mat)  # hermiticity, trace, positivity


def test_zero_pattern_closed_under_all_channels():
    rng = np.random.default_rng(35)
    for _ in range(10):
        rho = random_pattern_state(rng)
        ga = decay_factor(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0)))
        gb = decay_factor(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0)))
        ca, cb = dephasing_qubit(ga), dephasing_qutrit(gb)
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
            stepped = apply(make(decay_factor(rate, t2)), apply(make(decay_factor(rate, t1)), rho))
            direct = apply(make(decay_factor(rate, t1 + t2)), rho)
            assert max_abs_diff(stepped.mat, direct.mat) < 1e-12


def test_channel_output_is_positive_on_boundary_state():
    out = apply(dephasing_qubit(decay_factor(1.0, 0.5)), ansatz_x(0.25))
    assert hermitian_eigenvalues(out.mat)[0] > -1e-10
