import copy
import math
import pickle
import sys
import time
import tracemalloc
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from esdsim import (
    QUBIT_QUTRIT,
    BracketError,
    DensityMatrix,
    EsdOutcome,
    Scenario,
    ScenarioKind,
    analytic_esd_time,
    analytic_negativity,
    ansatz_general,
    ansatz_x,
    channels,
    esd,
    evolve,
    hermitian_eigenvalues,
    linalg,
    negativity,
    numeric_esd_time,
    partial_transpose,
    pt_spectrum,
    pt_spectrum_closed_form,
    random_density_matrix,
    scalar,
    states,
    sweep,
    validate,
)
from esdsim.entanglement import negativity_of_spectrum
from esdsim.scalar import CURVE_FIELDS
from esdsim.states import JOINT_COHERENCE_SLOTS, extract_corner

from numeric_oracles import (exact_corner, exact_esd_time, min_pt_eigenvalue_reference, random_hermitian,
                             random_pattern_state, split_pt)

LN2 = math.log(2.0)

#: Death-time agreement, numeric vs closed form, relative above t* = 1.
ESD_TIME_TOL = 1e-12


def close_to_death_time(numeric, analytic):
    return abs(numeric - analytic) <= ESD_TIME_TOL * max(1.0, analytic)


def scenario(kind, x=0.25, rate_a=1.0, rate_b=1.0):
    return Scenario(kind=kind, x=x, rate_a=rate_a, rate_b=rate_b)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(ScenarioKind.QUBIT_ONLY, x=0.3)
    with pytest.raises(ValueError):
        scenario(ScenarioKind.QUBIT_ONLY, rate_a=-1.0)
    # a kind's value gives its member, so it acts as that kind and compares equal to it
    by_value = Scenario("qubit", 0.25)
    assert by_value.kind is ScenarioKind.QUBIT_ONLY
    assert by_value == scenario(ScenarioKind.QUBIT_ONLY)
    assert analytic_esd_time(by_value) == 2.0 * LN2
    with pytest.raises(ValueError, match="bogus"):
        Scenario("bogus", 0.25)
    for bad in (("0.25", 1.0, 1.0), (0.25, "1.0", 1.0), (0.25, 1.0, "1.0")):  # checked before float() takes it
        with pytest.raises(TypeError):
            Scenario(ScenarioKind.MULTI_LOCAL, *bad)


@pytest.mark.parametrize("cast", [np.float32, np.float16, int], ids=lambda cast: cast.__name__)
def test_scenario_computes_in_float64_whatever_number_types_it_is_given(cast):
    # a numpy float32 x or rate made the death times float32, the root finder running in
    # float32, and a float32 rate or time gave the probe and evolve other decay factors than sweep
    x, rate_a, rate_b, t = (0, 2, 3, 1) if cast is int else (cast(0.2), cast(0.7), cast(1.3), cast(1.7))
    for kind in ScenarioKind:
        s = Scenario(kind, x, rate_a, rate_b)
        ref = Scenario(kind, float(x), float(rate_a), float(rate_b))
        assert all(type(v) is float for v in (s.x, s.rate_a, s.rate_b, s.effective_rate()))
        assert (s.x, s.rate_a, s.rate_b, s.effective_rate()) == (ref.x, ref.rate_a, ref.rate_b, ref.effective_rate())
        for route in (analytic_esd_time, numeric_esd_time):
            assert repr(route(s)) == repr(route(ref)), (kind, route)
        expected = ref.gamma_factors(float(t))
        got = s.gamma_factors(t)  # t is a numpy float or an int
        assert all(type(g) is float for g in got) and got == expected
        ga, gb = s.gamma_factors(np.array([t, t], dtype=cast))
        assert np.array([ga, gb]).tobytes() == np.repeat(np.array(expected)[:, None], 2, axis=1).tobytes()
        curve = sweep(s, np.array([t], dtype=cast))
        assert (curve.gamma_a[0], curve.gamma_b[0]) == expected


def test_scenario_refuses_rates_whose_sum_overflows():
    # each rate is finite, their sum is not: the death-time window would be 0
    with pytest.raises(ValueError, match="rate_a \\+ rate_b must be finite"):
        scenario(ScenarioKind.MULTI_LOCAL, rate_a=1e308, rate_b=1e308)
    # an idle side's rate does not act, so it cannot overflow the sum
    assert scenario(ScenarioKind.QUBIT_ONLY, rate_a=1e308, rate_b=1e308).effective_rate() == 1e308
    assert scenario(ScenarioKind.MULTI_LOCAL, rate_a=1.7e308, rate_b=0.0).effective_rate() == 1.7e308


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_scenario_stores_the_rates_that_act(kind):
    # the Scenario keeps its acting rates from construction on; rates and effective_rate must be
    # the kind's expression, an idle side a positive 0.0, in every copy rebuilt by the constructor
    def acting(s):
        return (0.0 if s.kind is ScenarioKind.QUTRIT_ONLY else s.rate_a,
                0.0 if s.kind is ScenarioKind.QUBIT_ONLY else s.rate_b)

    built = [scenario(kind, x=0.2, rate_a=1.5, rate_b=0.5), scenario(kind, x=0.2, rate_a=-0.0, rate_b=-0.0)]
    for s in built:
        for c in (s, pickle.loads(pickle.dumps(s)), copy.deepcopy(s), Scenario(s.kind, s.x, s.rate_a, s.rate_b),
                  Scenario(ScenarioKind.MULTI_LOCAL, s.x, s.rate_a, s.rate_b),
                  Scenario(s.kind, s.x, s.rate_a, rate_b=2.25)):
            assert [r.hex() for r in c.rates] == [r.hex() for r in acting(c)]
            assert all(type(r) is float and not math.copysign(1.0, r) < 0.0 for r in c.rates)
            assert c.effective_rate() == sum(acting(c))
    # a probe tests no kind: the death time reads the stored rates alone
    s = built[0]
    rates, before = s.rates, numeric_esd_time(s).hex()
    object.__setattr__(s, "kind", None)
    assert s.rates == rates and numeric_esd_time(s).hex() == before


#: One scenario per kind, its constructor arguments and the repr it prints.
SCENARIO_REPRS = [
    (("qubit", 0.2, 1.3, 0.7), "Scenario(kind=<ScenarioKind.QUBIT_ONLY: 'qubit'>, x=0.2, rate_a=1.3, rate_b=0.7)"),
    (("qutrit", -0.0, 2, 0), "Scenario(kind=<ScenarioKind.QUTRIT_ONLY: 'qutrit'>, x=0.0, rate_a=2.0, rate_b=0.0)"),
    ((ScenarioKind.MULTI_LOCAL, 0.25),
     "Scenario(kind=<ScenarioKind.MULTI_LOCAL: 'multilocal'>, x=0.25, rate_a=1.0, rate_b=1.0)"),
]

#: Constructor arguments Scenario refuses, checked kind, x, rate_a, rate_b, then their sum, and what it raises.
SCENARIO_REFUSALS = [
    (("bogus", 0.3, -1.0), ValueError, "'bogus' is not a valid ScenarioKind"),
    ((None, 0.2), ValueError, "None is not a valid ScenarioKind"),
    (("qubit", 0.3, -1.0), ValueError, "x must lie in the positivity range [0, 0.25], got 0.3"),
    (("qubit", -1e-9), ValueError, "x must lie in the positivity range [0, 0.25], got -1e-09"),
    (("qubit", float("nan")), ValueError, "x must lie in the positivity range [0, 0.25], got nan"),
    (("qubit", "a"), TypeError, "'<=' not supported between instances of 'float' and 'str'"),
    (("qubit", None), TypeError, "'<=' not supported between instances of 'float' and 'NoneType'"),
    (("qubit", 0.2, -1.0, "a"), ValueError, "rate_a must be finite and >= 0, got -1.0"),
    (("qubit", 0.2, 1.0, float("inf")), ValueError, "rate_b must be finite and >= 0, got inf"),
    (("qubit", 0.2, "a"), TypeError, "must be real number, not str"),
    (("qubit", 0.2, 1.0, None), TypeError, "must be real number, not NoneType"),
    (("multilocal", 0.2, 1e308, 1e308), ValueError, "rate_a + rate_b must be finite, got 1e+308 + 1e+308"),
    ((), TypeError, "Scenario.__init__() missing 2 required positional arguments: 'kind' and 'x'"),
    (("qubit", 0.2, 1.0, 1.0, 1.0), TypeError,
     "Scenario.__init__() takes from 3 to 5 positional arguments but 6 were given"),
]


def test_scenario_prints_compares_and_refuses_as_the_frozen_class_it_is():
    # Scenario's repr, ==, hash, frozenness, match arguments and refusals: its public behaviour
    for args, text in SCENARIO_REPRS:
        s = Scenario(*args)
        assert repr(s) == text
        assert Scenario(kind=s.kind.value, rate_b=s.rate_b, x=s.x, rate_a=s.rate_a) == s
        assert "rates" not in repr(s) and s.rates
        match s:
            case Scenario(k, x, rate_a, rate_b):
                assert (k, x, rate_a, rate_b) == (s.kind, s.x, s.rate_a, s.rate_b)
            case _:
                pytest.fail(f"{s!r} matched no class pattern")
        assert Scenario.__match_args__ == ("kind", "x", "rate_a", "rate_b")
        key = (s.kind, s.x, s.rate_a, s.rate_b)
        for c in (copy.deepcopy(s), pickle.loads(pickle.dumps(s)), Scenario(*key)):
            assert c == s and not c != s and hash(c) == hash(s) == hash(key) and repr(c) == text
        assert s != key and s.__eq__(key) is NotImplemented and s != Scenario(s.kind, 0.125)
        # rates is left out of == and hash: a copy whose rates are forced apart stays equal
        forced = Scenario(*key)
        object.__setattr__(forced, "rates", (9.0, 9.0))
        assert forced == s and hash(forced) == hash(s) and repr(forced) == text
        # assignment and deletion raise AttributeError and change nothing, new names and initial_state too
        before = dict(vars(s))
        for name in ("kind", "x", "rate_a", "rate_b", "rates", "initial_state", "other"):
            with pytest.raises(AttributeError):
                setattr(s, name, 0.1)
            with pytest.raises(AttributeError):
                delattr(s, name)
            assert vars(s) == before and list(vars(s)) == ["kind", "x", "rate_a", "rate_b", "rates"]
    # two scenarios with the same acting rates differ when an idle rate does
    assert Scenario("qubit", 0.2, 1.0, 0.5).rates == Scenario("qubit", 0.2, 1.0, 0.7).rates
    assert Scenario("qubit", 0.2, 1.0, 0.5) != Scenario("qubit", 0.2, 1.0, 0.7)
    for args, error, message in SCENARIO_REFUSALS:
        with pytest.raises(error) as raised:
            Scenario(*args)
        assert type(raised.value) is error and str(raised.value) == message, args


def test_scenario_stores_a_negative_zero_as_zero():
    # a -0.0 x put a -0 in the corner column and the dumped state; x and the rates keep +0.0
    for kind in ScenarioKind:
        s = scenario(kind, x=-0.0, rate_a=-0.0, rate_b=-0.0)
        assert [v.hex() for v in (s.x, s.rate_a, s.rate_b)] == [(0.0).hex()] * 3
        assert not np.signbit(s.initial_state.mat.view(float)).any()
        assert not np.signbit(sweep(s, [0.0, 1.0]).corner).any()


def test_effective_rate_per_kind():
    assert scenario(ScenarioKind.QUBIT_ONLY, rate_a=1.5, rate_b=9.0).effective_rate() == 1.5
    assert scenario(ScenarioKind.QUTRIT_ONLY, rate_a=9.0, rate_b=0.5).effective_rate() == 0.5
    assert scenario(ScenarioKind.MULTI_LOCAL, rate_a=1.5, rate_b=0.5).effective_rate() == 2.0


def test_analytic_negativity_values():
    s = scenario(ScenarioKind.QUBIT_ONLY)
    assert abs(analytic_negativity(s, 0.0) - 0.125) < 1e-15
    # right at the death time the closed form sits within rounding of zero
    assert analytic_negativity(s, 2.0 * LN2) < 1e-15
    m = scenario(ScenarioKind.MULTI_LOCAL)
    assert analytic_negativity(m, LN2) < 1e-15
    assert abs(analytic_negativity(m, 0.5 * LN2) - (0.25 / math.sqrt(2.0) - 0.125)) < 1e-15
    assert analytic_negativity(m, 50.0) == 0.0


def test_analytic_esd_time_closed_forms():
    assert abs(analytic_esd_time(scenario(ScenarioKind.QUBIT_ONLY)) - 2.0 * LN2) < 1e-15
    assert abs(analytic_esd_time(scenario(ScenarioKind.QUTRIT_ONLY, rate_b=2.0)) - LN2) < 1e-15
    assert abs(analytic_esd_time(scenario(ScenarioKind.MULTI_LOCAL)) - LN2) < 1e-15


def test_analytic_esd_time_variants():
    assert analytic_esd_time(scenario(ScenarioKind.QUBIT_ONLY, x=0.125)) is EsdOutcome.NEVER_ENTANGLED
    assert analytic_esd_time(scenario(ScenarioKind.QUBIT_ONLY, x=0.1)) is EsdOutcome.NEVER_ENTANGLED
    frozen = scenario(ScenarioKind.QUBIT_ONLY, rate_a=0.0)
    assert analytic_esd_time(frozen) is EsdOutcome.NO_DEATH


def test_numeric_esd_time_matches_analytic():
    for s in (
        scenario(ScenarioKind.QUBIT_ONLY),
        scenario(ScenarioKind.QUTRIT_ONLY, rate_b=2.0),
        scenario(ScenarioKind.MULTI_LOCAL),
        scenario(ScenarioKind.MULTI_LOCAL, x=0.2, rate_a=0.8, rate_b=1.7),
    ):
        assert close_to_death_time(numeric_esd_time(s), analytic_esd_time(s))


@pytest.fixture
def probe_calls(monkeypatch):
    """Count the probes the death-time search makes: each dephases, transposes and solves."""
    calls = []
    probe = scalar._family_probe()

    def counting_probe(scenario, t):
        calls.append(t)
        return probe(scenario, t)

    monkeypatch.setattr(scalar, "_family_probe", lambda: counting_probe)  # where numeric_esd_time fetches it
    return calls


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_numeric_esd_time_regression_over_rates(kind, probe_calls):
    # the thresholded bisection hung for t* above about 1e6 and was biased
    # by 1e-10 over the eigenvalue's slope; the root finder must do neither
    started = time.perf_counter()
    for rate in np.logspace(-9.0, 3.0, 13):
        for x in (0.13, 0.15, 0.2, 0.25):
            s = scenario(kind, x=x, rate_a=float(rate), rate_b=float(rate))
            analytic = analytic_esd_time(s)
            del probe_calls[:]
            numeric = numeric_esd_time(s)
            assert close_to_death_time(numeric, analytic), (rate, x, numeric, analytic)
            assert len(probe_calls) <= 16, (rate, x, len(probe_calls))
    assert time.perf_counter() - started < 10.0


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_death_time_routes_against_the_exact_root(kind):
    # the closed form is within 2 ulp of the exact root; the root finder is as close
    # as the probe allows: its eigenvalue f(t) = 1/8 - x g(t) is good to about
    # eps/8, and its slope at the root is f'(t*) = rate/16, plus 4 ulp of closing;
    # at the two largest rates t* is near or below the normal range, where the
    # closing runs into the midpoint fallback and the adjacent-floats exit
    for rate in [*np.logspace(-9.0, 3.0, 13), 1e300, 8e307]:
        for x in (0.1251, 0.126, 0.13, 0.15, 0.2, 0.25):
            s = scenario(kind, x=x, rate_a=float(rate), rate_b=float(rate))
            exact = exact_esd_time(s.x, s.rates)
            ulp = math.ulp(float(exact))
            analytic_error = abs(Decimal(analytic_esd_time(s)) - exact)
            assert analytic_error <= 2 * Decimal(ulp), (rate, x, analytic_error / Decimal(ulp))
            numeric_error = abs(Decimal(numeric_esd_time(s)) - exact)
            bound = sys.float_info.epsilon / (8.0 * s.effective_rate() / 16.0) + 4.0 * ulp
            assert numeric_error <= Decimal(bound), (rate, x, numeric_error / Decimal(ulp))


def test_numeric_esd_time_probes_every_point_through_the_pipeline(probe_calls):
    s = scenario(ScenarioKind.MULTI_LOCAL)
    numeric = numeric_esd_time(s)
    # both bracket ends are probed once and reused
    assert probe_calls[:2] == [0.0, scalar.default_bracket(s)]
    assert len(set(probe_calls)) == len(probe_calls)
    assert all(0.0 <= t <= probe_calls[1] for t in probe_calls)
    assert 0.0 < numeric < probe_calls[1]


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_probe_equals_checked_route_and_meets_the_kernel_precondition(kind, probe_calls, monkeypatch):
    # the probe and sweep skip hermitian_eigenvalues' checks: they must give the
    # checked route's bits, on input that is exactly Hermitian with Frobenius norm <= 1;
    # both rotate only the live 2x2 block, rows {2, 3}, with the skip rule of the full 6x6.
    # The generated probe rotates it in locals and calls no kernel: the reference probe,
    # whose bits it gives, hands the same block to the 2x2 kernel, which records it. At
    # x = 0 the reference's row scan finds no live row and calls no kernel, while sweep
    # hands the stack kernel the diagonal 2x2 block, which converges before any rotation
    probe_inputs, blocks = [], []
    kernel, stack_kernel = scalar._jacobi_kernel, linalg._jacobi_stack

    def recording_kernel(n):  # the reference probe looks the kernel up at each call
        if n != 2:  # the checked route's 6x6 solve, which reads the same binding
            return kernel(n)

        def record(re, im, off_tol, skip_tol):
            assert skip_tol == off_tol / 12
            m = np.empty((n, n), dtype=complex)
            m.real.flat, m.imag.flat = re, im
            probe_inputs.append(m)
            return kernel(n)(re, im, off_tol, skip_tol)
        return record

    def recording(re, im, off_tol, skip_tol):
        blocks.append((re.copy(), im.copy()))  # copied before the kernel overwrites its planes
        return stack_kernel(re, im, off_tol, skip_tol)

    monkeypatch.setattr(scalar, "_jacobi_kernel", recording_kernel)
    monkeypatch.setattr(esd, "_jacobi_stack", recording)
    for rate in (0.0, *np.logspace(-9.0, 3.0, 13)):
        for x in (0.0, 0.125, 0.13, 0.2, 0.25):
            s = scenario(kind, x=x, rate_a=float(rate), rate_b=float(rate))
            del probe_calls[:], probe_inputs[:], blocks[:]
            if rate or x <= scalar.ENTANGLEMENT_THRESHOLD_X:  # else no noise acts and there is no window
                numeric_esd_time(s)
            times = list(probe_calls)
            if x > scalar.ENTANGLEMENT_THRESHOLD_X and rate:
                assert times[:2] == [0.0, scalar.default_bracket(s)]
            for t in times:
                checked = negativity(evolve(s, t)).min_pt_eigenvalue
                assert scalar._family_probe()(s, t).hex() == checked.hex(), (rate, x, t)
                assert min_pt_eigenvalue_reference(s, t).hex() == checked.hex(), (rate, x, t)
            grid = [*times, 0.0, *np.geomspace(1e-12, 1e12, 25), math.inf]
            curve = sweep(s, grid)
            assert len(probe_inputs) == (len(times) if x else 0) and len(blocks) == 1
            assert all(m.shape == (2, 2) for m in probe_inputs)
            for re, im in blocks:
                assert re.dtype == im.dtype == np.float64
                assert re.shape == im.shape == (2, 2, len(times) + 27)
            for pts in (*probe_inputs, *(complex_stack(re, im) for re, im in blocks)):
                assert np.array_equal(pts, np.swapaxes(pts, -1, -2).conj()), (rate, x)
                assert np.all(np.linalg.norm(pts, axis=(-2, -1)) <= 1.0), (rate, x)
            checked = np.array([hermitian_eigenvalues(partial_transpose(evolve(s, t).mat, QUBIT_QUTRIT, "A"))[0]
                                for t in grid])
            assert checked.tobytes() == curve.min_pt_eigenvalue.tobytes(), (rate, x)


def complex_stack(re, im):
    """The (k, n, n) complex stack whose real and imaginary parts are the (n, n, k) planes re and im."""
    stack = np.empty(re.shape[::-1], dtype=complex)
    stack.real, stack.imag = np.moveaxis(re, -1, 0), np.moveaxis(im, -1, 0)
    return stack


#: Factor pairs for the live-block tests: each live pair of live_block_pts is exactly zero under some of them.
DEFLATION_GA = np.array([1.0, 0.7, 0.0, 0.3, 1.0, 0.0, 0.5])
DEFLATION_GB = np.array([1.0, 0.0, 0.5, 0.9, 0.0, 0.0, 0.5])


def live_block_pts():
    """Exactly Hermitian 6x6 stand-ins for PT_A(rho0) off the x-family, each with its live rows.

    A 3x3 live block on rows {0, 2, 4}: a degenerate pair (0, 2) coupled
    by an entry that the skip rule rotates at n = 6 but would skip at
    n = 3, and a large pair (2, 4); no live row; one live pair whose mask
    entry is gamma_a * gamma_b; and a dense matrix, every row live.
    """
    off_tol = scalar._JACOBI_OFF_TOL
    small = 1.2e-14
    assert off_tol / 12 < small < off_tol / 6
    block = np.diag([0.125, 0.1, 0.125, 0.05, 0.2, 0.15]).astype(complex)
    block[0, 2] = block[2, 0] = small
    block[2, 4], block[4, 2] = 0.06 + 0.08j, 0.06 - 0.08j
    inert = np.diag([0.25, -0.0625, 0.125, 0.125, 0.375, 0.25]).astype(complex)
    pair = np.diag([0.2, 0.1, 0.15, 0.3, 0.05, 0.2]).astype(complex)  # gamma_a * gamma_b: zero where either is
    pair[1, 3], pair[3, 1] = -0.04j, 0.04j
    dense = random_hermitian(np.random.default_rng(61), 6) / 16.0
    masks = channels.dephasing_mask(DEFLATION_GA, DEFLATION_GB)
    for i, j in ((0, 2), (2, 4), (1, 3)):  # each live pair is exactly zero in some of the masks
        assert 0 < np.count_nonzero(masks[i, j]) < len(DEFLATION_GA)
    pts = ((block, [0, 2, 4]), (inert, []), (pair, [1, 3]), (dense, list(range(6))))
    for pt, live in pts:
        assert np.array_equal(pt, pt.conj().T) and np.linalg.norm(pt) <= 1.0
        assert live_rows(pt) == live
    return pts


def full_pt_solve(pt, ga, gb):
    """The unsorted (k, 6) diagonals of the full 6x6 stack solve of pt dephased by each factor pair."""
    off_tol = scalar._JACOBI_OFF_TOL
    masks = channels.dephasing_mask(ga, gb)
    return linalg._jacobi_stack(pt.real[..., None] * masks, pt.imag[..., None] * masks, off_tol, off_tol / 12)


def live_rows(pt):
    """The rows of pt with a nonzero off-diagonal entry, as a list."""
    return np.flatnonzero((pt - np.diag(pt.diagonal())).any(axis=1)).tolist()


def sweep_rule(pt, ga, gb):
    """sweep's (min_pt_eigenvalue, negativity_numeric) for the state whose PT_A is pt, at the factor arrays ga and gb.

    esd._pt_eigenvalues solves pt's live block and sweep's rule reads it,
    with split_pt's inert least entry where sweep takes scalar._INERT_MIN.
    """
    live = live_rows(pt)
    rows = np.ix_(live, live)
    eigs = esd._pt_eigenvalues(pt.real[rows], pt.imag[rows], channels._MASK_TERMS[rows], ga, gb)
    return eigs.min(axis=-1, initial=split_pt(pt)[1]), negativity_of_spectrum(eigs)


def test_deflated_sweep_solve_equals_the_full_solve_bit_for_bit():
    # _pt_eigenvalues solves only the live block: off the x-family, its eigenvalues must be the live
    # entries of the full 6x6 stack solve's diagonal, whose skip rule reads n = 6, under masks that
    # zero live pairs, and sweep's rule on them must read the full spectrum's least entry and negativity
    for pt, live in live_block_pts():
        full = full_pt_solve(pt, DEFLATION_GA, DEFLATION_GB)
        rows = np.ix_(live, live)
        got = esd._pt_eigenvalues(pt.real[rows], pt.imag[rows], channels._MASK_TERMS[rows], DEFLATION_GA, DEFLATION_GB)
        assert got.shape == (len(DEFLATION_GA), len(live))
        assert got.tobytes() == full[:, live].tobytes(), live
        spectrum = np.sort(full, axis=-1)
        least, negativity_numeric = sweep_rule(pt, DEFLATION_GA, DEFLATION_GB)
        assert least.tobytes() == spectrum[:, 0].tobytes(), live
        # sweep's negativity counts the live block alone, in its own order. That holds for the partial
        # transpose of a valid 2x3 state (see the test below): no inert entry is below -SPECTRAL_TOL,
        # and at most two eigenvalues are negative, whose sum does not depend on their order. The
        # inert stand-in's -0.0625 diagonal entry, which no valid state has, counts in the full
        # spectrum, and the dense stand-in has three negative eigenvalues: neither is checked here
        if live and np.count_nonzero(spectrum < -scalar.SPECTRAL_TOL, axis=-1).max() <= 2:
            assert negativity_numeric.tobytes() == negativity_of_spectrum(spectrum).tobytes(), live


def test_deflated_probe_equals_the_full_solve_bit_for_bit(monkeypatch):
    # the general probe, the generated one's reference, solves only the live block, the L x L kernel on
    # flat rows with the skip rule of n = 6, and takes the inert rows' least diagonal entry: its value
    # must be min of the full 6x6 kernel diagonal, and the block's diagonal the full diagonal's live
    # entries, bit for bit; no kernel call when L = 0
    off_tol = scalar._JACOBI_OFF_TOL
    calls = []
    generate = scalar._jacobi_kernel

    def recording_kernel(n):
        def record(re, im, off_tol, skip_tol):
            calls.append((n, len(re), len(im), skip_tol))
            diag = generate(n)(re, im, off_tol, skip_tol)
            calls[-1] += (diag,)
            return diag
        return record

    monkeypatch.setattr(scalar, "_jacobi_kernel", recording_kernel)  # where the reference probe reads it
    masks = channels.dephasing_mask(DEFLATION_GA, DEFLATION_GB)
    for pt, live in live_block_pts():
        block, inert_min = split_pt(pt)
        assert len(block[0]) == len(block[1]) == len(live) ** 2
        stand_in = types.SimpleNamespace(gamma_factors=lambda pair: pair)
        for i, pair in enumerate(zip(DEFLATION_GA.tolist(), DEFLATION_GB.tolist())):
            del calls[:]
            got = min_pt_eigenvalue_reference(stand_in, pair, (block, inert_min))
            full = generate(6)((pt.real * masks[..., i]).ravel().tolist(),
                               (pt.imag * masks[..., i]).ravel().tolist(), off_tol, off_tol / 12)
            assert got.hex() == min(full).hex(), (live, pair)
            if not live:
                assert calls == []
                continue
            [(n, re_length, im_length, skip_tol, diag)] = calls
            assert n == len(live) and re_length == im_length == len(live) ** 2
            assert skip_tol == off_tol / 12
            assert np.array(diag).tobytes() == np.array(full)[live].tobytes(), (live, pair)


def split_pt_oracle(pt):
    """split_pt in its numpy formulation: the oracle of the row-list reading."""
    coupled = pt != 0
    np.fill_diagonal(coupled, False)
    live = np.flatnonzero(coupled.any(axis=1))
    rows = np.ix_(live, live)
    block = tuple(tuple(zip(part[rows].ravel().tolist(), channels._MASK_TERMS[rows].ravel().tolist()))
                  for part in (pt.real, pt.imag))
    return block, min(np.delete(pt.diagonal().real, live).tolist(), default=math.inf)


def split_pt_cases():
    """Partial transposes of the x-family, random and jointly coherent states, and signed-zero and NaN stand-ins."""
    states = [ansatz_x(x) for x in (0.0, 0.125, 0.2, 0.25)]
    rng = np.random.default_rng(17)
    states += [random_density_matrix(rng) for _ in range(4)] + [random_pattern_state(rng) for _ in range(4)]
    pts = [partial_transpose(rho.mat, QUBIT_QUTRIT, "A") for rho in states]
    negative_zeros = np.diag([0.25, -0.0, 0.125, 0.125, 0.375, 0.25]).astype(complex)
    negative_zeros[0, 3] = negative_zeros[5, 1] = complex(-0.0, 0.0)
    negative_zeros[3, 0] = negative_zeros[1, 5] = complex(0.0, -0.0)
    negative_zeros[2, 4] = negative_zeros[4, 2] = complex(-0.0, -0.0)
    with_nan = np.diag([0.25, math.nan, 0.125, 0.125, 0.375, 0.25]).astype(complex)
    with_nan[2, 5] = complex(0.0, math.nan)
    with_nan[4, 0] = math.nan
    return pts + [negative_zeros, with_nan]


def test_split_pt_equals_its_numpy_oracle():
    # split_pt reads row lists: the live block's flat row-major entries with their term indices
    # and the inert rows' least diagonal entry must be the numpy formulation's, bit for bit
    def hexed(block):
        return [[(v.hex(), j) for v, j in part] for part in block]

    cases = split_pt_cases()
    for pt in cases:
        block, inert_min = split_pt(pt)
        ref_block, ref_min = split_pt_oracle(pt)
        assert all(type(part) is tuple for part in block)
        assert hexed(block) == hexed(ref_block)
        assert type(inert_min) is float and inert_min.hex() == ref_min.hex()
    # -0.0 is a zero and NaN is not: no row of the signed zeros is live, and the rows with a NaN are,
    # whose block holds the mask terms of rows and columns {2, 4}
    assert split_pt(cases[-2])[0] == ((), ())
    nan_terms = [[j for _, j in part] for part in split_pt(cases[-1])[0]]
    assert nan_terms == [channels._MASK_TERMS[np.ix_([2, 4], [2, 4])].ravel().tolist()] * 2


def test_sweep_and_probe_rule_equals_the_full_spectrum_on_states_with_inert_rows():
    # sweep and the probe read lambda_min as min(inert least entry, live block) and the negativity
    # off the live block alone (sweep's rule on _pt_eigenvalues, and the probe in its general form,
    # the generated one's reference). For
    # valid 2x3 states with inert rows, the x-family and jointly
    # coherent states with some coherences zero, both must be the full 6x6 solve's, bit for bit,
    # at every factor pair; one state's inert least entry lies below all of its block's eigenvalues
    states = [ansatz_x(x) for x in (0.125, 0.2, 0.25)]
    # coherence (1, 3) alone: PT_A couples rows {0, 4}, diagonal 0.3, around inert rows down to 0.05
    states.append(ansatz_general([0.3, 0.05, 0.1, 0.1, 0.3, 0.15], [0.0, 0.0, 0.05, 0.0, 0.0, 0.0]))
    rng = np.random.default_rng(29)
    for zeros in ([0, 2, 3, 4, 5], [1, 3, 5], [0, 1], [1, 3, 4, 5]):  # four, one, one and two rows inert
        rho = random_pattern_state(rng)
        coherences = [rho.mat[i, j].real for i, j in JOINT_COHERENCE_SLOTS]
        states.append(ansatz_general(rho.mat.diagonal().real, [0.0 if k in zeros else c
                                                               for k, c in enumerate(coherences)]))
    # coherences (0, 5) and (2, 4): an entangled live block on rows {1, 2, 3, 5}
    states.append(ansatz_general([0.25, 0.1, 0.1, 0.1, 0.1, 0.35], [0.0, 0.2, 0.0, 0.0, 0.0, 0.05]))
    ga, gb = (np.concatenate([factors, deflation]) for factors, deflation
              in zip(zip(*GENERAL_PAIRS), (DEFLATION_GA, DEFLATION_GB)))
    entangled = inert_below = False
    for rho in states:
        pt = partial_transpose(rho.mat, QUBIT_QUTRIT, "A")
        split = split_pt(pt)
        live = live_rows(pt)
        assert 0 < len(live) < 6 and split[1] < math.inf
        solved = full_pt_solve(pt, ga, gb)
        full = np.sort(solved, axis=-1)
        least, negativity_numeric = sweep_rule(pt, ga, gb)
        assert least.tobytes() == full[:, 0].tobytes()
        assert negativity_numeric.tobytes() == negativity_of_spectrum(full).tobytes()
        probe = types.SimpleNamespace(gamma_factors=lambda pair: pair)
        for i, pair in enumerate(zip(ga.tolist(), gb.tolist())):
            assert min_pt_eigenvalue_reference(probe, pair, split).hex() == full[i, 0].hex(), pair
        entangled |= bool(negativity_numeric.any())
        inert_below |= bool((split[1] < solved[:, live].min(axis=-1)).any())
    assert entangled and inert_below


#: Factor pairs whose masks zero some entries, (0, 0) all off the diagonal, and two that zero none.
GENERAL_PAIRS = ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.3, 0.7), (1.0, 1.0))


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_every_route_dephases_a_general_state_with_the_same_floats(seed, monkeypatch):
    # a random state's entries have negative real and imaginary parts: a complex product by the
    # real mask, (x m - y 0) + i (x 0 + y m), gives other signed zeros than x m and y m where m is
    # 0. The probe's rows (of its general form, the generated one's reference), sweep's planes
    # (esd._pt_eigenvalues) with every row live and the partial transpose of evolve's state must
    # all be the real products, signed zeros included
    mat = random_density_matrix(np.random.default_rng(seed)).mat
    rho0 = DensityMatrix(0.5 * (mat + mat.conj().T), QUBIT_QUTRIT)  # exactly Hermitian
    pt = partial_transpose(rho0.mat, QUBIT_QUTRIT, "A")
    split = split_pt(pt)
    assert len(split[0][0]) == 36 and split[1] == math.inf
    rows, planes = [], []
    matrix_kernel, stack_kernel = scalar._jacobi_kernel(6), linalg._jacobi_stack

    def record_rows(re, im, off_tol, skip_tol):
        rows.append((np.reshape(re, (6, 6)), np.reshape(im, (6, 6))))
        return matrix_kernel(re, im, off_tol, skip_tol)

    def kernel_of(n):  # the reference probe looks the kernel up at each call
        assert n == 6
        return record_rows

    def record_planes(re, im, off_tol, skip_tol):
        planes.append((re.copy(), im.copy()))  # copied before the kernel overwrites them
        return stack_kernel(re, im, off_tol, skip_tol)

    ga, gb = (np.array(factors) for factors in zip(*GENERAL_PAIRS))
    # a Scenario of rho0, as much as evolve and the probe read: gamma_factors of a factor pair is the pair
    stand_in = types.SimpleNamespace(initial_state=rho0, gamma_factors=lambda pair: pair)
    monkeypatch.setattr(esd, "_jacobi_stack", record_planes)
    monkeypatch.setattr(scalar, "_jacobi_kernel", kernel_of)
    esd._pt_eigenvalues(pt.real, pt.imag, channels._MASK_TERMS, ga, gb)
    [(re_planes, im_planes)] = planes
    for i, pair in enumerate(GENERAL_PAIRS):
        min_pt_eigenvalue_reference(stand_in, pair, split)
        re, im = rows[i]
        evolved = partial_transpose(evolve(stand_in, pair).mat, QUBIT_QUTRIT, "A")
        for route_re, route_im in ((re_planes[..., i], im_planes[..., i]), (evolved.real, evolved.imag)):
            assert route_re.tobytes() == re.tobytes() and route_im.tobytes() == im.tobytes(), pair
    zeros = [part[part == 0.0] for part in rows[0]]  # (0, 0): every off-diagonal product is a zero
    assert any(np.signbit(z).any() for z in zeros) and not all(np.signbit(z).all() for z in zeros)


#: Corners for the generated probe: zeros of both signs, the least subnormal, a tiny one, the threshold 1/8
#: and the end 1/4 with their neighbours, and an x that is no Python float
PROBE_XS = (0.0, -0.0, 5e-324, 1e-300, math.nextafter(0.125, 0.0), 0.125, math.nextafter(0.125, 1.0), 0.2,
            math.nextafter(0.25, 0.0), 0.25, Fraction(1, 5), np.float32(0.2))
#: Rate pairs for it: an idle side each way, extreme rates whose t* is subnormal, and no noise at all
PROBE_RATES = ((1.0, 1.0), (0.7, 1.3), (0.0, 2.0), (2.0, 0.0), (1e308, 1e-308), (0.0, 0.0))


def test_generated_probe_gives_the_reference_probe_bits():
    # the generated probe is the general probe written out for the family's split: it must give its
    # bits (repr) at every corner, rate pair and time, the death time and an int time included, and
    # gamma_factors' error and message for a time that it refuses; its mask products, as source,
    # must round as _mask_products does
    factors = [0.0, 5e-324, 1e-160, 0.3, 0.5, 1.0]
    for ga in factors:
        for gb in factors:
            products = [eval(source, {"gamma_a": ga, "gamma_b": gb}) for source in scalar._MASK_PRODUCT_SOURCE]
            assert repr(products) == repr(list(scalar._mask_products(ga, gb))), (ga, gb)
    probe = scalar._family_probe()
    for kind in ScenarioKind:
        for x in PROBE_XS:
            for rate_a, rate_b in PROBE_RATES:
                s = Scenario(kind, x, rate_a, rate_b)
                t_star = analytic_esd_time(s)
                for t in (0.0, 5e-324, 1e-300, 0.37, 1, 1e300, math.inf, *([t_star] if type(t_star) is float else [])):
                    assert repr(probe(s, t)) == repr(min_pt_eigenvalue_reference(s, t)), (kind, x, rate_a, rate_b, t)
                for t in (-1.0, math.nan, -math.inf):
                    with pytest.raises(ValueError) as refused:
                        s.gamma_factors(t)
                    with pytest.raises(ValueError) as probed:
                        probe(s, t)
                    assert str(probed.value) == str(refused.value) == f"t must be >= 0, got {t}"


def test_family_death_time_runs_the_generated_probe_alone(probe_calls, monkeypatch):
    # a family death time asks for no kernel: each probe is the generated function, which rotates the
    # live block in locals. The root finder probes the same times as through the reference probe, both
    # bracket ends first and at most 16 in all, and no request reads the Scenario's initial_state
    # (test_cli.py runs a death time in a process without numpy)
    def reference_route(s):
        times = []

        def probe(scenario, t):
            times.append(t)
            return min_pt_eigenvalue_reference(scenario, t)

        with monkeypatch.context() as patch:
            patch.setattr(scalar, "_family_probe", lambda: probe)
            return numeric_esd_time(s), times

    def no_kernel(n):
        raise AssertionError(f"a death-time probe asked for the {n}x{n} kernel")

    scenarios = [Scenario(kind, x, rate_a, rate_b) for kind in ScenarioKind for x in (0.126, 0.2, 0.25)
                 for rate_a, rate_b in ((1.3, 0.7), (1e-3, 50.0), (1e-7, 1e-7))]
    references = [reference_route(s) for s in scenarios]
    monkeypatch.setattr(scalar, "_jacobi_kernel", no_kernel)
    for s, (death_time, times) in zip(scenarios, references):
        del probe_calls[:]
        assert numeric_esd_time(s).hex() == death_time.hex()
        assert probe_calls == times and probe_calls[:2] == [0.0, scalar.default_bracket(s)]
        assert len(probe_calls) <= 16 and "initial_state" not in vars(s)


def test_death_time_probe_makes_no_numpy_call(monkeypatch):
    # the probe masks and solves Python row lists: with the numpy mask, the sweep's
    # path and every numpy name but the array type out of reach, each death time keeps its bits
    scenarios = [scenario(kind, x=x, rate_a=1.3, rate_b=0.7) for kind in ScenarioKind for x in (0.13, 0.2, 0.25)]
    before = [numeric_esd_time(s).hex() for s in scenarios]

    def unreachable(*args):
        raise AssertionError("a death-time probe reached the numpy path")

    monkeypatch.setattr(esd, "dephasing_mask", unreachable)
    monkeypatch.setattr(esd, "_pt_eigenvalues", unreachable)
    for module in (esd, channels, linalg):
        monkeypatch.setattr(module, "np", types.SimpleNamespace(ndarray=np.ndarray))
    assert [numeric_esd_time(s).hex() for s in scenarios] == before
    # the route lives in scalar, which holds no numpy name at all (test_cli.py runs it in a process without numpy)
    assert numeric_esd_time is scalar.numeric_esd_time
    assert not [name for name, value in vars(scalar).items() if getattr(value, "__name__", "").startswith("numpy")]


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_sweep_makes_no_checked_eigensolve(kind, monkeypatch):
    # every sweep block goes to the trusted entry, not through the checked one
    calls = []

    def counted(name):
        real = getattr(linalg, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("hermitian_eigenvalues", "hermiticity_defect"):  # the checked entry, and its check
        monkeypatch.setattr(linalg, name, counted(name))
    for x in (0.0, 0.2, 0.25):
        curve = sweep(scenario(kind, x=x, rate_a=1.3, rate_b=0.7), np.linspace(0.0, 4.0, 600))
        assert len(curve) == 600
    assert calls == []


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_death_time_and_sweep_transpose_no_evolved_state(kind, monkeypatch):
    # the split of PT_A(rho0) is the module's closed form: building a Scenario, its death time and a
    # sweep take no partial transpose, build no x-state and wrap no DensityMatrix; evolve builds the
    # x-state, on first read of initial_state, and wraps one DensityMatrix
    calls = []

    def counted(module, name):
        real = getattr(module, name)
        return lambda *args: calls.append(name) or real(*args)

    for module, name in ((linalg, "partial_transpose"), (states, "ansatz_x"), (esd, "DensityMatrix")):
        monkeypatch.setattr(module, name, counted(module, name))
    s = scenario(kind, x=0.2, rate_a=1.3, rate_b=0.7)
    assert close_to_death_time(numeric_esd_time(s), analytic_esd_time(s))
    assert len(sweep(s, np.linspace(0.0, 4.0, 600))) == 600
    assert calls == []
    evolve(s, 1.0)  # the counters see the calls they count
    assert calls == ["ansatz_x", "DensityMatrix"]


def test_numeric_esd_time_iteration_cap(monkeypatch):
    monkeypatch.setattr(scalar, "_MAX_ROOT_ITERATIONS", 2)
    with pytest.raises(BracketError, match="2 iterations"):
        numeric_esd_time(scenario(ScenarioKind.QUBIT_ONLY))


def test_numeric_esd_time_never_entangled():
    assert numeric_esd_time(scenario(ScenarioKind.QUBIT_ONLY, x=0.0625)) is EsdOutcome.NEVER_ENTANGLED
    assert numeric_esd_time(scenario(ScenarioKind.MULTI_LOCAL, x=0.125)) is EsdOutcome.NEVER_ENTANGLED


def test_numeric_esd_time_reads_exactly_minus_spectral_tol_as_never_entangled(monkeypatch):
    # the negativity's test of entanglement is lambda_min < -SPECTRAL_TOL, strictly: a probe that reads
    # exactly -SPECTRAL_TOL at t = 0 is never entangled, and one that reads the float below it is
    s = scenario(ScenarioKind.MULTI_LOCAL)
    probe = scalar._family_probe()
    for at_zero, entangled in ((-scalar.SPECTRAL_TOL, False), (math.nextafter(-scalar.SPECTRAL_TOL, -1.0), True)):
        monkeypatch.setattr(scalar, "_family_probe", lambda: lambda s, t: at_zero if t == 0.0 else probe(s, t))
        got = numeric_esd_time(s)
        assert (type(got) is float) == entangled and (got is EsdOutcome.NEVER_ENTANGLED) != entangled, at_zero


def test_illinois_takes_the_midpoint_when_the_secant_step_lands_on_an_end(monkeypatch):
    # the secant step c must lie strictly inside (a, b): when fb dwarfs fa, fb - fa rounds to fb and c
    # lands exactly on a, and the root finder must probe the midpoint instead, never a time it has probed
    s = scenario(ScenarioKind.MULTI_LOCAL)
    a, b = 0.0, scalar.default_bracket(s)
    fa, fb = -2e-10, 2.0 ** 40
    assert b - fb * (b - a) / (fb - fa) == a
    root, times = 0.3 * b, []

    def step(scenario, t):
        times.append(t)
        return fa if t < root else fb

    monkeypatch.setattr(scalar, "_family_probe", lambda: step)
    got = numeric_esd_time(s)
    assert times[:3] == [a, b, 0.5 * b] and len(set(times)) == len(times)
    assert abs(got - root) <= 4.0 * sys.float_info.epsilon * root


def test_numeric_esd_time_bracket_failure():
    with pytest.raises(BracketError):
        numeric_esd_time(scenario(ScenarioKind.QUBIT_ONLY, rate_a=0.0))
    # below a rate of about 7.7e-308 the default window overflows to inf
    with pytest.raises(BracketError, match="not finite"):
        numeric_esd_time(scenario(ScenarioKind.QUBIT_ONLY, rate_a=1e-320))


def test_evolve_time_zero_is_initial_state():
    s = scenario(ScenarioKind.MULTI_LOCAL, x=0.2)
    out = evolve(s, 0.0)
    assert extract_corner(out) == 0.2
    validate(out.mat)


def test_evolve_corner_decay():
    s = scenario(ScenarioKind.QUBIT_ONLY, x=0.25, rate_a=2.0)
    t = 0.75
    assert abs(extract_corner(evolve(s, t)) - 0.25 * math.exp(-0.75)) < 1e-15


def test_evolve_keeps_diagonal_fixed():
    s = scenario(ScenarioKind.MULTI_LOCAL, x=0.25, rate_a=1.3, rate_b=0.4)
    out = evolve(s, 2.2)
    assert np.array_equal(np.diag(out.mat), [0.25, 0.125, 0.125, 0.125, 0.125, 0.25])


def test_pt_spectrum_closed_form_matches_numeric():
    rng = np.random.default_rng(51)
    for kind in ScenarioKind:
        for _ in range(5):
            s = scenario(kind, x=float(rng.uniform(0.0, 0.25)),
                         rate_a=float(rng.uniform(0.1, 3.0)), rate_b=float(rng.uniform(0.1, 3.0)))
            t = float(rng.uniform(0.0, 4.0))
            numeric = pt_spectrum(evolve(s, t))
            assert np.max(np.abs(numeric - pt_spectrum_closed_form(s, t))) < 1e-10


def test_numeric_tracks_analytic_on_dense_grids():
    for kind in ScenarioKind:
        s = scenario(kind)
        horizon = 5.0 / s.effective_rate()
        for t in np.linspace(0.0, horizon, 200):
            numeric = negativity(evolve(s, float(t))).value
            assert abs(numeric - analytic_negativity(s, float(t))) < 1e-10


def test_sudden_death_is_finite_while_coherence_persists():
    # entanglement is gone at t* + delta but the corner is still positive
    for s in (scenario(ScenarioKind.QUBIT_ONLY), scenario(ScenarioKind.MULTI_LOCAL)):
        t_star = analytic_esd_time(s)
        delta = 0.1 / s.effective_rate()
        after = evolve(s, t_star + delta)
        assert negativity(after).value == 0.0
        assert extract_corner(after) > 0.0


def test_death_is_irreversible_on_grid():
    s = scenario(ScenarioKind.MULTI_LOCAL)
    seen_zero = False
    for t in np.linspace(0.0, 8.0, 120):
        value = negativity(evolve(s, float(t))).value
        if seen_zero:
            assert value == 0.0
        elif value == 0.0:
            seen_zero = True
    assert seen_zero


def test_multilocal_dies_first():
    q = scenario(ScenarioKind.QUBIT_ONLY)
    r = scenario(ScenarioKind.QUTRIT_ONLY)
    m = scenario(ScenarioKind.MULTI_LOCAL)
    assert analytic_esd_time(m) < min(analytic_esd_time(q), analytic_esd_time(r))
    for t in np.linspace(0.0, 3.0, 40):
        assert negativity(evolve(m, float(t))).value <= negativity(evolve(q, float(t))).value + 1e-15


def test_sweep_report_structure():
    s = scenario(ScenarioKind.QUBIT_ONLY)
    grid = np.linspace(0.0, 4.0, 101)
    curve = sweep(s, grid)
    assert len(curve) == 101
    analytic_time = analytic_esd_time(s)
    assert analytic_time == pytest.approx(2.0 * LN2, abs=1e-15)
    esd_time = numeric_esd_time(s)
    assert close_to_death_time(esd_time, analytic_time)
    # the numeric curve crosses zero between the grid neighbors of t*
    before = [pt for pt in curve if pt.negativity_numeric > 0.0]
    assert before[-1].t < 2.0 * LN2
    first_zero = next(pt for pt in curve if pt.negativity_numeric == 0.0)
    assert first_zero.t > before[-1].t
    for pt in curve:
        if pt.t >= esd_time:
            assert pt.negativity_numeric == 0.0
        assert abs(pt.corner - 0.25 * pt.gamma_a * pt.gamma_b) < 1e-14


def test_sweep_x_zero_is_flat():
    s = scenario(ScenarioKind.MULTI_LOCAL, x=0.0)
    curve = sweep(s, np.linspace(0.0, 4.0, 21))
    assert numeric_esd_time(s) is EsdOutcome.NEVER_ENTANGLED
    assert analytic_esd_time(s) is EsdOutcome.NEVER_ENTANGLED
    assert all(pt.negativity_numeric == 0.0 for pt in curve)
    assert all(pt.negativity_analytic == 0.0 for pt in curve)


def test_sweep_no_death_variant():
    s = scenario(ScenarioKind.QUBIT_ONLY, rate_a=0.0)
    curve = sweep(s, np.linspace(0.0, 2.0, 5))
    assert analytic_esd_time(s) is EsdOutcome.NO_DEATH
    assert all(pt.negativity_numeric > 0.0 for pt in curve)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_sweep_makes_no_root_finder_probe(kind, probe_calls):
    # the curve needs no death time: every root-finder probe would call the probe scalar._family_probe() returns
    curve = sweep(scenario(kind, x=0.2, rate_a=1.3, rate_b=0.7), np.linspace(0.0, 4.0, 101))
    assert len(curve) == 101
    assert probe_calls == []


def test_gamma_factors_idle_subsystem():
    s = scenario(ScenarioKind.QUBIT_ONLY, rate_a=1.0, rate_b=5.0)
    ga, gb = s.gamma_factors(1.0)
    assert gb == 1.0
    assert abs(ga - math.exp(-0.5)) < 1e-15


T_CHECKED = (
    ("evolve", evolve),
    ("analytic_negativity", analytic_negativity),
    ("pt_spectrum_closed_form", pt_spectrum_closed_form),
    ("gamma_factors", lambda s, t: s.gamma_factors(t)),
)


@pytest.mark.parametrize("kind", list(ScenarioKind))
@pytest.mark.parametrize("name, call", T_CHECKED, ids=[name for name, _ in T_CHECKED])
@pytest.mark.parametrize("t", [-1.0, math.nan])
def test_time_is_checked_at_the_scenario(kind, name, call, t):
    with pytest.raises(ValueError, match=r"^t must be >= 0, got "):
        call(scenario(kind), t)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_gamma_factors_at_infinite_time(kind):
    ga, gb = scenario(kind, rate_a=1.0, rate_b=2.0).gamma_factors(math.inf)
    assert (ga, gb) == (1.0 if kind is ScenarioKind.QUTRIT_ONLY else 0.0,
                        1.0 if kind is ScenarioKind.QUBIT_ONLY else 0.0)
    assert scenario(kind, rate_a=0.0, rate_b=0.0).gamma_factors(math.inf) == (1.0, 1.0)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_x_and_rates_are_checked_once(kind, monkeypatch):
    # the x-state's rows are built and checked when the Scenario is, its DensityMatrix on evolve's
    # first read of initial_state, once; the evolve path builds no Kraus channel: it dephases
    # through the mask alone
    ansatz_calls = []
    build = ansatz_x

    def counting_ansatz_x(x):
        ansatz_calls.append(x)
        return build(x)

    def no_kraus(*args):
        raise AssertionError("the pipeline built a Kraus channel")

    monkeypatch.setattr("esdsim.states.ansatz_x", counting_ansatz_x)
    monkeypatch.setattr(channels, "dephasing_qubit", no_kraus)
    monkeypatch.setattr(channels, "dephasing_qutrit", no_kraus)
    monkeypatch.setattr(channels, "_phase_damping", no_kraus)  # reached however a builder was imported
    s = scenario(kind, x=0.2, rate_a=1.3, rate_b=0.7)
    sweep(s, np.linspace(0.0, 4.0, 101))
    assert close_to_death_time(numeric_esd_time(s), analytic_esd_time(s))
    assert ansatz_calls == []
    evolve(s, 1.0)
    evolve(s, 2.0)
    assert ansatz_calls == [0.2]


def pointwise_curve(s, grid):
    """The per-point route: evolve -> negativity and the closed form, one time at a time."""
    rows = []
    for t in grid:
        t = float(t)
        rho = evolve(s, t)
        res = negativity(rho)
        rows.append((t, *s.gamma_factors(t), extract_corner(rho), res.value, analytic_negativity(s, t),
                     res.min_pt_eigenvalue))
    return np.array(rows, dtype=float).reshape(len(rows), len(CURVE_FIELDS))


@pytest.mark.parametrize("kind", list(ScenarioKind))
@pytest.mark.parametrize("rates", [(1.0, 1.0), (0.0, 2.5), (0.3, 0.0), (0.0, 0.0), (1e-9, 7e2)],
                         ids=lambda r: f"{r[0]:g}-{r[1]:g}")
def test_sweep_equals_pointwise_route_bit_for_bit(kind, rates):
    # more than one block and a partial last one; the pointwise route costs about 70 us a point
    s = scenario(kind, x=0.2, rate_a=rates[0], rate_b=rates[1])
    grid = np.concatenate([np.linspace(0.0, 6.0, esd._SWEEP_BLOCK + 44), [1e300, math.inf, 0.0, 0.7]])
    curve = sweep(s, grid)
    assert curve.dtype.names == CURVE_FIELDS
    columns = np.stack([curve[name] for name in CURVE_FIELDS], axis=-1)
    assert columns.tobytes() == pointwise_curve(s, grid).tobytes()


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_curve_rows_against_the_exact_corner(kind):
    # each row against its own float factors taken as exact: min_pt_eigenvalue is
    # 1/8 - x ga gb and negativity_numeric max(0, x ga gb - 1/8), within eps/2 (4 eps/8;
    # the worst over this grid is 6.6e-17, 2.4 eps/8), and an exact negativity in
    # (0, 1e-10] reads exactly 0 by the noise-floor rule; the extra times put x g(t) at
    # 1/8 + delta, on both sides of that floor
    tol = Decimal(sys.float_info.epsilon / 2)
    eighth, floor = Decimal(1) / 8, Decimal(scalar.SPECTRAL_TOL)
    floored = 0
    for rate in np.logspace(-9.0, 3.0, 13):
        for x in (0.0, 0.1, 0.125, 0.1251, 0.13, 0.2, 0.25):
            s = scenario(kind, x=x, rate_a=float(rate), rate_b=0.7 * float(rate))
            r = s.effective_rate()
            grid = [*np.linspace(0.0, 4.0 * LN2 / r, 401)]
            if x > scalar.ENTANGLEMENT_THRESHOLD_X:
                grid += [2.0 * math.log(x / (0.125 + delta)) / r for delta in (1.1e-10, 9e-11, 5e-11, 1e-12)]
            curve = sweep(s, grid)
            for t, ga, gb, lam, neg in zip(*(curve[name].tolist() for name in (
                    "t", "gamma_a", "gamma_b", "min_pt_eigenvalue", "negativity_numeric"))):
                xg = exact_corner(s.x, ga, gb)
                assert abs(Decimal(lam) - (eighth - xg)) <= tol, (rate, x, t, lam)
                exact = max(Decimal(0), xg - eighth)
                if 0 < exact <= floor:
                    floored += 1
                    assert neg == 0.0, (rate, x, t, neg)
                else:
                    assert abs(Decimal(neg) - exact) <= tol, (rate, x, t, neg)
    assert floored > 0


def test_sweep_curve_is_a_read_only_record_array():
    curve = sweep(scenario(ScenarioKind.MULTI_LOCAL), np.linspace(0.0, 2.0, 600))  # more than one block
    assert isinstance(curve, np.recarray) and len(curve) == 600
    assert curve[599].t == 2.0 and curve.t[-1] == 2.0
    assert np.array_equal(curve.negativity_numeric, [pt.negativity_numeric for pt in curve])
    with pytest.raises(ValueError):
        curve.t[0] = 1.0
    assert len(sweep(scenario(ScenarioKind.QUBIT_ONLY), [])) == 0


@pytest.mark.parametrize("bad", [-1.0, math.nan, -math.inf])
@pytest.mark.parametrize("where", [0, 137, -1])
def test_sweep_checks_every_time(bad, where):
    grid = np.linspace(0.0, 4.0, 300)
    grid[where] = bad
    with pytest.raises(ValueError, match=r"^t must be >= 0, got "):
        sweep(scenario(ScenarioKind.MULTI_LOCAL), grid)


@pytest.mark.parametrize("grid", [np.float64(1.0), np.zeros((2, 3))], ids=["0-D", "2-D"])
def test_sweep_refuses_a_grid_that_is_not_one_dimensional(grid):
    with pytest.raises(ValueError, match=r"^t_grid must be one-dimensional, got shape "):
        sweep(scenario(ScenarioKind.MULTI_LOCAL), grid)


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_gamma_factors_of_an_array_are_per_point(kind):
    # (-0.5 t) rate overflows to -inf at 1e308 x 1.7e308: silently, as in Python floats, and exp gives 0.0
    times = np.array([[0.0, -0.0, 5e-324, 0.1, 1.0], [2.5, 1e300, 1.7e308, math.inf, 0.7]])
    for rate_a, rate_b in [(0.7, 1.9), (5e-324, 1e-9), (1.0, 1e308), (1e308, 0.0), (0.0, 1.0)]:
        s = scenario(kind, rate_a=rate_a, rate_b=rate_b)
        ga, gb = s.gamma_factors(times)
        assert ga.shape == gb.shape == times.shape
        expected = np.array([[scalar.decay_factor(rate, float(t)) for rate in s.rates] for t in times.ravel()])
        assert np.stack([ga.ravel(), gb.ravel()], axis=-1).tobytes() == expected.tobytes(), (rate_a, rate_b)


def test_sweep_memory_stays_flat():
    # mask -> PT_A(rho0) o mask -> eigenvalues runs in fixed blocks on the live 2x2 block only, which
    # peaks near 1.25 MB: full (k, 6, 6) blocks would peak near 2.5 MB, and one (T, 6, 6) pass near 17 MB
    s = scenario(ScenarioKind.MULTI_LOCAL, x=0.2, rate_a=1.3, rate_b=0.7)
    grid = np.linspace(0.0, 4.0, 10001)
    tracemalloc.start()
    try:
        sweep(s, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20, peak


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 0.125, 0.2, 0.25, math.nextafter(0.125, 0.0),
                               math.nextafter(0.125, 1.0), 1e-300, math.nextafter(0.25, 0.0), 0, Fraction(1, 5),
                               np.float32(0.2)])
def test_scenario_splits_the_partial_transpose_of_its_state_bit_for_bit(x):
    # sweep and the probe take the split of PT_A(rho0) from the Scenario's x and the module's closed
    # form, with no numpy: for x != 0 it must be the row-scan split of linalg.partial_transpose on
    # ansatz_x's DensityMatrix, its live rows _LIVE_ROWS (rows (1, 3) give the same block, since
    # rows 1 and 2 share their diagonal entry and mask terms); at x = 0 the row scan finds no live
    # row and the inert least entry _INERT_MIN, and _live_pairs gives a diagonal block of _INERT_MIN.
    # Either way the probe and sweep give the reference probe's bits, and initial_state, built on
    # first read, ansatz_x's bits
    pt = partial_transpose(ansatz_x(x).mat, QUBIT_QUTRIT, "A")
    split = split_pt(pt)
    x_value = Scenario(ScenarioKind.MULTI_LOCAL, x).x
    (diagonal_p, off_pq, off_qp, diagonal_q), im_pairs = scalar._live_pairs(x_value)
    if x_value:
        assert scalar._LIVE_ROWS == tuple(live_rows(pt)) == (2, 3)
        assert repr((scalar._live_pairs(x_value), scalar._INERT_MIN)) == repr(split)
    else:
        assert repr(split) == repr((((), ()), scalar._INERT_MIN))
        assert [entry.hex() for entry, _ in (diagonal_p, diagonal_q)] == [scalar._INERT_MIN.hex()] * 2
        assert [entry.hex() for entry, _ in (off_pq, off_qp, *im_pairs)] == [(0.0).hex()] * 6
    for kind in ScenarioKind:
        s = Scenario(kind, x)
        times = [0.0, 0.37]
        expected = [repr(min_pt_eigenvalue_reference(s, t)) for t in times]
        assert [repr(scalar._family_probe()(s, t)) for t in times] == expected
        assert [repr(v) for v in sweep(s, times).min_pt_eigenvalue.tolist()] == expected
        assert "initial_state" not in vars(s)
        assert s.initial_state.mat.tobytes() == ansatz_x(x).mat.tobytes()
        assert s.initial_state is s.initial_state and not s.initial_state.mat.flags.writeable


@pytest.mark.parametrize("x, error, message", [
    (0.3, ValueError, "x must lie in the positivity range [0, 0.25], got 0.3"),
    ("0.2", TypeError, "'<=' not supported between instances of 'float' and 'str'"),
    (Decimal("0.2"), TypeError, "unsupported operand type(s) for +: 'decimal.Decimal' and 'float'"),
])
def test_scenario_refuses_an_x_as_ansatz_x_does(x, error, message):
    for build in (lambda: Scenario("multilocal", x), lambda: ansatz_x(x)):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message
