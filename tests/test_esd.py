import math
import sys
import time
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from esdsim import channels, esd, linalg
from esdsim.entanglement import negativity, pt_spectrum
from esdsim.esd import (
    BracketError,
    EsdOutcome,
    Scenario,
    ScenarioKind,
    analytic_esd_time,
    analytic_negativity,
    evolve,
    numeric_esd_time,
    pt_spectrum_closed_form,
    sweep,
)
from esdsim.esd import CURVE_FIELDS
from esdsim.linalg import hermitian_eigenvalues
from esdsim.states import extract_corner, validate

from numeric_oracles import exact_corner, exact_esd_time

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


def test_scenario_refuses_rates_whose_sum_overflows():
    # each rate is finite, their sum is not: the death-time window would be 0
    with pytest.raises(ValueError, match="rate_a \\+ rate_b must be finite"):
        scenario(ScenarioKind.MULTI_LOCAL, rate_a=1e308, rate_b=1e308)
    # an idle side's rate does not act, so it cannot overflow the sum
    assert scenario(ScenarioKind.QUBIT_ONLY, rate_a=1e308, rate_b=1e308).effective_rate() == 1e308
    assert scenario(ScenarioKind.MULTI_LOCAL, rate_a=1.7e308, rate_b=0.0).effective_rate() == 1.7e308


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
    probe = esd._min_pt_eigenvalue

    def counting_probe(scenario, t):
        calls.append(t)
        return probe(scenario, t)

    monkeypatch.setattr(esd, "_min_pt_eigenvalue", counting_probe)
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
    assert probe_calls[:2] == [0.0, esd.default_bracket(s)]
    assert len(set(probe_calls)) == len(probe_calls)
    assert all(0.0 <= t <= probe_calls[1] for t in probe_calls)
    assert 0.0 < numeric < probe_calls[1]


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_probe_equals_checked_route_and_meets_the_kernel_precondition(kind, probe_calls, monkeypatch):
    # the probe and sweep skip hermitian_eigenvalues' checks: they must give the
    # checked route's bits, on input that is exactly Hermitian with Frobenius norm <= 1
    trusted_inputs = []
    trusted = esd._eigenvalues

    def recording(a, off_tol):
        trusted_inputs.append(a)  # the kernels only read their input
        return trusted(a, off_tol)

    monkeypatch.setattr(esd, "_eigenvalues", recording)
    for rate in (0.0, *np.logspace(-9.0, 3.0, 13)):
        for x in (0.0, 0.125, 0.13, 0.2, 0.25):
            s = scenario(kind, x=x, rate_a=float(rate), rate_b=float(rate))
            del probe_calls[:], trusted_inputs[:]
            if rate or x <= esd.ENTANGLEMENT_THRESHOLD_X:  # else no noise acts and there is no window
                numeric_esd_time(s)
            times = list(probe_calls)
            if x > esd.ENTANGLEMENT_THRESHOLD_X and rate:
                assert times[:2] == [0.0, esd.default_bracket(s)]
            for t in times:
                checked = negativity(evolve(s, t)).min_pt_eigenvalue
                assert esd._min_pt_eigenvalue(s, t).hex() == checked.hex(), (rate, x, t)
            curve = sweep(s, [*times, 0.0, *np.geomspace(1e-12, 1e12, 25), math.inf])
            assert len(trusted_inputs) == 2 * len(times) + 1
            for pts in trusted_inputs:
                assert np.array_equal(pts, np.swapaxes(pts, -1, -2).conj()), (rate, x)
                assert np.all(np.linalg.norm(pts, axis=(-2, -1)) <= 1.0), (rate, x)
            stack = trusted_inputs[-1]
            assert stack.shape == (len(times) + 27, 6, 6)
            checked = np.array([hermitian_eigenvalues(m)[0] for m in stack])
            assert checked.tobytes() == curve.min_pt_eigenvalue.tobytes()


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
    # the x-state is transposed once, when the Scenario is built; the probes and the
    # sweep blocks scale that partial transpose by the mask and wrap no DensityMatrix
    calls = []

    def counted(name):
        real = getattr(esd, name)
        return lambda *args: calls.append(name) or real(*args)

    s = scenario(kind, x=0.2, rate_a=1.3, rate_b=0.7)
    for name in ("partial_transpose", "DensityMatrix"):
        monkeypatch.setattr(esd, name, counted(name))
    assert close_to_death_time(numeric_esd_time(s), analytic_esd_time(s))
    assert len(sweep(s, np.linspace(0.0, 4.0, 600))) == 600
    assert calls == []
    evolve(scenario(kind), 1.0)  # the counters see the calls they count
    assert calls == ["partial_transpose", "DensityMatrix"]


def test_numeric_esd_time_iteration_cap(monkeypatch):
    monkeypatch.setattr(esd, "_MAX_ROOT_ITERATIONS", 2)
    with pytest.raises(BracketError, match="2 iterations"):
        numeric_esd_time(scenario(ScenarioKind.QUBIT_ONLY))


def test_numeric_esd_time_never_entangled():
    assert numeric_esd_time(scenario(ScenarioKind.QUBIT_ONLY, x=0.0625)) is EsdOutcome.NEVER_ENTANGLED
    assert numeric_esd_time(scenario(ScenarioKind.MULTI_LOCAL, x=0.125)) is EsdOutcome.NEVER_ENTANGLED


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
    # the curve needs no death time: every root-finder probe would call esd._min_pt_eigenvalue
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
    # the x-state is built when the Scenario is, and the evolve path makes
    # no DephasingParams (whose construction re-checks a rate and t)
    ansatz_calls = []
    params_made = []
    build = esd.ansatz_x

    def counting_ansatz_x(x):
        ansatz_calls.append(x)
        return build(x)

    def counting_post_init(params):
        params_made.append(params)

    monkeypatch.setattr(esd, "ansatz_x", counting_ansatz_x)
    monkeypatch.setattr(channels.DephasingParams, "__post_init__", counting_post_init)
    s = scenario(kind, x=0.2, rate_a=1.3, rate_b=0.7)
    sweep(s, np.linspace(0.0, 4.0, 101))
    assert close_to_death_time(numeric_esd_time(s), analytic_esd_time(s))
    assert ansatz_calls == [0.2]
    assert params_made == []


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
    eighth, floor = Decimal(1) / 8, Decimal(linalg.SPECTRAL_TOL)
    floored = 0
    for rate in np.logspace(-9.0, 3.0, 13):
        for x in (0.0, 0.1, 0.125, 0.1251, 0.13, 0.2, 0.25):
            s = scenario(kind, x=x, rate_a=float(rate), rate_b=0.7 * float(rate))
            r = s.effective_rate()
            grid = [*np.linspace(0.0, 4.0 * LN2 / r, 401)]
            if x > esd.ENTANGLEMENT_THRESHOLD_X:
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
        expected = np.array([[channels.decay_factor(rate, float(t)) for rate in s.rates] for t in times.ravel()])
        assert np.stack([ga.ravel(), gb.ravel()], axis=-1).tobytes() == expected.tobytes(), (rate_a, rate_b)


def test_sweep_memory_stays_flat():
    # mask -> PT_A(rho0) o mask -> eigenvalues runs in fixed blocks: one (T, 6, 6) pass would peak near 17 MB
    s = scenario(ScenarioKind.MULTI_LOCAL, x=0.2, rate_a=1.3, rate_b=0.7)
    grid = np.linspace(0.0, 4.0, 10001)
    tracemalloc.start()
    try:
        sweep(s, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20, peak
