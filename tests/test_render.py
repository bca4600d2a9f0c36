"""render_csv against one "%.17g" per value, byte for byte.

The renderer formats a curve block's float buffer with whole-array numpy
steps and hands the values it cannot prove exact to _render._format_each,
which runs "%.17g" itself (see the esdsim.cli module docstring). These
tests fill a block's buffer with any float64 at all and compare every byte
with tests/numeric_oracles.render_csv_reference, spy on which values took
the fallback, and run under pyproject's warnings-as-errors, so no input
may raise a numpy RuntimeWarning.
"""

import math
from datetime import timedelta
from decimal import Decimal

import numpy as np
import pytest

from esdsim import Scenario, _render, cli, esd
from esdsim.scalar import CURVE_FIELDS

from numeric_oracles import render_csv_reference

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

WIDTH = len(CURVE_FIELDS)


def _block(values):
    """A curve block whose flat float buffer holds values, padded with 0.0 to whole rows."""
    values = np.asarray(values, dtype=float)
    block = np.zeros(-(-values.size // WIDTH), dtype=esd._CURVE_DTYPE)
    block.view(float)[:values.size] = values
    return block


def _assert_renders(values):
    block = _block(values)
    got, want = cli.render_csv(block), render_csv_reference(block)
    if got != want:  # name the values, not a diff of the whole text
        fields = [text.replace("\n", ",").split(",") for text in (got, want)]
        wrong = [(x, g, w) for x, g, w in zip(block.view(float).tolist(), *fields) if g != w]
        pytest.fail(f"{len(wrong)} of {block.size * WIDTH} values differ, e.g. (value, got, %.17g): {wrong[:5]}")


@pytest.fixture
def fallbacks(monkeypatch):
    """Every value render_csv hands to _render._format_each, in order."""
    taken = []
    format_each = _render._format_each

    def spy(values):
        taken.extend(values)
        return format_each(values)

    monkeypatch.setattr(_render, "_format_each", spy)
    return taken


def _powers_of_ten_and_neighbours():
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    return [x for p in powers for x in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 10.0, 120.0, 1e16, 1e17, 9.999999999999999e16, 1e-5, 1e-4, 0.125, 1.0,
           math.inf, -math.inf, math.nan]


def test_random_bit_patterns():
    # every float64 class at its share of the bit space: NaNs with any payload, signalling ones
    # included, +-inf, subnormals, and normals across the whole exponent range
    rng = np.random.default_rng(20240607)
    values = rng.integers(0, 2 ** 64, size=210_000, dtype=np.uint64, endpoint=False)
    exponents = values >> np.uint64(52) & np.uint64(0x7FF)
    assert (exponents == 0x7FF).sum() > 50 and (exponents == 0).sum() > 50
    edges = np.array([0x7FF0000000000000, 0xFFF0000000000000, 0x7FF0000000000001, 0xFFF8000000000001,
                      0x7FF4000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x8000000000000001],
                     dtype=np.uint64)
    _assert_renders(np.concatenate([values, edges]).view(float))


@pytest.mark.parametrize("values", [
    _powers_of_ten_and_neighbours(),
    [math.ldexp(1.0, k) for k in range(-1022, 1024)],
    SPECIAL,
], ids=["powers-of-ten", "powers-of-two", "special"])
def test_edge_values(values):
    _assert_renders(values)
    _assert_renders(-np.asarray(values))


@pytest.mark.parametrize("exponent", range(-6, 19))
def test_every_notation(exponent):
    # fixed notation with 0 to 17 integer digits, the 0.000 leads and the exponent form around them,
    # with trailing zeros from none to sixteen, and the integers of each width
    rng = np.random.default_rng(exponent + 100)
    digits = rng.integers(10 ** 16, 10 ** 17, size=700)
    digits //= 10 ** rng.integers(0, 17, size=700)
    values = [float(f"{d}e{exponent - len(str(d)) + 1}") for d in digits.tolist()]
    _assert_renders(values + [float(f"{d}e0") for d in range(1, 300)])


@pytest.mark.parametrize("rows", [1, 2, 1023, 1024])
def test_block_sizes(rows):
    rng = np.random.default_rng(rows)
    _assert_renders(rng.standard_normal(rows * WIDTH) * 10.0 ** rng.integers(-8, 20, rows * WIDTH))


def test_empty_block():
    assert cli.render_csv(np.empty(0, dtype=esd._CURVE_DTYPE)) == ""


@settings(max_examples=100, deadline=timedelta(seconds=1), derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=8 * WIDTH))
def test_any_floats(values):
    _assert_renders(values)


def _exact_exponent(x):
    """floor(log10 |x|), exactly."""
    return Decimal(x).adjusted()


def test_each_fallback_class_is_taken(fallbacks):
    non_finite = [math.nan, math.inf, -math.inf]
    out_of_range = [5e-324, 1e-300, 9.9e-281, -1.01e280, 1.7e308]
    ties = [math.ldexp(1.0, -25), math.ldexp(3.0, -24), math.ldexp(7.0, -24)]  # 18 digits, the last a 5
    assert all(len(Decimal(x).normalize().as_tuple().digits) == 18 for x in ties)
    # the neighbours of powers of ten whose floor(log10) np.log10 gets wrong on the running host;
    # test_a_log10_one_ulp_off_is_caught forces both directions, a significand of 1e17 included
    candidates = _powers_of_ten_and_neighbours()
    off_by_one = [x for x in candidates
                  if 1e-280 <= x <= 1e280 and math.floor(np.log10(x)) != _exact_exponent(x)]
    assert off_by_one
    integers_ending_in_zero = [10.0, 120.0, 1e16, -4500.0]
    classes = [non_finite, out_of_range, ties, off_by_one, integers_ending_in_zero]
    for values in classes:
        fallbacks.clear()
        _assert_renders(values)
        assert list(map(repr, fallbacks)) == list(map(repr, values))


@pytest.mark.parametrize("direction", [-math.inf, math.inf], ids=["low", "high"])
def test_a_log10_one_ulp_off_is_caught(monkeypatch, direction):
    # np.log10 may dispatch to a less accurate loop: one ulp low, every exact power of ten's floor
    # is one too small, and its significand reaches 1e17; one ulp high, the floors just below a
    # power are one too large. Each is refused, and the bytes hold.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    _assert_renders(_powers_of_ten_and_neighbours())


@pytest.mark.parametrize("kind, x, rate_a, rate_b", [("qubit", 0.2, 0.37, 2.1), ("qutrit", 0.16, 5.3, 0.8),
                                                     ("multilocal", 0.25, 1.3, 0.7), ("multilocal", 0.07, 0.2, 9.0)])
def test_a_bench_like_curve_takes_no_fallback(kind, x, rate_a, rate_b, fallbacks):
    # as the bench's curve requests: 1 001 points to three times the death time, or to three times
    # an x = 1/4 curve's for an unentangled x
    scenario = Scenario(kind, x, rate_a, rate_b)
    t_max = 3.0 * 2.0 * math.log(8.0 * x if x > 0.125 else 2.0) / scenario.effective_rate()
    _assert_renders(np.asarray(esd.sweep(scenario, np.linspace(0.0, t_max, 1001))).view(float))
    assert fallbacks == []
