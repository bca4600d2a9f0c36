"""Property tests: every CLI argv and every state text ends cleanly.

The CLI either succeeds (exit 0) or refuses with exit 1; it never raises
and never hangs. parse_state either returns a valid density matrix or
raises a ValueError (InvalidStateError is one). Examples are drawn from
a fixed seed so the suite stays deterministic.
"""

import contextlib
import io
import math
from datetime import timedelta

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from esdsim import DensityMatrix, InvalidStateError, ScenarioKind, linalg, parse_state  # noqa: E402
from esdsim.cli import main  # noqa: E402

FUZZ = settings(max_examples=60, deadline=timedelta(seconds=1), derandomize=True, database=None)

RATES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e308, 1.7e308, math.nan, math.inf, -math.inf,
                     -1.0]),
    st.floats(min_value=-12.0, max_value=6.0).map(lambda e: 10.0 ** e),
)
T_MAX = st.one_of(
    st.sampled_from([0.0, -1.0, 5e-324, 1e300, math.nan, math.inf]),
    st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e),
)
X = st.one_of(st.floats(min_value=0.0, max_value=0.25),
              st.sampled_from([0.125, 0.12500000005, 0.1250000002, 0.25, -0.0, 0.2500001, math.nan]))


def _argv(mode, kind, x, rate_a, rate_b, t_max, extra=()):
    return [mode, "--scenario", kind.value, "--x", repr(x), "--rate-a", repr(rate_a),
            "--rate-b", repr(rate_b), "--t-max", repr(t_max), *extra]


def _run_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@FUZZ
@given(kind=st.sampled_from(list(ScenarioKind)), x=X, rate_a=RATES, rate_b=RATES, t_max=T_MAX)
def test_esd_time_argv_ends_cleanly(kind, x, rate_a, rate_b, t_max):
    assert _run_quietly(_argv("esd-time", kind, x, rate_a, rate_b, t_max)) in (0, 1)


@FUZZ
@given(kind=st.sampled_from(list(ScenarioKind)), x=X, rate_a=RATES, rate_b=RATES, t_max=T_MAX,
       steps=st.integers(min_value=1, max_value=5))
def test_curve_argv_ends_cleanly(kind, x, rate_a, rate_b, t_max, steps):
    assert _run_quietly(_argv("curve", kind, x, rate_a, rate_b, t_max, ("--steps", str(steps)))) in (0, 1)


TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "0.25", "1e999", "-1e999", "nan", "inf", "1j", "(1+2j)", "abc", "", "--"]),
)


@st.composite
def matrix_texts(draw):
    """The plain-text format with drawn dims, row counts and entry tokens."""
    dim_a = draw(st.integers(min_value=-1, max_value=3))
    dim_b = draw(st.integers(min_value=-1, max_value=3))
    size = max(dim_a * dim_b, 0)
    rows = draw(st.integers(min_value=0, max_value=size + 1))
    width = draw(st.sampled_from([size, size, max(size - 1, 0), size + 1]))
    lines = [f"dims {dim_a} {dim_b}"]
    for _ in range(rows):
        lines.append(" ".join(draw(st.lists(TOKENS, min_size=width, max_size=width))))
    return "\n".join(lines) + "\n"


def _draw_gram(draw, n):
    """G G^dagger / tr for a drawn complex n x n G (left as it is when the trace is 0)."""
    entries = draw(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2 * n * n, max_size=2 * n * n))
    g = np.array(entries[: n * n]).reshape(n, n) + 1j * np.array(entries[n * n:]).reshape(n, n)
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    return rho / trace if trace > 0.0 else rho


@st.composite
def state_texts(draw):
    """A Gram matrix G G^dagger / tr, written with repr: valid up to rounding."""
    dim_a = draw(st.integers(min_value=1, max_value=2))
    dim_b = draw(st.integers(min_value=1, max_value=3))
    rho = _draw_gram(draw, dim_a * dim_b)
    rows = [" ".join(repr(complex(v)) for v in row) for row in rho]
    return "\n".join([f"dims {dim_a} {dim_b}", *rows]) + "\n"


HUGE = st.one_of(st.sampled_from([0.0, 1.7976931348623157e308, -1.7976931348623157e308, 1.7e308, 1e308]),
                 st.floats(min_value=1e300, max_value=1.7976931348623157e308),
                 st.floats(min_value=-1.7976931348623157e308, max_value=-1e300))


@st.composite
def huge_state_texts(draw):
    """Hermitian, with coherences and diagonal entries near the float maximum, real and complex.

    The diagonal is 1/n throughout; or a huge pair +v, -v, the rest
    summing to 1; or huge throughout, so that the trace may overflow to
    inf or NaN. Moduli can overflow where each part is finite; parse_state
    must refuse such states cleanly, without an overflow warning.
    """
    dim_a = draw(st.integers(min_value=1, max_value=2))
    dim_b = draw(st.integers(min_value=2, max_value=3))
    n = dim_a * dim_b
    m = np.diag(np.full(n, 1.0 / n)).astype(complex)
    diagonal = draw(st.sampled_from(["pair", "huge", "unit"]))
    if diagonal == "pair":
        m[0, 0] = draw(HUGE)
        m[1, 1] = -m[0, 0]
        m[2:, 2:] *= n / max(n - 2, 1)
    elif diagonal == "huge":
        for i in range(n):
            m[i, i] = draw(HUGE)
    for i in range(n):
        for j in range(i + 1, n):
            real = draw(HUGE)
            imag = draw(st.one_of(st.just(0.0), HUGE))
            m[i, j] = complex(real, imag)
            m[j, i] = complex(real, -imag)
    rows = [" ".join(repr(complex(v)) for v in row) for row in m]
    return "\n".join([f"dims {dim_a} {dim_b}", *rows]) + "\n"


def _scaled_hermitian_part(text: str) -> tuple[np.ndarray, float]:
    """The text's matrix as (A + A^dagger) / 2 / s, with s = 2^k >= 1 bringing its parts to <= 1, and 1 / s."""
    rows = [line.split() for line in text.splitlines() if line.strip()][1:]
    mat = np.array([[complex(tok) for tok in row] for row in rows])
    inverse = np.ldexp(1.0, -max(0, int(np.frexp(np.abs(mat.view(np.float64)).max())[1])))
    mat = mat * inverse  # exact, and keeps the sum below from overflowing
    return 0.5 * mat + 0.5 * mat.conj().T, inverse


@FUZZ
@given(text=st.one_of(st.text(max_size=200), matrix_texts(), state_texts(), huge_state_texts()))
def test_parse_state_returns_valid_state_or_value_error(text):
    try:
        rho = parse_state(text)
    except InvalidStateError as err:
        if err.condition == "positivity":
            # the converse oracle: LAPACK agrees that the spectrum dips below the noise floor
            h, inverse = _scaled_hermitian_part(text)
            assert np.linalg.eigvalsh(h)[0] < (-1e-10 + 1e-12) * inverse
        return
    except ValueError:  # DimensionMismatchError and parse errors
        return
    assert isinstance(rho, DensityMatrix)
    mat = rho.mat
    assert np.all(np.isfinite(mat))
    assert linalg.hermiticity_defect(mat) <= linalg.HERMITIAN_TOL
    assert abs(np.trace(mat) - 1.0) <= 1e-12
    # LAPACK as the outside oracle for positivity, with eigensolver slack
    assert np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[0] >= -1e-10 - 1e-12


@st.composite
def gram_states(draw):
    """G G^dagger / tr over drawn factor dimensions, symmetrized so that it is exactly Hermitian."""
    dims = linalg.BipartiteDims(draw(st.integers(min_value=1, max_value=3)),
                                draw(st.integers(min_value=1, max_value=3)))
    rho = _draw_gram(draw, dims.total)
    return 0.5 * (rho + rho.conj().T), dims


@FUZZ
@given(state=gram_states())
def test_pt_sides_share_spectrum_bits(state):
    # the proof DensityMatrix's one cached partial-transpose spectrum rests on
    mat, dims = state
    ea = linalg.hermitian_eigenvalues(linalg.partial_transpose(mat, dims, "A"))
    eb = linalg.hermitian_eigenvalues(linalg.partial_transpose(mat, dims, "B"))
    assert ea.tobytes() == eb.tobytes()
