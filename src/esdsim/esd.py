"""Dephasing scenarios and entanglement-sudden-death analysis.

The one-parameter family evolves under local phase damping with its
corner coherence scaled by g(t), the product of the active decay
factors. Its negativity is max{0, x*g(t) - 1/8}: for x > 1/8 it hits
zero at a finite time (sudden death) while the coherence x*g(t) itself
only decays asymptotically. Closed forms used here:

    PT spectrum   {1/4, 1/4, 1/8, 1/8, (1 +/- 8*x*g(t))/8}
    negativity    max{0, x*g(t) - 1/8}
    death time    t* = 2*ln(8x) / rate_eff   (from g(t*) = 1/(8x))

where rate_eff is the sum of the active dephasing rates. The death-time expression
inverts the exponential decay factors; the numeric root finder below double-checks
it rather than trusting it, by locating the sign change of the smallest
partial-transpose eigenvalue (1 - 8*x*g(t))/8, which is continuous and crosses
zero at t*. Its probes and sweep take PT_A(rho(t)) as PT_A(rho0) o M(t).
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .channels import _MASK_TERMS, _mask_products, decay_factor, dephasing_mask
from .entanglement import negativity_of_spectrum
from .linalg import _JACOBI_OFF_TOL, QUBIT_QUTRIT, SPECTRAL_TOL, _jacobi_kernel, _jacobi_stack, partial_transpose
from .states import DensityMatrix, ansatz_x

#: Corner values at or below 1/8 never produce entanglement.
ENTANGLEMENT_THRESHOLD_X = 0.125

_EPS = sys.float_info.epsilon
_MAX_ROOT_ITERATIONS = 200

#: The columns of a sampled curve, in CSV order; the record array sweep returns has one float field each.
CURVE_FIELDS = ("t", "gamma_a", "gamma_b", "corner", "negativity_numeric", "negativity_analytic",
                "min_pt_eigenvalue")
_CURVE_DTYPE = np.dtype([(name, float) for name in CURVE_FIELDS])

# sweep solves this many grid points at a time, so its working memory does not grow with the grid
_SWEEP_BLOCK = 1024

# the skip rule of the full 6x6 partial transpose, off_tol / (2n), for the live block sweep and the probe solve
_PT_SKIP_TOL = _JACOBI_OFF_TOL / (2 * QUBIT_QUTRIT.total)

# _MASK_TERMS as row lists, for _split_pt
_TERM_ROWS = _MASK_TERMS.tolist()


class ScenarioKind(enum.Enum):
    QUBIT_ONLY = "qubit"
    QUTRIT_ONLY = "qutrit"
    MULTI_LOCAL = "multilocal"


class EsdOutcome(enum.Enum):
    """Non-numeric death-time results."""

    NEVER_ENTANGLED = "never-entangled"
    NO_DEATH = "no-death"


EsdTime = Union[float, EsdOutcome]


class BracketError(RuntimeError):
    """The death-time search has no usable window or did not converge.

    Raised when no noise acts, when the default window overflows to
    infinity, or when the root finder hits its iteration cap.
    """


def _split_pt(pt: np.ndarray) -> tuple:
    """(block, inert_min) of PT_A(rho0), 6 x 6: the one form of it that sweep and the death-time probe read.

    block holds the live block, the rows with a nonzero off-diagonal
    entry and their columns: its real and its imaginary parts, each a flat
    row-major tuple of (entry, its index in _MASK_TERMS) pairs, as the
    one-matrix kernel reads the block once the probe has masked it;
    inert_min, the least diagonal entry of the other rows in row order,
    inf when every row is live. The mask's diagonal is 1 and it keeps a
    zero a zero, so under every mask an inert row keeps its diagonal entry
    and no other, and that entry is one of the partial transpose's
    eigenvalues.

    It reads the real and imaginary rows as lists, once per Scenario: at
    6x6 a numpy call costs more than the test of an entry. A row is live
    when an off-diagonal entry's part is true, as pt != 0 tests it: -0.0
    is a zero and NaN is not.
    """
    re, im = pt.real.tolist(), pt.imag.tolist()
    live, inert = [], []
    for i, (r, m) in enumerate(zip(re, im)):
        if any(r[:i]) or any(r[i + 1:]) or any(m[:i]) or any(m[i + 1:]):
            live.append(i)
        else:
            inert.append(r[i])
    block = tuple(tuple([(part[i][j], _TERM_ROWS[i][j]) for i in live for j in live]) for part in (re, im))
    return block, min(inert, default=math.inf)


@dataclass(frozen=True)
class Scenario:
    """Which subsystems are noisy, the initial corner x, and the rates.

    rate_a is ignored by QUTRIT_ONLY and rate_b by QUBIT_ONLY; both act
    in MULTI_LOCAL. Construction is the one check of kind (a ScenarioKind
    or its value, stored as the member), x and the rates, stored as Python
    floats plus 0.0, so that a -0.0 is kept as 0.0, and builds the x-state
    and keeps its side-A partial transpose in one form, _split_pt's, which
    sweep and the death-time probe both read: the live block's flat
    entries, rows {2, 3} of the x-state (none at x = 0), and the least
    diagonal entry of the inert rows. It keeps the one-matrix kernel for
    the live block's size, linalg._jacobi_kernel(2) (None when no row is
    live), so that a probe calls it with no lookup; a kernel is generated
    once per size per process, on first use. It stores the rates as they
    act, too, which rates returns and gamma_factors reads, so that a probe
    tests no kind; gamma_factors checks t.
    """

    kind: ScenarioKind
    x: float
    rate_a: float = 1.0
    rate_b: float = 1.0
    initial_state: DensityMatrix = field(init=False, repr=False, compare=False)
    _live_block: tuple = field(init=False, repr=False, compare=False)
    _inert_min: float = field(init=False, repr=False, compare=False)
    _kernel: Optional[Callable] = field(init=False, repr=False, compare=False)
    _rates: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", ScenarioKind(self.kind))  # ValueError for anything else
        object.__setattr__(self, "initial_state", ansatz_x(self.x))  # checks x
        for name, part in zip(("_live_block", "_inert_min"),
                              _split_pt(partial_transpose(self.initial_state.mat, QUBIT_QUTRIT, "A"))):
            object.__setattr__(self, name, part)
        size = math.isqrt(len(self._live_block[0]))
        object.__setattr__(self, "_kernel", _jacobi_kernel(size) if size else None)
        for name, rate in (("rate_a", self.rate_a), ("rate_b", self.rate_b)):
            if not math.isfinite(rate) or rate < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")
        for name in ("x", "rate_a", "rate_b"):  # checked above, so a str has raised TypeError
            object.__setattr__(self, name, float(getattr(self, name)) + 0.0)
        object.__setattr__(self, "_rates", (0.0 if self.kind is ScenarioKind.QUTRIT_ONLY else self.rate_a,
                                            0.0 if self.kind is ScenarioKind.QUBIT_ONLY else self.rate_b))
        if not math.isfinite(self.effective_rate()):
            raise ValueError(f"rate_a + rate_b must be finite, got {self.rate_a} + {self.rate_b}")

    def __reduce__(self):  # the generated kernel does not pickle; __post_init__ rebuilds the fields
        return type(self), (self.kind, self.x, self.rate_a, self.rate_b)

    @property
    def rates(self) -> tuple:
        """(rate_a, rate_b) as they act: an idle side's rate is 0.0."""
        return self._rates

    def effective_rate(self) -> float:
        """Sum of the rates that actually act in this scenario."""
        return sum(self.rates)

    def gamma_factors(self, t) -> tuple:
        """(gamma_a, gamma_b) at time t >= 0 (else ValueError); rate 0 keeps factor 1.

        For an array of times the factors are arrays of its shape, each
        entry bit-equal to decay_factor's for that time alone, and every
        entry is checked. A time of any float type is taken in float64.
        """
        rate_a, rate_b = self._rates
        if isinstance(t, np.ndarray) and t.ndim:
            bad = ~(t >= 0.0)
            if bad.any():
                raise ValueError(f"t must be >= 0, got {t[bad][0]}")
            # decay_factor's exp(-0.5 * t * rate), its product rounded as Python rounds it: it may
            # overflow to -inf, whose exp is 0.0, and at t = 0 it is a zero, whose exp is 1.0. An
            # idle side gets ones. math.exp runs point by point: np.exp differs from it in the last bit.
            half = -0.5 * t.ravel().astype(float)
            with np.errstate(over="ignore"):
                return tuple(np.fromiter(map(math.exp, (half * rate).tolist()), float, t.size).reshape(t.shape)
                             if rate else np.ones(t.shape) for rate in (rate_a, rate_b))
        if not t >= 0.0:
            raise ValueError(f"t must be >= 0, got {t}")
        return decay_factor(rate_a, t), decay_factor(rate_b, t)

    def gamma_product(self, t):
        return math.prod(self.gamma_factors(t))


def evolve(scenario: Scenario, t: float) -> DensityMatrix:
    """Evolve the x-state to time t by one entrywise dephasing mask.

    The same formula serves all three scenarios, since an idle side has
    decay factor 1. It equals the Kraus route of :mod:`esdsim.channels`,
    which stays the general API and the tests' reference for the mask.
    The real and imaginary parts are multiplied by the mask apart, as sweep does.
    """
    mat, mask = scenario.initial_state.mat, dephasing_mask(*scenario.gamma_factors(t))
    out = np.empty_like(mat)
    out.real, out.imag = mat.real * mask, mat.imag * mask
    return DensityMatrix(out, QUBIT_QUTRIT)


def _closed_negativity(xg):
    """max{0, xg - 1/8}, entrywise for an array of x*g(t)."""
    return np.maximum(0.0, xg - 0.125)


def analytic_negativity(scenario: Scenario, t):
    """Closed-form negativity max{0, x*g(t) - 1/8}; an array of times gives an array."""
    return _closed_negativity(scenario.x * scenario.gamma_product(t))


def pt_spectrum_closed_form(scenario: Scenario, t: float) -> np.ndarray:
    """Closed-form PT spectrum of the evolved x-state, ascending."""
    xg = scenario.x * scenario.gamma_product(t)
    return np.sort(np.array([0.25, 0.25, 0.125, 0.125, (1.0 + 8.0 * xg) / 8.0, (1.0 - 8.0 * xg) / 8.0]))


def analytic_esd_time(scenario: Scenario) -> EsdTime:
    """Closed-form death time, or the variant explaining why there is none.

    NEVER_ENTANGLED when x <= 1/8 (negativity starts at zero); NO_DEATH
    when x > 1/8 but no noise acts, so the entanglement persists forever.
    """
    if scenario.x <= ENTANGLEMENT_THRESHOLD_X:
        return EsdOutcome.NEVER_ENTANGLED
    rate = scenario.effective_rate()
    if rate == 0.0:
        return EsdOutcome.NO_DEATH
    return 2.0 * math.log(8.0 * scenario.x) / rate


def _pt_eigenvalues(re: np.ndarray, im: np.ndarray, terms: np.ndarray, gamma_a, gamma_b) -> np.ndarray:
    """The live block's side-A PT eigenvalues of rho0 dephased by arrays of factors, unsorted, shape (k, L); for sweep.

    re, im and terms are the (L, L) real and imaginary parts of the live
    block of PT_A(rho0) and its block of _MASK_TERMS, which it only reads.
    M_A is symmetric, so PT_A(rho0 o M) = PT_A(rho0) o M, and the planes
    Re(PT_A(rho0)) * M and Im(PT_A(rho0)) * M are evolve's state's PT, bit
    for bit, for any rho0. They need none of hermitian_eigenvalues'
    checks: an exactly Hermitian rho0 gives exactly Hermitian planes,
    which symmetrizing changes at most in the sign of a zero (see
    _min_pt_eigenvalue); no entry exceeds 1/4, so none is scaled; and the
    Frobenius norm is below 0.56, so off_tol is 1e-13.

    The block (rows {2, 3} of the x-state; 0 x 0 at x = 0, which gives
    (k, 0)) goes to the stack kernel with the full solve's bits: an inert
    row stays exactly zero off the diagonal under every rotation, a zero
    pair is skipped before its hypot, and the convergence sum only gains
    +0.0 terms. The skip rule alone reads n, so it takes _PT_SKIP_TOL, the
    full 6x6's.
    """
    mask = dephasing_mask(gamma_a, gamma_b, terms)  # (L, L, k), entry-major
    return _jacobi_stack(re[..., None] * mask, im[..., None] * mask, _JACOBI_OFF_TOL, _PT_SKIP_TOL)


def _min_pt_eigenvalue(scenario: Scenario, t: float) -> float:
    """One probe, PT_A(rho0) o mask -> Jacobi: negativity(evolve(scenario, t)).min_pt_eigenvalue, bit for bit.

    It makes no numpy call: the mask's six products are Python floats,
    rounded as dephasing_mask rounds them, and each entry x + iy of the
    live block of PT_A(rho0) becomes the flat lists' entries x * m and
    y * m, as in evolve and _pt_eigenvalues: the same floats, signed zeros
    included, for any rho0. Only that block goes to the kernel the
    Scenario keeps, which only reads the lists (rows {2, 3} of the
    x-state; no call when none is live), with the full 6x6 solve's bits,
    as in _pt_eigenvalues: an inert row stays exactly zero off the
    diagonal, and the skip rule, the one rule that reads n, takes n = 6.
    The inert rows' eigenvalues are their diagonal entries, x * 1.0 = x,
    whose least the Scenario keeps; the value is min(inert least entry,
    block eigenvalues), the rule sweep applies to its rows too.

    The checked route symmetrizes the same floats with no complex product,
    which for an exactly Hermitian rho0 changes at most the sign of a zero
    entry; no kernel step divides by an entry, so that reaches at most the
    sign of an exactly zero eigenvalue. It takes the sorted spectrum's
    first entry where this takes the min: equal floats other than zeros
    have equal bits, so either order, too, reaches at most the sign of a
    zero eigenvalue.
    """
    terms = _mask_products(*scenario.gamma_factors(t))
    re_block, im_block = scenario._live_block
    if not re_block:
        return scenario._inert_min
    return min(scenario._inert_min, *scenario._kernel([x * terms[j] for x, j in re_block],
                                                      [y * terms[j] for y, j in im_block],
                                                      _JACOBI_OFF_TOL, _PT_SKIP_TOL))


def default_bracket(scenario: Scenario) -> float:
    """Search window generous enough for any x in range: 10x the worst t*."""
    rate = scenario.effective_rate()
    if rate == 0.0:
        raise BracketError("no noise acts in this scenario; negativity never decays")
    return 10.0 * (2.0 * math.log(2.0)) / rate


def numeric_esd_time(scenario: Scenario) -> EsdTime:
    """Find the death time as the root of the smallest PT eigenvalue.

    Every probe dephases, transposes and solves with evolve's bits (see
    _min_pt_eigenvalue), so this is an independent check on the closed form. The
    bracket [0, default_bracket(scenario)] is closed by Illinois regula
    falsi (Dowell & Jarratt, BIT 11, 1971) until its width is at most
    4*eps*max(|a|, |b|), i.e. to machine precision; the midpoint of the
    final bracket is returned. The window is 10x the largest possible
    t*, so the eigenvalue at its end is (1 - 8x/2^10)/8 > 0.12 and the
    bracket always holds the sign change.

    Returns NEVER_ENTANGLED when the state starts with zero negativity.
    Raises BracketError when no noise acts, when the window is not
    finite (rates below about 7.7e-308) or when the iteration cap is
    reached.
    """
    a, fa = 0.0, _min_pt_eigenvalue(scenario, 0.0)
    if not fa < -SPECTRAL_TOL:  # the negativity's test of entanglement
        return EsdOutcome.NEVER_ENTANGLED
    b = default_bracket(scenario)
    if not math.isfinite(b):
        raise BracketError(f"search window t_max = {b} is not finite; the dephasing rate is too small")
    fb = _min_pt_eigenvalue(scenario, b)
    side = 0  # which end moved last: -1 for a, +1 for b
    for _ in range(_MAX_ROOT_ITERATIONS):
        if b - a <= 4.0 * _EPS * max(abs(a), abs(b)):
            return a + 0.5 * (b - a)
        c = b - fb * (b - a) / (fb - fa)
        if not a < c < b:
            c = a + 0.5 * (b - a)
            if not a < c < b:  # a and b are adjacent floats
                return c
        fc = _min_pt_eigenvalue(scenario, c)
        if fc == 0.0:
            return c
        if fc < 0.0:
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side == +1:
                fa *= 0.5
            side = +1
    raise BracketError(f"no convergence in {_MAX_ROOT_ITERATIONS} iterations; last bracket [{a!r}, {b!r}]")


def sweep(scenario: Scenario, t_grid: Sequence[float]) -> np.recarray:
    """Sample the negativity curve on t_grid; no death time is searched for.

    Returns a read-only record array with one row per grid time and one
    float field per CURVE_FIELDS name, so curve.negativity_numeric is a
    column and curve[i].t a value. The numeric pipeline and the closed
    form run side by side, batched over the grid: each row equals what
    evolve, negativity and analytic_negativity give at its time alone,
    bit for bit; the corner, x * (gamma_a * gamma_b), is the closed form's x*g(t).

    It solves only the live block, as the probe does, and takes the probe's
    rule: min_pt_eigenvalue is the least of the block's eigenvalues and the
    inert rows' least diagonal entry, and the negativity counts the block's
    eigenvalues alone. An inert row's eigenvalue is a diagonal entry of
    rho0, 1/4 or 1/8 for the family and at least lambda_min(rho0) >=
    -SPECTRAL_TOL for any valid state, so it never counts; and a 2x3
    partial transpose has at most two negative eigenvalues (Rana, PRA 87,
    054301, 2013), whose sum does not depend on their order.
    """
    times = np.asarray(t_grid, dtype=float)  # read only: the record array below takes its own copy
    if times.ndim != 1:
        raise ValueError(f"t_grid must be one-dimensional, got shape {times.shape}")
    ga, gb = scenario.gamma_factors(times)
    curve = np.empty(len(times), dtype=_CURVE_DTYPE).view(np.recarray)
    curve.t, curve.gamma_a, curve.gamma_b = times, ga, gb
    size = math.isqrt(len(scenario._live_block[0]))  # the (entry, term) pairs as (L, L) planes and terms
    pairs = np.array(scenario._live_block).reshape(2, size, size, 2)
    re, im, terms = *pairs[..., 0], pairs[0, ..., 1].astype(np.intp)
    for start in range(0, len(times), _SWEEP_BLOCK):
        block = slice(start, start + _SWEEP_BLOCK)
        eigs = _pt_eigenvalues(re, im, terms, ga[block], gb[block])
        curve.negativity_numeric[block] = negativity_of_spectrum(eigs)
        curve.min_pt_eigenvalue[block] = eigs.min(axis=-1, initial=scenario._inert_min)
    curve.corner = scenario.x * (ga * gb)
    curve.negativity_analytic = _closed_negativity(curve.corner)
    curve.flags.writeable = False
    return curve
