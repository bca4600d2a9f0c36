"""Dephasing scenarios and entanglement-sudden-death analysis.

The one-parameter family evolves under local phase damping with its
corner coherence scaled by g(t), the product of the active decay
factors. Its negativity is max{0, x*g(t) - 1/8}: for x > 1/8 it hits
zero at a finite time (sudden death) while the coherence x*g(t) itself
only decays asymptotically. Closed forms used here:

    PT spectrum   {1/4, 1/4, 1/8, 1/8, (1 +/- 8*x*g(t))/8}
    negativity    max{0, x*g(t) - 1/8}
    death time    t* = 2*ln(8x) / rate_eff   (from g(t*) = 1/(8x))

where rate_eff is the sum of the active dephasing rates. The death-time
expression is derived by inverting the exponential decay factors; the
numeric root finder below double-checks it rather than trusting it, by
locating the sign change of the smallest partial-transpose eigenvalue
(1 - 8*x*g(t))/8, which is continuous and crosses zero at t*.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .channels import DephasingParams, dephasing_mask
from .entanglement import negativity
from .linalg import QUBIT_QUTRIT
from .states import ANSATZ_X_MAX, DensityMatrix, ansatz_x, extract_corner

#: Corner values at or below 1/8 never produce entanglement.
ENTANGLEMENT_THRESHOLD_X = 0.125

_EPS = sys.float_info.epsilon
_MAX_ROOT_ITERATIONS = 200


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


@dataclass(frozen=True)
class Scenario:
    """Which subsystems are noisy, the initial corner x, and the rates.

    rate_a is ignored by QUTRIT_ONLY and rate_b by QUBIT_ONLY; both act
    in MULTI_LOCAL.
    """

    kind: ScenarioKind
    x: float
    rate_a: float = 1.0
    rate_b: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.x <= ANSATZ_X_MAX:
            raise ValueError(f"x must lie in the positivity range [0, {ANSATZ_X_MAX}], got {self.x}")
        for name, rate in (("rate_a", self.rate_a), ("rate_b", self.rate_b)):
            if not math.isfinite(rate) or rate < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")

    @property
    def noisy_a(self) -> bool:
        return self.kind in (ScenarioKind.QUBIT_ONLY, ScenarioKind.MULTI_LOCAL)

    @property
    def noisy_b(self) -> bool:
        return self.kind in (ScenarioKind.QUTRIT_ONLY, ScenarioKind.MULTI_LOCAL)

    def effective_rate(self) -> float:
        """Sum of the rates that actually act in this scenario."""
        rate = 0.0
        if self.noisy_a:
            rate += self.rate_a
        if self.noisy_b:
            rate += self.rate_b
        return rate

    def gamma_factors(self, t: float) -> tuple:
        """(gamma_a, gamma_b) at time t; an idle subsystem keeps factor 1."""
        ga = DephasingParams(self.rate_a, t).gamma if self.noisy_a else 1.0
        gb = DephasingParams(self.rate_b, t).gamma if self.noisy_b else 1.0
        return ga, gb

    def gamma_product(self, t: float) -> float:
        ga, gb = self.gamma_factors(t)
        return ga * gb


def evolve(scenario: Scenario, t: float) -> DensityMatrix:
    """Evolve the x-state to time t by one entrywise dephasing mask.

    The same formula serves all three scenarios, since an idle side has
    decay factor 1. It equals the Kraus route of :mod:`esdsim.channels`,
    which stays the general API and the tests' reference for the mask.
    """
    return DensityMatrix(ansatz_x(scenario.x).mat * dephasing_mask(*scenario.gamma_factors(t)), QUBIT_QUTRIT)


def analytic_negativity(scenario: Scenario, t: float) -> float:
    """Closed-form negativity max{0, x*g(t) - 1/8}."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    return max(0.0, scenario.x * scenario.gamma_product(t) - 0.125)


def pt_spectrum_closed_form(scenario: Scenario, t: float) -> np.ndarray:
    """Closed-form PT spectrum of the evolved x-state, ascending."""
    g = scenario.gamma_product(t)
    xg = scenario.x * g
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


def default_bracket(scenario: Scenario) -> float:
    """Search window generous enough for any x in range: 10x the worst t*."""
    rate = scenario.effective_rate()
    if rate == 0.0:
        raise BracketError("no noise acts in this scenario; negativity never decays")
    return 10.0 * (2.0 * math.log(2.0)) / rate


def numeric_esd_time(scenario: Scenario) -> EsdTime:
    """Find the death time as the root of the smallest PT eigenvalue.

    Every probe runs the full evolve -> partial transpose -> eigenvalue
    pipeline, so this is an independent check on the closed form. The
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
    start = negativity(evolve(scenario, 0.0))
    if not start.is_entangled:
        return EsdOutcome.NEVER_ENTANGLED
    b = default_bracket(scenario)
    if not math.isfinite(b):
        raise BracketError(f"search window t_max = {b} is not finite; the dephasing rate is too small")
    a, fa = 0.0, start.min_pt_eigenvalue
    fb = negativity(evolve(scenario, b)).min_pt_eigenvalue
    side = 0  # which end moved last: -1 for a, +1 for b
    for _ in range(_MAX_ROOT_ITERATIONS):
        if b - a <= 4.0 * _EPS * max(abs(a), abs(b)):
            return a + 0.5 * (b - a)
        c = b - fb * (b - a) / (fb - fa)
        if not a < c < b:
            c = a + 0.5 * (b - a)
            if not a < c < b:  # a and b are adjacent floats
                return c
        fc = negativity(evolve(scenario, c)).min_pt_eigenvalue
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


@dataclass(frozen=True)
class CurvePoint:
    """One sampled time along a dephasing trajectory."""

    t: float
    gamma_a: float
    gamma_b: float
    corner: float
    negativity_numeric: float
    negativity_analytic: float
    min_pt_eigenvalue: float


@dataclass(frozen=True)
class EsdReport:
    """A sampled negativity curve plus both death-time determinations."""

    scenario: Scenario
    esd_time: EsdTime
    analytic_time: EsdTime
    curve: tuple


def sweep(scenario: Scenario, t_grid: Sequence[float]) -> EsdReport:
    """Sample the trajectory on t_grid and determine the death time.

    Each point runs the numeric pipeline and the closed form side by
    side. esd_time comes from the root finder when the analytic result is
    finite and mirrors the analytic variant otherwise.
    """
    points = []
    for t in t_grid:
        t = float(t)
        rho = evolve(scenario, t)
        res = negativity(rho)
        ga, gb = scenario.gamma_factors(t)
        points.append(
            CurvePoint(
                t=t,
                gamma_a=ga,
                gamma_b=gb,
                corner=extract_corner(rho),
                negativity_numeric=res.value,
                negativity_analytic=analytic_negativity(scenario, t),
                min_pt_eigenvalue=res.min_pt_eigenvalue,
            )
        )
    analytic_time = analytic_esd_time(scenario)
    if isinstance(analytic_time, EsdOutcome):
        esd_time: EsdTime = analytic_time
    else:
        esd_time = numeric_esd_time(scenario)
    return EsdReport(scenario=scenario, esd_time=esd_time, analytic_time=analytic_time, curve=tuple(points))
