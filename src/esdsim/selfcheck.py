"""Built-in numeric cross-checks, runnable as ``esd selfcheck``.

Each check pits the numeric pipeline against an independent closed form
or symmetry; the negativity curves come from sweep, as ``esd curve``
computes them. Deterministic: random draws use a fixed seed.

A check yields (deviation, tolerance) pairs and run() alone judges them:
a check passes only when every deviation is within its tolerance, so a
NaN fails, and its line shows the largest deviation (``nan`` if any).
"""

from __future__ import annotations

import numpy as np

from . import channels, esd, linalg, scalar, states
from .entanglement import negativity, negativity_of_spectrum, pt_spectrum

_SEED = 20230817


def _check_completeness():
    rng = np.random.default_rng(_SEED)
    for t in rng.uniform(0.0, 5.0, size=20):
        for rate in (0.25, 1.0, 3.0):
            gamma = scalar.decay_factor(rate, float(t))
            yield channels.dephasing_qubit(gamma).completeness_defect(), channels.COMPLETENESS_TOL
            yield channels.dephasing_qutrit(gamma).completeness_defect(), channels.COMPLETENESS_TOL


def _check_negativity_curves():
    for kind in scalar.ScenarioKind:
        curve = esd.sweep(scalar.Scenario(kind=kind, x=0.25, rate_a=1.0, rate_b=1.0), np.linspace(0.0, 5.0, 50))
        yield np.max(np.abs(curve.negativity_numeric - curve.negativity_analytic)), 1e-10


def _check_esd_times():
    for kind in scalar.ScenarioKind:
        scenario = scalar.Scenario(kind=kind, x=0.25, rate_a=1.0, rate_b=1.0)
        analytic = scalar.analytic_esd_time(scenario)
        yield abs(scalar.numeric_esd_time(scenario) - analytic), 1e-12 * max(1.0, analytic)


def _check_pt_spectrum():
    rng = np.random.default_rng(_SEED + 1)
    for _ in range(20):
        scenario = scalar.Scenario(
            kind=scalar.ScenarioKind.QUBIT_ONLY,
            x=float(rng.uniform(0.0, 0.25)),
            rate_a=float(rng.uniform(0.1, 3.0)),
        )
        t = float(rng.uniform(0.0, 4.0))
        numeric = pt_spectrum(esd.evolve(scenario, t))
        closed = esd.pt_spectrum_closed_form(scenario, t)
        yield np.max(np.abs(numeric - closed)), 1e-10


def _check_pt_sides_agree():
    # negativity serves both sides from one solve, so side B is solved here on its own
    rng = np.random.default_rng(_SEED + 2)
    for _ in range(20):
        rho = states.random_density_matrix(rng)
        pt_b = linalg.partial_transpose(rho.mat, rho.dims, "B")
        side_b = float(negativity_of_spectrum(linalg.hermitian_eigenvalues(pt_b)))
        yield abs(negativity(rho, "A").value - side_b), 1e-10


def _check_corner_additivity():
    rng = np.random.default_rng(_SEED + 3)
    for _ in range(20):
        scenario = scalar.Scenario(
            kind=scalar.ScenarioKind.MULTI_LOCAL,
            x=0.25,
            rate_a=float(rng.uniform(0.1, 3.0)),
            rate_b=float(rng.uniform(0.1, 3.0)),
        )
        t = float(rng.uniform(0.0, 4.0))
        corner = states.extract_corner(esd.evolve(scenario, t))
        ga, gb = scenario.gamma_factors(t)
        yield abs(corner - scenario.x * ga * gb), 1e-14


CHECKS = (
    ("kraus-completeness", "max defect", _check_completeness),
    ("negativity-curves", "max |numeric - analytic| =", _check_negativity_curves),
    ("esd-times", "max |numeric - analytic| =", _check_esd_times),
    ("pt-spectrum-closed-form", "max spectrum deviation", _check_pt_spectrum),
    ("pt-sides-agree", "max |N_A - N_B| =", _check_pt_sides_agree),
    ("corner-additivity", "max corner deviation", _check_corner_additivity),
)


def run() -> tuple:
    """Run every check; return (overall result, one PASS/FAIL line each and a summary line)."""
    all_ok = True
    lines = []
    for name, label, check in CHECKS:
        deviation, tolerance = np.array(list(check()), dtype=float).T
        ok = bool(np.all(deviation <= tolerance))
        lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}: {label} {np.max(deviation):.3e}")
        all_ok = all_ok and ok
    lines.append(f"selfcheck {'passed' if all_ok else 'FAILED'} ({len(CHECKS)} checks)")
    return all_ok, lines
