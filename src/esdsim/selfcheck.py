"""Built-in numeric cross-checks, runnable as ``esd selfcheck``.

Each check pits the numeric pipeline against an independent closed form
or symmetry. Deterministic: random draws use a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import channels, esd, linalg, states
from .channels import DephasingParams
from .entanglement import negativity, negativity_of_spectrum, pt_spectrum

_SEED = 20230817


def _check_completeness():
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for t in rng.uniform(0.0, 5.0, size=20):
        for rate in (0.25, 1.0, 3.0):
            p = DephasingParams(rate, float(t))
            worst = max(worst, channels.dephasing_qubit(p).completeness_defect())
            worst = max(worst, channels.dephasing_qutrit(p).completeness_defect())
    return worst <= channels.COMPLETENESS_TOL, f"max defect {worst:.3e}"


def _check_negativity_curves():
    worst = 0.0
    for kind in esd.ScenarioKind:
        scenario = esd.Scenario(kind=kind, x=0.25, rate_a=1.0, rate_b=1.0)
        for t in np.linspace(0.0, 5.0, 50):
            numeric = negativity(esd.evolve(scenario, float(t))).value
            worst = max(worst, abs(numeric - esd.analytic_negativity(scenario, float(t))))
    return worst <= 1e-10, f"max |numeric - analytic| = {worst:.3e}"


def _check_esd_times():
    worst = 0.0
    ok = True
    for kind in esd.ScenarioKind:
        scenario = esd.Scenario(kind=kind, x=0.25, rate_a=1.0, rate_b=1.0)
        analytic = esd.analytic_esd_time(scenario)
        deviation = abs(esd.numeric_esd_time(scenario) - analytic)
        ok = ok and deviation <= 1e-12 * max(1.0, analytic)
        worst = max(worst, deviation)
    return ok, f"max |numeric - analytic| = {worst:.3e}"


def _check_pt_spectrum():
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for _ in range(20):
        scenario = esd.Scenario(
            kind=esd.ScenarioKind.QUBIT_ONLY,
            x=float(rng.uniform(0.0, 0.25)),
            rate_a=float(rng.uniform(0.1, 3.0)),
        )
        t = float(rng.uniform(0.0, 4.0))
        numeric = pt_spectrum(esd.evolve(scenario, t))
        closed = esd.pt_spectrum_closed_form(scenario, t)
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    return worst <= 1e-10, f"max spectrum deviation {worst:.3e}"


def _check_pt_sides_agree():
    # negativity serves both sides from one solve, so side B is solved here on its own
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for _ in range(20):
        rho = states.random_density_matrix(rng)
        pt_b = linalg.partial_transpose(rho.mat, rho.dims, "B")
        side_b = float(negativity_of_spectrum(linalg.hermitian_eigenvalues(pt_b)))
        worst = max(worst, abs(negativity(rho, "A").value - side_b))
    return worst <= 1e-10, f"max |N_A - N_B| = {worst:.3e}"


def _check_corner_additivity():
    rng = np.random.default_rng(_SEED + 3)
    worst = 0.0
    for _ in range(20):
        scenario = esd.Scenario(
            kind=esd.ScenarioKind.MULTI_LOCAL,
            x=0.25,
            rate_a=float(rng.uniform(0.1, 3.0)),
            rate_b=float(rng.uniform(0.1, 3.0)),
        )
        t = float(rng.uniform(0.0, 4.0))
        corner = states.extract_corner(esd.evolve(scenario, t))
        ga, gb = scenario.gamma_factors(t)
        worst = max(worst, abs(corner - scenario.x * ga * gb))
    return worst <= 1e-14, f"max corner deviation {worst:.3e}"


CHECKS = (
    ("kraus-completeness", _check_completeness),
    ("negativity-curves", _check_negativity_curves),
    ("esd-times", _check_esd_times),
    ("pt-spectrum-closed-form", _check_pt_spectrum),
    ("pt-sides-agree", _check_pt_sides_agree),
    ("corner-additivity", _check_corner_additivity),
)


def run(write=print) -> bool:
    """Run every check, write one PASS/FAIL line each, return overall result."""
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn()
        write(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    write(f"selfcheck {'passed' if all_ok else 'FAILED'} ({len(CHECKS)} checks)")
    return all_ok
