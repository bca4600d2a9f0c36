"""Acceptance suite: seven end-to-end criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each criterion also fails its test on any violation.
"""

import math

import numpy as np

from esdsim import channels, esd, states
from esdsim.channels import decay_factor, dephasing_qubit, dephasing_qutrit
from esdsim.entanglement import negativity, negativity_of_spectrum, pt_spectrum
from esdsim.linalg import hermitian_eigenvalues, partial_transpose
from esdsim.states import ansatz_x, extract_corner, random_density_matrix, validate

from numeric_oracles import charpoly_eigs_2x2, charpoly_eigs_3x3, random_hermitian, random_pattern_state

LN2 = math.log(2.0)


def _verdict(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_pt_spectrum_closed_form():
    """Numeric PT spectra match the closed form on 50 random parameter draws."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        x = float(rng.uniform(0.0, 0.25))
        t = float(rng.uniform(0.0, 4.0))
        rate = float(rng.uniform(0.1, 3.0))
        scenario = esd.Scenario(kind=esd.ScenarioKind.QUBIT_ONLY, x=x, rate_a=rate)
        numeric = pt_spectrum(esd.evolve(scenario, t))
        xg = x * math.exp(-0.5 * t * rate)
        expected = np.sort([0.25, 0.25, 0.125, 0.125, (1.0 + 8.0 * xg) / 8.0, (1.0 - 8.0 * xg) / 8.0])
        worst = np.maximum(worst, float(np.max(np.abs(numeric - expected))))
    _verdict("criterion-1 pt-spectrum-closed-form", worst < 1e-10,
             f"max spectrum deviation {worst:.3e} over 50 draws (tol 1e-10)")


def test_criterion_2_negativity_formula_all_scenarios():
    """Numeric negativity equals max(0, x*g(t) - 1/8) on dense grids."""
    worst = 0.0
    for kind in esd.ScenarioKind:
        scenario = esd.Scenario(kind=kind, x=0.25, rate_a=1.0, rate_b=1.0)
        rate = scenario.effective_rate()
        for t in np.linspace(0.0, 5.0 / rate, 200):
            t = float(t)
            g = math.exp(-0.5 * t * rate)
            expected = max(0.0, 0.25 * g - 0.125)
            numeric = negativity(esd.evolve(scenario, t)).value
            worst = np.maximum(worst, abs(numeric - expected))
    _verdict("criterion-2 negativity-closed-form", worst < 1e-10,
             f"max |numeric - analytic| = {worst:.3e} over 3 scenarios x 200 points (tol 1e-10)")


def test_criterion_3_finite_death_time_qubit_noise():
    """Entanglement dies at 2*ln(2) while the corner coherence persists."""
    scenario = esd.Scenario(kind=esd.ScenarioKind.QUBIT_ONLY, x=0.25, rate_a=1.0)
    numeric = esd.numeric_esd_time(scenario)
    time_error = abs(numeric - 2.0 * LN2)
    corner_at_death = extract_corner(esd.evolve(scenario, 2.0 * LN2))
    corner_late = extract_corner(esd.evolve(scenario, 20.0))
    # at the death time the corner sits exactly at the 1/8 threshold
    ok = time_error <= 1e-12 * max(1.0, 2.0 * LN2) and abs(corner_at_death - 0.125) < 1e-12 and corner_at_death > 0.0 and corner_late > 0.0
    _verdict("criterion-3 qubit-noise-sudden-death", ok,
             f"|t_numeric - 2ln2| = {time_error:.3e} (tol 1e-12 x max(1, t*)), corner(t*) = {corner_at_death:.12f}, "
             f"corner(20) = {corner_late:.3e} > 0")


def test_criterion_4_multilocal_death_time_and_corner():
    """Multi-local noise halves the death time; corner factorizes exactly."""
    scenario = esd.Scenario(kind=esd.ScenarioKind.MULTI_LOCAL, x=0.25, rate_a=1.0, rate_b=1.0)
    numeric = esd.numeric_esd_time(scenario)
    time_error = abs(numeric - LN2)
    worst_corner = 0.0
    for t in np.linspace(0.0, 4.0, 17):
        t = float(t)
        corner = extract_corner(esd.evolve(scenario, t))
        ga, gb = scenario.gamma_factors(t)
        worst_corner = np.maximum(worst_corner, abs(corner - 0.25 * ga * gb))
    ok = time_error <= 1e-12 * max(1.0, LN2) and worst_corner < 1e-14
    _verdict("criterion-4 multilocal-death-time", ok,
             f"|t_numeric - ln2| = {time_error:.3e} (tol 1e-12 x max(1, t*)), max corner deviation {worst_corner:.3e} (tol 1e-14)")


def test_criterion_5_channel_sanity():
    """Completeness, invariant preservation and zero-pattern closure."""
    rng = np.random.default_rng(105)
    worst_defect = 0.0
    for t in rng.uniform(0.0, 6.0, size=20):
        gamma = decay_factor(float(rng.uniform(0.1, 3.0)), float(t))
        worst_defect = np.maximum(worst_defect, dephasing_qubit(gamma).completeness_defect())
        worst_defect = np.maximum(worst_defect, dephasing_qutrit(gamma).completeness_defect())
    preserved = True
    for _ in range(100):
        rho = random_density_matrix(rng)
        ga = decay_factor(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5.0)))
        gb = decay_factor(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 5.0)))
        out = channels.apply_multilocal(dephasing_qubit(ga), dephasing_qutrit(gb), rho)
        try:
            validate(out.mat)
        except states.InvalidStateError:
            preserved = False
            break
    worst_pattern = 0.0
    for _ in range(20):
        rho = random_pattern_state(rng)
        ga = decay_factor(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0)))
        gb = decay_factor(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 4.0)))
        ca, cb = dephasing_qubit(ga), dephasing_qutrit(gb)
        for out in (
            channels.apply(ca, rho),
            channels.apply(cb, rho),
            channels.apply(cb, channels.apply(ca, rho)),
            channels.apply(ca, channels.apply(cb, rho)),
            channels.apply_multilocal(ca, cb, rho),
        ):
            worst_pattern = np.maximum(worst_pattern, states.coherence_pattern_defect(out.mat))
    ok = worst_defect <= 1e-12 and preserved and worst_pattern < 1e-14
    _verdict("criterion-5 channel-sanity", ok,
             f"completeness defect {worst_defect:.3e} (tol 1e-12), invariants preserved on 100 states: "
             f"{preserved}, pattern leakage {worst_pattern:.3e} (tol 1e-14)")


def test_criterion_6_oracle_equivalence():
    """Both PT sides agree; eigensolver matches characteristic-polynomial roots."""
    rng = np.random.default_rng(106)
    worst_sides = 0.0
    for _ in range(100):
        rho = random_density_matrix(rng)
        # negativity serves both sides from one solve, so side B is solved here on its own
        side_b = float(negativity_of_spectrum(hermitian_eigenvalues(partial_transpose(rho.mat, rho.dims, "B"))))
        worst_sides = np.maximum(worst_sides, abs(negativity(rho, "A").value - side_b))
    worst_roots = 0.0
    for _ in range(200):
        h2 = random_hermitian(rng, 2)
        worst_roots = np.maximum(worst_roots, float(np.max(np.abs(hermitian_eigenvalues(h2) - charpoly_eigs_2x2(h2)))))
        h3 = random_hermitian(rng, 3)
        worst_roots = np.maximum(worst_roots, float(np.max(np.abs(hermitian_eigenvalues(h3) - charpoly_eigs_3x3(h3)))))
    ok = worst_sides < 1e-10 and worst_roots < 1e-8
    _verdict("criterion-6 oracle-equivalence", ok,
             f"max |N_A - N_B| = {worst_sides:.3e} (tol 1e-10), "
             f"max eigensolver-vs-roots deviation {worst_roots:.3e} (tol 1e-8)")


def test_criterion_7_boundary_behavior():
    """x <= 1/8 never entangles; x = 1/4 is rank-deficient yet valid."""
    ok = True
    details = []
    for x in (0.0, 0.0625, 0.1, 0.125):
        scenario = esd.Scenario(kind=esd.ScenarioKind.MULTI_LOCAL, x=x)
        start = negativity(esd.evolve(scenario, 0.0)).value
        analytic = esd.analytic_esd_time(scenario)
        numeric = esd.numeric_esd_time(scenario)
        if not (start == 0.0 and analytic is esd.EsdOutcome.NEVER_ENTANGLED
                and numeric is esd.EsdOutcome.NEVER_ENTANGLED):
            ok = False
            details.append(f"x={x} misclassified")
    boundary = ansatz_x(0.25)
    smallest = float(hermitian_eigenvalues(boundary.mat)[0])
    if abs(smallest) > 1e-12:
        ok = False
        details.append(f"boundary state smallest eigenvalue {smallest:.3e}")
    try:
        validate(boundary.mat)
    except states.InvalidStateError as exc:
        ok = False
        details.append(f"boundary state rejected: {exc}")
    _verdict("criterion-7 boundary-behavior", ok,
             "; ".join(details) if details else
             f"x in {{0, 1/16, 0.1, 1/8}} all never-entangled; x=1/4 smallest eigenvalue {smallest:.1e}, validates")
