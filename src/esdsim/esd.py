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

from typing import Sequence

import numpy as np

from .channels import dephasing_mask
from .entanglement import negativity_of_spectrum
from .linalg import QUBIT_QUTRIT, _jacobi_stack
from .scalar import _INERT_MIN, _JACOBI_OFF_TOL, _LIVE_ROWS, _PT_SKIP_TOL, CURVE_FIELDS, Scenario, _live_pairs
from .states import DensityMatrix

_CURVE_DTYPE = np.dtype([(name, float) for name in CURVE_FIELDS])

# sweep solves this many grid points at a time, so its working memory does not grow with the grid
_SWEEP_BLOCK = 1024


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


def _pt_eigenvalues(re: np.ndarray, im: np.ndarray, terms: np.ndarray, gamma_a, gamma_b) -> np.ndarray:
    """The live block's side-A PT eigenvalues of rho0 dephased by arrays of factors, unsorted, shape (k, L); for sweep.

    re, im and terms are the (L, L) real and imaginary parts of the live
    block of PT_A(rho0) and its block of _MASK_TERMS, which it only reads.
    M_A is symmetric, so PT_A(rho0 o M) = PT_A(rho0) o M, and the planes
    Re(PT_A(rho0)) * M and Im(PT_A(rho0)) * M are evolve's state's PT, bit
    for bit, for any rho0. They need none of hermitian_eigenvalues'
    checks: an exactly Hermitian rho0 gives exactly Hermitian planes,
    which symmetrizing changes at most in the sign of a zero (see
    scalar._family_probe); no entry exceeds 1/4, so none is scaled; and the
    Frobenius norm is below 0.56, so off_tol is 1e-13.

    The block (rows {2, 3} of the x-state) goes to the stack kernel with
    the full solve's bits: an inert row stays exactly zero off the
    diagonal under every rotation, a zero pair is skipped before its
    hypot, and the convergence sum only gains +0.0 terms. The skip rule
    alone reads n, so it takes _PT_SKIP_TOL, the full 6x6's.
    """
    mask = dephasing_mask(gamma_a, gamma_b, terms)  # (L, L, k), entry-major
    return _jacobi_stack(re[..., None] * mask, im[..., None] * mask, _JACOBI_OFF_TOL, _PT_SKIP_TOL)


def sweep(scenario: Scenario, t_grid: Sequence[float]) -> np.recarray:
    """Sample the negativity curve on t_grid; no death time is searched for.

    Returns a read-only record array with one row per grid time and one
    float field per CURVE_FIELDS name, so curve.negativity_numeric is a
    column and curve[i].t a value. The numeric pipeline and the closed
    form run side by side, batched over the grid: each row equals what
    evolve, negativity and analytic_negativity give at its time alone,
    bit for bit; the corner, x * (gamma_a * gamma_b), is the closed form's x*g(t).

    It solves only the live block, the same block, from the same pairs
    (scalar._live_pairs), that the death-time probe (scalar._family_probe)
    writes into its locals and rotates, and takes the probe's rule:
    min_pt_eigenvalue is the least of the block's eigenvalues and the
    inert rows' least diagonal entry, scalar._INERT_MIN, and the
    negativity counts the block's eigenvalues alone. An inert row's
    eigenvalue is a diagonal entry of rho0, 1/4 or 1/8 for the family and
    at least lambda_min(rho0) >= -SPECTRAL_TOL for any valid state, so it
    never counts; and a 2x3 partial transpose has at most two negative
    eigenvalues (Rana, PRA 87, 054301, 2013), whose sum does not depend on
    their order.
    """
    times = np.asarray(t_grid, dtype=float)  # read only: the record array below takes its own copy
    if times.ndim != 1:
        raise ValueError(f"t_grid must be one-dimensional, got shape {times.shape}")
    ga, gb = scenario.gamma_factors(times)
    curve = np.empty(len(times), dtype=_CURVE_DTYPE).view(np.recarray)
    curve.t, curve.gamma_a, curve.gamma_b = times, ga, gb
    size = len(_LIVE_ROWS)  # the (entry, term) pairs as (L, L) planes and terms
    pairs = np.array(_live_pairs(scenario.x)).reshape(2, size, size, 2)
    re, im, terms = *pairs[..., 0], pairs[0, ..., 1].astype(np.intp)
    for start in range(0, len(times), _SWEEP_BLOCK):
        block = slice(start, start + _SWEEP_BLOCK)
        eigs = _pt_eigenvalues(re, im, terms, ga[block], gb[block])
        curve.negativity_numeric[block] = negativity_of_spectrum(eigs)
        curve.min_pt_eigenvalue[block] = eigs.min(axis=-1, initial=_INERT_MIN)
    curve.corner = scenario.x * (ga * gb)
    curve.negativity_analytic = _closed_negativity(curve.corner)
    curve.flags.writeable = False
    return curve
