"""Independent numeric oracles used by the tests.

The eigenvalue oracles work straight from the characteristic polynomial
with closed-form root formulas, so they share no code path with the
package's iterative eigensolver. The death-time oracle runs in stdlib
decimal arithmetic, sharing no code with the package, numpy or libm.
"""

import decimal
import math

import numpy as np


def exact_esd_time(x, rates):
    """The death time 2 ln(8x) / sum(rates) to 50 digits, taking the float inputs as exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return 2 * (8 * decimal.Decimal(x)).ln() / sum(decimal.Decimal(r) for r in rates)


def charpoly_eigs_2x2(h):
    """Roots of det(lambda*I - h) for Hermitian 2x2 h, ascending."""
    h = np.asarray(h, dtype=complex)
    a = h[0, 0].real
    d = h[1, 1].real
    mean = 0.5 * (a + d)
    radius = math.sqrt((0.5 * (a - d)) ** 2 + abs(h[0, 1]) ** 2)
    return np.array([mean - radius, mean + radius])


def charpoly_eigs_3x3(h):
    """Roots of det(lambda*I - h) for Hermitian 3x3 h, ascending.

    Coefficients come from trace, principal minors and determinant; the
    depressed cubic is solved with the trigonometric formula (all roots
    real for Hermitian input).
    """
    h = np.asarray(h, dtype=complex)
    c2 = h.trace().real
    c1 = 0.5 * (c2 * c2 - (h @ h).trace().real)
    c0 = (
        h[0, 0] * (h[1, 1] * h[2, 2] - h[1, 2] * h[2, 1])
        - h[0, 1] * (h[1, 0] * h[2, 2] - h[1, 2] * h[2, 0])
        + h[0, 2] * (h[1, 0] * h[2, 1] - h[1, 1] * h[2, 0])
    ).real
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = -2.0 * c2 ** 3 / 27.0 + c1 * c2 / 3.0 - c0
    if p >= -1e-30:
        # triple root up to roundoff
        y = np.cbrt(-q)
        roots = np.array([y, y, y])
    else:
        amp = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * amp)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        roots = np.array([amp * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)])
    return np.sort(roots + shift)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def eigvalsh_negativity(rho):
    """Negativity via numpy's LAPACK eigensolver: a second, library-backed route."""
    da, db = rho.dims.dim_a, rho.dims.dim_b
    pt = rho.mat.reshape(da, db, da, db).transpose(2, 1, 0, 3).reshape(da * db, da * db)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < -1e-10].sum())


def random_pattern_state(rng):
    """Random valid state of the jointly-coherent class.

    Coherences are capped by the smallest diagonal entry so the matrix is
    strictly diagonally dominant, hence positive semidefinite outright.
    """
    from esdsim.states import ansatz_general

    diag = rng.dirichlet(np.ones(6))
    cap = diag.min() / 2.5
    coh = rng.uniform(-cap, cap, size=6)
    return ansatz_general(diag, coh)
