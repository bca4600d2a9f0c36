"""Independent numeric oracles used by the tests.

The eigenvalue oracles work straight from the characteristic polynomial
with closed-form root formulas, so they share no code path with the
package's iterative eigensolver. The death-time and corner oracles run in
stdlib decimal arithmetic, sharing no code with the package, numpy or libm.
jacobi_matrix_reference is not independent: it is the package's earlier
one-matrix Jacobi kernel, frozen here as the bit reference of the
generated one. split_pt is no oracle either: it is the package's earlier
row-scan split of a partial transpose, kept as the bit reference of the
family's closed form (esdsim.scalar._live_pairs and _INERT_MIN), and
min_pt_eigenvalue_reference is the package's earlier death-time probe for
any split, kept as the bit reference of the generated one.
render_csv_reference is the CLI's earlier CSV renderer, one "%.17g"
conversion per value, kept as the byte reference of the array one.
"""

import decimal
import math

import numpy as np


def exact_esd_time(x, rates):
    """The death time 2 ln(8x) / sum(rates) to 50 digits, taking the float inputs as exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return 2 * (8 * decimal.Decimal(x)).ln() / sum(decimal.Decimal(r) for r in rates)


def exact_corner(x, gamma_a, gamma_b):
    """The evolved corner x * gamma_a * gamma_b to 60 digits, taking the float inputs as exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return decimal.Decimal(x) * decimal.Decimal(gamma_a) * decimal.Decimal(gamma_b)


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


def jacobi_matrix_reference(re, im, off_tol, skip_tol, max_sweeps=60):
    """The plan-walking one-matrix Jacobi kernel, kept as the bit reference of the generated one.

    re and im are the real and imaginary rows of one trusted n x n
    matrix, which it overwrites; it returns the diagonal, unsorted. Each
    sweep walks the pairs p < q in row-major order with the rows each
    rotation updates, and does esdsim.linalg's rotation, skip and
    stopping rules one float operation at a time, as that module's
    docstring states them. It shares no code with the package.
    """
    n = len(re)
    plan = [(p, q, [k for k in range(n) if k != p and k != q]) for p in range(n - 1) for q in range(p + 1, n)]
    for _ in range(max_sweeps):
        acc = 0.0
        for p, q, _ in plan:
            x, y = re[p][q], im[p][q]
            acc += x * x + y * y
        if math.sqrt(2.0 * acc) < off_tol:
            return [row[i] for i, row in enumerate(re)]
        for p, q, others in plan:
            rp, ip = re[p], im[p]
            ar, ai = rp[q], ip[q]
            if not (ar or ai):
                continue
            r = abs(complex(ar, ai))
            if not r > skip_tol:
                continue
            rq, iq = re[q], im[q]
            inv = 1.0 / r
            phr, phi = ar * inv, ai * inv
            app, aqq = rp[p], rq[q]
            tau = (aqq - app) / (2.0 * r)
            t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            sr, si, cr, ci = s * phr, -(s * phi), c * phr, -(c * phi)
            for k in others:
                rk, ik = re[k], im[k]
                xr, xi, yr, yi = rk[p], ik[p], rk[q], ik[q]
                rk[p] = rp[k] = c * xr - (sr * yr - si * yi)
                rk[q] = rq[k] = s * xr + (cr * yr - ci * yi)
                kpi = c * xi - (sr * yi + si * yr)
                kqi = s * xi + (cr * yi + ci * yr)
                ik[p], ip[k], ik[q], iq[k] = kpi, -kpi, kqi, -kqi
            ppr = c * app - (sr * ar - si * ai)
            pqr = s * app + (cr * ar - ci * ai)
            xr, xi, yi = rq[p], iq[p], iq[q]
            qpr = c * xr - (sr * aqq - si * yi)
            qpi = c * xi - (sr * yi + si * aqq)
            qqr = s * xr + (cr * aqq - ci * yi)
            qqi = s * xi + (cr * yi + ci * aqq)
            rp[p] = c * ppr - (sr * qpr + si * qpi)
            rq[q] = s * pqr + (cr * qqr + ci * qqi)
            rp[q] = ip[q] = rq[p] = iq[p] = 0.0
    raise RuntimeError("Jacobi iteration did not converge; input may be pathological")


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
    from esdsim import ansatz_general

    diag = rng.dirichlet(np.ones(6))
    cap = diag.min() / 2.5
    coh = rng.uniform(-cap, cap, size=6)
    return ansatz_general(diag, coh)


def split_pt(pt):
    """(block, inert_min) of a 6 x 6 partial transpose given as an array, by a scan of its rows.

    The generic split, kept as the reference of the family's closed
    form. block holds the live block, the rows with a nonzero off-diagonal
    entry and their columns: its real and its imaginary parts, each a flat
    row-major tuple of (entry, its index in scalar._TERM_ROWS) pairs;
    inert_min, the least diagonal entry of the other rows in row order,
    inf when every row is live. A row is live when an off-diagonal entry's
    real or imaginary part is true, as pt != 0 tests it: -0.0 is a zero
    and NaN is not.
    """
    from esdsim.scalar import _TERM_ROWS

    re, im = pt.real.tolist(), pt.imag.tolist()
    live, inert = [], []
    for i, (r, m) in enumerate(zip(re, im)):
        if any(r[:i]) or any(r[i + 1:]) or any(m[:i]) or any(m[i + 1:]):
            live.append(i)
        else:
            inert.append(r[i])
    block = tuple(tuple([(part[i][j], _TERM_ROWS[i][j]) for i in live for j in live]) for part in (re, im))
    return block, min(inert, default=math.inf)


def family_split(x):
    """split_pt of the x-state's side-A partial transpose, PT_A(ansatz_x(x)), by the row scan."""
    from esdsim import QUBIT_QUTRIT, ansatz_x, partial_transpose

    return split_pt(partial_transpose(ansatz_x(x).mat, QUBIT_QUTRIT, "A"))


def min_pt_eigenvalue_reference(scenario, t, split=None):
    """The smallest eigenvalue of PT_A(rho0) o M(t), for any split of PT_A(rho0), as the probe computes it.

    The general probe, kept as the bit reference of the generated one:
    the mask's six products of scenario.gamma_factors(t) (which checks t),
    each live pair's entry x + iy as x * m and y * m in flat lists, the
    L x L one-matrix kernel, esdsim.scalar._jacobi_kernel(L), looked up at
    each call, with the skip rule of the full 6x6, and the least of the
    inert rows' least entry and the block's diagonal, in that order. It
    calls no kernel when no row is live. split is split_pt's (block,
    inert_min); by default it is family_split(scenario.x), the row scan of
    the x-state's partial transpose, which shares no code with the
    family's closed form. scenario needs only gamma_factors, and x when no
    split is given.
    """
    from esdsim import scalar

    terms = scalar._mask_products(*scenario.gamma_factors(t))
    (re_block, im_block), inert_min = family_split(scenario.x) if split is None else split
    if not re_block:
        return inert_min
    kernel = scalar._jacobi_kernel(math.isqrt(len(re_block)))
    return min(inert_min, *kernel([x * terms[j] for x, j in re_block], [y * terms[j] for y, j in im_block],
                                  scalar._JACOBI_OFF_TOL, scalar._PT_SKIP_TOL))


def render_csv_reference(block):
    """A curve block's CSV rows, no header: each row's fields by "%.17g", joined by commas."""
    row = ",".join(["%.17g"] * len(block.dtype.names)) + "\n"
    return "".join(row % fields for fields in block.tolist())
