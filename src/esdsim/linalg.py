"""Dense complex linear algebra for small bipartite systems.

Everything operates on plain numpy arrays of complex128 in row-major
layout. The eigensolver is a self-contained cyclic Jacobi iteration, so
the whole numeric path stays inspectable end to end; matrices here are
tiny (6x6 at most).

partial_transpose and hermitian_eigenvalues also take a (..., n, n)
stack and treat each matrix as if it came alone. The stack kernel,
_jacobi_stack, rotates every matrix of a stack at once, each with its
own rotation parameters, and returns the same bits as one call per
matrix; esdsim.esd.sweep runs a time series through it as one pass.

hermitian_eigenvalues is the checked entry, for one matrix at a time (a
stack is solved member by member): it refuses non-Hermitian or
non-finite input, scales entries above 1e150, symmetrizes a copy and
derives the convergence tolerance from its Frobenius norm, then calls
the trusted entry _eigenvalues, which alone picks the kernel and sorts
(esdsim.esd._pt_eigenvalues says why its input may skip the checks).

Both Jacobi kernels do the same real arithmetic, one float operation at
a time: _jacobi_matrix in pure Python on lists of the real and imaginary
parts, _jacobi_rotate_stack and _off_norms with one numpy operation on
float arrays per float operation. No complex multiply runs through
numpy, whose SIMD loops fuse its multiply and add on some hosts, so the
eigenvalues' bits do not depend on the host's SIMD dispatch. With b the
entry a[p][q] and r = |b| (libm's hypot), one rotation of the pair
(p, q) is:

    phase  = (b.re * (1 / r), b.im * (1 / r))
    tau    = (a[q][q] - a[p][p]) / (2 r)
    t      = sign(tau) / (|tau| + sqrt(1 + tau^2)),  sign(-0.0) = +1
    c, s   = 1 / sqrt(1 + t^2), t c
    S, C   = s conj(phase), c conj(phase)
    k not in {p, q}:  a[k][p], a[k][q] <- c x - S y, s x + C y, with
                      x = a[k][p] and y = a[k][q]; a[p][k] and a[q][k]
                      take the conjugates
    2x2 block:        the same column step for k = p, q, then the row
                      step a[p][.] <- c a[p][.] - conj(S) a[q][.] and
                      a[q][.] <- s a[p][.] + conj(C) a[q][.], of which
                      only the real diagonal is kept; a[p][q] = a[q][p] = 0

where a real times a complex number is two real products and a complex
product (u + iv)(x + iy) is (ux - vy) + i(uy + vx), each product and
each sum rounded on its own. The conjugates are exact, because each
formula commutes with conjugation and the matrix is exactly Hermitian.
A pair whose r is not above off_tol / (2n) is skipped. A sweep visits
the pairs in row-major order, and sweeps stop when sqrt(2 acc) is below
off_tol, acc summing re^2 + im^2 over the strict upper triangle in
row-major order, one term after another.

_cholesky_certifies is the positivity test of esdsim.states.validate: a
Cholesky factorization, in pure Python, of the Hermitian part shifted
by SPECTRAL_TOL / 2. When every pivot is positive it proves the smallest
eigenvalue above -SPECTRAL_TOL, and no eigensolve is needed; when one is
not, it proves nothing, and validate runs the Jacobi solve. Like the
eigensolver, it calls no LAPACK routine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Structural checks (Hermiticity, trace) are held to 1e-12; anything
# that passes through the eigensolver is compared at 1e-10.
HERMITIAN_TOL = 1e-12
SPECTRAL_TOL = 1e-10

_JACOBI_OFF_TOL = 1e-13
_MAX_JACOBI_SWEEPS = 60
# Entries above this are scaled by a power of two first, so that the
# squared norms cannot overflow.
_JACOBI_SCALE_LIMIT = 1e150


class DimensionMismatchError(ValueError):
    """Matrix shape does not match the declared bipartite dimensions."""


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


@dataclass(frozen=True)
class BipartiteDims:
    """Factor dimensions (dim_a, dim_b) of a bipartite system.

    The composite basis index for factor indices (a, b) is
    i = dim_b * a + b, i.e. the first factor is the slow index.
    """

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError(
                f"factor dimensions must be positive, got ({self.dim_a}, {self.dim_b})"
            )

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b

    def check(self, mat: np.ndarray, stacked: bool = False) -> None:
        """Raise DimensionMismatchError unless mat is total x total (stacked: (..., total, total))."""
        if (mat.shape[-2:] if stacked else mat.shape) != (self.total, self.total):
            raise DimensionMismatchError(
                f"expected a {self.total}x{self.total} matrix for dims "
                f"({self.dim_a}, {self.dim_b}), got shape {mat.shape}"
            )


QUBIT_QUTRIT = BipartiteDims(2, 3)


def as_complex_matrix(mat) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def as_complex_stack(mat) -> np.ndarray:
    """Coerce input to a complex128 matrix or (..., rows, cols) stack of matrices."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={arr.ndim}")
    return arr


def max_abs_diff(a, b) -> float:
    """Entrywise max-norm distance between two matrices."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def hermiticity_defect(mat) -> float:
    """max |m - m^dagger| over all entries; NaN or inf, without a warning, on non-finite entries or overflow."""
    arr = as_complex_matrix(mat)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(arr - arr.conj().T), initial=0.0))  # 0.0 for a 0x0 matrix


def kron(a, b) -> np.ndarray:
    """Kronecker product: out[i*rb + k, j*cb + l] = a[i, j] * b[k, l]."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    ra, ca = a.shape
    rb, cb = b.shape
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(ra * rb, ca * cb)


def partial_transpose(mat, dims: BipartiteDims, subsystem: str) -> np.ndarray:
    """Transpose the indices of one factor only, of a matrix or of each matrix of a (..., n, n) stack.

    For subsystem "A": out[(a,b),(a',b')] = m[(a',b),(a,b')], and the
    mirror image for "B". Trace and Hermiticity are preserved; positivity
    is not, which is the whole point.
    """
    arr = as_complex_stack(mat)
    dims.check(arr, stacked=True)
    da, db = dims.dim_a, dims.dim_b
    lead = arr.shape[:-2]
    blocks = arr.reshape(*lead, da, db, da, db)
    if subsystem == "A":
        blocks = blocks.swapaxes(-4, -2)
    elif subsystem == "B":
        blocks = blocks.swapaxes(-3, -1)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return blocks.reshape(*lead, da * db, da * db).copy()


def partial_trace(mat, dims: BipartiteDims, keep: str) -> np.ndarray:
    """Trace out one factor, keeping the other.

    keep="A" returns the dim_a x dim_a matrix out[a,a'] = sum_b m[(a,b),(a',b)].
    """
    arr = as_complex_matrix(mat)
    dims.check(arr)
    blocks = arr.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    if keep == "A":
        return np.einsum("abcb->ac", blocks)
    if keep == "B":
        return np.einsum("abac->bc", blocks)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hermitian_eigenvalues(mat) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending; of each matrix of a (..., n, n) stack, shape (..., n).

    Cyclic Jacobi iteration: each step conjugates by a two-level unitary
    (a plane rotation times a phase) chosen to annihilate one off-diagonal
    pair exactly. Sweeps repeat until the off-diagonal Frobenius norm
    falls below 1e-13 (scaled up for matrices of large norm, so the loop
    terminates on any input; a matrix with a real or imaginary part
    above 1e150 is first divided by a power of two, exactly, and a
    spectrum beyond the float range comes back as +/-inf). Convergence
    is quadratic; six sweeps typically suffice at these sizes.

    A stack is checked, scaled and solved one matrix at a time, so each
    row of the result equals the eigenvalues of its matrix alone, bit for
    bit; the first non-Hermitian member fails the whole call.
    """
    a = as_complex_stack(mat)
    n = a.shape[-1]
    if a.shape[-2] != n:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    spectra = []
    # one matrix is a stack of one; an explicit count: with n = 0, reshape cannot infer a -1
    for m in a.reshape(math.prod(a.shape[:-2]), n, n):
        defect = hermiticity_defect(m)
        if not defect <= HERMITIAN_TOL:  # also refuses NaN/inf entries
            raise NonHermitianError(f"matrix is not Hermitian: max |m - m^dagger| = {defect:.3e}")
        m = np.ascontiguousarray(m)
        # keep |m|^2 finite: iterate on m / 2^k, with k from max(|re|, |im|), which
        # is finite where |m| may overflow
        peak = np.abs(m.view(np.float64)).max(initial=0.0)
        exponent = int(np.frexp(peak)[1]) if peak > _JACOBI_SCALE_LIMIT else 0
        if exponent:
            m = m * np.ldexp(1.0, -exponent)
        m = 0.5 * (m + m.conj().T)  # symmetrize roundoff before iterating
        fro = float(np.sqrt(np.sum(np.abs(m) ** 2)))
        eigs = _eigenvalues(m, _JACOBI_OFF_TOL * max(1.0, fro))
        if exponent:
            with np.errstate(over="ignore"):  # a spectrum beyond the float range is +/-inf
                eigs = np.ldexp(eigs, exponent)
        spectra.append(eigs)
    return np.array(spectra, dtype=np.float64).reshape(a.shape[:-1])


def _eigenvalues(a: np.ndarray, off_tol: float) -> np.ndarray:
    """Ascending eigenvalues of a trusted n x n matrix, shape (n,), or of a (k, n, n) stack, shape (k, n).

    Trusted, and not checked: exactly Hermitian, entries far below 1e150,
    as hermitian_eigenvalues leaves it. off_tol is the stopping tolerance
    of every matrix. A stack is overwritten; one matrix is only read.
    """
    n = a.shape[-1]
    if n < 2:  # nothing to rotate: a 1x1 or 0x0 matrix is its own diagonal
        diag = a.diagonal(axis1=-2, axis2=-1).real
    elif a.ndim == 2:
        # pure Python: the stack kernel's per-call overhead would cost several times as much at 6x6
        diag = _jacobi_matrix(a, off_tol)
    else:
        diag = _jacobi_stack(a, off_tol)
    return np.sort(diag, axis=-1)


def _cholesky_certifies(mat: np.ndarray) -> bool:
    """True when H + (SPECTRAL_TOL / 2) I, H = (A + A^dagger) / 2, factors as L L^dagger with positive pivots.

    A is a finite n x n matrix. The factorization runs in pure Python over
    mat.tolist(): at 6x6, numpy's per-call overhead would cost more than
    the arithmetic, and float arithmetic raises no warning. Each pivot is
    at most H's finite diagonal entry plus the shift, so a pivot that is
    not > 0 (negative, or NaN after an overflow) stops the factorization
    and the answer is False, which proves nothing either way.

    True is a proof. By the backward error bound for Cholesky (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3) the
    computed factor is exact for H + shift I + E with
    ||E||_2 <= O(n u) ||L||_F^2 = O(n u) (tr H + n shift), u = 2^-53. So
    lambda_min(H) > -SPECTRAL_TOL / 2 - O(n u) tr H; for unit trace that
    is -5e-11 - O(1e-15), and the Jacobi solve of the same H, accurate to
    1e-13 at that norm, would return a value above -SPECTRAL_TOL.
    """
    a = mat.tolist()
    shift = 0.5 * SPECTRAL_TOL
    factor = []  # rows of L; row i holds L[i][:i] and then the real pivot root L[i][i]
    for i, row in enumerate(a):
        li = []
        for j, lj in enumerate(factor):
            s = 0.5 * (row[j] + a[j][i].conjugate())
            for lik, ljk in zip(li, lj):  # k < j: li holds exactly j entries here
                s -= lik * ljk.conjugate()
            li.append(s / lj[j])
        d = row[i].real + shift
        for z in li:
            d -= z.real * z.real + z.imag * z.imag
        if not d > 0.0:
            return False
        li.append(math.sqrt(d))
        factor.append(li)
    return True


def _off_norms(stack: np.ndarray) -> np.ndarray:
    """Off-diagonal Frobenius norm of each matrix of a (k, n, n) stack, n >= 2.

    re^2 + im^2 is summed over the strict upper triangle in row-major
    order, one term after another, as _jacobi_matrix sums it.
    """
    k, n, _ = stack.shape
    upper = stack.reshape(k, n * n)[:, _strict_upper_flat(n)]
    re, im = upper.real, upper.imag
    return np.sqrt(2.0 * np.cumsum(re * re + im * im, axis=1)[:, -1])


def _jacobi_matrix(a: np.ndarray, off_tol: float) -> np.ndarray:
    """Diagonalize one trusted n x n matrix (see _eigenvalues); its diagonal, unsorted, as float64.

    The iteration runs in pure Python on lists of the real and imaginary
    parts, so a is only read: at 6x6, numpy's per-call overhead would
    cost more than the arithmetic. The rotation, skip and stopping rules
    are the module docstring's, and _jacobi_rotate_stack's.
    """
    n = a.shape[0]
    re, im = a.real.tolist(), a.imag.tolist()
    rows = list(zip(range(n), re, im))
    skip_tol = off_tol / (2 * n)
    for _ in range(_MAX_JACOBI_SWEEPS):
        acc = 0.0
        for p in range(n - 1):
            rp, ip = re[p], im[p]
            for q in range(p + 1, n):
                acc += rp[q] * rp[q] + ip[q] * ip[q]
        if math.sqrt(2.0 * acc) < off_tol:
            return np.array([re[i][i] for i in range(n)])
        for p in range(n - 1):
            rp, ip = re[p], im[p]
            for q in range(p + 1, n):
                rq, iq = re[q], im[q]
                ar, ai = rp[q], ip[q]
                r = abs(complex(ar, ai))  # libm hypot, as np.hypot in the stack kernel
                if not r > skip_tol:
                    continue
                inv = 1.0 / r
                phr, phi = ar * inv, ai * inv
                tau = (rq[q] - rp[p]) / (2.0 * r)
                # smaller root of t^2 + 2*tau*t - 1 = 0, the numerically stable choice
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sr, si, cr, ci = s * phr, -(s * phi), c * phr, -(c * phi)
                for k, rk, ik in rows:
                    xr, xi, yr, yi = rk[p], ik[p], rk[q], ik[q]
                    kpr = c * xr - (sr * yr - si * yi)
                    kpi = c * xi - (sr * yi + si * yr)
                    kqr = s * xr + (cr * yr - ci * yi)
                    kqi = s * xi + (cr * yi + ci * yr)
                    if k == p:
                        ppr, pqr = kpr, kqr
                    elif k == q:
                        qpr, qpi, qqr, qqi = kpr, kpi, kqr, kqi
                    else:  # column p and q of row k, and their conjugates in rows p and q
                        rk[p] = rp[k] = kpr
                        rk[q] = rq[k] = kqr
                        ik[p], ip[k], ik[q], iq[k] = kpi, -kpi, kqi, -kqi
                # the row step on the 2x2 block, real parts only: s*phase = conj(S), c*phase = conj(C)
                rp[p] = c * ppr - (sr * qpr + si * qpi)
                rq[q] = s * pqr + (cr * qqr + ci * qqi)
                rp[q] = ip[q] = rq[p] = iq[p] = 0.0
    raise RuntimeError("Jacobi iteration did not converge; input may be pathological")


def _jacobi_stack(stack: np.ndarray, off_tol: float) -> np.ndarray:
    """Diagonalize a trusted (k, n, n) stack (see _eigenvalues), n >= 2; the diagonals, unsorted, shape (k, n).

    A sweep runs over the matrices not yet converged, each exactly as
    _jacobi_matrix would run it with the same off_tol (Golub & Van Loan,
    Matrix Computations, section 8.5, with per-matrix rotation parameters).
    """
    k, n, _ = stack.shape
    skip_tol = off_tol / (2 * n)
    active = np.arange(k)
    for _ in range(_MAX_JACOBI_SWEEPS):
        sub = stack[active]
        going = ~(_off_norms(sub) < off_tol)
        active, sub = active[going], sub[going]
        if not active.size:
            return stack.diagonal(axis1=1, axis2=2).real
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate_stack(sub, p, q, skip_tol)
        stack[active] = sub
    raise RuntimeError("Jacobi iteration did not converge; input may be pathological")


@functools.lru_cache(maxsize=None)
def _strict_upper_flat(n: int) -> np.ndarray:
    """Flat indices of the entries above the diagonal of an n x n matrix.

    Cached per size: building them costs more than a sweep's norm.
    """
    idx = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))
    idx.flags.writeable = False
    return idx


def _jacobi_rotate_stack(a: np.ndarray, p: int, q: int, skip_tol: float) -> None:
    """_jacobi_matrix's rotation of (p, q), in place, on each matrix of a (k, n, n) stack.

    Each matrix gets its own rotation, and the one skip_tol. The arithmetic runs
    on the float views a.real and a.imag, one array operation for each
    float operation of _jacobi_matrix, so no complex multiply is fused.
    """
    alpha = a[:, p, q]
    r = np.hypot(alpha.real, alpha.imag)  # libm hypot, as abs() of a Python complex; np.abs is not
    hit = r > skip_tol
    if not hit.any():
        return
    whole = hit.all()
    sub = a if whole else a[hit]
    if not whole:
        alpha, r = alpha[hit], r[hit]
    inv = 1.0 / r
    phr, phi = alpha.real * inv, alpha.imag * inv
    re, im = sub.real, sub.imag
    tau = (re[:, q, q] - re[:, p, p]) / (2.0 * r)
    # both branches of the scalar sign test in one expression: tau >= 0 holds for -0.0 as well
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    sr, si, cr, ci = s * phr, -(s * phi), c * phr, -(c * phi)
    xr, xi, yr, yi = re[:, :, p], im[:, :, p], re[:, :, q], im[:, :, q]
    c2, s2, sr2, si2, cr2, ci2 = c[:, None], s[:, None], sr[:, None], si[:, None], cr[:, None], ci[:, None]
    kpr = c2 * xr - (sr2 * yr - si2 * yi)
    kpi = c2 * xi - (sr2 * yi + si2 * yr)
    kqr = s2 * xr + (cr2 * yr - ci2 * yi)
    kqi = s2 * xi + (cr2 * yi + ci2 * yr)
    app = c * kpr[:, p] - (sr * kpr[:, q] + si * kpi[:, q])
    aqq = s * kqr[:, p] + (cr * kqr[:, q] + ci * kqi[:, q])
    re[:, :, p], im[:, :, p], re[:, :, q], im[:, :, q] = kpr, kpi, kqr, kqi
    re[:, p, :], im[:, p, :], re[:, q, :], im[:, q, :] = kpr, -kpi, kqr, -kqi
    sub[:, p, q] = sub[:, q, p] = 0.0
    sub[:, p, p], sub[:, q, q] = app, aqq
    if not whole:
        a[hit] = sub
