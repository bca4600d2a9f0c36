"""Dense complex linear algebra for small bipartite systems.

Everything operates on plain numpy arrays of complex128 in row-major
layout. The eigensolver is a self-contained cyclic Jacobi iteration, so
the whole numeric path stays inspectable end to end. The paper's
matrices are 6x6; hermitian_eigenvalues solves any n, at a cost that
grows fast above that (a parsed dims 8 8 state's negativity takes
about a second).

hermitian_eigenvalues is the checked entry, for one matrix: it refuses
non-Hermitian or non-finite input, scales entries above 1e150,
symmetrizes a copy with real products only, as the unchecked routes
below dephase, derives the convergence tolerance from its Frobenius
norm, then solves the copy and sorts the diagonal. Up to 6x6, the size
of the paper's system, it passes the copy's flat row-major real and
imaginary parts as lists to the one-matrix kernel
scalar._jacobi_kernel(n), a pure-Python function generated for that n
on first use, which only reads them. Above 6x6 it hands the copy to the
stack kernel as a stack of one, with the same bits, so that no kernel
is generated whose source grows as n^3. The stack kernel, _jacobi_stack,
takes a stack of k matrices as two float planes, the real and the
imaginary parts laid out (n, n, k), so that each entry of every matrix
is one contiguous k-vector; it rotates every matrix at once on them,
each with its own rotation parameters, overwriting them, and returns the
same bits as one call per matrix. Two routes skip the checks, and say
why their input may: sweep's, esd._pt_eigenvalues, and the death-time
probe's, scalar._family_probe.

Both Jacobi kernels do the same real arithmetic, one float operation at
a time: _jacobi_kernel(n) in pure Python on local variables, one per
part of an entry, with one sweep written out pair by pair,
_jacobi_stack and _jacobi_rotate_stack with one numpy operation on the
planes' k-vectors per float operation. No complex multiply runs through
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
formula commutes with conjugation and the matrix is exactly Hermitian. A
pair whose r is not above off_tol / (2n) is skipped, an exactly zero one
before its r is taken (both kernels take this skip_tol from their
caller, so that a live block keeps the n of its full matrix). A sweep
visits the pairs in row-major order, and sweeps stop when sqrt(2 acc) is
below off_tol, acc summing re^2 + im^2 over the strict upper triangle in
row-major order, one term after another.

_cholesky_certifies is the positivity test of esdsim.states.validate: a
Cholesky factorization, in pure Python, of the Hermitian part shifted
by SPECTRAL_TOL / 2. When every pivot is positive it proves the smallest
eigenvalue above -SPECTRAL_TOL, and no eigensolve is needed; when one is
not, it proves nothing, and validate runs the Jacobi solve. Like the
eigensolver, it calls no LAPACK routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scalar

# Structural checks (Hermiticity, trace) are held to 1e-12; anything
# that passes through the eigensolver is compared at SPECTRAL_TOL, 1e-10.
HERMITIAN_TOL = 1e-12
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
        a, b = self.dim_a, self.dim_b
        # bool is an int subclass, but "dims True True" would not parse back
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1 for d in (a, b)):
            raise ValueError(f"factor dimensions must be positive integers, got ({a}, {b})")

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b

    def check(self, mat) -> np.ndarray:
        """mat coerced by as_complex_matrix, not copied; DimensionMismatchError unless it is total x total."""
        arr = as_complex_matrix(mat)
        if arr.shape != (self.total, self.total):
            raise DimensionMismatchError(
                f"expected a {self.total}x{self.total} matrix for dims "
                f"({self.dim_a}, {self.dim_b}), got shape {arr.shape}"
            )
        return arr


QUBIT_QUTRIT = BipartiteDims(2, 3)


def as_complex_matrix(mat) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def max_abs_diff(a, b) -> float:
    """Entrywise max-norm distance between two matrices."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def hermiticity_defect(mat) -> float:
    """max |m - m^dagger| over all entries; NaN or inf, without a warning, on non-finite entries or overflow."""
    arr = as_complex_matrix(mat)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(arr - arr.conj().T), initial=0.0))  # 0.0 for a 0x0 matrix


def partial_transpose(mat, dims: BipartiteDims, subsystem: str) -> np.ndarray:
    """Transpose the indices of one factor only.

    For subsystem "A": out[(a,b),(a',b')] = m[(a',b),(a,b')], and the
    mirror image for "B". Trace and Hermiticity are preserved; positivity
    is not, which is the whole point.
    """
    arr = dims.check(mat)
    da, db = dims.dim_a, dims.dim_b
    blocks = arr.reshape(da, db, da, db)
    if subsystem == "A":
        blocks = blocks.swapaxes(0, 2)
    elif subsystem == "B":
        blocks = blocks.swapaxes(1, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return blocks.reshape(da * db, da * db).copy()


def partial_trace(mat, dims: BipartiteDims, keep: str) -> np.ndarray:
    """Trace out one factor, keeping the other.

    keep="A" returns the dim_a x dim_a matrix out[a,a'] = sum_b m[(a,b),(a',b)].
    """
    arr = dims.check(mat)
    blocks = arr.reshape(dims.dim_a, dims.dim_b, dims.dim_a, dims.dim_b)
    if keep == "A":
        return np.einsum("abcb->ac", blocks)
    if keep == "B":
        return np.einsum("abac->bc", blocks)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def hermitian_eigenvalues(mat) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Cyclic Jacobi iteration: each step conjugates by a two-level unitary
    (a plane rotation times a phase) chosen to annihilate one off-diagonal
    pair exactly. Sweeps repeat until the off-diagonal Frobenius norm
    falls below 1e-13 (scaled up for matrices of large norm, so the loop
    terminates on any input; a matrix with a real or imaginary part
    above 1e150 is first divided by a power of two, exactly, and a
    spectrum beyond the float range comes back as +/-inf). Convergence
    is quadratic; six sweeps typically suffice at these sizes.

    One matrix per call: a stack raises ValueError, as anything not 2-D does.
    """
    m = as_complex_matrix(mat)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if not defect <= HERMITIAN_TOL:  # also refuses NaN/inf entries
        raise NonHermitianError(f"matrix is not Hermitian: max |m - m^dagger| = {defect:.3e}")
    m = np.ascontiguousarray(m)
    # keep |m|^2 finite: iterate on m / 2^k, with k from max(|re|, |im|), which
    # is finite where |m| may overflow
    peak = np.abs(m.view(np.float64)).max(initial=0.0)
    exponent = int(np.frexp(peak)[1]) if peak > _JACOBI_SCALE_LIMIT else 0
    if exponent:
        m = (m.view(np.float64) * np.ldexp(1.0, -exponent)).view(complex)
    # symmetrize roundoff before iterating: a complex sum, halved on the float view, since numpy's
    # complex product by a real would change the sign of some zeros that the other routes keep
    m = m + m.conj().T
    m.view(np.float64)[...] *= 0.5
    off_tol = scalar._JACOBI_OFF_TOL * float(max(1.0, np.sqrt(np.sum(np.abs(m) ** 2))))  # from the Frobenius norm
    n = len(m)
    if n < 2:  # its own diagonal
        eigs = m.diagonal().real
    elif n <= QUBIT_QUTRIT.total:  # at 6x6 the stack kernel would cost several times as much
        eigs = scalar._jacobi_kernel(n)(m.real.ravel().tolist(), m.imag.ravel().tolist(), off_tol, off_tol / (2 * n))
    else:  # a stack of one, with the same bits: no kernel is generated above 6x6
        eigs = _jacobi_stack(m.real[..., None].copy(), m.imag[..., None].copy(), off_tol, off_tol / (2 * n))[0]
    eigs = np.sort(eigs)
    if exponent:
        with np.errstate(over="ignore"):  # a spectrum beyond the float range is +/-inf
            eigs = np.ldexp(eigs, exponent)
    return eigs


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
    shift = 0.5 * scalar.SPECTRAL_TOL
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


def _jacobi_stack(re: np.ndarray, im: np.ndarray, off_tol: float, skip_tol: float) -> np.ndarray:
    """Diagonalize k trusted n x n matrices as (n, n, k) float planes; their diagonals, unsorted, shape (k, n).

    re and im are the real and imaginary parts, each entry of every
    matrix one contiguous k-vector, trusted as _jacobi_kernel's input is;
    the kernel overwrites them. A sweep rotates the matrices not yet
    converged, each with _jacobi_kernel's float operations and the same
    off_tol (Golub & Van Loan, Matrix Computations, section 8.5, with
    per-matrix rotation parameters); a converged matrix is left as it is,
    so it stays converged, and the diagonals are read once none is going.
    An n below 2 leaves nothing to rotate: 0 x 0 matrices give (k, 0).
    skip_tol is the caller's: off_tol / (2n) gives each matrix
    _jacobi_kernel's bits, and a caller that solves blocks of larger
    matrices, as esd._pt_eigenvalues does, passes the n of the larger ones.
    """
    n = len(re)
    for _ in range(scalar._MAX_JACOBI_SWEEPS):
        acc = 0.0
        for p in range(n - 1):
            row_re, row_im = re[p, p + 1:], im[p, p + 1:]
            for term in row_re * row_re + row_im * row_im:  # re^2 + im^2 of (p, q), q > p
                acc += term
        going = ~(np.sqrt(2.0 * acc) < off_tol)
        if not going.any():
            return re.diagonal()
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate_stack(re, im, p, q, skip_tol, going)
    raise RuntimeError("Jacobi iteration did not converge; input may be pathological")


def _jacobi_rotate_stack(re: np.ndarray, im: np.ndarray, p: int, q: int, skip_tol: float,
                         going: np.ndarray | bool) -> None:
    """_jacobi_kernel's rotation of (p, q), in place, on the going matrices of the (n, n, k) float planes re and im.

    Each matrix gets its own rotation, and the one skip_tol. Each float
    operation of _jacobi_kernel is one array operation here, on
    k-vectors, so no complex multiply is fused; the few more, on the 2x2
    block's entries that the row step does not read, are overwritten.
    going marks the matrices not yet converged (True for all). Those
    whose pair is skipped, and the converged ones, are left out, and the
    others rotated as planes of their own.
    """
    ar, ai = re[p, q], im[p, q]
    if not (ar.any() or ai.any()):  # a pair that is zero in every matrix: no hypot to take
        return
    r = np.hypot(ar, ai)  # libm hypot, as abs() of a Python complex; np.abs is not
    hit = (r > skip_tol) & going
    if not hit.all():
        if hit.any():
            sub_re, sub_im = re[..., hit], im[..., hit]
            _jacobi_rotate_stack(sub_re, sub_im, p, q, skip_tol, True)
            re[..., hit], im[..., hit] = sub_re, sub_im
        return
    inv = 1.0 / r
    phr, phi = ar * inv, ai * inv
    tau = (re[q, q] - re[p, p]) / (2.0 * r)
    # both branches of the scalar sign test in one expression: tau >= 0 holds for -0.0 as well
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    sr, si, cr, ci = s * phr, -(s * phi), c * phr, -(c * phi)
    xr, xi, yr, yi = re[:, p], im[:, p], re[:, q], im[:, q]
    kpr = c * xr - (sr * yr - si * yi)
    kpi = c * xi - (sr * yi + si * yr)
    kqr = s * xr + (cr * yr - ci * yi)
    kqi = s * xi + (cr * yi + ci * yr)
    app = c * kpr[p] - (sr * kpr[q] + si * kpi[q])
    aqq = s * kqr[p] + (cr * kqr[q] + ci * kqi[q])
    re[:, p], im[:, p], re[:, q], im[:, q] = kpr, kpi, kqr, kqi
    re[p], im[p], re[q], im[q] = kpr, -kpi, kqr, -kqi
    block = slice(p, q + 1, q - p)  # rows and columns p and q
    re[block, block] = im[block, block] = 0.0
    re[p, p], re[q, q] = app, aqq
