"""Dense complex linear algebra for small bipartite systems.

Everything operates on plain numpy arrays of complex128 in row-major
layout. The eigensolver is a self-contained cyclic Jacobi iteration, so
the whole numeric path stays inspectable end to end; matrices here are
tiny (6x6 at most) and robustness matters more than speed.
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

    def check(self, mat: np.ndarray) -> None:
        """Raise DimensionMismatchError unless mat is total x total."""
        if mat.shape != (self.total, self.total):
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


def _require_square(mat: np.ndarray) -> None:
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")


def max_abs_diff(a, b) -> float:
    """Entrywise max-norm distance between two matrices."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def hermiticity_defect(mat) -> float:
    """max |m - m^dagger| over all entries."""
    arr = as_complex_matrix(mat)
    return float(np.max(np.abs(arr - arr.conj().T)))


def kron(a, b) -> np.ndarray:
    """Kronecker product: out[i*rb + k, j*cb + l] = a[i, j] * b[k, l]."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    ra, ca = a.shape
    rb, cb = b.shape
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(ra * rb, ca * cb)


def partial_transpose(mat, dims: BipartiteDims, subsystem: str) -> np.ndarray:
    """Transpose the indices of one factor only.

    For subsystem "A": out[(a,b),(a',b')] = m[(a',b),(a,b')], and the
    mirror image for "B". Trace and Hermiticity are preserved; positivity
    is not, which is the whole point.
    """
    arr = as_complex_matrix(mat)
    dims.check(arr)
    da, db = dims.dim_a, dims.dim_b
    blocks = arr.reshape(da, db, da, db)
    if subsystem == "A":
        blocks = blocks.transpose(2, 1, 0, 3)
    elif subsystem == "B":
        blocks = blocks.transpose(0, 3, 2, 1)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return blocks.reshape(da * db, da * db).copy()


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
    """All eigenvalues of a Hermitian matrix, ascending.

    Cyclic Jacobi iteration: each step conjugates by a two-level unitary
    (a plane rotation times a phase) chosen to annihilate one off-diagonal
    pair exactly. Sweeps repeat until the off-diagonal Frobenius norm
    falls below 1e-13 (scaled up for matrices of large norm, so the loop
    terminates on any input; entries above 1e150 are first divided by a
    power of two, exactly). Convergence is quadratic; six sweeps
    typically suffice at these sizes.
    """
    a = as_complex_matrix(mat)
    _require_square(a)
    defect = hermiticity_defect(a)
    if not defect <= HERMITIAN_TOL:  # also refuses NaN/inf entries
        raise NonHermitianError(f"matrix is not Hermitian: max |m - m^dagger| = {defect:.3e}")
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    exponent = 0
    peak = float(np.max(np.abs(a)))
    if peak > _JACOBI_SCALE_LIMIT:  # keep |a|^2 finite: iterate on a / 2^k
        exponent = math.frexp(peak)[1]
        a = a * 2.0 ** -exponent
    a = 0.5 * (a + a.conj().T)  # symmetrize roundoff before iterating
    fro = math.sqrt(float(np.sum(np.abs(a) ** 2)))
    off_tol = _JACOBI_OFF_TOL * max(1.0, fro)
    skip_tol = off_tol / (2 * n)
    upper = _strict_upper_flat(n)
    for _ in range(_MAX_JACOBI_SWEEPS):
        off = math.sqrt(2.0 * float(np.sum(np.abs(a.take(upper)) ** 2)))
        if off < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, p, q, skip_tol)
    else:
        raise RuntimeError("Jacobi iteration did not converge; input may be pathological")
    return np.ldexp(np.sort(np.diag(a).real), exponent)


@functools.lru_cache(maxsize=None)
def _strict_upper_flat(n: int) -> np.ndarray:
    """Flat indices of the entries above the diagonal of an n x n matrix.

    Cached per size: building them costs more than a sweep's norm.
    """
    idx = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))
    idx.flags.writeable = False
    return idx


def _jacobi_rotate(a: np.ndarray, p: int, q: int, skip_tol: float) -> None:
    """Annihilate a[p, q] in place by a two-level unitary conjugation."""
    alpha = a[p, q]
    r = abs(alpha)
    if r <= skip_tol:
        return
    phase = alpha / r
    app = a[p, p].real
    aqq = a[q, q].real
    tau = (aqq - app) / (2.0 * r)
    # smaller root of t^2 + 2*tau*t - 1 = 0, the numerically stable choice
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    # restricted to rows/cols (p, q) the unitary is
    #   [[c, s], [-s*conj(phase), c*conj(phase)]]
    colp = a[:, p].copy()
    colq = a[:, q].copy()
    a[:, p] = c * colp - (s * np.conj(phase)) * colq
    a[:, q] = s * colp + (c * np.conj(phase)) * colq
    rowp = a[p, :].copy()
    rowq = a[q, :].copy()
    a[p, :] = c * rowp - (s * phase) * rowq
    a[q, :] = s * rowp + (c * phase) * rowq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
