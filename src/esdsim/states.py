"""Qubit-qutrit density matrices: construction, validation, reduction, text I/O.

The states of interest live on a 2x3 composite system and carry coherence
only in off-diagonal slots where BOTH factor indices change. Tracing out
either factor therefore yields a diagonal reduced state: all coherence is
jointly shared, none is local. A one-parameter slice of this class (fixed
diagonal, a single corner coherence) is the workhorse for the dephasing
scenarios in :mod:`esdsim.esd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import QUBIT_QUTRIT, BipartiteDims
from .scalar import ANSATZ_DIAGONAL, CORNER_SLOT, SPECTRAL_TOL, _corner

TRACE_TOL = 1e-12
PATTERN_TOL = 1e-14

#: Upper-triangle slots (i, j) where both the qubit index and the qutrit
#: index differ; coherence confined to these slots leaves both reduced
#: states diagonal. Listed row-major.
JOINT_COHERENCE_SLOTS = ((0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4))

#: Off-diagonal slots outside JOINT_COHERENCE_SLOTS and their mirrors.
_STRAY_SLOTS = ~np.eye(6, dtype=bool)
_STRAY_SLOTS[tuple(zip(*JOINT_COHERENCE_SLOTS))] = False
_STRAY_SLOTS &= _STRAY_SLOTS.T


class InvalidStateError(ValueError):
    """A matrix failed density-matrix validation.

    Attributes:
        condition: which requirement failed ("finite", "hermiticity",
            "trace" or "positivity").
        magnitude: size of the violation; for "finite", the number of
            NaN or infinite entries.
    """

    def __init__(self, condition: str, magnitude: float):
        self.condition = condition
        self.magnitude = magnitude
        super().__init__(f"{condition} violated by {magnitude:.6e}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A matrix together with its declared bipartite factor dimensions.

    Instances produced by this package satisfy Hermiticity within 1e-12,
    unit trace within 1e-12 and positive semidefiniteness down to -1e-10;
    use :func:`validate` to build one from untrusted input.

    The stored array is a read-only complex128 copy of the input (an
    array or nested lists), so no other name can write it. The
    partial-transpose spectrum that :func:`esdsim.entanglement.pt_spectrum`
    serves for either factor is computed lazily, once per instance, and
    kept; a solve that raises is not kept. A pickled or copied instance
    is rebuilt through the constructor, read-only again and without the
    spectrum. Equality is identity, so an instance hashes.
    """

    mat: np.ndarray
    dims: BipartiteDims

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", self.dims.check(self.mat).copy())
        self.mat.setflags(write=False)

    def __reduce__(self):
        # unpickled and deep-copied arrays come back writable; __post_init__ marks them again
        return type(self), (self.mat, self.dims)

    @cached_property
    def _pt_spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of the side-A partial transpose, read-only; side B's are the same bits."""
        eigs = linalg.hermitian_eigenvalues(linalg.partial_transpose(self.mat, self.dims, "A"))
        eigs.setflags(write=False)
        return eigs

    @property
    def dim(self) -> int:
        return self.dims.total


def validate(mat, dims: BipartiteDims = QUBIT_QUTRIT) -> DensityMatrix:
    """Wrap the input in a DensityMatrix, check the density-matrix conditions on it and return it.

    Requirements, tested in order: every entry finite, Hermiticity
    within 1e-12, trace 1 within 1e-12 (a trace that overflows is
    refused, as inf or NaN), and smallest eigenvalue >= -1e-10. The
    first failure raises InvalidStateError naming the condition and its
    magnitude.

    Positivity is decided without an eigensolve when it can be: a
    Cholesky factorization of the Hermitian part plus (1e-10 / 2) I
    that succeeds proves the smallest eigenvalue above -5e-11, up to
    rounding (see linalg._cholesky_certifies), and the state is
    accepted. Only when the factorization stops does the Jacobi solve
    run, and it alone decides: it reports the magnitude of a rejection,
    and it accepts the thin band -1e-10 <= lowest < -5e-11 that the
    certificate cannot. Either way the decision is the one the Jacobi
    solve would make.
    """
    rho = DensityMatrix(mat, dims)  # the one coercion, copy and shape check
    arr = rho.mat
    non_finite = int(np.count_nonzero(~np.isfinite(arr)))
    if non_finite:
        raise InvalidStateError("finite", non_finite)
    herm = linalg.hermiticity_defect(arr)
    if herm > linalg.HERMITIAN_TOL:
        raise InvalidStateError("hermiticity", herm)
    with np.errstate(over="ignore", invalid="ignore"):  # huge diagonals sum to inf or NaN
        trace_defect = abs(complex(np.trace(arr)) - 1.0)
    if not trace_defect <= TRACE_TOL:
        raise InvalidStateError("trace", trace_defect)
    if not linalg._cholesky_certifies(arr):
        lowest = float(linalg.hermitian_eigenvalues(arr)[0])
        if lowest < -SPECTRAL_TOL:
            raise InvalidStateError("positivity", -lowest)
    return rho


def ansatz_x(x: float) -> DensityMatrix:
    """The one-parameter state: fixed diagonal, corner coherence x.

    Diagonal (1/4, 1/8, 1/8, 1/8, 1/8, 1/4); the only off-diagonal
    entries are x at the corner slot and its mirror. Every x in
    [0, 1/4] gives a valid state; x = 1/4 is rank-deficient (one zero
    eigenvalue) and x > 1/8 is where the state is entangled. Any other x
    raises ValueError. The corner entry is scalar._corner(x), which
    checks x: x + 0.0 in float64 (a -0.0 is stored as 0.0); every
    imaginary part is +0.0. A Scenario checks x and takes its corner
    entry through the same scalar._corner, and writes the split of this
    state's partial transpose in closed form, without building the state.
    """
    mat = np.diag(np.array(ANSATZ_DIAGONAL, dtype=complex))
    mat[CORNER_SLOT] = mat[CORNER_SLOT[::-1]] = _corner(x)
    return DensityMatrix(mat, QUBIT_QUTRIT)


def ansatz_general(diagonal: Sequence[float], coherences: Sequence[float]) -> DensityMatrix:
    """Build a state of the jointly-coherent class from real entries.

    ``diagonal`` gives the six diagonal entries; ``coherences`` gives the
    six off-diagonal values in JOINT_COHERENCE_SLOTS order. Entries are
    real by construction, so the result is Hermitian automatically; trace
    and positivity are checked and violations raise InvalidStateError.
    """
    diagonal = [float(v) for v in diagonal]
    coherences = [float(v) for v in coherences]
    if len(diagonal) != 6:
        raise ValueError(f"expected 6 diagonal entries, got {len(diagonal)}")
    if len(coherences) != len(JOINT_COHERENCE_SLOTS):
        raise ValueError(
            f"expected {len(JOINT_COHERENCE_SLOTS)} coherence entries, got {len(coherences)}"
        )
    m = np.diag(np.array(diagonal, dtype=complex))
    for (i, j), value in zip(JOINT_COHERENCE_SLOTS, coherences):
        m[i, j] = value
        m[j, i] = value
    return validate(m, QUBIT_QUTRIT)


def reduce_a(rho: DensityMatrix) -> np.ndarray:
    """Reduced state of the first factor (trace out the qutrit)."""
    return linalg.partial_trace(rho.mat, rho.dims, keep="A")


def reduce_b(rho: DensityMatrix) -> np.ndarray:
    """Reduced state of the second factor (trace out the qubit)."""
    return linalg.partial_trace(rho.mat, rho.dims, keep="B")


def extract_corner(rho: DensityMatrix) -> float:
    """Current value of the corner coherence slot (real part)."""
    i, j = CORNER_SLOT
    return float(rho.mat[i, j].real)


def coherence_pattern_defect(mat) -> float:
    """Largest off-diagonal magnitude outside the allowed joint slots."""
    arr = QUBIT_QUTRIT.check(mat)
    out = arr[_STRAY_SLOTS]
    return float(np.max(np.hypot(out.real, out.imag)))  # NaN propagates; hypot keeps abs's bits


def is_locally_incoherent(mat) -> bool:
    """True when all coherence sits in the joint slots (reductions diagonal)."""
    return coherence_pattern_defect(mat) <= PATTERN_TOL


def random_density_matrix(rng: np.random.Generator, dims: BipartiteDims = QUBIT_QUTRIT) -> DensityMatrix:
    """A random full-rank state: G G^dagger normalized, G complex Gaussian."""
    n = dims.total
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, dims)


def format_state(rho: DensityMatrix) -> str:
    """Render a state in the plain-text matrix format.

    First line is ``dims dA dB``; each following line holds one matrix
    row with entries written as re+imj pairs at 17 significant digits,
    which round-trips float64 exactly.
    """
    n = rho.dims.total
    row = " ".join(["%.17g%+.17gj"] * n) + "\n"
    # the stored C-ordered complex128 copy read as (re, im) floats; Python floats format faster than numpy's
    body = (row * n) % tuple(rho.mat.view(np.float64).ravel().tolist())
    return f"dims {rho.dims.dim_a} {rho.dims.dim_b}\n" + body


def parse_state(text: str) -> DensityMatrix:
    """Parse the plain-text matrix format and validate the result.

    Any `dims dA dB` header is accepted, and nothing bounds the size. Above
    6x6, negativity solves the partial transpose through the stack kernel
    as a stack of one, whose time grows about as n^2: about 0.06-0.07 s
    for dims 4 4 and 1.1-1.4 s for dims 8 8 on a 2-vCPU VM.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty state text")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "dims":
        raise ValueError(f"malformed header {lines[0]!r}; expected 'dims dA dB'")
    dims = BipartiteDims(int(header[1]), int(header[2]))
    rows = lines[1:]
    if len(rows) != dims.total:
        raise ValueError(f"expected {dims.total} matrix rows, got {len(rows)}")
    entries = []
    for row in rows:
        tokens = row.split()
        if len(tokens) != dims.total:
            raise ValueError(f"expected {dims.total} entries per row, got {len(tokens)}")
        entries.append([complex(tok) for tok in tokens])
    return validate(np.array(entries, dtype=complex), dims)
