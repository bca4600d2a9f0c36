"""Partial-transpose entanglement tests for bipartite states.

Normalization note: negativity here is the plain sum of the absolute
values of the negative partial-transpose eigenvalues, with no
dimension-dependent prefactor. On the built-in one-parameter family it
ranges over [0, 1/8]. For 2x3 systems a positive partial transpose is
equivalent to separability, so negativity zero really means separable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .states import DensityMatrix


@dataclass(frozen=True)
class NegativityResult:
    value: float
    is_entangled: bool
    min_pt_eigenvalue: float


def pt_spectrum(rho: DensityMatrix, subsystem: str = "A") -> np.ndarray:
    """Eigenvalues of the partial transpose over the chosen factor, ascending, as a read-only array.

    One Jacobi solve serves both factors, made on the first call for rho
    and kept by it. The two spectra are the same bits, not merely close:
    PT_B(m) = PT_A(m)^T, the checked eigensolver's symmetrized copy of a
    transpose is the exact complex conjugate of the original's (float
    addition commutes), and every formula of the Jacobi kernels commutes
    with conjugation (see esdsim.linalg). A solve that raises, such as
    NonHermitianError on a hand-built state, raises again on every call.
    """
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return rho._pt_spectrum


def negativity_of_spectrum(eigs: np.ndarray):
    """Sum of |eigenvalues| below -linalg.SPECTRAL_TOL over the last axis; the rest count as zero."""
    return np.where(eigs < -linalg.SPECTRAL_TOL, -eigs, 0.0).sum(axis=-1)


def negativity(rho: DensityMatrix, subsystem: str = "A") -> NegativityResult:
    """Sum of |negative PT eigenvalues|; zero iff the spectrum is nonnegative.

    Eigenvalues within linalg.SPECTRAL_TOL (the eigensolver's noise
    floor, 1e-10) of zero are treated as zero, so value == 0.0 exactly
    for PPT states and is_entangled is simply value > 0. Transposing
    either subsystem gives the same answer, bit for bit, from the one
    spectrum pt_spectrum keeps per state: negativity on side B after
    side A, or is_ppt after either, makes no second solve.
    """
    eigs = pt_spectrum(rho, subsystem)
    value = float(negativity_of_spectrum(eigs))
    return NegativityResult(
        value=value,
        is_entangled=value > 0.0,
        min_pt_eigenvalue=float(eigs[0]),
    )


def is_ppt(rho: DensityMatrix, subsystem: str = "A") -> bool:
    """True when the partial transpose has no eigenvalue below -1e-10."""
    return not negativity(rho, subsystem).is_entangled
