"""Local phase-damping channels on the qubit-qutrit composite.

Both channels act through diagonal Kraus operators on the full 6x6
system, so they commute with one another and never touch populations.
The decay factor is gamma(t) = exp(-t * rate / 2) with an independent
rate per subsystem; omega(t) = sqrt(1 - gamma^2) is the complementary
weight.

Qubit noise uses two operators,

    E1 = diag(1, gamma) (x) I3,      E2 = diag(0, omega) (x) I3,

and qutrit noise three,

    F1 = I2 (x) diag(1, gamma, gamma),
    F2 = I2 (x) diag(0, omega, 0),
    F3 = I2 (x) diag(0, 0, omega).

These are the d-level phase-damping set at d = 2 and d = 3, and the
builders take gamma, as dephasing_mask() does: Scenario.gamma_factors(t)
or esdsim.scalar.decay_factor(rate, t) gives it.

Both operator sets are diagonal, so the channels act entrywise: with
M_A(g) = [[1, g], [g, 1]] and M_B(g) = [[1, g, g], [g, 1, g^2], [g, g^2, 1]],

    rho(t) = rho(0) o (M_A(gamma_A) (x) M_B(gamma_B)).

The qutrit (1, 2) coherence decays as gamma^2, not gamma. dephasing_mask()
builds this product, for one pair of factors or for arrays of them; the
Kraus route stays as the general API and as the tests' reference for the
mask. esdsim.esd multiplies an entry's real and imaginary parts by its
mask entry apart, with no complex product, on every route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import QUBIT_QUTRIT
from .scalar import _TERM_ROWS, _mask_products
from .states import DensityMatrix

COMPLETENESS_TOL = 1e-12


class IncompleteChannelError(ValueError):
    """Kraus operators do not sum to the identity within tolerance."""


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """An ordered set of dim x dim Kraus operators.

    Completeness (sum of K^dagger K equal to the identity) is certified
    by completeness_defect(); apply() refuses channels whose defect
    exceeds COMPLETENESS_TOL rather than renormalizing. Equality is
    identity, so an instance hashes.
    """

    ops: tuple
    dim: int

    def completeness_defect(self) -> float:
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for op in self.ops:
            acc += op.conj().T @ op
        return linalg.max_abs_diff(acc, np.eye(self.dim))

    def require_complete(self) -> None:
        defect = self.completeness_defect()
        if not defect <= COMPLETENESS_TOL:  # also refuses NaN operators
            raise IncompleteChannelError(
                f"Kraus operators sum to identity with defect {defect:.3e} "
                f"(tolerance {COMPLETENESS_TOL})"
            )


def identity_channel(dim: int) -> KrausChannel:
    """The do-nothing channel."""
    return KrausChannel(ops=(np.eye(dim, dtype=complex),), dim=dim)


def _phase_damping(gamma: float, d: int) -> tuple:
    """The d-level phase-damping Kraus set: diag(1, gamma, ..., gamma), then omega |j><j| for j >= 1."""
    if not 0.0 <= gamma <= 1.0:  # also refuses NaN
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    omega = math.sqrt(1.0 - gamma * gamma)
    ops = [np.diag([1.0] + [gamma] * (d - 1))] + [np.diag(omega * np.eye(d)[j]) for j in range(1, d)]
    return tuple(op.astype(complex) for op in ops)


def dephasing_qubit(gamma: float) -> KrausChannel:
    """Phase damping E1, E2 on the qubit factor, lifted to the 6x6 composite."""
    ops = tuple(np.kron(op, np.eye(3)) for op in _phase_damping(gamma, 2))
    return KrausChannel(ops=ops, dim=QUBIT_QUTRIT.total)


def dephasing_qutrit(gamma: float) -> KrausChannel:
    """Phase damping F1, F2, F3 on the qutrit factor, lifted to the 6x6 composite."""
    ops = tuple(np.kron(np.eye(2), op) for op in _phase_damping(gamma, 3))
    return KrausChannel(ops=ops, dim=QUBIT_QUTRIT.total)


# dephasing_mask gathers each entry of M_A(ga) (x) M_B(gb) from its one product in
# (1, ga, gb, gb^2, ga*gb, ga*gb^2), _mask_products': a qubit exponent in {0, 1}
# times a qutrit exponent in {0, 1, 2} picks the term (scalar._TERM_ROWS).
_MASK_TERMS = np.array(_TERM_ROWS)
_MASK_TERMS.flags.writeable = False


def dephasing_mask(gamma_a, gamma_b, terms: np.ndarray = _MASK_TERMS) -> np.ndarray:
    """6x6 mask M_A(gamma_a) (x) M_B(gamma_b) with real entries; rho * mask dephases rho.

    Its diagonal is exactly 1, so it is trace preserving by construction.
    The factors may be arrays, broadcast to one shape S, giving masks laid
    out entry-major, shape (6, 6, *S), as the stack kernel's planes are,
    each bit-equal to the mask of its own factors. terms, a block of
    _MASK_TERMS, gives that block of the masks instead: terms.shape + S.
    """
    ga, gb = np.asarray(gamma_a, dtype=float), np.asarray(gamma_b, dtype=float)
    products = _mask_products(ga, gb)
    if ga.ndim or gb.ndim:  # the 1.0, and a factor of another shape, take the shape S
        products = np.broadcast_arrays(*products)
    return np.array(products)[terms]


def apply(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel: sum_k K rho K^dagger.

    The channel must act on matrices of the state's dimension and must
    be complete; a channel that is not trace preserving is refused
    instead of silently renormalized.
    """
    if channel.dim != rho.dim:
        raise linalg.DimensionMismatchError(
            f"channel acts on dimension {channel.dim}, state has dimension {rho.dim}"
        )
    channel.require_complete()
    out = np.zeros((rho.dim, rho.dim), dtype=complex)
    for op in channel.ops:
        out += op @ rho.mat @ op.conj().T
    out = 0.5 * (out + out.conj().T)  # scrub rounding asymmetry
    return DensityMatrix(out, rho.dims)


def apply_multilocal(channel_a: KrausChannel, channel_b: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply noise on both factors at once via the composed Kraus set.

    The composite operators are all products K = B_j A_i; because both
    families are diagonal, this equals applying the channels one after
    the other in either order.
    """
    if channel_a.dim != channel_b.dim:
        raise linalg.DimensionMismatchError(
            f"channel dimensions differ: {channel_a.dim} vs {channel_b.dim}"
        )
    channel_a.require_complete()
    channel_b.require_complete()
    composed = tuple(kb @ ka for ka in channel_a.ops for kb in channel_b.ops)
    return apply(KrausChannel(ops=composed, dim=channel_a.dim), rho)
