"""Qubit-qutrit dephasing toolkit.

Simulates a 2x3 bipartite state family under local phase damping and
tracks entanglement via the partial-transpose negativity, including the
regime where entanglement vanishes at a finite time while coherence
decays only asymptotically.
"""

from .channels import (
    IncompleteChannelError,
    KrausChannel,
    apply_multilocal,
    dephasing_qubit,
    dephasing_qutrit,
    identity_channel,
)
from .channels import apply as apply_channel
from .entanglement import NegativityResult, is_ppt, negativity, pt_spectrum
from .esd import (
    BracketError,
    EsdOutcome,
    Scenario,
    ScenarioKind,
    analytic_esd_time,
    analytic_negativity,
    evolve,
    numeric_esd_time,
    pt_spectrum_closed_form,
    sweep,
)
from .linalg import (
    QUBIT_QUTRIT,
    BipartiteDims,
    DimensionMismatchError,
    NonHermitianError,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
)
from .states import (
    DensityMatrix,
    InvalidStateError,
    ansatz_general,
    ansatz_x,
    format_state,
    parse_state,
    random_density_matrix,
    reduce_a,
    reduce_b,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteDims",
    "BracketError",
    "DensityMatrix",
    "DimensionMismatchError",
    "EsdOutcome",
    "IncompleteChannelError",
    "InvalidStateError",
    "KrausChannel",
    "NegativityResult",
    "NonHermitianError",
    "QUBIT_QUTRIT",
    "Scenario",
    "ScenarioKind",
    "analytic_esd_time",
    "analytic_negativity",
    "ansatz_general",
    "ansatz_x",
    "apply_channel",
    "apply_multilocal",
    "dephasing_qubit",
    "dephasing_qutrit",
    "evolve",
    "format_state",
    "hermitian_eigenvalues",
    "identity_channel",
    "is_ppt",
    "negativity",
    "numeric_esd_time",
    "parse_state",
    "partial_trace",
    "partial_transpose",
    "pt_spectrum",
    "pt_spectrum_closed_form",
    "random_density_matrix",
    "reduce_a",
    "reduce_b",
    "sweep",
    "validate",
    "__version__",
]
