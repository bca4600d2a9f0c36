"""Qubit-qutrit dephasing toolkit.

Simulates a 2x3 bipartite state family under local phase damping and
tracks entanglement via the partial-transpose negativity, including the
regime where entanglement vanishes at a finite time while coherence
decays only asymptotically.
"""

import importlib

__version__ = "0.1.0"

# each public name: the submodule that defines it, and its name there. Names resolve on first
# use (PEP 562), and are then kept in this module's globals, so that `import esdsim` loads no
# numpy; the family's Scenario and its death-time route come from scalar, which imports none.
_SOURCES = {name: (module, name) for module, names in (
    ("channels", "IncompleteChannelError KrausChannel apply_multilocal dephasing_qubit dephasing_qutrit "
                 "identity_channel"),
    ("entanglement", "NegativityResult is_ppt negativity pt_spectrum"),
    ("esd", "analytic_negativity evolve pt_spectrum_closed_form sweep"),
    ("linalg", "QUBIT_QUTRIT BipartiteDims DimensionMismatchError NonHermitianError hermitian_eigenvalues "
               "partial_trace partial_transpose"),
    ("scalar", "BracketError EsdOutcome Scenario ScenarioKind analytic_esd_time numeric_esd_time"),
    ("states", "DensityMatrix InvalidStateError ansatz_general ansatz_x format_state parse_state "
               "random_density_matrix reduce_a reduce_b validate"),
) for name in names.split()}
_SOURCES["apply_channel"] = ("channels", "apply")

# the submodules that `esdsim.<name>` reaches after a bare `import esdsim`
_SUBMODULES = ("channels", "entanglement", "esd", "linalg", "scalar", "states")

__all__ = [*sorted(_SOURCES), "__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _SOURCES:
        module, attr = _SOURCES[name]
        value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
