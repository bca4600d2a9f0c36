"""Outside-in spans around esdsim's public functions.

The tracer never edits the package. It replaces every attribute of every
loaded esdsim module that *is* a target function with a wrapper that
records a span, so calls through `from .x import f` bindings are caught
as well as calls through `module.f`. A target that no longer exists is
listed as absent.

A span is six float64 fields appended to one flat array in a single call
(name id, parent span, request id, matrices passed, start, end), so a
deadline signal can never leave the fields misaligned. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, attribute path) of each traced function, in layer order.
TARGETS = (
    ("cli", "parse_args"),
    ("cli", "render_csv"),
    ("esd", "sweep"),
    ("esd", "numeric_esd_time"),
    ("esd", "evolve"),
    ("channels", "dephasing_qubit"),
    ("channels", "dephasing_qutrit"),
    ("channels", "apply"),
    ("channels", "apply_multilocal"),
    ("channels", "KrausChannel.completeness_defect"),
    ("entanglement", "negativity"),
    ("entanglement", "pt_spectrum"),
    ("linalg", "partial_transpose"),
    ("linalg", "hermitian_eigenvalues"),
    ("states", "ansatz_x"),
    ("states", "parse_state"),
    ("states", "validate"),
    ("states", "format_state"),
)

#: Targets whose first argument is a matrix or a (..., n, n) stack of them.
ITEM_COUNTED = ("linalg.partial_transpose", "linalg.hermitian_eigenvalues")

PACKAGE = "esdsim"
REQUEST = "request"
FIELDS = 6  # name, parent, request, items, start, end


def target_names():
    return [f"{module}.{path}" for module, path in TARGETS]


def _matrices(args, kwargs) -> int:
    shape = np.shape(args[0] if args else kwargs.get("mat"))
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


class Tracer:
    """Records spans for the wrapped targets while installed."""

    def __init__(self):
        self.names = [REQUEST, *target_names()]
        self.spans = array("d")
        self.stack = []
        self.request_id = -1
        self.absent = []
        self._undo = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for name_id, (module_name, path) in enumerate(TARGETS, start=1):
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            counted = f"{module_name}.{path}" in ITEM_COUNTED
            wrapper = self._wrap(original, name_id, counted)
            if owner_path:  # a method: wrap it on its class only
                self._replace(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapper)

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def _wrap(self, fn, name_id, counted):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans) // FIELDS
            items = _matrices(args, kwargs) if counted else 1
            parent = stack[-1] if stack else -1
            spans.extend((name_id, parent, self.request_id, items, perf_counter(), np.nan))
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index * FIELDS + 5] = perf_counter()
                stack.pop()

        return wrapper

    def begin_request(self, request_id: int) -> None:
        """Open the root span every wrapped call of this request nests under."""
        self.stack.clear()
        self.request_id = request_id
        self.stack.append(len(self.spans) // FIELDS)
        self.spans.extend((0, -1, request_id, 1, perf_counter(), np.nan))

    def end_request(self) -> None:
        if self.stack:
            self.spans[self.stack[0] * FIELDS + 5] = perf_counter()
        self.stack.clear()

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=float).reshape(-1, FIELDS).copy()


def self_times(start, end, parent):
    """Span duration minus the time covered by its direct children.

    Spans of one thread nest, so children never overlap one another and
    the covered time is the sum of their durations.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def under(names, parent, ancestor_id):
    """True for each span with a span of ancestor_id somewhere above it."""
    found = np.zeros(len(names), dtype=bool)
    up = parent.copy()
    while True:
        live = up >= 0
        if not live.any():
            return found
        found[live] |= names[up[live]] == ancestor_id
        up[live] = parent[up[live]]


def layer_metrics(table, names, requests):
    """Per-layer metrics over the spans of the given request ids.

    For every target: calls_per_op and self_ms_per_op; for the matrix
    layers items_per_op; and probes_per_call, the esd.evolve spans under
    one esd.numeric_esd_time span. A target never called reports 0.
    """
    ops = max(len(requests), 1)  # with no counted request every metric reads 0
    name_ids = table[:, 0].astype(np.int64)
    parent = table[:, 1].astype(np.int64)
    keep = np.isin(table[:, 2].astype(np.int64), np.asarray(requests, dtype=np.int64))
    own = self_times(table[:, 4], table[:, 5], parent)
    metrics = {}
    for name_id, name in enumerate(names):
        if name == REQUEST:
            continue
        mine = keep & (name_ids == name_id)
        # integer counts over an integer: k passes give bit-identical ratios
        metrics[f"{name}.calls_per_op"] = (int(mine.sum()) / ops, "count")
        metrics[f"{name}.self_ms_per_op"] = (1e3 * float(own[mine].sum()) / ops, "ms")
        if name in ITEM_COUNTED:
            metrics[f"{name}.items_per_op"] = (int(table[mine, 3].sum()) / ops, "count")
    search, evolve = names.index("esd.numeric_esd_time"), names.index("esd.evolve")
    searches = int((keep & (name_ids == search)).sum())
    probes = int((keep & (name_ids == evolve) & under(name_ids, parent, search)).sum())
    metrics["esd.numeric_esd_time.probes_per_call"] = (probes / searches if searches else 0.0, "count")
    return metrics
