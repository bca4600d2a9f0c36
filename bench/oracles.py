"""Output checks that share no code with esdsim.

Every expected value here is computed from the request's own inputs with
the closed forms of the one-parameter family or with numpy's LAPACK
eigensolver, never by calling the package. Each check returns None when
the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "t,gamma_a,gamma_b,corner,negativity_numeric,negativity_analytic,min_pt_eigenvalue"

#: Tolerances of the acceptance suite: 1e-10 for anything that passes
#: through an eigensolver, 1e-14 for the corner and the decay factors.
SPECTRAL_TOL = 1e-10
EXACT_TOL = 1e-14
#: Death times: relative 1e-8 above one time unit, absolute 1e-8 below it
#: (the acceptance suite's absolute tolerance on t* = 2 ln 2).
ESD_TIME_TOL = 1e-8
#: The package's analytic death time evaluates the same closed form.
ANALYTIC_TIME_TOL = 1e-12


def gammas(kind: str, rate_a: float, rate_b: float, t):
    """Decay factors exp(-rate t / 2); an idle subsystem keeps factor 1."""
    t = np.asarray(t, dtype=float)
    ga = np.exp(-rate_a * t / 2.0) if kind in ("qubit", "multilocal") else np.ones_like(t)
    gb = np.exp(-rate_b * t / 2.0) if kind in ("qutrit", "multilocal") else np.ones_like(t)
    return ga, gb


def effective_rate(kind: str, rate_a: float, rate_b: float) -> float:
    return (rate_a if kind != "qutrit" else 0.0) + (rate_b if kind != "qubit" else 0.0)


def expected_esd_time(kind: str, x: float, rate_a: float, rate_b: float):
    """'never-entangled', 'no-death', or the death time 2 ln(8x) / rate_eff."""
    if x <= 0.125:
        return "never-entangled"
    rate = effective_rate(kind, rate_a, rate_b)
    if rate == 0.0:
        return "no-death"
    return 2.0 * math.log(8.0 * x) / rate


def check_curve(req, code: int, text: str):
    """A `esd curve` CSV against the family's closed forms, row by row."""
    if code != 0:
        return f"exit code {code}"
    header, _, body = text.partition("\n")
    if header != CSV_HEADER:
        return f"header {header!r}"
    try:
        rows = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float).reshape(-1, 7)
    except ValueError as exc:
        return f"unparseable CSV: {exc}"
    if rows.shape[0] != req.steps:
        return f"{rows.shape[0]} rows, expected {req.steps}"
    t = rows[:, 0]
    grid = req.t_max * np.arange(req.steps) / (req.steps - 1)
    if not np.all(np.abs(t - grid) <= 1e-12 * req.t_max):
        return "time grid is not uniform on [0, t_max]"
    ga, gb = gammas(req.kind, req.rate_a, req.rate_b, t)
    xg = req.x * ga * gb
    expected = (
        (1, ga, EXACT_TOL, "gamma_a"),
        (2, gb, EXACT_TOL, "gamma_b"),
        (3, xg, EXACT_TOL, "corner"),
        (4, np.maximum(0.0, xg - 0.125), SPECTRAL_TOL, "negativity_numeric"),
        (5, np.maximum(0.0, xg - 0.125), SPECTRAL_TOL, "negativity_analytic"),
        (6, (1.0 - 8.0 * xg) / 8.0, SPECTRAL_TOL, "min_pt_eigenvalue"),
    )
    for col, want, tol, name in expected:
        dev = np.abs(rows[:, col] - want)
        if not np.all(dev <= tol):
            worst = int(np.nanargmax(np.where(np.isnan(dev), np.inf, dev)))
            return f"{name} off by {dev[worst]:.3e} at t={float(t[worst])!r} (tol {tol:g})"
    return None


def check_esd_time(req, code: int, text: str):
    """`esd esd-time` output against 2 ln(8x) / rate_eff and its classification."""
    if code != 0:
        return f"exit code {code}"
    expected = expected_esd_time(req.kind, req.x, req.rate_a, req.rate_b)
    lines = text.split("\n")
    if isinstance(expected, str):
        return None if text == expected + "\n" else f"expected {expected!r}, got {text[:80]!r}"
    fields = dict(line.split(" ", 1) for line in lines if " " in line)
    try:
        analytic = float(fields["analytic_esd_time"])
        numeric = float(fields["numeric_esd_time"])
    except (KeyError, ValueError):
        return f"expected a death time, got {text[:80]!r}"
    if not abs(analytic - expected) <= ANALYTIC_TIME_TOL * max(1.0, expected):
        return f"analytic {analytic!r} vs {expected!r}"
    if not abs(numeric - expected) <= ESD_TIME_TOL * max(1.0, expected):
        return f"numeric {numeric!r} vs {expected!r} (tol {ESD_TIME_TOL:g} x max(1, t*))"
    return None


def partial_transpose(mat: np.ndarray, side: str) -> np.ndarray:
    """Partial transpose of a 2x3 state by reshape, the first factor slow."""
    blocks = mat.reshape(2, 3, 2, 3)
    blocks = blocks.transpose(2, 1, 0, 3) if side == "A" else blocks.transpose(0, 3, 2, 1)
    return blocks.reshape(6, 6)


def pt_negativity(mat: np.ndarray, side: str):
    """(negativity, smallest PT eigenvalue) from LAPACK's eigvalsh.

    No threshold: the package zeroes eigenvalues above -1e-10, which moves
    the sum by at most 1e-10, inside SPECTRAL_TOL.
    """
    eigs = np.linalg.eigvalsh(partial_transpose(mat, side))
    return float(-np.sum(eigs[eigs < 0.0])), float(eigs[0])


def read_state_text(text: str) -> np.ndarray:
    """Parse the plain-text matrix format: a `dims 2 3` line, then six rows."""
    lines = text.split("\n")
    if lines[0] != "dims 2 3" or len(lines) != 8 or lines[7] != "":
        raise ValueError(f"unexpected layout {text[:40]!r}")
    return np.array([[complex(tok) for tok in line.split()] for line in lines[1:7]], dtype=complex)


def check_state(req, out):
    """A parse -> negativity -> format round trip, or the refusal of bad input."""
    if isinstance(out, str):  # refusal: "<ExceptionType>: message"
        return None if not req.valid else f"valid state refused: {out}"
    if not req.valid:
        return f"invalid state ({req.label}) accepted"
    parsed, neg_a, neg_b, text_out = out
    if not np.array_equal(parsed, req.mat):
        return "parse_state changed the matrix"
    try:
        if not np.array_equal(read_state_text(text_out), req.mat):
            return "format_state does not round-trip"
    except ValueError as exc:
        return f"format_state output unreadable: {exc}"
    for side, (value, lowest) in (("A", neg_a), ("B", neg_b)):
        want, want_lowest = pt_negativity(req.mat, side)
        if not (abs(value - want) <= SPECTRAL_TOL and abs(lowest - want_lowest) <= SPECTRAL_TOL):
            return f"side {side}: negativity {value!r} vs {want!r}, min eig {lowest!r} vs {want_lowest!r}"
    return None
