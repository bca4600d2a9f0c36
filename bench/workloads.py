"""The three workloads: seeded inputs, the timed call, and its output check.

Inputs follow a fixed schedule over the request index (which scenario,
which input class), with the values drawn from the seed. So every run
sees the same mix in the same proportions, and a seed changes only the
numbers. See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

KINDS = ("qubit", "qutrit", "multilocal")


@dataclass(frozen=True)
class CliRequest:
    """One `esd` invocation and the parameters its argv encodes."""

    label: str
    argv: tuple
    kind: str
    x: float
    rate_a: float
    rate_b: float
    t_max: float = 0.0
    steps: int = 0


@dataclass(frozen=True)
class StateRequest:
    """A state in the plain-text format and the matrix it encodes."""

    label: str
    text: str
    mat: np.ndarray
    valid: bool


@dataclass(frozen=True)
class Workload:
    name: str
    #: Per-request deadline; a request still running then counts as failed.
    deadline_s: float
    #: Requests generated per seed; a run sends them in whole passes.
    size: int
    make: Callable
    call: Callable
    check: Callable
    digest: Callable


def _log_uniform(rng, lo, hi) -> float:
    return _log_scale(float(rng.uniform()), lo, hi)


def _log_scale(u: float, lo: float, hi: float) -> float:
    return float(lo * (hi / lo) ** u)


def _strata(rng, n: int) -> np.ndarray:
    """n draws in [0, 1), one in each of n equal bins, in random order.

    Two seeds then give requests of nearly the same mix of costs, and only
    the values differ.
    """
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def _argv(mode, kind, x, rate_a, rate_b, *extra):
    return (mode, "--scenario", kind, "--x", repr(x), "--rate-a", repr(rate_a),
            "--rate-b", repr(rate_b), *extra)


# -- curve ---------------------------------------------------------------

CURVE_STEPS = 1001


def make_curve(rng, n):
    """Scenarios cycle; in each block of 12 the last 3 start unentangled."""
    reqs = []
    for i in range(n):
        kind = KINDS[i % 3]
        low = (i // 3) % 4 == 3
        x = float(rng.uniform(0.0, 0.125)) if low else float(rng.uniform(0.15, 0.25))
        rate_a, rate_b = _log_uniform(rng, 0.1, 10.0), _log_uniform(rng, 0.1, 10.0)
        rate = oracles.effective_rate(kind, rate_a, rate_b)
        # an unentangled curve gets the window of an x = 1/4 curve
        t_star = 2.0 * math.log(2.0 if low else 8.0 * x) / rate
        t_max = 3.0 * t_star * float(rng.uniform(0.9, 1.1))
        argv = _argv("curve", kind, x, rate_a, rate_b, "--t-max", repr(t_max), "--steps", str(CURVE_STEPS))
        reqs.append(CliRequest("unentangled" if low else "entangled", argv, kind, x, rate_a, rate_b,
                               t_max, CURVE_STEPS))
    return reqs


def call_cli(pkg, req):
    """esdsim.cli.main(argv) in-process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(list(req.argv))
    return code, out.getvalue()


def digest_cli(out) -> bytes:
    code, text = out
    return f"{code}\n{text}".encode()


# -- esd_time ------------------------------------------------------------

def make_esd_time(rng, n):
    """Per 20 queries: 2 never-entangled, 1 no-death, 1 with t* > 1e6.

    Entangled queries have x in [0.15, 0.25]; see README.md for what this
    range leaves out. The bisection's probe count grows with log(1/rate),
    so the rates of each scenario are stratified over their range.
    """
    per_kind = -(-n // len(KINDS))
    strata_a = [_strata(rng, per_kind) for _ in KINDS]
    strata_b = [_strata(rng, per_kind) for _ in KINDS]
    reqs = []
    for i in range(n):
        kind = KINDS[i % 3]
        slot = i % 20
        rate_a = _log_scale(strata_a[i % 3][i // 3], 1e-3, 1e2)
        rate_b = _log_scale(strata_b[i % 3][i // 3], 1e-3, 1e2)
        if slot in (3, 13):
            label, x = "never-entangled", float(rng.uniform(0.0, 0.125))
        else:
            x = float(rng.uniform(0.15, 0.25))
            label = "finite"
            if slot == 8:
                label = "no-death"
                rate_a = 0.0 if kind != "qutrit" else rate_a
                rate_b = 0.0 if kind != "qubit" else rate_b
            elif slot == 17:
                label = "t*>1e6"
                rate = 2.0 * math.log(8.0 * x) / _log_uniform(rng, 1e6, 1e8)
                share = float(rng.uniform(0.2, 0.8)) if kind == "multilocal" else 1.0
                if kind != "qutrit":
                    rate_a = rate * share
                if kind != "qubit":
                    rate_b = rate * (1.0 - share) if kind == "multilocal" else rate
        reqs.append(CliRequest(label, _argv("esd-time", kind, x, rate_a, rate_b), kind, x, rate_a, rate_b))
    return reqs


# -- states_io -----------------------------------------------------------

_MIN_VALID_EIG = 1e-6


def state_text(mat: np.ndarray) -> str:
    """Write a matrix in the plain-text format, 17 significant digits."""
    rows = (" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in mat)
    return "dims 2 3\n" + "\n".join(rows) + "\n"


def _dense_state(rng):
    """Full-rank G G^dagger / tr, exactly Hermitian."""
    while True:
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        m = g @ g.conj().T
        m = 0.5 * (m + m.conj().T)
        m /= m.trace().real
        if np.linalg.eigvalsh(m)[0] >= _MIN_VALID_EIG:
            return m


_JOINT_SLOTS = ((0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4))


def _coherent_state(rng):
    """Real state whose coherences sit only where both factor indices change."""
    d = rng.uniform(0.5, 1.5, 6)
    d /= d.sum()
    scale = float(rng.uniform(0.2, 0.9))
    signs = rng.uniform(-1.0, 1.0, len(_JOINT_SLOTS))
    while True:
        m = np.diag(d).astype(complex)
        for (i, j), s in zip(_JOINT_SLOTS, signs):
            m[i, j] = m[j, i] = scale * s * math.sqrt(d[i] * d[j])
        if np.linalg.eigvalsh(m)[0] >= _MIN_VALID_EIG:
            return m
        scale *= 0.5


_INVALID = ("non-hermitian", "trace", "negative-eigenvalue", "non-finite")


def _invalid_state(rng, kind, occurrence):
    m = _dense_state(rng)
    if kind == "non-hermitian":
        m[0, 1] += 1e-6 * (1.0 + 1.0j)
    elif kind == "trace":
        m *= 1.0 + 1e-3
    elif kind == "negative-eigenvalue":
        vecs = np.linalg.eigh(m)[1]
        vals = rng.uniform(0.1, 1.0, 6)
        vals[0] = -0.02
        m = (vecs * vals) @ vecs.conj().T
        m = 0.5 * (m + m.conj().T)
        m /= m.trace().real
    else:
        p, q = (int(v) for v in rng.choice(6, size=2, replace=False))
        m[p, q] = m[q, p] = float("nan") if occurrence % 2 == 0 else float("inf")
    return m


def make_states(rng, n):
    """Per 20 states: 1 invalid (the four kinds in turn), 4 jointly coherent, 15 dense."""
    reqs = []
    for i in range(n):
        if i % 20 == 9:
            kind = _INVALID[(i // 20) % 4]
            m = _invalid_state(rng, kind, i // 80)
            reqs.append(StateRequest(kind, state_text(m), m, False))
        elif i % 5 == 2:
            m = _coherent_state(rng)
            reqs.append(StateRequest("coherent", state_text(m), m, True))
        else:
            m = _dense_state(rng)
            reqs.append(StateRequest("dense", state_text(m), m, True))
    return reqs


def call_states(pkg, req):
    """parse_state (validate, one eigensolve) -> negativity A and B -> format_state."""
    try:
        rho = pkg.parse_state(req.text)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    neg_a = pkg.negativity(rho, "A")
    neg_b = pkg.negativity(rho, "B")
    text = pkg.format_state(rho)
    return (rho.mat, (neg_a.value, neg_a.min_pt_eigenvalue), (neg_b.value, neg_b.min_pt_eigenvalue), text)


def digest_states(out) -> bytes:
    if isinstance(out, str):
        return f"refused {out}\n".encode()
    _, (va, la), (vb, lb), text = out
    return f"{text}{va.hex()} {la.hex()} {vb.hex()} {lb.hex()}\n".encode()


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("curve", 5.0, 12, make_curve, call_cli, lambda r, o: oracles.check_curve(r, *o), digest_cli),
        Workload("esd_time", 0.2, 200, make_esd_time, call_cli,
                 lambda r, o: oracles.check_esd_time(r, *o), digest_cli),
        Workload("states_io", 1.0, 200, make_states, call_states, oracles.check_state, digest_states),
    )
}


def make_requests(workload: Workload, seed: int):
    """The workload's requests; the same seed gives the same requests."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload.name)])
    return workload.make(rng, workload.size)
