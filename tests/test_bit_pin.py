"""One sha256 per numeric route, over a grid wide enough that a one-ulp change anywhere shows.

The goldens (test_golden.py) pin a few CLI outputs; this pins the routes
under them on many more points: sweep rows, death-time probe values, death
times, evolved states and the checked eigensolver on dense matrices. Every
input is built from Python floats (no numpy transcendental, no BLAS), so
the digests do not depend on the host's SIMD dispatch, and CI runs this
file on numpy's baseline loops too. The decay factors are math.exp's bits,
as the goldens' are.

A deliberate change of bits updates the constant and says why in
CHANGES.md, as the goldens do.
"""

import hashlib
import random

import numpy as np
import pytest

from esdsim import (BracketError, Scenario, ScenarioKind, analytic_esd_time, channels, evolve, hermitian_eigenvalues,
                    numeric_esd_time, scalar, sweep)

XS = (0.0, 0.125, 0.2, 0.25, 0.13, 0.1251, 0.2499)
RATES = ((1.0, 1.0), (0.0, 2.0), (1.3, 0.7), (1e-3, 50.0), (1e308, 1e-308))
SPECIAL_TIMES = (0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 2.0 * 0.6931471805599453, 10.0, 1e6, 1e300, float("inf"))
GRIDS = (
    [4.0 * i / 4000 for i in range(4001)],
    [0.0] + [10.0 ** (k / 4) for k in range(-1200, 1201)] + [float("inf")],
    list(SPECIAL_TIMES),
)

PINS = {
    "sweep": "15b67047de549248ada1835528495d4c8b5a53b54ad28ee4cf065608061b8100",
    "probe": "2b077248f6cfe348f066d1cd2a3edead6963931b8e7d90137c9f7537768d9807",
    "death_time": "c8765ed3f3aecc359f021728d9c331ec50a78ec21c9b489cee424fe32a514244",
    "evolve": "fae57bf8b5192bc1b644b63371b34e6fbcb43a3fbded33da0a8492af785e8a3f",
    "mask": "cb6238a0920490c7647f717764dae7897b972f6dc18709ed40ec489d42424f4f",
    "dense": "3f1c6cac4b4963ff4a0272ce3e7fb448d8680928e7cb84e50d1032509130ecd7",
}


def scenarios():
    for kind in ScenarioKind:
        for x in XS:
            for rate_a, rate_b in RATES:
                yield Scenario(kind, x, rate_a, rate_b)


def outcome(call, *args):
    """repr of the result, which round-trips a float exactly, or the exception's type and message."""
    try:
        return repr(call(*args))
    except (BracketError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def digest_sweep():
    digest = hashlib.sha256()
    grids = [np.array(grid) for grid in GRIDS]
    for s in scenarios():
        for grid in grids:
            digest.update(sweep(s, grid).tobytes())
    return digest.hexdigest()


def digest_probe():
    digest = hashlib.sha256()
    for s in scenarios():
        for t in SPECIAL_TIMES:
            digest.update(repr(scalar._family_probe()(s, t)).encode())
    return digest.hexdigest()


def digest_death_time():
    digest = hashlib.sha256()
    for s in scenarios():
        digest.update(f"{outcome(analytic_esd_time, s)} {outcome(numeric_esd_time, s)}\n".encode())
    return digest.hexdigest()


def digest_evolve():
    digest = hashlib.sha256()
    for s in scenarios():
        for t in SPECIAL_TIMES:
            digest.update(evolve(s, t).mat.tobytes())
    return digest.hexdigest()


def digest_mask():
    """The six mask products, as Python floats (the probe's) and as arrays (dephasing_mask, for sweep and evolve).

    The x-family's nonzero entries meet only the products 1, ga and
    ga * gb, so this route alone pins gb^2 and ga * gb^2, which the
    entries of a dense state meet.
    """
    rng = random.Random(7)
    factors = [0.0, 5e-324, 1e-160, 0.5, 1.0] + [rng.random() for _ in range(200)]
    digest = hashlib.sha256()
    for ga in factors:
        digest.update(repr([scalar._mask_products(ga, gb) for gb in factors]).encode())
        digest.update(channels.dephasing_mask(ga, np.array(factors)).tobytes())
    return digest.hexdigest()


def dense_matrices():
    """Exactly Hermitian n x n matrices from Python's Mersenne Twister, n = 2..9.

    n up to 6 takes the generated one-matrix kernel, n above it the stack
    route. Some entries are exact zeros of either sign, and one matrix per
    size is scaled past 1e150, so that the checked entry divides it first.
    """
    rng = random.Random(31)
    for n in range(2, 10):
        for trial in range(12):
            rows = [[0j] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = complex(rng.uniform(-1.0, 1.0), 0.0)
                for j in range(i + 1, n):
                    re, im = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
                    if rng.random() < 0.2:
                        re, im = rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0))
                    rows[i][j], rows[j][i] = complex(re, im), complex(re, -im)
            scale = 1e200 if trial == 0 else 1.0
            yield np.array([[complex(z.real * scale, z.imag * scale) for z in row] for row in rows])


def digest_dense():
    digest = hashlib.sha256()
    for mat in dense_matrices():
        digest.update(hermitian_eigenvalues(mat).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("route", list(PINS))
def test_route_bits_are_pinned(route):
    assert globals()[f"digest_{route}"]() == PINS[route]
