"""The pure-Python half of esdsim: everything a death time runs, importing neither numpy nor dataclasses.

`esd esd-time` runs on this module alone, so its process never loads
numpy (about 0.1 s of a 0.15 s start-up), nor dataclasses and the
inspect module it imports (about 8 ms). It holds:

- the family's Scenario, a plain frozen class, which keeps its checked
  kind, corner x and rates;
- the split of the x-state's side-A partial transpose, written in closed
  form as module constants (_LIVE_ROWS, _live_pairs, _INERT_MIN), which
  sweep and the probe read;
- the death-time route: Illinois regula falsi (numeric_esd_time) on the
  probe and the closed form (analytic_esd_time);
- the decay factor and the six products that the dephasing mask gathers;
- the generator of the one-matrix Jacobi kernel, _jacobi_kernel(n), which
  linalg's checked entry calls, and of the probe, _family_probe(), one
  straight-line function that runs the kernel's sweep loop on the
  family's live 2x2 block in its locals; both emit that loop from one
  helper, _jacobi_sweep_lines, and compile on first use, so importing
  this module compiles neither. The kernel's float operations are set
  out in the linalg module docstring.

Nothing here imports numpy or dataclasses: Scenario.gamma_factors takes
an array of times only from a caller that has loaded numpy, and
Scenario.initial_state, a DensityMatrix, is built on first read.
"""

from __future__ import annotations

import enum
import math
import sys
from functools import cache, cached_property

# anything that passes through the eigensolver is compared at 1e-10
SPECTRAL_TOL = 1e-10

_JACOBI_OFF_TOL = 1e-13
_MAX_JACOBI_SWEEPS = 60

#: Fixed diagonal of the one-parameter family.
ANSATZ_DIAGONAL = (0.25, 0.125, 0.125, 0.125, 0.125, 0.25)

#: Largest corner coherence compatible with positivity of that diagonal.
ANSATZ_X_MAX = 0.25

#: The slot carrying the one-parameter family's single coherence.
CORNER_SLOT = (0, 5)

#: Corner values at or below 1/8 never produce entanglement.
ENTANGLEMENT_THRESHOLD_X = 0.125

#: The columns of a sampled curve, in CSV order; the record array sweep returns has one float field each.
CURVE_FIELDS = ("t", "gamma_a", "gamma_b", "corner", "negativity_numeric", "negativity_analytic",
                "min_pt_eigenvalue")

_EPS = sys.float_info.epsilon
_MAX_ROOT_ITERATIONS = 200

# the qubit-qutrit composite's size, 2 x 3: the largest one-matrix kernel, and the n of the skip rule below
_DIM_A, _DIM_B = 2, 3
_N = _DIM_A * _DIM_B

# the skip rule of the full 6x6 partial transpose, off_tol / (2n), for the live block sweep and the probe solve
_PT_SKIP_TOL = _JACOBI_OFF_TOL / (2 * _N)

# _TERM_ROWS[i][j] is the index in _mask_products' six products of entry (i, j) of M_A(ga) (x) M_B(gb): a
# qubit exponent in {0, 1} (rows of ((0, 2, 3), (1, 4, 5))) times a qutrit exponent in {0, 1, 2} (columns)
_QUBIT_EXPONENTS = ((0, 1), (1, 0))
_QUTRIT_EXPONENTS = ((0, 1, 1), (1, 0, 2), (1, 2, 0))
_TERM_ROWS = [[((0, 2, 3), (1, 4, 5))[_QUBIT_EXPONENTS[i // _DIM_B][j // _DIM_B]]
               [_QUTRIT_EXPONENTS[i % _DIM_B][j % _DIM_B]] for j in range(_N)] for i in range(_N)]

# PT_A[(a, b), (a', b')] = rho[(a', b), (a, b')], with index i = 3a + b, keeps the diagonal and moves the corner
# pair, CORNER_SLOT and its mirror, to (q, p) and (p, q), p < q: the rows of the live block, which x couples.
# Every other row is inert: it keeps its diagonal entry and no other.
_LIVE_ROWS = tuple(sorted(_DIM_B * (j // _DIM_B) + i % _DIM_B for i, j in (CORNER_SLOT, CORNER_SLOT[::-1])))
# the (entry, _TERM_ROWS index) pairs of the live block's diagonal, the terms of its (p, q) and (q, p), which
# hold x, and its imaginary part, every entry +0.0, flat row-major
_LIVE_DIAGONAL = tuple((ANSATZ_DIAGONAL[i], _TERM_ROWS[i][i]) for i in _LIVE_ROWS)
_LIVE_OFF_TERMS = tuple(_TERM_ROWS[i][j] for i in _LIVE_ROWS for j in _LIVE_ROWS if i != j)
_LIVE_IM = tuple((0.0, _TERM_ROWS[i][j]) for i in _LIVE_ROWS for j in _LIVE_ROWS)
# the least diagonal entry of the inert rows, 1/8 for every x: their eigenvalues are their diagonal entries
_INERT_MIN = min(d for i, d in enumerate(ANSATZ_DIAGONAL) if i not in _LIVE_ROWS)


def decay_factor(rate: float, t: float) -> float:
    """gamma(t) = exp(-t * rate / 2), exactly 1 when rate or t is 0.

    rate and t are taken as Python floats first, so a numpy float32 or
    float16 computes in float64 too. It checks neither: Scenario checks
    the rate and gamma_factors the time, and the Kraus builders check the
    gamma they are given.
    """
    rate, t = float(rate), float(t)
    return 1.0 if rate == 0.0 else math.exp(-0.5 * t * rate)


def _mask_products(gamma_a, gamma_b) -> tuple:
    """The six products (1.0, ga, gb, gb^2, ga*gb, ga*gb^2) that _TERM_ROWS indexes, one rounding each.

    channels.dephasing_mask takes them of float arrays and the death-time
    probe of Python floats, which round alike.
    """
    gb2 = gamma_b * gamma_b
    return 1.0, gamma_a, gamma_b, gb2, gamma_a * gamma_b, gamma_a * gb2


# _mask_products' six products as source, with its roundings, for the generated probe
_MASK_PRODUCT_SOURCE = ("1.0", "gamma_a", "gamma_b", "gamma_b * gamma_b", "gamma_a * gamma_b",
                        "gamma_a * (gamma_b * gamma_b)")


class ScenarioKind(enum.Enum):
    QUBIT_ONLY = "qubit"
    QUTRIT_ONLY = "qutrit"
    MULTI_LOCAL = "multilocal"


class EsdOutcome(enum.Enum):
    """Non-numeric death-time results."""

    NEVER_ENTANGLED = "never-entangled"
    NO_DEATH = "no-death"


EsdTime = float | EsdOutcome


class BracketError(RuntimeError):
    """The death-time search has no usable window or did not converge.

    Raised when no noise acts, when the default window overflows to
    infinity, or when the root finder hits its iteration cap.
    """


def _corner(x) -> float:
    """x + 0.0 in float64, so that a -0.0 is 0.0: the x-state's corner entry.

    Any x outside [0, ANSATZ_X_MAX] raises ValueError: the one check of
    x, made when a Scenario is built and by states.ansatz_x.
    """
    if not 0.0 <= x <= ANSATZ_X_MAX:
        raise ValueError(f"x must lie in the positivity range [0, {ANSATZ_X_MAX}], got {x}")
    return float(x + 0.0)


def _live_pairs(x) -> tuple:
    """The real and imaginary (entry, _TERM_ROWS index) pairs of the live block for a corner x, flat row-major.

    x is only placed, never computed with: sweep places the Scenario's
    corner, and _family_probe the name of the probe's local that holds it.
    At x = 0 the block is diagonal, 1/8 on both rows, and the kernels'
    first stopping test returns that diagonal, so the least eigenvalue is
    _INERT_MIN and the negativity 0.0, as when no row is live.
    """
    (pp, qq), (pq, qp) = _LIVE_DIAGONAL, _LIVE_OFF_TERMS
    return (pp, (x, pq), (x, qp), qq), _LIVE_IM


def _frozen(self, name, *value):
    """Scenario's __setattr__ and __delattr__: AttributeError, with a frozen dataclass's message."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Scenario:
    """Which subsystems are noisy, the initial corner x, and the rates.

    rate_a is ignored by QUTRIT_ONLY and rate_b by QUBIT_ONLY; both act
    in MULTI_LOCAL. Construction is the one check of kind (a ScenarioKind
    or its value, stored as the member), x and the rates, stored as Python
    floats plus 0.0, so that a -0.0 is kept as 0.0. It keeps nothing of
    the partial transpose: the family fixes all of it but x, so sweep and
    the death-time probe take its split from x and the module's closed
    form (_live_pairs, _INERT_MIN). It stores the rates as they act in
    rates, an idle side's as 0.0, which gamma_factors and the probe read,
    so that a probe tests no kind; gamma_factors checks t. None of this
    imports numpy. initial_state, the x-state as a DensityMatrix, which
    evolve reads, is built on first read.

    A plain frozen class, not a dataclass, so that importing this module
    loads neither dataclasses nor inspect: it compares, hashes and prints
    as a frozen dataclass of kind, x, rate_a and rate_b would, and a
    changed copy is a constructor call, Scenario(s.kind, s.x, s.rate_a,
    rate_b=...).
    """

    __match_args__ = ("kind", "x", "rate_a", "rate_b")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, kind, x, rate_a=1.0, rate_b=1.0):
        kind = ScenarioKind(kind)  # ValueError for anything else
        x = _corner(x)
        checked = []
        for name, rate in (("rate_a", rate_a), ("rate_b", rate_b)):
            if not math.isfinite(rate) or rate < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")
            checked.append(float(rate) + 0.0)  # checked, so a str has raised TypeError
        rate_a, rate_b = checked
        rates = (0.0 if kind is ScenarioKind.QUTRIT_ONLY else rate_a,
                 0.0 if kind is ScenarioKind.QUBIT_ONLY else rate_b)
        if not math.isfinite(sum(rates)):
            raise ValueError(f"rate_a + rate_b must be finite, got {rate_a} + {rate_b}")
        self.__dict__.update(kind=kind, x=x, rate_a=rate_a, rate_b=rate_b, rates=rates)

    def __reduce__(self):  # a copy or pickle carries the arguments; __init__ checks them and rebuilds rates
        return type(self), (self.kind, self.x, self.rate_a, self.rate_b)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.x, self.rate_a, self.rate_b) == (other.kind, other.x, other.rate_a, other.rate_b)

    def __hash__(self):
        return hash((self.kind, self.x, self.rate_a, self.rate_b))

    def __repr__(self):
        return (f"{type(self).__qualname__}(kind={self.kind!r}, x={self.x!r}, rate_a={self.rate_a!r}, "
                f"rate_b={self.rate_b!r})")

    @cached_property
    def initial_state(self):
        """The x-state as a read-only DensityMatrix, states.ansatz_x(x), built on first read and kept."""
        from .states import ansatz_x  # numpy: only evolve and the tests read it

        return ansatz_x(self.x)

    def effective_rate(self) -> float:
        """Sum of the rates that actually act in this scenario."""
        return sum(self.rates)

    def gamma_factors(self, t) -> tuple:
        """(gamma_a, gamma_b) at time t >= 0 (else ValueError); rate 0 keeps factor 1.

        For a numpy array of times the factors are arrays of its shape,
        each entry bit-equal to decay_factor's for that time alone, and
        every entry is checked. A time of any float type is taken in
        float64. An array comes from a caller that has loaded numpy, so
        this reaches for numpy only then, in sys.modules.
        """
        rate_a, rate_b = self.rates
        np = None if isinstance(t, float) else sys.modules.get("numpy")
        if np is not None and isinstance(t, np.ndarray) and t.ndim:
            bad = ~(t >= 0.0)
            if bad.any():
                raise ValueError(f"t must be >= 0, got {t[bad][0]}")
            # decay_factor's exp(-0.5 * t * rate), its product rounded as Python rounds it: it may
            # overflow to -inf, whose exp is 0.0, and at t = 0 it is a zero, whose exp is 1.0. An
            # idle side gets ones. math.exp runs point by point: np.exp differs from it in the last bit.
            half = -0.5 * t.ravel().astype(float)
            with np.errstate(over="ignore"):
                return tuple(np.fromiter(map(math.exp, (half * rate).tolist()), float, t.size).reshape(t.shape)
                             if rate else np.ones(t.shape) for rate in (rate_a, rate_b))
        if not t >= 0.0:
            raise ValueError(f"t must be >= 0, got {t}")
        return decay_factor(rate_a, t), decay_factor(rate_b, t)

    def gamma_product(self, t):
        return math.prod(self.gamma_factors(t))


def analytic_esd_time(scenario: Scenario) -> EsdTime:
    """Closed-form death time, or the variant explaining why there is none.

    NEVER_ENTANGLED when x <= 1/8 (negativity starts at zero); NO_DEATH
    when x > 1/8 but no noise acts, so the entanglement persists forever.
    """
    if scenario.x <= ENTANGLEMENT_THRESHOLD_X:
        return EsdOutcome.NEVER_ENTANGLED
    rate = scenario.effective_rate()
    if rate == 0.0:
        return EsdOutcome.NO_DEATH
    return 2.0 * math.log(8.0 * scenario.x) / rate


def default_bracket(scenario: Scenario) -> float:
    """Search window generous enough for any x in range: 10x the worst t*."""
    rate = scenario.effective_rate()
    if rate == 0.0:
        raise BracketError("no noise acts in this scenario; negativity never decays")
    return 10.0 * (2.0 * math.log(2.0)) / rate


def numeric_esd_time(scenario: Scenario) -> EsdTime:
    """Find the death time as the root of the smallest PT eigenvalue.

    Every probe, the function _family_probe() returns, dephases,
    transposes and solves with evolve's bits, so this is an independent
    check on the closed form. The bracket [0, default_bracket(scenario)]
    is closed by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971)
    until its width is at most 4*eps*max(|a|, |b|), i.e. to machine
    precision; the midpoint of the final bracket is returned. The window
    is 10x the largest possible t*, so the eigenvalue at its end is
    (1 - 8x/2^10)/8 > 0.12 and the bracket always holds the sign change.

    Returns NEVER_ENTANGLED when the state starts with zero negativity.
    Raises BracketError when no noise acts, when the window is not
    finite (rates below about 7.7e-308) or when the iteration cap is
    reached.
    """
    probe = _family_probe()
    a, fa = 0.0, probe(scenario, 0.0)
    if not fa < -SPECTRAL_TOL:  # the negativity's test of entanglement
        return EsdOutcome.NEVER_ENTANGLED
    b = default_bracket(scenario)
    if not math.isfinite(b):
        raise BracketError(f"search window t_max = {b} is not finite; the dephasing rate is too small")
    fb = probe(scenario, b)
    side = 0  # which end moved last: -1 for a, +1 for b
    for _ in range(_MAX_ROOT_ITERATIONS):
        if b - a <= 4.0 * _EPS * max(abs(a), abs(b)):
            return a + 0.5 * (b - a)
        c = b - fb * (b - a) / (fb - fa)
        if not a < c < b:
            c = a + 0.5 * (b - a)
            if not a < c < b:  # a and b are adjacent floats
                return c
        fc = probe(scenario, c)
        if fc == 0.0:
            return c
        if fc < 0.0:
            a, fa = c, fc
            if side == -1:
                fb *= 0.5
            side = -1
        else:
            b, fb = c, fc
            if side == +1:
                fa *= 0.5
            side = +1
    raise BracketError(f"no convergence in {_MAX_ROOT_ITERATIONS} iterations; last bracket [{a!r}, {b!r}]")


# _jacobi_kernel's source for the rotation of the pair (p, q), at the depth of its sweep loop's body,
# with {others} holding _JACOBI_OTHER once for each other row k, in ascending order; r{i}_{j} and
# i{i}_{j} are the real and imaginary parts of entry (i, j). abs(complex(...)) is libm's hypot, as
# np.hypot in the stack kernel, and t the smaller root of t^2 + 2 tau t - 1 = 0, the numerically
# stable choice. _JACOBI_OTHER updates columns p and q of row k and their conjugates in rows p and
# q, keeping in xr, xi and yr only the old entries it reads after overwriting them, so that the
# source stays as small as it can. Then the column step runs on rows p and q only where the row step
# reads it, (p, p) and (p, q) of row p and all of (q, p) and (q, q), and the row step on the 2x2
# block keeps only the real diagonal: s * phase = conj(S), c * phase = conj(C).
_JACOBI_PAIR = """\
        if r{p}_{q} or i{p}_{q}:
            r = abs(complex(r{p}_{q}, i{p}_{q}))
            if r > skip_tol:
                inv = 1.0 / r
                phr = r{p}_{q} * inv
                phi = i{p}_{q} * inv
                tau = (r{q}_{q} - r{p}_{p}) / (2.0 * r)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                sr = s * phr
                si = -(s * phi)
                cr = c * phr
                ci = -(c * phi)
{others}\
                ppr = c * r{p}_{p} - (sr * r{p}_{q} - si * i{p}_{q})
                pqr = s * r{p}_{p} + (cr * r{p}_{q} - ci * i{p}_{q})
                qpr = c * r{q}_{p} - (sr * r{q}_{q} - si * i{q}_{q})
                qpi = c * i{q}_{p} - (sr * i{q}_{q} + si * r{q}_{q})
                qqr = s * r{q}_{p} + (cr * r{q}_{q} - ci * i{q}_{q})
                qqi = s * i{q}_{p} + (cr * i{q}_{q} + ci * r{q}_{q})
                r{p}_{p} = c * ppr - (sr * qpr + si * qpi)
                r{q}_{q} = s * pqr + (cr * qqr + ci * qqi)
                r{p}_{q} = i{p}_{q} = r{q}_{p} = i{q}_{p} = 0.0
"""
_JACOBI_OTHER = """\
                xr = r{k}_{p}
                xi = i{k}_{p}
                r{k}_{p} = r{p}_{k} = c * xr - (sr * r{k}_{q} - si * i{k}_{q})
                i{k}_{p} = c * xi - (sr * i{k}_{q} + si * r{k}_{q})
                i{p}_{k} = -i{k}_{p}
                yr = r{k}_{q}
                r{k}_{q} = r{q}_{k} = s * xr + (cr * yr - ci * i{k}_{q})
                i{k}_{q} = s * xi + (cr * i{k}_{q} + ci * yr)
                i{q}_{k} = -i{k}_{q}
"""


def _jacobi_sweep_lines(n: int, result: str) -> list:
    """The one-matrix kernel's sweep loop on an n x n matrix held in locals, as source lines of a function body.

    r{i}_{j} and i{i}_{j} hold the real and imaginary parts of entry
    (i, j); the loop reads off_tol and skip_tol as locals and
    _MAX_JACOBI_SWEEPS as a global when it runs. On convergence it
    returns result, whose {diagonal} is the diagonal's locals in order.
    """
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    return [
        "    sqrt = math.sqrt",
        "    for _ in range(_MAX_JACOBI_SWEEPS):",
        "        if sqrt(2.0 * (" + " + ".join(f"(r{p}_{q} * r{p}_{q} + i{p}_{q} * i{p}_{q})" for p, q in pairs)
        + ")) < off_tol:",
        "            return " + result.format(diagonal=", ".join(f"r{i}_{i}" for i in range(n))),
        *(_JACOBI_PAIR.format(p=p, q=q, others="".join(_JACOBI_OTHER.format(k=k, p=p, q=q)
                                                       for k in range(n) if k != p and k != q))
          for p, q in pairs),
        "    raise RuntimeError('Jacobi iteration did not converge; input may be pathological')",
    ]


def _compile_function(name: str, lines: list) -> Callable:
    """The function name that lines define, compiled with this module's globals, which it reads when it runs."""
    namespace = {}
    exec(compile("\n".join(lines), f"<{name}>", "exec"), globals(), namespace)
    return namespace[name]


@cache
def _jacobi_kernel(n: int) -> Callable:
    """The one-matrix Jacobi kernel for n x n, 2 <= n <= 6, generated and compiled on first use.

    It is kernel(re, im, off_tol, skip_tol) -> the diagonal, unsorted, as
    a list: re and im are the real and imaginary parts of one trusted
    matrix, each a flat row-major sequence of n * n floats, which it only
    reads. Trusted, not checked: exactly Hermitian, entries far below
    1e150, as linalg.hermitian_eigenvalues leaves it. The matrix lives in
    local variables, one per real or imaginary part of an entry, and one
    sweep is written out pair by pair: at 6x6, numpy's per-call overhead,
    and list subscripts, would cost more than the arithmetic. It does the
    linalg module docstring's float operations in its order, and
    linalg._jacobi_rotate_stack's: the rotation, the skip rule, with an
    exactly zero pair skipped before its hypot, which is 0 and so not
    above skip_tol, and the stopping rule, whose sum runs over the pairs
    in row-major order (with no leading 0.0: a term x^2 + y^2 is never
    -0.0, so 0.0 + term is term). It reads this module's
    _MAX_JACOBI_SWEEPS when called, as linalg._jacobi_stack does: the two
    kernels share one cap. skip_tol is the caller's, as
    linalg._jacobi_stack's is: off_tol / (2n) for the matrix itself, or
    the n of a larger matrix whose live block this is. Its sweep loop is
    _jacobi_sweep_lines(n), which the death-time probe runs too.

    The source grows as n^3, and so do its compile time and peak memory
    (about 15 ms and 3 MB at n = 6, 2 vCPU), so no size above the
    qubit-qutrit composite's is made: hermitian_eigenvalues solves a
    larger matrix as a stack of one.
    """
    if not 2 <= n <= _N:
        raise ValueError(f"the one-matrix kernel takes 2 <= n <= {_N}, got {n}")
    entries = [(i, j) for i in range(n) for j in range(n)]
    return _compile_function(f"_jacobi_{n}x{n}", [
        f"def _jacobi_{n}x{n}(re, im, off_tol, skip_tol):",
        "    " + ", ".join(f"r{i}_{j}" for i, j in entries) + " = re",
        "    " + ", ".join(f"i{i}_{j}" for i, j in entries) + " = im",
        *_jacobi_sweep_lines(n, "[{diagonal}]"),
    ])


@cache
def _family_probe() -> Callable:
    """The death-time probe, probe(scenario, t) -> negativity(evolve(scenario, t)).min_pt_eigenvalue, bit for bit.

    It is generated and compiled once per process, by the first death
    time, as one straight-line function, and makes no numpy call;
    numeric_esd_time fetches it here once per call, so a caller that
    replaces _family_probe wraps every probe. It is the general
    probe, tests/numeric_oracles.min_pt_eigenvalue_reference (any split's
    pairs times _mask_products, through _jacobi_kernel(L), then the min),
    written out for the family's split, with no list, no kernel call and
    no lookup of the block. It checks t with gamma_factors' test and
    message, takes the two decay factors from decay_factor and rounds the
    products that the block's terms name as _mask_products does
    (_MASK_PRODUCT_SOURCE). It writes the live block of PT_A(rho0), rows
    _LIVE_ROWS, into locals from _live_pairs, each entry x + iy as x * m
    and y * m, as in evolve and esd._pt_eigenvalues: the same floats,
    signed zeros included. On them it runs the one-matrix kernel's sweep
    loop (_jacobi_sweep_lines) with the full 6x6 solve's bits: an inert
    row stays exactly zero off the diagonal, and the skip rule, the one
    rule that reads n, takes n = 6 (_PT_SKIP_TOL). The inert rows'
    eigenvalues are their diagonal entries, x * 1.0 = x, whose least is
    _INERT_MIN, written in as a literal; the value is min(_INERT_MIN,
    block eigenvalues), the rule sweep applies to its rows too.

    The checked route symmetrizes the same floats with no complex product,
    which for an exactly Hermitian rho0 changes at most the sign of a zero
    entry; no kernel step divides by an entry, so that reaches at most the
    sign of an exactly zero eigenvalue. It takes the sorted spectrum's
    first entry where this takes the min: equal floats other than zeros
    have equal bits, so either order, too, reaches at most the sign of a
    zero eigenvalue.
    """
    size = len(_LIVE_ROWS)
    entries = [(i, j) for i in range(size) for j in range(size)]
    re_block, im_block = _live_pairs("x")
    cells = [(part, entry, value, term) for part, block in (("r", re_block), ("i", im_block))
             for entry, (value, term) in zip(entries, block)]
    return _compile_function("_min_pt_eigenvalue", [
        "def _min_pt_eigenvalue(scenario, t):",
        "    if not t >= 0.0:",
        "        raise ValueError(f't must be >= 0, got {t}')",
        "    rate_a, rate_b = scenario.rates",
        "    gamma_a = decay_factor(rate_a, t)",
        "    gamma_b = decay_factor(rate_b, t)",
        "    x = scenario.x",
        *(f"    m{term} = {_MASK_PRODUCT_SOURCE[term]}" for term in sorted({term for *_, term in cells})),
        *(f"    {part}{i}_{j} = {value if isinstance(value, str) else repr(value)} * m{term}"
          for part, (i, j), value, term in cells),
        f"    off_tol = {_JACOBI_OFF_TOL!r}",
        f"    skip_tol = {_PT_SKIP_TOL!r}",
        *_jacobi_sweep_lines(size, f"min({_INERT_MIN!r}, {{diagonal}})"),
    ])
