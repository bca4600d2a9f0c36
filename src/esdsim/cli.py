"""Command-line front end.

Modes: curve (default) writes a CSV negativity trajectory, esd-time
prints the death time, selfcheck runs the numeric cross-checks,
dump-state writes the evolved state in the plain-text matrix format.
Exit codes: 0 success, 1 usage error, no death time found in the
esd-time search window or a curve too large to allocate, 2 selfcheck
failure, 3 I/O error on --out or stdout. curve renders and writes its
CSV one sweep block of 1 024 rows at a time, so a write that fails
mid-stream leaves a truncated --out file, as a failed single large
write does too.

Only curve, dump-state and selfcheck load numpy, on their first run in
a process: esd-time, --help and a usage error run on esdsim.scalar
alone, which imports none, so an `esd esd-time` process starts in about
half the time (see the README).

The curve CSV prints each float as `"%.17g" % v` does, byte for byte,
but render_csv formats a whole block with numpy array steps (in
esdsim._render, which the first curve block imports), after
Grisu's pattern (Loitsch, PLDI 2010): a fast path in wider arithmetic
that hands every value it cannot decide to the exact routine. For
|v| = N * 10**(e - 16), e = floor(log10 |v|) from np.log10 and
T = |v| * 10**(16 - e) in [1e16, 1e17), N is T rounded to nearest:
- hi and lo are 10**(16 - e) and its remainder, each rounded to nearest
  from Python ints, so hi + lo is within 2**-106 of the power;
- p = fl(|v| * hi) and its error err are exact by Dekker's two-product
  on Veltkamp's 26-bit halves (separate numpy multiplies, no fused
  multiply-add, so no SIMD dispatch changes a bit; |v| in [1e-280, 1e280]
  keeps every partial product normal);
- s = err + |v| * lo is rounded twice, with |err| <= 8 and |v * lo| <= 12,
  so p + s is within 2**-53 * 32 + 1e17 * 2**-106, under 5e-15, of T:
  under 1e-13 of a unit in the 17th digit. p is an integer, so floor(s)
  and the remainder s - floor(s) decide N unless T's own remainder is
  within 5e-15 of a tie, far inside the 1e-6 margin that is refused.
The values refused, which _render._format_each formats by "%.17g":
- non-finite values, and |v| outside [1e-280, 1e280];
- a remainder within 1e-6 of a rounding tie (an exact tie, such as
  2**-25, goes there to be rounded half to even);
- an off-by-one floor(log10 |v|), which puts T outside [1e16, 1e17),
  or an N that rounds up to 1e17: floor(p + s) < 1e16 or N >= 1e17;
- a fixed-notation integer whose integer digits end in 0 (120), whose
  zeros the trailing-zero strip would cut.
The lookup tables are built when the first curve block imports
esdsim._render, never by `import esdsim.cli`.
`states.format_state` and the esd-time lines, 72 and 3 values, keep
"%.17g": numpy's cost per call would outweigh the saving there.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .scalar import CURVE_FIELDS, BracketError, EsdOutcome, Scenario, ScenarioKind, analytic_esd_time, numeric_esd_time

MODES = ("curve", "esd-time", "selfcheck", "dump-state")

CSV_HEADER = ",".join(CURVE_FIELDS)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route everything
    # through UsageError so main() can exit 1 instead.
    def error(self, message):
        raise UsageError(message)

    # argparse's own writer drops an OSError; _emit reports it, so that
    # --help on a failed stdout exits 3 like every mode
    def print_help(self, file=None):
        raise SystemExit(_emit(self.format_help(), None))


@functools.cache  # built on first use, not at import; argparse keeps no state between parses
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="esd",
        description="Negativity trajectories of a qubit-qutrit state under local dephasing.",
    )
    parser.add_argument("mode", nargs="?", choices=MODES, default="curve",
                        help="what to run (default: curve)")
    parser.add_argument("--scenario", choices=[k.value for k in ScenarioKind],
                        default=ScenarioKind.MULTI_LOCAL.value,
                        help="which subsystems see noise (default: multilocal)")
    parser.add_argument("--x", type=float, default=0.25,
                        help="initial corner coherence in [0, 0.25] (default: 0.25)")
    parser.add_argument("--rate-a", type=float, default=1.0, help="qubit dephasing rate (default: 1)")
    parser.add_argument("--rate-b", type=float, default=1.0, help="qutrit dephasing rate (default: 1)")
    parser.add_argument("--t-max", type=float, default=4.0, help="end of the time grid (default: 4)")
    parser.add_argument("--steps", type=int, default=101, help="grid points incl. endpoints (default: 101)")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse and range-check argv (sys.argv[1:] if None); raises UsageError on any problem.

    Returns argparse's namespace, with the checked Scenario in place of the scenario's name.
    """
    ns = _build_parser().parse_args(argv)
    try:
        ns.scenario = Scenario(kind=ns.scenario, x=ns.x, rate_a=ns.rate_a, rate_b=ns.rate_b)
    except ValueError as exc:  # x, rate_a or rate_b out of range
        raise UsageError(str(exc)) from exc
    if not (math.isfinite(ns.t_max) and ns.t_max > 0.0):
        raise UsageError(f"--t-max must be finite and positive, got {ns.t_max}")
    if ns.steps < 2:
        raise UsageError(f"--steps must be at least 2, got {ns.steps}")
    return ns


def render_csv(block) -> str:
    """One sweep block's CSV rows, no header, read from the block's flat float buffer.

    Each value is `"%.17g" % v`, byte for byte, built with whole-array numpy
    steps; the module docstring gives the exactness argument. e =
    floor(log10 |v|) indexes 10**(16 - e) as hi + lo, and |v| * (hi + lo) is
    p + s, p = fl(|v| * hi) and s its exact Dekker error plus |v| * lo:
    within 5e-15, under 1e-13, of a unit in the 17th digit of the scaled
    value. The significand N rounds it to nearest; its digits come from a
    4-digit ASCII table, and its trailing zeros from the table's NUL half.
    The fields are laid out in a (values, 32) byte matrix whose NULs one
    bytes.translate removes. "%.17g" itself formats the values this cannot
    prove: non-finite or |v| outside [1e-280, 1e280]; a remainder within
    1e-6 of a rounding tie; floor(p + s) < 1e16 or N >= 1e17, from an
    off-by-one log10 or a significand that rounds up to 1e17; and
    fixed-notation integers whose integer digits end in 0.
    """
    from ._render import render  # compiled by the first curve block, not by `import esdsim.cli`

    return render(block)


def _emit(text, out: str | None) -> int:
    """Write text, a string or an iterable of strings, to --out or stdout; 3 on an OSError, else 0.

    An iterable is written as it is produced, so a failure mid-stream leaves
    what came before it in the file or on stdout.
    """
    chunks = (text,) if isinstance(text, str) else text
    try:
        if out is None:
            for chunk in chunks:
                sys.stdout.write(chunk)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="ascii") as fh:
                fh.writelines(chunks)
    except OSError as exc:
        print(f"esd: cannot write {'<stdout>' if out is None else out}: {exc}", file=sys.stderr)
        if out is None and sys.stdout is sys.__stdout__:
            # the interpreter flushes the process's stdout buffer again at exit: let it reach the null device
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 3
    return 0


def run(config: argparse.Namespace) -> int:
    """Run one mode on parse_args' namespace and return the exit code."""
    scenario = config.scenario
    if config.mode == "selfcheck":
        from . import selfcheck  # imported by its own mode only, so that the other modes start faster

        passed, lines = selfcheck.run()
        return _emit("\n".join(lines) + "\n", config.out) or (0 if passed else 2)
    if config.mode == "dump-state":
        from .esd import evolve  # numpy: imported by the modes that build arrays only
        from .states import format_state

        return _emit(format_state(evolve(scenario, config.t_max)), config.out)
    if config.mode == "curve":
        import itertools

        import numpy as np

        from .esd import _SWEEP_BLOCK, sweep

        try:
            t_grid = np.linspace(0.0, config.t_max, config.steps)
        except (MemoryError, ValueError) as exc:  # numpy refuses a grid past its own size limit with a ValueError
            print(f"esd: cannot allocate the {config.steps}-point curve: {exc}", file=sys.stderr)
            return 1
        # each slice is one of the blocks a whole-grid sweep solves, so its rows are the same bits
        blocks = (render_csv(sweep(scenario, t_grid[start:start + _SWEEP_BLOCK]))
                  for start in range(0, config.steps, _SWEEP_BLOCK))
        return _emit(itertools.chain((CSV_HEADER + "\n",), blocks), config.out)
    analytic = analytic_esd_time(scenario)
    if isinstance(analytic, EsdOutcome):
        return _emit(f"{analytic.value}\n", config.out)
    try:
        numeric = numeric_esd_time(scenario)
    except BracketError as exc:
        print(f"esd: {exc}", file=sys.stderr)
        return 1
    lines = ["analytic_esd_time %.17g" % analytic]
    if isinstance(numeric, EsdOutcome):  # x within the eigenvalue noise floor of 1/8
        lines.append(f"numeric_esd_time {numeric.value}")
    else:
        lines.append("numeric_esd_time %.17g" % numeric)
        lines.append("difference %.17g" % abs(numeric - analytic))
    return _emit("\n".join(lines) + "\n", config.out)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"esd: {exc}", file=sys.stderr)
        sys.stderr.write(_build_parser().format_usage())
        return 1
    except SystemExit as exc:  # --help, with _emit's status
        return int(exc.code or 0)
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
