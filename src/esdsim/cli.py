"""Command-line front end.

Modes: curve (default) writes a CSV negativity trajectory, esd-time
prints the death time, selfcheck runs the numeric cross-checks,
dump-state writes the evolved state in the plain-text matrix format.
Exit codes: 0 success, 1 usage error, no death time found in the
esd-time search window or a curve too large to allocate, 2 selfcheck
failure, 3 I/O error on --out or stdout.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .esd import (CURVE_FIELDS, BracketError, EsdOutcome, Scenario, ScenarioKind, analytic_esd_time, evolve,
                  numeric_esd_time, sweep)
from .states import format_state

MODES = ("curve", "esd-time", "selfcheck", "dump-state")

CSV_HEADER = ",".join(CURVE_FIELDS)
# one curve row at 17 significant digits, which round-trips float64 exactly
_CSV_ROW = ",".join(["%.17g"] * len(CURVE_FIELDS)) + "\n"


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    mode: str
    scenario: Scenario
    t_max: float
    steps: int
    out: str | None


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


def parse_args(argv) -> RunConfig:
    """Parse and range-check arguments; raises UsageError on any problem."""
    ns = _build_parser().parse_args(list(argv))
    try:
        scenario = Scenario(kind=ns.scenario, x=ns.x, rate_a=ns.rate_a, rate_b=ns.rate_b)
    except ValueError as exc:  # x, rate_a or rate_b out of range
        raise UsageError(str(exc)) from exc
    if not (math.isfinite(ns.t_max) and ns.t_max > 0.0):
        raise UsageError(f"--t-max must be finite and positive, got {ns.t_max}")
    if ns.steps < 2:
        raise UsageError(f"--steps must be at least 2, got {ns.steps}")
    return RunConfig(mode=ns.mode, scenario=scenario, t_max=ns.t_max, steps=ns.steps, out=ns.out)


def _format_value(v: float) -> str:
    return format(float(v), ".17g")


def render_csv(curve) -> str:
    return CSV_HEADER + "\n" + "".join(_CSV_ROW % row for row in curve.tolist())


def _emit(text: str, out: str | None) -> int:
    try:
        if out is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="ascii") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"esd: cannot write {'<stdout>' if out is None else out}: {exc}", file=sys.stderr)
        if out is None and sys.stdout is sys.__stdout__:
            # the interpreter flushes the process's stdout buffer again at exit: let it reach the null device
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 3
    return 0


def run(config: RunConfig) -> int:
    scenario = config.scenario
    if config.mode == "selfcheck":
        from . import selfcheck  # imported by its own mode only, so that the other modes start faster

        lines = []
        passed = selfcheck.run(write=lines.append)
        return _emit("\n".join(lines) + "\n", config.out) or (0 if passed else 2)
    if config.mode == "dump-state":
        return _emit(format_state(evolve(scenario, config.t_max)), config.out)
    if config.mode == "curve":
        try:
            try:
                t_grid = np.linspace(0.0, config.t_max, config.steps)
            except ValueError as exc:  # numpy refuses a grid past its own size limit before allocating
                raise MemoryError(exc) from None
            csv = render_csv(sweep(scenario, t_grid))
        except MemoryError as exc:  # a --steps grid beyond what can be allocated
            print(f"esd: cannot allocate the {config.steps}-point curve: {exc}", file=sys.stderr)
            return 1
        return _emit(csv, config.out)
    analytic = analytic_esd_time(scenario)
    if isinstance(analytic, EsdOutcome):
        return _emit(f"{analytic.value}\n", config.out)
    try:
        numeric = numeric_esd_time(scenario)
    except BracketError as exc:
        print(f"esd: {exc}", file=sys.stderr)
        return 1
    lines = [f"analytic_esd_time {_format_value(analytic)}"]
    if isinstance(numeric, EsdOutcome):  # x within the eigenvalue noise floor of 1/8
        lines.append(f"numeric_esd_time {numeric.value}")
    else:
        lines.append(f"numeric_esd_time {_format_value(numeric)}")
        lines.append(f"difference {_format_value(abs(numeric - analytic))}")
    return _emit("\n".join(lines) + "\n", config.out)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
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
