import ast
import errno
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import esdsim
from esdsim import Scenario, ScenarioKind, cli, esd, negativity, parse_state, selfcheck
from esdsim.cli import CSV_HEADER, UsageError, main, parse_args

from numeric_oracles import render_csv_reference


def test_parse_defaults():
    config = parse_args([])
    assert config.mode == "curve"
    assert config.scenario == Scenario(ScenarioKind.MULTI_LOCAL, x=0.25, rate_a=1.0, rate_b=1.0)
    assert config.t_max == 4.0
    assert config.steps == 101
    assert config.out is None


def test_parse_mode_and_flags():
    config = parse_args(["esd-time", "--scenario", "qubit", "--x", "0.2", "--rate-a", "2"])
    assert config.mode == "esd-time"
    assert config.scenario == Scenario(ScenarioKind.QUBIT_ONLY, x=0.2, rate_a=2.0, rate_b=1.0)


def test_parse_flags_without_mode():
    assert parse_args(["--steps", "11"]).steps == 11


def test_parse_rejects_x_outside_positivity_range():
    with pytest.raises(UsageError) as err:
        parse_args(["--x", "0.3"])
    assert "positivity range" in str(err.value)
    assert "0.25" in str(err.value)


def test_parse_rejects_bad_values():
    for argv in (["--steps", "1"], ["--t-max", "0"], ["--rate-a", "-1"], ["--scenario", "bogus"],
                 ["unknown-mode"], ["--x", "abc"], ["--rate-a", "nan"], ["--rate-a", "inf"],
                 ["--t-max", "nan"], ["--t-max", "inf"]):
        with pytest.raises(UsageError):
            parse_args(argv)


def test_main_usage_error_exit_code(capsys):
    assert main(["--x", "0.9"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert main(["esd-time", "--rate-b", "nan"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_curve_csv_shape(capsys):
    assert main(["curve", "--scenario", "qubit", "--steps", "3", "--t-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == 0.0
    assert float(first[3]) == 0.25  # corner starts at x


def test_curve_csv_deterministic(tmp_path):
    args = ["curve", "--steps", "25", "--t-max", "3", "--x", "0.21"]
    path_one = tmp_path / "one.csv"
    path_two = tmp_path / "two.csv"
    assert main(args + ["--out", str(path_one)]) == 0
    assert main(args + ["--out", str(path_two)]) == 0
    assert path_one.read_bytes() == path_two.read_bytes()


def test_curve_numeric_matches_analytic_column(tmp_path):
    path = tmp_path / "curve.csv"
    assert main(["curve", "--steps", "41", "--out", str(path)]) == 0
    rows = path.read_text().strip().splitlines()[1:]
    for row in rows:
        fields = [float(v) for v in row.split(",")]
        assert abs(fields[4] - fields[5]) < 1e-10


def test_esd_time_output(capsys):
    assert main(["esd-time", "--scenario", "qubit", "--x", "0.25", "--rate-a", "1"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    analytic = float(lines["analytic_esd_time"])
    numeric = float(lines["numeric_esd_time"])
    assert abs(analytic - 2.0 * math.log(2.0)) < 1e-12
    assert abs(numeric - analytic) <= 1e-12 * max(1.0, analytic)


@pytest.mark.parametrize("mode", ["esd-time", "curve"])
def test_long_death_time_finishes(mode, capsys):
    # t* is about 1.4e7 here; the thresholded bisection never ended
    started = time.perf_counter()
    assert main([mode, "--scenario", "qubit", "--rate-a", "1e-7", "--steps", "3"]) == 0
    assert time.perf_counter() - started < 1.0
    out = capsys.readouterr().out
    if mode == "esd-time":
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        analytic = float(lines["analytic_esd_time"])
        assert abs(float(lines["numeric_esd_time"]) - analytic) <= 1e-12 * analytic
    else:
        assert len(out.strip().splitlines()) == 4


@pytest.mark.parametrize("mode", ["esd-time", "curve"])
def test_search_window_overflow_exit_code(mode, capsys):
    # a subnormal rate makes the default window 10 * 2 ln 2 / rate infinite
    code = main([mode, "--scenario", "qubit", "--rate-a", "1e-320", "--steps", "3"])
    captured = capsys.readouterr()
    if mode == "esd-time":
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("esd: ")
        assert "not finite" in captured.err
    else:  # the curve searches no death time, so the window never arises
        assert code == 0
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 4 and lines[0] == CSV_HEADER
        assert all(row.split(",")[1:3] == ["1", "1"] for row in lines[1:])


def test_rate_sum_overflow_exit_code(capsys):
    # each rate is finite but their sum is inf: the search used to report a death time of 0
    assert main(["esd-time", "--rate-a", "1e308", "--rate-b", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("esd: rate_a + rate_b must be finite")


def test_curve_too_many_points_exit_code(capsys):
    # 10**15 points ask for 7.1 PiB, beyond any address space, so the allocation fails at
    # once; numpy refuses 2**62 ("array is too big") and 10**20 ("Maximum allowed size
    # exceeded") with a ValueError before it allocates anything
    for steps in (10 ** 15, 2 ** 62, 10 ** 20):
        assert main(["curve", "--steps", str(steps)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"esd: cannot allocate the {steps}-point curve: ")
        assert len(captured.err.splitlines()) == 1


def test_main_reads_sys_argv_when_called_without_arguments(capsys, monkeypatch):
    # the console script calls main(); argparse reads the options from sys.argv[1:] itself
    monkeypatch.setattr(sys, "argv", ["esd", "esd-time"])
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["analytic_esd_time", "numeric_esd_time", "difference"]


def test_esd_time_below_noise_floor(capsys):
    # negativity 5e-11 is under the -1e-10 eigenvalue threshold: the numeric
    # route sees no entanglement while the closed form still gives a time
    assert main(["esd-time", "--x", "0.12500000005"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("analytic_esd_time ")
    assert lines[1:] == ["numeric_esd_time never-entangled"]


def test_readme_examples_byte_for_byte(capsys):
    assert main(["curve", "--scenario", "qubit", "--x", "0.25", "--steps", "5", "--t-max", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        CSV_HEADER,
        "0,1,1,0.25,0.12499999999999997,0.125,-0.12499999999999997",
        "0.5,0.77880078307140488,1,0.19470019576785122,0.069700195767851192,0.06970019576785122,"
        "-0.069700195767851192",
    ]
    assert main(["esd-time", "--scenario", "multilocal", "--x", "0.25"]) == 0
    assert capsys.readouterr().out == (
        "analytic_esd_time 0.69314718055994529\n"
        "numeric_esd_time 0.6931471805599454\n"
        "difference 1.1102230246251565e-16\n"
    )


def test_public_names_resolve():
    # a name dropped from the imports but left in __all__, or listed twice, would go unnoticed
    assert [name for name in esdsim.__all__ if not hasattr(esdsim, name)] == []
    assert len(set(esdsim.__all__)) == len(esdsim.__all__)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the values the example's comments promise
    assert lines[0].startswith("0.02663") and lines[0].endswith(" True")
    assert lines[1] == "True"
    assert lines[2].startswith("0.1249999")
    assert len(lines) == 6 and lines[3] == "0.0 0.25 0.12499999999999997"


def test_esd_time_never_entangled(capsys):
    assert main(["esd-time", "--x", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "never-entangled"


def test_esd_time_no_death(capsys):
    assert main(["esd-time", "--scenario", "qubit", "--rate-a", "0"]) == 0
    assert capsys.readouterr().out.strip() == "no-death"


def test_selfcheck_passes(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_selfcheck_checks_the_curves_that_sweep_computes(monkeypatch, capsys):
    # the negativity-curves line must reach the kernel behind every esd curve row
    kinds = []
    original = esd.sweep

    def counting(scenario, t_grid):
        kinds.append(scenario.kind)
        return original(scenario, t_grid)

    monkeypatch.setattr(esd, "sweep", counting)
    assert main(["selfcheck"]) == 0
    assert "[PASS] negativity-curves" in capsys.readouterr().out
    assert kinds == list(ScenarioKind)


def _nan_sweep(monkeypatch):
    original = esd.sweep

    def nan_curve(scenario, t_grid):
        curve = original(scenario, t_grid).copy()
        curve.negativity_numeric = np.nan
        return curve

    monkeypatch.setattr(esd, "sweep", nan_curve)


def _nan_pt_spectrum(monkeypatch):
    monkeypatch.setattr(selfcheck, "pt_spectrum", lambda rho: np.full(6, np.nan))


@pytest.mark.parametrize("name, poison", [
    ("negativity-curves", _nan_sweep),
    ("pt-spectrum-closed-form", _nan_pt_spectrum),
], ids=["sweep", "pt_spectrum"])
def test_selfcheck_fails_a_nan_deviation(name, poison, monkeypatch, capsys):
    # a NaN must fail its check and show as nan, not vanish into a running max as 0
    poison(monkeypatch)
    assert main(["selfcheck"]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 1
    assert re.fullmatch(rf"\[FAIL\] {re.escape(name)}: .* nan", failed[0])
    assert lines[-1] == "selfcheck FAILED (6 checks)"


def test_dump_state_roundtrip(tmp_path):
    path = tmp_path / "state.txt"
    assert main(["dump-state", "--scenario", "qubit", "--t-max", "1.25", "--out", str(path)]) == 0
    rho = parse_state(path.read_text())
    assert abs(rho.mat[0, 5].real - 0.25 * math.exp(-0.625)) < 1e-15


def test_dump_state_negativity_consistent_with_curve(tmp_path):
    # the last CSV row and the dumped state describe the same time
    args = ["--scenario", "multilocal", "--x", "0.24", "--t-max", "0.8", "--steps", "9"]
    csv_path = tmp_path / "curve.csv"
    state_path = tmp_path / "state.txt"
    assert main(["curve", *args, "--out", str(csv_path)]) == 0
    assert main(["dump-state", *args, "--out", str(state_path)]) == 0
    last = csv_path.read_text().strip().splitlines()[-1].split(",")
    emitted = float(last[4])
    recomputed = negativity(parse_state(state_path.read_text())).value
    assert abs(emitted - recomputed) < 1e-12


@pytest.mark.parametrize("argv", [["curve", "--steps", "3"], ["dump-state"]], ids=lambda argv: argv[0])
def test_negative_zero_x_prints_as_zero(argv, capsys):
    # --x -0 is the state of --x 0: no -0 in the corner column or at the corner slot
    assert main([*argv, "--x", "0"]) == 0
    zero = capsys.readouterr().out.encode()
    assert main([*argv, "--x", "-0"]) == 0
    assert capsys.readouterr().out.encode() == zero


OUT_ARGVS = (
    ["curve", "--steps", "3"],
    ["esd-time"],
    ["esd-time", "--x", "0.1"],
    ["selfcheck"],
    ["dump-state", "--t-max", "0.5"],
)


@pytest.mark.parametrize("argv", OUT_ARGVS, ids=lambda argv: "-".join(argv))
def test_out_file_equals_stdout(argv, tmp_path, capsys):
    assert main(argv) == 0
    expected = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == expected.encode()


def test_out_io_error_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    for argv in OUT_ARGVS:
        assert main(argv + ["--out", str(missing_dir)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write" in captured.err


class FullStdout:
    """A stdout on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", OUT_ARGVS, ids=lambda argv: "-".join(argv))
def test_stdout_io_error_exit_code(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("esd: cannot write <stdout>: ")


class FullAfterHeaderStdout:
    """A stdout whose device fills after the CSV header: the first write lands, every later one fails."""

    def __init__(self):
        self.written = []

    def write(self, text):
        if self.written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.written.append(text)

    def flush(self):
        pass


def test_curve_write_failure_mid_stream_exit_code(monkeypatch, capsys):
    # the curve is written one sweep block at a time, so the header is out before the device fills
    stdout = FullAfterHeaderStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["curve", "--steps", "3000"]) == 3
    assert stdout.written == [CSV_HEADER + "\n"]
    assert capsys.readouterr().err == f"esd: cannot write <stdout>: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("steps", [2, 1023, 1024, 1025, 2049, 10001])
@pytest.mark.parametrize("flags", [[], ["--scenario", "qutrit", "--x", "0.2", "--rate-b", "0.3", "--t-max", "9"]],
                         ids=["multilocal", "qutrit"])
def test_curve_streams_the_bytes_of_one_sweep(flags, steps, tmp_path, capsys):
    # the CLI sweeps and writes one block of grid points at a time: the bytes must be those of one
    # sweep over the whole grid, each row formatted on its own
    argv = ["curve", *flags, "--steps", str(steps)]
    config = parse_args(argv)
    curve = esd.sweep(config.scenario, np.linspace(0.0, config.t_max, steps))
    expected = CSV_HEADER + "\n" + render_csv_reference(curve)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    path = tmp_path / "curve.csv"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == expected.encode()


def test_curve_memory_stays_flat(tmp_path):
    # the CSV is rendered and written per sweep block, so only the grid grows with --steps (0.8 MB
    # here); holding the whole curve's records, row tuples and text would take about 48 MiB
    path = tmp_path / "curve.csv"
    assert main(["curve", "--steps", "3", "--out", str(path)]) == 0  # imports outside the trace
    tracemalloc.start()
    try:
        assert main(["curve", "--steps", "100001", "--out", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20, peak
    with path.open() as fh:
        assert sum(1 for _ in fh) == 100002


def _subprocess_env(**extra):
    # run the tree under test, not whatever copy is installed
    src = str(Path(esdsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    env.update(extra)
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("mode", ["curve", "esd-time", "selfcheck", "dump-state", "--help"])
def test_full_stdout_device_exit_code(mode, unbuffered):
    # a buffered stdout fails at its flush, an unbuffered one at its write;
    # either way the run must end with exit 3 and no traceback or exit-time error
    env = _subprocess_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "esdsim", mode], stdout=full, stderr=subprocess.PIPE,
                              text=True, check=False, env=env)
    assert proc.returncode == 3
    assert proc.stderr == "esd: cannot write <stdout>: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("module", ["esdsim", "esdsim.cli"])
def test_module_entry_point(module):
    # a warning is an error here, as in CI: runpy warns if the package __init__ imports cli
    proc = subprocess.run(
        [sys.executable, "-m", module, "curve", "--steps", "2", "--t-max", "1"],
        capture_output=True, text=True, check=False, env=_subprocess_env(PYTHONWARNINGS="error"),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == CSV_HEADER


def test_help_exits_zero():
    with pytest.raises(SystemExit):
        parse_args(["--help"])
    assert main(["--help"]) == 0


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli._build_parser() is cli._build_parser()
    assert main(["--bogus"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
    config = parse_args([])
    assert (config.mode, config.t_max, config.steps, config.out) == ("curve", 4.0, 101, None)
    assert config.scenario == Scenario(ScenarioKind.MULTI_LOCAL, x=0.25, rate_a=1.0, rate_b=1.0)


# `esd esd-time` on each of its outcomes, run as `python -m esdsim` in a fresh interpreter, with the
# stdout, stderr and exit code it gave when the package imported numpy at start-up
NUMPY_FREE_RUNS = {
    "finite": (["--x", "0.2"], 0, "analytic_esd_time 0.47000362924573563\nnumeric_esd_time 0.47000362924573558\n"
                                  "difference 5.5511151231257827e-17\n", ""),
    "never-entangled": (["--x", "0"], 0, "never-entangled\n", ""),
    "no-death": (["--rate-a", "0", "--rate-b", "0"], 0, "no-death\n", ""),
    "bracket-error": (["--scenario", "qubit", "--x", "0.2", "--rate-a", "5e-324"], 1, "",
                      "esd: search window t_max = inf is not finite; the dephasing rate is too small\n"),
    "usage-error": (["--x", "nan"], 1, "",
                    "esd: x must lie in the positivity range [0, 0.25], got nan\n"
                    "usage: esd [-h] [--scenario {qubit,qutrit,multilocal}] [--x X]\n"
                    "           [--rate-a RATE_A] [--rate-b RATE_B] [--t-max T_MAX] [--steps STEPS]\n"
                    "           [--out OUT]\n"
                    "           [{curve,esd-time,selfcheck,dump-state}]\n"),
}

# python -m esdsim, then whether numpy was loaded, written to the file named first
_RUN_AND_REPORT_NUMPY = """\
import runpy, sys
report, sys.argv = sys.argv[1], ["esd", *sys.argv[2:]]
try:
    runpy.run_module("esdsim", run_name="__main__", alter_sys=True)
finally:
    with open(report, "w") as fh:
        fh.write(str("numpy" in sys.modules))
"""


def test_import_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-c", "import sys, esdsim, esdsim.cli; print('numpy' in sys.modules)"],
                          capture_output=True, text=True, check=True, env=_subprocess_env(PYTHONWARNINGS="error"))
    assert proc.stdout == "False\n"


def test_import_compiles_no_probe_and_a_death_time_no_kernel():
    # import esdsim compiles neither a kernel nor the probe; the first death time compiles the generated
    # probe once, in _family_probe's cache, and rebinds no global of scalar, and a family death time
    # loads no numpy and generates no kernel; nor does either import the CSV renderer, esdsim._render,
    # so none of its tables is built, or load numpy, fractions or decimal
    program = ("import sys, esdsim, esdsim.cli\n"
               "from esdsim import scalar\n"
               "assert scalar._family_probe.cache_info().currsize == scalar._jacobi_kernel.cache_info().currsize == 0\n"
               "before = dict(vars(scalar))\n"
               "for kind in ('qubit', 'qutrit', 'multilocal'):\n"
               "    assert isinstance(esdsim.numeric_esd_time(esdsim.Scenario(kind, 0.2)), float)\n"
               "after = vars(scalar)\n"
               "assert after.keys() == before.keys(), after.keys() ^ before.keys()\n"
               "rebound = [name for name, value in before.items() if after[name] is not value]\n"
               "assert not rebound, rebound\n"
               "assert scalar._family_probe.cache_info().currsize == 1\n"
               "assert scalar._jacobi_kernel.cache_info().currsize == 0 and 'numpy' not in sys.modules\n"
               "loaded = {'esdsim._render', 'numpy', 'fractions', 'decimal'} & set(sys.modules)\n"
               "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", program], check=True, env=_subprocess_env(PYTHONWARNINGS="error"))


def test_esd_time_loads_neither_numpy_nor_typing():
    # with no site hook to load any first (python -S), neither the bench's import probe, a bare
    # `import esdsim, esdsim.cli`, nor a death time loads numpy, typing, dataclasses or inspect: the one
    # module of its path that imported typing, scalar, writes EsdTime as float | EsdOutcome, and its
    # Scenario is a plain frozen class, not a dataclass
    program = ("import sys, esdsim, esdsim.cli\n"
               "heavy = {'numpy', 'typing', 'dataclasses', 'inspect'}\n"
               "print(sorted(heavy & set(sys.modules)))\n"
               "esdsim.cli.main(['esd-time'])\n"
               "print(sorted(heavy & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", program], capture_output=True, text=True, check=True,
                          env=_subprocess_env(PYTHONWARNINGS="error"))
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "[]"), proc.stdout


@pytest.mark.parametrize("outcome", list(NUMPY_FREE_RUNS))
def test_esd_time_runs_without_numpy(outcome, tmp_path):
    # the death-time path runs on esdsim.scalar alone: no outcome, usage errors included, loads numpy
    argv, code, out, err = NUMPY_FREE_RUNS[outcome]
    report = tmp_path / "numpy-loaded"
    proc = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_NUMPY, str(report), "esd-time", *argv],
                          capture_output=True, text=True, check=False,
                          env=_subprocess_env(PYTHONWARNINGS="error", COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert report.read_text() == "False"


# each public name's defining module, and its name there
PUBLIC_SOURCES = {
    "channels": ["IncompleteChannelError", "KrausChannel", "apply_multilocal", "dephasing_qubit", "dephasing_qutrit",
                 "identity_channel", ("apply_channel", "apply")],
    "entanglement": ["NegativityResult", "is_ppt", "negativity", "pt_spectrum"],
    "esd": ["analytic_negativity", "evolve", "pt_spectrum_closed_form", "sweep"],
    "linalg": ["QUBIT_QUTRIT", "BipartiteDims", "DimensionMismatchError", "NonHermitianError",
               "hermitian_eigenvalues", "partial_trace", "partial_transpose"],
    "scalar": ["BracketError", "EsdOutcome", "Scenario", "ScenarioKind", "analytic_esd_time", "numeric_esd_time"],
    "states": ["DensityMatrix", "InvalidStateError", "ansatz_general", "ansatz_x", "format_state", "parse_state",
               "random_density_matrix", "reduce_a", "reduce_b", "validate"],
}


def test_package_namespace_resolves_each_name_to_its_defining_module():
    import importlib

    names = []
    for module_name, entries in PUBLIC_SOURCES.items():
        module = importlib.import_module(f"esdsim.{module_name}")
        for entry in entries:
            name, attr = entry if isinstance(entry, tuple) else (entry, entry)
            value = getattr(esdsim, name)
            assert value is getattr(module, attr), name
            if callable(value):  # a class or a function: defined there, not imported from elsewhere
                assert value.__module__ == "esdsim." + module_name, name
            names.append(name)
    assert esdsim.__all__ == [*sorted(names), "__version__"]
    assert esdsim.__version__ == "0.1.0"
    star = {}
    exec("from esdsim import *", star)
    assert all(star[name] is getattr(esdsim, name) for name in esdsim.__all__)
    assert set(esdsim.__all__) <= set(dir(esdsim))
    with pytest.raises(AttributeError, match="^module 'esdsim' has no attribute 'no_such_name'$"):
        getattr(esdsim, "no_such_name")
    with pytest.raises(ImportError):
        exec("from esdsim import no_such_name", {})


def _defined_names(tree: ast.Module) -> set:
    """The names a module binds at its top level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_each_submodule_imports_only_what_it_uses_from_where_it_is_defined():
    # every name in esdsim has one home: no module keeps an import only to re-export it (the package
    # root's lazy table, _SOURCES, is the one place that does), and none reaches a name through a
    # module that imports it in turn
    package = Path(esdsim.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in package.glob("*.py")}
    defined = {module: _defined_names(tree) for module, tree in trees.items()}
    unused, elsewhere = [], []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        loads = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        submodules = {}  # a `from . import m` binding -> m
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in loads:
                        unused.append(f"{module}: {bound}")
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        submodules[alias.asname or alias.name] = alias.name
                    elif alias.name not in defined[node.module]:
                        elsewhere.append(f"{module}: from .{node.module} import {alias.name}")
        for node in ast.walk(tree):  # m.name through a `from . import m` binding
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in submodules and node.attr not in defined[submodules[node.value.id]]):
                elsewhere.append(f"{module}: {node.value.id}.{node.attr}")
    assert not unused and not elsewhere, (unused, elsewhere)


def test_submodules_resolve_after_a_bare_import():
    # as when the package imported them at start-up; cli and selfcheck are imported only by name
    program = ("import esdsim, sys\n"
               "assert 'numpy' not in sys.modules\n"
               "assert esdsim.esd.sweep is esdsim.sweep and esdsim.linalg.QUBIT_QUTRIT.total == 6\n"
               "assert all(getattr(esdsim, m).__name__ == 'esdsim.' + m for m in "
               "('channels', 'entanglement', 'esd', 'linalg', 'scalar', 'states'))\n"
               "assert not hasattr(esdsim, 'cli') and not hasattr(esdsim, 'selfcheck')\n"
               "from esdsim import cli\n"
               "assert esdsim.cli is cli\n")
    subprocess.run([sys.executable, "-c", program], check=True, env=_subprocess_env(PYTHONWARNINGS="error"))
