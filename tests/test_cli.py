import errno
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import esdsim
from esdsim import cli
from esdsim.cli import CSV_HEADER, UsageError, main, parse_args
from esdsim.entanglement import negativity
from esdsim.esd import Scenario, ScenarioKind
from esdsim.states import parse_state


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
    assert main([mode, "--scenario", "qubit", "--rate-a", "1e-320", "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("esd: ")
    assert "not finite" in captured.err


def test_rate_sum_overflow_exit_code(capsys):
    # each rate is finite but their sum is inf: the search used to report a death time of 0
    assert main(["esd-time", "--rate-a", "1e308", "--rate-b", "1e308"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("esd: rate_a + rate_b must be finite")


def test_curve_too_many_points_exit_code(capsys):
    # 10**15 points ask for 7.1 PiB, beyond any address space, so the allocation fails at once
    assert main(["curve", "--steps", str(10 ** 15)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("esd: cannot allocate ")
    assert len(captured.err.splitlines()) == 1


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "esdsim", "curve", "--steps", "2", "--t-max", "1"],
        capture_output=True, text=True, check=False, env=_subprocess_env(),
    )
    assert proc.returncode == 0
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
