"""The benchmark's own tests: oracles, span arithmetic, and a smoke run.

    python3 -m pytest bench -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def _closed_form_csv(req) -> str:
    """The CSV the closed forms predict, written the way `esd curve` writes it."""
    lines = [oracles.CSV_HEADER]
    for t in np.linspace(0.0, req.t_max, req.steps):
        ga, gb = (float(g) for g in oracles.gammas(req.kind, req.rate_a, req.rate_b, t))
        xg = req.x * ga * gb
        row = (t, ga, gb, xg, max(0.0, xg - 0.125), max(0.0, xg - 0.125), (1.0 - 8.0 * xg) / 8.0)
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _curve_request(kind="multilocal", x=0.25, rate_a=1.0, rate_b=2.0, t_max=3.0, steps=21):
    return workloads.CliRequest("entangled", (), kind, x, rate_a, rate_b, t_max, steps)


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_curve_oracle_accepts_the_closed_form(kind):
    req = _curve_request(kind=kind)
    assert oracles.check_curve(req, 0, _closed_form_csv(req)) is None


def test_curve_oracle_rejects_a_deviation_beyond_tolerance():
    req = _curve_request()
    lines = _closed_form_csv(req).split("\n")
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) + 1e-9)  # negativity_numeric, tolerance 1e-10
    lines[5] = ",".join(cells)
    assert "negativity_numeric" in oracles.check_curve(req, 0, "\n".join(lines))
    assert oracles.check_curve(req, 1, _closed_form_csv(req)) == "exit code 1"


def test_curve_oracle_checks_the_corner_at_1e_14():
    req = _curve_request()
    lines = _closed_form_csv(req).split("\n")
    cells = lines[3].split(",")
    cells[3] = repr(float(cells[3]) + 1e-13)
    lines[3] = ",".join(cells)
    assert "corner" in oracles.check_curve(req, 0, "\n".join(lines))


def test_esd_time_oracle_closed_form_and_classification():
    t_star = 2.0 * math.log(2.0) / 3.0  # x = 1/4, rate_eff = 1 + 2
    req = workloads.CliRequest("finite", (), "multilocal", 0.25, 1.0, 2.0)
    assert oracles.expected_esd_time("multilocal", 0.25, 1.0, 2.0) == pytest.approx(t_star, rel=1e-15)

    def out(numeric):
        return f"analytic_esd_time {t_star!r}\nnumeric_esd_time {numeric!r}\ndifference 0\n"

    assert oracles.check_esd_time(req, 0, out(t_star * (1 + 5e-9))) is None
    assert oracles.check_esd_time(req, 0, out(t_star + 2e-8)) is not None
    assert oracles.check_esd_time(req, 0, "no-death\n") is not None

    never = workloads.CliRequest("never-entangled", (), "qubit", 0.125, 1.0, 1.0)
    assert oracles.check_esd_time(never, 0, "never-entangled\n") is None
    idle = workloads.CliRequest("no-death", (), "qutrit", 0.2, 5.0, 0.0)
    assert oracles.check_esd_time(idle, 0, "no-death\n") is None
    assert oracles.check_esd_time(idle, 0, "never-entangled\n") is not None


@pytest.mark.parametrize("side", "AB")
def test_pt_oracle_matches_the_family_closed_form(side):
    for x in (0.0, 0.1, 0.2, 0.25):
        m = np.diag([0.25, 0.125, 0.125, 0.125, 0.125, 0.25]).astype(complex)
        m[0, 5] = m[5, 0] = x
        value, lowest = oracles.pt_negativity(m, side)
        assert value == pytest.approx(max(0.0, x - 0.125), abs=1e-15)
        assert lowest == pytest.approx((1.0 - 8.0 * x) / 8.0, abs=1e-15)


def test_state_text_round_trips_exactly_including_non_finite():
    rng = np.random.default_rng(3)
    for req in workloads.make_states(rng, 200):
        back = oracles.read_state_text(req.text)
        assert np.array_equal(back, req.mat, equal_nan=True)


def test_state_schedule_has_every_input_class():
    reqs = workloads.make_states(np.random.default_rng(4), 80)
    labels = [r.label for r in reqs]
    for kind in ("non-hermitian", "trace", "negative-eigenvalue", "non-finite"):
        assert labels.count(kind) == 1
    assert labels.count("coherent") == 16 and labels.count("dense") == 60
    for r in reqs:
        lowest = np.linalg.eigvalsh(0.5 * (r.mat + r.mat.conj().T))[0] if np.isfinite(r.mat).all() else None
        if r.valid:
            assert lowest >= 1e-6 and abs(np.trace(r.mat) - 1.0) < 1e-14
        elif r.label == "negative-eigenvalue":
            assert lowest < -1e-3


def test_esd_time_schedule_puts_t_star_above_1e6():
    reqs = workloads.make_esd_time(np.random.default_rng(5), 40)
    slow = [r for r in reqs if r.label == "t*>1e6"]
    assert len(slow) == 2
    for r in slow:
        assert oracles.expected_esd_time(r.kind, r.x, r.rate_a, r.rate_b) > 1e6


def test_inputs_depend_only_on_the_seed():
    wl = workloads.WORKLOADS["esd_time"]
    assert workloads.make_requests(wl, 7) == workloads.make_requests(wl, 7)
    assert workloads.make_requests(wl, 7) != workloads.make_requests(wl, 8)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    start = np.array([0.0, 1.0, 2.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 4.0, 1.0, 2.0]


def test_layer_metrics_counts_probes_under_the_search():
    names = [tracing.REQUEST, *tracing.target_names()]
    search, evolve = names.index("esd.numeric_esd_time"), names.index("esd.evolve")
    eig = names.index("linalg.hermitian_eigenvalues")
    rows = [
        # name, parent, request, items, start, end
        (0, -1, 0, 1, 0.0, 10.0),
        (search, 0, 0, 1, 1.0, 9.0),
        (evolve, 1, 0, 1, 2.0, 3.0),
        (evolve, 1, 0, 1, 4.0, 5.0),
        (eig, 1, 0, 4, 5.0, 6.0),
        (evolve, 0, 0, 1, 9.0, 9.5),  # outside the search
        (0, -1, 1, 1, 20.0, 30.0),  # request 1 failed: not counted
        (evolve, 6, 1, 1, 21.0, 29.0),
    ]
    metrics = tracing.layer_metrics(np.array(rows, dtype=float), names, [0])
    assert metrics["esd.numeric_esd_time.probes_per_call"][0] == 2.0
    assert metrics["esd.evolve.calls_per_op"][0] == 3.0
    assert metrics["esd.numeric_esd_time.self_ms_per_op"][0] == pytest.approx(5e3)
    assert metrics["linalg.hermitian_eigenvalues.items_per_op"][0] == 4.0
    assert metrics["cli.render_csv.calls_per_op"][0] == 0.0


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(HERE.parent / "src"))
    import esdsim
    import esdsim.cli  # noqa: F401  (cli targets are absent unless it is loaded)
    from esdsim import entanglement, esd

    original = entanglement.negativity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert esd.negativity is entanglement.negativity is esdsim.negativity is not original
        tracer.begin_request(0)
        esd.numeric_esd_time(esd.Scenario(esd.ScenarioKind.QUBIT_ONLY, 0.25))
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert esd.negativity is original and not tracer.absent
    metrics = tracing.layer_metrics(tracer.table(), tracer.names, [0])
    assert metrics["esd.numeric_esd_time.probes_per_call"][0] > 30
    assert metrics["channels.KrausChannel.completeness_defect.calls_per_op"][0] > 0


def test_latency_is_scaled_by_the_kernel_timings_around_each_send():
    import run

    class Kernel:
        NOMINAL_S = 0.010

    client = run.Client(None, None, [0, 1], None, Kernel)
    client.ref_s = [0.010, 0.030, 0.020]
    client.sent_index = [0, 1, 0, 1]
    client.sent_ref = [0, 0, 1, 1]
    client.latencies = [0.1, 0.2, 0.3, 0.4]
    # request 0: median(0.1 * 0.01/0.02, 0.3 * 0.01/0.025); request 1 likewise
    assert client.request_latencies() == pytest.approx([0.085, 0.13])
    assert client.request_latencies(scaled=False) == pytest.approx([0.2, 0.3])
    client.timed_out = {3}  # a deadline is wall time, so that send stays unscaled
    assert client.request_latencies() == pytest.approx([0.085, 0.25])


@pytest.mark.parametrize("workload,trace", [("states_io", 0), ("esd_time", 1)])
def test_smoke_run_prints_the_contract_line(workload, trace):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                           "--seconds", "0.5", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=120, cwd=HERE.parent, check=True)
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    assert result["failed"] == round(detail["detail"]["fail_ratio"] * result["attempted"])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
