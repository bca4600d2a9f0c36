"""Run one esdsim benchmark workload and print its metrics.

    python3 bench/run.py --workload curve --seed 1 --seconds 30 --trace 0

Run from the repository root. esdsim is imported from ./src, never from
an installed copy. One client sends the workload's requests in a closed
loop, in whole passes, in this single-threaded process, for --seconds;
every output is checked against an oracle in bench/oracles.py. Timings
are scaled to a reference speed by the kernel in bench/reference.py,
timed between the requests. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the per-layer
metrics for --trace 1. The line before it is a JSON "detail" record:
environment, pass and send counts, fail_ratio, deadline and output digest.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set before numpy is imported, in this process and in the set-up probes.
THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: Fresh processes that time `import esdsim, esdsim.cli`; setup_s is their median.
SETUP_SAMPLES = 15
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import esdsim, esdsim.cli; print(time.perf_counter() - t)"
)

#: Longest stretch of requests between two timings of the reference kernel.
REF_EVERY_S = 0.2

#: Share of a traced run spent on untraced passes, for the overhead figure.
UNTRACED_SHARE = 1.0 / 3.0


class Deadline(BaseException):
    """Raised by SIGALRM inside a request that ran past its deadline.

    A BaseException, so that no `except Exception` in the package can
    swallow it.
    """


class Alarm:
    """A per-request deadline through SIGALRM: no thread needed."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise Deadline()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False  # first, so a signal already pending is ignored
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def measure_setup() -> list:
    """Import time of esdsim and esdsim.cli, each in a fresh interpreter.

    Wall time, not scaled like the requests: imports are largely file and
    memory work, which the host's contention slows far less than it slows
    the reference kernel (see README.md).
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)], capture_output=True,
                              text=True, timeout=60, cwd=ROOT, check=True)
        samples.append(float(done.stdout.strip()))
    return samples


def git_commit():
    """HEAD of the checkout, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over src/**/*.py, names and bytes: identifies the measured tree."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, np) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "thread_pinning": {k: os.environ.get(k) for k in THREAD_PINNING},
    }


class Client:
    """The closed-loop client: one request at a time, each timed and checked.

    It sends the workload's requests in whole passes. Between requests,
    at least every REF_EVERY_S, it times the reference kernel; each send's
    latency is then scaled to the reference speed by the kernel times
    just before and just after it. A request's latency is the median of
    its scaled sends; it counts as right when every pass got it right.
    """

    def __init__(self, workload, pkg, requests, alarm, kernel):
        self.workload, self.pkg, self.requests, self.alarm = workload, pkg, requests, alarm
        self.kernel = kernel  # the reference module
        self.latencies = []  # every send, in order, in wall seconds
        self.sent_index = []  # the request each send was
        self.sent_ref = []  # per send, the last reference timing before it
        self.timed_out = set()  # send ids stopped at the deadline
        self.ref_s = []  # reference kernel timings, in order
        self.ref_at = -math.inf
        self.always_ok = [True] * len(requests)
        self.errors = Counter()
        self.wrong = Counter()
        self.wrong_examples = []
        self.correct_ids = []  # send ids whose output checked out
        self.passes = 0

    def gauge(self) -> None:
        """Time the reference kernel once."""
        self.ref_s.append(self.kernel.time_kernel())
        self.ref_at = perf_counter()

    def send(self, index: int, tracer=None, digest=None) -> bool:
        """Send request `index`; True when its output checked out."""
        wl, req = self.workload, self.requests[index]
        send_id = len(self.latencies)
        self.alarm.arm(wl.deadline_s)
        start = perf_counter()
        error = None
        try:
            if tracer is not None:
                tracer.begin_request(send_id)
            try:
                out = wl.call(self.pkg, req)
            finally:
                if tracer is not None:
                    tracer.end_request()
        except Deadline:
            error = "deadline"
            self.timed_out.add(send_id)
        except Exception as exc:  # a crash is a failed request, not a crashed run
            error = type(exc).__name__
        finally:
            elapsed = perf_counter() - start
            self.alarm.disarm()
        self.latencies.append(elapsed)
        self.sent_index.append(index)
        self.sent_ref.append(len(self.ref_s) - 1)
        if digest is not None:
            digest.update(wl.digest(out) if error is None else f"error {error}\n".encode())
        reason = wl.check(req, out) if error is None else None
        if error is not None:
            key = f"{req.label}: {error}"
            self.errors[key] += 1
        elif reason is not None:
            key = f"{req.label}: {re.split(r'[-+]?[0-9]', reason, maxsplit=1)[0].strip()}"
            self.wrong[key] += 1
            if len(self.wrong_examples) < 5:
                self.wrong_examples.append(f"request {index}: {reason}")
        else:
            self.correct_ids.append(send_id)
            return True
        self.always_ok[index] = False
        return False

    def run(self, until: float, tracer=None, digest=None) -> None:
        """Whole passes over the requests until `until`, one at least.

        The digest covers the first pass only, so it does not depend on
        how many passes fit. Every send lies between two kernel timings.
        """
        self.gauge()
        while True:
            for i in range(len(self.requests)):
                self.send(i, tracer=tracer, digest=digest if self.passes == 0 else None)
                if perf_counter() - self.ref_at >= REF_EVERY_S:
                    self.gauge()
            self.passes += 1
            if perf_counter() >= until:
                break
        if self.sent_ref[-1] == len(self.ref_s) - 1:
            self.gauge()

    def request_latencies(self, scaled: bool = True) -> list:
        """Each request's median latency over its sends, in seconds.

        Scaled: each send's time times NOMINAL_S over the mean of the
        kernel timings around it, which is its time at the reference speed.
        A send stopped at its deadline keeps its wall time: the deadline is
        wall time on any host.
        """
        per_request = [[] for _ in self.requests]
        for send_id, (index, elapsed, k) in enumerate(zip(self.sent_index, self.latencies, self.sent_ref)):
            if scaled and send_id not in self.timed_out:
                elapsed *= self.kernel.NOMINAL_S / (0.5 * (self.ref_s[k] + self.ref_s[k + 1]))
            per_request[index].append(elapsed)
        return [statistics.median(times) for times in per_request]

    def ops_per_s(self) -> float:
        """Requests right in every pass, over the sum of their scaled latencies."""
        return sum(self.always_ok) / math.fsum(self.request_latencies())

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + sum(self.wrong.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("curve", "esd_time", "states_io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "esdsim" / "__init__.py").is_file():
        print(f"bench: no esdsim package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINNING)
    setup = measure_setup() if not args.trace else []

    sys.path.insert(0, str(SRC))
    import esdsim
    import esdsim.cli
    import numpy as np

    if SRC not in Path(esdsim.__file__).resolve().parents:
        print(f"bench: imported esdsim from {esdsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    requests = workloads.make_requests(wl, args.seed)
    alarm = Alarm()
    Client(wl, esdsim, requests, alarm, reference).send(0)  # warm-up, not counted
    reference.time_kernel()
    client = Client(wl, esdsim, requests, alarm, reference)

    detail = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "deadline_s": wl.deadline_s, "requests": len(requests),
        "environment": environment(args.seed, np),
    }
    start = perf_counter()
    if not args.trace:
        digest = hashlib.sha256()
        client.run(start + args.seconds, digest=digest)
        scaled_ms = 1e3 * np.array(client.request_latencies())
        raw_ms = 1e3 * np.array(client.request_latencies(scaled=False))
        metrics = {
            "ops_per_s": (client.ops_per_s(), "1/s"),
            "latency_p50_ms": (float(np.percentile(scaled_ms, 50)), "ms"),
            "latency_p90_ms": (float(np.percentile(scaled_ms, 90)), "ms"),
            "success_ratio": (len(client.correct_ids) / client.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        detail.update(digest_sha256=digest.hexdigest(), setup_samples_s=setup,
                      wall_latency_p50_ms=float(np.percentile(raw_ms, 50)),
                      wall_latency_p90_ms=float(np.percentile(raw_ms, 90)),
                      reference_ms={"median": 1e3 * statistics.median(client.ref_s),
                                    "min": 1e3 * min(client.ref_s), "max": 1e3 * max(client.ref_s),
                                    "timings": len(client.ref_s)})
        sent = [client]
    else:
        client.run(start + UNTRACED_SHARE * args.seconds)
        traced = Client(wl, esdsim, requests, alarm, reference)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.run(start + args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        table = tracer.table()
        metrics = tracing.layer_metrics(table, tracer.names, traced.correct_ids)
        metrics["trace.overhead_share"] = (1.0 - traced.ops_per_s() / client.ops_per_s(), "ratio")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{wl.name}.npz"
        np.savez(spans_file, spans=table, names=np.array(tracer.names), counted=np.array(traced.correct_ids))
        detail.update(absent_targets=tracer.absent, traced_passes=traced.passes,
                      spans_file=str(spans_file.relative_to(ROOT)))
        sent = [client, traced]

    attempted = sum(c.attempted for c in sent)
    failed = sum(c.failed for c in sent)
    detail.update(
        passes=client.passes,
        sends=attempted,
        fail_ratio=failed / attempted,
        errors=sum((c.errors for c in sent), Counter()),
        wrong=sum((c.wrong for c in sent), Counter()),
        wrong_examples=[e for c in sent for e in c.wrong_examples],
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    summary = "  ".join(f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items())
    print(f"bench {wl.name} seed={args.seed} trace={args.trace}: {summary}", file=sys.stderr)
    print(json.dumps({
        "correct": not any(c.wrong for c in sent),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
