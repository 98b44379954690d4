"""One workload run in a fresh interpreter: set-up, warm-up, then the timed loop.

``run.py`` starts it with ``PYTHONPATH`` set to the package sources and the
deck directory as working directory:

    python3 bench/worker.py setup
    python3 bench/worker.py run --seconds S --trace 0|1 --out RESULT [--spans FILE]

``setup`` times ``import hmtkl`` plus building the CLI parser and prints it.
``run`` reads ``deck.json``, runs the warm-up jobs once, then runs the deck's
jobs as a closed loop with one client: each job is an in-process call to
``hmtkl.cli.main(argv)`` with stdout and stderr captured, and the next job
starts when the previous one returns.  Whole passes over the deck repeat until
at least S seconds (of passes), MIN_JOBS jobs and MIN_PASSES passes are done;
after each pass a fresh interpreter times its set-up.  Between jobs the
worker calibrates the machine's speed (see CALIBRATE_EVERY_NS).  With
``--trace 1`` the passes alternate untraced and traced (see ``tracer.py``),
and one more pass over the Monte Carlo jobs measures their memory with
``tracemalloc``.
"""

import sys
import time

_START = time.perf_counter()
import hmtkl  # noqa: E402
import hmtkl.cli  # noqa: E402

hmtkl.cli.build_parser()
SETUP_S = time.perf_counter() - _START

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

#: The timed loop runs at least this many jobs, so that at least ten lie
#: beyond the 90th percentile, and this many passes, so that every job has a
#: median latency out of several spread over the run.
MIN_JOBS = 110
MIN_PASSES = 4

#: Speed calibration.  The machine this benchmark was built on runs every
#: process up to 2x slower, in spells that come and go within a second and
#: in phases of minutes (other tenants of its cores), far beyond the
#: run-to-run bounds of the end-to-end metrics.  Before a job, when
#: CALIBRATE_EVERY_NS have passed since the last calibration, the worker
#: times a fixed kernel of the kinds of work the jobs do (interpreted loops
#: over digit strings, JSON parsing into arrays, small and large NumPy
#: operations).  A job's speed factor is REFERENCE_NS over the mean kernel
#: time of the last calibration before it and the first after it; its
#: latency times that factor is its latency at the reference speed, the
#: speed at which the kernel takes REFERENCE_NS.
CALIBRATE_EVERY_NS = 100_000_000
REFERENCE_NS = 6_000_000
_KERNEL_MATRIX = np.random.default_rng(0).random((64, 64)) / 64
_KERNEL_DOC = json.dumps({str(i): [[round(0.1 * i + 0.01 * j, 6) for j in range(4)]] * 4 for i in range(400)})
_KERNEL_PATHS = [format(i, "b") for i in range(1000)]


def calibration_kernel() -> int:
    """Run the fixed calibration work once; returns its duration in ns."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(20000):
        total += i * i
    sum(1 for p in _KERNEL_PATHS[:20] for q in _KERNEL_PATHS if len(q) == len(p) + 1 and q[: len(p)] == p)
    x = np.ones(64)
    for _ in range(400):
        x = _KERNEL_MATRIX @ x + 1.0
    y = np.arange(100000.0)
    np.sqrt(y * y + 1.0)
    [np.asarray(v) for v in json.loads(_KERNEL_DOC).values()]
    return time.perf_counter_ns() - start


class Runner:
    """Runs jobs and keeps, per execution, (job index, latency ns, exit code, traced, start ns).

    With ``calibrate=True`` it runs the calibration kernel between jobs (see
    CALIBRATE_EVERY_NS) and keeps (start ns, duration ns) of each run.
    """

    def __init__(self, jobs, calibrate=False):
        self.jobs = jobs
        self.executions: list[tuple[int, int, object, bool, int]] = []
        self.stdout: dict[int, str] = {}
        self.stderr: dict[int, str] = {}
        self.changed: set[int] = set()  # executions whose output differs from the job's first
        self.errors: dict[int, str] = {}
        self.calibrate = calibrate
        self.calibrations: list[tuple[int, int]] = []

    def calibration(self) -> None:
        now = time.perf_counter_ns()
        self.calibrations.append((now, calibration_kernel()))

    def speed(self, start_ns: int, end_ns: int) -> float:
        """Speed factor of the machine over [start_ns, end_ns], relative to the reference."""
        times = [t for t, _ in self.calibrations]
        before = max(0, bisect.bisect_right(times, start_ns) - 1)
        after = min(len(times) - 1, bisect.bisect_left(times, end_ns))
        return 2 * REFERENCE_NS / (self.calibrations[before][1] + self.calibrations[after][1])

    def run(self, index: int, tracer=None) -> int:
        """Run job `index` once; return its latency in ns."""
        if self.calibrate and (
            not self.calibrations or time.perf_counter_ns() - self.calibrations[-1][0] >= CALIBRATE_EVERY_NS
        ):
            self.calibration()
        out, err = io.StringIO(), io.StringIO()
        execution = len(self.executions)
        if tracer is not None:
            tracer.job = execution
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = hmtkl.cli.main(self.jobs[index]["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a job that raises is counted as failed, the loop goes on
            code = "raised"
            self.errors[execution] = traceback.format_exc()
        latency = time.perf_counter_ns() - start
        self.executions.append((index, latency, code, tracer is not None, start))
        text = out.getvalue()
        if index not in self.stdout:
            self.stdout[index], self.stderr[index] = text, err.getvalue()
        elif text != self.stdout[index]:
            self.changed.add(execution)
        return latency

    def deck(self, tracer=None) -> int:
        """One pass over every job in deck order; returns the summed latency in ns."""
        return sum(self.run(i, tracer) for i in range(len(self.jobs)))


def _setup_probe() -> float:
    """``SETUP_S`` of a fresh interpreter started from this one."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup"], capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout)["setup_s"]


def _timed(runner, seconds):
    """Timed passes; after each pass, outside the timing, a fresh interpreter
    times its set-up, so that the set-up samples spread over the run (the
    machine's speed drifts)."""
    first = len(runner.executions)
    loop_s, passes, setup = 0.0, 0, [SETUP_S]
    while True:
        start = time.perf_counter()
        runner.deck()
        loop_s += time.perf_counter() - start
        passes += 1
        setup.append(_setup_probe())
        if loop_s >= seconds and len(runner.executions) - first >= MIN_JOBS and passes >= MIN_PASSES:
            return {"loop_s": loop_s, "passes": passes, "setup_samples": setup}


def _traced(runner, seconds, spans_path):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    first = len(runner.executions)
    traced = passes = 0
    start = time.perf_counter()
    while True:
        # Pairs of passes alternate which side runs first, so that drift in
        # the machine's speed does not land on one side.
        for with_trace in (False, True) if passes % 2 == 0 else (True, False):
            if not with_trace:
                runner.deck()
                continue
            tracer.install()
            try:
                traced += runner.deck(tracer)
            finally:
                tracer.uninstall()
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    loop_s = time.perf_counter() - start
    runner.calibration()
    # Overhead compares each job's median traced and untraced latency at the
    # reference speed, as the end-to-end figures do.
    latencies: dict[tuple[int, bool], list[float]] = {}
    for index, latency, _, with_trace, begin in runner.executions[first:]:
        latencies.setdefault((index, with_trace), []).append(latency * runner.speed(begin, begin + latency))
    medians = {key: statistics.median(v) for key, v in latencies.items()}
    jobs = {index for index, _ in medians}
    overhead = sum(medians[i, True] for i in jobs) / sum(medians[i, False] for i in jobs) - 1.0
    # Memory pass: the jobs that called a Monte Carlo estimator, once each,
    # under tracemalloc (which slows them, so it is kept out of the timing).
    mc_jobs = sorted({runner.executions[s[4]][0] for s in tracer.spans if s[0].startswith("montecarlo.")})
    memory = Tracer(memory=True)
    runner.calibrate = False  # tracemalloc slows the kernel too
    memory.install()
    try:
        for index in mc_jobs:
            runner.run(index, memory)
    finally:
        memory.uninstall()
    metrics = layer_metrics(tracer, traced / 1e9, passes, memory.mc_peaks)
    metrics["trace.overhead_frac"] = overhead
    if spans_path:
        keys = ("name", "start_ns", "end_ns", "parent", "job", "raised")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
    return {"loop_s": loop_s, "passes": passes, "per_layer": metrics, "spans": len(tracer.spans), "setup_samples": [SETUP_S]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps({"setup_s": SETUP_S}))
        return 0

    with open("deck.json", encoding="utf-8") as handle:
        deck = json.load(handle)
    jobs = deck["jobs"]
    runner = Runner(jobs, calibrate=True)
    calibration_kernel()  # its own lazy set-up
    ids = [job["id"] for job in jobs]
    for job_id in deck["warmup"]:
        runner.run(ids.index(job_id))
    warm = len(runner.executions)
    if args.trace:
        summary = _traced(runner, args.seconds, args.spans)
    else:
        summary = _timed(runner, args.seconds)
    runner.calibration()
    import scipy

    summary.update(
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        warmup_executions=warm,
        executions=runner.executions,
        speeds=[runner.speed(e[4], e[4] + e[1]) for e in runner.executions],
        calibrations=runner.calibrations,
        stdout={ids[i]: text for i, text in runner.stdout.items()},
        stderr={ids[i]: text for i, text in runner.stderr.items()},
        changed=sorted(runner.changed),
        errors={str(k): v for k, v in runner.errors.items()},
        package=os.path.dirname(hmtkl.__file__),
        numpy=np.__version__,
        scipy=scipy.__version__,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
