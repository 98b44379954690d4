"""Benchmark entry point.

    python3 bench/run.py --workload tree-exact --seed 1 --seconds 20 --trace 0

Runs one workload of ``BENCHMARK.json`` against the package sources under
``src/`` of the checkout that holds this file:

1. generates the workload's inputs from the seed into ``.bench_work/``
   (outside any timing);
2. runs ``worker.py`` in a fresh interpreter, which times its own set-up
   (``import hmtkl`` plus building the CLI parser), warms up and runs the
   timed loop; between passes it times the set-up of further fresh
   interpreters, and ``setup_s`` is the median of all these samples
   (``--trace 1``: the traced run instead, see ``tracer.py``);
3. checks every job's exit code and output (``checks.py``);
4. prints a human-readable summary and, as the last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

BLAS and OpenMP thread pools are pinned to one thread in every process it
starts.  A record of the run goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RECORDS = ROOT / ".bench_out"

#: Thread pools pinned to one thread, and a fixed hash seed, in every process.
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Every run must end within this many seconds.
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def _percentile(values, q):
    """The q-quantile of `values` by linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _python(args, env, cwd, timeout):
    """Run a Python subprocess to completion (killing it at `timeout`); returns stdout."""
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def _end_to_end(result, setup):
    """End-to-end metrics of a timed run, the same at the machine's own speed,
    and the number of timed jobs beyond the 90th percentile.

    Every job is deterministic and runs once per pass.  Its latency is the
    median over the passes of its latency times the speed factor measured
    around it (see ``worker.py``), which gives the latency at the reference
    speed.  Throughput is the deck's job count over the sum of these
    latencies, and the percentiles are taken over them.
    """
    timed = slice(result["warmup_executions"], None)
    per_job: dict[int, list[float]] = {}
    raw: dict[int, list[float]] = {}
    for (index, latency, *_), speed in zip(result["executions"][timed], result["speeds"][timed]):
        per_job.setdefault(index, []).append(latency / 1e6 * speed)
        raw.setdefault(index, []).append(latency / 1e6)

    def figures(samples):
        medians = [statistics.median(v) for v in samples.values()]
        return {
            "jobs_per_s": len(medians) / (sum(medians) / 1e3),
            "job_p50_ms": _percentile(medians, 0.5),
            "job_p90_ms": _percentile(medians, 0.9),
        }

    values = figures(per_job)
    p90 = values["job_p90_ms"]
    beyond = sum(len(v) for v in per_job.values() if statistics.median(v) > p90)
    values.update(setup_s=statistics.median(setup), peak_rss_mb=result["maxrss_kb"] / 1024)
    return values, figures(raw), beyond


def _failures(deck, result, work_dir):
    """Per-execution failure flags: raised, unexpected exit code, changed or wrong output."""
    from checks import check_outputs

    wrong = check_outputs(deck, result["stdout"], work_dir)
    jobs = deck["jobs"]
    changed = set(result["changed"])
    flags = []
    for n, (index, _, code, *_) in enumerate(result["executions"]):
        job = jobs[index]
        flags.append(code != job["expect"] or n in changed or job["id"] in wrong)
    return flags, wrong


def _digest(stdout: dict[str, str]) -> str:
    h = hashlib.sha256()
    for job_id in sorted(stdout):
        h.update(f"{job_id}\t{stdout[job_id]}\0".encode())
    return h.hexdigest()


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "hmtkl" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    # Checks run in this process and must import the checkout's package.
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Byte code is cached (inside the checkout) as for an installed package,
    # so that setup_s does not include compiling the package.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    tag = f"{args.workload}-seed{args.seed}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    RECORDS.mkdir(exist_ok=True)
    try:
        deck = workloads.generate(args.workload, args.seed, work, args.size)
        # An untimed interpreter first, which compiles the byte code.
        _python([str(HERE / "worker.py"), "setup"], env, work, max(5.0, deadline - time.monotonic()))
        result_path = work / "result.json"
        spans_path = RECORDS / f"spans-{tag}.jsonl"
        worker_args = [str(HERE / "worker.py"), "run", "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worker_args += ["--out", str(result_path)]
        if args.trace:
            worker_args += ["--spans", str(spans_path)]
        _python(worker_args, env, work, max(5.0, deadline - time.monotonic()))
        result = json.loads(result_path.read_text(encoding="utf-8"))
        setup = result["setup_samples"]
        if Path(result["package"]).resolve() != (SRC / "hmtkl").resolve():
            raise RuntimeError(f"worker imported hmtkl from {result['package']}, not from {SRC}")
        flags, wrong = _failures(deck, result, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(flags), sum(flags)
    timed = [e for e in result["executions"][result["warmup_executions"] :] if not e[3]]
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "threads": {k: v for k, v in PINNED.items() if k != "PYTHONHASHSEED"},
        "python": sys.version.split()[0],
    }
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["per_layer"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, raw, beyond = _end_to_end(result, setup)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    print(
        f"environment: nproc={environment['nproc']} python={environment['python']} numpy={environment['numpy']} "
        f"scipy={environment['scipy']} blas/openmp threads pinned to 1"
    )
    print(f"timed loop: {len(timed)} jobs in {result['passes']} passes over {len(deck['jobs'])} distinct jobs, {result['loop_s']:.3f} s")
    speeds = [f for e, f in zip(result["executions"], result["speeds"]) if not e[3]][result["warmup_executions"] :]
    print(f"  machine speed factor during the untraced jobs: {min(speeds):.3f} .. {max(speeds):.3f} of the reference")
    if not args.trace:
        print(f"  {beyond} timed jobs lie beyond the 90th percentile; setup_s is the median of {len(setup)} fresh interpreters")
    for name in names:
        print(f"  {name} = {values[name]:.6g} {units[name]}")
    if not args.trace:
        print("  at the machine's own speed: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} executions, warm-up included)")
    for job_id, reason in sorted(wrong.items()):
        print(f"  wrong output: {job_id}: {reason}")
    for n, text in sorted(result["errors"].items()):
        print(f"  raised in execution {n}: {text.strip().splitlines()[-1]}")
    digest = _digest(result["stdout"])
    print(f"cli_digest=sha256:{digest}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment,
        "metrics": metrics,
        "failed_frac": failed / attempted,
        "setup_samples_s": setup,
        "executions": result["executions"],
        "speeds": result["speeds"],
        "calibrations": result["calibrations"],
        "cli_digest": digest,
        "wrong": wrong,
    }
    (RECORDS / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: small inputs for self-tests")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
