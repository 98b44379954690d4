"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py

(The file is not named ``test_*.py``, so the package's own test run does not
collect it.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bindings():
    """Every function-valued binding in the package's modules and wrapped classes."""
    import hmtkl
    from hmtkl.model import HmmModel, HmtTopology

    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "hmtkl" or name.startswith("hmtkl."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    for cls in (HmtTopology, HmmModel):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    assert hmtkl
    return out


def test_tracer_wraps_nothing_unless_installed():
    import hmtkl.cli
    from hmtkl.model import HmtTopology

    before = _bindings()
    tracer = Tracer()
    assert _bindings() == before
    tracer.install()
    try:
        during = _bindings()
        for key in [
            ("hmtkl.cli", "kld_exact_tree"),
            ("hmtkl.tree", "local_k_vector"),
            ("hmtkl.model", "validate"),
            ("hmtkl.hmm", "backward_quantities"),
            ("hmtkl.montecarlo", "posterior_conditionals"),
            ("hmtkl.cli", "_kld_hmm_spectral"),
            ("HmtTopology", "from_nodes"),
            ("HmtTopology", "regular"),
            ("HmmModel", "as_tree"),
        ]:
            assert during[key] is not before[key], key
        # the package's own helpers stay unwrapped
        assert during[("hmtkl.tree", "weighted_sum")] is before[("hmtkl.tree", "weighted_sum")]
        assert HmtTopology.regular(2, 2).n_nodes == 3
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert hmtkl.cli.main.__module__ == "hmtkl.cli" and not hasattr(hmtkl.cli.main, "__wrapped__")


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first, second, other = (tmp_path / workload / n for n in ("a", "b", "c"))
        workloads.generate(workload, 7, first, "tiny")
        workloads.generate(workload, 7, second, "tiny")
        workloads.generate(workload, 8, other, "tiny")
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        assert (first / "deck.json").read_bytes() != (other / "deck.json").read_bytes()


def test_traced_and_untraced_jobs_print_the_same_lines(tmp_path, monkeypatch):
    import worker

    for workload in workloads.WORKLOADS:
        deck = workloads.generate(workload, 3, tmp_path / workload, "tiny")
        monkeypatch.chdir(tmp_path / workload)
        plain = worker.Runner(deck["jobs"])
        plain.deck()
        traced = worker.Runner(deck["jobs"])
        tracer = Tracer()
        tracer.install()
        try:
            traced.deck(tracer)
        finally:
            tracer.uninstall()
        assert tracer.spans
        assert all(e[2] == 0 for e in plain.executions + traced.executions)
        assert plain.stdout == traced.stdout


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_is_correct_and_emits_the_declared_metrics(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac = 0 ratio" in proc.stdout
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "1":
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "chain-exact", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_file_follows_its_schema():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
