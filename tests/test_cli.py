"""CLI subcommands, output formats, and exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hmtkl
from hmtkl.bundled import data_path, data_text
from hmtkl.cli import main


HMM_A = data_path("hmm_a.json")
HMM_B = data_path("hmm_b.json")
TREE_A = data_path("gauss_tree_a.json")
TREE_B = data_path("gauss_tree_b.json")
EVIDENCE_100 = data_path("evidence_block_100.txt")


@pytest.fixture
def bad_model_file(tmp_path):
    doc = json.loads(data_text("hmm_a.json"))
    doc["transition"] = [[0.5, 0.6], [0.5, 0.5]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def periodic_model_file(tmp_path):
    doc = json.loads(data_text("hmm_a.json"))
    doc["transition"] = [[0.0, 1.0], [1.0, 0.0]]
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", "--model-a", HMM_A, "--model-b", TREE_A]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_invalid_reports_and_exit_2(self, capsys, bad_model_file):
        assert main(["validate", "--model-a", bad_model_file]) == 2
        assert "row 1 sums to 1.1" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "--model-a", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("means", math.nan, "mean for state 1 is not finite"),
            ("means", math.inf, "mean for state 1 is not finite"),
            ("means", -math.inf, "mean for state 1 is not finite"),
            ("sds", math.inf, "sd for state 1 is not finite"),
        ],
    )
    def test_non_finite_gaussian_parameters_exit_2(self, capsys, tmp_path, key, value, problem):
        doc = json.loads(data_text("gauss_tree_a.json"))
        doc["emission"][""][key][0] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model-a", str(path)]) == 2
        assert f"emission at node '' {problem}" in capsys.readouterr().out
        assert main(["exact", "--model-a", str(path), "--model-b", TREE_B]) == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, where",
        [
            ("hmm_a.json", ("transition", 0, 0)),
            ("gauss_tree_a.json", ("transition", "0", 1, 0)),
            ("hmm_a.json", ("emission", "matrix", 1, 2)),
        ],
    )
    def test_non_numeric_parameter_exit_2(self, capsys, tmp_path, name, where):
        doc = json.loads(data_text(name))
        target = doc
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = {}
        path = tmp_path / "non_numeric.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model-a", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("model: ") and "dict" in captured.err


class TestHostileTopology:
    @pytest.mark.parametrize("depth, children", [(40, 2), (10**30, 3), (2**21, 1)])
    def test_huge_regular_tree_fails_fast_with_exit_2(self, capsys, tmp_path, depth, children):
        doc = {
            "type": "hmt",
            "states": 1,
            "alphabet": 1,
            "depth": depth,
            "children": children,
            "initial": [1.0],
            "transition": [[1.0]],
            "emission": {"kind": "discrete", "matrix": [[1.0]]},
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", "--model-a", str(path)], ["exact", "--model-a", str(path), "--model-b", str(path)]):
            start = time.perf_counter()
            assert main(argv) == 2
            assert time.perf_counter() - start < 1.0
            assert "more than 1048576 nodes" in capsys.readouterr().err


class TestExact:
    def test_tree_pair_golden(self, capsys):
        assert main(["exact", "--model-a", TREE_A, "--model-b", TREE_B]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("exact_kld=0.68952288455")
        assert out.endswith("method=tree-recursion")

    def test_identical_models_zero(self, capsys):
        assert main(["exact", "--model-a", HMM_A, "--model-b", HMM_A]) == 0
        assert capsys.readouterr().out.strip() == "exact_kld=0 method=closed-form"

    def test_hmm_with_length_override(self, capsys):
        assert main(["exact", "--model-a", HMM_A, "--model-b", HMM_B, "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("exact_kld=2.23611193377")  # enumeration-checked value

    def test_fast_method_tag(self, capsys):
        assert main(["exact", "--model-a", HMM_A, "--model-b", HMM_B, "--n", "1000", "--fast"]) == 0
        assert "method=fast-path" in capsys.readouterr().out

    def test_fast_fallback_notes_and_uses_direct(self, capsys, periodic_model_file):
        code = main(["exact", "--model-a", periodic_model_file, "--model-b", HMM_B, "--fast"])
        captured = capsys.readouterr()
        assert code == 0
        assert "method=closed-form" in captured.out
        assert "fast path unavailable" in captured.err

    @pytest.mark.parametrize("n", ["10", "1000", "1000000000"])
    def test_fast_prints_the_closed_form_value(self, capsys, n):
        assert main(["exact", "--model-a", HMM_A, "--model-b", HMM_B, "--n", n]) == 0
        direct = capsys.readouterr().out.split()[0]
        assert main(["exact", "--model-a", HMM_A, "--model-b", HMM_B, "--n", n, "--fast"]) == 0
        assert capsys.readouterr().out.split()[0] == direct

    @pytest.mark.parametrize("fast", [[], ["--fast"]])
    def test_overflow_beside_an_unreached_infinite_term_exits_3(self, capsys, tmp_path, fast):
        paths = []
        for name, transition, emission in [
            ("a", [[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]], [[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]]),
            ("b", [[0.5, 0.5, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]], [[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]]),
        ]:
            doc = {"type": "hmm", "states": 3, "alphabet": 2, "length": 10, "initial": [0.5, 0.5, 0.0], "transition": transition}
            doc["emission"] = {"kind": "discrete", "matrix": emission}
            paths += ["--model-" + name, str(tmp_path / f"{name}.json")]
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        assert main(["exact", *paths, "--n", "100000", *fast]) == 0
        assert capsys.readouterr().out.startswith("exact_kld=4493.41973562 ")
        assert main(["exact", *paths, "--n", str(10**310), *fast]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("geometric sum overflows 64-bit floats")

    def test_mixed_types_rejected(self, capsys):
        assert main(["exact", "--model-a", HMM_A, "--model-b", TREE_A]) == 2

    def test_homogeneous_tree_uses_closed_form(self, capsys, tmp_path):
        doc = {
            "type": "hmt",
            "states": 2,
            "alphabet": 2,
            "depth": 3,
            "children": 2,
            "initial": [0.5, 0.5],
            "transition": [[0.9, 0.1], [0.2, 0.8]],
            "emission": {"kind": "discrete", "matrix": [[0.8, 0.2], [0.3, 0.7]]},
        }
        path_a = tmp_path / "a.json"
        path_a.write_text(json.dumps(doc))
        doc["transition"] = [[0.7, 0.3], [0.4, 0.6]]
        path_b = tmp_path / "b.json"
        path_b.write_text(json.dumps(doc))
        assert main(["exact", "--model-a", str(path_a), "--model-b", str(path_b)]) == 0
        assert "method=closed-form" in capsys.readouterr().out

    def test_invalid_model_exit_2(self, capsys, bad_model_file):
        assert main(["exact", "--model-a", bad_model_file, "--model-b", HMM_B]) == 2
        assert "row 1 sums to 1.1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--model-a", HMM_A, "--model-b", HMM_B],
        ["mc", "--model-a", HMM_A, "--model-b", HMM_B, "--trials", "10"],
        ["rate", "--model-a", HMM_A, "--model-b", HMM_B],
    ],
)
def test_zero_length_override_is_rejected(capsys, argv):
    assert main([*argv, "--n", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "length must be >= 1" in captured.err


@pytest.mark.parametrize("command", [["exact"], ["mc", "--trials", "10"]])
@pytest.mark.parametrize("n", ["0", "5"])
def test_length_override_on_tree_files_is_rejected(capsys, command, n):
    assert main([*command, "--model-a", TREE_A, "--model-b", TREE_B, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n overrides the length of hmm model files only" in captured.err


def test_repeated_calls_parse_each_command_afresh(capsys):
    for argv, message in [
        (["exact", "--model-a", HMM_A], "hmtkl exact: error: the following arguments are required: --model-b"),
        (["validate"], "hmtkl validate: error: the following arguments are required: --model-a"),
        (["bound", "--model-a", HMM_A, "--model-b", HMM_B, "--n", "x"], "hmtkl bound: error: argument --n: invalid int value: 'x'"),
        (["nonsense"], "hmtkl: error: argument command: invalid choice: 'nonsense'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: hmtkl") and message in captured.err
    # no option carries over from one call to the next
    assert main(["exact", "--model-a", HMM_A, "--model-b", HMM_B, "--fast", "--n", "50"]) == 0
    assert capsys.readouterr().out.endswith(" method=fast-path\n")
    assert main(["exact", "--model-a", HMM_A, "--model-b", HMM_B]) == 0
    assert capsys.readouterr().out == "exact_kld=5.6628668946 method=closed-form\n"


class TestRate:
    def test_golden_line(self, capsys):
        assert main(["rate", "--model-a", HMM_A, "--model-b", HMM_B]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("nu=0.666667,0.333333 rate=0.568057850529")

    def test_identical_models(self, capsys):
        assert main(["rate", "--model-a", HMM_A, "--model-b", HMM_A]) == 0
        assert "rate=0" in capsys.readouterr().out

    def test_periodic_exit_3(self, capsys, periodic_model_file):
        assert main(["rate", "--model-a", periodic_model_file, "--model-b", HMM_B]) == 3
        assert "no unique stationary distribution" in capsys.readouterr().err

    def test_stationary_solve_precedes_the_pair_check(self, capsys, tmp_path, periodic_model_file):
        doc = json.loads(data_text("hmm_b.json"))
        doc["length"] += 1
        longer = tmp_path / "longer.json"
        longer.write_text(json.dumps(doc))
        assert main(["rate", "--model-a", periodic_model_file, "--model-b", str(longer)]) == 3
        assert "no unique stationary distribution" in capsys.readouterr().err
        assert main(["rate", "--model-a", HMM_A, "--model-b", str(longer)]) == 2
        assert "length mismatch" in capsys.readouterr().err


class TestBound:
    def test_matches_exact(self, capsys):
        main(["bound", "--model-a", HMM_A, "--model-b", HMM_B])
        bound_line = capsys.readouterr().out
        main(["exact", "--model-a", HMM_A, "--model-b", HMM_B])
        exact_line = capsys.readouterr().out
        assert bound_line.split("=")[1].split()[0] == exact_line.split("=")[1].split()[0]

    def test_huge_length_matches_exact(self, capsys):
        n = ["--n", "1000000000"]
        assert main(["bound", "--model-a", HMM_A, "--model-b", HMM_B, *n]) == 0
        bound_line = capsys.readouterr().out
        assert main(["exact", "--model-a", HMM_A, "--model-b", HMM_B, *n]) == 0
        exact_line = capsys.readouterr().out
        assert bound_line.split("=")[1].split()[0] == exact_line.split("=")[1].split()[0]

    @pytest.mark.parametrize("command", ["exact", "bound"])
    def test_overflow_exit_3(self, capsys, command):
        assert main([command, "--model-a", HMM_A, "--model-b", HMM_B, "--n", str(10**400)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows 64-bit floats" in captured.err and captured.err.count("\n") == 1


class TestEvidenceExact:
    def test_value(self, capsys, tmp_path):
        ev = tmp_path / "ev.txt"
        ev.write_text("1 1 1 2 2 2 3 3 3 3\n")
        assert main(["evidence-exact", "--model-a", HMM_A, "--model-b", HMM_B, "--evidence", str(ev)]) == 0
        assert capsys.readouterr().out.startswith("evidence_kld=0.712347232789")

    def test_requires_evidence(self, capsys):
        assert main(["evidence-exact", "--model-a", HMM_A, "--model-b", HMM_B]) == 2

    def test_zero_likelihood_exit_3(self, capsys, tmp_path):
        doc = json.loads(data_text("hmm_a.json"))
        doc["emission"]["matrix"] = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        blind = tmp_path / "blind.json"
        blind.write_text(json.dumps(doc))
        ev = tmp_path / "ev.txt"
        ev.write_text("1 1 2 1 1 1 1 1 1 1\n")
        assert main(["evidence-exact", "--model-a", str(blind), "--model-b", HMM_B, "--evidence", str(ev)]) == 3


class TestMc:
    def test_reproducible_output(self, capsys):
        args = ["mc", "--model-a", TREE_A, "--model-b", TREE_B, "--trials", "2000", "--seed", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("mc_mean=")
        assert "seed=5" in first

    def test_hmm_pair_goes_through_chain_tree(self, capsys):
        assert main(["mc", "--model-a", HMM_A, "--model-b", HMM_B, "--trials", "500", "--seed", "1", "--n", "5"]) == 0

    def test_evidence_variant(self, capsys, tmp_path):
        ev = tmp_path / "ev.txt"
        ev.write_text("1 1 1 2 2 2 3 3 3 3\n")
        args = [
            "mc", "--model-a", HMM_A, "--model-b", HMM_B,
            "--evidence", str(ev), "--trials", "2000", "--seed", "3",
        ]
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("mc_mean=")

    def test_trials_validation(self, capsys):
        assert main(["mc", "--model-a", TREE_A, "--model-b", TREE_B, "--trials", "1"]) == 2


class TestSweep:
    def test_csv_format_and_determinism(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        args = [
            "sweep", "--model-a", HMM_A, "--model-b", HMM_B,
            "--n-min", "2", "--n-max", "10", "--step", "4",
            "--trials", "200", "--seed", "7", "--out", str(out),
        ]
        assert main(args) == 0
        text = out.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "N,exact,exact_per_n,rate,mc_mean,ci_lo,ci_hi,trials,seed"
        assert len(lines) == 4
        assert lines[1].startswith("2,")
        assert main(args) == 0
        assert out.read_text() == text

    def test_single_row_length_one(self, capsys, tmp_path):
        out = tmp_path / "one.csv"
        args = [
            "sweep", "--model-a", HMM_A, "--model-b", HMM_B,
            "--n-min", "1", "--n-max", "1", "--trials", "100", "--seed", "0", "--out", str(out),
        ]
        assert main(args) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        # at length 1 the divergence is the root term
        assert float(row[1]) == pytest.approx(0.4919776796806992, abs=1e-10)
        assert float(row[2]) == pytest.approx(float(row[1]), abs=1e-15)

    def test_with_evidence_file(self, capsys, tmp_path):
        out = tmp_path / "ev.csv"
        args = [
            "sweep", "--model-a", HMM_A, "--model-b", HMM_B,
            "--n-min", "5", "--n-max", "15", "--step", "5",
            "--trials", "200", "--seed", "1", "--evidence", EVIDENCE_100, "--out", str(out),
        ]
        assert main(args) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_evidence_too_short(self, capsys, tmp_path):
        ev = tmp_path / "short.txt"
        ev.write_text("1 2 3\n")
        args = [
            "sweep", "--model-a", HMM_A, "--model-b", HMM_B,
            "--n-min", "1", "--n-max", "10", "--evidence", str(ev),
        ]
        assert main(args) == 2

    def test_bad_bounds(self, capsys):
        assert main(["sweep", "--model-a", HMM_A, "--model-b", HMM_B, "--n-min", "5", "--n-max", "2"]) == 2

    @pytest.mark.parametrize("step", ["0", "-1"])
    def test_step_below_one_rejected(self, capsys, step):
        args = ["sweep", "--model-a", HMM_A, "--model-b", HMM_B, "--n-min", "2", "--n-max", "4", "--step", step]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"sweep step must be >= 1, got {step}" in captured.err

    def test_stdout_when_no_out(self, capsys):
        args = ["sweep", "--model-a", HMM_A, "--model-b", HMM_B, "--n-min", "2", "--n-max", "2", "--trials", "50"]
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("N,exact,")


class TestConsoleScript:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "hmtkl.cli", "exact", "--model-a", TREE_A, "--model-b", TREE_B],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("exact_kld=0.68952288455")

    def test_package_invocation(self):
        env = {**os.environ, "PYTHONPATH": str(Path(hmtkl.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "hmtkl", "exact", "--model-a", TREE_A, "--model-b", TREE_B],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("exact_kld=0.68952288455")


#: The options that each subcommand takes besides --model-a/--model-b.
OPTIONS_TAKEN = {
    "validate": (),
    "exact": ("--n", "--fast"),
    "rate": ("--n",),
    "bound": ("--n",),
    "evidence-exact": ("--n", "--evidence"),
    "mc": ("--n", "--evidence", "--trials", "--seed"),
    "sweep": ("--evidence", "--n-min", "--n-max", "--step", "--trials", "--seed", "--out"),
}
FORMER_OPTIONS = ("--evidence", "--n", "--n-min", "--n-max", "--step", "--trials", "--seed", "--out", "--fast", "--no-fast")


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, taken in OPTIONS_TAKEN.items() for option in FORMER_OPTIONS if option not in taken],
)
def test_option_the_command_does_not_read_exits_2(capsys, command, option):
    value = [] if option in ("--fast", "--no-fast") else ["1"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--model-a", HMM_A, "--model-b", HMM_B, option, *value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"hmtkl: error: unrecognized arguments: {option}" in captured.err


def test_impossible_allocation_exits_2(capsys):
    # 10**16 trials need 8e16 bytes, beyond any 64-bit user address space, so
    # the allocation fails at once even where the kernel overcommits memory.
    assert main(["mc", "--model-a", TREE_A, "--model-b", TREE_B, "--trials", str(10**16)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Unable to allocate") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["evidence-exact"],
        ["mc", "--trials", "10"],
        ["sweep", "--n-min", "2", "--n-max", "4", "--trials", "10"],
    ],
)
def test_evidence_symbol_beyond_int64_exits_2(capsys, tmp_path, command):
    ev = tmp_path / "ev.txt"
    ev.write_text("1 2 99999999999999999999999 1 1 1 1 1 1 1\n")
    assert main([*command, "--model-a", HMM_A, "--model-b", HMM_B, "--evidence", str(ev)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "evidence symbol 99999999999999999999999 is too large\n"


#: Chain and tree documents that differ from `_PAIR_BASE` in one respect.
_PAIR_BASE = {
    "hmm": {
        "type": "hmm", "states": 2, "alphabet": 3, "length": 10, "initial": [0.5, 0.5],
        "transition": [[0.9, 0.1], [0.2, 0.8]],
        "emission": {"kind": "discrete", "matrix": [[0.1, 0.3, 0.6], [0.2, 0.1, 0.7]]},
    },
    "hmt": {
        "type": "hmt", "states": 2, "alphabet": 3, "depth": 3, "children": 2, "initial": [0.6, 0.4],
        "transition": [[0.7, 0.3], [0.4, 0.6]],
        "emission": {"kind": "discrete", "matrix": [[0.1, 0.3, 0.6], [0.5, 0.25, 0.25]]},
    },
}
_PAIR_VARIANTS = {
    ("hmm", "alphabet"): {"alphabet": 2, "emission": {"kind": "discrete", "matrix": [[0.4, 0.6], [0.3, 0.7]]}},
    ("hmm", "states"): {
        "states": 3, "initial": [0.2, 0.3, 0.5], "transition": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
        "emission": {"kind": "discrete", "matrix": [[0.1, 0.3, 0.6], [0.2, 0.1, 0.7], [0.3, 0.3, 0.4]]},
    },
    ("hmm", "kind"): {"alphabet": "gaussian", "emission": {"kind": "gaussian", "means": [0.0, 1.0], "sds": [1.0, 2.0]}},
    ("hmm", "length"): {"length": 11},
    ("hmt", "alphabet"): {"alphabet": 2, "emission": {"kind": "discrete", "matrix": [[0.4, 0.6], [0.3, 0.7]]}},
    ("hmt", "depth"): {"depth": 2},
}
_PAIR_COMMANDS = {
    "hmm": {
        "exact": ["exact"],
        "exact --fast": ["exact", "--fast"],
        "rate": ["rate"],
        "bound": ["bound"],
        "evidence-exact": ["evidence-exact", "--evidence", "EVIDENCE"],
        "mc": ["mc", "--trials", "50"],
        "mc --evidence": ["mc", "--evidence", "EVIDENCE", "--trials", "50"],
        "sweep": ["sweep", "--trials", "50"],
    },
    "hmt": {"exact": ["exact"], "mc": ["mc", "--trials", "50"]},
}


def _pair_message(field, first, second, command):
    """The one stderr line of `command` on a pair that differs in `field`."""
    if field == "alphabet":
        return f"alphabet size mismatch: {first['alphabet']} vs {second['alphabet']}"
    if field == "states":
        return f"state count mismatch: {first['states']} vs {second['states']}"
    if field == "kind":
        return f"emission kind mismatch: {first['emission']['kind']} vs {second['emission']['kind']}"
    if field == "length" and command != "mc":  # mc runs a chain as its one-child tree
        return f"length mismatch: {first['length']} vs {second['length']}"
    return "models must share the same topology"


@pytest.mark.parametrize("base_first", [True, False], ids=["base-first", "variant-first"])
@pytest.mark.parametrize(
    "kind, field, command",
    [(kind, field, command) for kind, field in _PAIR_VARIANTS for command in _PAIR_COMMANDS[kind]],
)
def test_mismatched_pair_exits_2_on_every_pair_command(capsys, tmp_path, kind, field, command, base_first):
    base = _PAIR_BASE[kind]
    variant = {**base, **_PAIR_VARIANTS[kind, field]}
    pair = (base, variant) if base_first else (variant, base)
    paths = []
    for name, doc in zip("ab", pair):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    evidence = tmp_path / "evidence.txt"
    evidence.write_text("1 2 3 1 2 3 1 2 1 2\n")
    argv = [str(evidence) if arg == "EVIDENCE" else arg for arg in _PAIR_COMMANDS[kind][command]]
    assert main([*argv, "--model-a", paths[0], "--model-b", paths[1]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _pair_message(field, *pair, command) + "\n"
