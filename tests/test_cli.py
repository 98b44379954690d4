"""CLI subcommands, output formats, and exit codes."""

import argparse
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmtkl
from hmtkl import HmmModel, ModelError, load_model
from hmtkl.bundled import data_path, data_text
from hmtkl.cli import build_parser, main


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

    @pytest.mark.parametrize("where", ["initial", "transition row 2"])
    def test_infinities_of_both_signs_sum_to_nan_without_a_warning(self, capsys, tmp_path, where):
        # inf + -inf is NumPy's invalid value: its RuntimeWarning must not
        # reach the user, or pytest's error filter, beside the report
        doc = json.loads(data_text("hmm_a.json"))
        if where == "initial":
            doc["initial"] = [math.inf, -math.inf]
        else:
            doc["transition"][1] = [math.inf, -math.inf]
        path = tmp_path / "infinities.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--model-a", str(path)]) == 2
        assert capsys.readouterr().out == f"{path}: {where} has a negative entry\n{path}: {where} sums to nan\n"

    def test_initial_that_is_not_a_vector_exit_2(self, capsys, tmp_path):
        doc = json.loads(data_text("hmm_a.json"))
        doc.update(states=1, initial=[[1.0]], transition=[[1.0]], emission={"kind": "discrete", "matrix": [[0.5, 0.5, 0.0]]})
        path = str(tmp_path / "matrix_initial.json")
        Path(path).write_text(json.dumps(doc))
        for argv in (["validate"], ["exact", "--model-b", path], ["mc", "--model-b", path, "--trials", "10"]):
            assert main([*argv, "--model-a", path]) == 2
            captured = capsys.readouterr()
            if argv == ["validate"]:  # a report line, prefixed with the file's path
                assert (captured.out, captured.err) == (f"{path}: model: initial must be a vector\n", "")
            else:
                assert (captured.out, captured.err) == ("", "model: initial must be a vector\n")

    def test_a_broken_file_is_named_and_the_next_is_checked(self, capsys, tmp_path):
        doc = json.loads(data_text("hmm_a.json"))
        del doc["states"]
        broken = tmp_path / "no_states.json"
        broken.write_text(json.dumps(doc))
        truncated = tmp_path / "truncated.json"
        truncated.write_text(data_text("hmm_a.json")[:40])
        for path in (broken, truncated):
            assert main(["validate", "--model-a", str(path), "--model-b", HMM_B]) == 2
            captured = capsys.readouterr()
            first, second = captured.out.splitlines()
            assert first.startswith(f"{path}: ") and second == f"{HMM_B}: ok"
            assert captured.err == ""
        assert main(["validate", "--model-a", str(broken)]) == 2
        assert capsys.readouterr().out == f"{broken}: model: missing required key 'states'\n"

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
        assert captured.err == ""
        assert captured.out.startswith(f"{path}: model: ") and "dict" in captured.out


    @pytest.mark.parametrize("name, key", [("hmm_a.json", "length"), ("hmm_a.json", "states"), ("gauss_tree_a.json", "depth")])
    def test_boolean_for_an_integer_key_exit_2(self, capsys, tmp_path, name, key):
        doc = json.loads(data_text(name))
        doc[key] = True
        path = tmp_path / "boolean.json"
        path.write_text(json.dumps(doc))
        context = {"length": "hmm model", "states": "model", "depth": "hmt model"}[key]
        line = f"{context}: key '{key}' has unexpected type bool\n"
        for argv, expected in (
            (["validate", "--model-a", str(path)], (f"{path}: {line}", "")),
            (["exact", "--model-a", str(path), "--model-b", str(path)], ("", line)),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == expected


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
            captured = capsys.readouterr()
            # validate prints the error as a report line of the file
            assert "more than 1048576 nodes" in (captured.out if argv[0] == "validate" else captured.err)


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

    def test_fast_fallback_note_is_the_library_warning(self, capsys, periodic_model_file):
        assert main(["exact", "--model-a", periodic_model_file, "--model-b", HMM_B, "--fast"]) == 0
        note = capsys.readouterr().err
        with pytest.warns(UserWarning) as record:
            hmtkl.kld_hmm_fast(load_model(Path(periodic_model_file).read_text()), load_model(data_text("hmm_b.json")))
        assert [f"note: {w.message}\n" for w in record] == [note]

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

    @pytest.mark.parametrize(
        "transition, reason",
        [
            ([[0, 1, 0], [0, 0, 1], [0, 0, 1]], "eigendecomposition residual 1 exceeds 1e-09"),
            ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]], "eigenvector basis is singular"),
        ],
        ids=["residual", "singular-basis"],
    )
    def test_fast_fallback_on_a_defective_matrix(self, capsys, tmp_path, transition, reason):
        paths, d = [], len(transition)
        for name in ("a", "b"):
            doc = {"type": "hmm", "states": d, "alphabet": 2, "length": 20, "initial": [1 / d] * d}
            # the second model's transitions are all positive, so every local term is finite
            doc["transition"] = transition if name == "a" else [[1 / d] * d] * d
            doc["emission"] = {"kind": "discrete", "matrix": [[0.3, 0.7]] * d if name == "a" else [[0.6, 0.4]] * d}
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            paths += ["--model-" + name, str(tmp_path / f"{name}.json")]
        assert main(["exact", *paths]) == 0
        direct = capsys.readouterr().out
        assert main(["exact", *paths, "--fast"]) == 0
        captured = capsys.readouterr()
        assert captured.err.startswith(f"note: fast path unavailable ({reason}")
        assert captured.out == direct
        assert direct.endswith(" method=closed-form\n")

    def test_a_jordan_block_inside_the_disc_takes_the_fast_path(self, capsys, tmp_path):
        # rows sharing 0.77 of their mass prove a simple unit eigenvalue, so
        # the defective eigenvalue 0 that `spectral_split` refuses at its
        # residual no longer sends the job to the fallback
        nu, x, y = [0.4, 0.35, 0.25], [1, -8 / 7, 0], [8 / 7, 1, -15 / 7]
        transition = [[nu[j] + 0.05 * x[i] * y[j] for j in range(3)] for i in range(3)]
        assert min(map(min, transition)) >= 0.14
        paths = _chain_pair(tmp_path, transition)
        assert main(["exact", *paths]) == 0
        direct = capsys.readouterr().out
        assert main(["exact", *paths, "--fast"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == direct.replace(" method=closed-form", " method=fast-path")
        assert direct.endswith(" method=closed-form\n")

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


def _chain_pair(tmp_path, transition):
    """``--model-a``/``--model-b`` arguments for two chains of length 20: the
    first with `transition`, the second with uniform, so all positive,
    transition rows."""
    paths, d = [], len(transition)
    for name in ("a", "b"):
        doc = {"type": "hmm", "states": d, "alphabet": 2, "length": 20, "initial": [1 / d] * d}
        doc["transition"] = transition if name == "a" else [[1 / d] * d] * d
        doc["emission"] = {"kind": "discrete", "matrix": [[0.3, 0.7]] * d if name == "a" else [[0.6, 0.4]] * d}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        paths += ["--model-" + name, str(tmp_path / f"{name}.json")]
    return paths


#: The flip ``[[eps, 1 - eps], [1 - eps, eps]]`` has eigenvalues 1 and
#: 2 eps - 1, and its rows share 2 eps of their mass.  The fast path trusts
#: the shared mass above 1e-10 + 4e-12 (its contraction margin plus four times
#: STOCH_TOL) and `rate` above 1e-8 + 4e-9 (its unit tolerance plus four times
#: its row tolerance); below, the eigenvalues decide, as before.  Each case is
#: 2 eps a thousandth below or above one of those thresholds or one of the
#: eigenvalue tests', with the fast path's note (None: `fast-path`) and
#: `rate`'s error (None: exit 0).
FAST_NOTE = "second-largest eigenvalue modulus"
RATE_ERROR = "another eigenvalue lies on the unit circle"
FLIP_CASES = {
    "fast-margin-below": (1e-10 * (1 - 1e-3), FAST_NOTE, RATE_ERROR),
    "fast-margin-above": (1e-10 * (1 + 1e-3), None, RATE_ERROR),
    "fast-mass-below": ((1e-10 + 4e-12) * (1 - 1e-3), None, RATE_ERROR),
    "fast-mass-above": ((1e-10 + 4e-12) * (1 + 1e-3), None, RATE_ERROR),
    "rate-tol-below": (1e-8 * (1 - 1e-3), None, RATE_ERROR),
    "rate-tol-above": (1e-8 * (1 + 1e-3), None, None),
    "rate-mass-below": ((1e-8 + 4e-9) * (1 - 1e-3), None, None),
    "rate-mass-above": ((1e-8 + 4e-9) * (1 + 1e-3), None, None),
}


@pytest.mark.parametrize("two_eps, note, error", FLIP_CASES.values(), ids=FLIP_CASES.keys())
def test_the_flip_keeps_its_fast_tag_and_rate_about_each_threshold(capsys, tmp_path, two_eps, note, error):
    eps = two_eps / 2
    paths = _chain_pair(tmp_path, [[eps, 1 - eps], [1 - eps, eps]])
    assert main(["exact", *paths]) == 0
    direct = capsys.readouterr().out
    assert main(["exact", *paths, "--fast"]) == 0
    captured = capsys.readouterr()
    if note is None:
        assert captured.err == ""
        assert captured.out == direct.replace(" method=closed-form", " method=fast-path")
    else:
        assert captured.err.startswith(f"note: fast path unavailable ({note} ")
        assert captured.out == direct
    code = main(["rate", *paths])
    captured = capsys.readouterr()
    if error is None:
        assert code == 0
        assert captured.out.startswith("nu=0.500000,0.500000 rate=")
    else:
        assert code == 3
        assert captured.err.splitlines()[-1].endswith(f"no unique stationary distribution: {error}")


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

    def test_pair_check_precedes_the_stationary_solve(self, capsys, tmp_path, periodic_model_file):
        """A pair the divergence is not defined between exits 2, as it does
        under `exact`, even when the first chain has no stationary law."""
        longer, binary = json.loads(data_text("hmm_b.json")), json.loads(data_text("hmm_b.json"))
        longer["length"] += 1
        binary.update(alphabet=2, emission={"kind": "discrete", "matrix": [[0.4, 0.6], [0.9, 0.1]]})
        for name, doc, message in (("longer", longer, "length mismatch: 10 vs 11"), ("binary", binary, "alphabet size mismatch: 3 vs 2")):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            for model_a in (periodic_model_file, HMM_A):
                for command in ("rate", "exact"):
                    assert main([command, "--model-a", model_a, "--model-b", str(tmp_path / f"{name}.json")]) == 2
                    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


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

    @pytest.mark.parametrize("evidence", [[], ["--n", "100", "--evidence", EVIDENCE_100]], ids=["joint", "evidence"])
    def test_infinite_trials_print_sd_inf_not_nan(self, capsys, tmp_path, evidence):
        doc = json.loads(data_text("hmm_b.json"))
        doc["transition"][0] = [1.0, 0.0]  # hmm_a moves from state 1 to state 2, which hmm_b cannot
        path = tmp_path / "b.json"
        path.write_text(json.dumps(doc))
        assert main(["mc", "--model-a", HMM_A, "--model-b", str(path), "--trials", "100", "--seed", "0", *evidence]) == 0
        out = capsys.readouterr().out
        assert out.startswith("mc_mean=inf sd=inf ci_lo=inf ci_hi=inf trials=100 seed=0 infinite_trials=")
        assert int(out.split("infinite_trials=")[1]) > 0
        assert "nan" not in out


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

    def test_evidence_row_at_length_one_is_zero_not_negative(self, capsys):
        args = ["sweep", "--model-a", HMM_A, "--model-b", HMM_B, "--evidence", EVIDENCE_100, "--n-min", "1", "--trials", "10"]
        assert main(args) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:3] == ["1", "0", "0"]  # rounding once printed -1.66533453694e-16

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

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2_before_any_row(self, capsys, monkeypatch, tmp_path, where):
        out = tmp_path / "absent" / "sweep.csv" if where == "missing-directory" else tmp_path

        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed before --out was opened")

        for name in ("kld_rate", "kld_hmm_no_evidence", "mc_kld_no_evidence"):
            monkeypatch.setattr(hmtkl.cli, name, no_rows)
        args = ["sweep", "--model-a", HMM_A, "--model-b", HMM_B, "--n-min", "1", "--n-max", "3", "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {out}: ")
        assert len(captured.err.splitlines()) == 1

    def test_rate_field_is_empty_without_a_unique_stationary_law(self, capsys, tmp_path, periodic_model_file):
        out = tmp_path / "periodic.csv"
        args = ["sweep", "--model-a", periodic_model_file, "--model-b", HMM_B, "--n-min", "1", "--n-max", "3", "--trials", "50", "--out", str(out)]
        assert main(args) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert all(row[3] == "" for row in rows)
        assert "nan" not in out.read_text()


HELP_ARGV = [[]] + [[command] for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction) for command in action.choices]


@pytest.mark.parametrize("flag", ["--help", "-h"])
@pytest.mark.parametrize("argv", HELP_ARGV, ids=lambda argv: " ".join(argv) or "hmtkl")
def test_help_exits_0(capsys, argv, flag):
    """Help on the top-level parser and on every subcommand prints a usage
    and exits 0: argparse %-formats help strings, so a bare % fails there."""
    with pytest.raises(SystemExit) as exit_:
        main(argv + [flag])
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: hmtkl")
    assert captured.err == ""


class TestNestedJson:
    """Arrays nested past the decoder's recursion limit are a format error."""

    @staticmethod
    def nested_copy(tmp_path, depth):
        doc = json.loads(data_text("hmm_a.json"))
        text = json.dumps(doc)[:-1] + ', "extra": ' + "[" * depth + "]" * depth + "}"
        path = tmp_path / f"nested_{depth}.json"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("command", ["validate", "exact"])
    def test_too_deep_exits_2_with_one_line(self, capsys, tmp_path, command):
        nested = self.nested_copy(tmp_path, 1100)
        assert main([command, "--model-a", nested, "--model-b", HMM_B]) == 2
        captured = capsys.readouterr()
        if command == "validate":  # a report line of the file, and the next file is checked
            assert (captured.out, captured.err) == (f"{nested}: JSON is nested too deeply to decode\n{HMM_B}: ok\n", "")
        else:
            assert (captured.out, captured.err) == ("", "JSON is nested too deeply to decode\n")

    def test_shallower_nesting_loads(self, capsys, tmp_path):
        assert main(["validate", "--model-a", self.nested_copy(tmp_path, 900)]) == 0
        assert capsys.readouterr().out.endswith(": ok\n")


class TestConsoleScript:
    def test_module_invocation(self):
        env = {**os.environ, "PYTHONPATH": str(Path(hmtkl.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "hmtkl.cli", "exact", "--model-a", TREE_A, "--model-b", TREE_B],
            capture_output=True,
            text=True,
            env=env,
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

    def test_scipy_loads_only_for_evidence_and_gaussian_draws(self, tmp_path):
        # A fresh interpreter imports the package, builds the parser and runs
        # each command in process; after each it reports whether
        # scipy.special has been imported.
        script = tmp_path / "probe.py"
        script.write_text(
            "import contextlib, io, json, sys\n"
            "import hmtkl, hmtkl.cli\n"
            "hmtkl.cli.build_parser()\n"
            "print(json.dumps(['import', 0, '', 'scipy.special' in sys.modules]))\n"
            "for name, argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = hmtkl.cli.main(argv)\n"
            "    print(json.dumps([name, code, out.getvalue(), 'scipy.special' in sys.modules]))\n"
        )
        pair, trees = ["--model-a", HMM_A, "--model-b", HMM_B], ["--model-a", TREE_A, "--model-b", TREE_B]
        evidence = ["--n", "100", "--evidence", EVIDENCE_100]
        numpy_only = [
            ("validate", ["validate", "--model-a", HMM_A, "--model-b", TREE_A]),
            ("exact trees", ["exact", *trees]),
            ("exact", ["exact", *pair]),
            ("exact --fast", ["exact", *pair, "--fast"]),
            ("rate", ["rate", *pair]),
            ("bound", ["bound", *pair]),
            ("mc", ["mc", *pair, "--trials", "50"]),
            ("mc --evidence", ["mc", *pair, *evidence, "--trials", "50"]),
            ("sweep", ["sweep", *pair, "--n-min", "2", "--n-max", "4", "--trials", "20", "--out", str(tmp_path / "s.csv")]),
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(hmtkl.__file__).resolve().parents[1])}

        def probe(commands):
            result = subprocess.run(
                [sys.executable, str(script), json.dumps(commands)], capture_output=True, text=True, env=env
            )
            assert result.returncode == 0, result.stderr
            return [json.loads(line) for line in result.stdout.splitlines()]

        for name, code, _, loaded in probe(numpy_only):
            assert (name, code, loaded) == (name, 0, False)
        # each of the two routes that need SciPy's bits loads it by itself
        evidence_exact = probe([("evidence-exact", ["evidence-exact", *pair, *evidence])])
        assert evidence_exact[1] == ["evidence-exact", 0, "evidence_kld=9.28460240522\n", True]
        gaussian_mc = probe([("mc trees", ["mc", *trees, "--trials", "200", "--seed", "1"])])
        assert gaussian_mc[1] == [
            "mc trees",
            0,
            "mc_mean=0.796690799579 sd=0.894008984004 ci_lo=0.672787475833 ci_hi=0.920594123325 trials=200 seed=1\n",
            True,
        ]


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


def _oversized_hmm_initial(doc):
    doc["initial"][0] = 10**400


def _oversized_hmm_transition(doc):
    doc["transition"][0][1] = 10**400


def _oversized_per_node_transition(doc):
    doc.update(type="hmt", nodes=["", "0"], transition={"0": [[0.5, 0.5], [10**400, 0.5]]})
    del doc["length"]


@pytest.mark.parametrize("edit", [_oversized_hmm_initial, _oversized_hmm_transition, _oversized_per_node_transition])
@pytest.mark.parametrize("command", ["validate", "exact"])
def test_integer_too_large_for_a_float_exits_2(capsys, tmp_path, edit, command):
    doc = json.loads(data_text("hmm_a.json"))
    edit(doc)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--model-a", str(path), "--model-b", str(path)]) == 2
    captured = capsys.readouterr()
    line = "model: int too large to convert to float\n"
    # validate checks both files and prints each error as a report line of its file
    assert (captured.out, captured.err) == ((f"{path}: {line}" * 2, "") if command == "validate" else ("", line))


def test_oversized_length_is_an_overflow_and_exits_3(capsys, tmp_path):
    paths = []
    for name in ("hmm_a.json", "hmm_b.json"):
        doc = json.loads(data_text(name))
        doc["length"] = 10**400
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    assert main(["validate", "--model-a", str(paths[0]), "--model-b", str(paths[1])]) == 0
    capsys.readouterr()
    assert main(["exact", "--model-a", str(paths[0]), "--model-b", str(paths[1])]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows 64-bit floats" in captured.err and captured.err.count("\n") == 1


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


#: What a mutation may put in place of a value.
HOSTILE_VALUES = [None, True, False, "0.5", math.nan, math.inf, -math.inf, 10**400, -1, [], {}, [[0.5, [0.5]], []]]

#: Each bundled model file and the file it is paired with.
PARTNERS = {"hmm_a.json": "hmm_b.json", "hmm_b.json": "hmm_a.json", "gauss_tree_a.json": "gauss_tree_b.json", "gauss_tree_b.json": "gauss_tree_a.json"}

#: Levels of arrays that the decoder cannot descend.
TOO_DEEP = 1100


def value_slots(doc):
    """(container, key) of every value below the top level, found without recursion."""
    slots, stack = [], [doc]
    while stack:
        container = stack.pop()
        for key in list(container) if isinstance(container, dict) else range(len(container)):
            slots.append((container, key))
            if isinstance(container[key], (dict, list)):
                stack.append(container[key])
    return slots


def mutate(doc, nests, data):
    """Apply one drawn mutation to `doc` in place; adding or dropping an item
    of a value that is not a non-empty list replaces the value instead.  A
    value wrapped in `TOO_DEEP` arrays is held as a token string, and its
    text in `nests` (the encoder cannot nest that deep either)."""
    container, key = data.draw(st.sampled_from(value_slots(doc)))
    value = container[key]
    action = data.draw(st.sampled_from(["delete", "replace", "add", "drop", "wrap"]))
    if action == "delete":
        del container[key]
    elif action == "add" and isinstance(value, list):
        value.insert(data.draw(st.integers(0, len(value))), copy.deepcopy(value[-1]) if value else 0.5)
    elif action == "drop" and value and isinstance(value, list):
        del value[data.draw(st.integers(0, len(value) - 1))]
    elif action == "wrap":
        token = f"nest-{len(nests)}"
        nests[token] = "[" * TOO_DEEP + render(value, nests) + "]" * TOO_DEEP
        container[key] = token
    else:
        container[key] = copy.deepcopy(data.draw(st.sampled_from(HOSTILE_VALUES)))


def render(doc, nests):
    text = json.dumps(doc)
    for token, nested in nests.items():
        text = text.replace(json.dumps(token), nested)
    return text


def described_nodes(text):
    """Nodes of the model a document describes, 0 if it does not load."""
    try:
        model = load_model(text)
    except (ModelError, ValueError):
        return 0
    return model.length if isinstance(model, HmmModel) else model.topology.n_nodes


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PARTNERS)), mutations=st.integers(1, 3), mutated_first=st.booleans(), data=st.data())
def test_hostile_documents_exit_cleanly(name, mutations, mutated_first, data):
    doc, nests = json.loads(data_text(name)), {}
    for _ in range(mutations):
        if value_slots(doc):
            mutate(doc, nests, data)
    text = render(doc, nests)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        pair = [path, data_path(PARTNERS[name])]
        if not mutated_first:
            pair.reverse()
        pair_args = ["--model-a", pair[0], "--model-b", pair[1]]
        commands = [["validate", "--model-a", path], ["exact", *pair_args]]
        if described_nodes(text) <= 10**4:
            commands.append(["mc", *pair_args, "--trials", "20"])
        for argv in commands:
            code, out = run_in_process(argv)
            assert code in (0, 2, 3), argv
            for value in re.findall(r"(?:exact_kld|mc_mean)=(\S+)", out):
                assert value != "nan", (argv, out)


#: Tokens that no evidence file for the bundled chain pair, whose alphabet
#: is 1..3, may hold: 0, m + 1, negative, fractional, not-a-number and
#: beyond-int64 symbols.
HOSTILE_TOKENS = ["0", "4", "-1", "1.5", "nan", str(10**400)]


@st.composite
def evidence_documents(draw):
    """``(n, text)``: a chain length of at most 20 and an evidence file that
    is empty or blank, or holds n - 1, n or n + 1 symbols, up to two of them
    replaced by hostile tokens."""
    n = draw(st.integers(1, 20))
    if draw(st.integers(0, 9)) == 0:
        return n, draw(st.sampled_from(["", " ", "\n", " \t\n\n"]))
    # half the files have the chain's length, and half of those no hostile token
    length = n + draw(st.sampled_from([0, 0, -1, 1]))
    tokens = draw(st.lists(st.sampled_from(["1", "2", "3"]), min_size=length, max_size=length))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if tokens else 0):
        tokens[draw(st.integers(0, length - 1))] = draw(st.sampled_from(HOSTILE_TOKENS))
    return n, draw(st.sampled_from([" ", "\n", "\t "])).join(tokens) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=100, deadline=None)
@given(document=evidence_documents(), n_min=st.integers(1, 20))
def test_hostile_evidence_files_exit_cleanly(document, n_min):
    """`evidence-exact`, `mc --evidence` and `sweep --evidence` on the
    bundled pair exit 0, 2 or 3 on any generated evidence file, let no
    exception escape and print no ``nan``; the pair's factors are all
    positive, so no trial is infinite and no sd is ``nan`` either."""
    n, text = document
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "evidence.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        pair_args = ["--model-a", HMM_A, "--model-b", HMM_B, "--evidence", path]
        for argv in (
            ["evidence-exact", *pair_args, "--n", str(n)],
            ["mc", *pair_args, "--n", str(n), "--trials", "20"],
            ["sweep", *pair_args, "--n-min", str(min(n_min, n)), "--n-max", str(n), "--trials", "20"],
        ):
            code, out = run_in_process(argv)
            assert code in (0, 2, 3), argv
            assert "nan" not in out, (argv, out)


#: Option values of the hostile command lines; None leaves the value out.
_HOSTILE = ("-1", "0", "1", "2", str(10**400), "x", None)
_HOSTILE_VALUES = {
    # sizes that would run for long stay small: sweep bounds <= 4, trials
    # <= 20 and mc's --n <= 50, beside 10**400, which is refused at once
    "--n": ("50", *_HOSTILE),
    "--n-min": ("-1", "0", "1", "2", "4", "x", None),
    "--n-max": ("-1", "0", "1", "2", "4", "x", None),
    "--step": _HOSTILE,
    "--trials": ("20", *_HOSTILE),
    "--seed": _HOSTILE,
}


@st.composite
def hostile_argv(draw, out_dir):
    """A command line of any subcommand: some of its own options, at most
    one that it does not take, hostile values or none, and a bundled pair
    whose paths may be missing or absent."""
    command, missing = draw(st.sampled_from(sorted(OPTIONS_TAKEN))), str(out_dir / "missing.json")
    argv = [command]
    for flag, path in zip(("--model-a", "--model-b"), draw(st.sampled_from([(HMM_A, HMM_B), (TREE_A, TREE_B), (HMM_A, TREE_B)]))):
        path = draw(st.sampled_from([path] * 6 + [missing, None]))
        argv += [] if path is None else [flag, path]
    own = draw(st.lists(st.sampled_from(OPTIONS_TAKEN[command]), unique=True)) if OPTIONS_TAKEN[command] else []
    others = [o for o in FORMER_OPTIONS if o not in OPTIONS_TAKEN[command]]
    other = [draw(st.sampled_from(others))] if draw(st.integers(0, 3)) == 0 else []
    for option in draw(st.permutations(own + other)):
        if option in ("--fast", "--no-fast"):
            values = (None,)
        elif option == "--evidence":
            values = (EVIDENCE_100, EVIDENCE_100, missing, None)
        elif option == "--out":
            values = (str(out_dir / "sweep.csv"), str(out_dir / "no-such-dir" / "sweep.csv"), None)
        else:
            values = _HOSTILE_VALUES[option]
        value = draw(st.sampled_from(values))
        argv += [option] if value is None else [option, value]
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hostile_command_lines_exit_0_2_or_3_and_never_print_nan(data, tmp_path_factory):
    argv = data.draw(hostile_argv(tmp_path_factory.getbasetemp()))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert not re.search(r"\bnan\b", out.getvalue() + err.getvalue(), re.IGNORECASE), argv
