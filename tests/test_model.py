"""Model types, validation, and the JSON document format."""

import gc
import json
import math
import sys
import threading
import time
import tracemalloc
import warnings
from collections.abc import Mapping
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmtkl import (
    DiscreteEmission,
    Evidence,
    GaussianEmission,
    HmmModel,
    HmtModel,
    HmtTopology,
    ModelFormatError,
    ModelValidationError,
    bundled_gaussian_tree_pair,
    bundled_hmm_pair,
    kld_exact_tree,
    kld_hmm_no_evidence,
    load_evidence,
    load_model,
    mc_kld_no_evidence,
    save_model,
    validate,
)
from hmtkl import model as model_module
from hmtkl.bundled import data_text
from hmtkl.model import MAX_NODES, PATH_ALPHABET, check_pair
from modelgen import SEEDS, chain, ragged_paths, tree


class TestTopology:
    def test_regular_counts(self):
        t = HmtTopology.regular(3, 2)
        assert t.n_nodes == 7
        assert t.depth == 3
        assert t.regular_arity == 2
        assert t.parent.tolist() == [-1, 0, 0, 1, 1, 2, 2]
        assert [t.nodes[j] for j in np.flatnonzero(t.parent == 0)] == ["0", "1"]
        assert not (t.parent == t.nodes.index("01")).any()

    def test_parent_is_read_only_and_outside_equality(self):
        t = HmtTopology.regular(3, 2)
        with pytest.raises(ValueError):
            t.parent[1] = 1
        same = HmtTopology.from_nodes(["11", "10", "01", "00", "1", "0", ""])
        assert same == t and hash(same) == hash(t)
        assert same.parent.tolist() == t.parent.tolist()

    def test_chain(self):
        t = HmtTopology.regular(4, 1)
        assert t.nodes == ("", "0", "00", "000")

    def test_single_node(self):
        t = HmtTopology.regular(1, 3)
        assert t.nodes == ("",)

    def test_from_nodes_detects_regularity(self):
        t = HmtTopology.from_nodes(["", "0", "1", "00", "01", "10", "11"])
        assert t.regular_arity == 2
        ragged = HmtTopology.from_nodes(["", "0", "1", "00"])
        assert ragged.regular_arity is None

    def test_from_nodes_errors(self):
        with pytest.raises(ValueError, match="root"):
            HmtTopology.from_nodes(["0"])
        with pytest.raises(ValueError, match="no parent"):
            HmtTopology.from_nodes(["", "00"])
        with pytest.raises(ValueError, match="0'..'9"):
            HmtTopology.from_nodes(["", "a"])

    @pytest.mark.parametrize("arity", range(1, 11))
    def test_regular_level_offsets_are_the_binary_search(self, arity):
        """A regular tree's offsets come from its arity; they are the fixed
        point of the search a ragged tree takes, ``offsets[L + 1] =
        searchsorted(parent, offsets[L])`` from ``[0, 1]`` up to the node
        count, at every depth of at most `MAX_NODES` nodes (a chain at
        depths 1..64, at every power of two and at `MAX_NODES`)."""
        if arity == 1:
            depths = [*range(1, 65), *(1 << p for p in range(7, 20)), MAX_NODES]
        else:
            depths = [depth for depth in range(1, 21) if (arity**depth - 1) // (arity - 1) <= MAX_NODES]
        for depth in depths:
            t = HmtTopology.regular(depth, arity)
            offsets = t.level_offsets
            assert offsets[:2].tolist() == [0, 1] and offsets[-1] == t.n_nodes and len(offsets) == depth + 1
            np.testing.assert_array_equal(offsets[2:], np.searchsorted(t.parent, offsets[1:-1]))
            if t.n_nodes <= 400:
                np.testing.assert_array_equal(HmtTopology.from_nodes(t.nodes).level_offsets, offsets)

    @pytest.mark.parametrize("path", ["\u0661", "0\u0661", "\u00b2", "-1", " 0"])
    def test_from_nodes_rejects_digits_outside_ascii(self, path):
        with pytest.raises(ValueError, match=f"^node path {path!r} is not a string over '0'..'9'$"):
            HmtTopology.from_nodes(["", "0", path])


@st.composite
def topologies(draw):
    """A regular tree with 1-4 children per node, or a ragged tree whose
    sibling labels are any distinct digits (not only 0, 1, ...)."""
    if draw(st.booleans()):
        children = draw(st.integers(1, 4))
        return HmtTopology.regular(draw(st.integers(1, {1: 40, 2: 7, 3: 5, 4: 4}[children])), children)
    paths, frontier = [""], [""]
    while frontier and len(paths) < 40:
        node = frontier.pop(draw(st.integers(0, len(frontier) - 1)))
        kids = [node + c for c in draw(st.sets(st.sampled_from("0123456789"), max_size=4))]
        paths += kids
        frontier += kids
    return HmtTopology.from_nodes(draw(st.permutations(paths)))


def level_by_level_paths(depth, children):
    levels = [[""]]
    for _ in range(depth - 1):
        levels.append([p + str(c) for p in levels[-1] for c in range(children)])
    return [p for level in levels for p in level]


def one_state_model(topology):
    return HmtModel(topology=topology, initial=[1.0], transitions=[[1.0]], emissions=DiscreteEmission([[1.0]]))


@settings(max_examples=150, deadline=None)
@given(topologies())
def test_topology_properties(t):
    paths = [t.path(j) for j in range(t.n_nodes)]  # before `nodes` is first read
    assert paths == list(t.nodes)
    again = HmtTopology.from_nodes(t.nodes)
    assert again == t and hash(again) == hash(t)
    assert np.array_equal(again.parent, t.parent)
    assert (again.depth, again.regular_arity) == (t.depth, t.regular_arity)
    if t.labels is None:
        expected = level_by_level_paths(t.depth, t.regular_arity or 1)
        assert list(t.nodes) == expected
        index = {p: j for j, p in enumerate(expected)}
        assert t.parent.tolist() == [-1] + [index[p[:-1]] for p in expected[1:]]
    if t.n_nodes == 1:
        return
    # Relabel the last node, a leaf whose siblings are leaves too, with the
    # largest digit its siblings leave free: same parent array, other paths.
    last = t.nodes[-1]
    used = {p[-1] for p in t.nodes if len(p) == len(last) and p[:-1] == last[:-1]}
    digit = max(set("0123456789") - used)
    relabelled = HmtTopology.from_nodes([*t.nodes[:-1], last[:-1] + digit])
    assert np.array_equal(relabelled.parent, t.parent) and hash(relabelled) == hash(t)
    assert relabelled != t and t != relabelled
    with pytest.raises(ValueError, match="models must share the same topology"):
        check_pair(one_state_model(t), one_state_model(relabelled))
    text = save_model(one_state_model(relabelled))
    assert "nodes" in json.loads(text)
    again = load_model(text).topology
    assert again == relabelled and again.nodes == relabelled.nodes
    assert save_model(load_model(text)) == text


@settings(max_examples=150, deadline=None)
@given(topologies())
def test_level_offsets_count_the_nodes_of_each_path_length(t):
    # level L is the nodes whose paths have L digits, whatever the tree's shape
    counts = np.bincount([len(p) for p in t.nodes])
    np.testing.assert_array_equal(t.level_offsets, np.concatenate(([0], np.cumsum(counts))))


def test_relabelled_siblings_are_another_topology():
    one = HmtTopology.from_nodes(["", "1"])
    zero = HmtTopology.from_nodes(["", "0"])
    chain = HmtTopology.regular(2, 1)
    assert zero == chain and chain == zero and hash(zero) == hash(chain)
    assert one != zero and one != chain and chain != one
    with pytest.raises(ValueError, match="models must share the same topology"):
        check_pair(one_state_model(one), one_state_model(chain))


def double_sorted_topology(paths):
    """Reference for `HmtTopology.from_nodes` on valid paths: the node set
    sorted by path and then by length, each path linked to its parent."""
    nodes = sorted(sorted(set(paths)), key=len)
    index = {p: j for j, p in enumerate(nodes)}
    parent = [-1] + [index[p[:-1]] for p in nodes[1:]]
    counts = np.bincount(parent[1:], minlength=len(nodes))
    first_leaf = int(np.argmin(counts))
    depth = len(nodes[-1]) + 1
    regular = depth > 1 and len(nodes[first_leaf]) == depth - 1 and (counts[:first_leaf] == counts[0]).all()
    return parent, tuple(nodes), depth, int(counts[0]) if regular else None


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), arity=st.integers(1, 10), order=st.sampled_from(["shuffled", "duplicated", "sorted"]), seed=SEEDS)
def test_from_nodes_matches_a_double_sort_in_any_order(n, arity, order, seed):
    rng = np.random.default_rng(seed)
    paths = ragged_paths(rng, n, arity)
    if order == "shuffled":
        paths = rng.permutation(paths).tolist()
    elif order == "duplicated":
        paths = rng.permutation(paths + rng.choice(paths, size=int(rng.integers(1, n + 1))).tolist()).tolist()
    else:
        paths = sorted(paths, key=lambda p: (len(p), p))
    t = HmtTopology.from_nodes(paths)
    parent, labels, depth, arity = double_sorted_topology(paths)
    assert t.parent.tolist() == parent and t.parent.dtype == np.intp and not t.parent.flags.writeable
    assert (t.labels, t.depth, t.regular_arity) == (labels, depth, arity)
    again = HmtTopology.from_nodes(list(labels))
    assert np.array_equal(again.parent, t.parent) and (again.labels, again.depth, again.regular_arity) == (labels, depth, arity)


@pytest.mark.parametrize(
    "paths, message",
    [
        (["00", "", "x", "0", "0"], "node path 'x' is not a string over '0'..'9'"),
        (["1", "0", "00", "0"], 'node list must contain the root ""'),
        ([], 'node list must contain the root ""'),
        (["", "10", "1", "1", "21", "20", "3"], "node '20' has no parent '2' in the node list"),
    ],
)
def test_from_nodes_messages_with_shuffled_and_duplicated_paths(paths, message):
    for given_paths in (paths, paths[::-1]):
        with pytest.raises(ValueError) as exc:
            HmtTopology.from_nodes(given_paths)
        assert str(exc.value) == message


def test_a_loaded_pair_shares_one_topology_held_weakly():
    doc = per_node_tree_doc()
    doc["nodes"] = ["", "0", "1", "00", "01", "10"]
    doc["transition"] = {p: [[0.75, 0.25], [0.5, 0.5]] for p in doc["nodes"][1:]}
    doc["emission"] = {p: {"kind": "discrete", "matrix": [[0.5, 0.5], [0.25, 0.75]]} for p in doc["nodes"]}
    first = load_model(json.dumps(doc))
    doc["emission"]["1"]["matrix"] = [[0.9, 0.1], [0.25, 0.75]]
    second = load_model(json.dumps(doc))
    assert second.topology is first.topology
    check_pair(first, second)
    assert kld_exact_tree(first, second) > 0
    # a list in another order, or with a path twice, builds an equal topology anew
    for paths in (doc["nodes"][::-1], doc["nodes"] + ["0"]):
        other = HmtTopology.from_nodes(paths)
        assert other is not first.topology and other == first.topology
    assert HmtTopology.from_nodes(doc["nodes"]) is not first.topology  # the last one built is `other`
    memo = model_module._last_from_nodes
    assert memo() is not None
    del first, second, other
    gc.collect()
    assert memo() is None


def test_a_topology_equals_itself_without_comparing_arrays():
    t = HmtTopology.from_nodes(["", "0", "1", "00"])
    with patch.object(model_module.np, "array_equal", side_effect=AssertionError("compared the arrays")):
        assert t == t and not t != t
        check_pair(one_state_model(t), one_state_model(t))


def test_path_walks_the_parent_array():
    t = HmtTopology.regular(4, 3)
    assert [t.path(j) for j in (0, 1, 3, 4, 39, -1)] == ["", "0", "2", "00", "222", "222"]
    with pytest.raises(IndexError):
        t.path(40)
    assert "nodes" not in vars(t)  # path() spells one label, not all of them


def test_report_on_a_long_chain_names_every_row_quickly():
    # Each of the 5998 problems names a path of up to 2999 digits; spelling
    # each by a Python-level step per level would take seconds.
    n = 3000
    doc = {
        "type": "hmt", "states": 2, "alphabet": 1, "depth": n, "children": 1, "initial": [0.5, 0.5],
        "transition": {"0" * i: [[0.5, 0.6], [0.5, 0.6]] for i in range(1, n)},
        "emission": {"kind": "discrete", "matrix": [[1.0], [1.0]]},
    }
    start = time.perf_counter()
    with pytest.raises(ModelValidationError) as exc:
        load_model(json.dumps(doc))
    assert time.perf_counter() - start < 1.0
    assert len(exc.value.report) == 2 * (n - 1)
    assert exc.value.report[-1] == f"transition at node {'0' * (n - 1)!r} row 2 sums to 1.1"


def peak_mib(fn):
    """Peak memory traced while fn runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_chain_as_tree_runs_in_bounded_memory():
    a, b = bundled_hmm_pair(length=20000)

    def run():
        ta, tb = a.as_tree(), b.as_tree()
        assert validate(ta) == [] and validate(tb) == []
        assert mc_kld_no_evidence(ta, tb, trials=2, seed=0).trials == 2

    assert peak_mib(run) < 4


def test_as_tree_at_max_nodes_runs_in_bounded_memory():
    a, b = bundled_hmm_pair(length=MAX_NODES)

    def run():
        ta, tb = a.as_tree(), b.as_tree()
        assert ta.topology.n_nodes == MAX_NODES
        assert validate(ta) == [] and validate(tb) == []
        check_pair(ta, tb)

    assert peak_mib(run) < 64


class TestValidate:
    def test_bundled_models_valid(self):
        for m in bundled_hmm_pair() + bundled_gaussian_tree_pair():
            assert validate(m) == []

    def test_deterministic_model_valid(self):
        m = HmmModel(length=3, initial=[1.0, 0.0], transition=np.eye(2), emission=DiscreteEmission(np.eye(2)))
        assert validate(m) == []

    def test_bad_row_sum_reported(self):
        m = HmmModel(
            length=2,
            initial=[0.5, 0.5],
            transition=[[0.5, 0.6], [0.5, 0.5]],
            emission=DiscreteEmission([[0.5, 0.5], [0.5, 0.5]]),
        )
        report = validate(m)
        assert any("row 1 sums to 1.1" in line for line in report)

    def test_negative_entry_reported(self):
        m = HmmModel(
            length=2,
            initial=[1.5, -0.5],
            transition=[[1.0, 0.0], [0.0, 1.0]],
            emission=DiscreteEmission([[1.0], [1.0]]),
        )
        assert any("negative" in line for line in validate(m))

    def test_gaussian_sd_reported(self):
        m = HmmModel(
            length=2,
            initial=[1.0],
            transition=[[1.0]],
            emission=GaussianEmission([0.0], [0.0]),
        )
        assert any("not positive" in line for line in validate(m))

    def test_per_node_labels(self):
        topo = HmtTopology.regular(2, 1)
        m = HmtModel(
            topology=topo,
            initial=[0.5, 0.5],
            transitions={"0": [[0.4, 0.7], [0.5, 0.5]]},
            emissions=DiscreteEmission([[1.0, 0.0], [0.0, 1.0]]),
        )
        report = validate(m)
        assert any("node '0'" in line and "row 1" in line for line in report)


class TestLoadModel:
    def test_bundled_hmm_document(self):
        m = load_model(data_text("hmm_b.json"))
        assert isinstance(m, HmmModel)
        assert m.transition[0, 0] == 0.7
        assert m.length == 10
        assert m.emission.n_symbols == 3

    def test_minimal_model(self):
        doc = json.dumps(
            {
                "type": "hmm",
                "states": 1,
                "alphabet": 1,
                "length": 1,
                "initial": [1.0],
                "transition": [[1.0]],
                "emission": {"kind": "discrete", "matrix": [[1.0]]},
            }
        )
        m = load_model(doc)
        assert m.n_states == 1

    def test_initial_that_is_not_a_vector(self):
        for initial in ([[1.0]], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="^initial must be a vector$"):
                HmmModel(length=3, initial=initial, transition=[[1.0]], emission=DiscreteEmission([[0.5, 0.5]]))
        doc = {
            "type": "hmm",
            "states": 1,
            "alphabet": 2,
            "length": 3,
            "initial": [[1.0]],
            "transition": [[1.0]],
            "emission": {"kind": "discrete", "matrix": [[0.5, 0.5]]},
        }
        with pytest.raises(ModelFormatError, match="^model: initial must be a vector$"):
            load_model(json.dumps(doc))

    @pytest.mark.parametrize(
        "kind, key, context",
        [
            ("hmm", "length", "hmm model"),
            ("hmm", "states", "model"),
            ("hmm", "alphabet", "model"),
            ("hmt", "depth", "hmt model"),
            ("hmt", "children", "hmt model"),
        ],
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_for_an_integer_key_is_schema_error(self, kind, key, context, value):
        doc = {
            "type": kind,
            "states": 1,
            "alphabet": 1,
            "initial": [1.0],
            "transition": [[1.0]],
            "emission": {"kind": "discrete", "matrix": [[1.0]]},
        }
        doc.update({"length": 1} if kind == "hmm" else {"depth": 2, "children": 1})
        load_model(json.dumps(doc))
        doc[key] = value
        with pytest.raises(ModelFormatError, match=f"^{context}: key '{key}' has unexpected type bool$"):
            load_model(json.dumps(doc))

    def test_length_must_be_an_integer(self):
        spec = dict(initial=[1.0], transition=[[1.0]], emission=DiscreteEmission([[1.0]]))
        for bad in (2.7, 0.5, -1.5, math.nan, math.inf, "3", None):
            with pytest.raises(ValueError, match="^length must be an integer, got "):
                HmmModel(length=bad, **spec)
        for good in (3, 3.0, np.int64(3), np.float32(3.0)):
            m = HmmModel(length=good, **spec)
            assert m.length == 3 and type(m.length) is int
        with pytest.raises(ValueError, match="^length must be >= 1$"):
            HmmModel(length=0.0, **spec)

    def test_missing_key_is_schema_error(self):
        doc = {
            "type": "hmm",
            "states": 1,
            "alphabet": 1,
            "length": 1,
            "transition": [[1.0]],
            "emission": {"kind": "discrete", "matrix": [[1.0]]},
        }
        with pytest.raises(ModelFormatError, match="initial"):
            load_model(json.dumps(doc))

    def test_parse_error(self):
        with pytest.raises(ModelFormatError, match="JSON"):
            load_model("{not json")

    def test_invariant_violation(self):
        doc = {
            "type": "hmm",
            "states": 2,
            "alphabet": 2,
            "length": 2,
            "initial": [0.5, 0.5],
            "transition": [[0.5, 0.6], [0.5, 0.5]],
            "emission": {"kind": "discrete", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
        }
        with pytest.raises(ModelValidationError) as err:
            load_model(json.dumps(doc))
        assert any("row 1 sums to 1.1" in line for line in err.value.report)

    def test_general_tree_with_nodes_list(self):
        doc = {
            "type": "hmt",
            "states": 1,
            "alphabet": 2,
            "nodes": ["", "0", "1", "00"],
            "initial": [1.0],
            "transition": {"0": [[1.0]], "1": [[1.0]], "00": [[1.0]]},
            "emission": {"kind": "discrete", "matrix": [[0.5, 0.5]]},
        }
        m = load_model(json.dumps(doc))
        assert isinstance(m, HmtModel)
        assert m.topology.regular_arity is None

    def test_wrong_alphabet_for_gaussian(self):
        doc = {
            "type": "hmm",
            "states": 1,
            "alphabet": 3,
            "length": 1,
            "initial": [1.0],
            "transition": [[1.0]],
            "emission": {"kind": "gaussian", "means": [0.0], "sds": [1.0]},
        }
        with pytest.raises(ModelFormatError, match="gaussian"):
            load_model(json.dumps(doc))

    def test_transition_coverage_error(self):
        doc = {
            "type": "hmt",
            "states": 1,
            "alphabet": 1,
            "depth": 2,
            "children": 2,
            "initial": [1.0],
            "transition": {"0": [[1.0]]},
            "emission": {"kind": "discrete", "matrix": [[1.0]]},
        }
        with pytest.raises(ModelFormatError, match="non-root"):
            load_model(json.dumps(doc))


TREE_NODES = ["", "0", "1", "00"]


def per_node_tree_doc(gaussian=False):
    """A valid two-state tree document with per-node transitions and emissions."""
    if gaussian:
        alphabet, emission = "gaussian", {"kind": "gaussian", "means": [0.0, 1.0], "sds": [1.0, 2.0]}
    else:
        alphabet, emission = 2, {"kind": "discrete", "matrix": [[0.5, 0.5], [0.25, 0.75]]}
    return {
        "type": "hmt",
        "states": 2,
        "alphabet": alphabet,
        "nodes": list(TREE_NODES),
        "initial": [0.5, 0.5],
        "transition": {p: [[0.75, 0.25], [0.5, 0.5]] for p in TREE_NODES[1:]},
        "emission": {p: dict(emission) for p in TREE_NODES},
    }


def hmm_doc():
    return json.loads(data_text("hmm_a.json"))


def set_transition(path, value):
    return lambda doc: doc["transition"].__setitem__(path, value)


def set_matrix(path, value):
    return lambda doc: doc["emission"][path].__setitem__("matrix", value)


BIG_INT = 10**400
OVERFLOW = (ModelFormatError, "model: int too large to convert to float")

#: name: (document, edit, outcome).  The outcome is the exception type and
#: its message (a ModelValidationError's report), or the transition stack of
#: a document that loads.
MALFORMED_DOCUMENTS = {
    "ragged transition row": (
        per_node_tree_doc,
        set_transition("1", [[0.75, 0.25], [1.0]]),
        (ModelFormatError, "model: transition at node '1' must have shape (2, 2), got a ragged list"),
    ),
    "ragged shared transition row": (
        hmm_doc,
        lambda doc: doc["transition"].__setitem__(1, [0.5]),
        (ModelFormatError, "model: transition must have shape (2, 2), got a ragged list"),
    ),
    "ragged shared emission row": (
        hmm_doc,
        lambda doc: doc["emission"]["matrix"].__setitem__(0, [[0.5], 0.25, 0.25]),
        (ModelFormatError, "hmm model: emission matrix must have shape (2, 3), got a ragged list"),
    ),
    "ragged gaussian means": (
        lambda: per_node_tree_doc(gaussian=True),
        lambda doc: doc["emission"].__setitem__("1", {"kind": "gaussian", "means": [0.0, [1.0]], "sds": [1.0, 2.0]}),
        (ModelFormatError, "emission at node '1': means must have shape (2,), got a ragged list"),
    ),
    "transition row count": (
        per_node_tree_doc,
        set_transition("1", [[0.75, 0.25]]),
        (ModelFormatError, "model: transition at node '1' must have shape (2, 2), got (1, 2)"),
    ),
    "every transition of one wrong shape": (
        per_node_tree_doc,
        lambda doc: doc.__setitem__("transition", {p: [[1.0]] for p in TREE_NODES[1:]}),
        (ModelFormatError, "model: transition at node '0' must have shape (2, 2), got (1, 1)"),
    ),
    "ragged emission row": (
        per_node_tree_doc,
        set_matrix("00", [[0.5, 0.5], [1.0]]),
        (ModelFormatError, "emission at node '00': emission matrix must have shape (2, 2), got a ragged list"),
    ),
    "emission row count": (
        per_node_tree_doc,
        set_matrix("0", [[0.5, 0.5]]),
        (ModelFormatError, "model: emission at node '0' covers 1 states, model has 2"),
    ),
    "nested transition leaf": (
        per_node_tree_doc,
        set_transition("0", [[[0.75], 0.25], [0.5, 0.5]]),
        (ModelFormatError, "model: transition at node '0' must have shape (2, 2), got a ragged list"),
    ),
    "nested emission leaf": (
        per_node_tree_doc,
        set_matrix("1", [[0.5, [0.5]], [0.25, 0.75]]),
        (ModelFormatError, "emission at node '1': emission matrix must have shape (2, 2), got a ragged list"),
    ),
    "null transition leaf": (
        per_node_tree_doc,
        set_transition("0", [[None, 0.25], [0.5, 0.5]]),
        (ModelValidationError, ["transition at node '0' row 1 sums to nan"]),
    ),
    "null emission leaf": (
        per_node_tree_doc,
        set_matrix("0", [[0.5, 0.5], [None, 0.75]]),
        (ModelValidationError, ["emission at node '0' matrix row 2 sums to nan"]),
    ),
    "null gaussian sd": (
        lambda: per_node_tree_doc(gaussian=True),
        lambda doc: doc["emission"]["1"].__setitem__("sds", [1.0, None]),
        (ModelValidationError, ["emission at node '1' sd for state 2 is not positive"]),
    ),
    "numeric-string leaves": (
        per_node_tree_doc,
        set_transition("0", [["0.75", " 0.25 "], ["5_0e-2", "0.5"]]),
        [[[0.75, 0.25], [0.5, 0.5]]] * 3,
    ),
    "bool leaves": (
        per_node_tree_doc,
        set_transition("1", [[True, False], [False, True]]),
        [[[0.75, 0.25], [0.5, 0.5]], [[1.0, 0.0], [0.0, 1.0]], [[0.75, 0.25], [0.5, 0.5]]],
    ),
    "object leaf": (
        per_node_tree_doc,
        set_transition("1", [[{}, 0.25], [0.5, 0.5]]),
        (ModelFormatError, "model: float() argument must be a string or a real number, not 'dict'"),
    ),
    "missing transition node": (
        per_node_tree_doc,
        lambda doc: doc["transition"].pop("00"),
        (ModelFormatError, "model: per-node transitions must cover exactly the non-root nodes"),
    ),
    "extra emission node": (
        per_node_tree_doc,
        lambda doc: doc["emission"].__setitem__("01", doc["emission"]["0"]),
        (ModelFormatError, "model: per-node emissions must cover exactly the node set"),
    ),
    "emission of the wrong kind": (
        per_node_tree_doc,
        lambda doc: doc["emission"].__setitem__("0", {"kind": "gaussian", "means": [0.0, 0.0], "sds": [1.0, 1.0]}),
        (ModelFormatError, "emission at node '0': gaussian emission requires \"alphabet\": \"gaussian\""),
    ),
    "emission without a kind": (
        per_node_tree_doc,
        lambda doc: doc["emission"]["1"].pop("kind"),
        (ModelFormatError, "emission at node '1': missing required key 'kind'"),
    ),
    "emission that is not an object": (
        per_node_tree_doc,
        lambda doc: doc["emission"].__setitem__("1", [[0.5, 0.5], [0.25, 0.75]]),
        (ModelFormatError, "emission at node '1': key '1' has unexpected type list"),
    ),
    "mixed alphabets": (
        per_node_tree_doc,
        set_matrix("1", [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]),
        (ModelFormatError, "emission at node '1': emission matrix has 3 columns, alphabet is 2"),
    ),
    "non-string path": (
        per_node_tree_doc,
        lambda doc: doc.__setitem__("nodes", ["", "0", 1, "00"]),
        (ModelFormatError, "model: node path 1 is not a string over '0'..'9'"),
    ),
    "non-digit path": (
        per_node_tree_doc,
        lambda doc: doc.__setitem__("nodes", ["", "0", "x", "00"]),
        (ModelFormatError, "model: node path 'x' is not a string over '0'..'9'"),
    ),
    "missing root": (
        per_node_tree_doc,
        lambda doc: doc.__setitem__("nodes", ["0", "1", "00"]),
        (ModelFormatError, 'model: node list must contain the root ""'),
    ),
    "missing parent": (
        per_node_tree_doc,
        lambda doc: doc.__setitem__("nodes", ["", "1", "00"]),
        (ModelFormatError, "model: node '00' has no parent '0' in the node list"),
    ),
    "oversized int in an hmm initial law": (hmm_doc, lambda doc: doc["initial"].__setitem__(0, BIG_INT), OVERFLOW),
    "oversized int in an hmm transition": (hmm_doc, lambda doc: doc["transition"][1].__setitem__(0, BIG_INT), OVERFLOW),
    "oversized int in a per-node transition": (
        per_node_tree_doc,
        set_transition("1", [[0.75, BIG_INT], [0.5, 0.5]]),
        OVERFLOW,
    ),
    "oversized int in a per-node emission": (
        per_node_tree_doc,
        set_matrix("00", [[0.5, 0.5], [BIG_INT, 0.75]]),
        OVERFLOW,
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
def test_malformed_per_node_documents(name):
    make, edit, outcome = MALFORMED_DOCUMENTS[name]
    doc = make()
    edit(doc)
    text = json.dumps(doc)
    if isinstance(outcome, list):
        assert load_model(text).transition_stack.tolist() == outcome
        return
    kind, message = outcome
    with pytest.raises(kind) as exc:
        load_model(text)
    assert type(exc.value) is kind
    assert (exc.value.report if kind is ModelValidationError else str(exc.value)) == message


@pytest.mark.parametrize("leaf", [{}, BIG_INT], ids=["object", "oversized int"])
def test_node_with_a_wrong_shape_is_named_before_a_later_bad_leaf(leaf):
    """When every node's matrix has the same wrong shape, the first node is
    named even if a later node holds a number no float can take."""
    doc = per_node_tree_doc()
    doc["transition"] = {p: [[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]] for p in TREE_NODES[1:]}
    doc["transition"]["1"][1][2] = leaf
    with pytest.raises(ModelFormatError, match=r"^model: transition at node '0' must have shape \(2, 2\), got \(2, 3\)$"):
        load_model(json.dumps(doc))
    doc = per_node_tree_doc()
    for p in TREE_NODES:
        doc["emission"][p]["matrix"] = [[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]]
    doc["emission"]["1"]["matrix"][1][2] = leaf
    with pytest.raises(ModelFormatError, match=r"^emission at node '': emission matrix has 3 columns, alphabet is 2$"):
        load_model(json.dumps(doc))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["hmm_a", "hmm_b", "gauss_tree_a", "gauss_tree_b"])
    def test_bundled_files_round_trip(self, name):
        text = data_text(f"{name}.json")
        assert save_model(load_model(text)) == text

    def test_random_models_round_trip_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = chain(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            again = load_model(save_model(m))
            assert again.length == m.length
            assert np.array_equal(again.initial, m.initial)
            assert np.array_equal(again.transition, m.transition)
            assert np.array_equal(again.emission.matrix, m.emission.matrix)

    def test_heterogeneous_tree_round_trip(self):
        a, _ = bundled_gaussian_tree_pair()
        again = load_model(save_model(a))
        assert again.topology.nodes == a.topology.nodes
        for p in a.topology.nodes:
            if p:
                assert np.array_equal(again.transition(p), a.transition(p))
            assert np.array_equal(again.emission(p).sds, a.emission(p).sds)


class TestAsTree:
    def test_structure(self):
        m, _ = bundled_hmm_pair(length=3)
        t = m.as_tree()
        assert t.topology.nodes == ("", "0", "00")
        assert t.homogeneous

    def test_single_position(self):
        m, _ = bundled_hmm_pair(length=1)
        assert m.as_tree().topology.nodes == ("",)

    def test_preserves_exact_divergence(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 7))
            a, b = chain(rng, n, d, 2), chain(rng, n, d, 2)
            assert kld_exact_tree(a.as_tree(), b.as_tree()) == pytest.approx(
                kld_hmm_no_evidence(a, b), abs=1e-12
            )

    def test_bundled_pair_equivalence(self):
        a, b = bundled_hmm_pair()
        assert kld_exact_tree(a.as_tree(), b.as_tree()) == pytest.approx(kld_hmm_no_evidence(a, b), abs=1e-12)


class TestPerNodeMappings:
    """`HmtModel` given path-keyed mappings stacks them in node order."""

    TOPOLOGY = HmtTopology.from_nodes(["", "1", "0", "00", "01", "10"])

    def as_mappings(self, model):
        nodes = model.topology.nodes
        return {p: model.transition(p) for p in nodes[1:]}, {p: model.emission(p) for p in nodes}

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_equals_the_stacked_build_bit_for_bit(self, gaussian):
        stacked = tree(np.random.default_rng(4), self.TOPOLOGY, 3, 2, gaussian=gaussian)
        transitions, emissions = self.as_mappings(stacked)
        mapped = HmtModel(topology=self.TOPOLOGY, initial=stacked.initial, transitions=transitions, emissions=emissions)
        assert np.array_equal(mapped.transition_stack, stacked.transition_stack)
        fields = ("means", "sds") if gaussian else ("matrix",)
        for field in fields:
            assert np.array_equal(getattr(mapped.emission_stack, field), getattr(stacked.emission_stack, field))
        other = tree(np.random.default_rng(5), self.TOPOLOGY, 3, 2, gaussian=gaussian)
        assert kld_exact_tree(mapped, other) == kld_exact_tree(stacked, other)

    def test_refusals(self):
        model = tree(np.random.default_rng(4), self.TOPOLOGY, 2, 2)
        transitions, emissions = self.as_mappings(model)

        def build(**changes):
            HmtModel(topology=self.TOPOLOGY, initial=model.initial, transitions=transitions, emissions={**emissions, **changes})

        with pytest.raises(ValueError, match="per-node emissions must cover exactly the node set"):
            HmtModel(topology=self.TOPOLOGY, initial=model.initial, transitions=transitions, emissions={p: emissions[p] for p in ("", "0")})
        with pytest.raises(ValueError, match="all nodes must share the same emission kind"):
            build(**{"10": GaussianEmission([0.0, 1.0], [1.0, 1.0])})
        with pytest.raises(ValueError, match="all nodes must share the same alphabet size"):
            build(**{"10": DiscreteEmission([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])})


class TestEvidence:
    def test_external_mapping(self):
        ev = Evidence.from_external([1, 2, 3])
        assert ev.symbols.tolist() == [0, 1, 2]
        assert ev.external.tolist() == [1, 2, 3]

    def test_rejects_zero_label(self):
        with pytest.raises(ValueError, match="1-based"):
            Evidence.from_external([0, 1])

    @pytest.mark.parametrize("build", [Evidence, Evidence.from_external])
    def test_refuses_symbols_that_are_not_integers(self, build):
        """A float symbol is refused, never truncated to its integer part;
        integral floats and integer arrays of any width still load."""
        for values, shown in (([1.5, 0.2], "1.5"), ([2.0, 1.5], "1.5"), ([1.0, math.nan], "nan"), ([math.inf], "inf")):
            with pytest.raises(ValueError, match=rf"^evidence symbols must be integers, got {shown}$"):
                build(values)
            with pytest.raises(ValueError, match="must be integers"):
                build(np.array(values))
        offset = 1 if build is Evidence.from_external else 0
        assert build([1.0, 3.0]).symbols.tolist() == [1 - offset, 3 - offset]
        assert build(np.array([2, 1], dtype=np.int8)).symbols.tolist() == [2 - offset, 1 - offset]
        assert build([]).symbols.dtype == np.int64

    def test_truncated(self):
        ev = Evidence.from_external([1, 2, 3])
        assert ev.truncated(2).symbols.tolist() == [0, 1]
        assert len(ev.truncated(0)) == 0
        assert ev.truncated(3).symbols.tolist() == [0, 1, 2]
        for n in (4, -1, -3):  # negative lengths would slice off a suffix
            with pytest.raises(ValueError, match="truncate"):
                ev.truncated(n)

    def test_load_evidence(self):
        ev = load_evidence("1 2  3\n")
        assert ev.symbols.tolist() == [0, 1, 2]
        with pytest.raises(ModelFormatError):
            load_evidence("1 two 3")
        with pytest.raises(ModelFormatError):
            load_evidence("")
        with pytest.raises(ModelFormatError, match="1-based"):
            load_evidence("0 1")


class TestImmutability:
    def test_arrays_are_read_only(self):
        m, _ = bundled_hmm_pair()
        with pytest.raises(ValueError):
            m.initial[0] = 0.9
        with pytest.raises(ValueError):
            m.transition[0, 0] = 0.5


def reference_report(model):
    """Per-row validation through the path accessors, one vector or matrix
    row at a time."""
    problems = []

    def rows(matrix, label, named=True):
        for r, row in enumerate(np.atleast_2d(matrix)):
            name = f"{label} row {r + 1}" if named else label
            if (row < 0).any():
                problems.append(f"{name} has a negative entry")
            with np.errstate(invalid="ignore"):  # inf + -inf sums to nan
                total = float(row.sum())
            if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-12):
                problems.append(f"{name} sums to {total:.12g}")

    def emission(spec, label):
        if spec.kind == "discrete":
            rows(spec.matrix, f"{label} matrix")
            return
        for state, (mean, sd) in enumerate(zip(spec.means, spec.sds)):
            if not math.isfinite(mean):
                problems.append(f"{label} mean for state {state + 1} is not finite")
            if not sd > 0:
                problems.append(f"{label} sd for state {state + 1} is not positive")
            elif not math.isfinite(sd):
                problems.append(f"{label} sd for state {state + 1} is not finite")

    rows(model.initial, "initial", named=False)
    if isinstance(model, HmmModel):
        rows(model.transition, "transition")
        emission(model.emission, "emission")
        return problems
    nodes = model.topology.nodes
    if isinstance(model.transitions, np.ndarray):
        rows(model.transitions, "transition")
    else:
        for p in nodes[1:]:
            rows(model.transition(p), f"transition at node {p!r}")
    if isinstance(model.emissions, (DiscreteEmission, GaussianEmission)):
        emission(model.emissions, "emission")
    else:
        for p in nodes:
            emission(model.emission(p), f"emission at node {p!r}")
    return problems


def edge_sum(sign):
    """The float farthest from 1 on the side of `sign` whose distance from 1,
    as computed, is still within the validation tolerance of 1e-12."""
    edge = 1.0 + sign * 1e-12
    while abs(edge - 1.0) > 1e-12:
        edge = math.nextafter(edge, 1.0)
    while abs(math.nextafter(edge, sign * math.inf) - 1.0) <= 1e-12:
        edge = math.nextafter(edge, sign * math.inf)
    return edge


def one_entry(value):
    """A fault that leaves `value` alone in the row, so that the row sums to
    `value` exactly."""

    def plant(row, c):
        row[:] = 0.0
        row[c] = value

    return plant


def both_infinities(row, c):
    row[c] = math.inf
    row[(c + 1) % row.size] = -math.inf  # a one-entry row keeps -inf alone


ROW_FAULTS = {
    "negative": lambda row, c: row.__setitem__(c, -row[c] - 0.25),
    "nan": lambda row, c: row.__setitem__(c, math.nan),
    "inf": lambda row, c: row.__setitem__(c, math.inf),
    "-inf": lambda row, c: row.__setitem__(c, -math.inf),
    "both infinities": both_infinities,
    "above": lambda row, c: row.__setitem__(c, row[c] + 1e-11),
    "below": lambda row, c: row.__setitem__(c, row[c] - 1e-11),
    "within": lambda row, c: row.__setitem__(c, row[c] + 1e-13),
    "at the upper edge": one_entry(edge_sum(1)),
    "past the upper edge": one_entry(math.nextafter(edge_sum(1), math.inf)),
    "at the lower edge": one_entry(edge_sum(-1)),
    "past the lower edge": one_entry(math.nextafter(edge_sum(-1), -math.inf)),
}
GAUSSIAN_FAULTS = {
    "means": [math.nan, math.inf, -math.inf],
    "sds": [0.0, -1.0, math.nan, math.inf, -math.inf],
}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 4),
    m=st.integers(1, 4),
    chain_model=st.booleans(),
    gaussian=st.booleans(),
    shared=st.tuples(st.booleans(), st.booleans()),
    row_faults=st.lists(
        st.tuples(
            st.sampled_from(["initial", "transition", "emission"]),
            st.sampled_from(sorted(ROW_FAULTS)),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
        max_size=6,
    ),
    gaussian_faults=st.lists(
        st.tuples(st.sampled_from(sorted(GAUSSIAN_FAULTS)), st.integers(0, 10**6), st.integers(0, 4)), max_size=6
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_validation_matches_per_row_reference(n, d, m, chain_model, gaussian, shared, row_faults, gaussian_faults, seed):
    """`validate` reports what the per-row reference reports, line for line,
    on a chain or on a tree with per-node stacks, with faults planted in the
    initial law, the transitions and the emission matrices: negative, NaN and
    infinite entries, rows holding both infinities, and rows that sum to 1
    within or just past the tolerance, at its edge and one float beyond."""
    rng = np.random.default_rng(seed)
    # a chain or a star, so that node labels have several lengths and orders
    topo = HmtTopology.regular(n, 1) if seed % 2 else HmtTopology.from_nodes([""] + [str(c) for c in range(min(n, 11) - 1)])
    count = topo.n_nodes
    shared = (True, True) if chain_model else shared
    initial = rng.dirichlet(np.ones(d))
    transitions = rng.dirichlet(np.ones(d), size=(d,) if shared[0] else (count - 1, d))
    lead = () if shared[1] else (count,)
    matrix = rng.dirichlet(np.ones(m), size=lead + (d,))
    means, sds = rng.normal(size=lead + (d,)), rng.uniform(0.5, 2.0, size=lead + (d,))
    for where, fault, at_row, at_col in row_faults:
        target = {"initial": initial, "transition": transitions, "emission": transitions if gaussian else matrix}[where]
        flat = target.reshape(-1, target.shape[-1])
        if flat.size:
            ROW_FAULTS[fault](flat[at_row % flat.shape[0]], at_col % flat.shape[1])
    if gaussian:
        for key, at, choice in gaussian_faults:
            flat = (means if key == "means" else sds).reshape(-1)
            values = GAUSSIAN_FAULTS[key]
            flat[at % flat.size] = values[choice % len(values)]
    emissions = GaussianEmission(means, sds) if gaussian else DiscreteEmission(matrix)
    if chain_model:
        model = HmmModel(length=n, initial=initial, transition=transitions, emission=emissions)
    else:
        model = HmtModel(topology=topo, initial=initial, transitions=transitions, emissions=emissions)
    assert validate(model) == reference_report(model)


def ulps_from(value, ulps):
    """`value` moved by `ulps` floats, up for a positive count."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def signed_zeros(row, c):
    row[:] = -0.0
    row[c] = 1.0


#: Faults for the whole-model pass beside its tolerance edges: -0.0 entries
#: and the non-finite ones.
PASS_ROW_FAULTS = {
    "signed zeros": signed_zeros,
    "negative zero": lambda row, c: row.__setitem__(c, -0.0),
    "nan": ROW_FAULTS["nan"],
    "inf": ROW_FAULTS["inf"],
    "both infinities": both_infinities,
    "negative": ROW_FAULTS["negative"],
}
PASS_GAUSSIAN_FAULTS = {
    "means": [math.nan, math.inf, -math.inf, -0.0, 1e308],
    "sds": [0.0, -0.0, -1.0, math.nan, math.inf, 5e-324, 1e308],
}


def faulted_model(d, m, nodes, chain_model, gaussian, shared, row_faults, gaussian_faults, seed):
    """A valid random chain or chain-shaped tree with `row_faults`, ``(where,
    fault, row, column)`` with a fault of `ROW_FAULTS`' kind, and
    `gaussian_faults`, ``(key, position, value)``, planted in it."""
    rng = np.random.default_rng(seed)
    shared = (True, True) if chain_model else shared
    initial = rng.dirichlet(np.ones(d))
    transitions = rng.dirichlet(np.ones(d), size=(d,) if shared[0] else (nodes - 1, d))
    lead = () if shared[1] else (nodes,)
    matrix = rng.dirichlet(np.ones(m), size=lead + (d,))
    means, sds = rng.normal(size=lead + (d,)), rng.uniform(0.5, 2.0, size=lead + (d,))
    for where, fault, at_row, at_col in row_faults:
        target = {"initial": initial, "transition": transitions, "emission": transitions if gaussian else matrix}[where]
        flat = target.reshape(-1, target.shape[-1])
        if flat.size:
            fault(flat[at_row % flat.shape[0]], at_col % flat.shape[1])
    if gaussian:
        for key, at, value in gaussian_faults:
            flat = (means if key == "means" else sds).reshape(-1)
            flat[at % flat.size] = value
    emissions = GaussianEmission(means, sds) if gaussian else DiscreteEmission(matrix)
    if chain_model:
        return HmmModel(length=nodes, initial=initial, transition=transitions, emission=emissions)
    return HmtModel(topology=HmtTopology.regular(nodes, 1), initial=initial, transitions=transitions, emissions=emissions)


def assert_pass_matches_report(model):
    report = model_module._report(model)
    assert model_module._valid(model) is (report == [])
    assert validate(model) == report == reference_report(model)


WHERE = st.sampled_from(["initial", "transition", "emission"])


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 4),
    m=st.integers(1, 3),
    nodes=st.integers(1, 5),
    chain_model=st.booleans(),
    gaussian=st.booleans(),
    shared=st.tuples(st.booleans(), st.booleans()),
    edge=st.tuples(WHERE, st.sampled_from([1, -1]), st.integers(-3, 3), st.integers(0, 99), st.integers(0, 9)),
    row_faults=st.lists(st.tuples(WHERE, st.sampled_from(sorted(PASS_ROW_FAULTS)), st.integers(0, 99), st.integers(0, 9)), max_size=2),
    gaussian_faults=st.lists(
        st.sampled_from(sorted(PASS_GAUSSIAN_FAULTS)).flatmap(
            lambda key: st.tuples(st.just(key), st.integers(0, 99), st.sampled_from(PASS_GAUSSIAN_FAULTS[key]))
        ),
        max_size=2,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_whole_model_pass_accepts_exactly_what_the_row_report_accepts(
    d, m, nodes, chain_model, gaussian, shared, edge, row_faults, gaussian_faults, seed
):
    """`validate`'s fused pass finds a model valid exactly when the per-row
    report is empty, on chains and trees, shared and per-node, both emission
    kinds and d = 1.  Every model has one row summing to a float within three
    of a tolerance edge, inside or outside it, and may have -0.0, NaN,
    infinite and negative entries and rows holding both infinities."""
    where, sign, ulps, at_row, at_col = edge
    faults = [(where, one_entry(ulps_from(edge_sum(sign), ulps)), at_row, at_col)]
    faults += [(where, PASS_ROW_FAULTS[fault], at_row, at_col) for where, fault, at_row, at_col in row_faults]
    assert_pass_matches_report(faulted_model(d, m, nodes, chain_model, gaussian, shared, faults, gaussian_faults, seed))


@pytest.mark.parametrize("gaussian", [False, True], ids=["discrete", "gaussian"])
@pytest.mark.parametrize("shape", ["chain", "shared tree", "per-node tree"])
def test_the_whole_model_pass_on_each_single_fault(shape, gaussian):
    """The property's faults one at a time, each in every parameter, at
    d = 1 and d = 3: each verdict of the pass is the report's."""
    chain_model, shared = shape == "chain", (shape == "shared tree",) * 2
    edges = [one_entry(ulps_from(edge_sum(sign), k)) for sign in (1, -1) for k in range(-3, 4)]
    row_faults = [[(where, fault, 1, 1)] for where in ("initial", "transition", "emission") for fault in [*edges, *PASS_ROW_FAULTS.values()]]
    gaussian_faults = [[(key, 2, value)] for key, values in PASS_GAUSSIAN_FAULTS.items() for value in values] if gaussian else []
    verdicts = set()
    for d in (1, 3):
        for faults in [[], *row_faults]:
            model = faulted_model(d, 2, 4, chain_model, gaussian, shared, faults, [], seed=d)
            assert_pass_matches_report(model)
            verdicts.add(model_module._valid(model))
        for faults in gaussian_faults:
            assert_pass_matches_report(faulted_model(d, 2, 4, chain_model, gaussian, shared, [], faults, seed=d))
    assert verdicts == {True, False}


@pytest.mark.parametrize("sign", [1, -1])
def test_row_sums_at_the_tolerance_edge_are_valid_and_one_float_beyond_is_not(sign):
    edge = edge_sum(sign)
    beyond = math.nextafter(edge, sign * math.inf)
    for value, report in ((edge, []), (beyond, [f"transition row 2 sums to {beyond:.12g}"])):
        model = HmmModel(length=3, initial=[1.0, 0.0], transition=[[0.5, 0.5], [value, 0.0]], emission=DiscreteEmission([[1.0], [1.0]]))
        assert validate(model) == reference_report(model) == report


@pytest.mark.parametrize(
    "where, report",
    [
        ("initial", "initial sums to inf"),
        ("transition", "transition row 1 sums to inf"),
        ("emission", "emission matrix row 1 sums to inf"),
        ("per-node emission", "emission at node '0' matrix row 2 sums to inf"),
    ],
)
def test_row_sums_that_overflow_are_reported_without_a_warning(where, report):
    """Entries whose sum is past the largest float fail the whole-model pass
    before it adds them, so no overflow warning precedes the report."""
    if where == "per-node emission":
        doc = per_node_tree_doc()
        doc["emission"]["0"]["matrix"] = [[0.5, 0.5], [1e308, 1e308]]
    else:
        doc = hmm_doc()
        if where == "initial":
            doc["initial"] = [1e308] * len(doc["initial"])
        else:
            rows = doc["transition"] if where == "transition" else doc["emission"]["matrix"]
            rows[0] = [1e308] * len(rows[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelValidationError) as exc:
            load_model(json.dumps(doc))
    assert exc.value.report == [report]


# ---------------------------------------------------------------------------
# The one-pass loader against np.asarray stacking


def reference_from_nodes(paths):
    """Reference for `HmtTopology.from_nodes`: one Python step per path."""
    node_set = set()
    for p in paths:
        if not isinstance(p, str) or (p and not (p.isascii() and p.isdigit())):
            raise ValueError(f"node path {p!r} is not a string over '0'..'9'")
        node_set.add(p)
    if "" not in node_set:
        raise ValueError('node list must contain the root ""')
    nodes = tuple(sorted(node_set, key=lambda p: (len(p), p)))
    index = {p: j for j, p in enumerate(nodes)}
    parent = [-1]
    for p in nodes[1:]:
        if p[:-1] not in index:
            raise ValueError(f"node {p!r} has no parent {p[:-1]!r} in the node list")
        parent.append(index[p[:-1]])
    parent = model_module._freeze(parent, dtype=np.intp)
    depth = len(nodes[-1]) + 1
    counts = np.bincount(parent[1:], minlength=len(nodes))
    first_leaf = int(np.argmin(counts))
    regular = depth > 1 and len(nodes[first_leaf]) == depth - 1 and (counts[:first_leaf] == counts[0]).all()
    return HmtTopology(parent, depth, int(counts[0]) if regular else None, nodes)


def reference_transition_stack(transitions, topology, d):
    """Reference for `model._transition_stack`: one ``np.asarray`` over the
    nested lists, and any error there sends every matrix through the
    per-node check.  (Before the one-pass read, a TypeError or OverflowError
    from that ``np.asarray`` escaped; the test of a wrong shape before a
    later bad leaf pins the change.)"""
    shape = (topology.n_nodes - 1, d, d)
    if isinstance(transitions, Mapping):
        paths = topology.nodes[1:]
        if set(transitions) != set(paths):
            raise ValueError("per-node transitions must cover exactly the non-root nodes")
        try:
            stack = np.asarray([transitions[p] for p in paths], dtype=float)
        except (TypeError, ValueError, OverflowError):
            stack = None
        if stack is None or stack.shape != shape:
            square = model_module._as_square_matrix
            stack = np.asarray([square(transitions[p], d, f"transition at node {p!r}") for p in paths])
            stack = stack.reshape(shape)
        return model_module._freeze(stack)
    stack = model_module._float_array(transitions, (d, d), "transition")
    if stack.ndim == 3:
        if stack.shape != shape:
            raise ValueError(f"transition stack must have shape {shape}, got {stack.shape}")
        return model_module._freeze(stack)
    return model_module._as_square_matrix(stack, d, "transition")


def reference_emission_stack(raw, nodes, alphabet, d):
    """Reference for `model._parse_emission_stack`: one ``np.asarray`` per
    parameter, and any error there sends every entry through the per-node
    parser (before the one-pass read, an OverflowError there escaped)."""
    if set(raw) != set(nodes):
        raise ValueError("per-node emissions must cover exactly the node set")
    kind = "gaussian" if alphabet == "gaussian" else "discrete"
    keys = ("means", "sds") if kind == "gaussian" else ("matrix",)
    shape = (len(nodes), d) if kind == "gaussian" else (len(nodes), d, alphabet)
    entries = [raw[p] for p in nodes]
    if all(type(e) is dict and e.get("kind") == kind for e in entries):
        try:
            arrays = [np.asarray([e[k] for e in entries], dtype=float) for k in keys]
        except (KeyError, TypeError, ValueError, OverflowError):
            arrays = []
        if arrays and all(a.shape == shape for a in arrays):
            return DiscreteEmission(*arrays) if kind == "discrete" else GaussianEmission(*arrays)
    specs = []
    for p in nodes:
        context = f"emission at node {p!r}"
        spec = model_module._parse_emission_spec(model_module._require(raw, p, dict, context), alphabet, d, context)
        specs.append(model_module._check_emission(spec, d, context))
    return model_module._stack_specs(specs)


def load_outcome(text):
    """The loaded stacks, parent array and labels as bytes, or the exception
    type with its message (a ModelValidationError's report)."""
    try:
        model = load_model(text)
    except ModelValidationError as exc:
        return ModelValidationError, exc.report
    except Exception as exc:  # every type is compared, whatever it is
        return type(exc), str(exc)
    spec = model.emission_stack
    parameters = (spec.matrix,) if spec.kind == "discrete" else (spec.means, spec.sds)
    arrays = (model.transition_stack, model.topology.parent, *parameters)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], model.topology.nodes


LEAF_STYLES = ("float", "string", "one-hot int", "one-hot bool")
#: Faults that replace one number of a parameter row.
LEAF_FAULTS = {"null": None, "nested list": [0.5], "big int": 10**400, "object": {}, "word": "x1"}
RESHAPE_FAULTS = ("short row", "long row")
DOCUMENT_FAULTS = ("missing node", "extra node", "wrong kind", "int path", "letter path", "no root", "orphan")


def spelled(x, rng):
    """`x` as a numeric string that ``float()`` reads back exactly."""
    text = repr(x)
    digits = [i for i in range(len(text) - 1) if text[i].isdigit() and text[i + 1].isdigit()]
    underscored = text[: digits[0] + 1] + "_" + text[digits[0] + 1 :] if digits else text
    return [text, f" {text} ", text.upper(), underscored][int(rng.integers(4))]


def styled_row(values, style, rng):
    """A row of numbers in one of the spellings a document may use."""
    if style == "string":
        return [spelled(x, rng) for x in values]
    if style.startswith("one-hot"):
        row = [0] * len(values)
        row[int(rng.integers(len(values)))] = 1
        return [bool(x) for x in row] if style.endswith("bool") else row
    return list(values)


@st.composite
def per_node_documents(draw):
    """A ragged tree document of 1-300 nodes with per-node, mixed or shared
    parameters, in assorted spellings, with up to three faults."""
    n, d, m = draw(st.integers(1, 300)), draw(st.integers(1, 8)), draw(st.integers(1, 5))
    gaussian, shared_transition, shared_emission = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    styles = draw(st.lists(st.sampled_from(LEAF_STYLES), min_size=1, max_size=4))
    kinds = st.sampled_from([*LEAF_FAULTS, *RESHAPE_FAULTS, *DOCUMENT_FAULTS])
    faults = draw(st.lists(st.tuples(kinds, st.integers(0, 10**6)), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    paths, open_nodes, used = [""], [""], {"": set()}
    while len(paths) < n:
        parent = open_nodes[int(rng.integers(len(open_nodes)))]
        digit = str(rng.choice(sorted(set(PATH_ALPHABET) - used[parent])))
        used[parent].add(digit)
        if len(used[parent]) == 10:
            open_nodes.remove(parent)
        paths.append(parent + digit)
        open_nodes.append(paths[-1])
        used[paths[-1]] = set()
    rows = []  # every parameter row, for the leaf faults

    def matrix(size, columns):
        style = styles[int(rng.integers(len(styles)))]
        out = [styled_row(r, style, rng) for r in rng.dirichlet(np.ones(columns), size=size).tolist()]
        rows.extend(out)
        return out

    def emission():
        if not gaussian:
            return {"kind": "discrete", "matrix": matrix(d, m)}
        style = styles[int(rng.integers(len(styles)))]
        means = styled_row(rng.normal(size=d).tolist(), style, rng)
        sds = styled_row(rng.uniform(0.5, 2.0, size=d).tolist(), style, rng)
        rows.extend([means, sds])
        return {"kind": "gaussian", "means": means, "sds": sds}

    doc = {
        "type": "hmt",
        "states": d,
        "alphabet": "gaussian" if gaussian else m,
        "nodes": [paths[i] for i in rng.permutation(n)],
        "initial": rng.dirichlet(np.ones(d)).tolist(),
        "transition": matrix(d, d) if shared_transition else {p: matrix(d, d) for p in paths[1:]},
        "emission": emission() if shared_emission else {p: emission() for p in paths},
    }
    for fault, at in faults:
        row = rows[at % len(rows)]
        per_node = [doc[k] for k in ("transition", "emission") if isinstance(doc[k], dict) and "kind" not in doc[k]]
        if fault in LEAF_FAULTS and row:
            row[at // len(rows) % len(row)] = LEAF_FAULTS[fault]
        elif fault in RESHAPE_FAULTS and row:
            row.pop() if fault == "short row" else row.append(0.0)
        elif fault in ("missing node", "extra node") and per_node:
            mapping = per_node[at % len(per_node)]
            if fault == "extra node":
                mapping[paths[-1] + "0"] = None
            elif mapping:
                del mapping[sorted(mapping)[at % len(mapping)]]
        elif fault == "wrong kind" and isinstance(doc["emission"].get(paths[at % n]), dict):
            doc["emission"][paths[at % n]]["kind"] = "discrete" if gaussian else "gaussian"
        elif fault in ("int path", "letter path") and doc["nodes"]:
            nodes = doc["nodes"]
            nodes[at % len(nodes)] = at if fault == "int path" else f"a{nodes[at % len(nodes)]}"
        elif fault == "no root":
            doc["nodes"] = [p for p in doc["nodes"] if p != ""]
        elif fault == "orphan":
            inner = sorted({p[:-1] for p in paths[1:]} - {""})
            if inner:
                doc["nodes"] = [p for p in doc["nodes"] if p != inner[at % len(inner)]]
    return doc


@settings(max_examples=120, deadline=None)
@given(doc=per_node_documents(), collector=st.booleans())
def test_one_pass_loader_matches_asarray_stacking(doc, collector):
    text = json.dumps(doc)
    with (
        patch.object(HmtTopology, "from_nodes", staticmethod(reference_from_nodes)),
        patch.object(model_module, "_transition_stack", reference_transition_stack),
        patch.object(model_module, "_parse_emission_stack", reference_emission_stack),
    ):
        expected = load_outcome(text)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if collector else gc.disable()
        got = load_outcome(text)
        assert gc.isenabled() is collector
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert got == expected


def test_the_last_of_overlapping_pauses_resumes_the_collector():
    entered, release = threading.Event(), threading.Event()

    def hold():
        with model_module._collector_paused():
            entered.set()
            release.wait(timeout=60)

    was_enabled = gc.isenabled()
    holder = threading.Thread(target=hold)
    try:
        gc.enable()
        with model_module._collector_paused():
            holder.start()
            assert entered.wait(timeout=60)
        assert not gc.isenabled()  # the pause that began first has ended, the other has not
        release.set()
        holder.join(timeout=60)
        assert not holder.is_alive()
        assert gc.isenabled()
    finally:
        release.set()
        gc.enable() if was_enabled else gc.disable()


def test_concurrent_loads_restore_the_collector():
    text = json.dumps(per_node_tree_doc())
    errors = []

    def work():
        try:
            for _ in range(100):
                load_model(text)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval, was_enabled = sys.getswitchinterval(), gc.isenabled()
    sys.setswitchinterval(1e-6)
    try:
        gc.enable()
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)
        gc.enable() if was_enabled else gc.disable()
