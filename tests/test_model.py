"""Model types, validation, and the JSON document format."""

import json
import math
import time
import tracemalloc

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
from hmtkl.bundled import data_text
from hmtkl.model import MAX_NODES
from hmtkl.tree import _check_same_shape


def random_hmm(rng, length=None, states=None, symbols=None):
    d = states or int(rng.integers(1, 4))
    m = symbols or int(rng.integers(1, 4))
    return HmmModel(
        length=length or int(rng.integers(1, 7)),
        initial=rng.dirichlet(np.ones(d)),
        transition=rng.dirichlet(np.ones(d), size=d),
        emission=DiscreteEmission(rng.dirichlet(np.ones(m), size=d)),
    )


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
        _check_same_shape(one_state_model(t), one_state_model(relabelled))
    text = save_model(one_state_model(relabelled))
    assert "nodes" in json.loads(text)
    again = load_model(text).topology
    assert again == relabelled and again.nodes == relabelled.nodes
    assert save_model(load_model(text)) == text


def test_relabelled_siblings_are_another_topology():
    one = HmtTopology.from_nodes(["", "1"])
    zero = HmtTopology.from_nodes(["", "0"])
    chain = HmtTopology.regular(2, 1)
    assert zero == chain and chain == zero and hash(zero) == hash(chain)
    assert one != zero and one != chain and chain != one
    with pytest.raises(ValueError, match="models must share the same topology"):
        _check_same_shape(one_state_model(one), one_state_model(chain))


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
        _check_same_shape(ta, tb)

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


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["hmm_a", "hmm_b", "gauss_tree_a", "gauss_tree_b"])
    def test_bundled_files_round_trip(self, name):
        text = data_text(f"{name}.json")
        assert save_model(load_model(text)) == text

    def test_random_models_round_trip_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_hmm(rng)
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
            a = random_hmm(rng, length=n, states=d, symbols=2)
            b = random_hmm(rng, length=n, states=d, symbols=2)
            assert kld_exact_tree(a.as_tree(), b.as_tree()) == pytest.approx(
                kld_hmm_no_evidence(a, b), abs=1e-12
            )

    def test_bundled_pair_equivalence(self):
        a, b = bundled_hmm_pair()
        assert kld_exact_tree(a.as_tree(), b.as_tree()) == pytest.approx(kld_hmm_no_evidence(a, b), abs=1e-12)


class TestEvidence:
    def test_external_mapping(self):
        ev = Evidence.from_external([1, 2, 3])
        assert ev.symbols.tolist() == [0, 1, 2]
        assert ev.external.tolist() == [1, 2, 3]

    def test_rejects_zero_label(self):
        with pytest.raises(ValueError, match="1-based"):
            Evidence.from_external([0, 1])

    def test_truncated(self):
        ev = Evidence.from_external([1, 2, 3])
        assert ev.truncated(2).symbols.tolist() == [0, 1]
        with pytest.raises(ValueError, match="truncate"):
            ev.truncated(4)

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
    """Per-row validation through the path accessors, one matrix row at a time."""
    problems = []

    def rows(matrix, label):
        for r, row in enumerate(np.atleast_2d(matrix)):
            if (row < 0).any():
                problems.append(f"{label} row {r + 1} has a negative entry")
            total = float(row.sum())
            if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-12):
                problems.append(f"{label} row {r + 1} sums to {total:.12g}")

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


ROW_FAULTS = {
    "negative": lambda row, c: row.__setitem__(c, -row[c] - 0.25),
    "nan": lambda row, c: row.__setitem__(c, math.nan),
    "inf": lambda row, c: row.__setitem__(c, math.inf),
    "above": lambda row, c: row.__setitem__(c, row[c] + 1e-11),
    "below": lambda row, c: row.__setitem__(c, row[c] - 1e-11),
    "within": lambda row, c: row.__setitem__(c, row[c] + 1e-13),
}
GAUSSIAN_FAULTS = {
    "means": [math.nan, math.inf, -math.inf],
    "sds": [0.0, -1.0, math.nan, math.inf, -math.inf],
}


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 12),
    d=st.integers(1, 4),
    m=st.integers(1, 4),
    gaussian=st.booleans(),
    shared=st.tuples(st.booleans(), st.booleans()),
    row_faults=st.lists(
        st.tuples(st.booleans(), st.sampled_from(sorted(ROW_FAULTS)), st.integers(0, 10**6), st.integers(0, 10**6)),
        max_size=6,
    ),
    gaussian_faults=st.lists(
        st.tuples(st.sampled_from(sorted(GAUSSIAN_FAULTS)), st.integers(0, 10**6), st.integers(0, 4)), max_size=6
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_validation_matches_per_row_reference(n, d, m, gaussian, shared, row_faults, gaussian_faults, seed):
    rng = np.random.default_rng(seed)
    # a chain or a star, so that node labels have several lengths and orders
    topo = HmtTopology.regular(n, 1) if seed % 2 else HmtTopology.from_nodes([""] + [str(c) for c in range(min(n, 11) - 1)])
    count = topo.n_nodes
    transitions = rng.dirichlet(np.ones(d), size=(d,) if shared[0] else (count - 1, d))
    lead = () if shared[1] else (count,)
    matrix = rng.dirichlet(np.ones(m), size=lead + (d,))
    means, sds = rng.normal(size=lead + (d,)), rng.uniform(0.5, 2.0, size=lead + (d,))
    for in_transitions, fault, at_row, at_col in row_faults:
        target = transitions if in_transitions or gaussian else matrix
        flat = target.reshape(-1, target.shape[-1])
        if flat.size:
            ROW_FAULTS[fault](flat[at_row % flat.shape[0]], at_col % flat.shape[1])
    if gaussian:
        for key, at, choice in gaussian_faults:
            flat = (means if key == "means" else sds).reshape(-1)
            values = GAUSSIAN_FAULTS[key]
            flat[at % flat.size] = values[choice % len(values)]
    emissions = GaussianEmission(means, sds) if gaussian else DiscreteEmission(matrix)
    model = HmtModel(topology=topo, initial=np.eye(d)[0], transitions=transitions, emissions=emissions)
    assert validate(model) == reference_report(model)
