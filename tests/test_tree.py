"""Inward recursion and homogeneous closed form against enumeration oracles."""

import math
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmtkl import (
    DiscreteEmission,
    GaussianEmission,
    HmtModel,
    HmtTopology,
    brute_force_kld_joint,
    bundled_gaussian_tree_pair,
    bundled_hmm_pair,
    do_bound,
    inward_pass,
    kl_gaussian,
    kld_exact_tree,
    kld_hmm_fast,
    kld_homogeneous_tree,
    kld_hmm_no_evidence,
)
from hmtkl.divergence import local_k_root, local_k_vector, weighted_sum
from hmtkl.tree import geometric_weighted_sum
from modelgen import SEEDS, model_pairs, ragged_paths, tree, tree_pair


def subtree_conditional_kld(m1, m0, node, parent_state):
    """Enumerate the whole subtree below `node` conditionally on the parent state."""
    topo = m1.topology
    members = sorted((p for p in topo.nodes if p.startswith(node)), key=lambda p: (len(p), p))
    index = {p: j for j, p in enumerate(members)}
    d = m1.n_states
    m = m1.emission(node).n_symbols

    def prob(model, states, symbols):
        total = 1.0
        for j, p in enumerate(members):
            prev = parent_state if p == node else states[index[p[:-1]]]
            total *= model.transition(p)[prev, states[j]]
            total *= model.emission(p).matrix[states[j], symbols[j]]
        return total

    acc = 0.0
    for states in product(range(d), repeat=len(members)):
        for symbols in product(range(m), repeat=len(members)):
            p = prob(m1, states, symbols)
            if p > 0:
                q = prob(m0, states, symbols)
                acc += p * math.log(p / q) if q > 0 else math.inf
    return acc


def joint_tree_kld(m1, m0):
    """Full enumeration over every (x, s) assignment of the tree."""
    topo = m1.topology
    nodes = topo.nodes
    index = {p: j for j, p in enumerate(nodes)}
    d = m1.n_states
    m = m1.emission("").n_symbols

    def prob(model, states, symbols):
        total = model.initial[states[0]]
        for j, p in enumerate(nodes):
            if p:
                total *= model.transition(p)[states[index[p[:-1]]], states[j]]
            total *= model.emission(p).matrix[states[j], symbols[j]]
        return total

    acc = 0.0
    for states in product(range(d), repeat=len(nodes)):
        for symbols in product(range(m), repeat=len(nodes)):
            p = prob(m1, states, symbols)
            if p > 0:
                q = prob(m0, states, symbols)
                acc += p * math.log(p / q) if q > 0 else math.inf
    return acc


def golden_tree_value():
    """The bundled Gaussian pair's divergence, assembled level by level."""
    mu1, mu0 = [0.69, 0.31], [0.63, 0.37]
    pi1 = {1: [[0.99, 0.01], [0.22, 0.78]], 2: [[0.99, 0.01], [0.32, 0.68]]}
    pi0 = {1: [[0.98, 0.02], [0.20, 0.80]], 2: [[0.99, 0.01], [0.22, 0.78]]}
    sd1 = {0: (11.8, 67.1), 1: (4.1, 29.3), 2: (2.8, 10.3)}
    sd0 = {0: (24.6, 74.8), 1: (6.9, 31.9), 2: (3.1, 14.8)}

    def level_k(level, downstream):
        out = []
        for r in range(2):
            acc = 0.0
            for s in range(2):
                term = math.log(pi1[level][r][s] / pi0[level][r][s])
                term += kl_gaussian(0.0, sd1[level][s], 0.0, sd0[level][s])
                acc += pi1[level][r][s] * (term + downstream[s])
            out.append(acc)
        return out

    k2 = level_k(2, [0.0, 0.0])
    k1 = level_k(1, [2.0 * v for v in k2])
    root = sum(
        mu1[s] * (math.log(mu1[s] / mu0[s]) + kl_gaussian(0.0, sd1[0][s], 0.0, sd0[0][s]) + 2.0 * k1[s])
        for s in range(2)
    )
    return root


class TestInwardPass:
    def test_equal_models_zero_table(self):
        rng = np.random.default_rng(3)
        topo = HmtTopology.regular(3, 2)
        m1, _ = tree_pair(rng, topo)
        table = inward_pass(m1, m1)
        assert set(table) == set(topo.nodes) - {""}
        for vec in table.values():
            assert np.all(vec == 0.0)

    def test_matches_subtree_enumeration(self):
        rng = np.random.default_rng(21)
        topo = HmtTopology.regular(2, 2)
        m1, m0 = tree_pair(rng, topo)
        table = inward_pass(m1, m0)
        for node in ["0", "1"]:
            for r in range(2):
                assert table[node][r] == pytest.approx(subtree_conditional_kld(m1, m0, node, r), abs=1e-12)

    def test_matches_subtree_enumeration_depth3(self):
        rng = np.random.default_rng(22)
        topo = HmtTopology.regular(3, 2)
        m1, m0 = tree_pair(rng, topo)
        table = inward_pass(m1, m0)
        assert table["0"][1] == pytest.approx(subtree_conditional_kld(m1, m0, "0", 1), abs=1e-10)

    def test_sibling_equality_on_homogeneous_regular_trees(self):
        rng = np.random.default_rng(8)
        topo = HmtTopology.regular(3, 3)
        m1, m0 = tree_pair(rng, topo, shared=(True, True))
        table = inward_pass(m1, m0)
        for parent in ["", "0", "2"]:
            siblings = [topo.nodes[j] for j in np.flatnonzero(topo.parent == topo.nodes.index(parent))]
            for other in siblings[1:]:
                np.testing.assert_allclose(table[other], table[siblings[0]], rtol=0, atol=1e-12)

    def test_all_entries_nonnegative(self):
        rng = np.random.default_rng(9)
        topo = HmtTopology.regular(3, 2)
        m1, m0 = tree_pair(rng, topo)
        for vec in inward_pass(m1, m0).values():
            assert (vec >= 0).all()

    def test_topology_mismatch(self):
        rng = np.random.default_rng(4)
        a, _ = tree_pair(rng, HmtTopology.regular(2, 2))
        b, _ = tree_pair(rng, HmtTopology.regular(3, 2))
        with pytest.raises(ValueError, match="topology"):
            inward_pass(a, b)


class TestKldExactTree:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            topo = HmtTopology.regular(int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            m, _ = tree_pair(rng, topo, int(rng.integers(1, 4)))
            assert kld_exact_tree(m, m) <= 1e-12

    def test_golden_gaussian_pair(self):
        a, b = bundled_gaussian_tree_pair()
        value = kld_exact_tree(a, b)
        assert value == pytest.approx(0.690, abs=1e-3)
        assert value == pytest.approx(golden_tree_value(), abs=1e-12)

    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(30)
        for topo in [HmtTopology.regular(3, 1), HmtTopology.regular(2, 2), HmtTopology.from_nodes(["", "0", "1", "00"])]:
            m1, m0 = tree_pair(rng, topo)
            assert kld_exact_tree(m1, m0) == pytest.approx(joint_tree_kld(m1, m0), abs=1e-10)

    def test_ragged_arities_match_enumeration(self):
        # mixed children counts per node, including three-way branching
        rng = np.random.default_rng(33)
        for paths in [["", "0", "1", "00", "10", "11"], ["", "0", "1", "2", "00", "01", "20"]]:
            topo = HmtTopology.from_nodes(paths)
            assert topo.regular_arity is None
            m1, m0 = tree_pair(rng, topo)
            assert kld_exact_tree(m1, m0) == pytest.approx(joint_tree_kld(m1, m0), abs=1e-10)

    def test_asymmetry_witnessed(self):
        rng = np.random.default_rng(14)
        topo = HmtTopology.regular(2, 2)
        m1, m0 = tree_pair(rng, topo)
        assert abs(kld_exact_tree(m1, m0) - kld_exact_tree(m0, m1)) > 0

    def test_inf_warning_names_first_offender(self):
        topo = HmtTopology.regular(2, 1)
        shared = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        m1 = HmtModel(topology=topo, initial=[0.5, 0.5], transitions=[[0.5, 0.5], [0.5, 0.5]], emissions=shared)
        m0 = HmtModel(topology=topo, initial=[0.5, 0.5], transitions=[[1.0, 0.0], [1.0, 0.0]], emissions=shared)
        with pytest.warns(UserWarning, match="node '0'"):
            assert kld_exact_tree(m1, m0) == math.inf

    def test_inf_warning_on_a_long_chain_spells_one_path(self):
        n = 20000
        topo = HmtTopology.regular(n, 1)
        shared = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        stack = np.tile([[0.9, 0.1], [0.2, 0.8]], (n - 1, 1, 1))
        stack[4] = [[1.0, 0.0], [1.0, 0.0]]  # the edge into node 5, path '00000'
        m1 = HmtModel(topology=topo, initial=[0.5, 0.5], transitions=[[0.9, 0.1], [0.2, 0.8]], emissions=shared)
        m0 = HmtModel(topology=topo, initial=[0.5, 0.5], transitions=stack, emissions=shared)
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="support mismatch first at node '00000'$"):
                assert kld_exact_tree(m1, m0) == math.inf
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_zero_weight_kills_inf(self):
        # The second state's transition rows mismatch, but that state is unreachable under m1.
        topo = HmtTopology.regular(2, 1)
        shared = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        m1 = HmtModel(topology=topo, initial=[1.0, 0.0], transitions=[[1.0, 0.0], [0.0, 1.0]], emissions=shared)
        m0 = HmtModel(topology=topo, initial=[1.0, 0.0], transitions=[[1.0, 0.0], [1.0, 0.0]], emissions=shared)
        value = kld_exact_tree(m1, m0)
        assert value == 0.0


class TestHomogeneousClosedForm:
    def test_depth_one_is_root_term(self):
        rng = np.random.default_rng(2)
        topo = HmtTopology.regular(1, 1)
        m1, m0 = tree_pair(rng, topo, shared=(True, True))
        assert kld_homogeneous_tree(m1, m0) == pytest.approx(kld_exact_tree(m1, m0), abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(model_pairs(chains=True))
    @example(bundled_hmm_pair())
    def test_chain_matches_hmm_closed_form(self, pair):
        """A chain is the one-child tree: the chain closed form, the fast path
        and the tree closed form on `as_tree` share one evaluator and agree
        bit for bit; the tree recursion and the decomposition bound, summed
        along other routes, agree to rounding."""
        a, b = pair
        ta, tb = a.as_tree(), b.as_tree()
        closed = kld_hmm_no_evidence(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the fast path warns on a fallback, the recursion on +inf
            assert kld_hmm_fast(a, b) == closed
            recursion = kld_exact_tree(ta, tb)
        assert kld_homogeneous_tree(ta, tb) == closed
        for value in (recursion, do_bound(a, b)):
            if math.isinf(closed):
                assert value == math.inf
            else:
                assert value == pytest.approx(closed, rel=1e-12, abs=1e-13)

    def test_rejects_a_ragged_tree(self):
        topo = HmtTopology.from_nodes(["", "0", "1", "00"])
        m1, m0 = tree_pair(np.random.default_rng(5), topo, shared=(True, True))
        with pytest.raises(ValueError, match="topology is not regular"):
            kld_homogeneous_tree(m1, m0)

    def test_matches_recursion_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            children = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 5))
            states = int(rng.integers(1, 4))
            topo = HmtTopology.regular(depth, children)
            m1, m0 = tree_pair(rng, topo, states, shared=(True, True))
            assert kld_homogeneous_tree(m1, m0) == pytest.approx(kld_exact_tree(m1, m0), abs=1e-10)

    def test_explicit_shape_without_materializing(self):
        a, b = bundled_hmm_pair()
        ta, tb = a.with_length(2).as_tree(), b.with_length(2).as_tree()
        long_value = kld_homogeneous_tree(ta, tb, children=1, depth=500)
        assert long_value == pytest.approx(kld_hmm_no_evidence(a.with_length(500), b.with_length(500)), abs=1e-9)

    def test_rejects_heterogeneous(self):
        a, b = bundled_gaussian_tree_pair()
        with pytest.raises(ValueError, match="homogeneous"):
            kld_homogeneous_tree(a, b)

    def test_rejects_bad_shape(self):
        a, b = bundled_hmm_pair()
        with pytest.raises(ValueError, match="children"):
            kld_homogeneous_tree(a.as_tree(), b.as_tree(), children=0, depth=3)
        with pytest.raises(ValueError, match="depth"):
            kld_homogeneous_tree(a.as_tree(), b.as_tree(), children=1, depth=0)

    def test_gaussian_homogeneous(self):
        topo = HmtTopology.regular(3, 2)
        m1 = HmtModel(
            topology=topo,
            initial=[0.6, 0.4],
            transitions=[[0.9, 0.1], [0.3, 0.7]],
            emissions=GaussianEmission([0.0, 1.0], [1.0, 2.0]),
        )
        m0 = HmtModel(
            topology=topo,
            initial=[0.5, 0.5],
            transitions=[[0.8, 0.2], [0.4, 0.6]],
            emissions=GaussianEmission([0.5, 1.0], [1.5, 2.0]),
        )
        assert kld_homogeneous_tree(m1, m0) == pytest.approx(kld_exact_tree(m1, m0), abs=1e-10)


#: Deepest regular tree of each children count with at most 4096 nodes.
MAX_DEPTH_WITHIN_4096_NODES = {1: 4096, 2: 12, 3: 8, 4: 6}


@settings(max_examples=80, deadline=None)
@given(
    children=st.integers(1, 4),
    depth_at=st.integers(0, 10**6),
    states=st.integers(1, 4),
    symbols=st.integers(1, 4),
    gaussian=st.booleans(),
    p_zero=st.tuples(st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.3])),
    seed=SEEDS,
)
def test_closed_form_matches_recursion_on_generated_trees(children, depth_at, states, symbols, gaussian, p_zero, seed):
    rng = np.random.default_rng(seed)
    depth = 1 + depth_at % MAX_DEPTH_WITHIN_4096_NODES[children]
    topo = HmtTopology.regular(depth, children)
    assert topo.n_nodes <= 4096
    # zeros in the second model alone can make the divergence +inf
    m1, m0 = (tree(rng, topo, states, symbols, (True, True), gaussian, p) for p in p_zero)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the recursion warns on +inf
        recursion = kld_exact_tree(m1, m0)
    closed = kld_homogeneous_tree(m1, m0)
    assert math.isinf(closed) == math.isinf(recursion)
    if not math.isinf(closed):
        assert math.isclose(closed, recursion, rel_tol=1e-12, abs_tol=0.0)


class TestGeometricSum:
    def test_small_case_by_hand(self):
        pi = np.array([[0.5, 0.5], [0.25, 0.75]])
        k = np.array([1.0, 2.0])
        # children=2, depth=3: 2k + 4 pi k
        expected = 2 * k + 4 * pi @ k
        np.testing.assert_allclose(geometric_weighted_sum(pi, k, 2, 3), expected, rtol=0, atol=1e-15)

    def test_overflow_raises(self):
        pi = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(OverflowError, match="overflow"):
            geometric_weighted_sum(pi, np.ones(2), 2, 1200)

    def test_overflow_raises_beside_an_unreached_infinite_entry(self):
        pi = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(OverflowError, match="overflow"):
            geometric_weighted_sum(pi, np.array([1.0, 1.0, math.inf]), 2, 1200)

    def test_legitimate_inf_propagates(self):
        pi = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = geometric_weighted_sum(pi, np.array([1.0, math.inf]), 2, 3)
        assert np.isinf(out).all()


def horner_geometric_sum(pi, k, children, depth):
    """``sum_{i=1}^{depth-1} children^i pi^(i-1) @ k`` by the Horner fold
    ``acc <- children * (k + pi @ acc)``, one step per level, with the same
    +inf and overflow rules as `geometric_weighted_sum`: a state whose fold
    ends non-finite without reaching an infinite entry of k raises."""
    k = np.asarray(k, dtype=float)
    acc = np.zeros_like(k)
    reach = np.zeros(k.shape, dtype=bool)  # the states that met an infinite entry so far
    with np.errstate(over="ignore"):
        for _ in range(depth - 1):
            acc = children * (k + weighted_sum(pi, acc))
            reach = np.isinf(k) | (pi.astype(bool) & reach).any(axis=1)
    if not np.isfinite(acc[~reach]).all():
        raise OverflowError("geometric sum overflows 64-bit floats")
    return acc


@st.composite
def geometric_sum_inputs(draw):
    """A stochastic pi with zero entries drawn on purpose (integer weights over
    their row sum) and a k whose entries are 0 or positive at scales up to
    1e303, so that deep sums of many children overflow, with +inf put into
    some of them."""
    d = draw(st.integers(1, 6))
    weights = [draw(st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=d, max_size=d).filter(any)) for _ in range(d)]
    pi = np.array(weights, dtype=float)
    pi /= pi.sum(axis=1, keepdims=True)
    entry = st.one_of(st.just(0.0), st.builds(lambda x, e: x * 10.0**e, st.floats(1e-3, 1e3), st.integers(0, 300)))
    k = np.array(draw(st.lists(entry, min_size=d, max_size=d)))
    k[list(draw(st.sets(st.integers(0, d - 1), max_size=2)))] = math.inf
    return pi, k, draw(st.integers(1, 4)), draw(st.integers(1, 300))


@settings(max_examples=300, deadline=None)
@given(geometric_sum_inputs())
def test_doubling_matches_horner_fold(inputs):
    pi, k, children, depth = inputs
    try:
        expected = horner_geometric_sum(pi, k, children, depth)
    except OverflowError:
        with pytest.raises(OverflowError, match="overflow"):
            geometric_weighted_sum(pi, k, children, depth)
        return
    out = geometric_weighted_sum(pi, k, children, depth)
    assert np.isinf(out).tolist() == np.isinf(expected).tolist()
    finite = np.isfinite(expected)
    np.testing.assert_allclose(out[finite], expected[finite], rtol=1e-12, atol=0)


TINY = 1e-200


@pytest.mark.parametrize(
    "pi, k, cases",
    [
        # state 0 reaches the infinite entry of state 2 only through two steps of
        # probability 1e-200 each, whose product underflows to 0 in every power of pi
        (
            [[1.0 - TINY, TINY, 0.0], [0.0, 1.0 - TINY, TINY], [0.0, 0.0, 1.0]],
            [1.0, 1.0, math.inf],
            [(2, [False, False, True]), (3, [False, True, True]), (4, [True, True, True]), (1000, [True, True, True])],
        ),
        # state 0 passes through the infinite state 1 at step 1 only
        (
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
            [0.0, math.inf, 0.0],
            [(2, [False, True, False]), (3, [True, True, False]), (1000, [True, True, False])],
        ),
    ],
)
def test_infinite_entries_follow_the_support_graph(pi, k, cases):
    pi, k = np.array(pi), np.array(k)
    for depth, infinite in cases:
        assert np.isinf(geometric_weighted_sum(pi, k, 2, depth)).tolist() == infinite
        assert np.isinf(horner_geometric_sum(pi, k, 2, depth)).tolist() == infinite


def path_keyed_kld(m1, m0):
    """The inward recursion over digit paths, children found by string prefix and
    summed in path order; the same arithmetic as `kld_exact_tree`."""
    table = {}
    for p in reversed(m1.topology.nodes):
        kids = sorted(q for q in m1.topology.nodes if q and q[:-1] == p)
        down = np.sum([table[q] for q in kids], axis=0) if kids else None
        if p:
            local = local_k_vector(m1.transition(p), m0.transition(p), m1.emission(p), m0.emission(p))
            table[p] = local if down is None else local + weighted_sum(m1.transition(p), down)
    root = local_k_root(m1.initial, m0.initial, m1.emission(""), m0.emission(""))
    return float(root if down is None else root + weighted_sum(m1.initial, down))


@settings(max_examples=30, deadline=None)
@given(
    model_pairs(
        nodes=st.integers(1, 7),
        arity=st.integers(1, 4),
        states=st.just(2),
        symbols=st.just(2),
        p_zero=st.just(0.0),
        gaussian=st.just(False),
        shared=st.just((False, False)),
    )
)
def test_ragged_topology_and_exact_value_match_brute_force(pair):
    m1, m0 = pair
    topo = m1.topology
    index = {p: j for j, p in enumerate(topo.nodes)}
    assert topo.parent.tolist() == [-1] + [index[p[:-1]] for p in topo.nodes[1:]]

    arity = {p: sum(1 for q in topo.nodes if q[:-1] == p and q) for p in topo.nodes}
    internal = {c for c in arity.values() if c}
    leaves_at_bottom = all(len(p) == topo.depth - 1 for p, c in arity.items() if not c)
    expected = internal.pop() if topo.depth > 1 and len(internal) == 1 and leaves_at_bottom else None
    assert topo.regular_arity == expected

    value = kld_exact_tree(m1, m0)
    assert value == path_keyed_kld(m1, m0)
    assert value == pytest.approx(brute_force_kld_joint(m1, m0), abs=1e-10)


def first_offender(m1, m0):
    """The node the +inf warning must name: the root, else the first node in
    node order whose local term has an infinite entry."""
    if np.isinf(local_k_root(m1.initial, m0.initial, m1.emission(""), m0.emission(""))):
        return "(root)"
    for p in m1.topology.nodes[1:]:
        if np.isinf(local_k_vector(m1.transition(p), m0.transition(p), m1.emission(p), m0.emission(p))).any():
            return p
    return None


@settings(max_examples=60, deadline=None)
@given(model_pairs())
def test_stacked_inward_pass_matches_path_keyed_recursion(pair):
    m1, m0 = pair
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = kld_exact_tree(m1, m0)
    assert value == path_keyed_kld(m1, m0)
    offender = first_offender(m1, m0) if value == math.inf else None
    expected = [] if offender is None else [f"divergence is +inf: support mismatch first at node '{offender}'"]
    assert [str(w.message) for w in caught] == expected


def child_order_inward(m1, m0):
    """The inward recursion node by node, each node's children added to a zero
    vector one at a time in child order; returns the path-keyed inward vectors
    and the divergence."""
    topo = m1.topology
    kids = [[] for _ in range(topo.n_nodes)]
    for j in range(1, topo.n_nodes):
        kids[topo.parent[j]].append(j)
    table = {}
    for j in reversed(range(topo.n_nodes)):
        down = np.zeros(m1.n_states)
        for c in kids[j]:
            down = down + table[c]
        if j:
            p = topo.nodes[j]
            local = local_k_vector(m1.transition(p), m0.transition(p), m1.emission(p), m0.emission(p))
            table[j] = local + weighted_sum(m1.transition(p), down)
    root = local_k_root(m1.initial, m0.initial, m1.emission(""), m0.emission(""))
    value = root + weighted_sum(m1.initial, down) if kids[0] else root
    return {topo.nodes[j]: table[j] for j in range(1, topo.n_nodes)}, float(value)


@settings(max_examples=60, deadline=None)
@given(model_pairs(arity=st.integers(1, 10)))
def test_inward_pass_adds_children_in_child_order(pair):
    m1, m0 = pair
    vectors, expected = child_order_inward(m1, m0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value = kld_exact_tree(m1, m0)
    assert value == expected
    table = inward_pass(m1, m0)
    assert list(table) == list(vectors)
    assert all(table[p].tobytes() == v.tobytes() for p, v in vectors.items())
    if m1.n_states >= 2:
        assert value == path_keyed_kld(m1, m0)


@st.composite
def tailed_pairs(draw):
    """A pair of per-node models on a tree that ends in a single-child tail:
    a `ragged_paths` head, or the root alone, with a path of 5-60 nodes hung
    below one of its leaves and 0 or 2-4 leaves under the path's end.  Each
    model draws hard zeros at its own rate, so that some rows of a run of
    one-node levels are +inf."""
    rng = np.random.default_rng(draw(SEEDS))
    head = ragged_paths(rng, draw(st.just(1) | st.integers(2, 20)), draw(st.integers(1, 4)))
    leaves = [p for p in head if not any(q and q[:-1] == p for q in head)]
    start = leaves[int(rng.integers(len(leaves)))]
    tail = [start + "0" * i for i in range(1, draw(st.integers(5, 60)) + 1)]
    below = [tail[-1] + str(c) for c in range(draw(st.just(0) | st.integers(2, 4)))]
    topology = HmtTopology.from_nodes(head + tail + below)
    d, m, gaussian = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.booleans())
    zeros = [draw(st.sampled_from([0.0, 0.05, 0.3])) for _ in range(2)]
    return tuple(tree(rng, topology, d, m, (False, False), gaussian, p) for p in zeros)


@settings(max_examples=80, deadline=None)
@given(tailed_pairs())
def test_runs_of_one_node_levels_match_the_node_walk(pair):
    """Where a run of one-node levels starts and ends: every inward row and
    the value equal the node-by-node recursion bit for bit, and the +inf
    warning names the first offender."""
    m1, m0 = pair
    vectors, expected = child_order_inward(m1, m0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = kld_exact_tree(m1, m0)
    assert value == expected
    table = inward_pass(m1, m0)
    assert list(table) == list(vectors)
    assert all(table[p].tobytes() == v.tobytes() for p, v in vectors.items())
    offender = first_offender(m1, m0) if value == math.inf else None
    assert [str(w.message) for w in caught] == ([] if offender is None else [f"divergence is +inf: support mismatch first at node '{offender}'"])


def test_ten_children_with_one_state_add_in_child_order():
    # One large and nine tiny child divergences: added in child order the tiny
    # ones each round away, while numpy's pairwise sum of ten values adds them
    # in pairs first and lands two ulps higher.
    topo = HmtTopology.regular(2, 10)
    means0 = np.array([0.0, math.sqrt(2000.0)] + [2.5e-7] * 9)[:, None]
    m1 = HmtModel(topology=topo, initial=[1.0], transitions=[[1.0]], emissions=GaussianEmission(np.zeros((11, 1)), np.ones((11, 1))))
    m0 = HmtModel(topology=topo, initial=[1.0], transitions=[[1.0]], emissions=GaussianEmission(means0, np.ones((11, 1))))
    children = np.concatenate(list(inward_pass(m1, m0).values()))
    fold = 0.0
    for value in children:
        fold += value
    assert np.sum(children) != fold
    assert kld_exact_tree(m1, m0) == fold == child_order_inward(m1, m0)[1]
