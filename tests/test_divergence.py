"""Elementary divergence primitives against independent oracles."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import rel_entr

import hmtkl.divergence
from hmtkl import (
    DiscreteEmission,
    GaussianEmission,
    HmmModel,
    bundled_hmm_pair,
    emission_kl_per_state,
    kl_discrete,
    kl_gaussian,
    local_k_root,
    local_k_vector,
)
from hmtkl.divergence import local_k_stack, local_k_terms, local_k_tree, weighted_sum
from modelgen import model_pairs, rows


def naive_kl(p, q):
    """Defining sum, written independently of the implementation."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi) if qi > 0 else math.inf
    return total


def naive_k_vector(pi1, pi0, e1, e0):
    """Double sum over (state, symbol) pairs per parent state."""
    d = len(pi1)
    m = len(e1[0])
    out = []
    for r in range(d):
        acc = 0.0
        for s in range(d):
            for x in range(m):
                p = pi1[r][s] * e1[s][x]
                q = pi0[r][s] * e0[s][x]
                if p > 0:
                    acc += p * math.log(p / q) if q > 0 else math.inf
        out.append(acc)
    return out


def gaussian_quadrature_kl(m1, s1, m0, s0):
    """Numerical integral of f1 log(f1/f0) over a window wide enough for both sds.

    The log of the density ratio is expanded analytically so the integrand
    stays well-defined where the densities underflow to zero.
    """

    def integrand(x):
        f1 = math.exp(-((x - m1) ** 2) / (2 * s1 * s1)) / (s1 * math.sqrt(2 * math.pi))
        log_ratio = math.log(s0 / s1) + (x - m0) ** 2 / (2 * s0 * s0) - (x - m1) ** 2 / (2 * s1 * s1)
        return f1 * log_ratio

    half = 40.0 * max(s1, s0) + abs(m1) + abs(m0)
    value, _ = quad(integrand, -half, half, points=[m1 - s1, m1, m1 + s1], limit=400)
    return value


class TestKlDiscrete:
    def test_identical(self):
        assert kl_discrete([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_forced_value(self):
        assert kl_discrete([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_direct_sum(self):
        p, q = [0.5, 0.5], [0.25, 0.75]
        expected = naive_kl(p, q)
        assert expected == pytest.approx(0.14384103622589042, abs=1e-15)
        assert kl_discrete(p, q) == pytest.approx(expected, abs=1e-15)

    def test_support_mismatch_is_inf(self):
        assert kl_discrete([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_zero_times_log_zero(self):
        assert kl_discrete([0.0, 1.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            kl_discrete([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_invalid_distribution(self):
        with pytest.raises(ValueError, match="sums to"):
            kl_discrete([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            kl_discrete([-0.5, 1.5], [0.5, 0.5])

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            assert kl_discrete(p, q) >= 0.0
            assert kl_discrete(p, p.copy()) < 1e-14


class TestKlGaussian:
    def test_identical(self):
        assert kl_gaussian(0.0, 3.5, 0.0, 3.5) == 0.0

    @pytest.mark.parametrize("s1, s0", [(11.8, 24.6), (67.1, 74.8)])
    def test_matches_quadrature(self, s1, s0):
        assert kl_gaussian(0.0, s1, 0.0, s0) == pytest.approx(gaussian_quadrature_kl(0.0, s1, 0.0, s0), abs=1e-8)

    def test_known_value(self):
        assert kl_gaussian(0.0, 11.8, 0.0, 24.6) == pytest.approx(0.3497, abs=5e-4)

    def test_nonzero_means(self):
        assert kl_gaussian(1.5, 2.0, -0.5, 1.0) == pytest.approx(gaussian_quadrature_kl(1.5, 2.0, -0.5, 1.0), abs=1e-8)

    def test_invalid_sd(self):
        with pytest.raises(ValueError, match="positive"):
            kl_gaussian(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            kl_gaussian(0.0, 1.0, 0.0, -2.0)


class TestLocalKVector:
    def test_equal_models_zero(self):
        pi = [[0.9, 0.1], [0.2, 0.8]]
        e = DiscreteEmission([[0.1, 0.3, 0.6], [0.2, 0.1, 0.7]])
        assert np.all(local_k_vector(pi, pi, e, e) == 0.0)

    def test_bundled_pair_against_enumeration(self):
        a, b = bundled_hmm_pair()
        got = local_k_vector(a.transition, b.transition, a.emission, b.emission)
        expected = naive_k_vector(a.transition.tolist(), b.transition.tolist(), a.emission.matrix.tolist(), b.emission.matrix.tolist())
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
        # frozen from the enumeration above
        np.testing.assert_allclose(got, [0.5315640582855506, 0.641045435016], rtol=0, atol=1e-12)

    def test_matrix_decomposition_identity(self):
        # k == row divergences of transitions + pi1 @ per-state emission divergences
        rng = np.random.default_rng(7)
        for _ in range(50):
            d, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            pi1 = rng.dirichlet(np.ones(d), size=d)
            pi0 = rng.dirichlet(np.ones(d), size=d)
            e1 = DiscreteEmission(rng.dirichlet(np.ones(m), size=d))
            e0 = DiscreteEmission(rng.dirichlet(np.ones(m), size=d))
            direct = local_k_vector(pi1, pi0, e1, e0)
            split = np.array([naive_kl(pi1[r], pi0[r]) for r in range(d)]) + pi1 @ emission_kl_per_state(e1, e0)
            np.testing.assert_allclose(direct, split, rtol=0, atol=1e-14)

    def test_gaussian_matches_definition(self):
        pi1 = np.array([[0.9, 0.1], [0.2, 0.8]])
        pi0 = np.array([[0.7, 0.3], [0.4, 0.6]])
        e1 = GaussianEmission([0.0, 0.0], [11.8, 67.1])
        e0 = GaussianEmission([0.0, 0.0], [24.6, 74.8])
        got = local_k_vector(pi1, pi0, e1, e0)
        expected = [
            sum(
                pi1[r, s] * (math.log(pi1[r, s] / pi0[r, s]) + kl_gaussian(0, e1.sds[s], 0, e0.sds[s]))
                for s in range(2)
            )
            for r in range(2)
        ]
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_support_mismatch_flag(self):
        pi1 = [[0.5, 0.5], [0.5, 0.5]]
        pi0 = [[1.0, 0.0], [1.0, 0.0]]
        e = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        got = local_k_vector(pi1, pi0, e, e)
        assert np.isinf(got).all()

    def test_kind_mismatch(self):
        pi = [[1.0]]
        with pytest.raises(ValueError, match="kind mismatch"):
            local_k_vector(pi, pi, DiscreteEmission([[1.0]]), GaussianEmission([0.0], [1.0]))

    def test_dimension_mismatch(self):
        e = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            local_k_vector([[1.0]], [[1.0]], e, e)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            pi1 = rng.dirichlet(np.ones(d), size=d)
            pi0 = rng.dirichlet(np.ones(d), size=d)
            e1 = DiscreteEmission(rng.dirichlet(np.ones(m), size=d))
            e0 = DiscreteEmission(rng.dirichlet(np.ones(m), size=d))
            assert (local_k_vector(pi1, pi0, e1, e0) >= 0).all()


class TestLocalKRoot:
    def test_equal_inputs_zero(self):
        e = DiscreteEmission([[0.2, 0.8]])
        assert local_k_root([1.0], [1.0], e, e) == 0.0

    def test_bundled_pair_decomposition(self):
        # Initial laws are equal, so the root term reduces to mu1 @ emission divergences.
        a, b = bundled_hmm_pair()
        got = local_k_root(a.initial, b.initial, a.emission, b.emission)
        e1 = a.emission.matrix.tolist()
        e0 = b.emission.matrix.tolist()
        expected = 0.5 * naive_kl(e1[0], e0[0]) + 0.5 * naive_kl(e1[1], e0[1])
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(float(a.initial @ emission_kl_per_state(a.emission, b.emission)), abs=1e-15)

    def test_disjoint_support_inf(self):
        e = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        assert local_k_root([1.0, 0.0], [0.0, 1.0], e, e) == math.inf


class TestStacks:
    @pytest.mark.parametrize("gaussian", [False, True])
    @pytest.mark.parametrize("shared", [False, True])
    def test_stack_rows_equal_per_node_terms_across_blocks(self, monkeypatch, gaussian, shared):
        rng = np.random.default_rng(41)
        n, d, m = 23, 3, 4
        lead = () if shared else (n,)
        pi1 = rng.dirichlet(np.ones(d), size=(n, d))
        pi0 = rng.dirichlet(np.ones(d), size=(n, d))
        pi0[::5, :, 0] = 0.0  # zero entries make some local terms +inf
        pi0[::5] /= pi0[::5].sum(axis=-1, keepdims=True)
        if gaussian:
            e1 = GaussianEmission(rng.normal(size=lead + (d,)), rng.uniform(0.5, 2, size=lead + (d,)))
            e0 = GaussianEmission(rng.normal(size=lead + (d,)), rng.uniform(0.5, 2, size=lead + (d,)))
        else:
            e1 = DiscreteEmission(rng.dirichlet(np.ones(m), size=lead + (d,)))
            e0 = DiscreteEmission(rng.dirichlet(np.ones(m), size=lead + (d,)))
        # blocks of two nodes: every block boundary falls inside the stack
        monkeypatch.setattr(hmtkl.divergence, "_BLOCK_ENTRIES", 2 * d * d)
        stacked = local_k_stack(pi1, pi0, e1, e0)
        assert np.isinf(stacked).any()
        for i in range(n):
            np.testing.assert_array_equal(
                stacked[i], local_k_vector(pi1[i], pi0[i], e1.for_nodes(i), e0.for_nodes(i))
            )

    def test_weighted_rows_equal_weighted_sum(self):
        rng = np.random.default_rng(42)
        weights = rng.dirichlet(np.ones(4), size=(9, 4))
        weights[::2, :, 1] = 0.0
        values = rng.random((9, 4)) * 10
        values[::3, 1] = math.inf  # zero weights meet these: 0 * inf counts as 0
        rows = weighted_sum(weights, values)
        for i in range(9):
            np.testing.assert_array_equal(rows[i], weighted_sum(weights[i], values[i]))
        assert np.isfinite(rows[::6]).all()


def enumerated_local_term(w1, w0, e1, e0):
    """The local term as the joint sum over (state, symbol) pairs of
    ``p log(p / q)``, ``p = w1[s] e1(s, x)``, ``q = w0[s] e0(s, x)``.

    `e1` and `e0` are one node's spec; for Gaussian emissions the symbol sum
    of state s is ``w1[s] (log(w1[s] / w0[s]) + D(e1(s) || e0(s)))`` with the
    closed-form Gaussian divergence written out.
    """
    acc = 0.0
    for s in range(len(w1)):
        if isinstance(e1, DiscreteEmission):
            pairs = [(w1[s] * p1, w0[s] * p0) for p1, p0 in zip(e1.matrix[s], e0.matrix[s])]
            for p, q in pairs:
                if p > 0:
                    acc += p * math.log(p / q) if q > 0 else math.inf
        elif w1[s] > 0:
            m1, s1, m0, s0 = e1.means[s], e1.sds[s], e0.means[s], e0.sds[s]
            gauss = (s1 * s1 + (m1 - m0) ** 2) / (2 * s0 * s0) + math.log(s0 / s1) - 0.5
            acc += w1[s] * (math.log(w1[s] / w0[s]) + gauss) if w0[s] > 0 else math.inf
    return acc


def assert_same_local_terms(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    np.testing.assert_array_equal(np.isposinf(got), np.isposinf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-13, atol=1e-14)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 9),
    d=st.integers(1, 8),
    m=st.integers(1, 6),
    gaussian=st.booleans(),
    shared=st.booleans(),
    p_zero=st.sampled_from([0.0, 0.2, 0.5]),
    plant=st.booleans(),
    nodes_per_block=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_local_terms_match_the_joint_enumeration(n, d, m, gaussian, shared, p_zero, plant, nodes_per_block, seed):
    rng = np.random.default_rng(seed)
    lead = () if shared else (n,)
    mu1, mu0 = rows(rng, (d,), p_zero), rows(rng, (d,), p_zero)
    pi1, pi0 = rows(rng, (n, d, d), p_zero), rows(rng, (n, d, d), p_zero)
    if gaussian:
        e1 = GaussianEmission(rng.normal(size=lead + (d,)), rng.uniform(0.3, 3.0, size=lead + (d,)))
        e0 = GaussianEmission(rng.normal(size=lead + (d,)), rng.uniform(0.3, 3.0, size=lead + (d,)))
    else:
        emis1, emis0 = rows(rng, lead + (d, m), p_zero), rows(rng, lead + (d, m), p_zero)
        if plant and d > 1 and m > 1:
            # State 0 gets an infinite emission divergence on some nodes, and
            # zero transitions into it from some parent states: 0 * inf adds 0.
            hit = rng.random(lead) < 0.7
            emis1[hit, 0] = 1.0 / m
            emis0[hit, 0] = np.r_[0.0, np.full(m - 1, 1.0 / (m - 1))]
            pi1[rng.random((n, d)) < 0.6, 0] = 0.0
            pi1[..., 1] += pi1.sum(axis=-1) == 0.0
            pi1 /= pi1.sum(axis=-1, keepdims=True)
            mu1[0], mu1[1] = 0.0, mu1[1] + mu1[0]
        e1, e0 = DiscreteEmission(emis1), DiscreteEmission(emis0)

    expected = [[enumerated_local_term(pi1[i, r], pi0[i, r], e1.for_nodes(i), e0.for_nodes(i)) for r in range(d)] for i in range(n)]
    with mock.patch.object(hmtkl.divergence, "_BLOCK_ENTRIES", nodes_per_block * d * d):
        stacked = local_k_stack(pi1, pi0, e1, e0)
    assert_same_local_terms(stacked, expected)
    for i in range(n):
        assert_same_local_terms(local_k_vector(pi1[i], pi0[i], e1.for_nodes(i), e0.for_nodes(i)), expected[i])
        root = local_k_root(mu1, mu0, e1.for_nodes(i), e0.for_nodes(i))
        assert_same_local_terms([root], [enumerated_local_term(mu1, mu0, e1.for_nodes(i), e0.for_nodes(i))])


#: Terms of the kernel parity test: uniform draws, log-uniform draws from the
#: subnormals to near the largest float (so that some ratios underflow or
#: overflow), hard zeros, and the edge values of every case of the kernel.
_TERMS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-1074.0, 1023.0).map(lambda e: 2.0**e),
    st.sampled_from([0.0, math.nan, math.inf, -1.0, 5e-324, np.finfo(float).tiny, np.finfo(float).max]),
)

#: A SciPy that predates the log1p and log-difference branches computes
#: x log(x/y) for every positive pair, so that this ratio overflows to +inf.
_SCIPY_BRANCHED = bool(np.isfinite(rel_entr(1.0, 1e-320)))


@pytest.mark.skipif(not _SCIPY_BRANCHED, reason="scipy.special.rel_entr predates its log1p branch")
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_rel_entr_kernel_matches_scipy(data):
    shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3, min_side=0, max_side=4))
    x = data.draw(hnp.arrays(float, shapes.input_shapes[0], elements=_TERMS))
    y = data.draw(hnp.arrays(float, shapes.input_shapes[1], elements=_TERMS))
    if data.draw(st.booleans()):  # pairs within 1e-8 of each other
        eps = data.draw(hnp.arrays(float, shapes.result_shape, elements=st.floats(-1e-8, 1e-8)))
        with np.errstate(over="ignore"):
            y = x * (1.0 + eps)
    expected = np.asarray(rel_entr(x, y))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.asarray(hmtkl.divergence._rel_entr(x, y))
    assert got.shape == expected.shape == shapes.result_shape
    for special in (np.isnan, np.isposinf, np.isneginf):
        np.testing.assert_array_equal(special(got), special(expected))
    assert (got[np.broadcast_to((x == 0) & (y >= 0), got.shape)] == 0.0).all()
    finite = np.isfinite(expected)
    ulps = np.abs(got[finite] - expected[finite]) / np.abs(np.spacing(expected[finite]))
    assert (ulps <= 2).all(), f"{ulps.max()} ulp apart"


@settings(max_examples=150, deadline=None)
@given(pair=model_pairs(nodes=st.integers(1, 60)), nodes_per_block=st.integers(1, 70))
def test_tree_local_terms_are_the_root_term_and_the_stack_bit_for_bit(pair, nodes_per_block):
    """`local_k_tree` joins the root's rows to the first block's emission
    call; the root term and the table keep the bits of `local_k_root` on
    node 0's specs and `local_k_stack` on the others', whichever specs are
    shared, at every block size and with one node."""
    m1, m0 = pair
    n, d = m1.topology.n_nodes, m1.n_states
    pi1, pi0 = (np.broadcast_to(m.transition_stack, (n - 1, d, d)) for m in pair)
    e1, e0 = m1.emission_stack, m0.emission_stack
    nonroot = slice(1, None)
    with mock.patch.object(hmtkl.divergence, "_BLOCK_ENTRIES", nodes_per_block * d * d):
        root, table = local_k_tree(m1.initial, m0.initial, pi1, pi0, e1, e0)
        stack = local_k_stack(pi1, pi0, e1.for_nodes(nonroot), e0.for_nodes(nonroot))
    expected = local_k_root(m1.initial, m0.initial, e1.for_nodes(0), e0.for_nodes(0))
    assert type(root) is float and np.float64(root).tobytes() == np.float64(expected).tobytes()
    assert table.shape == stack.shape == (n - 1, d) and table.tobytes() == stack.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 9),
    m=st.integers(1, 4),
    stacked_emissions=st.booleans(),
    p_zero=st.sampled_from([0.0, 0.3]),
    nodes_per_block=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_broadcast_matrix_pair_takes_the_kernel_once(n, d, m, stacked_emissions, p_zero, nodes_per_block, seed):
    """A shared transition pair broadcast over the nodes has its row
    divergences taken once, from a kernel call on the two matrices, and
    gives the bits of the same stack laid out node by node."""
    rng = np.random.default_rng(seed)
    pi1, pi0 = rows(rng, (d, d), p_zero), rows(rng, (d, d), p_zero)
    lead = (n,) if stacked_emissions else ()
    e1, e0 = DiscreteEmission(rows(rng, lead + (d, m), p_zero)), DiscreteEmission(rows(rng, lead + (d, m), p_zero))
    w1, w0 = np.broadcast_to(pi1, (n, d, d)), np.broadcast_to(pi0, (n, d, d))
    with mock.patch.object(hmtkl.divergence, "_BLOCK_ENTRIES", nodes_per_block * d * d):
        with mock.patch.object(hmtkl.divergence, "_rel_entr", wraps=hmtkl.divergence._rel_entr) as kernel:
            got = local_k_stack(w1, w0, e1, e0)
        expected = local_k_stack(np.ascontiguousarray(w1), np.ascontiguousarray(w0), e1, e0)
    assert got.tobytes() == expected.tobytes()
    assert kernel.call_args_list[0].args[0].shape == (d, d)
    assert all(call.args[0].shape[-1] == m for call in kernel.call_args_list[1:])


def _spec_pair(rng, lead, d, m, gaussian, p_zero=0.0):
    if gaussian:
        return tuple(GaussianEmission(rng.normal(size=lead + (d,)), rng.uniform(0.5, 2.0, size=lead + (d,))) for _ in "ab")
    return tuple(DiscreteEmission(rows(rng, lead + (d, m), p_zero)) for _ in "ab")


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("which", ["first", "second", "both"])
def test_one_node_functions_refuse_a_stacked_spec(gaussian, which):
    rng = np.random.default_rng(7)
    d, m = 3, 2
    one, stack = _spec_pair(rng, (), d, m, gaussian), _spec_pair(rng, (3,), d, m, gaussian)
    e1, e0 = (stack[0] if which != "second" else one[0]), (stack[1] if which != "first" else one[1])
    mu, pi = rows(rng, (d,)), rows(rng, (d, d))
    for call in (
        lambda: local_k_vector(pi, pi, e1, e0),
        lambda: local_k_root(mu, mu, e1, e0),
        lambda: local_k_terms(mu, mu, pi, pi, e1, e0),
    ):
        with pytest.raises(ValueError, match="^emission must be one spec, not a stack$"):
            call()
    # one node's stack of one spec is refused too: these functions take no stack
    e1, e0 = (s.for_nodes(slice(0, 1)) for s in stack)
    with pytest.raises(ValueError, match="one spec, not a stack"):
        local_k_root(mu, mu, e1, e0)


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("nodes", [0, 3, 5, 6, 40])
def test_a_stack_of_the_wrong_node_count_is_refused(gaussian, nodes):
    """A stacked spec must cover the weight stack's n nodes (`local_k_stack`)
    or n + 1 with the root first (`local_k_tree`); too few or too many is an
    error, whatever the block size, never a table of other nodes' terms."""
    rng = np.random.default_rng(8)
    n, d, m = 4, 2, 3
    pi1, pi0 = rows(rng, (n, d, d)), rows(rng, (n, d, d))
    mu = rows(rng, (d,))
    e1, e0 = _spec_pair(rng, (nodes,), d, m, gaussian)
    shared = _spec_pair(rng, (), d, m, gaussian)
    for block in (1, 2, 1 << 17):
        with mock.patch.object(hmtkl.divergence, "_BLOCK_ENTRIES", block * d * d):
            if nodes != n:
                with pytest.raises(ValueError, match=f"^emission stack covers {nodes} nodes, expected {n}$"):
                    local_k_stack(pi1, pi0, e1, shared[1])
                with pytest.raises(ValueError, match=f"^emission stack covers {nodes} nodes, expected {n}$"):
                    local_k_stack(pi1, pi0, shared[0], e0)
            if nodes != n + 1:
                with pytest.raises(ValueError, match=f"^emission stack covers {nodes} nodes, expected {n + 1}$"):
                    local_k_tree(mu, mu, pi1, pi0, e1, e0)
                with pytest.raises(ValueError, match=f"^emission stack covers {nodes} nodes, expected {n + 1}$"):
                    local_k_tree(mu, mu, pi1, pi0, shared[0], e0)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_a_discrete_chain_takes_one_kernel_call_per_function(d):
    """The root, the step and both at once each come from one `_rel_entr`
    call over the initial laws' rows, the transition rows and the emission
    rows that the function needs."""
    rng = np.random.default_rng(d)
    mu1, mu0, pi1, pi0 = rows(rng, (d,)), rows(rng, (d,)), rows(rng, (d, d)), rows(rng, (d, d))
    e1, e0 = _spec_pair(rng, (), d, 4, False)
    calls = {
        "local_k_terms": (lambda: local_k_terms(mu1, mu0, pi1, pi0, e1, e0), d * 4 + d + d * d),
        "local_k_vector": (lambda: local_k_vector(pi1, pi0, e1, e0), d * 4 + d * d),
        "local_k_root": (lambda: local_k_root(mu1, mu0, e1, e0), d * 4 + d),
    }
    for name, (call, terms) in calls.items():
        with mock.patch.object(hmtkl.divergence, "_rel_entr", wraps=hmtkl.divergence._rel_entr) as kernel:
            call()
        assert kernel.call_count == 1, name
        assert kernel.call_args.args[0].size == terms, name


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    d=st.integers(1, 6),
    gaussian=st.booleans(),
    stacked_emissions=st.booleans(),
    nodes_per_block=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_block_of_several_nodes_takes_its_weights_in_a_call_of_their_own(n, d, gaussian, stacked_emissions, nodes_per_block, seed):
    """A per-node stack's block of two or more nodes hands the kernel a view
    of its own weights; a block of one node joins its weights to the block's
    discrete emission rows instead, so no call sees a view of the stack there.
    Gaussian specs have no rows, and each block's weights make its one call."""
    rng = np.random.default_rng(seed)
    pi1, pi0 = rows(rng, (n, d, d), 0.3), rows(rng, (n, d, d), 0.3)
    e1, e0 = _spec_pair(rng, (n,) if stacked_emissions else (), d, 3, gaussian, 0.3)
    counts = [min(nodes_per_block, n - lo) for lo in range(0, n, nodes_per_block)]
    with mock.patch.object(hmtkl.divergence, "_BLOCK_ENTRIES", nodes_per_block * d * d):
        with mock.patch.object(hmtkl.divergence, "_rel_entr", wraps=hmtkl.divergence._rel_entr) as kernel:
            local_k_stack(pi1, pi0, e1, e0)
    own = [call.args[0].shape for call in kernel.call_args_list if np.shares_memory(call.args[0], pi1)]
    assert own == [(c, d, d) for c in counts if c > 1 or gaussian]
    assert kernel.call_count == (len(counts) if gaussian else len(own) + len(counts))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 8),
    m=st.integers(1, 4),
    gaussian=st.booleans(),
    p_zero=st.sampled_from([0.0, 0.3, 0.6]),
    nodes_per_block=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_chain_step_is_a_one_node_stack_of_the_tree_table(n, d, m, gaussian, p_zero, nodes_per_block, seed):
    """A chain is the one-child tree: `local_k_terms` of a chain gives the
    bits of `local_k_tree` on its `as_tree` model, the root term and every
    row of the table, at every block size, hard zeros and +inf included."""
    rng = np.random.default_rng(seed)
    e1, e0 = _spec_pair(rng, (), d, m, gaussian, p_zero)
    m1, m0 = (
        HmmModel(length=n, initial=rows(rng, (d,), p_zero), transition=rows(rng, (d, d), p_zero), emission=e)
        for e in (e1, e0)
    )
    root, step = local_k_terms(m1.initial, m0.initial, m1.transition, m0.transition, e1, e0)
    t1, t0 = m1.as_tree(), m0.as_tree()
    pi1, pi0 = (np.broadcast_to(t.transition_stack, (n - 1, d, d)) for t in (t1, t0))
    with mock.patch.object(hmtkl.divergence, "_BLOCK_ENTRIES", nodes_per_block * d * d):
        tree_root, table = local_k_tree(t1.initial, t0.initial, pi1, pi0, t1.emission_stack, t0.emission_stack)
    assert type(root) is float and np.float64(root).tobytes() == np.float64(tree_root).tobytes()
    assert table.shape == (n - 1, d)
    assert table.tobytes() == np.tile(step, (n - 1, 1)).tobytes()
