"""Properties every exact route shares: KL(m, m) = 0 and KL(m1, m0) >= 0,
including a single hidden state (d = 1) and a single position (N = 1); the
identities that bind the joint and evidence routes of a chain; and the
refusal of a chain paired with a tree by every pair function."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hmtkl import (
    DiscreteEmission,
    Evidence,
    HmmModel,
    HmtTopology,
    ZeroLikelihoodError,
    backward_quantities,
    brute_force_kld_joint,
    brute_force_kld_posterior,
    bundled_hmm_pair,
    do_bound,
    inward_pass,
    kld_exact_tree,
    kld_hmm_evidence,
    kld_hmm_fast,
    kld_hmm_no_evidence,
    kld_homogeneous_tree,
    kld_rate,
    mc_kld_evidence,
    mc_kld_no_evidence,
)
from modelgen import chain, model_pairs, tree_pair

SYMBOLS = 3


def given_evidence(m1, m0):
    """kld_hmm_evidence given a fixed symbol sequence, possible under any
    model whose parameters are all positive."""
    return kld_hmm_evidence(m1, m0, Evidence(np.arange(m1.length) % SYMBOLS))


ROUTES = {
    "do_bound": do_bound,
    "kld_hmm_no_evidence": kld_hmm_no_evidence,
    "kld_hmm_fast": kld_hmm_fast,
    "kld_hmm_evidence": given_evidence,
    "kld_exact_tree": kld_exact_tree,
    "kld_homogeneous_tree": kld_homogeneous_tree,
}


@pytest.mark.parametrize("states", [1, 3])
@pytest.mark.parametrize("length", [1, 5])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_self_divergence_is_zero_and_divergence_nonnegative(route, length, states):
    kld = ROUTES[route]
    rng = np.random.default_rng([length, states])
    for _ in range(5):
        if route in ("kld_exact_tree", "kld_homogeneous_tree"):  # the complete binary tree of depth `length`
            m1, m0 = tree_pair(rng, HmtTopology.regular(length, 2), states, SYMBOLS, shared=(True, True))
        else:
            m1, m0 = chain(rng, length, states, SYMBOLS), chain(rng, length, states, SYMBOLS)
        assert kld(m1, m1) == 0.0
        assert kld(m0, m0) == 0.0
        assert kld(m1, m0) >= 0.0


def initial_law_pair():
    """Two chains (N = 5) that differ only by 1e-13 in the first model's
    second initial probability."""
    transition, emission = [[0.9, 0.1], [0.2, 0.8]], DiscreteEmission([[0.1, 0.3, 0.6], [0.2, 0.1, 0.7]])
    return tuple(HmmModel(length=5, initial=mu, transition=transition, emission=emission) for mu in ([0.5, 0.5 - 1e-13], [0.5, 0.5]))


#: Chain pairs whose divergence rounding once left below 0: the evidence
#: route gave -1.7e-16 on the bundled pair at N = 1 given symbol 1, and
#: `do_bound` -1e-13 on `initial_law_pair`.
NEAR_ZERO = {"bundled-n1": bundled_hmm_pair(length=1), "initial-law-1e-13": initial_law_pair()}


@pytest.mark.parametrize("pair", sorted(NEAR_ZERO))
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_near_zero_divergences_are_not_negative(route, pair):
    m1, m0 = NEAR_ZERO[pair]
    if route in ("kld_exact_tree", "kld_homogeneous_tree"):
        m1, m0 = m1.as_tree(), m0.as_tree()
    assert ROUTES[route](m1, m0) >= 0.0


#: Every public function of a model pair, with its further arguments.
PAIR_FUNCTIONS = {
    "inward_pass": inward_pass,
    "kld_exact_tree": kld_exact_tree,
    "kld_homogeneous_tree": kld_homogeneous_tree,
    "kld_hmm_no_evidence": kld_hmm_no_evidence,
    "kld_hmm_fast": kld_hmm_fast,
    "kld_rate": kld_rate,
    "do_bound": do_bound,
    "kld_hmm_evidence": lambda m1, m0: kld_hmm_evidence(m1, m0, Evidence([0, 1])),
    "mc_kld_no_evidence": lambda m1, m0: mc_kld_no_evidence(m1, m0, 10, 0),
    "mc_kld_evidence": lambda m1, m0: mc_kld_evidence(m1, m0, Evidence([0, 1]), 10, 0),
    "brute_force_kld_joint": brute_force_kld_joint,
    "brute_force_kld_posterior": lambda m1, m0: brute_force_kld_posterior(m1, m0, Evidence([0, 1])),
}


@pytest.mark.parametrize("chain_first", [True, False])
@pytest.mark.parametrize("function", sorted(PAIR_FUNCTIONS))
def test_a_chain_paired_with_a_tree_is_refused(function, chain_first):
    hmm = chain(np.random.default_rng(0), 2, 2, SYMBOLS)
    pair = (hmm, hmm.as_tree()) if chain_first else (hmm.as_tree(), hmm)
    names = " vs ".join(type(m).__name__ for m in pair)
    with pytest.raises(ValueError, match=f"^model type mismatch: {names}$"):
        PAIR_FUNCTIONS[function](*pair)


def chain_rule_sum(m1, m0):
    """``D(p1(X) || p0(X)) + sum_x p1(x) D(p1(S | x) || p0(S | x))`` over every
    symbol string x: the marginals from the backward pass, the posterior term
    from the evidence route."""
    total = 0.0
    for x in product(range(m1.emission.n_symbols), repeat=m1.length):
        ev = Evidence(np.array(x))
        try:
            log_p1 = backward_quantities(m1, ev).log_likelihood
        except ZeroLikelihoodError:
            continue  # p1(x) = 0 adds nothing
        try:
            log_p0 = backward_quantities(m0, ev).log_likelihood
        except ZeroLikelihoodError:
            # possible under m1 only: its marginal term is +inf, and the evidence route refuses x
            with pytest.raises(ZeroLikelihoodError, match="second model"):
                kld_hmm_evidence(m1, m0, ev)
            total = math.inf
            continue
        total += math.exp(log_p1) * (log_p1 - log_p0 + kld_hmm_evidence(m1, m0, ev))
    return total


#: A pair whose second model never emits symbol 2: every x that holds a 2
#: is possible under the first model only.
ONE_SIDED = (
    chain(np.random.default_rng(0), 3, 2, 2),
    HmmModel(length=3, initial=[0.5, 0.5], transition=np.full((2, 2), 0.5), emission=DiscreteEmission([[1.0, 0.0], [1.0, 0.0]])),
)


@settings(max_examples=150, deadline=None)
@given(model_pairs(nodes=st.integers(1, 4), states=st.integers(1, 3), symbols=st.integers(1, 3), chains=True))
@example(ONE_SIDED)
def test_chain_rule_binds_the_joint_and_evidence_routes(pair):
    joint, split = kld_hmm_no_evidence(*pair), chain_rule_sum(*pair)
    if math.isinf(joint) or math.isinf(split):
        assert joint == split == math.inf
    else:
        assert split == pytest.approx(joint, rel=1e-12, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(model_pairs(nodes=st.integers(1, 12), chains=True, evidence=True))
def test_uninformative_emissions_leave_the_hidden_chain_divergence(case):
    m1, m0, ev = case
    row = m1.emission.matrix[0]
    assume((row[ev.symbols] > 0).all())
    # one emission row for every state of both models: x says nothing about S
    blind = DiscreteEmission(np.tile(row, (m1.n_states, 1)))
    m1, m0 = (HmmModel(length=m.length, initial=m.initial, transition=m.transition, emission=blind) for m in (m1, m0))
    hidden = kld_hmm_no_evidence(m1, m0)  # its emission terms are all zero
    value = kld_hmm_evidence(m1, m0, ev)
    if math.isinf(hidden):
        assert value == math.inf
    else:
        assert value == pytest.approx(hidden, rel=1e-12, abs=1e-14)
