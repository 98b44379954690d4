"""Properties every exact route shares: KL(m, m) = 0 and KL(m1, m0) >= 0,
including a single hidden state (d = 1) and a single position (N = 1)."""

import numpy as np
import pytest

from hmtkl import (
    DiscreteEmission,
    Evidence,
    HmmModel,
    HmtModel,
    HmtTopology,
    do_bound,
    kld_exact_tree,
    kld_hmm_evidence,
    kld_hmm_fast,
    kld_hmm_no_evidence,
    kld_homogeneous_tree,
)

SYMBOLS = 3


def random_chain(rng, length, states):
    return HmmModel(
        length=length,
        initial=rng.dirichlet(np.ones(states)),
        transition=rng.dirichlet(np.ones(states), size=states),
        emission=DiscreteEmission(rng.dirichlet(np.ones(SYMBOLS), size=states)),
    )


def random_binary_tree(rng, depth, states):
    """Homogeneous model on the complete binary tree of the given depth."""
    return HmtModel(
        topology=HmtTopology.regular(depth, 2),
        initial=rng.dirichlet(np.ones(states)),
        transitions=rng.dirichlet(np.ones(states), size=states),
        emissions=DiscreteEmission(rng.dirichlet(np.ones(SYMBOLS), size=states)),
    )


def given_evidence(m1, m0):
    """kld_hmm_evidence given a fixed symbol sequence, possible under any
    model whose parameters are all positive."""
    return kld_hmm_evidence(m1, m0, Evidence(np.arange(m1.length) % SYMBOLS))


ROUTES = {
    "do_bound": (random_chain, do_bound),
    "kld_hmm_no_evidence": (random_chain, kld_hmm_no_evidence),
    "kld_hmm_fast": (random_chain, kld_hmm_fast),
    "kld_hmm_evidence": (random_chain, given_evidence),
    "kld_exact_tree": (random_binary_tree, kld_exact_tree),
    "kld_homogeneous_tree": (random_binary_tree, kld_homogeneous_tree),
}


@pytest.mark.parametrize("states", [1, 3])
@pytest.mark.parametrize("length", [1, 5])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_self_divergence_is_zero_and_divergence_nonnegative(route, length, states):
    make, kld = ROUTES[route]
    rng = np.random.default_rng([length, states])
    for _ in range(5):
        m1, m0 = make(rng, length, states), make(rng, length, states)
        assert kld(m1, m1) == 0.0
        assert kld(m0, m0) == 0.0
        assert kld(m1, m0) >= 0.0
