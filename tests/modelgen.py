"""Random models for the test suite: the one place where tests draw them.

The builders take a NumPy ``Generator`` and draw every parameter from it in a
fixed order, so a seed pins a model and the models a test pins literals to.
`model_pairs` is the Hypothesis strategy that draws sizes and a seed and calls
the builders.

A row is a Dirichlet(1, ..., 1) draw.  With ``p_zero`` each entry is zeroed
at that rate and the row renormalised; every row keeps its first entry when
the draw would zero all of them.  ``coarse`` rows are integer weights 1..20
over their sum, so that no product of a few entries underflows.
"""

import numpy as np
from hypothesis import strategies as st

from hmtkl import DiscreteEmission, Evidence, GaussianEmission, HmmModel, HmtModel, HmtTopology

SEEDS = st.integers(0, 2**32 - 1)


def rows(rng, shape, p_zero=0.0, coarse=False):
    """A row-stochastic array of `shape`, rows along the last axis."""
    laws = rng.integers(1, 21, size=shape) if coarse else rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
    if p_zero:
        keep = rng.random(shape) >= p_zero
        keep[..., 0] |= ~keep.any(axis=-1)
        laws = np.where(keep, laws, 0)
    elif not coarse:
        return laws  # a Dirichlet draw already sums to one
    return laws / laws.sum(axis=-1, keepdims=True)


def chain(rng, length, d, m, p_zero=0.0, coarse=False):
    """A chain drawn in the order initial law, transition, emission."""
    return HmmModel(
        length=length,
        initial=rows(rng, (d,), p_zero, coarse),
        transition=rows(rng, (d, d), p_zero, coarse),
        emission=DiscreteEmission(rows(rng, (d, m), p_zero, coarse)),
    )


def tree(rng, topology, d=2, m=2, shared=(False, False), gaussian=False, p_zero=0.0):
    """A tree drawn in the order initial law, transitions, emissions.

    ``shared = (transitions, emissions)`` says which of the two is one
    parameter for every node rather than a per-node stack.  Gaussian means
    are standard normal and sds uniform on [0.5, 2).
    """
    n = topology.n_nodes
    initial = rows(rng, (d,), p_zero)
    transitions = rows(rng, (d, d) if shared[0] else (n - 1, d, d), p_zero)
    lead = () if shared[1] else (n,)
    if gaussian:
        emissions = GaussianEmission(rng.normal(size=lead + (d,)), rng.uniform(0.5, 2.0, size=lead + (d,)))
    else:
        emissions = DiscreteEmission(rows(rng, lead + (d, m), p_zero))
    return HmtModel(topology=topology, initial=initial, transitions=transitions, emissions=emissions)


def tree_pair(rng, topology, *args, **kwargs):
    """Two `tree` draws on one topology, the first model first."""
    return tree(rng, topology, *args, **kwargs), tree(rng, topology, *args, **kwargs)


def ragged_paths(rng, n, max_arity):
    """Digit paths of a random tree of `n` nodes: nodes taken from the
    frontier in random order get 1..max_arity children each."""
    paths, frontier = [""], [""]
    while len(paths) < n:
        node = frontier.pop(int(rng.integers(len(frontier))))
        kids = [node + str(c) for c in range(min(int(rng.integers(1, max_arity + 1)), n - len(paths)))]
        paths += kids
        frontier += kids
    return paths


@st.composite
def model_pairs(
    draw,
    nodes=st.integers(1, 300),
    arity=st.integers(1, 6),
    states=st.integers(1, 4),
    symbols=st.integers(1, 4),
    p_zero=st.sampled_from([0.0, 0.05, 0.3]),
    gaussian=st.booleans(),
    shared=st.tuples(st.booleans(), st.booleans()),
    chains=False,
    coarse=False,
    evidence=False,
):
    """A model pair drawn by the builders from one seed; every argument but
    the three flags is a strategy, and each model draws its own `p_zero`.

    By default ``(m1, m0)`` on one `ragged_paths` tree of `nodes` nodes, its
    paths given to `HmtTopology.from_nodes` in shuffled order, each model
    with its own `shared`.  With `chains`, two discrete chains of length
    `nodes` (of `coarse` rows if asked), and with `evidence` also a symbol
    string drawn after them: ``(m1, m0, evidence)``.
    """
    n, d, m = draw(nodes), draw(states), draw(symbols)
    zeros = draw(p_zero), draw(p_zero)
    if chains:
        rng = np.random.default_rng(draw(SEEDS))
        m1, m0 = (chain(rng, n, d, m, p, coarse) for p in zeros)
        return (m1, m0, Evidence(rng.integers(0, m, size=n))) if evidence else (m1, m0)
    k, kind, sharing = draw(arity), draw(gaussian), (draw(shared), draw(shared))
    rng = np.random.default_rng(draw(SEEDS))
    topology = HmtTopology.from_nodes(rng.permutation(ragged_paths(rng, n, k)).tolist())
    return tuple(tree(rng, topology, d, m, s, kind, p) for s, p in zip(sharing, zeros))
