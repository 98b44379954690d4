"""Exact KL divergence on trees: inward message passing and the homogeneous
closed form.

The inward quantity of a non-root node `ua` with parent `u` is the vector,
indexed by the parent state, of KL divergences between the two models' laws of
the whole subtree hanging below `u` through `ua`, conditioned on the parent
state.  Divergences combine children-first, so the values flow from the leaves
to the root; the total divergence aggregates the root's children under the
first model's initial law.
"""

from __future__ import annotations

import warnings

import numpy as np

from .divergence import local_k_root, local_k_vector, weighted_sum
from .model import ROOT, HmtModel

__all__ = ["inward_pass", "kld_exact_tree", "kld_homogeneous_tree"]


def _check_same_shape(m1: HmtModel, m0: HmtModel):
    if m1.topology.nodes != m0.topology.nodes:
        raise ValueError("models must share the same topology")
    if m1.n_states != m0.n_states:
        raise ValueError(f"state count mismatch: {m1.n_states} vs {m0.n_states}")
    if m1.emission_kind != m0.emission_kind:
        raise ValueError(f"emission kind mismatch: {m1.emission_kind} vs {m0.emission_kind}")


def _inward(m1: HmtModel, m0: HmtModel):
    """Inward table, one row per node (the root's row unused), its child ranges,
    and the document-ordered list of nodes whose local term is +inf.

    The children of node j are the rows ``bounds[j]:bounds[j + 1]`` of the table.
    """
    topology = m1.topology
    nodes = topology.nodes
    bounds = np.searchsorted(topology.parent, np.arange(topology.n_nodes + 1))
    table = np.zeros((topology.n_nodes, m1.n_states))
    offenders: list[str] = []
    # Reversed (depth, path) order visits every child before its parent without
    # recursing, so arbitrarily deep chains cannot overflow the call stack.
    for j in range(topology.n_nodes - 1, 0, -1):
        path = nodes[j]
        local = local_k_vector(m1.transition(path), m0.transition(path), m1.emission(path), m0.emission(path))
        if np.isinf(local).any():
            offenders.append(path)
        if bounds[j + 1] > bounds[j]:
            local = local + weighted_sum(m1.transition(path), table[bounds[j] : bounds[j + 1]].sum(axis=0))
        table[j] = local
    offenders.reverse()  # document order: shallow nodes first
    return table, bounds, offenders


def inward_pass(m1: HmtModel, m0: HmtModel) -> dict[str, np.ndarray]:
    """Inward divergence vectors for every non-root node, keyed by node path."""
    _check_same_shape(m1, m0)
    table, _, _ = _inward(m1, m0)
    return dict(zip(m1.topology.nodes[1:], table[1:]))


def kld_exact_tree(m1: HmtModel, m0: HmtModel) -> float:
    """Exact KL divergence between the two models' joint laws, in nats.

    A support mismatch makes the result +inf; a warning then names the first
    offending node in document order.
    """
    _check_same_shape(m1, m0)
    table, bounds, offenders = _inward(m1, m0)
    root_term = local_k_root(m1.initial, m0.initial, m1.emission(ROOT), m0.emission(ROOT))
    if np.isinf(root_term):
        offenders.insert(0, ROOT)
    total = root_term
    if bounds[1] > bounds[0]:
        total = total + weighted_sum(m1.initial, table[bounds[0] : bounds[1]].sum(axis=0))
    total = float(total)
    if np.isinf(total) and offenders:
        name = offenders[0] if offenders[0] else "(root)"
        warnings.warn(f"divergence is +inf: support mismatch first at node '{name}'", stacklevel=2)
    return total


def geometric_weighted_sum(pi, k, children: int, depth: int) -> np.ndarray:
    """Evaluate ``sum_{i=1}^{depth-1} children^i  pi^(i-1) @ k`` by a Horner fold.

    The fold ``acc <- children * (k + pi @ acc)`` keeps the children factor
    inside the accumulation, avoiding explicit matrix powers.  The partial sums
    still grow like ``children^(depth-1)``; if an intermediate stops being
    finite while `k` is finite, the depth is too large for 64-bit floats and an
    OverflowError is raised.
    """
    if children < 1:
        raise ValueError("children count must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    k = np.asarray(k, dtype=float)
    legitimate_inf = bool(np.isinf(k).any())
    acc = np.zeros_like(k)
    with np.errstate(over="ignore"):
        for _ in range(depth - 1):
            acc = children * (k + weighted_sum(pi, acc))
            if not legitimate_inf and not np.isfinite(acc).all():
                raise OverflowError(
                    f"geometric sum overflows 64-bit floats (children={children}, depth={depth})"
                )
    return acc


def kld_homogeneous_tree(m1: HmtModel, m0: HmtModel, children: int | None = None, depth: int | None = None) -> float:
    """Closed-form exact KL divergence for homogeneous models on a regular tree.

    Equals the inward recursion on the explicit tree, but runs in time linear
    in the depth instead of the node count.  `children` and `depth` default to
    the models' own (regular) topology; passing them explicitly evaluates the
    closed form for a tree of that shape without materializing it, which is
    how million-level chains stay tractable.  Depth 1 reduces to the root
    term.
    """
    _check_same_shape(m1, m0)
    for name, m in (("first", m1), ("second", m0)):
        if not m.homogeneous:
            raise ValueError(f"{name} model is not homogeneous")
    topology = m1.topology
    if depth is None:
        depth = topology.depth
    if children is None:
        if depth > 1 and topology.regular_arity is None:
            raise ValueError("topology is not regular (constant children count, leaves at one level)")
        children = topology.regular_arity if topology.regular_arity is not None else 1
    if children < 1:
        raise ValueError("children count must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    root_term = local_k_root(m1.initial, m0.initial, m1.emissions, m0.emissions)
    if depth == 1:
        return float(root_term)
    k = local_k_vector(m1.transitions, m0.transitions, m1.emissions, m0.emissions)
    acc = geometric_weighted_sum(m1.transitions, k, children, depth)
    return float(root_term + weighted_sum(m1.initial, acc))
