"""Exact KL divergence on trees: inward message passing and the homogeneous
closed form.

The inward quantity of a non-root node `ua` with parent `u` is the vector,
indexed by the parent state, of KL divergences between the two models' laws of
the whole subtree hanging below `u` through `ua`, conditioned on the parent
state.  Divergences combine children-first, so the values flow from the leaves
to the root; the total divergence aggregates the root's children under the
first model's initial law.  A chain is the one-child tree: a run of one-node
levels takes one chain step, `_fold`, which `hmm`'s evidence route shares,
and the chain routes of `hmm` end in the homogeneous closed form,
`_closed_form`, with one child per node.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .divergence import local_k_root, local_k_stack, local_k_vector, weighted_sum
from .model import HmtModel, check_pair

__all__ = ["inward_pass", "kld_exact_tree", "kld_homogeneous_tree"]


def _fold(acc, factors, rows):
    """The inward step along a run of one-child nodes, last node first:
    ``rows[i] += factors[i] @ acc``, then ``acc = rows[i]``; returns `acc`.

    One `ndarray.dot` per node when the rows and `acc` are finite (the sums
    then stay far below overflow), else `weighted_sum`'s ``0 * inf = 0`` rule.
    """
    step = np.ndarray.dot if np.isfinite(rows).all() and np.isfinite(acc).all() else weighted_sum
    for row, factor in zip(rows[::-1], factors[::-1]):
        row += step(factor, acc)
        acc = row
    return acc


def _inward(m1: HmtModel, m0: HmtModel):
    """Inward table and summed children, plus the index of the first non-root
    node whose local term is +inf (None when there is none).

    Row j - 1 of the table holds node j's local term, from one `local_k_stack`
    call, and then its inward vector; row j of the children sum adds node j's
    children one at a time in child order.  From the deepest level up, a run of
    one-node levels is one `_fold` from its last node's children, any other
    level one stacked `weighted_sum`; each adds its top level's rows into
    their parents' sums with one unbuffered `np.add.at`.
    """
    topology = m1.topology
    n, d = topology.n_nodes, m1.n_states
    pi1 = np.broadcast_to(m1.transition_stack, (n - 1, d, d))
    pi0 = np.broadcast_to(m0.transition_stack, (n - 1, d, d))
    nonroot = slice(1, None)
    table = local_k_stack(pi1, pi0, m1.emission_stack.for_nodes(nonroot), m0.emission_stack.for_nodes(nonroot))
    infinite = np.flatnonzero(np.isinf(table).any(axis=1))
    down = np.zeros((n, d))
    offsets = topology.level_offsets.tolist()
    level = len(offsets) - 2
    while level > 0:
        lo, hi = offsets[level], offsets[level + 1]
        if hi - lo == 1:
            while level > 1 and offsets[level] - offsets[level - 1] == 1:
                level -= 1
            lo = offsets[level]
            _fold(down[hi - 1], pi1[lo - 1 : hi - 1], table[lo - 1 : hi - 1])
        else:
            table[lo - 1 : hi - 1] += weighted_sum(pi1[lo - 1 : hi - 1], down[lo:hi])
        top = offsets[level + 1]
        np.add.at(down, topology.parent[lo:top], table[lo - 1 : top - 1])
        level -= 1
    return table, down, (int(infinite[0]) + 1 if infinite.size else None)


def inward_pass(m1: HmtModel, m0: HmtModel) -> dict[str, np.ndarray]:
    """Inward divergence vectors for every non-root node, keyed by node path."""
    check_pair(m1, m0)
    table, _, _ = _inward(m1, m0)
    return dict(zip(m1.topology.nodes[1:], table))


def kld_exact_tree(m1: HmtModel, m0: HmtModel) -> float:
    """Exact KL divergence between the two models' joint laws, in nats.

    A support mismatch makes the result +inf; a warning then names the first
    offending node in document order.
    """
    check_pair(m1, m0)
    _, down, first_infinite = _inward(m1, m0)
    root_term = local_k_root(m1.initial, m0.initial, m1.emission_stack.for_nodes(0), m0.emission_stack.for_nodes(0))
    total = float(root_term + weighted_sum(m1.initial, down[0]))
    if np.isinf(total) and (np.isinf(root_term) or first_infinite is not None):
        name = "(root)" if np.isinf(root_term) else m1.topology.path(first_infinite)
        warnings.warn(f"divergence is +inf: support mismatch first at node '{name}'", stacklevel=2)
    return total


#: Cap on the binary exponent of ``children^(2^j)``: any nonzero float
#: scaled by 2^4096 overflows, and the cap keeps the exponent a C int.
_MAX_EXPONENT = 4096


def geometric_weighted_sum(pi, k, children: int, depth: int) -> np.ndarray:
    """Evaluate ``sum_{i=1}^{depth-1} children^i  pi^(i-1) @ k`` in O(d^3 log depth).

    The sum is the affine map ``acc -> children * (k + pi @ acc)`` applied
    depth - 1 times to zero.  Binary doubling squares the map: after each
    squaring the rows of the squared `pi` (stochastic for a stochastic `pi`)
    are renormalised to sum to 1, so rounding cannot compound over the
    depth, and ``children^(2^j)`` is carried apart as a mantissa and a binary
    exponent.  An entry is +inf exactly when its state reaches an infinite
    entry of `k` within depth - 2 steps on the support graph of `pi` (the
    ``0 * inf = 0`` rule), decided on that graph rather than from floating
    products that can underflow to 0.  The partial sums grow like
    ``children^(depth-1)``; if the sum stops being finite at a state that
    reaches no infinite entry, the depth is too large for 64-bit floats and
    an OverflowError is raised.
    """
    if children < 1:
        raise ValueError("children count must be >= 1")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pi = np.asarray(pi, dtype=float)
    k = np.asarray(k, dtype=float)
    infinite = np.isinf(k)
    acc = np.zeros_like(k)
    if depth == 1:
        return acc
    # States within depth - 2 steps of an infinite entry; saturates after d - 1 steps.
    reach, support = infinite, pi != 0
    for _ in range(min(depth - 2, k.shape[0] - 1)):
        grown = infinite | (support & reach).any(axis=1)
        if (grown == reach).all():
            break
        reach = grown
    # f^(2^j): acc -> mantissa * 2^exponent * (power @ acc) + step
    power, step = pi, children * np.where(infinite, 0.0, k)
    mantissa, exponent = math.frexp(children)
    n = depth - 1
    with np.errstate(over="ignore"):
        while True:
            if n & 1:
                acc = np.ldexp(mantissa * weighted_sum(power, acc), exponent) + step
            n >>= 1
            if not n:
                break
            step = np.ldexp(mantissa * weighted_sum(power, step), exponent) + step
            power = power @ power
            power /= power.sum(axis=1, keepdims=True)
            mantissa, shift = math.frexp(mantissa * mantissa)
            exponent = min(2 * exponent + shift, _MAX_EXPONENT)
    if not np.isfinite(acc[~reach]).all():
        raise OverflowError(f"geometric sum overflows 64-bit floats (children={children}, depth={depth})")
    acc[reach] = np.inf
    return acc


def _closed_form(initial, root, pi, k, children: int, depth: int) -> float:
    """``root + initial @ geometric_weighted_sum(pi, k, children, depth)``: the
    divergence of homogeneous models on a regular tree, whose root term is
    `root` and whose non-root nodes share the local term `k`.  A chain of
    length N is the case ``children = 1, depth = N``; depth 1 leaves `root`.
    """
    return float(root + weighted_sum(initial, geometric_weighted_sum(pi, k, children, depth)))


def kld_homogeneous_tree(m1: HmtModel, m0: HmtModel, children: int | None = None, depth: int | None = None) -> float:
    """Closed-form exact KL divergence for homogeneous models on a regular tree.

    Equals the inward recursion on the explicit tree, but runs in time
    logarithmic in the depth instead of linear in the node count (see
    `geometric_weighted_sum`).  `children` and `depth` default to
    the models' own (regular) topology; passing them explicitly evaluates the
    closed form for a tree of that shape without materializing it.
    """
    check_pair(m1, m0)
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
    root_term = local_k_root(m1.initial, m0.initial, m1.emissions, m0.emissions)
    k = local_k_vector(m1.transitions, m0.transitions, m1.emissions, m0.emissions)
    return _closed_form(m1.initial, root_term, m1.transitions, k, children, depth)
