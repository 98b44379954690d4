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

from .divergence import local_k_root, local_k_tree, local_k_vector, weighted_sum
from .model import HmtModel, check_pair

__all__ = ["inward_pass", "kld_exact_tree", "kld_homogeneous_tree"]


def _fold(acc, factors, rows, direct=False):
    """The inward step along a run of one-child nodes, last node first:
    ``rows[i] += factors[i] @ acc``, then ``acc = rows[i]``; returns `acc`,
    the last row written, which is ``rows[0]`` itself and not a copy when
    `rows` has a row: a caller that writes into `rows` again overwrites it.

    One `ndarray.dot` per node when the caller says so (`direct`) or the
    rows and `acc` are finite (the sums then stay far below overflow), else
    `weighted_sum`'s ``0 * inf = 0`` rule.
    """
    step = np.ndarray.dot if direct or (np.isfinite(rows).all() and np.isfinite(acc).all()) else weighted_sum
    for row, factor in zip(rows[::-1], factors[::-1]):
        row += step(factor, acc)
        acc = row
    return acc


def _stacked_dot(weights, values):
    """`weighted_sum` of an ``(n, rows, d)`` stack on finite ``(n, d)`` values:
    its one `np.matmul`, without the finiteness test."""
    return np.matmul(weights, values[..., None])[..., 0]


def _inward(m1: HmtModel, m0: HmtModel, direct=None):
    """The root's local term, the inward table and the summed children, plus
    the index of the first non-root node whose local term is +inf (None
    when there is none).

    Row j - 1 of the table holds node j's local term, from one `local_k_tree`
    call, and then its inward vector; row j of the children sum adds node j's
    children one at a time in child order.  From the deepest level up, a run of
    one-node levels is one `_fold` from its last node's children, any other
    level one stacked `weighted_sum`; each adds its top level's rows into
    their parents' sums with one unbuffered `np.add.at`.

    The products skip `weighted_sum`'s finiteness tests when the table is
    finite and its largest entry times the node count stays below
    ``2^_DIRECT_BITS`` (`_cannot_overflow`, the chains' bound): with rows
    that sum to 1, no inward entry then exceeds that, so every product has
    finite operands and the bits of `weighted_sum`'s.  Any non-finite entry
    reaches the root's children sum, so when one shows there (rows far from
    summing to 1), the pass runs again under `weighted_sum` (`direct` false).
    """
    topology = m1.topology
    n, d = topology.n_nodes, m1.n_states
    pi1 = np.broadcast_to(m1.transition_stack, (n - 1, d, d))
    pi0 = np.broadcast_to(m0.transition_stack, (n - 1, d, d))
    root, table = local_k_tree(m1.initial, m0.initial, pi1, pi0, m1.emission_stack, m0.emission_stack)
    infinite = np.flatnonzero(np.isinf(table).any(axis=1))
    if direct is None:
        direct = _cannot_overflow(float(np.maximum.reduce(table, None, initial=0.0)), 1, n)
    product = _stacked_dot if direct else weighted_sum
    down = np.zeros((n, d))
    offsets = topology.level_offsets.tolist()
    level = len(offsets) - 2
    while level > 0:
        lo, hi = offsets[level], offsets[level + 1]
        if hi - lo == 1:
            while level > 1 and offsets[level] - offsets[level - 1] == 1:
                level -= 1
            lo = offsets[level]
            _fold(down[hi - 1], pi1[lo - 1 : hi - 1], table[lo - 1 : hi - 1], direct)
        else:
            table[lo - 1 : hi - 1] += product(pi1[lo - 1 : hi - 1], down[lo:hi])
        top = offsets[level + 1]
        np.add.at(down, topology.parent[lo:top], table[lo - 1 : top - 1])
        level -= 1
    if direct and not np.isfinite(down[0]).all():
        return _inward(m1, m0, direct=False)
    return root, table, down, (int(infinite[0]) + 1 if infinite.size else None)


def inward_pass(m1: HmtModel, m0: HmtModel) -> dict[str, np.ndarray]:
    """Inward divergence vectors for every non-root node, keyed by node path."""
    check_pair(m1, m0, HmtModel)
    _, table, _, _ = _inward(m1, m0)
    return dict(zip(m1.topology.nodes[1:], table))


def kld_exact_tree(m1: HmtModel, m0: HmtModel) -> float:
    """Exact KL divergence between the two models' joint laws, in nats.

    A support mismatch makes the result +inf; a warning then names the first
    offending node in document order.
    """
    check_pair(m1, m0, HmtModel)
    root_term, _, down, first_infinite = _inward(m1, m0)
    total = float(root_term + weighted_sum(m1.initial, down[0]))
    if np.isinf(total) and (np.isinf(root_term) or first_infinite is not None):
        name = "(root)" if np.isinf(root_term) else m1.topology.path(first_infinite)
        warnings.warn(f"divergence is +inf: support mismatch first at node '{name}'", stacklevel=2)
    return total


#: Cap on the binary exponent of ``children^(2^j)``: any nonzero float
#: scaled by 2^4096 overflows, and the cap keeps the exponent a C int.
_MAX_EXPONENT = 4096

#: Binary logarithm below which a bound on every partial sum of
#: `geometric_weighted_sum` lets its products skip the ``0 * inf`` rule; 64
#: bits short of the float range, a margin for the rows of `pi`, which sum
#: to 1 only within the validation tolerance.
_DIRECT_BITS = 960


def _cannot_overflow(top: float, children: int, terms: int) -> bool:
    """Whether ``top * terms * children^(terms - 1)`` stays below
    ``2^_DIRECT_BITS``: with nonnegative powers whose rows sum to 1, that
    bounds every partial sum of `terms` steps whose largest step entry is
    `top`.  Decided in binary logarithms, so that a depth past the float
    range (``10**310``) is never made a float; NaN gives False."""
    if not top > 0:
        return top == 0
    growth = terms.bit_length()
    if children > 1:
        if terms > _DIRECT_BITS:
            return False
        growth += (terms - 1) * math.log2(children)
    return math.log2(top) + growth < _DIRECT_BITS


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

    The products against `pi`'s powers are plain ``ndarray.dot`` calls, the
    product `weighted_sum` takes on finite values, when `pi` has no negative
    entry and the largest finite entry of ``children * k``, `children` and
    `depth` bound every partial sum below ``2^_DIRECT_BITS``
    (`_cannot_overflow`): then no sum can become infinite, and the value has
    the same bits; for a chain, that is a largest local term times N below
    about 2^959.  Otherwise each product keeps `weighted_sum`'s
    ``0 * inf = 0`` rule, which keeps an overflow at one state from turning
    the sum at a state that never reaches it into NaN.  When `k` has no
    infinite entry, the support graph is not searched.
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
    n = depth - 1
    reach = None
    if infinite.any():
        # States within depth - 2 steps of an infinite entry; saturates after d - 1 steps.
        reach, support = infinite, pi != 0
        for _ in range(min(n - 1, k.shape[0] - 1)):
            grown = infinite | (support & reach).any(axis=1)
            if (grown == reach).all():
                break
            reach = grown
        k = np.where(infinite, 0.0, k)
    # f^(2^j): acc -> mantissa * 2^exponent * (power @ acc) + step
    power, step = pi, children * k
    direct = pi.min(initial=0.0) >= 0 and _cannot_overflow(float(np.abs(step).max(initial=0.0)), children, n)
    product = np.ndarray.dot if direct else weighted_sum
    mantissa, exponent = math.frexp(children)
    with np.errstate(over="ignore"):
        while True:
            if n & 1:
                acc = np.ldexp(mantissa * product(power, acc), exponent) + step
            n >>= 1
            if not n:
                break
            step = np.ldexp(mantissa * product(power, step), exponent) + step
            power = power.dot(power)
            power /= power.sum(axis=1, keepdims=True)
            mantissa, shift = math.frexp(mantissa * mantissa)
            exponent = min(2 * exponent + shift, _MAX_EXPONENT)
    if not np.isfinite(acc if reach is None else acc[~reach]).all():
        raise OverflowError(f"geometric sum overflows 64-bit floats (children={children}, depth={depth})")
    if reach is not None:
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
    check_pair(m1, m0, HmtModel)
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
