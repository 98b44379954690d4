"""Elementary KL divergences and the local divergence vectors used by every
exact recursion.

A local term is the divergence of a child's (emission, hidden state) pair
given its parent's state r.  By the chain rule it is, for both emission
kinds, ``D(pi1(r, .) || pi0(r, .)) + sum_s pi1(r, s) D(e1(s) || e0(s))``;
only `emission_kl_per_state` depends on the emission kind.

All divergences are in nats.  The conventions ``0 * log(0/q) = 0`` and
``p * log(p/0) = +inf`` for ``p > 0`` are applied throughout; a support
mismatch therefore surfaces as an ``inf`` entry rather than an exception.

Every ``p * log(p/q)`` term comes from `_rel_entr`, a NumPy kernel that takes
the cases and branches of `scipy.special.rel_entr`.  It exists so that the
exact routes without evidence load NumPy only: importing `scipy.special`
costs a process about 0.27 s and 25 MB before it reads an argument.
"""

from __future__ import annotations

import math

import numpy as np

from .model import DiscreteEmission, EmissionSpec, check_emissions

__all__ = [
    "kl_discrete",
    "kl_gaussian",
    "emission_kl_per_state",
    "local_k_vector",
    "local_k_stack",
    "local_k_root",
    "local_k_terms",
]

_DIST_TOL = 1e-9

#: Terms in one ``(block, rows, d)`` temporary of the local divergences:
#: 2^17 float64 values, 1 MiB.
_BLOCK_ENTRIES = 1 << 17

#: Bounds of the ratio in `_rel_entr`.  A comparison with a 0-d array skips
#: the conversion of a Python float that NumPy makes on every call.
_ZERO, _HALF, _TWO = np.array(0.0), np.array(0.5), np.array(2.0)
_TINY, _INF = np.array(np.finfo(float).tiny), np.array(np.inf)


def _rel_entr(x, y) -> np.ndarray:
    """``x * log(x / y)`` elementwise in float64, case for case as
    `scipy.special.rel_entr`:

    * NaN in x or y gives NaN;
    * x = 0 gives 0 when y >= 0; any other x <= 0 or y <= 0 gives +inf;
    * 0.5 < x/y < 2 gives ``x * log1p((x - y) / y)``, which keeps the digits
      that ``log(x / y)`` loses when x and y are close;
    * an x/y that is not a normal number (it underflows or overflows) gives
      ``x * (log(x) - log(y))``;
    * any other x/y gives ``x * log(x / y)``.

    It broadcasts like a ufunc, size-0 axes included.  NumPy's `log` and
    `log1p` are not the C library's, so an entry can differ from SciPy's in
    its last bits (by at most 2 ulp on the tests' draws).  Each entry takes
    the same steps whatever array holds it, so no value depends on how the
    callers block their arrays.

    The cost is a fixed number of NumPy calls, which dominates on the tiny
    arrays of a chain: when every x is positive and every x/y normal, the
    masks of the other cases are never built.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0 and y.ndim == 0:
        return _rel_entr(x[None], y[None])[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = x / y
        out = np.log(ratio)
        close = x - y
        close /= y
        np.putmask(out, (ratio > _HALF) & (ratio < _TWO), np.log1p(close, out=close))
        out *= x
        normal = (x > _ZERO) & (ratio > _TINY) & (ratio < _INF)
        if np.count_nonzero(normal) == normal.size:
            return out
        zero = (x == _ZERO) & (y >= _ZERO)
        np.putmask(out, zero, 0.0)
        if np.count_nonzero(normal) + np.count_nonzero(zero) == normal.size:
            return out
        positive = (x > _ZERO) & (y > _ZERO)
        np.putmask(out, positive & ~normal, x * (np.log(x) - np.log(y)))
        np.putmask(out, ~(positive | zero | np.isnan(x) | np.isnan(y)), np.inf)
    return out


def _check_distribution(p, name):
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if (p < 0).any():
        raise ValueError(f"{name} has a negative entry")
    if abs(p.sum() - 1.0) > _DIST_TOL:
        raise ValueError(f"{name} sums to {p.sum():.12g}, not 1")
    return p


def kl_discrete(p, q) -> float:
    """D(p || q) = sum_i p_i log(p_i / q_i) for two distributions on the same support.

    Returns +inf when some p_i > 0 has q_i = 0.
    """
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape[0]} vs {q.shape[0]}")
    # rounding noise in near-equal inputs can leave -1e-16; divergences are nonnegative
    return max(float(_rel_entr(p, q).sum()), 0.0)


def kl_gaussian(mean1, sd1, mean0, sd0) -> float:
    """KL divergence from N(mean1, sd1^2) to N(mean0, sd0^2).

    Closed form: (sd1^2 + (mean1 - mean0)^2) / (2 sd0^2) + log(sd0/sd1) - 1/2.
    """
    if not (sd1 > 0 and sd0 > 0):
        raise ValueError("standard deviations must be positive")
    return (sd1**2 + (mean1 - mean0) ** 2) / (2.0 * sd0**2) + math.log(sd0 / sd1) - 0.5


def _row_divergences(*pairs) -> list:
    """``_rel_entr(p, q).sum(axis=-1)`` of each ``(p, q)`` pair of arrays, from
    one kernel call over all their entries.

    On a chain's few small arrays the kernel's fixed cost, not its work, is
    what counts.  Each row sums the same terms in the same order as a call of
    its own would, so its bits do not depend on the other pairs.
    """
    if len(pairs) == 1:
        ((p, q),) = pairs
        return [_rel_entr(p, q).sum(axis=-1)]
    pairs = [(p, q) if p.shape == q.shape else np.broadcast_arrays(p, q) for p, q in pairs]
    terms = _rel_entr(np.concatenate([p.ravel() for p, _ in pairs]), np.concatenate([q.ravel() for _, q in pairs]))
    rows, lo = [], 0
    for p, _ in pairs:
        rows.append(terms[lo : lo + p.size].reshape(p.shape).sum(axis=-1))
        lo += p.size
    return rows


def _emission_rows(e1: EmissionSpec, e0: EmissionSpec, *pairs):
    """The row divergences of `pairs` (see `_row_divergences`) and the
    per-state emission divergences of `e1` and `e0`; a discrete spec's rows
    join the same kernel call."""
    check_emissions(e1, e0)
    if isinstance(e1, DiscreteEmission):
        *rows, per_state = _row_divergences(*pairs, (e1.matrix, e0.matrix))
        return rows, np.maximum(per_state, 0.0)
    if not (e0.sds > 0).all() or not (e1.sds > 0).all():
        raise ValueError("standard deviations must be positive")
    per_state = (e1.sds**2 + (e1.means - e0.means) ** 2) / (2.0 * e0.sds**2) + np.log(e0.sds / e1.sds) - 0.5
    return (_row_divergences(*pairs) if pairs else []), np.maximum(per_state, 0.0)


def emission_kl_per_state(e1: EmissionSpec, e0: EmissionSpec) -> np.ndarray:
    """Vector of per-state emission divergences D(e1(s, .) || e0(s, .)).

    For stacked specs the result has one row per node.
    """
    return _emission_rows(e1, e0)[1]


def _check_states(w1, e1: EmissionSpec):
    if w1.shape[-1] != e1.n_states:
        raise ValueError(f"dimension mismatch: weights cover {w1.shape[-1]} states, emission {e1.n_states}")


def _local_rows(e1: EmissionSpec, e0: EmissionSpec, *weights) -> list:
    """``D(w1[r,:] || w0[r,:]) + sum_s w1[r,s] D(e1(s) || e0(s))`` for every
    row r of each ``(w1, w0)`` pair of ``(rows, d)`` weights: by the chain
    rule, the divergence of the (hidden state, emission) pair whose state law
    is the weight row.  A state of zero weight adds nothing even where its
    emission divergence is +inf.  One kernel call serves every pair.

    Each pair's emission term is the product of the one-node stacks that
    `_weighted_local_kl` takes, so a row has the bits of `local_k_stack`'s.
    When the emission divergences are finite, a test made once for all the
    pairs, that product is one `np.matmul`, the one `weighted_sum` takes.
    """
    for w1, _ in weights:
        _check_states(w1, e1)
    rows, per_state = _emission_rows(e1, e0, *weights)
    if np.isfinite(per_state).all():
        per_state = per_state[None, :, None]
        return [np.maximum(r + np.matmul(w1[None], per_state)[0, :, 0], 0.0) for r, (w1, _) in zip(rows, weights)]
    return [np.maximum(r + weighted_sum(w1[None], per_state[None])[0], 0.0) for r, (w1, _) in zip(rows, weights)]


def _weighted_local_kl(w1, w0, e1: EmissionSpec, e0: EmissionSpec):
    """`_local_rows` of every node i of ``(n, rows, d)`` weight stacks, with
    emission specs stacked over the n nodes or shared by all of them.

    Nodes go in blocks of at most `_BLOCK_ENTRIES` weight terms, and a node's
    value does not depend on the nodes computed with it.  A block takes the
    emission divergences of its own nodes, so that per-node emission stacks
    are blocked too, and its weights take a kernel call of their own: joining
    them to the emission rows would copy a broadcast transition stack.  Both
    bound the kernel's temporaries.
    """
    n, rows, d = w1.shape
    _check_states(w1, e1)
    out = np.empty((n, rows))
    block = max(1, _BLOCK_ENTRIES // (rows * d))
    for lo in range(0, n, block):
        nodes = slice(lo, lo + block)
        divergences = _rel_entr(w1[nodes], w0[nodes]).sum(axis=2)
        per_state = np.broadcast_to(emission_kl_per_state(e1.for_nodes(nodes), e0.for_nodes(nodes)), divergences.shape[:1] + (d,))
        out[nodes] = divergences + weighted_sum(w1[nodes], per_state)
    return np.maximum(out, 0.0)


def _check_square(pi1, pi0, ndim):
    pi1 = np.asarray(pi1, dtype=float)
    pi0 = np.asarray(pi0, dtype=float)
    if pi1.shape != pi0.shape or pi1.ndim != ndim or pi1.shape[-2] != pi1.shape[-1]:
        if ndim == 2:
            raise ValueError(f"transition matrices must be square and congruent, got {pi1.shape} vs {pi0.shape}")
        raise ValueError(f"transition stacks must be (n, d, d) and congruent, got {pi1.shape} vs {pi0.shape}")
    return pi1, pi0


def _check_initial(mu1, mu0):
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    if mu1.shape != mu0.shape or mu1.ndim != 1:
        raise ValueError(f"initial vectors must be congruent, got {mu1.shape} vs {mu0.shape}")
    return mu1, mu0


def local_k_vector(pi1, pi0, e1: EmissionSpec, e0: EmissionSpec) -> np.ndarray:
    """Per-parent-state divergence of one (transition, emission) step.

    Entry r is the KL divergence between the two models' laws of a child's
    (emission, hidden state) pair given parent state r, computed by the chain
    rule: the row divergence ``D(pi1[r] || pi0[r])`` plus ``pi1[r] @`` the
    per-state emission divergences, where a zero transition into a state of
    infinite emission divergence adds nothing.
    """
    pi1, pi0 = _check_square(pi1, pi0, 2)
    return _local_rows(e1, e0, (pi1, pi0))[0]


def local_k_stack(pi1, pi0, e1: EmissionSpec, e0: EmissionSpec) -> np.ndarray:
    """Local divergence vectors of n nodes at once, one row per node.

    `pi1` and `pi0` are ``(n, d, d)`` transition stacks; `e1` and `e0` are
    emission specs stacked over the same n nodes, or shared by all of them.
    Row i equals `local_k_vector` of node i's parameters bit for bit.
    """
    pi1, pi0 = _check_square(pi1, pi0, 3)
    return _weighted_local_kl(pi1, pi0, e1, e0)


def local_k_root(mu1, mu0, e1: EmissionSpec, e0: EmissionSpec) -> float:
    """Divergence of the root's (emission, hidden state) pair under the two models."""
    mu1, mu0 = _check_initial(mu1, mu0)
    return float(_local_rows(e1, e0, (mu1[None], mu0[None]))[0][0])


def local_k_terms(mu1, mu0, pi1, pi0, e1: EmissionSpec, e0: EmissionSpec):
    """``(local_k_root(mu1, mu0, e1, e0), local_k_vector(pi1, pi0, e1, e0))``
    bit for bit, from one kernel call: the root and the step of a chain,
    which share their emission specs."""
    mu1, mu0 = _check_initial(mu1, mu0)
    pi1, pi0 = _check_square(pi1, pi0, 2)
    root, step = _local_rows(e1, e0, (mu1[None], mu0[None]), (pi1, pi0))
    return float(root[0]), step


def weighted_sum(weights, values):
    """``weights @ values`` treating ``0 * inf`` as 0.

    Used wherever nonnegative divergence vectors (possibly containing +inf)
    are averaged under probability weights: states with zero probability
    contribute nothing even if their divergence is infinite.  `weights` may be
    a single vector, a matrix (applied row-wise) or an ``(n, rows, d)`` stack
    of ``(n, d)`` values' weights; row i of a stack's result is
    ``weighted_sum(weights[i], values[i])`` bit for bit, from one `np.matmul`.
    """
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if finite.all():
        return weights @ values if values.ndim == 1 else np.matmul(weights, values[..., None])[..., 0]
    with np.errstate(invalid="ignore"):
        if values.ndim == 1:
            return np.where(weights == 0.0, 0.0, weights * values).sum(axis=-1)
        out = np.matmul(weights, values[..., None])[..., 0]
        nodes = ~finite.all(axis=1)
        w = weights[nodes]
        out[nodes] = np.where(w == 0.0, 0.0, w * values[nodes][:, None, :]).sum(axis=-1)
    return out
