"""Elementary KL divergences and the local divergence vectors used by every
exact recursion.

All divergences are in nats.  The conventions ``0 * log(0/q) = 0`` and
``p * log(p/0) = +inf`` for ``p > 0`` are applied throughout; a support
mismatch therefore surfaces as an ``inf`` entry rather than an exception.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import rel_entr

from .model import DiscreteEmission, EmissionSpec, check_emissions

__all__ = [
    "kl_discrete",
    "kl_gaussian",
    "emission_kl_per_state",
    "local_k_vector",
    "local_k_stack",
    "local_k_root",
]

_DIST_TOL = 1e-9

#: Terms in one ``(block, d, d, m)`` temporary of the local divergences:
#: 2^17 float64 values, 1 MiB.
_BLOCK_ENTRIES = 1 << 17


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
    return max(float(rel_entr(p, q).sum()), 0.0)


def kl_gaussian(mean1, sd1, mean0, sd0) -> float:
    """KL divergence from N(mean1, sd1^2) to N(mean0, sd0^2).

    Closed form: (sd1^2 + (mean1 - mean0)^2) / (2 sd0^2) + log(sd0/sd1) - 1/2.
    """
    if not (sd1 > 0 and sd0 > 0):
        raise ValueError("standard deviations must be positive")
    return (sd1**2 + (mean1 - mean0) ** 2) / (2.0 * sd0**2) + math.log(sd0 / sd1) - 0.5


def emission_kl_per_state(e1: EmissionSpec, e0: EmissionSpec) -> np.ndarray:
    """Vector of per-state emission divergences D(e1(s, .) || e0(s, .)).

    For stacked specs the result has one row per node.
    """
    check_emissions(e1, e0)
    if isinstance(e1, DiscreteEmission):
        return np.maximum(rel_entr(e1.matrix, e0.matrix).sum(axis=-1), 0.0)
    if not (e0.sds > 0).all() or not (e1.sds > 0).all():
        raise ValueError("standard deviations must be positive")
    out = (e1.sds**2 + (e1.means - e0.means) ** 2) / (2.0 * e0.sds**2) + np.log(e0.sds / e1.sds) - 0.5
    return np.maximum(out, 0.0)


def _weighted_local_kl(w1, w0, e1, e0):
    """``sum_{s,x} w1[i,r,s] e1_i(s,x) log[w1[i,r,s] e1_i(s,x) / (w0[i,r,s] e0_i(s,x))]``
    for every node i and weight row r.

    `w1` and `w0` are ``(n, rows, d)`` weights, and `e1`, `e0` emission specs
    stacked over the n nodes or shared by all of them.  For Gaussian emissions
    the x-sum collapses to the per-state Gaussian KL, weighted by w1.  Every
    (i, r) entry is summed over its own contiguous block of terms, so a
    node's value does not depend on the nodes computed with it.  Nodes go in
    blocks of at most `_BLOCK_ENTRIES` terms, which bounds the temporaries.
    """
    n, rows, d = w1.shape
    if d != e1.n_states:
        raise ValueError(f"dimension mismatch: weights cover {d} states, emission {e1.n_states}")
    out = np.empty((n, rows))
    if isinstance(e1, DiscreteEmission):
        m = e1.n_symbols
        emis1 = np.broadcast_to(e1.matrix, (n, d, m))
        emis0 = np.broadcast_to(e0.matrix, (n, d, m))
        block = max(1, _BLOCK_ENTRIES // (rows * d * m))
        for lo in range(0, n, block):
            hi = lo + block
            joint1 = w1[lo:hi, :, :, None] * emis1[lo:hi, None, :, :]
            joint0 = w0[lo:hi, :, :, None] * emis0[lo:hi, None, :, :]
            out[lo:hi] = rel_entr(joint1, joint0).sum(axis=(2, 3))
    else:
        gauss = np.broadcast_to(emission_kl_per_state(e1, e0), (n, d))
        block = max(1, _BLOCK_ENTRIES // (rows * d))
        for lo in range(0, n, block):
            hi = lo + block
            out[lo:hi] = (rel_entr(w1[lo:hi], w0[lo:hi]) + w1[lo:hi] * gauss[lo:hi, None, :]).sum(axis=2)
    return np.maximum(out, 0.0)


def local_k_vector(pi1, pi0, e1: EmissionSpec, e0: EmissionSpec) -> np.ndarray:
    """Per-parent-state divergence of one (transition, emission) step.

    Entry r is the KL divergence between the two models' laws of a child's
    (emission, hidden state) pair given parent state r.  Equals, entrywise,
    the row divergences of the transition matrices plus ``pi1 @ emission KLs``.
    """
    check_emissions(e1, e0)
    pi1 = np.asarray(pi1, dtype=float)
    pi0 = np.asarray(pi0, dtype=float)
    if pi1.shape != pi0.shape or pi1.ndim != 2 or pi1.shape[0] != pi1.shape[1]:
        raise ValueError(f"transition matrices must be square and congruent, got {pi1.shape} vs {pi0.shape}")
    return _weighted_local_kl(pi1[None], pi0[None], e1, e0)[0]


def local_k_stack(pi1, pi0, e1: EmissionSpec, e0: EmissionSpec) -> np.ndarray:
    """Local divergence vectors of n nodes at once, one row per node.

    `pi1` and `pi0` are ``(n, d, d)`` transition stacks; `e1` and `e0` are
    emission specs stacked over the same n nodes, or shared by all of them.
    Row i equals `local_k_vector` of node i's parameters bit for bit.
    """
    check_emissions(e1, e0)
    pi1 = np.asarray(pi1, dtype=float)
    pi0 = np.asarray(pi0, dtype=float)
    if pi1.shape != pi0.shape or pi1.ndim != 3 or pi1.shape[1] != pi1.shape[2]:
        raise ValueError(f"transition stacks must be (n, d, d) and congruent, got {pi1.shape} vs {pi0.shape}")
    return _weighted_local_kl(pi1, pi0, e1, e0)


def local_k_root(mu1, mu0, e1: EmissionSpec, e0: EmissionSpec) -> float:
    """Divergence of the root's (emission, hidden state) pair under the two models."""
    check_emissions(e1, e0)
    mu1 = np.atleast_1d(np.asarray(mu1, dtype=float))
    mu0 = np.atleast_1d(np.asarray(mu0, dtype=float))
    if mu1.shape != mu0.shape or mu1.ndim != 1:
        raise ValueError(f"initial vectors must be congruent, got {mu1.shape} vs {mu0.shape}")
    return float(_weighted_local_kl(mu1[None, None, :], mu0[None, None, :], e1, e0)[0, 0])


def weighted_sum(weights, values):
    """``weights @ values`` treating ``0 * inf`` as 0.

    Used wherever nonnegative divergence vectors (possibly containing +inf)
    are averaged under probability weights: states with zero probability
    contribute nothing even if their divergence is infinite.  `weights` may be
    a matrix (applied row-wise) or a single vector.
    """
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    if np.isfinite(values).all():
        return weights @ values
    with np.errstate(invalid="ignore"):
        terms = np.where(weights == 0.0, 0.0, weights * values)
    return terms.sum(axis=-1)


def weighted_sum_rows(weights, values) -> np.ndarray:
    """`weighted_sum` of each node of a stack: row i is
    ``weighted_sum(weights[i], values[i])`` bit for bit.

    `weights` is ``(n, d, d)`` and `values` ``(n, d)``.  Rows whose values are
    all finite take one stacked ``np.matmul`` (at once when every row is
    finite); the others apply the ``0 * inf = 0`` rule.
    """
    if np.isfinite(values).all():
        return np.matmul(weights, values[..., None])[..., 0]
    with np.errstate(invalid="ignore"):
        out = np.matmul(weights, values[..., None])[..., 0]
        rows = ~np.isfinite(values).all(axis=1)
        if rows.any():
            w = weights[rows]
            out[rows] = np.where(w == 0.0, 0.0, w * values[rows][:, None, :]).sum(axis=-1)
    return out
