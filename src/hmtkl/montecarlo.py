"""Monte Carlo estimation of both divergence variants with confidence intervals.

Randomness comes from the counter-based 64-bit Philox generator keyed by the
user seed.  Each trial owns a fixed-size block of the stream (its length
rounded up to the 4-draw Philox block), so trial t is reproducible in
isolation by advancing a fresh generator to ``t * blocks_per_trial`` - the
per-trial substream is a pure function of (seed, trial index), and estimates
are bitwise reproducible regardless of batch or chunk boundaries.

Every draw consumes exactly one uniform: discrete states and symbols through
the row CDF, Gaussian emissions through the inverse normal CDF.  That is
`scipy.special.ndtri`, imported at call time by `_inverse_normal`, so only a
Gaussian model loads SciPy.

Trials go in chunks of at most `_CHUNK` uniforms and at most `_TRIALS`
trials (and at least one trial), laid out node-major: row i of a chunk holds
draw i of every trial in it, so each node reads contiguous rows.  The trial
cap keeps every per-node temporary of the walk at 128 KiB, so a model with
few nodes holds one small block rather than every trial's draws: the bundled
Gaussian pair peaks at 4.3 MiB (`tracemalloc`) at 1e5 trials, not 22.2 MiB.

One pass over the nodes draws each node's state and emission and adds both
models' log-terms to their own per-trial sums while those rows are in cache;
only the states of nodes with children still to draw stay alive.  Each
draw is a binary search over the row CDF written in integer arithmetic (see
`_draw`).  Each trial's terms are added in node order, transition before
emission, so no bit depends on the chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import Evidence, HmmModel, HmtModel, check_pair
from .hmm import _posterior_pair, posterior_conditionals

__all__ = [
    "McEstimate",
    "sample_joint",
    "loglik_joint",
    "mc_kld_no_evidence",
    "sample_posterior",
    "mc_kld_evidence",
]

Z95 = 1.96
_LOG_2PI = math.log(2.0 * math.pi)
#: Uniforms in one chunk: 2^22 float64 values, 32 MiB.
_CHUNK = 1 << 22
#: Trials in one chunk: each per-node temporary of the walk is 2^14 values, 128 KiB.
_TRIALS = 1 << 14
#: Uniforms drawn by one Philox call and transposed into the chunk (128 KiB).
_TILE = 1 << 14


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with a normal-approximation 95% interval.

    ``infinite_trials`` counts draws whose log-ratio was +inf (support
    violations under the second model); any such draw makes the mean +inf.
    """

    mean: float
    sd: float
    trials: int
    ci_lo: float
    ci_hi: float
    seed: int
    infinite_trials: int = 0


def _estimate(diffs: np.ndarray, seed: int) -> McEstimate:
    n = diffs.shape[0]
    n_inf = int(np.isinf(diffs).sum())
    if n_inf:
        return McEstimate(math.inf, math.nan, n, math.inf, math.inf, seed, n_inf)
    mean = float(np.mean(diffs))
    sd = float(np.std(diffs, ddof=1))
    half = Z95 * sd / math.sqrt(n)
    return McEstimate(mean, sd, n, mean - half, mean + half, seed)


def _check_mc_args(trials, seed):
    if trials < 2:
        raise ValueError("trials must be >= 2")
    if seed < 0:
        raise ValueError("seed must be >= 0")


def _padded(per_trial: int) -> int:
    return -(-per_trial // 4) * 4


def _chunk_trials(per_trial: int) -> int:
    """Trials per chunk: as many as fit in `_CHUNK` uniforms, at most
    `_TRIALS`, and at least one."""
    return max(1, min(_TRIALS, _CHUNK // _padded(per_trial)))


def _chunked_uniforms(seed: int, trials: int, per_trial: int):
    """Yield (start, block) pairs; column t of the ``(per_trial, chunk)`` block
    holds trial ``start + t``'s substream.

    The stream is read in order, a few trials at a time, and each tile is
    transposed into the block while it is in cache.  The generator lets go
    of a chunk's last tile before it yields the block, and of each block
    before it allocates the next, so a caller that drops its own reference
    first holds one block at a time.
    """
    padded = _padded(per_trial)
    size, tile = _chunk_trials(per_trial), max(1, _TILE // padded)
    stream = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, trials, size):
        block = np.empty((per_trial, min(size, trials - start)))
        for lo in range(0, block.shape[1], tile):
            rows = stream.random((min(tile, block.shape[1] - lo), padded))
            block[:, lo : lo + rows.shape[0]] = rows[:, :per_trial].T
        del rows
        yield start, block
        del block


def _inclusive_cdf(rows: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(rows, axis=-1)
    # Every entry that reaches the row's total becomes 1.0: the last, and those
    # of trailing zero-probability states, which rounding can leave below 1.
    np.putmask(cdf, cdf >= cdf[..., -1:], 1.0)
    return cdf


def _draw(cdf: np.ndarray, base, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw from the rows of `cdf` that start at flat offsets
    `base`: returns ``base + count``, where count is the number of the row's
    entries <= u.

    A branchless binary search over the row's first width - 1 entries, which
    are non-decreasing; the last entry is 1 > u and is never counted, so a
    zero-probability state is never drawn.  Every index read stays inside
    the row: after each halving ``pos - base + n`` is at most width - 1.

    Each halving reads entry ``pos + half`` through the shifted view
    ``flat[half:]`` and advances by ``hit * half``: a take, a compare and an
    add, each under 1 ns per element.  A three-array ``np.where`` select
    costs about 3 ns per element and once took most of the search's time.
    `base` may be shared with other callers, so `pos` is never updated in
    place; rows of width 2 take no halving and never build the view.
    """
    n, pos = cdf.shape[-1] - 1, base
    while n > 1:
        half = n // 2
        hit = cdf.reshape(-1)[half:].take(pos) <= u
        pos = pos + (hit if half == 1 else hit * half)
        n -= half
    return pos + (cdf.take(pos) <= u)


def _inverse_normal(u: np.ndarray) -> np.ndarray:
    # SciPy's ndtri, whose bits the golden estimates pin, is imported on the
    # first Gaussian draw: discrete models never load SciPy
    from scipy.special import ndtri

    # uniforms live in [0, 1); ndtri(0) would be -inf, so nudge exact zeros
    return ndtri(np.maximum(u, 2.0**-54))


@dataclass(frozen=True)
class _Law:
    """One model's factors on a breadth-first node axis, as row CDFs to draw
    with or as logs to score with.

    `first` is the root's state law; row ``state[parent[j]]`` of
    ``steps[j - 1]`` is node j's.  ``emission[j]`` is node j's emission
    matrix, or, for Gaussian emissions, the logs of its sds, with the means
    and sds in `gaussian`; posterior paths emit nothing.  A table shared by
    every node is broadcast over them, never copied.  `np.log` is
    elementwise, so a gathered log equals the log of the gathered factor bit
    for bit; a zero factor scores -inf.
    """

    first: np.ndarray
    steps: np.ndarray
    emission: np.ndarray | None = None
    gaussian: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def draws_per_node(self) -> int:
        return 1 if self.emission is None else 2


def _tree_law(model: HmtModel, table) -> _Law:
    """`model`'s factors through `table`: `_inclusive_cdf` to draw, `np.log` to score."""
    n, d, spec = model.topology.n_nodes, model.n_states, model.emission_stack
    with np.errstate(divide="ignore"):
        if spec.kind == "discrete":
            emission, gaussian = np.broadcast_to(table(spec.matrix), (n, d, spec.n_symbols)), None
        else:
            emission = np.broadcast_to(np.log(spec.sds), (n, d))
            gaussian = np.broadcast_to(spec.means, (n, d)), np.broadcast_to(spec.sds, (n, d))
        return _Law(table(model.initial), np.broadcast_to(table(model.transition_stack), (n - 1, d, d)), emission, gaussian)


def _walk(parent: np.ndarray, law: _Law, uniforms: np.ndarray):
    """Ancestral sampling of a node-major chunk from `law`'s row CDFs, one
    node at a time.

    Row ``k * j`` of `uniforms` draws node j's states, where k is the law's
    draws per node, and row ``k * j + 1`` its emissions.  Yields, for every
    node j in order, ``(j, states, step, factor, x)``: `step` indexes node
    j's flattened initial vector or transition matrix, and `factor` its
    flattened emission matrix or, for Gaussian emissions, its states (None
    without emissions).  `x` holds the Gaussian emissions and is None
    otherwise: scoring needs only `factor`, and a discrete symbol is
    ``factor - m * states`` for m symbols.  Only the states of nodes with
    children still to draw stay alive; children are contiguous in `parent`.
    """
    n, d, k = parent.shape[0], law.first.shape[0], law.draws_per_node
    has_children = np.zeros(n, dtype=bool)
    has_children[parent[1:]] = True
    last_child = np.ones(n, dtype=bool)
    last_child[1:-1] = parent[1:-1] != parent[2:]
    rows = {}  # flat offset ``d * state`` of each node's row in its children's steps
    # memoryviews iterate as Python ints and bools
    for j, (p, kept, last) in enumerate(zip(memoryview(parent), memoryview(has_children), memoryview(last_child))):
        base = (rows.pop(p) if last else rows[p]) if j else 0
        step = _draw(law.steps[j - 1] if j else law.first, base, uniforms[k * j])
        s = step - base
        if kept:
            rows[j] = s * d
        factor = x = None
        if law.gaussian is not None:
            means, sds = law.gaussian
            factor, x = s, means[j].take(s) + sds[j].take(s) * _inverse_normal(uniforms[k * j + 1])
        elif law.emission is not None:
            factor = _draw(law.emission[j], s * law.emission.shape[-1], uniforms[k * j + 1])
        yield j, s, step, factor, x


def _score(acc: np.ndarray, law: _Law, j: int, step, factor, x) -> None:
    """Add node j's log-terms, as `_walk` indexes them, to the per-trial sums
    `acc`: its transition (at the root, its initial probability), then its
    emission."""
    acc += (law.steps[j - 1] if j else law.first).take(step)
    if law.gaussian is not None:
        means, sds = law.gaussian
        z = (x - means[j].take(factor)) / sds[j].take(factor)
        acc += -0.5 * z**2 - law.emission[j].take(factor) - 0.5 * _LOG_2PI
    elif law.emission is not None:
        acc += law.emission[j].take(factor)


def _log_ratios(parent: np.ndarray, draw: _Law, score1: _Law, score0: _Law, trials: int, seed: int) -> np.ndarray:
    """``log p1 - log p0`` of every trial, drawn from `draw` chunk by chunk;
    each chunk takes one pass over the nodes that scores both models."""
    diffs = np.empty(trials)
    for start, uniforms in _chunked_uniforms(seed, trials, draw.draws_per_node * parent.shape[0]):
        acc1, acc0 = np.zeros(uniforms.shape[1]), np.zeros(uniforms.shape[1])
        for j, _, step, factor, x in _walk(parent, draw, uniforms):
            _score(acc1, score1, j, step, factor, x)
            _score(acc0, score0, j, step, factor, x)
        np.subtract(acc1, acc0, out=diffs[start : start + uniforms.shape[1]])
        del uniforms  # before the next block is drawn
    return diffs


def sample_joint(model: HmtModel, rng: np.random.Generator):
    """One draw (x, s) from the model's joint law, as dicts keyed by node path.

    States and discrete symbols are 0-based; Gaussian emissions are floats.
    Consumes two uniforms per node from `rng` in node order, so a generator
    advanced to a trial's substream reproduces that trial of the batch
    estimators exactly.
    """
    nodes, law = model.topology.nodes, _tree_law(model, _inclusive_cdf)
    uniforms = rng.random(2 * len(nodes))[:, None]
    x, s = {}, {}
    for j, state, _, factor, value in _walk(model.topology.parent, law, uniforms):
        s[nodes[j]] = int(state[0])
        x[nodes[j]] = int(factor[0] - law.emission.shape[-1] * state[0]) if value is None else float(value[0])
    return x, s


def _indices(values: list, size: int, what: str) -> np.ndarray:
    """`values` as int64 indices, or ValueError unless each is an integer in
    0..size - 1.  Python and NumPy ints and integral floats all pass; a
    non-integral or non-finite value is refused, never truncated."""
    flat = np.array(values, dtype=float)
    if not ((flat >= 0) & (flat < size) & (flat == np.floor(flat))).all():
        raise ValueError(f"{what} must be integers in 0..{size - 1}")
    return flat.astype(np.int64)


def loglik_joint(model: HmtModel, x: Mapping[str, object], s: Mapping[str, int]) -> float:
    """Joint log-probability of a full assignment; -inf when a factor is zero."""
    nodes = model.topology.nodes
    if set(x) != set(nodes) or set(s) != set(nodes):
        raise ValueError("assignments must cover every node exactly")
    d, discrete = model.n_states, model.emission_kind == "discrete"
    states = _indices([s[p] for p in nodes], d, "states")
    if discrete:
        m = model.emission_stack.n_symbols
        emitted = _indices([x[p] for p in nodes], m, "symbols")
    else:
        emitted = np.array([x[p] for p in nodes], dtype=float)
        if np.isnan(emitted).any():
            raise ValueError("Gaussian emissions must not be NaN")
    steps = states.copy()
    steps[1:] += states[model.topology.parent[1:]] * d
    factors = states * m + emitted if discrete else states
    law, acc = _tree_law(model, np.log), np.zeros(1)
    for j in range(len(nodes)):
        _score(acc, law, j, steps[j : j + 1], factors[j : j + 1], emitted[j : j + 1])
    return float(acc[0])


def mc_kld_no_evidence(m1: HmtModel, m0: HmtModel, trials: int, seed: int) -> McEstimate:
    """Estimate the joint KL divergence as the mean log-likelihood ratio over
    i.i.d. draws from the first model."""
    check_pair(m1, m0)
    _check_mc_args(trials, seed)
    draw, score1, score0 = _tree_law(m1, _inclusive_cdf), _tree_law(m1, np.log), _tree_law(m0, np.log)
    return _estimate(_log_ratios(m1.topology.parent, draw, score1, score0, trials, seed), seed)


def _chain_parent(length: int) -> np.ndarray:
    return np.arange(length) - 1


def sample_posterior(model: HmmModel, evidence: Evidence, rng: np.random.Generator) -> np.ndarray:
    """One hidden path drawn exactly from P(S | X = x), as 0-based state indices.

    Samples S_1 from its posterior and then forward through the evidence
    conditionals; consumes one uniform per position.
    """
    initial, factors = posterior_conditionals(model, evidence)
    law = _Law(_inclusive_cdf(initial), _inclusive_cdf(factors))
    walk = _walk(_chain_parent(model.length), law, rng.random(model.length)[:, None])
    return np.array([s[0] for _, s, _, _, _ in walk], dtype=np.int64)


def mc_kld_evidence(m1: HmmModel, m0: HmmModel, evidence: Evidence, trials: int, seed: int) -> McEstimate:
    """Estimate the posterior KL divergence from posterior draws of the first model.

    Position i of a path is drawn from the first model's posterior factor
    for i given position i - 1, and both posteriors score it in the same pass.
    """
    check_pair(m1, m0)
    _check_mc_args(trials, seed)
    (initial1, factors1), (initial0, factors0) = _posterior_pair(m1, m0, evidence, posterior_conditionals)
    draw = _Law(_inclusive_cdf(initial1), _inclusive_cdf(factors1))
    with np.errstate(divide="ignore"):
        # the posterior stacks are fresh: their logs overwrite them, so one CDF
        # stack and two log stacks are all the stacks that stay alive
        score1 = _Law(np.log(initial1), np.log(factors1, out=factors1))
        score0 = _Law(np.log(initial0), np.log(factors0, out=factors0))
    return _estimate(_log_ratios(_chain_parent(m1.length), draw, score1, score0, trials, seed), seed)
