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
cap keeps every per-node temporary at 128 KiB, so a model with few nodes
holds one small block rather than every trial's draws: the bundled Gaussian
pair peaks at 3.6 MiB (`tracemalloc`) at 1e5 trials, not 22.2 MiB.

Each chunk takes one pass over the nodes in blocks of consecutive nodes in
breadth-first order (`_pass`).  A block draws its states one segment at a
time, a segment being a run of nodes whose parents are all drawn (a level,
or a chain's next position), then all its emissions with one draw, and
gathers each model's log-terms with one `take` per table.  A drawn state
overwrites the uniform it consumed, through an int64 view of that row, and
the node's children read it there.  Each draw is a binary search over the
row CDF written in integer arithmetic (see `_draw`).

Each trial's terms are added in node order, transition before emission, so
no bit depends on the block or chunk size.  A block stacks its terms under
the running sums and adds them with one `np.add.reduce` over the rows, which
on a C-contiguous stack of two or more columns adds row after row, as an
``acc += row`` loop does.  `np.add.accumulate` keeps those bits on any stack
but costs 3-10 times as much.  A chunk of one trial makes one-column stacks,
contiguous runs that `reduce` would sum pairwise, so those add with
`accumulate`.

A block of a chunk of t trials has ``2**14 // (k * t)`` nodes, k log-terms
per node, so its stack holds about `_BLOCK` = 2**14 entries.  Where that is
under `_MIN_NODES` = 8 nodes a block costs more than it saves: each node is
then a block of its own, in 1-D rows and the NumPy calls of a walk without
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
#: Entries of one block's stack of log-terms: 2^14 values, 128 KiB.
_BLOCK = 1 << 14
#: Fewest nodes in a block; where fewer fit, every block is one node.
_MIN_NODES = 8


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


def _draw(cdf: np.ndarray, base, u: np.ndarray, out=None) -> np.ndarray:
    """Inverse-CDF draw from the rows of `cdf` that start at flat offsets
    `base`: returns ``base + count``, in `out` if given, where count is the
    number of the row's entries <= u.

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
    return np.add(pos, cdf.take(pos) <= u, out=out)


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

    `first` is the root's state law; row ``state[parent[j]]`` of node j's
    transition matrix is its state law.  `steps` is the one shared ``(d, d)``
    matrix or the ``(n - 1, d, d)`` stack of nodes 1..n-1.  `emission` is
    the shared ``(d, m)`` emission matrix or the ``(n, d, m)`` stack, or, for
    Gaussian emissions, the logs of the sds, ``(d,)`` or ``(n, d)``, with the
    means and sds in `gaussian`; posterior paths emit nothing.  A shared
    table is read through its own entries, never broadcast over the nodes:
    a `take` on a broadcast view copies the whole stack.  `np.log` is
    elementwise, so a gathered log equals the log of the gathered factor bit
    for bit; a zero factor scores -inf.
    """

    first: np.ndarray
    steps: np.ndarray
    emission: np.ndarray | None = None
    gaussian: tuple[np.ndarray, np.ndarray] | None = None

    @cached_property
    def draws_per_node(self) -> int:
        return 1 if self.emission is None else 2

    @cached_property
    def steps_stride(self) -> int:
        """Flat distance between two nodes' transition matrices; 0 when shared."""
        return math.prod(self.steps.shape[1:]) if self.steps.ndim == 3 else 0

    @cached_property
    def emission_stride(self) -> int:
        """Flat distance between two nodes' emission tables; 0 when shared."""
        if self.emission is None or self.emission.ndim < (2 if self.gaussian else 3):
            return 0
        return math.prod(self.emission.shape[1:])


def _tree_law(model: HmtModel, table) -> _Law:
    """`model`'s factors through `table`: `_inclusive_cdf` to draw, `np.log` to score."""
    spec = model.emission_stack
    with np.errstate(divide="ignore"):
        if spec.kind == "discrete":
            emission, gaussian = table(spec.matrix), None
        else:
            emission, gaussian = np.log(spec.sds), (spec.means, spec.sds)
        return _Law(table(model.initial), table(model.transition_stack), emission, gaussian)


def _block_nodes(draws_per_node: int, trials: int) -> int:
    """Nodes in one block of a chunk of `trials` trials: as many as keep the
    block's stack of ``draws_per_node`` log-terms per node within `_BLOCK`
    entries, or one where fewer than `_MIN_NODES` fit."""
    nodes = _BLOCK // (draws_per_node * trials)
    return nodes if nodes >= _MIN_NODES else 1


def _blocks(parent: np.ndarray, width: int):
    """Node ranges of `width` nodes after the root, in breadth-first order.

    Yields ``(a, b, cuts)``, where each pair of neighbours in `cuts` bounds
    a segment of the block whose parents all precede it: the segment from c
    ends where ``parent`` first reaches c, or at b.  A level is such a run,
    and a chain's segments are its positions.
    """
    n = parent.shape[0]
    ready = memoryview(np.searchsorted(parent, np.arange(n)))
    for a in range(1, n, width):
        b, cuts = min(a + width, n), [a]
        while cuts[-1] < b:
            cuts.append(min(b, ready[cuts[-1]]))
        yield a, b, cuts


def _node_tables(table: np.ndarray, stride: int, lo: int, hi: int) -> np.ndarray:
    """The tables of nodes lo..hi-1 of a per-node stack of node stride
    `stride`, or the shared table (stride 0) itself."""
    if not stride:
        return table
    return table[lo] if hi - lo == 1 else table[lo:hi]


def _node_index(local, stride: int, lo: int, hi: int):
    """`local`, whose row r indexes within node lo + r's flattened table, as
    a flat index into `_node_tables`."""
    if not stride or hi - lo == 1:
        return local
    return local + np.arange(hi - lo)[:, None] * stride


def _pass(parent: np.ndarray, law: _Law, uniforms: np.ndarray):
    """Ancestral sampling of a node-major chunk from `law`'s row CDFs.

    Row ``k * j`` of `uniforms` draws node j's states, where k is the law's
    draws per node, and row ``k * j + 1`` its emissions.  Every drawn state
    overwrites the uniform it consumed through an int64 view of that row,
    where the node's children read it.

    Yields blocks ``(a, b, step, factor, x)`` of nodes a..b-1 in order.
    `step` is a flat index into the nodes' transition matrices (at the
    root, the initial vector) and `factor` into their emission matrices or,
    for Gaussian emissions, their means and sds, both laid out by
    `_node_index` with the law's node strides; `x` holds Gaussian emissions.
    What a law does not emit is None.  The root is
    one block; the other nodes come in blocks of `_block_nodes` nodes, one
    row per node and one column per trial, or else one node at a time in
    1-D rows.
    """
    width = _block_nodes(law.draws_per_node, uniforms.shape[1])
    yield from _draw_nodes(parent, law, uniforms, 1 if width > 1 else parent.shape[0])
    if width > 1:
        for a, b, cuts in _blocks(parent, width):
            yield _draw_block(parent, law, uniforms, a, b, cuts)


def _draw_nodes(parent, law, uniforms, stop):
    """Nodes 0..stop-1 of a chunk (see `_pass`), one at a time in 1-D rows,
    in the NumPy calls per node of a walk without blocks: siblings, which
    are consecutive, share their parent's row offset."""
    d, k, ts, es = law.first.shape[0], law.draws_per_node, law.steps_stride, law.emission_stride
    states, up = uniforms.view(np.int64), memoryview(parent)
    base, above = 0, -1  # d times the state of node `above`, the parent last read
    for a in range(stop):
        if a and up[a] != above:
            above = up[a]
            base = states[k * above] * d
        step = _draw((law.steps[a - 1] if ts else law.steps) if a else law.first, base, uniforms[k * a])
        np.subtract(step, base, out=states[k * a])
        factor = x = None
        if law.gaussian is not None:
            factor = states[k * a]
            means, sds = law.gaussian
            x = (means[a] if es else means).take(factor)
            x += (sds[a] if es else sds).take(factor) * _inverse_normal(uniforms[k * a + 1])
        elif k == 2:
            factor = _draw(law.emission[a] if es else law.emission, states[k * a] * law.emission.shape[-1], uniforms[k * a + 1])
        yield a, a + 1, step, factor, x
        del step, factor, x  # before the next node is drawn


def _draw_block(parent, law, uniforms, a, b, cuts):
    """Draw nodes a..b-1 (a >= 1) of a chunk (see `_pass`): their states one
    segment of `cuts` at a time, each with one `_draw`, then all their
    emissions with one `_draw`."""
    d, k, ts, es = law.first.shape[0], law.draws_per_node, law.steps_stride, law.emission_stride
    states, up = uniforms.view(np.int64), memoryview(parent)
    step = np.empty((b - a, uniforms.shape[1]), dtype=np.int64)
    for c, e in zip(cuts, cuts[1:]):
        p = up[c]
        if e - c == 1:  # one node: 1-D rows and its own table
            base = states[k * p] * d
            _draw(law.steps[c - 1] if ts else law.steps, base, uniforms[k * c], step[c - a])
            np.subtract(step[c - a], base, out=states[k * c])
            continue
        # a segment of one parent's children reads that parent's row, broadcast
        base = (states[k * p : k * p + 1] if p == up[e - 1] else states[k * parent[c:e]]) * d
        rows, u = step[c - a : e - a], uniforms[k * c : k * e : k]
        if ts:  # through the segment's stack of tables, then within each node's own
            offset = np.arange(e - c)[:, None] * ts
            np.subtract(_draw(law.steps[c - 1 : e - 1], base + offset, u), offset, out=rows)
        else:
            _draw(law.steps, base, u, rows)
        np.subtract(rows, base, out=states[k * c : k * e : k])
    del base
    # every row indexes within its node's own table until here
    step = _node_index(step, ts, a - 1, b - 1)
    s, u = states[k * a : k * b : k], uniforms[k * a + 1 : k * b : k]
    if law.gaussian is not None:
        factor = _node_index(s, es, a, b)
        x = _node_tables(law.gaussian[0], es, a, b).take(factor)
        x += _node_tables(law.gaussian[1], es, a, b).take(factor) * _inverse_normal(u)
        return a, b, step, factor, x
    if k == 2:
        base = _node_index(s * law.emission.shape[-1], es, a, b)
        return a, b, step, _draw(_node_tables(law.emission, es, a, b), base, u), None
    return a, b, step, None, None


def _relaid(block: tuple, steps_stride: int, emission_stride: int, law: _Law) -> tuple:
    """`block`, whose indices are laid out with the given node strides, with
    its indices laid out for `law`'s tables."""
    a, b, step, factor, x = block
    if b - a == 1:
        return block
    rank = np.arange(b - a)[:, None]
    if law.steps_stride != steps_stride:
        step = step + rank * (law.steps_stride - steps_stride)
    if factor is not None and law.emission_stride != emission_stride:
        factor = factor + rank * (law.emission_stride - emission_stride)
    return a, b, step, factor, x


def _emission_terms(law: _Law, a: int, b: int, factor, x) -> np.ndarray:
    """The emission log-terms of nodes a..b-1 under `law` (see `_pass`)."""
    es = law.emission_stride
    if law.gaussian is None:
        return _node_tables(law.emission, es, a, b).take(factor)
    means, sds = law.gaussian
    z = (x - _node_tables(means, es, a, b).take(factor)) / _node_tables(sds, es, a, b).take(factor)
    return -0.5 * z**2 - _node_tables(law.emission, es, a, b).take(factor) - 0.5 * _LOG_2PI


def _score(acc: np.ndarray, law: _Law, block: tuple) -> None:
    """Add the log-terms under `law` of a block of `_pass`, laid out for
    `law`, to the per-trial sums `acc`, node by node: its transition (at the
    root, its initial probability), then its emission.

    A node in 1-D rows adds its terms one by one.  A block of rows stacks
    them under `acc`, one row per term, and sums the stack with one
    `np.add.reduce` over its rows: on a C-contiguous stack of two or more
    columns that adds row after row, the bits of the loop.  A one-column
    stack is one contiguous run, which `reduce` would sum pairwise; there
    `np.add.accumulate` adds it in order instead.
    """
    a, b, step, factor, x = block
    ts = law.steps_stride
    if step.ndim == 1:
        acc += ((law.steps[a - 1] if ts else law.steps) if a else law.first).take(step)
        if factor is not None:
            acc += _emission_terms(law, a, b, factor, x)
        return
    k = law.draws_per_node
    stack = np.empty((1 + k * (b - a), acc.shape[0]))
    stack[0] = acc
    stack[1::k] = _node_tables(law.steps, ts, a - 1, b - 1).take(step)
    if factor is not None:
        stack[2::2] = _emission_terms(law, a, b, factor, x)
    if acc.shape[0] > 1:
        np.add.reduce(stack, axis=0, out=acc)
    else:
        acc[:] = np.add.accumulate(stack[:, 0])[-1]


def _log_ratios(parent: np.ndarray, draw: _Law, score1: _Law, score0: _Law, trials: int, seed: int) -> np.ndarray:
    """``log p1 - log p0`` of every trial, drawn from `draw` chunk by chunk;
    each chunk takes one pass over the blocks that scores both models."""
    diffs = np.empty(trials)
    for start, uniforms in _chunked_uniforms(seed, trials, draw.draws_per_node * parent.shape[0]):
        acc1, acc0 = np.zeros(uniforms.shape[1]), np.zeros(uniforms.shape[1])
        for block in _pass(parent, draw, uniforms):
            _score(acc1, score1, block)  # the first model's logs share the layout of its CDFs
            _score(acc0, score0, _relaid(block, draw.steps_stride, draw.emission_stride, score0))
            del block  # before the next block is drawn
        np.subtract(acc1, acc0, out=diffs[start : start + uniforms.shape[1]])
        del uniforms  # before the next chunk is drawn
    return diffs


def sample_joint(model: HmtModel, rng: np.random.Generator):
    """One draw (x, s) from the model's joint law, as dicts keyed by node path.

    States and discrete symbols are 0-based; Gaussian emissions are floats.
    Consumes two uniforms per node from `rng` in node order, so a generator
    advanced to a trial's substream reproduces that trial of the batch
    estimators exactly.
    """
    topology, law = model.topology, _tree_law(model, _inclusive_cdf)
    uniforms = rng.random(2 * topology.n_nodes)[:, None]
    if law.gaussian is not None:
        emitted = np.concatenate([np.ravel(x) for _, _, _, _, x in _pass(topology.parent, law, uniforms)])
    else:
        # a flat emission index is symbol + m * (state + d * node offset)
        emitted = np.concatenate([np.ravel(factor) for _, _, _, factor, _ in _pass(topology.parent, law, uniforms)]) % law.emission.shape[-1]
    states = uniforms.view(np.int64)[::2, 0]
    return dict(zip(topology.nodes, emitted.tolist())), dict(zip(topology.nodes, states.tolist()))


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
    _score(acc, law, (0, 1, steps[:1], factors[:1], emitted[:1]))
    for a, b, _ in _blocks(model.topology.parent, _block_nodes(2, 1)):
        # one trial: the indices, read within each node's own table, form one column
        _score(acc, law, _relaid((a, b, steps[a:b, None], factors[a:b, None], emitted[a:b, None]), 0, 0, law))
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
    uniforms = rng.random(model.length)[:, None]
    for _ in _pass(_chain_parent(model.length), law, uniforms):
        pass
    return uniforms.view(np.int64)[:, 0].copy()


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
