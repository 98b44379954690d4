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
cap keeps every per-node temporary at 2^14 values (128 KiB, or 256 KiB
complex), so a model with few nodes holds one small block rather than every
trial's draws: the bundled Gaussian pair peaks at 4.4 MiB (`tracemalloc`)
at 1e5 trials, where one chunk of every trial took 22.2 MiB.  Philox fills
a tile of `_TILE` = 2^17 uniforms (1 MiB) of whole trials at a time, which
is transposed into the chunk: a tile of 2000-draw trials writes 65
contiguous values into each row of it.

Each chunk takes one pass over the nodes in blocks of consecutive nodes in
breadth-first order (`_pass`).  A block draws its states one segment at a
time, a segment being a run of nodes whose parents are all drawn (a level,
or a chain's next position), then all its emissions with one draw, and
gathers both models' log-terms with one `take` per table.  A drawn state
overwrites the uniform it consumed, through an int64 view of that row, and
the node's children read it there.  Each draw is a binary search over the
row CDF written in integer arithmetic (see `_draw`).

Both models score a pass under one pair law (`_pair`): each of its tables
holds the first model's logs in the real parts and the second's in the
imaginary parts, so one `take` gathers both models' terms and each trial
keeps one complex sum.  Complex addition is two IEEE additions, one per
half, so ``acc.real - acc.imag`` has the bits of two real sums.  Gaussian
terms are computed on the complex rows viewed as float64, both models'
halves side by side, each in the operations of one model's terms.
`loglik_joint` and `sample_joint` keep one model's real law.

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
from .hmm import _factor_block, _posterior_pair, _posterior_weights, posterior_conditionals

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
#: Trials in one chunk: each per-node temporary of the pass is 2^14 values,
#: 128 KiB, or 256 KiB complex.
_TRIALS = 1 << 14
#: Uniforms drawn by one Philox call and transposed into the chunk: 2^17
#: values, 1 MiB, so a tile of 2000-draw trials writes 65 contiguous values
#: into each row of the chunk.
_TILE = 1 << 17
#: Entries of one block's stack of complex log-term pairs: 2^14, 256 KiB.
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

    The stream is read in order, a few trials at a time, into one tile
    buffer per chunk, and each tile is transposed into the block while it
    is in cache.  The generator lets go of a chunk's tile buffer before it
    yields the block, and of each block before it allocates the next, so a
    caller that drops its own reference first holds one block at a time.
    """
    padded = _padded(per_trial)
    size, tile = _chunk_trials(per_trial), max(1, _TILE // padded)
    stream = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, trials, size):
        block = np.empty((per_trial, min(size, trials - start)))
        rows = np.empty((min(tile, block.shape[1]), padded))
        for lo in range(0, block.shape[1], tile):
            n = min(tile, block.shape[1] - lo)
            stream.random(out=rows[:n])
            block[:, lo : lo + n] = rows[:n, :per_trial].T
        del rows
        yield start, block
        del block


def _inclusive_cdf(rows: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(rows, axis=-1)
    # Every entry that reaches the row's total becomes 1.0: the last, and those
    # of trailing zero-probability states, which rounding can leave below 1.
    np.putmask(cdf, cdf >= cdf[..., -1:], 1.0)
    return cdf


def _halvings(cdf: np.ndarray) -> list:
    """The halvings of `_draw`'s binary search over the rows of `cdf`: for
    each, the shifted view ``flat[half:]`` of the flattened table and
    `half` as a 0-d int64 array, or None where half is 1."""
    flat, n, halvings = cdf.reshape(-1), cdf.shape[-1] - 1, []
    while n > 1:
        half = n // 2
        halvings.append((flat[half:], np.array(half, dtype=np.int64) if half > 1 else None))
        n -= half
    return halvings


def _draw(cdf: np.ndarray, base, u: np.ndarray, out=None, halvings=None) -> np.ndarray:
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
    The views and halves are `halvings` (`_halvings` of `cdf`), which a law
    builds once per table; `half` is a 0-d array because multiplying by a
    Python int costs more under NumPy 2's scalar promotion.  `base` may be
    shared with other callers, so `pos` is never updated in place.
    """
    pos = base
    for shifted, half in _halvings(cdf) if halvings is None else halvings:
        hit = shifted.take(pos) <= u
        pos = pos + (hit if half is None else hit * half)
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
    with or as logs to score with, or both models' logs as one pair law
    (see `_pair`).

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

    @cached_property
    def widths(self) -> tuple:
        """d and m (1 without discrete emissions) as 0-d int64 arrays, by
        which the state and emission offsets are multiplied (see `_draw`)."""
        m = self.emission.shape[-1] if self.emission is not None and self.gaussian is None else 1
        return np.array(self.first.shape[0], dtype=np.int64), np.array(m, dtype=np.int64)

    @cached_property
    def halvings(self) -> dict:
        """`_halvings` of each table of row CDFs, by field name, built on a
        law's first draw."""
        names = ("first", "steps") if self.gaussian is not None else ("first", "steps", "emission")
        return {name: _halvings(getattr(self, name)) for name in names if getattr(self, name) is not None}


def _tree_law(model: HmtModel, table) -> _Law:
    """`model`'s factors through `table`: `_inclusive_cdf` to draw, `np.log` to score."""
    spec = model.emission_stack
    with np.errstate(divide="ignore"):
        if spec.kind == "discrete":
            emission, gaussian = table(spec.matrix), None
        else:
            emission, gaussian = np.log(spec.sds), (spec.means, spec.sds)
        return _Law(table(model.initial), table(model.transition_stack), emission, gaussian)


def _pair(first: np.ndarray, second: np.ndarray, fill=np.log) -> np.ndarray:
    """One complex table holding the ufunc `fill` of `first` in its real
    parts and of `second` in its imaginary parts, broadcast to the per-node
    layout where only one of them is per-node.

    Each half is written through `.real` or `.imag`: building the pair as
    ``a + 1j * b`` would multiply a -inf log by 1j and make NaN.  Adding two
    such numbers is two IEEE additions, one per half, so sums of pairs keep
    the bits of the two real sums.
    """
    pair = np.empty(np.broadcast_shapes(first.shape, second.shape), dtype=complex)
    with np.errstate(divide="ignore"):
        fill(first, out=pair.real)
        fill(second, out=pair.imag)
    return pair


def _tree_pair(m1: HmtModel, m0: HmtModel) -> _Law:
    """The log-factors of both models as one law of `_pair` tables; the
    Gaussian means and sds are paired as they are."""
    s1, s0 = m1.emission_stack, m0.emission_stack
    if s1.kind == "discrete":
        emission, gaussian = _pair(s1.matrix, s0.matrix), None
    else:
        emission, gaussian = _pair(s1.sds, s0.sds), (_pair(s1.means, s0.means, np.positive), _pair(s1.sds, s0.sds, np.positive))
    return _Law(_pair(m1.initial, m0.initial), _pair(m1.transition_stack, m0.transition_stack), emission, gaussian)


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


def _pass(parent: np.ndarray, law: _Law, uniforms: np.ndarray):
    """Ancestral sampling of a node-major chunk from `law`'s row CDFs.

    Row ``k * j`` of `uniforms` draws node j's states, where k is the law's
    draws per node, and row ``k * j + 1`` its emissions.  Every drawn state
    overwrites the uniform it consumed through an int64 view of that row,
    where the node's children read it.

    Yields blocks ``(a, b, step, factor, x)`` of nodes a..b-1 in order.
    `step` is a flat index into the law's whole transition table (at the
    root, into the initial vector) and `factor` into its whole emission
    table or, for Gaussian emissions, its means and sds: node j's table
    starts at j - 1 (transitions) or j (emissions) times the law's node
    stride.  `x` holds Gaussian emissions.  What a law does not emit is
    None.  The root is one block; the other nodes come in blocks of
    `_block_nodes` nodes, one row per node and one column per trial, or
    else one node at a time in 1-D rows.
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
    k, ts, es, halvings = law.draws_per_node, law.steps_stride, law.emission_stride, law.halvings
    states, up, d = uniforms.view(np.int64), memoryview(parent), law.widths[0]
    base, above = 0, -1  # d times the state of node `above`, the parent last read
    for a in range(stop):
        if a and up[a] != above:
            above = up[a]
            base = states[k * above] * d
        at = base + (a - 1) * ts if a and ts else base
        step = _draw(law.steps if a else law.first, at, uniforms[k * a], halvings=halvings["steps" if a else "first"])
        np.subtract(step, at, out=states[k * a])
        factor = x = None
        if law.gaussian is not None:
            factor = states[k * a] + a * es if es else states[k * a]
            means, sds = law.gaussian
            x = means.take(factor)
            x += sds.take(factor) * _inverse_normal(uniforms[k * a + 1])
        elif k == 2:
            at = states[k * a] * law.widths[1]
            if es:
                at += a * es
            factor = _draw(law.emission, at, uniforms[k * a + 1], halvings=halvings["emission"])
        yield a, a + 1, step, factor, x
        del step, factor, x  # before the next node is drawn


def _draw_block(parent, law, uniforms, a, b, cuts):
    """Draw nodes a..b-1 (a >= 1) of a chunk (see `_pass`): their states one
    segment of `cuts` at a time, each with one `_draw`, then all their
    emissions with one `_draw`."""
    k, ts, es, halvings = law.draws_per_node, law.steps_stride, law.emission_stride, law.halvings
    states, up, d = uniforms.view(np.int64), memoryview(parent), law.widths[0]
    step = np.empty((b - a, uniforms.shape[1]), dtype=np.int64)
    for c, e in zip(cuts, cuts[1:]):
        p = up[c]
        # a segment of one parent's children reads that parent's row, broadcast
        base = (states[k * p : k * p + 1] if p == up[e - 1] else states[k * parent[c:e]]) * d
        if ts:  # into each node's own table of the stack
            base = base + (np.arange(c - 1, e - 1)[:, None] * ts if e - c > 1 else (c - 1) * ts)
        rows = step[c - a : e - a]
        _draw(law.steps, base, uniforms[k * c : k * e : k], rows, halvings["steps"])
        np.subtract(rows, base, out=states[k * c : k * e : k])
    del base
    s, u = states[k * a : k * b : k], uniforms[k * a + 1 : k * b : k]
    if law.gaussian is not None:
        factor = s + np.arange(a, b)[:, None] * es if es else s
        means, sds = law.gaussian
        x = means.take(factor)
        x += sds.take(factor) * _inverse_normal(u)
        return a, b, step, factor, x
    if k == 2:
        base = s * law.widths[1]
        if es:
            base += np.arange(a, b)[:, None] * es
        return a, b, step, _draw(law.emission, base, u, halvings=halvings["emission"]), None
    return a, b, step, None, None


def _relaid(block: tuple, steps_stride: int, emission_stride: int, law: _Law) -> tuple:
    """`block`, whose indices are laid out with the given node strides, with
    its indices laid out for `law`'s tables.  The root's indices read the
    same entries in either layout."""
    a, b, step, factor, x = block
    ts = law.steps_stride - steps_stride
    es = 0 if factor is None else law.emission_stride - emission_stride
    if not a or not (ts or es):
        return block
    node = a if step.ndim == 1 else np.arange(a, b)[:, None]
    if ts:
        step = step + (node - 1) * ts
    if es:
        factor = factor + node * es
    return a, b, step, factor, x


def _gaussian_terms(law: _Law, factor, x) -> np.ndarray:
    """The Gaussian emission log-terms under `law` of a block of `_pass`.

    Under a pair law each step runs once on the complex terms viewed as
    float64, both models' halves side by side, so each half gets the
    operations of one model's terms.  Fresh contiguous rows cost less than
    the strided `.real` and `.imag` views or a block's stack rows."""
    means, sds, log_sds = (table.take(factor) for table in (*law.gaussian, law.emission))
    terms = np.empty_like(means)
    terms.real = x
    if np.iscomplexobj(terms):
        terms.imag = x
    z = terms.view(np.float64)  # -0.5 * ((x - mean) / sd)**2 - log(sd) - log(2 pi) / 2
    z -= means.view(np.float64)
    z /= sds.view(np.float64)
    np.square(z, out=z)
    z *= -0.5
    z -= log_sds.view(np.float64)
    z -= 0.5 * _LOG_2PI
    return terms


def _score(acc: np.ndarray, law: _Law, block: tuple) -> None:
    """Add the log-terms under `law` of a block of `_pass`, laid out for
    `law`, to the per-trial sums `acc`, node by node: its transition (at the
    root, its initial probability), then its emission.  `acc` is real under
    one model's law and complex under a pair law.

    A node in 1-D rows adds its terms one by one.  A block of rows stacks
    them under `acc`, one row per term, and sums the stack with one
    `np.add.reduce` over its rows: on a C-contiguous stack of two or more
    columns that adds row after row, the bits of the loop.  A one-column
    stack is one contiguous run, which `reduce` would sum pairwise; there
    `np.add.accumulate` adds it in order instead.
    """
    a, b, step, factor, x = block
    if step.ndim == 1:
        acc += (law.steps if a else law.first).take(step)
        if factor is not None:
            acc += law.emission.take(factor) if law.gaussian is None else _gaussian_terms(law, factor, x)
        return
    k = law.draws_per_node
    stack = np.empty((1 + k * (b - a), acc.shape[0]), dtype=acc.dtype)
    stack[0] = acc
    if k == 1:
        # contiguous rows: `take` gathers straight into them, and need not
        # check the indices, which drawn states always keep in the table
        law.steps.take(step, out=stack[1:], mode="clip")
    else:  # into strided rows `take` would gather through a copy of them
        stack[1::2] = law.steps.take(step)
        stack[2::2] = law.emission.take(factor) if law.gaussian is None else _gaussian_terms(law, factor, x)
    if acc.shape[0] > 1:
        np.add.reduce(stack, axis=0, out=acc)
    else:
        acc[:] = np.add.accumulate(stack[:, 0])[-1]


def _log_ratios(parent: np.ndarray, draw: _Law, pair: _Law, trials: int, seed: int) -> np.ndarray:
    """``log p1 - log p0`` of every trial, drawn from `draw` chunk by chunk
    and scored under the pair law `pair` of both models' logs: each chunk
    takes one pass over the blocks, which adds both models' terms to one
    complex sum per trial."""
    diffs = np.empty(trials)
    for start, uniforms in _chunked_uniforms(seed, trials, draw.draws_per_node * parent.shape[0]):
        acc = np.zeros(uniforms.shape[1], dtype=complex)
        for block in _pass(parent, draw, uniforms):
            _score(acc, pair, _relaid(block, draw.steps_stride, draw.emission_stride, pair))
            del block  # before the next block is drawn
        np.subtract(acc.real, acc.imag, out=diffs[start : start + uniforms.shape[1]])
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
    return _estimate(_log_ratios(m1.topology.parent, _tree_law(m1, _inclusive_cdf), _tree_pair(m1, m0), trials, seed), seed)


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


def _evidence_laws(m1: HmmModel, m0: HmmModel, evidence: Evidence) -> tuple[_Law, _Law]:
    """The first model's posterior law to draw with, and both models'
    posterior logs as one pair law (see `_pair`).

    Each model's posterior factors are built by `_factor_block` straight
    into their half of the pair's stack, the CDFs are taken from the first
    half and then both halves are overwritten by their logs: the pair and
    one CDF stack, three real stacks in all, are the only stacks alive.
    """
    (initial1, weights1), (initial0, weights0) = _posterior_pair(m1, m0, evidence, _posterior_weights)
    d = m1.n_states
    steps = np.empty((m1.length - 1, d, d), dtype=complex)
    draw = _Law(_inclusive_cdf(initial1), _inclusive_cdf(_factor_block(m1.transition, weights1, out=steps.real)))
    _factor_block(m0.transition, weights0, out=steps.imag)
    with np.errstate(divide="ignore"):
        for half in (steps.real, steps.imag):
            np.log(half, out=half)
    return draw, _Law(_pair(initial1, initial0), steps)


def mc_kld_evidence(m1: HmmModel, m0: HmmModel, evidence: Evidence, trials: int, seed: int) -> McEstimate:
    """Estimate the posterior KL divergence from posterior draws of the first model.

    Position i of a path is drawn from the first model's posterior factor
    for i given position i - 1, and both posteriors score it in the same pass.
    """
    check_pair(m1, m0)
    _check_mc_args(trials, seed)
    return _estimate(_log_ratios(_chain_parent(m1.length), *_evidence_laws(m1, m0, evidence), trials, seed), seed)
