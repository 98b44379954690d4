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

Each chunk walks a sequence of windows, ranges of consecutive nodes in
breadth-first order, each with the law to draw it from and the pair law to
score it under: a tree is one window, a chain's posterior one window per
block of the backward sweep.  A window takes one pass over its nodes in
blocks of consecutive nodes (`_pass`).  The root is a block of its own,
drawn from the initial law as the table of one parent in state 0.  A
block draws its
states one segment at a time, a segment being a run of nodes whose parents
are all drawn (a level, or a chain's next position), then all its
emissions with one draw, and gathers both models' log-terms with one
`take` per table.  A drawn state overwrites the uniform it consumed,
through an int64 view of that row, and the node's children read it there.
A one-node segment, each position of a chain and each node of a
single-child run, takes the chain step: one multiply of its parent's
state row, one add for per-node tables, the search and one subtract, on
1-D rows with no per-segment allocation outside the search.  Each draw is
a binary search of optimal depth over the row CDF written in integer
arithmetic, ceil(log2 d) gathers for d states (see `_draw`).

Both models score a pass under one pair law (`_pair`): each of its tables
holds the first model's logs in the real parts and the second's in the
imaginary parts, so one `take` gathers both models' terms and each trial
keeps one complex sum.  Complex addition is two IEEE additions, one per
half, so ``acc.real - acc.imag`` has the bits of two real sums.  Gaussian
terms are computed on the complex rows viewed as float64, both models'
halves side by side, each in the operations of one model's terms.
`loglik_joint` and `sample_joint` keep one model's real law.

The evidence estimator keeps the blocks of both models' posterior weights
that one backward sweep, `hmm._posterior_sweep`, yields, O(N d) in all, and
walks them as a sequence of windows, one per block (`_Windows`): a window's
posterior CDFs and pair logs are built when the walk reaches it, after the
last window built is let go.  So past the chunk it holds the weights and
one window, 5.7 MiB in all at N = 1000, d = 64 and 200 trials, where whole
stacks took 97.6 MiB.  A chain of one window builds it once per call; a
longer one builds each window once per chunk, which at d = 64 and N = 1000
costs about a third more time over five chunks.

A block of a chunk of t trials has ``2**14 // (k * t)`` nodes, and at least
one, k log-terms per node, so its stack holds about `_BLOCK` = 2**14
entries.  Each trial's terms are added in node order, transition before
emission, so no bit depends on the block or chunk size.  A one-node block
adds its rows to the running sums in place.  A larger block stacks its
terms under the running sums and adds them with one `np.add.reduce` over
the rows, which on a C-contiguous stack of two or more columns adds row
after row, as an ``acc += row`` loop does.  `np.add.accumulate` keeps those
bits on any stack but costs 3-10 times as much.  A chunk of one trial makes
one-column stacks, contiguous runs that `reduce` would sum pairwise, so
those add with `accumulate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .model import Evidence, HmmModel, HmtModel, check_pair
from .hmm import _factor_block, _posterior_sweep, posterior_conditionals

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


def _jumps(cdf: np.ndarray) -> list:
    """The jumps of `_draw`'s search over the rows of `cdf`, in search
    order: for each, the shifted view ``flat[jump - 1:]`` of the flattened
    table and `jump` as a 0-d int64 array, or None where jump is 1.

    For rows of width d, with P the largest power of two <= d, they are
    d - P unless d is P, then P / 2, ..., 1: ceil(log2 d) jumps."""
    flat, d = cdf.reshape(-1), cdf.shape[-1]
    top = 1 << (d.bit_length() - 1)
    sizes = [d - top] * (d > top) + [top >> i for i in range(1, top.bit_length())]
    return [(flat[jump - 1 :], np.array(jump, dtype=np.int64) if jump > 1 else None) for jump in sizes]


def _draw(cdf: np.ndarray, base, u: np.ndarray, out=None, jumps=None) -> np.ndarray:
    """Inverse-CDF draw from the rows of `cdf` that start at flat offsets
    `base`: returns ``base + count``, in `out` if given, where count is the
    number of the row's entries <= u.

    A branchless binary search of optimal depth (Shar's uniform search;
    Knuth, TAOCP vol. 3, 6.2.1).  A row's entries are non-decreasing and the
    last is 1 > u, so count is one of d values and a zero-probability state
    is never drawn.  Each jump reads entry ``pos + jump - 1`` through the
    shifted view ``flat[jump - 1:]`` and advances `pos` by ``hit * jump``: a
    take, a compare, a multiply (none for a jump of 1) and an add, each
    under 1 ns per element.  With P the largest power of two <= d, a first
    jump of d - P, unless d is P, leaves P candidates or d - P < P of them,
    and the jumps P / 2, ..., 1 halve them: ceil(log2 d) gathers, none for
    d = 1.  The jumps add up to d - 1, so no read passes entry d - 2 of the
    row.  A three-array ``np.where`` select costs about 3 ns per element
    and once took most of the search's time.

    The views and jumps are `jumps` (`_jumps` of `cdf`), which a law builds
    once per table; `jump` is a 0-d array because multiplying by a Python
    int costs more under NumPy 2's scalar promotion.  `base` may be shared
    with other callers and is never written: the search runs in `out`, or
    in fresh arrays.
    """
    jumps = _jumps(cdf) if jumps is None else jumps
    if not jumps:  # d = 1: the one state
        return np.add(base, np.zeros(u.shape, dtype=np.int64), out=out)
    pos = base
    for shifted, jump in jumps:
        hit = shifted.take(pos) <= u
        pos = np.add(pos, hit if jump is None else hit * jump, out=out)
    return pos


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
    means and sds in `gaussian`; posterior paths emit nothing.  A tree's law
    covers every node, as the one window that `_log_ratios` walks; a law of
    one window of a chain's posterior (see `_Windows`) holds the stack of
    nodes `node0` onwards.  A shared table is read through its own entries,
    never broadcast over the nodes: a `take` on a broadcast view copies the
    whole stack.  `np.log` is elementwise, so a gathered log equals the log
    of the gathered factor bit for bit; a zero factor scores -inf.
    """

    first: np.ndarray
    steps: np.ndarray
    emission: np.ndarray | None = None
    gaussian: tuple[np.ndarray, np.ndarray] | None = None
    node0: int = 1

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
    def jumps(self) -> dict:
        """`_jumps` of each table of row CDFs, by field name, built on a
        law's first draw."""
        names = ("first", "steps") if self.gaussian is not None else ("first", "steps", "emission")
        return {name: _jumps(getattr(self, name)) for name in names if getattr(self, name) is not None}


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
    entries, and at least one."""
    return max(1, _BLOCK // (draws_per_node * trials))


def _blocks(lo: int, hi: int, width: int):
    """``(a, b)``: ranges of at most `width` of the nodes lo..hi-1, in
    breadth-first order, the root (node 0) in a range of its own."""
    if not lo:
        yield 0, 1
    for a in range(max(lo, 1), hi, width):
        yield a, min(a + width, hi)


def _pass(parent: np.ndarray, law: _Law, uniforms: np.ndarray, lo: int = 0, hi: int | None = None):
    """Ancestral sampling of nodes lo..hi-1 (every node if hi is None) of a
    node-major chunk from `law`'s row CDFs, their parents already drawn.

    Row ``k * j`` of `uniforms` draws node j's states, where k is the law's
    draws per node, and row ``k * j + 1`` its emissions.  Every drawn state
    overwrites the uniform it consumed through an int64 view of that row,
    where the node's children read it.

    Yields the `_blocks` ``(a, b, step, factor, x)`` of nodes a..b-1 in
    order, one row per node and one column per trial: the root, if lo is 0,
    then blocks of `_block_nodes` nodes.  `step` is a flat index into the
    law's whole transition table (at the root, into the initial vector) and
    `factor` into its whole emission table or, for Gaussian emissions, its
    means and sds: node j's table starts at j - node0 (transitions) or j
    (emissions) times the law's node stride.  `x` holds Gaussian emissions.
    What a law does not emit is None.
    """
    hi = parent.shape[0] if hi is None else hi
    # the segment from node c, a run of nodes whose parents are all drawn,
    # ends where `parent` first reaches c: a level, or a chain's next
    # position.  Each node's parent precedes it, so that end lies past c
    # and the range's own parents give it, or hi
    ready = memoryview(np.searchsorted(parent[lo:hi], np.arange(lo, hi)) + lo)
    for a, b in _blocks(lo, hi, _block_nodes(law.draws_per_node, uniforms.shape[1])):
        yield _draw_block(parent, ready[a - lo : b - lo], law, uniforms, a, b)


def _draw_block(parent, ready, law, uniforms, a, b):
    """Draw nodes a..b-1 of a chunk (see `_pass`): their states one segment
    at a time, each with one `_draw`, then all their emissions with one
    `_draw`.  ``ready[c - a]`` is where the segment from node c ends.  The
    root draws from `law.first`, the table of one parent in state 0.

    A one-node segment, a chain position or a node of a single-child run,
    takes the chain step on rows of the chunk: one multiply of its parent's
    state row into the block's offset row, one add for per-node tables, the
    search and one subtract.  A longer segment gathers its parents' states
    into a table of offsets, one row per node."""
    k, ts, es, jumps = law.draws_per_node, law.steps_stride, law.emission_stride, law.jumps
    states, up, d = uniforms.view(np.int64), memoryview(parent), law.widths[0]
    step = np.empty((b - a, uniforms.shape[1]), dtype=np.int64)
    c, steps, search = a, law.steps, jumps["steps"]
    if not a:  # the root
        _draw(law.first, 0, uniforms[0], step[0], jumps["first"])
        states[0], c = step[0], 1
    row = np.empty(uniforms.shape[1], dtype=np.int64)
    while c < b:
        e = min(b, ready[c - a])
        if e - c == 1:
            np.multiply(states[k * up[c]], d, out=row)
            if ts:  # into the node's own table of the stack
                row += (c - law.node0) * ts
            _draw(steps, row, uniforms[k * c], step[c - a], search)
            np.subtract(step[c - a], row, out=states[k * c])
        else:
            p = up[c]
            # a segment of one parent's children reads that parent's row, broadcast
            base = (states[k * p : k * p + 1] if p == up[e - 1] else states[k * parent[c:e]]) * d
            if ts:
                base = base + np.arange(c - law.node0, e - law.node0)[:, None] * ts
            rows = step[c - a : e - a]
            _draw(steps, base, uniforms[k * c : k * e : k], rows, search)
            np.subtract(rows, base, out=states[k * c : k * e : k])
        c = e
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
        return a, b, step, _draw(law.emission, base, u, jumps=jumps["emission"]), None
    return a, b, step, None, None


def _relaid(block: tuple, steps_stride: int, emission_stride: int, law: _Law) -> tuple:
    """`block`, whose indices are laid out with the given node strides, with
    its indices laid out for `law`'s tables, whose stacks start at the same
    node.  The root's indices read the same entries in either layout."""
    a, b, step, factor, x = block
    ts = law.steps_stride - steps_stride
    es = 0 if factor is None else law.emission_stride - emission_stride
    if not a or not (ts or es):
        return block
    node = np.arange(a, b)[:, None]
    if ts:
        step = step + (node - law.node0) * ts
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

    A one-node block adds its rows to `acc` in place.  A larger block
    stacks them under `acc`, one row per term, and sums the stack with one
    `np.add.reduce` over its rows: on a C-contiguous stack of two or more
    columns that adds row after row, the bits of the in-place loop, without
    its pass over `acc` per row.  A one-column stack is one contiguous run,
    which `reduce` would sum pairwise; there `np.add.accumulate` adds it in
    order instead.
    """
    a, b, step, factor, x = block
    if b - a == 1:
        acc += (law.first if a == 0 else law.steps).take(step[0])
        if factor is not None:
            acc += (law.emission.take(factor) if law.gaussian is None else _gaussian_terms(law, factor, x))[0]
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


def _log_ratios(parent: np.ndarray, windows, trials: int, seed: int) -> np.ndarray:
    """``log p1 - log p0`` of every trial, drawn chunk by chunk and scored
    under pair laws of both models' logs: each chunk walks the re-iterable
    sequence `windows` of ``(lo, hi, draw, pair)`` in node order, and takes
    one `_pass` over nodes lo..hi-1 from the law `draw`, which adds both
    models' terms to one complex sum per trial under the pair law `pair`.
    A tree is one window ``(0, n, draw, pair)``; a chain's posterior is a
    `_Windows`, which builds each window when the walk reaches it."""
    # the uniforms a node draws, the same in every window: a `_Windows`
    # knows them before it builds one, and so before the first chunk is drawn
    k = windows.draws_per_node if isinstance(windows, _Windows) else windows[0][2].draws_per_node
    diffs = np.empty(trials)
    for start, uniforms in _chunked_uniforms(seed, trials, k * parent.shape[0]):
        acc = np.zeros(uniforms.shape[1], dtype=complex)
        for lo, hi, draw, pair in windows:
            for block in _pass(parent, draw, uniforms, lo, hi):
                _score(acc, pair, _relaid(block, draw.steps_stride, draw.emission_stride, pair))
                del block  # before the next block is drawn
            del draw, pair  # before the next window is built
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
    for a, b in _blocks(0, model.topology.n_nodes, _block_nodes(2, 1)):
        # one trial: the indices, read within each node's own table, form one column
        _score(acc, law, _relaid((a, b, steps[a:b, None], factors[a:b, None], emitted[a:b, None]), 0, 0, law))
    return float(acc[0])


def mc_kld_no_evidence(m1: HmtModel, m0: HmtModel, trials: int, seed: int) -> McEstimate:
    """Estimate the joint KL divergence as the mean log-likelihood ratio over
    i.i.d. draws from the first model."""
    check_pair(m1, m0, HmtModel)
    _check_mc_args(trials, seed)
    windows = ((0, m1.topology.n_nodes, _tree_law(m1, _inclusive_cdf), _tree_pair(m1, m0)),)
    return _estimate(_log_ratios(m1.topology.parent, windows, trials, seed), seed)


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


class _Windows:
    """A chain's posterior laws as the re-iterable sequence of windows
    ``(lo, hi, draw, pair)`` that `_log_ratios` walks, in node order: the
    first model's law to draw nodes lo..hi-1 with, and both models' logs as
    one pair law (see `_pair`).

    The ``(B, 2, d)`` blocks of posterior weights that `_posterior_sweep`
    yields are kept as they come, front first, and window k is block k:
    nodes 1 + kB onwards, B the first block's length, and the root in the
    first window.  A window is built when the walk reaches it:
    `_factor_block` builds each model's factors straight into its half of
    the window's pair stack; the CDFs are taken from the first half and
    then both halves are overwritten by their logs.  Only the last window
    built is held, and it is let go before the next is built, so past the
    weights the memory is one window's CDF and pair stacks, three real
    ``(B, d, d)`` stacks, and a chain of one window builds it once however
    many chunks walk it.  Factors, CDFs and logs are elementwise or per
    row, so no bit depends on the window.
    """

    #: Uniforms per node: posterior paths emit nothing.
    draws_per_node = 1

    def __init__(self, m1: HmmModel, m0: HmmModel, evidence: Evidence):
        d = m1.n_states
        self.transitions, initial = (m1.transition, m0.transition), np.empty((2, d))
        # front first; a one-node chain has no position past the root, and one empty window
        self.blocks = [*_posterior_sweep(m1, m0, evidence, initial)][::-1] or [np.empty((0, 2, d))]
        self.first = _inclusive_cdf(initial[0]), _pair(*initial)
        self._held = None, None

    def __iter__(self):
        node0 = 1
        for k, weights in enumerate(self.blocks):
            yield (node0 if k else 0), node0 + len(weights), *self._laws(k, node0, weights)
            node0 += len(weights)

    def _laws(self, k: int, node0: int, weights: np.ndarray) -> tuple[_Law, _Law]:
        """The draw and pair laws of window k, whose stacks start at node
        `node0`: the ones held, or built after the held ones are let go."""
        if self._held[0] != k:
            self._held = None, None
            (pi1, pi0), d = self.transitions, weights.shape[2]
            steps = np.empty((len(weights), d, d), dtype=complex)
            _factor_block(pi1, weights[:, 0], out=steps.real)
            _factor_block(pi0, weights[:, 1], out=steps.imag)
            cdf = _inclusive_cdf(steps.real)
            with np.errstate(divide="ignore"):
                for half in (steps.real, steps.imag):
                    np.log(half, out=half)
            first_cdf, first_pair = self.first
            self._held = k, (_Law(first_cdf, cdf, node0=node0), _Law(first_pair, steps, node0=node0))
        return self._held[1]


def mc_kld_evidence(m1: HmmModel, m0: HmmModel, evidence: Evidence, trials: int, seed: int) -> McEstimate:
    """Estimate the posterior KL divergence from posterior draws of the first model.

    Position i of a path is drawn from the first model's posterior factor
    for i given position i - 1, and both posteriors score it in the same pass.
    """
    check_pair(m1, m0, HmmModel)
    _check_mc_args(trials, seed)
    return _estimate(_log_ratios(_chain_parent(m1.length), _Windows(m1, m0, evidence), trials, seed), seed)
