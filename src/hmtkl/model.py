"""Domain types for hidden Markov trees and chains, plus the JSON model format.

Inside the engine a hidden node is its breadth-first index: position j in the
topology's node order, where node 0 is the root and ``parent[j]`` is the index
of node j's parent.  Digit-string paths are the labels of the JSON format and
of per-node parameter mappings: the root is ``""``, ``"0"`` is its first
child, ``"01"`` the second child of that node, and so on; they are spelled
only where they are read.  A path digit caps a node at 10 children; that limit
belongs to the labels, not to the engine.
Each hidden node carries one observable emission.  A hidden Markov chain (HMM)
is the special case in which every node has exactly one hidden child.

A tree's per-node parameters are stacks in that node order: the transitions
are one ``(n_nodes - 1, d, d)`` array whose entry ``j - 1`` is the matrix on
the edge entering node j, and the emissions are one spec whose arrays carry a
leading node axis, an ``(n_nodes, d, m)`` matrix stack or ``(n_nodes, d)``
Gaussian means and sds.  A parameter shared by every node is kept once,
without the node axis.  The path-keyed accessors are read-only views of the
stacks.

State and symbol labels are 1-based in documents and messages, 0-based in
arrays.  Models are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import gc
import json
import math
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain
from typing import Union

import numpy as np

from .errors import ModelFormatError, ModelValidationError

ROOT = ""
PATH_ALPHABET = "0123456789"

#: Row sums of stochastic vectors/matrices must match 1 within this tolerance.
STOCH_TOL = 1e-12

#: Largest node count a regular ``depth``/``children`` topology may describe.
#: The count is computed before any node is built, so a hostile pair such as
#: depth 40 with 2 children fails at once instead of exhausting memory.
MAX_NODES = 1 << 20


def _freeze(array, dtype=float):
    """`array` as a read-only C-ordered array of `dtype`: one conversion, and
    none for an array that already is one."""
    out = np.asarray(array, dtype=dtype, order="C")
    if out.flags.writeable:
        out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class HmtTopology:
    """Shape of a hidden Markov tree: the breadth-first `parent` array.

    Parameters
    ----------
    parent : read-only int array
        ``parent[j]`` is the breadth-first index of node j's parent, and
        ``parent[0] = -1``.  The array is non-decreasing, so the children of
        node j are the contiguous index range where ``parent == j``.
    depth : int
        Number of hidden levels; leaves sit at level ``depth - 1``.
    regular_arity : int or None
        C when every internal node has exactly C children and all leaves are
        at the deepest level; None otherwise (or when undecidable at depth 1).
    labels : tuple of str or None
        The paths given to `from_nodes`, sorted by (depth, path), or None for
        a `regular` topology (the only kind without them).
    """

    parent: np.ndarray = field(repr=False)
    depth: int
    regular_arity: int | None
    labels: tuple[str, ...] | None = field(default=None, repr=False)

    @staticmethod
    def regular(depth: int, children: int) -> "HmtTopology":
        """Complete tree of the given depth where every node has `children` children.

        At most 10 children, so that one digit per level spells any node's
        path.  Raises ValueError, before building any node, when the tree
        would have more than `MAX_NODES` nodes.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if children < 1 or children > len(PATH_ALPHABET):
            raise ValueError(f"children count must be in 1..{len(PATH_ALPHABET)}")
        # min(): a tree deeper than MAX_NODES.bit_length() levels is over the limit anyway
        n = depth if children == 1 else (children ** min(depth, MAX_NODES.bit_length()) - 1) // (children - 1)
        if n > MAX_NODES:
            raise ValueError(
                f"a tree of depth {depth} with {children} children per node has more than {MAX_NODES} nodes"
            )
        parent = _freeze((np.arange(n) - 1) // children, dtype=np.intp)
        return HmtTopology(parent, depth, children if depth > 1 else None)

    @staticmethod
    def from_nodes(paths) -> "HmtTopology":
        """Topology from an explicit node list; parents of every path must be present.

        The paths are checked, sorted and linked to their parents in bulk;
        only when a check fails is the list scanned for the offending path
        (the first bad path in input order, the first orphan in node order).
        """
        paths = list(paths)
        try:
            joined = "".join(paths)
        except TypeError:  # a path that is not a string
            joined = None
        if joined is None or (joined and not (joined.isascii() and joined.isdigit())):
            for p in paths:
                if not isinstance(p, str) or (p and not (p.isascii() and p.isdigit())):
                    raise ValueError(f"node path {p!r} is not a string over '0'..'9'")
        node_set = set(paths)
        if ROOT not in node_set:
            raise ValueError('node list must contain the root ""')
        nodes = tuple(sorted(sorted(node_set), key=len))  # stable: by (len, path)
        index = dict(zip(nodes, range(len(nodes))))
        try:
            parent = [index[p[:-1]] for p in nodes[1:]]
        except KeyError:
            p = next(p for p in nodes[1:] if p[:-1] not in index)
            raise ValueError(f"node {p!r} has no parent {p[:-1]!r} in the node list") from None
        parent = _freeze([-1, *parent], dtype=np.intp)
        depth = len(nodes[-1]) + 1
        # Regular: every node before the first leaf has the same children
        # count, and that first leaf (hence every leaf) is at the deepest level.
        counts = np.bincount(parent[1:], minlength=len(nodes))
        first_leaf = int(np.argmin(counts))
        regular = depth > 1 and len(nodes[first_leaf]) == depth - 1 and (counts[:first_leaf] == counts[0]).all()
        return HmtTopology(parent, depth, int(counts[0]) if regular else None, nodes)

    def __eq__(self, other):
        """Equal `parent` arrays and, if either side carries labels, equal `nodes`."""
        if not isinstance(other, HmtTopology):
            return NotImplemented
        return np.array_equal(self.parent, other.parent) and (self.labels is other.labels is None or self.nodes == other.nodes)

    def __hash__(self):
        return hash(self.parent.tobytes())

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @cached_property
    def nodes(self) -> tuple[str, ...]:
        """Every node path in node order: the `labels`, or else spelled on first read."""
        if self.labels is not None:
            return self.labels
        rank = np.arange(self.n_nodes) - np.searchsorted(self.parent, self.parent)
        paths = [ROOT]
        for p, r in zip(self.parent[1:].tolist(), rank[1:].tolist()):
            paths.append(paths[p] + PATH_ALPHABET[r])
        return tuple(paths)

    def path(self, j: int) -> str:
        """Node j's label, or else its path spelled by walking up ``parent[j] = (j - 1) // arity``."""
        j = range(self.n_nodes)[j]
        if self.labels is not None:
            return self.labels[j]
        if self.regular_arity == 1:  # a chain, the one regular tree deeper than 20 levels
            return PATH_ALPHABET[0] * j
        digits = []
        while j:
            j, digit = divmod(j - 1, self.regular_arity)
            digits.append(PATH_ALPHABET[digit])
        return "".join(reversed(digits))

    @cached_property
    def level_offsets(self) -> np.ndarray:
        """Level L holds the nodes ``level_offsets[L]:level_offsets[L + 1]``.

        A chain's are ``0..n``.  Any other tree's follow from the sorted
        `parent` array: the children of the level starting at ``o`` begin
        where ``parent`` first reaches that level's end, so each next offset
        is one binary search: at most 20 for a regular tree of two or more
        children, whose `MAX_NODES` nodes fit in 20 levels.
        """
        if self.regular_arity == 1:
            return _freeze(np.arange(self.n_nodes + 1), dtype=np.intp)
        offsets = [0, 1]
        while offsets[-1] < self.n_nodes:
            offsets.append(int(np.searchsorted(self.parent, offsets[-1])))
        return _freeze(offsets, dtype=np.intp)

    @cached_property
    def index(self) -> dict[str, int]:
        """Breadth-first index of every node path, built on first use by the path accessors."""
        return {p: j for j, p in enumerate(self.nodes)}


@dataclass(frozen=True, eq=False)
class DiscreteEmission:
    """Per-state distribution over a finite symbol alphabet; `matrix` is d x m.

    A stack of per-node specs holds an n x d x m `matrix`, node axis first.
    """

    matrix: np.ndarray

    kind = "discrete"

    def __post_init__(self):
        m = _freeze(self.matrix)
        if m.ndim < 2:  # np.atleast_2d costs more than this test on a matrix
            m = np.atleast_2d(m)
        if m.ndim > 3:
            raise ValueError("emission matrix must be two-dimensional (three-dimensional for a stack)")
        object.__setattr__(self, "matrix", m)

    @property
    def n_states(self) -> int:
        return self.matrix.shape[-2]

    @property
    def n_symbols(self) -> int:
        return self.matrix.shape[-1]

    @property
    def stacked(self) -> bool:
        return self.matrix.ndim == 3

    def for_nodes(self, index) -> "DiscreteEmission":
        """Entries `index` (an int or a slice) of a stack; a shared spec serves every node."""
        return DiscreteEmission(self.matrix[index]) if self.stacked else self


@dataclass(frozen=True, eq=False)
class GaussianEmission:
    """Per-state Gaussian emission with mean `means[s]` and standard deviation `sds[s]`.

    A stack of per-node specs holds n x d `means` and `sds`, node axis first.
    """

    means: np.ndarray
    sds: np.ndarray

    kind = "gaussian"

    def __post_init__(self):
        means, sds = _freeze(self.means), _freeze(self.sds)
        if means.ndim == 0 or sds.ndim == 0:
            means, sds = np.atleast_1d(means), np.atleast_1d(sds)
        if means.shape != sds.shape or means.ndim > 2:
            raise ValueError("means and sds must be one-dimensional and of equal length")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)

    @property
    def n_states(self) -> int:
        return self.means.shape[-1]

    @property
    def stacked(self) -> bool:
        return self.means.ndim == 2

    def for_nodes(self, index) -> "GaussianEmission":
        """Entries `index` (an int or a slice) of a stack; a shared spec serves every node."""
        return GaussianEmission(self.means[index], self.sds[index]) if self.stacked else self


EmissionSpec = Union[DiscreteEmission, GaussianEmission]


def _as_square_matrix(value, d, what):
    m = _freeze(value)
    if m.shape != (d, d):
        raise ValueError(f"{what} must have shape ({d}, {d}), got {m.shape}")
    return m


def _check_emission(spec, d, what):
    if not isinstance(spec, (DiscreteEmission, GaussianEmission)):
        raise ValueError(f"{what} must be a DiscreteEmission or GaussianEmission")
    if spec.stacked:
        raise ValueError(f"{what} must be one spec, not a stack")
    if spec.n_states != d:
        raise ValueError(f"{what} covers {spec.n_states} states, model has {d}")
    return spec


def _stack_specs(specs) -> EmissionSpec:
    """One stacked spec from single specs of one kind, in the given order."""
    if specs[0].kind == "discrete":
        return DiscreteEmission(np.asarray([s.matrix for s in specs]))
    return GaussianEmission(np.asarray([s.means for s in specs]), np.asarray([s.sds for s in specs]))


def _stack_lists(items, shape):
    """`items`, nested lists of numbers as a JSON document gives them, as one
    float array of `shape`, or None when they are not exactly that.

    The lists are checked level by level in C (every entry a list of the
    expected length) and the numbers read in one ``np.fromiter`` pass, which
    converts each one with ``float()`` as ``np.asarray(..., dtype=float)``
    does.  Any other type, any other length and any number ``float()``
    refuses give None, and the caller takes its general path.
    """
    level = items
    for size in shape[1:]:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    try:
        return np.fromiter(level, float, count=math.prod(shape)).reshape(shape)
    except (TypeError, ValueError, OverflowError):
        return None


def _transition_stack(transitions, topology, d) -> np.ndarray:
    """The shared (d, d) matrix, or the (n_nodes - 1, d, d) stack in node order.

    A mapping is read in one pass (`_stack_lists`); one that pass refuses
    is read matrix by matrix in node order, which names the first malformed
    node.
    """
    shape = (topology.n_nodes - 1, d, d)
    if isinstance(transitions, Mapping):
        paths = topology.nodes[1:]
        if set(transitions) != set(paths):
            raise ValueError("per-node transitions must cover exactly the non-root nodes")
        matrices = [transitions[p] for p in paths]
        stack = _stack_lists(matrices, shape)
        if stack is None:
            # name the first malformed node, in node order
            stack = np.asarray([_as_square_matrix(m, d, f"transition at node {p!r}") for p, m in zip(paths, matrices)])
            stack = stack.reshape(shape)
        return _freeze(stack)
    stack = np.asarray(transitions, dtype=float)
    if stack.ndim == 3:
        if stack.shape != shape:
            raise ValueError(f"transition stack must have shape {shape}, got {stack.shape}")
        return _freeze(stack)
    return _as_square_matrix(stack, d, "transition")


def _emission_stack(emissions, topology, d) -> EmissionSpec:
    """The shared spec, or one spec stacked over every node in node order."""
    if isinstance(emissions, Mapping):
        if set(emissions) != set(topology.nodes):
            raise ValueError("per-node emissions must cover exactly the node set")
        specs = [_check_emission(emissions[p], d, f"emission at node {p!r}") for p in topology.nodes]
        if len({s.kind for s in specs}) != 1:
            raise ValueError("all nodes must share the same emission kind")
        if len({s.n_symbols for s in specs if s.kind == "discrete"}) > 1:
            raise ValueError("all nodes must share the same alphabet size")
        return _stack_specs(specs)
    if isinstance(emissions, (DiscreteEmission, GaussianEmission)) and emissions.stacked:
        arrays = (emissions.matrix,) if emissions.kind == "discrete" else (emissions.means,)
        if arrays[0].shape[0] != topology.n_nodes or emissions.n_states != d:
            raise ValueError(f"emission stack must cover {topology.n_nodes} nodes and {d} states")
        return emissions
    return _check_emission(emissions, d, "emission")


class _NodeView(Mapping):
    """Read-only path-keyed view of one per-node stack.

    Keys are the node paths from position `first` of the topology's node
    order on; the value of node j is ``item(j - first)``.
    """

    def __init__(self, topology: HmtTopology, first: int, item):
        self._topology = topology
        self._first = first
        self._item = item

    def __getitem__(self, path):
        j = self._topology.index.get(path, -1) if isinstance(path, str) else -1
        if j < self._first:
            raise KeyError(path)
        return self._item(j - self._first)

    def __iter__(self):
        return iter(self._topology.nodes[self._first :])

    def __len__(self) -> int:
        return self._topology.n_nodes - self._first


class HmtModel:
    """Hidden Markov tree: topology plus initial law, transitions and emissions.

    `transitions` is one shared d x d row-stochastic matrix, an
    ``(n_nodes - 1, d, d)`` stack in node order, or a mapping from every
    non-root node path to the matrix on the edge entering that node.
    `emissions` is one shared emission spec, a spec stacked over all n_nodes
    in node order, or a mapping from every node path (including the root) to
    its spec.  Mappings are stacked in node order on construction.  The model
    is homogeneous when both are shared.

    The parameters live in `transition_stack` (the stack, or the one shared
    matrix) and `emission_stack` (the stacked spec, or the one shared spec).
    `transitions` and `emissions` return the shared parameter or a read-only
    path-keyed view of the stack.
    """

    def __init__(self, topology: HmtTopology, initial, transitions, emissions):
        initial = _freeze(initial)
        if initial.ndim == 0:
            initial = np.atleast_1d(initial)
        if initial.ndim != 1:
            raise ValueError("initial must be a vector")
        d = initial.shape[0]
        object.__setattr__(self, "topology", topology)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition_stack", _transition_stack(transitions, topology, d))
        object.__setattr__(self, "emission_stack", _emission_stack(emissions, topology, d))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def homogeneous(self) -> bool:
        return self.transition_stack.ndim == 2 and not self.emission_stack.stacked

    @property
    def emission_kind(self) -> str:
        return self.emission_stack.kind

    @property
    def transitions(self) -> Union[np.ndarray, Mapping[str, np.ndarray]]:
        """The shared matrix, or a read-only mapping from non-root path to matrix."""
        if self.transition_stack.ndim == 2:
            return self.transition_stack
        return _NodeView(self.topology, 1, self.transition_stack.__getitem__)

    @property
    def emissions(self) -> Union[EmissionSpec, Mapping[str, EmissionSpec]]:
        """The shared spec, or a read-only mapping from node path to spec."""
        if not self.emission_stack.stacked:
            return self.emission_stack
        return _NodeView(self.topology, 0, self.emission_stack.for_nodes)

    def transition(self, path: str) -> np.ndarray:
        """Transition matrix on the edge entering `path` (a non-root node)."""
        if path == ROOT:
            raise ValueError("the root has no incoming transition")
        if self.transition_stack.ndim == 2:
            return self.transition_stack
        return self.transitions[path]

    def emission(self, path: str) -> EmissionSpec:
        if not self.emission_stack.stacked:
            return self.emission_stack
        return self.emissions[path]


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Homogeneous hidden Markov chain of the given length."""

    length: int
    initial: np.ndarray
    transition: np.ndarray
    emission: EmissionSpec

    def __post_init__(self):
        try:
            length = int(self.length)
        except (TypeError, ValueError, OverflowError):
            length = None
        if length is None or length != self.length:
            raise ValueError(f"length must be an integer, got {self.length!r}")
        if length < 1:
            raise ValueError("length must be >= 1")
        object.__setattr__(self, "length", length)
        initial = _freeze(self.initial)
        if initial.ndim == 0:
            initial = np.atleast_1d(initial)
        if initial.ndim != 1:
            raise ValueError("initial must be a vector")
        object.__setattr__(self, "initial", initial)
        d = initial.shape[0]
        object.__setattr__(self, "transition", _as_square_matrix(self.transition, d, "transition"))
        _check_emission(self.emission, d, "emission")

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def emission_kind(self) -> str:
        return self.emission.kind

    def as_tree(self) -> HmtModel:
        """The equivalent chain-shaped tree (one hidden child per node)."""
        return HmtModel(
            topology=HmtTopology.regular(self.length, 1),
            initial=self.initial,
            transitions=self.transition,
            emissions=self.emission,
        )

    def with_length(self, length: int) -> "HmmModel":
        """Copy of this model with a different chain length."""
        return HmmModel(length=length, initial=self.initial, transition=self.transition, emission=self.emission)


@dataclass(frozen=True, eq=False)
class Evidence:
    """A fully observed symbol sequence, stored with 0-based symbol indices."""

    symbols: np.ndarray

    def __post_init__(self):
        symbols = np.atleast_1d(np.asarray(self.symbols, dtype=np.int64))
        if symbols.ndim != 1:
            raise ValueError("evidence must be a flat sequence")
        if symbols.size and symbols.min() < 0:
            raise ValueError("internal symbol indices must be >= 0")
        object.__setattr__(self, "symbols", _freeze(symbols, dtype=np.int64))

    @staticmethod
    def from_external(symbols) -> "Evidence":
        """Build from 1-based external symbol labels."""
        arr = np.atleast_1d(np.asarray(symbols, dtype=np.int64))
        if arr.size and arr.min() < 1:
            raise ValueError("external symbol labels are 1-based")
        return Evidence(arr - 1)

    @property
    def external(self) -> np.ndarray:
        return self.symbols + 1

    def __len__(self) -> int:
        return self.symbols.shape[0]

    def truncated(self, n: int) -> "Evidence":
        """The first n symbols, for n in 0..len(self)."""
        if not 0 <= n <= len(self):
            raise ValueError(f"cannot truncate evidence of length {len(self)} to {n}")
        return Evidence(self.symbols[:n])


def check_emissions(e1: EmissionSpec, e0: EmissionSpec) -> None:
    """Raise ValueError unless the two emission specs share kind, state count and alphabet."""
    if e1.kind != e0.kind:
        raise ValueError(f"emission kind mismatch: {e1.kind} vs {e0.kind}")
    if e1.n_states != e0.n_states:
        raise ValueError(f"emission state count mismatch: {e1.n_states} vs {e0.n_states}")
    if isinstance(e1, DiscreteEmission) and e1.n_symbols != e0.n_symbols:
        raise ValueError(f"alphabet size mismatch: {e1.n_symbols} vs {e0.n_symbols}")


def check_pair(m1: Union[HmmModel, HmtModel], m0: Union[HmmModel, HmtModel], kind: type | None = None) -> None:
    """Raise ValueError unless the two models are both chains or both trees,
    of `kind` (`HmmModel` or `HmtModel`) when it is given, and share a length
    (chains) or a topology (trees), a state count and an emission kind and
    alphabet: the pairs between which the divergence is defined."""
    if type(m1) is not type(m0):
        raise ValueError(f"model type mismatch: {type(m1).__name__} vs {type(m0).__name__}")
    if kind is not None and type(m1) is not kind:
        raise ValueError(f"expected a pair of {kind.__name__}, got a pair of {type(m1).__name__}")
    if isinstance(m1, HmmModel):
        if m1.length != m0.length:
            raise ValueError(f"length mismatch: {m1.length} vs {m0.length}")
        e1, e0 = m1.emission, m0.emission
    else:
        if m1.topology != m0.topology:
            raise ValueError("models must share the same topology")
        e1, e0 = m1.emission_stack, m0.emission_stack
    if m1.n_states != m0.n_states:
        raise ValueError(f"state count mismatch: {m1.n_states} vs {m0.n_states}")
    check_emissions(e1, e0)


def check_evidence(model: HmmModel, evidence: Evidence) -> None:
    """Raise ValueError unless the evidence fits the model's length and alphabet."""
    if model.emission_kind != "discrete":
        raise ValueError("evidence conditioning requires discrete emissions")
    if len(evidence) != model.length:
        raise ValueError(f"evidence length {len(evidence)} != model length {model.length}")
    m = model.emission.n_symbols
    if evidence.symbols.size and evidence.symbols.max() >= m:
        bad = int(evidence.symbols.max()) + 1
        raise ValueError(f"evidence symbol {bad} outside alphabet 1..{m}")


# ---------------------------------------------------------------------------
# Validation


def _sum_edge(sign: int) -> float:
    """The float farthest from 1 on the side of `sign` whose distance from 1
    is within `STOCH_TOL`; the distance of a float this near 1 is exact."""
    edge = 1.0 + sign * STOCH_TOL
    while abs(edge - 1.0) > STOCH_TOL:
        edge = math.nextafter(edge, 1.0)
    while abs(math.nextafter(edge, sign * math.inf) - 1.0) <= STOCH_TOL:
        edge = math.nextafter(edge, sign * math.inf)
    return edge


#: A row sum s has ``abs(s - 1) <= STOCH_TOL`` exactly when it lies in
#: ``[_SUM_LO, _SUM_HI]``; NaN lies in neither comparison.
_SUM_LO, _SUM_HI = _sum_edge(-1), _sum_edge(1)

_least, _largest, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce


def _parameters(model):
    """The initial law, the transition stack (or shared matrix) and the
    emission spec (stacked or shared) of a chain or a tree."""
    if isinstance(model, HmmModel):
        return model.initial, model.transition, model.emission
    return model.initial, model.transition_stack, model.emission_stack


def _valid(model) -> bool:
    """Whether `_report` would find nothing, decided in one pass over all of
    the model's parameters with a few ufunc reductions and no report.

    The least entry of every stochastic parameter is read first: one that is
    negative or NaN ends the pass, so the row sums after it never add -inf
    to +inf.  Each row-sum array then needs only its least and largest value
    inside ``[_SUM_LO, _SUM_HI]``.  Empty arrays (a one-node tree's
    transition stack) pass, as in the report.
    """
    initial, transitions, spec = _parameters(model)
    discrete = spec.kind == "discrete"
    stochastic = (initial, transitions, spec.matrix) if discrete else (initial, transitions)
    for array in stochastic:
        if not _least(array, None, initial=0.0) >= 0:
            return False
    if not _SUM_LO <= _sum(initial) <= _SUM_HI:
        return False
    for array in stochastic[1:]:
        sums = _sum(array, -1)
        if not (_SUM_LO <= _least(sums, None, initial=1.0) and _largest(sums, None, initial=1.0) <= _SUM_HI):
            return False
    if discrete:
        return True
    means, sds = spec.means, spec.sds
    return bool(
        -math.inf < _least(means, None, initial=0.0)
        and _largest(means, None, initial=0.0) < math.inf
        and 0 < _least(sds, None, initial=1.0)
        and _largest(sds, None, initial=1.0) < math.inf
    )


def _check_rows(stack, label, problems):
    """Report rows of an (n, rows, m) stack that have a negative entry or do
    not sum to 1, in (node, row) order; ``label(i)`` names entry i.

    Runs inside `_report`'s ``np.errstate``: a row holding both infinities
    is reported as summing to nan, without a warning.
    """
    sums = stack.sum(axis=-1)
    negative = (stack < 0).any(axis=-1)
    off = ~(np.abs(sums - 1.0) <= STOCH_TOL)  # NaN sums are off too
    for i, r in zip(*np.nonzero(negative | off)):
        if negative[i, r]:
            problems.append(f"{label(i)} row {r + 1} has a negative entry")
        if off[i, r]:
            problems.append(f"{label(i)} row {r + 1} sums to {float(sums[i, r]):.12g}")


def _check_vector(vector, problems, label):
    """`_check_rows` for one vector named `label`; also inside `_report`'s
    ``np.errstate``."""
    total = float(vector.sum())
    if (vector < 0).any():
        problems.append(f"{label} has a negative entry")
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=STOCH_TOL):
        problems.append(f"{label} sums to {total:.12g}")


def _check_gaussian(means, sds, label, problems):
    """Report non-finite means and non-positive or infinite sds of (n, d)
    stacks, in (node, state) order, the mean before the sd of each state."""
    bad_mean = ~np.isfinite(means)
    nonpositive = ~(sds > 0)
    infinite = np.isposinf(sds)
    for i, s in zip(*np.nonzero(bad_mean | nonpositive | infinite)):
        if bad_mean[i, s]:
            problems.append(f"{label(i)} mean for state {s + 1} is not finite")
        if nonpositive[i, s]:
            problems.append(f"{label(i)} sd for state {s + 1} is not positive")
        elif infinite[i, s]:
            problems.append(f"{label(i)} sd for state {s + 1} is not finite")


def _report(model) -> list[str]:
    """Every violated invariant, row by row: the initial law, then the
    transitions, then the emissions, node by node.  The sums run under
    ``np.errstate``, so a row holding both infinities is reported as summing
    to nan, and one whose sum overflows as summing to inf, without a NumPy
    warning."""
    problems: list[str] = []
    initial, transitions, spec = _parameters(model)
    path = None if isinstance(model, HmmModel) else cache(model.topology.path)

    def emission(i):
        return f"emission at node {path(i)!r}" if spec.stacked else "emission"

    with np.errstate(invalid="ignore", over="ignore"):
        _check_vector(initial, problems, "initial")
        if transitions.ndim == 2:
            _check_rows(transitions[None], lambda i: "transition", problems)
        else:
            _check_rows(transitions, lambda i: f"transition at node {path(i + 1)!r}", problems)
        if spec.kind == "discrete":
            matrix = spec.matrix if spec.stacked else spec.matrix[None]
            _check_rows(matrix, lambda i: f"{emission(i)} matrix", problems)
        else:
            means, sds = (spec.means, spec.sds) if spec.stacked else (spec.means[None], spec.sds[None])
            _check_gaussian(means, sds, emission, problems)
    return problems


def validate(model) -> list[str]:
    """Report violated probabilistic invariants; an empty list means valid.

    Stochasticity is checked at absolute tolerance 1e-12 and is never repaired
    silently.  The report lists the initial law, then the transitions, then
    the emissions, node by node and row by row.

    A valid model costs one pass over all of its parameters (`_valid`): the
    least entry of each stochastic parameter, then the least and largest row
    sum, and for Gaussian emissions the extremes of the means and sds, each
    one ufunc reduction, under no ``np.errstate``.  The per-row masks and
    the report lines (`_report`) are built only for a model that fails that
    pass.
    """
    return [] if _valid(model) else _report(model)


# ---------------------------------------------------------------------------
# JSON document format


def _require(doc, key, kinds, context):
    if key not in doc:
        raise ModelFormatError(f"{context}: missing required key {key!r}")
    value = doc[key]
    # JSON true and false decode to bool, an int subclass, but are no numbers
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ModelFormatError(f"{context}: key {key!r} has unexpected type {type(value).__name__}")
    return value


def _parse_emission_spec(obj, alphabet, context):
    kind = _require(obj, "kind", str, context)
    if kind == "discrete":
        if alphabet == "gaussian":
            raise ModelFormatError(f"{context}: discrete emission under gaussian alphabet")
        matrix = _require(obj, "matrix", list, context)
        spec = DiscreteEmission(matrix)
        if spec.stacked:
            raise ModelFormatError(f"{context}: emission matrix must be two-dimensional")
        if spec.n_symbols != alphabet:
            raise ModelFormatError(f"{context}: emission matrix has {spec.n_symbols} columns, alphabet is {alphabet}")
        return spec
    if kind == "gaussian":
        if alphabet != "gaussian":
            raise ModelFormatError(f'{context}: gaussian emission requires "alphabet": "gaussian"')
        spec = GaussianEmission(_require(obj, "means", list, context), _require(obj, "sds", list, context))
        if spec.stacked:
            raise ModelFormatError(f"{context}: means and sds must be one-dimensional")
        return spec
    raise ModelFormatError(f"{context}: unknown emission kind {kind!r}")


def _parse_emission_stack(raw, nodes, alphabet, d) -> EmissionSpec:
    """One spec stacked over `nodes`, in that order, from a per-node emission object.

    When every entry is an object of the document's emission kind, each
    parameter is read in one pass over the nodes' lists (`_stack_lists`).
    When that does not give every parameter, each entry goes through the
    per-node parser in node order, which names the first malformed node.
    """
    if set(raw) != set(nodes):
        raise ValueError("per-node emissions must cover exactly the node set")
    kind = "gaussian" if alphabet == "gaussian" else "discrete"
    keys = ("means", "sds") if kind == "gaussian" else ("matrix",)
    shape = (len(nodes), d) if kind == "gaussian" else (len(nodes), d, alphabet)
    entries = [raw[p] for p in nodes]
    if all(type(e) is dict and e.get("kind") == kind for e in entries):
        arrays = [_stack_lists([e.get(k) for e in entries], shape) for k in keys]
        if all(a is not None for a in arrays):
            return DiscreteEmission(*arrays) if kind == "discrete" else GaussianEmission(*arrays)
    specs = []
    for p in nodes:
        context = f"emission at node {p!r}"
        spec = _parse_emission_spec(_require(raw, p, dict, context), alphabet, context)
        specs.append(_check_emission(spec, d, context))
    return _stack_specs(specs)


#: Guards the two below: the loads in flight and the collector state the
#: first of them found.  The collector is paused while any load runs.
_gc_lock = threading.Lock()
_gc_loads = 0
_gc_was_enabled = False


class _collector_paused:
    """Pause the cyclic garbage collector for a ``with`` block.

    Entering and leaving are one counter update each under `_gc_lock`.
    Pauses nest across threads: the first block to enter saves the
    collector's state and disables it, and the last to leave restores that
    state, so concurrent loads cannot leave it switched off.
    """

    __slots__ = ()

    def __enter__(self):
        global _gc_loads, _gc_was_enabled
        with _gc_lock:
            if _gc_loads == 0:
                _gc_was_enabled = gc.isenabled()
                gc.disable()
            _gc_loads += 1

    def __exit__(self, *exc_info):
        global _gc_loads
        with _gc_lock:
            _gc_loads -= 1
            if _gc_loads == 0 and _gc_was_enabled:
                gc.enable()


def load_model(document: str):
    """Parse a UTF-8 JSON model document into an HmmModel or HmtModel.

    Each parameter list is converted to a float array once, by the
    constructor that keeps it.  Per-node tree parameters are read
    straight into stacks in node order, each in one pass over the
    document's lists.  The model is then checked by `validate`, whose
    whole-model pass builds no report for a valid one.

    Python's cyclic garbage collector is paused during the call: a decoded
    document holds no cycles, so each collection over its many lists would
    be wasted work.  The collector state found on entry is restored on
    return, once the document is freed, and on error; concurrent loads share
    one pause, which the last of them ends (`_collector_paused`, two counter
    updates under a lock).

    Raises ModelFormatError on malformed documents (a ``depth``/``children``
    pair describing more than `MAX_NODES` nodes, an integer too large for a
    float and arrays nested past the decoder's recursion limit, included)
    and ModelValidationError (with the full report) when the parsed model
    violates an invariant.
    """
    with _collector_paused():
        return _load_document(document)  # the document dies with its frame


def _load_document(document: str):
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the interpreter's recursion limit
        raise ModelFormatError("JSON is nested too deeply to decode") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("top-level JSON value must be an object")

    mtype = _require(doc, "type", str, "model")
    d = _require(doc, "states", int, "model")
    alphabet = _require(doc, "alphabet", (int, str), "model")
    if isinstance(alphabet, str) and alphabet != "gaussian":
        raise ModelFormatError(f'model: alphabet must be a positive integer or "gaussian", got {alphabet!r}')
    if isinstance(alphabet, int) and alphabet < 1:
        raise ModelFormatError("model: alphabet size must be >= 1")
    if d < 1:
        raise ModelFormatError("model: states must be >= 1")
    initial = _require(doc, "initial", list, "model")
    if len(initial) != d:
        raise ModelFormatError(f"model: initial has length {len(initial)}, states is {d}")

    try:
        if mtype == "hmm":
            length = _require(doc, "length", int, "hmm model")
            transition = _require(doc, "transition", list, "hmm model")
            emission = _parse_emission_spec(_require(doc, "emission", dict, "hmm model"), alphabet, "hmm model")
            model = HmmModel(length=length, initial=initial, transition=transition, emission=emission)
        elif mtype == "hmt":
            if "nodes" in doc:
                topology = HmtTopology.from_nodes(_require(doc, "nodes", list, "hmt model"))
            else:
                depth = _require(doc, "depth", int, "hmt model")
                children = _require(doc, "children", int, "hmt model")
                topology = HmtTopology.regular(depth, children)
            transitions = _require(doc, "transition", (list, dict), "hmt model")
            raw_emis = _require(doc, "emission", dict, "hmt model")
            if "kind" in raw_emis:
                emissions = _parse_emission_spec(raw_emis, alphabet, "hmt model")
            else:
                emissions = _parse_emission_stack(raw_emis, topology.nodes, alphabet, d)
            model = HmtModel(topology=topology, initial=initial, transitions=transitions, emissions=emissions)
        else:
            raise ModelFormatError(f'model: type must be "hmm" or "hmt", got {mtype!r}')
    # TypeError: a non-numeric JSON value inside a parameter list;
    # OverflowError: an integer too large for a float
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"model: {exc}") from exc

    if model.n_states != d:
        raise ModelFormatError(f"model: states is {d} but parameters describe {model.n_states} states")
    if model.emission_kind == "discrete" and isinstance(alphabet, str):
        raise ModelFormatError("model: discrete emissions under gaussian alphabet")

    report = validate(model)
    if report:
        raise ModelValidationError(report)
    return model


def _emission_doc(spec):
    if spec.kind == "discrete":
        return {"kind": "discrete", "matrix": spec.matrix.tolist()}
    return {"kind": "gaussian", "means": spec.means.tolist(), "sds": spec.sds.tolist()}


def save_model(model) -> str:
    """Serialize a model back to the JSON document format.

    Floats are written in their shortest round-tripping form, so
    ``load_model(save_model(m))`` reproduces every probability bit for bit.
    """
    if isinstance(model, HmmModel):
        alphabet = model.emission.n_symbols if model.emission_kind == "discrete" else "gaussian"
        doc = {
            "type": "hmm",
            "states": model.n_states,
            "alphabet": alphabet,
            "length": model.length,
            "initial": model.initial.tolist(),
            "transition": model.transition.tolist(),
            "emission": _emission_doc(model.emission),
        }
    elif isinstance(model, HmtModel):
        spec = model.emission_stack
        alphabet = spec.n_symbols if spec.kind == "discrete" else "gaussian"
        doc = {"type": "hmt", "states": model.n_states, "alphabet": alphabet}
        topology = model.topology
        if topology.regular_arity and topology == HmtTopology.regular(topology.depth, topology.regular_arity):
            doc["depth"] = topology.depth
            doc["children"] = topology.regular_arity
        else:
            doc["nodes"] = list(topology.nodes)
        doc["initial"] = model.initial.tolist()
        if model.transition_stack.ndim == 3:
            doc["transition"] = dict(zip(topology.nodes[1:], model.transition_stack.tolist()))
        else:
            doc["transition"] = model.transition_stack.tolist()
        if spec.stacked:
            doc["emission"] = {p: _emission_doc(spec.for_nodes(j)) for j, p in enumerate(topology.nodes)}
        else:
            doc["emission"] = _emission_doc(spec)
    else:
        raise ValueError(f"cannot serialize {type(model).__name__}")
    return json.dumps(doc, indent=2) + "\n"


def load_evidence(text: str) -> Evidence:
    """Parse whitespace-separated 1-based symbol indices."""
    tokens = text.split()
    if not tokens:
        raise ModelFormatError("evidence file contains no symbols")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise ModelFormatError(f"evidence file: {exc}") from exc
    if min(values) < 1:
        raise ModelFormatError("evidence symbols are 1-based and must be >= 1")
    largest = max(values)
    if largest > np.iinfo(np.int64).max:
        raise ModelFormatError(f"evidence symbol {tokens[values.index(largest)]} is too large")
    return Evidence.from_external(values)
