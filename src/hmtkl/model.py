"""Domain types for hidden Markov trees and chains, plus the JSON model format.

Inside the engine a hidden node is its breadth-first index: position j in the
topology's node order, where node 0 is the root and ``parent[j]`` is the index
of node j's parent.  Digit-string paths are the labels of the JSON format and
of per-node parameter mappings: the root is ``""``, ``"0"`` is its first
child, ``"01"`` the second child of that node, and so on.  A path digit caps a
node at 10 children; that limit belongs to the labels, not to the engine.
Each hidden node carries one observable emission.  A hidden Markov chain (HMM)
is the special case in which every node has exactly one hidden child.

State and symbol labels are 1-based in documents and messages, 0-based in
arrays.  Models are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .errors import ModelFormatError, ModelValidationError

ROOT = ""
PATH_ALPHABET = "0123456789"

#: Row sums of stochastic vectors/matrices must match 1 within this tolerance.
STOCH_TOL = 1e-12


def _freeze(array, dtype=float):
    out = np.asarray(array, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class HmtTopology:
    """Shape of a hidden Markov tree.

    Parameters
    ----------
    nodes : tuple of str
        Every hidden node path, sorted by (depth, path).  Contains ``""``.
    depth : int
        Number of hidden levels; leaves sit at level ``depth - 1``.
    regular_arity : int or None
        C when every internal node has exactly C children and all leaves are
        at the deepest level; None otherwise (or when undecidable at depth 1).
    parent : read-only int array
        ``parent[j]`` is the index in `nodes` of node j's parent, and
        ``parent[0] = -1``.  The array is non-decreasing, so the children of
        node j are the contiguous index range where ``parent == j``, in path
        order.
    """

    nodes: tuple[str, ...]
    depth: int
    regular_arity: int | None
    parent: np.ndarray = field(compare=False, repr=False)

    @staticmethod
    def _from_sorted(nodes: tuple[str, ...]) -> "HmtTopology":
        """Topology over paths in (depth, path) order; derives `parent` and the arity."""
        index = {p: j for j, p in enumerate(nodes)}
        parent = [-1]
        for p in nodes[1:]:
            if p[:-1] not in index:
                raise ValueError(f"node {p!r} has no parent {p[:-1]!r} in the node list")
            parent.append(index[p[:-1]])
        parent = _freeze(parent, dtype=np.intp)
        depth = len(nodes[-1]) + 1
        # Regular: every node before the first leaf has the same children
        # count, and that first leaf (hence every leaf) is at the deepest level.
        counts = np.bincount(parent[1:], minlength=len(nodes))
        first_leaf = int(np.argmin(counts))
        regular = depth > 1 and len(nodes[first_leaf]) == depth - 1 and (counts[:first_leaf] == counts[0]).all()
        return HmtTopology(nodes, depth, int(counts[0]) if regular else None, parent)

    @staticmethod
    def regular(depth: int, children: int) -> "HmtTopology":
        """Complete tree of the given depth where every node has `children` children."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if children < 1 or children > len(PATH_ALPHABET):
            raise ValueError(f"children count must be in 1..{len(PATH_ALPHABET)}")
        levels = [[ROOT]]
        for _ in range(depth - 1):
            levels.append([p + PATH_ALPHABET[c] for p in levels[-1] for c in range(children)])
        return HmtTopology._from_sorted(tuple(p for level in levels for p in level))

    @staticmethod
    def from_nodes(paths) -> "HmtTopology":
        """Topology from an explicit node list; parents of every path must be present."""
        node_set = set()
        for p in paths:
            if not isinstance(p, str) or any(c not in PATH_ALPHABET for c in p):
                raise ValueError(f"node path {p!r} is not a string over '0'..'9'")
            node_set.add(p)
        if ROOT not in node_set:
            raise ValueError('node list must contain the root ""')
        return HmtTopology._from_sorted(tuple(sorted(node_set, key=lambda p: (len(p), p))))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class DiscreteEmission:
    """Per-state distribution over a finite symbol alphabet; `matrix` is d x m."""

    matrix: np.ndarray

    kind = "discrete"

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.ndim != 2:
            raise ValueError("emission matrix must be two-dimensional")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class GaussianEmission:
    """Per-state Gaussian emission with mean `means[s]` and standard deviation `sds[s]`."""

    means: np.ndarray
    sds: np.ndarray

    kind = "gaussian"

    def __post_init__(self):
        means = np.atleast_1d(np.asarray(self.means, dtype=float))
        sds = np.atleast_1d(np.asarray(self.sds, dtype=float))
        if means.shape != sds.shape or means.ndim != 1:
            raise ValueError("means and sds must be one-dimensional and of equal length")
        object.__setattr__(self, "means", _freeze(means))
        object.__setattr__(self, "sds", _freeze(sds))

    @property
    def n_states(self) -> int:
        return self.means.shape[0]


EmissionSpec = Union[DiscreteEmission, GaussianEmission]


def _as_square_matrix(value, d, what):
    m = np.asarray(value, dtype=float)
    if m.shape != (d, d):
        raise ValueError(f"{what} must have shape ({d}, {d}), got {m.shape}")
    return _freeze(m)


def _check_emission(spec, d, what):
    if not isinstance(spec, (DiscreteEmission, GaussianEmission)):
        raise ValueError(f"{what} must be a DiscreteEmission or GaussianEmission")
    if spec.n_states != d:
        raise ValueError(f"{what} covers {spec.n_states} states, model has {d}")
    return spec


@dataclass(frozen=True, eq=False)
class HmtModel:
    """Hidden Markov tree: topology plus initial law, transitions and emissions.

    `transitions` is either one shared d x d row-stochastic matrix or a mapping
    from every non-root node path to the matrix on the edge entering that node.
    `emissions` is either one shared emission spec or a mapping from every node
    path (including the root) to its spec.  The model is homogeneous when both
    are shared.
    """

    topology: HmtTopology
    initial: np.ndarray
    transitions: Union[np.ndarray, Mapping[str, np.ndarray]]
    emissions: Union[EmissionSpec, Mapping[str, EmissionSpec]]

    def __post_init__(self):
        initial = np.atleast_1d(np.asarray(self.initial, dtype=float))
        if initial.ndim != 1:
            raise ValueError("initial must be a vector")
        object.__setattr__(self, "initial", _freeze(initial))
        d = initial.shape[0]

        if isinstance(self.transitions, Mapping):
            expected = set(self.topology.nodes) - {ROOT}
            if set(self.transitions) != expected:
                raise ValueError("per-node transitions must cover exactly the non-root nodes")
            trans = {p: _as_square_matrix(m, d, f"transition at node {p!r}") for p, m in self.transitions.items()}
            object.__setattr__(self, "transitions", trans)
        else:
            object.__setattr__(self, "transitions", _as_square_matrix(self.transitions, d, "transition"))

        if isinstance(self.emissions, Mapping):
            if set(self.emissions) != set(self.topology.nodes):
                raise ValueError("per-node emissions must cover exactly the node set")
            emis = {p: _check_emission(e, d, f"emission at node {p!r}") for p, e in self.emissions.items()}
            kinds = {e.kind for e in emis.values()}
            if len(kinds) != 1:
                raise ValueError("all nodes must share the same emission kind")
            symbols = {e.n_symbols for e in emis.values() if e.kind == "discrete"}
            if len(symbols) > 1:
                raise ValueError("all nodes must share the same alphabet size")
            object.__setattr__(self, "emissions", emis)
        else:
            object.__setattr__(self, "emissions", _check_emission(self.emissions, d, "emission"))

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def homogeneous(self) -> bool:
        return not isinstance(self.transitions, Mapping) and not isinstance(self.emissions, Mapping)

    @property
    def emission_kind(self) -> str:
        return self.emission(ROOT).kind

    def transition(self, path: str) -> np.ndarray:
        """Transition matrix on the edge entering `path` (a non-root node)."""
        if path == ROOT:
            raise ValueError("the root has no incoming transition")
        if isinstance(self.transitions, Mapping):
            return self.transitions[path]
        return self.transitions

    def emission(self, path: str) -> EmissionSpec:
        if isinstance(self.emissions, Mapping):
            return self.emissions[path]
        return self.emissions


@dataclass(frozen=True, eq=False)
class HmmModel:
    """Homogeneous hidden Markov chain of the given length."""

    length: int
    initial: np.ndarray
    transition: np.ndarray
    emission: EmissionSpec

    def __post_init__(self):
        if int(self.length) < 1:
            raise ValueError("length must be >= 1")
        object.__setattr__(self, "length", int(self.length))
        initial = np.atleast_1d(np.asarray(self.initial, dtype=float))
        object.__setattr__(self, "initial", _freeze(initial))
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
        if n > len(self):
            raise ValueError(f"cannot truncate evidence of length {len(self)} to {n}")
        return Evidence(self.symbols[:n])


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


def _check_rows(matrix, problems, label):
    for r, row in enumerate(np.atleast_2d(matrix)):
        if (row < 0).any():
            problems.append(f"{label} row {r + 1} has a negative entry")
        s = float(row.sum())
        if not math.isclose(s, 1.0, rel_tol=0.0, abs_tol=STOCH_TOL):
            problems.append(f"{label} row {r + 1} sums to {s:.12g}")


def _check_vector(vector, problems, label):
    if (np.asarray(vector) < 0).any():
        problems.append(f"{label} has a negative entry")
    s = float(np.sum(vector))
    if not math.isclose(s, 1.0, rel_tol=0.0, abs_tol=STOCH_TOL):
        problems.append(f"{label} sums to {s:.12g}")


def _check_emission_spec(spec, problems, label):
    if spec.kind == "discrete":
        _check_rows(spec.matrix, problems, f"{label} matrix")
    else:
        for s, (mean, sd) in enumerate(zip(spec.means, spec.sds)):
            if not math.isfinite(mean):
                problems.append(f"{label} mean for state {s + 1} is not finite")
            if not sd > 0:
                problems.append(f"{label} sd for state {s + 1} is not positive")
            elif not math.isfinite(sd):
                problems.append(f"{label} sd for state {s + 1} is not finite")


def validate(model) -> list[str]:
    """Report violated probabilistic invariants; an empty list means valid.

    Stochasticity is checked at absolute tolerance 1e-12 and is never repaired
    silently.
    """
    problems: list[str] = []
    _check_vector(model.initial, problems, "initial")
    if isinstance(model, HmmModel):
        _check_rows(model.transition, problems, "transition")
        _check_emission_spec(model.emission, problems, "emission")
        return problems
    if isinstance(model.transitions, Mapping):
        for path in model.topology.nodes:
            if path != ROOT:
                _check_rows(model.transitions[path], problems, f"transition at node {path!r}")
    else:
        _check_rows(model.transitions, problems, "transition")
    if isinstance(model.emissions, Mapping):
        for path in model.topology.nodes:
            _check_emission_spec(model.emissions[path], problems, f"emission at node {path!r}")
    else:
        _check_emission_spec(model.emissions, problems, "emission")
    return problems


# ---------------------------------------------------------------------------
# JSON document format


def _require(doc, key, kinds, context):
    if key not in doc:
        raise ModelFormatError(f"{context}: missing required key {key!r}")
    value = doc[key]
    if not isinstance(value, kinds):
        raise ModelFormatError(f"{context}: key {key!r} has unexpected type {type(value).__name__}")
    return value


def _parse_emission_spec(obj, alphabet, context):
    kind = _require(obj, "kind", str, context)
    if kind == "discrete":
        if alphabet == "gaussian":
            raise ModelFormatError(f"{context}: discrete emission under gaussian alphabet")
        matrix = _require(obj, "matrix", list, context)
        spec = DiscreteEmission(matrix)
        if spec.n_symbols != alphabet:
            raise ModelFormatError(f"{context}: emission matrix has {spec.n_symbols} columns, alphabet is {alphabet}")
        return spec
    if kind == "gaussian":
        if alphabet != "gaussian":
            raise ModelFormatError(f'{context}: gaussian emission requires "alphabet": "gaussian"')
        return GaussianEmission(_require(obj, "means", list, context), _require(obj, "sds", list, context))
    raise ModelFormatError(f"{context}: unknown emission kind {kind!r}")


def load_model(document: str):
    """Parse a UTF-8 JSON model document into an HmmModel or HmtModel.

    Raises ModelFormatError on malformed documents and ModelValidationError
    (with the full report) when the parsed model violates an invariant.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
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
            raw_trans = _require(doc, "transition", (list, dict), "hmt model")
            transitions = {str(p): v for p, v in raw_trans.items()} if isinstance(raw_trans, dict) else raw_trans
            raw_emis = _require(doc, "emission", dict, "hmt model")
            if "kind" in raw_emis:
                emissions = _parse_emission_spec(raw_emis, alphabet, "hmt model")
            else:
                emissions = {
                    str(p): _parse_emission_spec(
                        _require(raw_emis, p, dict, f"emission at node {p!r}"), alphabet, f"emission at node {p!r}"
                    )
                    for p in raw_emis
                }
            model = HmtModel(topology=topology, initial=initial, transitions=transitions, emissions=emissions)
        else:
            raise ModelFormatError(f'model: type must be "hmm" or "hmt", got {mtype!r}')
    except ValueError as exc:
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
        alphabet = model.emission(ROOT).n_symbols if model.emission_kind == "discrete" else "gaussian"
        doc = {"type": "hmt", "states": model.n_states, "alphabet": alphabet}
        topology = model.topology
        if topology.regular_arity and topology.nodes == HmtTopology.regular(topology.depth, topology.regular_arity).nodes:
            doc["depth"] = topology.depth
            doc["children"] = topology.regular_arity
        else:
            doc["nodes"] = list(topology.nodes)
        doc["initial"] = model.initial.tolist()
        if isinstance(model.transitions, Mapping):
            doc["transition"] = {p: model.transitions[p].tolist() for p in model.topology.nodes if p != ROOT}
        else:
            doc["transition"] = model.transitions.tolist()
        if isinstance(model.emissions, Mapping):
            doc["emission"] = {p: _emission_doc(model.emissions[p]) for p in model.topology.nodes}
        else:
            doc["emission"] = _emission_doc(model.emissions)
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
    return Evidence.from_external(values)
