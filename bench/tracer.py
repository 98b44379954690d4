"""Opt-in span tracer for the benchmark's traced run.

`Tracer.install()` wraps the public functions of the package's layer modules
(``model``, ``divergence``, ``tree``, ``hmm``, ``montecarlo`` and ``cli``),
replacing every module binding of each wrapped function, so that calls made
through ``from .x import f`` aliases are traced as well.  It also wraps
``HmtTopology.from_nodes``/``regular`` and ``HmmModel.as_tree``, and the
CLI's private ``_kld_hmm_spectral`` entry.  `uninstall()` puts every
original binding back.  Nothing is wrapped unless `install()` is called.

A span is ``[name, start_ns, end_ns, parent, job, raised]``; ``parent`` is
the index of the enclosing span (or -1) and ``job`` the id of the job that
caused it.  Self time is a span's duration minus the durations of its direct
children.  The role metrics the benchmark reports are computed from the
spans by `layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
import types

LAYERS = ("model", "divergence", "tree", "hmm", "montecarlo", "cli")

#: Wrapped callables beyond each module's public functions.
EXTRA = {
    "model": ("HmtTopology.from_nodes", "HmtTopology.regular", "HmmModel.as_tree"),
    "hmm": ("_kld_hmm_spectral",),
}

_SERIES = ("hmm.kld_hmm_no_evidence", "hmm._kld_hmm_spectral", "hmm.kld_hmm_fast")
_FAST = ("hmm._kld_hmm_spectral", "hmm.kld_hmm_fast")
_MC = ("montecarlo.mc_kld_no_evidence", "montecarlo.mc_kld_evidence")


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        value = getattr(module, name, None)
        if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
            yield name


class Tracer:
    """Records spans around the wrapped layer functions while installed.

    With ``memory=True`` it also measures, with `tracemalloc`, the peak
    traced memory of every outermost Monte Carlo estimator call.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.mc_peaks: list[tuple[int, int]] = []  # (peak bytes, draws) per estimator call
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import hmtkl  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sorted(sys.modules.items()) if (n == "hmtkl" or n.startswith("hmtkl.")) and m]
        for layer in LAYERS:
            module = sys.modules[f"hmtkl.{layer}"]
            for name in [*_public_functions(module), *EXTRA.get(layer, ())]:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                if attr not in vars(owner):
                    continue  # removed by a later version of the package
                raw = vars(owner)[attr]
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._wrap(func, f"{layer}.{name}")
                if owner is not module:
                    self._set(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                    continue
                for mod in modules:  # every binding, `from .x import f` aliases included
                    for alias, value in list(vars(mod).items()):
                        if value is func:
                            self._set(mod, alias, wrapped)
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.memory:
            tracemalloc.stop()
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack
        memory = self.memory and name in _MC

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            outermost_mc = memory and not self._inside(_MC)
            if outermost_mc:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            record = [name, 0, 0, stack[-1] if stack else -1, self.job, False]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if outermost_mc:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.mc_peaks.append((peak, _draws(name, signature.bind(*args, **kwargs).arguments)))
            if hook is not None:
                hook(self, index, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _inside(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self._stack)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def _draws(name, bound) -> int:
    """Uniform draws of one estimator call: one per hidden state and per emission."""
    m1, trials = bound["m1"], bound["trials"]
    if name == "montecarlo.mc_kld_no_evidence":
        return trials * 2 * m1.topology.n_nodes
    return trials * m1.length


def _outermost(spans, index, group) -> bool:
    """True when no ancestor of span `index` has a name in `group`."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in group:
            return False
        parent = spans[parent][3]
    return True


def _top(spans, index, group) -> int:
    """Index of the outermost span in `group` among `index` and its ancestors."""
    top = index
    while index >= 0:
        if spans[index][0] in group:
            top = index
        index = spans[index][3]
    return top


def _on_load(tracer, index, bound, result):
    topology = getattr(result, "topology", None)
    if topology is not None:
        tracer.count("model.nodes", topology.n_nodes)


def _on_inward(tracer, index, bound, result):
    tracer.count("tree.nodes", bound["m1"].topology.n_nodes)


def _on_series(tracer, index, bound, result):
    if _outermost(tracer.spans, index, _SERIES):
        m1 = bound["m1"]
        tracer.count("hmm.series_steps", m1.length * m1.n_states**2)


def _on_mc(tracer, index, bound, result):
    if _outermost(tracer.spans, index, _MC):
        tracer.count("montecarlo.draws", _draws(tracer.spans[index][0], bound))
        tracer.count("montecarlo.infinite_trials", result.infinite_trials)


def _on_main(tracer, index, bound, result):
    if result != 0:
        tracer.count("cli.nonzero_exits")


_HOOKS = {
    "model.load_model": _on_load,
    "tree.kld_exact_tree": _on_inward,
    "tree.inward_pass": _on_inward,
    "hmm.kld_hmm_no_evidence": _on_series,
    "hmm._kld_hmm_spectral": _on_series,
    "hmm.kld_hmm_fast": _on_series,
    "montecarlo.mc_kld_no_evidence": _on_mc,
    "montecarlo.mc_kld_evidence": _on_mc,
    "cli.main": _on_main,
}

#: Role metrics measured as the inclusive time of the outermost spans among these names.
INCLUSIVE = {
    "model.topology_s": ("model.HmtTopology.from_nodes", "model.HmtTopology.regular"),
    "model.validate_s": ("model.validate",),
    "model.as_tree_s": ("model.HmmModel.as_tree",),
    "tree.inward_s": ("tree.kld_exact_tree", "tree.inward_pass"),
    "tree.closed_form_s": ("tree.kld_homogeneous_tree",),
    "hmm.series_s": _SERIES,
    "hmm.bound_s": ("hmm.do_bound",),
    "hmm.backward_s": ("hmm.backward_quantities",),
    "hmm.posterior_s": ("hmm.posterior_conditionals",),
    "hmm.evidence_s": ("hmm.kld_hmm_evidence",),
    "montecarlo.joint_s": ("montecarlo.mc_kld_no_evidence",),
    "montecarlo.evidence_s": ("montecarlo.mc_kld_evidence",),
}

#: ``model.parse_s`` is the self time of these spans: reading the document
#: into model objects, without the topology and validation they call.
PARSE = ("model.load_model", "model.load_evidence")

COUNTS = ("model.nodes", "hmm.series_steps", "montecarlo.draws", "montecarlo.infinite_trials", "cli.nonzero_exits")
LOCAL_TERMS = ("divergence.local_k_vector", "divergence.local_k_root")


def span_times(spans):
    """(duration, self time) in seconds of every span."""
    duration = [(s[2] - s[1]) / 1e9 for s in spans]
    self_time = list(duration)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            self_time[s[3]] -= d
    return duration, self_time


def layer_metrics(tracer: Tracer, job_seconds: float, decks: int, mc_peaks) -> dict[str, float]:
    """Per-layer metrics from the recorded spans.

    `job_seconds` is the wall time of the traced jobs as the benchmark timed
    them, and `decks` the number of passes over the job list they made: times
    and counts are reported per pass.  `mc_peaks` holds the (peak bytes,
    draws) pairs of a `Tracer(memory=True)` pass.
    """
    spans = tracer.spans
    duration, self_time = span_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, self_time):
        layer_self[s[0].partition(".")[0]] += t

    def inclusive(group):
        return sum(duration[i] for i, s in enumerate(spans) if s[0] in group and _outermost(spans, i, group)) / decks

    out = {metric: inclusive(group) for metric, group in INCLUSIVE.items()}
    out["model.parse_s"] = sum(t for s, t in zip(spans, self_time) if s[0] in PARSE) / decks
    out["divergence.local_s"] = inclusive({s[0] for s in spans if s[0].startswith("divergence.")})
    for key in COUNTS:
        out[key] = tracer.counts.get(key, 0) / decks
    out["divergence.local_calls"] = sum(1 for s in spans if s[0] in LOCAL_TERMS) / decks
    out["cli.nonzero_exits"] += sum(1 for s in spans if s[0] == "cli.main" and s[5]) / decks
    # A fast-path attempt falls back when the spectral entry raises or the
    # direct sum runs inside it.
    attempts = {i for i, s in enumerate(spans) if s[0] in _FAST and _outermost(spans, i, _FAST)}
    fell_back = {
        _top(spans, i, _FAST)
        for i, s in enumerate(spans)
        if (s[0] in _FAST and s[5]) or (s[0] == "hmm.kld_hmm_no_evidence" and not _outermost(spans, i, _FAST))
    }
    out["hmm.fast_attempts"] = len(attempts) / decks
    out["hmm.fast_fallbacks"] = len(fell_back & attempts) / decks
    tree_nodes = tracer.counts.get("tree.nodes", 0) / decks
    out["tree.nodes_per_s"] = tree_nodes / out["tree.inward_s"] if out["tree.inward_s"] else 0.0
    mc_self = layer_self["montecarlo"] / decks
    out["montecarlo.draws_per_s"] = out["montecarlo.draws"] / mc_self if mc_self else 0.0
    draws = sum(d for _, d in mc_peaks)
    out["montecarlo.peak_bytes_per_draw"] = sum(p for p, _ in mc_peaks) / draws if draws else 0.0
    out["cli.self_s"] = layer_self["cli"] / decks
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self[layer] / job_seconds
    out["trace.coverage"] = sum(d for s, d in zip(spans, duration) if s[3] < 0) / job_seconds
    return out
