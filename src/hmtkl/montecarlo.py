"""Monte Carlo estimation of both divergence variants with confidence intervals.

Randomness comes from the counter-based 64-bit Philox generator keyed by the
user seed.  Each trial owns a fixed-size block of the stream (its length
rounded up to the 4-draw Philox block), so trial t is reproducible in
isolation by advancing a fresh generator to ``t * blocks_per_trial`` - the
per-trial substream is a pure function of (seed, trial index), and estimates
are bitwise reproducible regardless of batch or chunk boundaries.

Every draw consumes exactly one uniform: discrete states and symbols through
the row CDF, Gaussian emissions through the inverse normal CDF.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import ndtri

from .model import Evidence, HmmModel, HmtModel
from .hmm import _check_pair, _posterior_pair, posterior_conditionals
from .tree import _check_same_shape

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
_CHUNK = 1 << 18


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


def _chunked_uniforms(seed: int, trials: int, per_trial: int):
    """Yield (start, uniform block) pairs; row t holds trial t's substream."""
    padded = -(-per_trial // 4) * 4
    blocks_per_trial = padded // 4
    start = 0
    while start < trials:
        stop = min(start + _CHUNK, trials)
        bits = np.random.Philox(key=seed)
        bits.advance(start * blocks_per_trial)
        block = np.random.Generator(bits).random((stop - start, padded))[:, :per_trial]
        yield start, block
        start = stop


def _inclusive_cdf(rows: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(rows, axis=-1)
    cdf[..., -1] = 1.0  # guard against rounding in the last bin
    return cdf


def _categorical(cdf_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF lookup; zero-probability states are never selected."""
    return (cdf_rows <= u[..., None]).sum(axis=-1)


def _inverse_normal(u: np.ndarray) -> np.ndarray:
    # uniforms live in [0, 1); ndtri(0) would be -inf, so nudge exact zeros
    return ndtri(np.maximum(u, 2.0**-54))


class _TreeSampler:
    """Vectorized ancestral sampling and log-likelihood over a tree's node order.

    Row CDFs are built once per parameter stack, or once for a matrix shared
    by every node and then broadcast over the nodes without copying.
    """

    def __init__(self, model: HmtModel):
        n, d = model.topology.n_nodes, model.n_states
        self.n_nodes = n
        self.parent = model.topology.parent
        self.initial_cdf = _inclusive_cdf(model.initial[None, :])[0]
        self.transition_cdf = np.broadcast_to(_inclusive_cdf(model.transition_stack), (n - 1, d, d))
        spec = model.emission_stack
        self.discrete = spec.kind == "discrete"
        if self.discrete:
            self.emission_cdf = np.broadcast_to(_inclusive_cdf(spec.matrix), (n, d, spec.n_symbols))
        else:
            self.means = np.broadcast_to(spec.means, (n, d))
            self.sds = np.broadcast_to(spec.sds, (n, d))

    @property
    def draws_per_trial(self) -> int:
        return 2 * self.n_nodes

    def sample(self, uniforms: np.ndarray):
        """(states, emitted) arrays of shape (trials, nodes) from per-trial uniforms."""
        n = uniforms.shape[0]
        states = np.empty((n, self.n_nodes), dtype=np.int64)
        emitted = np.empty((n, self.n_nodes), dtype=np.int64 if self.discrete else float)
        for j in range(self.n_nodes):
            u_state = uniforms[:, 2 * j]
            if j == 0:
                states[:, j] = _categorical(self.initial_cdf[None, :], u_state)
            else:
                rows = self.transition_cdf[j - 1][states[:, self.parent[j]]]
                states[:, j] = _categorical(rows, u_state)
            u_emit = uniforms[:, 2 * j + 1]
            s = states[:, j]
            if self.discrete:
                emitted[:, j] = _categorical(self.emission_cdf[j][s], u_emit)
            else:
                emitted[:, j] = self.means[j][s] + self.sds[j][s] * _inverse_normal(u_emit)
        return states, emitted


def _loglik_arrays(model: HmtModel, states: np.ndarray, emitted: np.ndarray) -> np.ndarray:
    """Joint log-probability (log-density for Gaussian emissions) per trial row."""
    n, d = model.topology.n_nodes, model.n_states
    parent = model.topology.parent
    transitions = np.broadcast_to(model.transition_stack, (n - 1, d, d))
    spec = model.emission_stack
    if spec.kind == "discrete":
        matrices = np.broadcast_to(spec.matrix, (n, d, spec.n_symbols))
    else:
        means, sds = np.broadcast_to(spec.means, (n, d)), np.broadcast_to(spec.sds, (n, d))
    with np.errstate(divide="ignore"):
        out = np.log(model.initial[states[:, 0]])
        for j in range(n):
            s = states[:, j]
            if j:
                out += np.log(transitions[j - 1][states[:, parent[j]], s])
            if spec.kind == "discrete":
                out += np.log(matrices[j][s, emitted[:, j].astype(np.int64)])
            else:
                mean = means[j][s]
                sd = sds[j][s]
                out += -0.5 * ((emitted[:, j] - mean) / sd) ** 2 - np.log(sd) - 0.5 * _LOG_2PI
    return out


def sample_joint(model: HmtModel, rng: np.random.Generator):
    """One draw (x, s) from the model's joint law, as dicts keyed by node path.

    States and discrete symbols are 0-based; Gaussian emissions are floats.
    Consumes two uniforms per node from `rng` in node order, so a generator
    advanced to a trial's substream reproduces that trial of the batch
    estimators exactly.
    """
    sampler = _TreeSampler(model)
    states, emitted = sampler.sample(rng.random(sampler.draws_per_trial)[None, :])
    nodes = model.topology.nodes
    caster = int if sampler.discrete else float
    x = {p: caster(emitted[0, j]) for j, p in enumerate(nodes)}
    s = {p: int(states[0, j]) for j, p in enumerate(nodes)}
    return x, s


def loglik_joint(model: HmtModel, x: Mapping[str, object], s: Mapping[str, int]) -> float:
    """Joint log-probability of a full assignment; -inf when a factor is zero."""
    nodes = model.topology.nodes
    if set(x) != set(nodes) or set(s) != set(nodes):
        raise ValueError("assignments must cover every node exactly")
    states = np.array([[s[p] for p in nodes]], dtype=np.int64)
    if model.emission_kind == "discrete":
        emitted = np.array([[x[p] for p in nodes]], dtype=np.int64)
    else:
        emitted = np.array([[x[p] for p in nodes]], dtype=float)
    return float(_loglik_arrays(model, states, emitted)[0])


def mc_kld_no_evidence(m1: HmtModel, m0: HmtModel, trials: int, seed: int) -> McEstimate:
    """Estimate the joint KL divergence as the mean log-likelihood ratio over
    i.i.d. draws from the first model."""
    _check_same_shape(m1, m0)
    _check_mc_args(trials, seed)
    sampler = _TreeSampler(m1)
    diffs = np.empty(trials)
    for start, uniforms in _chunked_uniforms(seed, trials, sampler.draws_per_trial):
        states, emitted = sampler.sample(uniforms)
        diffs[start : start + uniforms.shape[0]] = _loglik_arrays(m1, states, emitted) - _loglik_arrays(
            m0, states, emitted
        )
    return _estimate(diffs, seed)


def _posterior_path_sampler(model: HmmModel, evidence: Evidence):
    initial, factors = posterior_conditionals(model, evidence)
    return _inclusive_cdf(initial[None, :])[0], _inclusive_cdf(factors), initial, factors


def _sample_paths(initial_cdf, factor_cdfs, uniforms):
    n, length = uniforms.shape
    states = np.empty((n, length), dtype=np.int64)
    states[:, 0] = _categorical(initial_cdf[None, :], uniforms[:, 0])
    for i in range(1, length):
        states[:, i] = _categorical(factor_cdfs[i - 1][states[:, i - 1]], uniforms[:, i])
    return states


def _log_posterior(initial, factors, states):
    with np.errstate(divide="ignore"):
        out = np.log(initial[states[:, 0]])
        for i in range(1, states.shape[1]):
            out += np.log(factors[i - 1][states[:, i - 1], states[:, i]])
    return out


def sample_posterior(model: HmmModel, evidence: Evidence, rng: np.random.Generator) -> np.ndarray:
    """One hidden path drawn exactly from P(S | X = x), as 0-based state indices.

    Samples S_1 from its posterior and then forward through the evidence
    conditionals; consumes one uniform per position.
    """
    initial_cdf, factor_cdfs, _, _ = _posterior_path_sampler(model, evidence)
    return _sample_paths(initial_cdf, factor_cdfs, rng.random(model.length)[None, :])[0]


def mc_kld_evidence(m1: HmmModel, m0: HmmModel, evidence: Evidence, trials: int, seed: int) -> McEstimate:
    """Estimate the posterior KL divergence from posterior draws of the first model."""
    _check_pair(m1, m0)
    _check_mc_args(trials, seed)
    (initial1, factors1), (initial0, factors0) = _posterior_pair(m1, m0, evidence)
    initial_cdf, factor_cdfs = _inclusive_cdf(initial1[None, :])[0], _inclusive_cdf(factors1)
    diffs = np.empty(trials)
    for start, uniforms in _chunked_uniforms(seed, trials, m1.length):
        states = _sample_paths(initial_cdf, factor_cdfs, uniforms)
        diffs[start : start + uniforms.shape[0]] = _log_posterior(initial1, factors1, states) - _log_posterior(
            initial0, factors0, states
        )
    return _estimate(diffs, seed)
