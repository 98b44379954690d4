"""Brute-force enumeration oracles.

These define ground truth for the exact recursions on small instances by
summing over every joint outcome (or every hidden path, for the posterior
variant).  They share nothing with the recursive implementations beyond the
model accessors, and they enumerate in log domain, normalizing at the end.
"""

from __future__ import annotations

import math
import os
from itertools import product

import numpy as np

from .errors import EnumerationBudgetError
from .model import Evidence, HmmModel, HmtModel, check_evidence, check_pair

__all__ = ["DEFAULT_BUDGET", "enumeration_budget", "brute_force_kld_joint", "brute_force_kld_posterior"]

DEFAULT_BUDGET = 10_000_000

#: Environment variable overriding the default enumeration budget.
BUDGET_ENV_VAR = "KLD_ENUM_BUDGET"


def enumeration_budget(budget: int | None = None) -> int:
    """Resolve the outcome budget: explicit argument, else env var, else default."""
    if budget is not None:
        return int(budget)
    return int(os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET))


def _check_budget(outcomes: int, budget: int | None):
    limit = enumeration_budget(budget)
    if outcomes > limit:
        raise EnumerationBudgetError(f"{outcomes} joint outcomes exceed the enumeration budget {limit}")


def _tree_log_factors(model: HmtModel):
    """(log initial, per-node log transition, per-node log emission) with -inf for zeros."""
    with np.errstate(divide="ignore"):
        log_initial = np.log(model.initial)
        log_trans = {p: np.log(model.transition(p)) for p in model.topology.nodes if p}
        log_emis = {p: np.log(model.emission(p).matrix) for p in model.topology.nodes}
    return log_initial, log_trans, log_emis


def _log_joint(nodes, parent_of, factors, states, symbols) -> float:
    log_initial, log_trans, log_emis = factors
    total = log_initial[states[0]] + log_emis[nodes[0]][states[0], symbols[0]]
    for j in range(1, len(nodes)):
        path = nodes[j]
        total += log_trans[path][states[parent_of[j]], states[j]]
        total += log_emis[path][states[j], symbols[j]]
    return total


def brute_force_kld_joint(m1: HmtModel, m0: HmtModel, budget: int | None = None) -> float:
    """Sum P1(x, s) log(P1(x, s) / P0(x, s)) over every joint outcome.

    Only defined for discrete emissions; Gaussian outcomes are continuous and
    cannot be enumerated.
    """
    check_pair(m1, m0)
    if m1.emission_kind != "discrete":
        raise ValueError("joint enumeration requires discrete emissions")
    nodes = m1.topology.nodes
    d = m1.n_states
    m = m1.emission(nodes[0]).n_symbols
    _check_budget((d * m) ** len(nodes), budget)

    index = {p: j for j, p in enumerate(nodes)}
    parent_of = [index[p[:-1]] if p else 0 for p in nodes]
    factors1 = _tree_log_factors(m1)
    factors0 = _tree_log_factors(m0)

    total = 0.0
    for states in product(range(d), repeat=len(nodes)):
        for symbols in product(range(m), repeat=len(nodes)):
            lp1 = _log_joint(nodes, parent_of, factors1, states, symbols)
            if lp1 == -math.inf:
                continue
            lp0 = _log_joint(nodes, parent_of, factors0, states, symbols)
            total += math.exp(lp1) * (lp1 - lp0)
    return total


def brute_force_kld_posterior(m1: HmmModel, m0: HmmModel, evidence: Evidence, budget: int | None = None) -> float:
    """Sum P1(s | x) log(P1(s | x) / P0(s | x)) over every hidden path.

    Path posteriors are obtained by normalizing the enumerated joint log
    probabilities under each model.
    """
    check_pair(m1, m0)
    check_evidence(m1, evidence)
    check_evidence(m0, evidence)
    d = m1.n_states
    n = m1.length
    _check_budget(d**n, budget)

    x = evidence.symbols

    def path_logs(model):
        with np.errstate(divide="ignore"):
            log_initial = np.log(model.initial)
            log_trans = np.log(model.transition)
            log_emis = np.log(model.emission.matrix)
        out = np.empty(d**n)
        for idx, states in enumerate(product(range(d), repeat=n)):
            total = log_initial[states[0]] + log_emis[states[0], x[0]]
            for i in range(1, n):
                total += log_trans[states[i - 1], states[i]] + log_emis[states[i], x[i]]
            out[idx] = total
        return out

    lp1 = path_logs(m1)
    lp0 = path_logs(m0)
    # normalize in log domain
    top1 = lp1.max()
    top0 = lp0.max()
    if top1 == -math.inf:
        raise ValueError("evidence has zero likelihood under the first model")
    if top0 == -math.inf:
        raise ValueError("evidence has zero likelihood under the second model")
    log_z1 = top1 + math.log(np.exp(lp1 - top1).sum())
    log_z0 = top0 + math.log(np.exp(lp0 - top0).sum())
    post1 = np.exp(lp1 - log_z1)
    total = 0.0
    for q1, l1, l0 in zip(post1, lp1, lp0):
        if q1 > 0.0:
            total += q1 * ((l1 - log_z1) - (l0 - log_z0))
    return total
