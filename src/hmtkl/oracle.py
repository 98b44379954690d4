"""Brute-force enumeration oracles.

These define ground truth for the exact recursions on small instances by
summing over every joint outcome (or every hidden path, for the posterior
variant).  They read only the parameter stacks and the `parent` array (a
chain is the one-child tree), share nothing with the recursive
implementations, and enumerate in log domain, normalizing at the end.
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


def _log_factors(model: HmtModel | HmmModel) -> tuple:
    """Log initial law, log transitions ``(n - 1, d, d)`` and log emissions
    ``(n, d, m)`` as nested lists, -inf for zeros.  A chain is the one-child
    tree, with n = length."""
    if isinstance(model, HmmModel):
        n, transitions, emissions = model.length, model.transition, model.emission
    else:
        n, transitions, emissions = model.topology.n_nodes, model.transition_stack, model.emission_stack
    with np.errstate(divide="ignore"):
        log_initial, log_trans, log_emis = np.log(model.initial), np.log(transitions), np.log(emissions.matrix)
    # a shared matrix is listed once and referenced by every node: a long
    # chain costs one list slot per position
    log_trans = log_trans.tolist() if log_trans.ndim == 3 else [log_trans.tolist()] * (n - 1)
    log_emis = log_emis.tolist() if log_emis.ndim == 3 else [log_emis.tolist()] * n
    return log_initial.tolist(), log_trans, log_emis


def _log_joint(parent, factors, states, symbols) -> float:
    """log P(states, symbols) of node j = 0, 1, ... with parent ``parent[j]``."""
    log_initial, log_trans, log_emis = factors
    total = log_initial[states[0]] + log_emis[0][states[0]][symbols[0]]
    for j in range(1, len(states)):
        total += log_trans[j - 1][states[parent[j]]][states[j]]
        total += log_emis[j][states[j]][symbols[j]]
    return total


def brute_force_kld_joint(m1: HmtModel, m0: HmtModel, budget: int | None = None) -> float:
    """Sum P1(x, s) log(P1(x, s) / P0(x, s)) over every joint outcome.

    Only defined for discrete emissions; Gaussian outcomes are continuous and
    cannot be enumerated.
    """
    check_pair(m1, m0, HmtModel)
    if m1.emission_kind != "discrete":
        raise ValueError("joint enumeration requires discrete emissions")
    n, d, m = m1.topology.n_nodes, m1.n_states, m1.emission_stack.n_symbols
    _check_budget((d * m) ** n, budget)

    parent = m1.topology.parent.tolist()
    factors1 = _log_factors(m1)
    factors0 = _log_factors(m0)

    total = 0.0
    for states in product(range(d), repeat=n):
        for symbols in product(range(m), repeat=n):
            lp1 = _log_joint(parent, factors1, states, symbols)
            if lp1 == -math.inf:
                continue
            lp0 = _log_joint(parent, factors0, states, symbols)
            total += math.exp(lp1) * (lp1 - lp0)
    return total


def brute_force_kld_posterior(m1: HmmModel, m0: HmmModel, evidence: Evidence, budget: int | None = None) -> float:
    """Sum P1(s | x) log(P1(s | x) / P0(s | x)) over every hidden path.

    Path posteriors are obtained by normalizing the enumerated joint log
    probabilities under each model.
    """
    check_pair(m1, m0, HmmModel)
    check_evidence(m1, evidence)
    check_evidence(m0, evidence)
    d = m1.n_states
    n = m1.length
    _check_budget(d**n, budget)

    x = evidence.symbols.tolist()
    parent = range(-1, n - 1)

    def path_logs(model):
        factors = _log_factors(model)
        paths = product(range(d), repeat=n)
        return np.fromiter((_log_joint(parent, factors, states, x) for states in paths), float, count=d**n)

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
