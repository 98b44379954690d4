"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Criterion 4 checks the bundled ``hmm_a``/``hmm_b`` pair against
hidden-path enumeration done inside the test.  The literature reports path
posteriors 0.91/0.10 and a divergence of 0.071 for its own parameter set,
which the repository does not hold; the bundled pair cannot produce them.
Under ``hmm_a`` no length-10 path has posterior above 0.790 for any of the
3^10 evidence strings, and the joint divergence cannot fall below its
length-1 value 0.4920 because dropping positions is a marginalisation.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from hmtkl import (
    Evidence,
    HmtTopology,
    block_evidence,
    bundled_gaussian_tree_pair,
    bundled_hmm_pair,
    brute_force_kld_joint,
    brute_force_kld_posterior,
    do_bound,
    kld_exact_tree,
    kld_hmm_evidence,
    kld_hmm_fast,
    kld_hmm_no_evidence,
    kld_rate,
    mc_kld_evidence,
    mc_kld_no_evidence,
    posterior_conditionals,
    stationary_distribution,
)
from modelgen import chain as random_hmm
from modelgen import tree_pair


def random_binary_tree_pair(rng, depth):
    return tree_pair(rng, HmtTopology.regular(depth, 2) if depth > 1 else HmtTopology.regular(1, 1))


def test_c01_tree_golden_value():
    start = time.perf_counter()
    a, b = bundled_gaussian_tree_pair()
    value = kld_exact_tree(a, b)
    elapsed = time.perf_counter() - start
    assert value == pytest.approx(0.690, abs=1e-3)
    assert elapsed < 1.0


def test_c02_monte_carlo_table_reproduction():
    a, b = bundled_gaussian_tree_pair()
    start = time.perf_counter()
    inside = sum(0.684 <= mc_kld_no_evidence(a, b, 100_000, seed).mean <= 0.696 for seed in range(100))
    elapsed = time.perf_counter() - start
    assert inside >= 95
    small = mc_kld_no_evidence(a, b, 100, 0)
    assert (small.ci_hi - small.ci_lo) / 2 >= 0.1
    assert elapsed < 120.0


def test_c03_stationary_distribution_golden():
    a, _ = bundled_hmm_pair()
    nu = stationary_distribution(a.transition)
    np.testing.assert_allclose(nu, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-12)


def _reference_posterior(model, states, evidence):
    initial, factors = posterior_conditionals(model, evidence)
    value = initial[states[0]]
    for i in range(1, len(states)):
        value *= factors[i - 1][states[i - 1], states[i]]
    return float(value)


def _path_law(model, states):
    value = model.initial[states[0]]
    for i in range(1, len(states)):
        value *= model.transition[states[i - 1], states[i]]
    return value


def _enumerated_posterior(model, states, evidence):
    """Posterior of one hidden path, normalised over all d^N enumerated joints."""
    x = evidence.symbols

    def joint(path):
        value = _path_law(model, path)
        for i, state in enumerate(path):
            value *= model.emission.matrix[state, x[i]]
        return value

    z = sum(joint(path) for path in product(range(model.n_states), repeat=model.length))
    return joint(states) / z


def _enumerated_chain_rule_kld(m1, m0):
    """KL(S-paths) + E[sum of emission-row KL], summed over all d^N hidden paths."""
    row_kl = [
        sum(p * math.log(p / q) for p, q in zip(r1, r0) if p > 0)
        for r1, r0 in zip(m1.emission.matrix, m0.emission.matrix)
    ]
    total = 0.0
    for path in product(range(m1.n_states), repeat=m1.length):
        p1, p0 = _path_law(m1, path), _path_law(m0, path)
        total += p1 * (math.log(p1 / p0) + sum(row_kl[state] for state in path))
    return total


def test_c04_counterexample_posteriors():
    # The literature's 0.91/0.10 belong to a parameter set the repository does
    # not hold: for this evidence the most probable of the 2^10 paths has
    # posterior 0.1606 under hmm_a and 0.0476 under hmm_b.  The expected values
    # come from enumerating all 2^10 hidden paths; the literals pin them.
    a, b = bundled_hmm_pair()
    states = (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)
    evidence = Evidence.from_external([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
    for model, pinned in [(a, 0.004896133140185794), (b, 0.0013117480792943174)]:
        expected = _enumerated_posterior(model, states, evidence)
        assert expected == pytest.approx(pinned, rel=1e-10)
        assert _reference_posterior(model, states, evidence) == pytest.approx(expected, rel=1e-10)


def test_c04_counterexample_divergence_value():
    # The literature's 0.071 belongs to a parameter set the repository does not
    # hold: the joint divergence never decreases with length, and at length 1
    # it is already 0.4920.  The expected value is the chain-rule sum over all
    # 2^10 hidden paths; the literal pins it.
    a, b = bundled_hmm_pair()
    divergence = kld_hmm_no_evidence(a, b)
    bound = do_bound(a, b)
    assert abs(divergence - bound) <= 1e-12
    expected = _enumerated_chain_rule_kld(a, b)
    assert expected == pytest.approx(5.662866894597588, abs=1e-10)
    assert divergence == pytest.approx(expected, abs=1e-10)


def test_c05_bound_identity_on_random_pairs():
    rng = np.random.default_rng(2025)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        a, b = random_hmm(rng, n, d, m), random_hmm(rng, n, d, m)
        assert abs(do_bound(a, b) - kld_hmm_no_evidence(a, b)) <= 1e-12


def test_c06_oracle_equivalence_no_evidence():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        a, b = random_hmm(rng, n, d, m), random_hmm(rng, n, d, m)
        assert abs(kld_hmm_no_evidence(a, b) - brute_force_kld_joint(a.as_tree(), b.as_tree())) <= 1e-10
    for _ in range(50):
        depth = int(rng.integers(1, 4))
        a, b = random_binary_tree_pair(rng, depth)
        assert abs(kld_exact_tree(a, b) - brute_force_kld_joint(a, b)) <= 1e-10


def test_c07_oracle_equivalence_evidence():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(2, 4))
        a, b = random_hmm(rng, n, 2, m), random_hmm(rng, n, 2, m)
        evidence = Evidence(rng.integers(0, m, size=n))
        assert abs(kld_hmm_evidence(a, b, evidence) - brute_force_kld_posterior(a, b, evidence)) <= 1e-10


def test_c08_fast_path_accuracy_and_sublinearity():
    a, b = bundled_hmm_pair()
    for n in (100, 10_000, 1_000_000):
        fast = kld_hmm_fast(a.with_length(n), b.with_length(n))
        direct = kld_hmm_no_evidence(a.with_length(n), b.with_length(n))
        assert fast == pytest.approx(direct, rel=1e-9)

    def best_time(n, repeats=20):
        pair = (a.with_length(n), b.with_length(n))
        best = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            kld_hmm_fast(*pair)
            best = min(best, time.perf_counter() - start)
        return best

    assert best_time(1_000_000) < 10.0 * best_time(1_000)


def test_c09_rate_convergence():
    a, b = bundled_hmm_pair()
    rate = kld_rate(a, b)
    gaps = [
        abs(kld_hmm_no_evidence(a.with_length(n), b.with_length(n)) / n - rate) for n in range(10, 101)
    ]
    assert gaps[-1] <= 0.01
    assert all(later <= earlier + 1e-15 for earlier, later in zip(gaps, gaps[1:]))


def test_c10_evidence_sweep_mc_coverage():
    a, b = bundled_hmm_pair()
    evidence = block_evidence(100)
    seed = 1
    hits = 0
    for n in range(5, 101, 5):
        pair = (a.with_length(n), b.with_length(n))
        truncated = evidence.truncated(n)
        exact = kld_hmm_evidence(*pair, truncated)
        estimate = mc_kld_evidence(*pair, truncated, 1000, seed)
        hits += estimate.ci_lo <= exact <= estimate.ci_hi
    assert hits >= 18


def test_c11_reproducibility_bitwise():
    a, b = bundled_gaussian_tree_pair()
    assert mc_kld_no_evidence(a, b, 10_000, 123) == mc_kld_no_evidence(a, b, 10_000, 123)
    ha, hb = bundled_hmm_pair()
    evidence = block_evidence(10)
    assert mc_kld_evidence(ha, hb, evidence, 10_000, 321) == mc_kld_evidence(ha, hb, evidence, 10_000, 321)
