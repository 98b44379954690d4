"""Evidence conditioning: block independence, memory and generated properties."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

import hmtkl.divergence
from hmtkl import (
    DiscreteEmission,
    Evidence,
    HmmModel,
    ZeroLikelihoodError,
    backward_quantities,
    brute_force_kld_posterior,
    kld_hmm_evidence,
    posterior_conditionals,
)
from hmtkl.divergence import weighted_sum


def sparse_distribution(rng, n, p_zero):
    """Distribution with random hard zeros, at least one positive entry."""
    while True:
        mask = rng.random(n) >= p_zero
        if mask.any():
            break
    out = np.zeros(n)
    out[mask] = rng.dirichlet(np.ones(int(mask.sum())))
    return out


def sparse_hmm(rng, length, states, symbols, p_zero=0.3):
    def rows(k, m):
        return np.array([sparse_distribution(rng, m, p_zero) for _ in range(k)])

    return HmmModel(
        length=length,
        initial=sparse_distribution(rng, states, p_zero),
        transition=rows(states, states),
        emission=DiscreteEmission(rows(states, symbols)),
    )


# ---------------------------------------------------------------------------
# The whole-stack algorithm as it stood before the blocked sweep, kept as the
# bit-for-bit reference.


def whole_stack_backward(model, evidence):
    x = evidence.symbols
    n = model.length
    emis = model.emission.matrix
    pi = model.transition
    values = np.ones((n, model.n_states))
    b = values[-1]
    for i in range(n, 1, -1):
        raw = pi @ (emis[:, x[i - 1]] * b)
        top = raw.max()
        if not top > 0:
            raise ZeroLikelihoodError(i)
        b = raw / top
        values[i - 2] = b
    mass = model.initial * emis[:, x[0]] * values[0]
    if not mass.sum() > 0:
        raise ZeroLikelihoodError(1)
    return values


def whole_stack_posterior(model, evidence):
    values = whole_stack_backward(model, evidence)
    x = evidence.symbols
    emis = model.emission.matrix
    mass = model.initial * emis[:, x[0]] * values[0]
    initial = mass / mass.sum()
    factors = model.transition[None, :, :] * (emis[:, x[1:]].T * values[1:])[:, None, :]
    row_sums = factors.sum(axis=2)
    positive = row_sums > 0
    factors[positive] /= row_sums[positive][:, None]
    factors[~positive] = 0.0
    return initial, factors


def whole_stack_kld(m1, m0, evidence):
    initial1, factors1 = whole_stack_posterior(m1, evidence)
    initial0, factors0 = whole_stack_posterior(m0, evidence)
    rows = rel_entr(factors1, factors0).sum(axis=2)
    inward = np.zeros(m1.n_states)
    for i in range(m1.length - 2, -1, -1):
        inward = rows[i] + weighted_sum(factors1[i], inward)
    return float(rel_entr(initial1, initial0).sum() + weighted_sum(initial1, inward))


def possible_cases():
    """Random sparse chain pairs whose evidence is possible under both models,
    with d = 1 and N = 1 among them."""
    rng = np.random.default_rng(2024)
    shapes = [(1, 1, 2), (1, 3, 2), (5, 1, 3), (1, 1, 1)]
    shapes += [(int(rng.integers(1, 60)), int(rng.integers(1, 7)), int(rng.integers(1, 5))) for _ in range(60)]
    cases = []
    for k, (n, d, m) in enumerate(shapes):
        while True:
            m1, m0 = sparse_hmm(rng, n, d, m, 0.1 * (k % 4)), sparse_hmm(rng, n, d, m, 0.1 * (k % 4))
            ev = Evidence(rng.integers(0, m, size=n))
            try:
                whole_stack_posterior(m1, ev), whole_stack_posterior(m0, ev)
            except ZeroLikelihoodError:
                continue
            cases.append((m1, m0, ev))
            break
    # state 1 never occurs under the first model, whose factor row for it
    # still puts mass where the second model's has none: a +inf row of weight 0
    uniform = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
    m1 = HmmModel(length=6, initial=[1.0, 0.0], transition=[[1.0, 0.0], [0.5, 0.5]], emission=uniform)
    m0 = HmmModel(length=6, initial=[0.5, 0.5], transition=[[0.5, 0.5], [1.0, 0.0]], emission=uniform)
    cases.append((m1, m0, Evidence(rng.integers(0, 2, size=6))))
    return cases


CASES = possible_cases()


def test_cases_cover_infinite_rows_and_values():
    kinds = []
    for m1, m0, ev in CASES:
        factors1, factors0 = whole_stack_posterior(m1, ev)[1], whole_stack_posterior(m0, ev)[1]
        rows_inf = bool(np.isinf(rel_entr(factors1, factors0).sum(axis=2)).any())
        kinds.append((rows_inf, math.isinf(whole_stack_kld(m1, m0, ev))))
    # finite values, +inf values, and +inf rows that the first posterior never reaches
    assert {(False, False), (True, True), (True, False)} <= set(kinds)


@pytest.mark.parametrize(
    "entries", [lambda d: d * d, lambda d: 7 * d * d, lambda d: 2**20], ids=["d*d", "7*d*d", "2**20"]
)
def test_values_do_not_depend_on_the_block_size(entries, monkeypatch):
    for m1, m0, ev in CASES:
        d = m1.n_states
        monkeypatch.setattr(hmtkl.divergence, "_BLOCK_ENTRIES", entries(d))
        value = kld_hmm_evidence(m1, m0, ev)
        assert np.float64(value).tobytes() == np.float64(whole_stack_kld(m1, m0, ev)).tobytes()
        for model in (m1, m0):
            initial, factors = posterior_conditionals(model, ev)
            expected_initial, expected_factors = whole_stack_posterior(model, ev)
            assert factors.shape == expected_factors.shape == (model.length - 1, d, d)
            assert initial.tobytes() == expected_initial.tobytes()
            assert factors.tobytes() == expected_factors.tobytes()


def test_values_do_not_depend_on_the_memory_layout():
    # a model stores its parameters C-ordered, so Fortran-ordered inputs give
    # the same bits on every evidence route
    rng = np.random.default_rng(13)
    for _ in range(30):
        n, d, m = int(rng.integers(1, 40)), int(rng.integers(3, 65)), int(rng.integers(2, 5))
        pair = [
            (rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d), size=d), rng.dirichlet(np.ones(m), size=d))
            for _ in range(2)
        ]
        ev = Evidence(rng.integers(0, m, size=n))
        routes = []
        for order in (np.ascontiguousarray, np.asfortranarray):
            m1, m0 = (
                HmmModel(length=n, initial=mu, transition=order(pi), emission=DiscreteEmission(order(e)))
                for mu, pi, e in pair
            )
            table = backward_quantities(m1, ev)
            initial, factors = posterior_conditionals(m1, ev)
            routes.append(
                [table.values, table.log_scale, np.float64(table.log_likelihood), initial, factors, np.float64(kld_hmm_evidence(m1, m0, ev))]
            )
        for c_ordered, fortran_ordered in zip(*routes):
            assert c_ordered.tobytes() == fortran_ordered.tobytes()


# ---------------------------------------------------------------------------
# Memory


def dense_pair(n, d, m, seed):
    rng = np.random.default_rng(seed)

    def model():
        return HmmModel(
            length=n,
            initial=rng.dirichlet(np.ones(d)),
            transition=rng.dirichlet(np.ones(d), size=d),
            emission=DiscreteEmission(rng.dirichlet(np.ones(m), size=d)),
        )

    return model(), model(), Evidence(rng.integers(0, m, size=n))


def evidence_peak(n, d):
    """tracemalloc peak, in bytes, of one `kld_hmm_evidence` call."""
    m1, m0, ev = dense_pair(n, d, 8, seed=n)
    tracemalloc.start()
    try:
        kld_hmm_evidence(m1, m0, ev)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_linear_in_the_length():
    n, d = 2000, 64
    small, large = evidence_peak(n, d), evidence_peak(4 * n, d)
    # the whole-stack route held three (N-1, d, d) stacks: 187.5 MiB at this size
    assert small < 10 * 2**20
    # at most three (N, d) float64 tables are alive at once: the first
    # model's weights, and the second model's backward values and weights
    table_bytes = 3 * (4 * n - n) * d * 8
    assert large - small <= table_bytes + 2**20


# ---------------------------------------------------------------------------
# Generated properties


def vanishing_position(model, evidence):
    """1-based position at which the backward recursion finds the evidence
    impossible, by enumerating supported paths: the largest i >= 2 such that
    no state at i - 1 can emit x_i..x_N, else 1; None when the evidence is
    possible."""
    x, n, d = evidence.symbols, model.length, model.n_states
    pi, emis = model.transition > 0, model.emission.matrix > 0

    def suffix_possible(start, first):
        for path in product(range(d), repeat=n - start):
            prev, ok = first, True
            for offset, s in enumerate(path):
                ok = ok and pi[prev, s] and emis[s, x[start + offset]]
                prev = s
            if ok:
                return True
        return False

    for i in range(n, 1, -1):
        if not any(suffix_possible(i - 1, r) for r in range(d)):
            return i
    starts = [s for s in range(d) if model.initial[s] > 0 and emis[s, x[0]]]
    if not any(n == 1 or suffix_possible(1, s) for s in starts):
        return 1
    return None


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    d=st.integers(1, 3),
    m=st.integers(1, 3),
    p_zero=st.sampled_from([0.0, 0.3, 0.6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_evidence_route_matches_enumeration(n, d, m, p_zero, seed):
    rng = np.random.default_rng(seed)
    m1, m0 = sparse_hmm(rng, n, d, m, p_zero), sparse_hmm(rng, n, d, m, p_zero)
    ev = Evidence(rng.integers(0, m, size=n))
    for name, model in (("first", m1), ("second", m0)):
        position = vanishing_position(model, ev)
        if position is not None:
            with pytest.raises(ZeroLikelihoodError, match=f"{name} model") as err:
                kld_hmm_evidence(m1, m0, ev)
            assert err.value.position == position
            assert f"(position {position})" in str(err.value)
            return
    value = kld_hmm_evidence(m1, m0, ev)
    expected = brute_force_kld_posterior(m1, m0, ev)
    assert value >= 0.0
    if math.isinf(expected):
        assert value == math.inf
    else:
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)
    assert kld_hmm_evidence(m1, m1, ev) == 0.0
    assert kld_hmm_evidence(m0, m0, ev) == 0.0


# ---------------------------------------------------------------------------
# The backward recursion with one log per position, as it stood before the
# scales were logged after the loop, kept as the bit-for-bit reference.


def logged_backward(model, evidence):
    n = model.length
    emitted = model.emission.matrix.T[evidence.symbols]
    pi = model.transition
    values = np.ones((n, model.n_states))
    log_scale = np.zeros(n)
    acc, b = 0.0, values[-1]
    for i in range(n, 1, -1):
        raw = pi @ (emitted[i - 1] * b)
        top = np.maximum.reduce(raw)
        if not top > 0:
            raise ZeroLikelihoodError(i)
        b = np.divide(raw, top, out=values[i - 2])
        acc += math.log(top)
        log_scale[i - 2] = acc
    total = (model.initial * emitted[0] * values[0]).sum()
    if not total > 0:
        raise ZeroLikelihoodError(1)
    return values, log_scale, math.log(total) + acc


def logged_posterior(model, evidence):
    values = logged_backward(model, evidence)[0]
    emitted = model.emission.matrix.T[evidence.symbols]
    mass = model.initial * emitted[0] * values[0]
    # a C-ordered stack, so the row sums add in the same order for every layout
    factors = np.empty((model.length - 1, model.n_states, model.n_states))
    np.multiply(model.transition, (emitted[1:] * values[1:])[:, None, :], out=factors)
    row_sums = factors.sum(axis=2, keepdims=True)
    return mass / mass.sum(), np.divide(factors, row_sums, out=factors, where=row_sums > 0)


def laid_out(model, layout):
    """`model` with its transition matrix in C or Fortran order."""
    pi = model.transition if layout == "C" else np.asfortranarray(model.transition)
    return HmmModel(length=model.length, initial=model.initial, transition=pi, emission=model.emission)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.sampled_from([1, 2, 3, 5, 17, 64]),
    m=st.integers(1, 4),
    p_zero=st.sampled_from([0.0, 0.3, 0.6]),
    layout=st.sampled_from(["C", "F"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_backward_and_posterior_match_the_logged_recursion_bit_for_bit(n, d, m, p_zero, layout, seed):
    rng = np.random.default_rng(seed)
    model = laid_out(sparse_hmm(rng, n, d, m, p_zero), layout)
    ev = Evidence(rng.integers(0, m, size=n))
    try:
        values, log_scale, log_likelihood = logged_backward(model, ev)
    except ZeroLikelihoodError as exc:
        for route in (backward_quantities, posterior_conditionals):
            with pytest.raises(ZeroLikelihoodError) as err:
                route(model, ev)
            assert err.value.position == exc.position
        return
    table = backward_quantities(model, ev)
    assert table.values.tobytes() == values.tobytes()
    assert table.log_scale.tobytes() == log_scale.tobytes()
    assert np.float64(table.log_likelihood).tobytes() == np.float64(log_likelihood).tobytes()
    initial, factors = posterior_conditionals(model, ev)
    expected_initial, expected_factors = logged_posterior(model, ev)
    assert initial.tobytes() == expected_initial.tobytes()
    assert factors.tobytes() == expected_factors.tobytes()
