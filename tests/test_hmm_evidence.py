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
    mc_kld_evidence,
    posterior_conditionals,
)
from hmtkl.divergence import weighted_sum
from modelgen import chain, model_pairs, rows


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
            m1, m0 = chain(rng, n, d, m, 0.1 * (k % 4)), chain(rng, n, d, m, 0.1 * (k % 4))
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


def edge_pair(rng, n, d=3):
    """A chain pair over four symbols: the first model never emits symbol 2,
    the second never emits symbol 3, and both emit 0 and 1."""
    pair = []
    for never in (2, 3):
        initial, transition, emission = rows(rng, (d,)), rows(rng, (d, d)), rows(rng, (d, 4))
        emission[:, never] = 0.0
        emission /= emission.sum(axis=1, keepdims=True)
        pair.append(HmmModel(length=n, initial=initial, transition=transition, emission=DiscreteEmission(emission)))
    return pair


@pytest.mark.parametrize("block", [2, 3])
def test_impossible_evidence_at_block_edges_is_named_as_in_one_block(block, monkeypatch):
    # blocks of `block` positions from position 2 and a last block of one:
    # each edge, position 1 and the short last block, under either model or
    # under both, where the second model's mass vanishes first, at N
    d, n = 3, 2 * block + 2
    rng = np.random.default_rng(block)
    m1, m0 = edge_pair(rng, n, d)
    positions = sorted({1, 2, block + 1, block + 2, 2 * block + 1, n})
    routes = (kld_hmm_evidence, lambda *case: mc_kld_evidence(*case, 2, 0))
    for position in positions:
        for name, symbols in ("first", {position: 2}), ("second", {position: 3}), ("first", {n: 3, position: 2}):
            x = rng.integers(0, 2, size=n)
            for i, symbol in symbols.items():
                x[i - 1] = symbol
            seen = []
            for entries in (2**20, block * d * d):
                monkeypatch.setattr(hmtkl.divergence, "_BLOCK_ENTRIES", entries)
                for route in routes:
                    with pytest.raises(ZeroLikelihoodError) as err:
                        route(m1, m0, Evidence(x))
                    seen.append((err.value.position, str(err.value)))
            assert seen == [(position, f"zero likelihood under the {name} model (position {position})")] * 4


# ---------------------------------------------------------------------------
# Memory


def evidence_peak(n, d):
    """tracemalloc peak, in bytes, of one `kld_hmm_evidence` call."""
    rng = np.random.default_rng(n)
    m1, m0, ev = chain(rng, n, d, 8), chain(rng, n, d, 8), Evidence(rng.integers(0, 8, size=n))
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


def test_one_call_holds_one_slice_of_factors_per_model():
    # one block of weights and a quarter block of each model's factors: the
    # three whole-block factor stacks held before peaked at 3.25 MiB here
    assert evidence_peak(2000, 64) <= 2 * 2**20


def test_memory_does_not_grow_with_the_length():
    # both backward recursions and the inward fold run last symbol first, so
    # only the block being folded is held: no (N, d) table is alive
    assert abs(evidence_peak(8000, 64) - evidence_peak(2000, 64)) <= 64 * 2**10


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
    model_pairs(
        nodes=st.integers(1, 5),
        states=st.integers(1, 3),
        symbols=st.integers(1, 3),
        p_zero=st.sampled_from([0.0, 0.3, 0.6]),
        chains=True,
        evidence=True,
    )
)
def test_evidence_route_matches_enumeration(case):
    m1, m0, ev = case
    for name, model in (("first", m1), ("second", m0)):
        position = vanishing_position(model, ev)
        if position is not None:
            for route in (kld_hmm_evidence, lambda *case: mc_kld_evidence(*case, 2, 0)):
                with pytest.raises(ZeroLikelihoodError, match=f"{name} model") as err:
                    route(m1, m0, ev)
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
    case=model_pairs(
        nodes=st.integers(1, 40),
        states=st.sampled_from([1, 2, 3, 5, 17, 64]),
        p_zero=st.sampled_from([0.0, 0.3, 0.6]),
        chains=True,
        evidence=True,
    ),
    layout=st.sampled_from(["C", "F"]),
)
def test_backward_and_posterior_match_the_logged_recursion_bit_for_bit(case, layout):
    model, _, ev = case
    model = laid_out(model, layout)
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
