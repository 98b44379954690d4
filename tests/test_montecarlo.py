"""Sampling, estimators, reproducibility, and the per-trial substream contract."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hmtkl.divergence
from hmtkl import (
    DiscreteEmission,
    Evidence,
    HmmModel,
    HmtModel,
    HmtTopology,
    bundled_gaussian_tree_pair,
    block_evidence,
    bundled_hmm_pair,
    brute_force_kld_joint,
    kld_hmm_evidence,
    loglik_joint,
    mc_kld_evidence,
    mc_kld_no_evidence,
    sample_joint,
    sample_posterior,
)
from hmtkl.errors import ZeroLikelihoodError
from hmtkl.hmm import _factor_block, posterior_conditionals
from hmtkl.montecarlo import (
    _Law,
    _Windows,
    _chunked_uniforms,
    _draw,
    _inclusive_cdf,
    _inverse_normal,
    _log_ratios,
    _pair,
    _pass,
    _tree_law,
    _tree_pair,
)
from modelgen import SEEDS, chain, model_pairs, ragged_paths, rows, tree, tree_pair

#: The topology of the small homogeneous pairs: a root and two leaves.
SMALL = HmtTopology.regular(2, 2)


def node_tables(parent, law, uniforms):
    """States and emissions of a node-major chunk: row j holds node j of every trial."""
    emitted = [x for _, _, _, _, x in _pass(parent, law, uniforms)]
    states = uniforms.view(np.int64)[:: law.draws_per_node]
    return states, (None if law.gaussian is None else np.vstack(emitted))


def tree_tables(model, uniforms):
    return node_tables(model.topology.parent, _tree_law(model, _inclusive_cdf), uniforms)


def joined_uniforms(seed, trials, per_trial):
    """Every chunk of `_chunked_uniforms`, joined along the trial axis."""
    return np.hstack([block for _, block in _chunked_uniforms(seed, trials, per_trial)])


class TestSubstreams:
    def test_trial_rows_are_philox_substreams(self):
        """Column t of the batch equals a fresh generator advanced to trial t's block."""
        m, _ = bundled_gaussian_tree_pair()
        per_trial = 2 * m.topology.n_nodes
        blocks_per_trial = -(-per_trial // 4)
        seed, trials = 99, 5
        (start, batch), = list(_chunked_uniforms(seed, trials, per_trial))
        assert start == 0
        for t in range(trials):
            bits = np.random.Philox(key=seed)
            bits.advance(t * blocks_per_trial)
            row = np.random.Generator(bits).random(4 * blocks_per_trial)[:per_trial]
            np.testing.assert_array_equal(batch[:, t], row)

    def test_sample_joint_reproduces_batch_trial(self):
        m, _ = bundled_gaussian_tree_pair()
        per_trial = 2 * m.topology.n_nodes
        blocks_per_trial = -(-per_trial // 4)
        seed = 4242
        (_, batch), = list(_chunked_uniforms(seed, 3, per_trial))
        states, emitted = tree_tables(m, batch)
        for t in range(3):
            bits = np.random.Philox(key=seed)
            bits.advance(t * blocks_per_trial)
            x, s = sample_joint(m, np.random.Generator(bits))
            for j, path in enumerate(m.topology.nodes):
                assert s[path] == states[j, t]
                assert x[path] == emitted[j, t]

    def test_chunk_boundaries_do_not_change_values(self, monkeypatch):
        import hmtkl.montecarlo as mc

        a, b = tree_pair(np.random.default_rng(0), SMALL, shared=(True, True))
        full = mc_kld_no_evidence(a, b, 1000, 3)
        monkeypatch.setattr(mc, "_CHUNK", 64)
        chunked = mc_kld_no_evidence(a, b, 1000, 3)
        assert chunked == full


class TestSampleJoint:
    def test_deterministic_model_unique_path(self):
        topo = HmtTopology.regular(2, 2)
        m = HmtModel(
            topology=topo,
            initial=[1.0, 0.0],
            transitions=[[0.0, 1.0], [1.0, 0.0]],
            emissions=DiscreteEmission([[1.0, 0.0], [0.0, 1.0]]),
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, s = sample_joint(m, rng)
            assert s == {"": 0, "0": 1, "1": 1}
            assert x == {"": 0, "0": 1, "1": 1}
            assert loglik_joint(m, x, s) == 0.0

    def test_root_state_frequency(self):
        a, _ = bundled_hmm_pair(length=2)
        tree = a.as_tree()
        batch = joined_uniforms(123, 100_000, 2 * tree.topology.n_nodes)
        states, _ = tree_tables(tree, batch)
        freq = (states[0] == 0).mean()
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_gaussian_root_sd(self):
        a, _ = bundled_gaussian_tree_pair()
        batch = joined_uniforms(7, 100_000, 2 * a.topology.n_nodes)
        states, emitted = tree_tables(a, batch)
        values = emitted[0, states[0] == 0]
        assert values.std(ddof=1) == pytest.approx(11.8, rel=0.03)

    def test_gaussian_draw_survives_zero_uniform(self):
        a, _ = bundled_gaussian_tree_pair()
        uniforms = np.zeros((2 * a.topology.n_nodes, 1))
        _, emitted = tree_tables(a, uniforms)
        assert np.isfinite(emitted).all()


class TestLoglikJoint:
    def test_single_state_single_symbol(self):
        topo = HmtTopology.regular(2, 1)
        m = HmtModel(topology=topo, initial=[1.0], transitions=[[1.0]], emissions=DiscreteEmission([[1.0]]))
        assert loglik_joint(m, {"": 0, "0": 0}, {"": 0, "0": 0}) == 0.0

    def test_probabilities_sum_to_one(self):
        a, _ = tree_pair(np.random.default_rng(5), SMALL, shared=(True, True))
        nodes = a.topology.nodes
        total = 0.0
        for states in product(range(2), repeat=len(nodes)):
            for symbols in product(range(2), repeat=len(nodes)):
                total += math.exp(
                    loglik_joint(a, dict(zip(nodes, symbols)), dict(zip(nodes, states)))
                )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_flagged(self):
        topo = HmtTopology.regular(2, 1)
        m = HmtModel(
            topology=topo,
            initial=[1.0, 0.0],
            transitions=[[0.5, 0.5], [0.5, 0.5]],
            emissions=DiscreteEmission([[1.0, 0.0], [1.0, 0.0]]),
        )
        assert loglik_joint(m, {"": 0, "0": 0}, {"": 1, "0": 0}) == -math.inf

    def test_incomplete_assignment(self):
        a, _ = tree_pair(np.random.default_rng(0), SMALL, shared=(True, True))
        with pytest.raises(ValueError, match="every node"):
            loglik_joint(a, {"": 0}, {"": 0})


class TestMcNoEvidence:
    def test_bitwise_reproducible(self):
        a, b = bundled_gaussian_tree_pair()
        first = mc_kld_no_evidence(a, b, 5000, 11)
        second = mc_kld_no_evidence(a, b, 5000, 11)
        assert first == second

    def test_equal_models_zero(self):
        a, _ = bundled_gaussian_tree_pair()
        est = mc_kld_no_evidence(a, a, 1000, 0)
        assert est.mean == 0.0
        assert est.ci_lo <= 0.0 <= est.ci_hi

    def test_ci_invariant(self):
        a, b = bundled_gaussian_tree_pair()
        est = mc_kld_no_evidence(a, b, 4000, 2)
        width = est.ci_hi - est.ci_lo
        assert width == pytest.approx(2 * 1.96 * est.sd / math.sqrt(est.trials), abs=1e-12)
        assert est.ci_lo <= est.mean <= est.ci_hi

    def test_support_violation_flagged(self):
        topo = HmtTopology.regular(2, 1)
        e = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        m1 = HmtModel(topology=topo, initial=[0.5, 0.5], transitions=[[0.5, 0.5], [0.5, 0.5]], emissions=e)
        m0 = HmtModel(topology=topo, initial=[0.5, 0.5], transitions=[[1.0, 0.0], [1.0, 0.0]], emissions=e)
        est = mc_kld_no_evidence(m1, m0, 2000, 0)
        assert est.mean == math.inf
        assert est.infinite_trials > 0

    def test_alphabet_mismatch_rejected(self):
        topo = HmtTopology.regular(3, 2)
        m1, m0 = (
            HmtModel(topology=topo, initial=[0.5, 0.5], transitions=[[0.7, 0.3], [0.4, 0.6]], emissions=DiscreteEmission(e))
            for e in ([[0.4, 0.6], [0.3, 0.7]], [[0.1, 0.3, 0.6], [0.5, 0.25, 0.25]])
        )
        with pytest.raises(ValueError, match="^alphabet size mismatch: 2 vs 3$"):
            mc_kld_no_evidence(m1, m0, 50, 0)

    def test_trials_validation(self):
        a, b = bundled_gaussian_tree_pair()
        with pytest.raises(ValueError, match="trials"):
            mc_kld_no_evidence(a, b, 1, 0)
        with pytest.raises(ValueError, match="seed"):
            mc_kld_no_evidence(a, b, 10, -1)

    def test_ci_width_scales_inverse_sqrt(self):
        a, b = tree_pair(np.random.default_rng(1), SMALL, shared=(True, True))
        ratios = []
        for seed in range(20):
            small = mc_kld_no_evidence(a, b, 1000, seed)
            large = mc_kld_no_evidence(a, b, 4000, seed)
            ratios.append((small.ci_hi - small.ci_lo) / (large.ci_hi - large.ci_lo))
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.10)

    def test_unbiased_at_desk_scale(self):
        a, b = tree_pair(np.random.default_rng(2), SMALL, shared=(True, True))
        exact = brute_force_kld_joint(a, b)
        est = mc_kld_no_evidence(a, b, 1_000_000, 17)
        assert abs(est.mean - exact) <= 3.0 * est.sd / math.sqrt(est.trials)

    def test_gaussian_pair_interval_width_at_1e5(self):
        a, b = bundled_gaussian_tree_pair()
        est = mc_kld_no_evidence(a, b, 100_000, 0)
        assert (est.ci_hi - est.ci_lo) / 2 == pytest.approx(0.006, abs=0.002)

    def test_gaussian_pair_coverage_at_1e3(self):
        # nominal 95% intervals should cover the exact value in >= 90 of 100 reruns
        from hmtkl import kld_exact_tree

        a, b = bundled_gaussian_tree_pair()
        exact = kld_exact_tree(a, b)
        covered = 0
        for seed in range(100):
            est = mc_kld_no_evidence(a, b, 1000, seed)
            covered += est.ci_lo <= exact <= est.ci_hi
        assert covered >= 90


class TestSamplePosterior:
    def test_uninformative_emissions_match_initial_law(self):
        e = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        m = HmmModel(length=4, initial=[0.3, 0.7], transition=[[0.9, 0.1], [0.4, 0.6]], emission=e)
        ev = Evidence.from_external([1, 2, 2, 1])
        rng = np.random.default_rng(0)
        hits = sum(sample_posterior(m, ev, rng)[0] == 0 for _ in range(20_000))
        assert hits / 20_000 == pytest.approx(0.3, abs=0.01)

    def test_single_state_unique_path(self):
        m = HmmModel(length=3, initial=[1.0], transition=[[1.0]], emission=DiscreteEmission([[0.4, 0.6]]))
        ev = Evidence.from_external([1, 2, 1])
        assert sample_posterior(m, ev, np.random.default_rng(0)).tolist() == [0, 0, 0]

    def test_frequency_of_reference_path(self):
        a, _ = bundled_hmm_pair()
        ev = Evidence.from_external([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
        path = (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)
        # exact posterior of this path, from the path-enumeration oracle in test_hmm
        exact = 0.004896133140185794
        from hmtkl import posterior_conditionals

        initial, factors = posterior_conditionals(a, ev)
        law = _Law(_inclusive_cdf(initial), _inclusive_cdf(factors))
        states, _ = node_tables(np.arange(10) - 1, law, joined_uniforms(2024, 100_000, 10))
        freq = (states.T == np.array(path)).all(axis=1).mean()
        se = math.sqrt(exact * (1 - exact) / 100_000)
        assert abs(freq - exact) <= 4 * se


class TestMcEvidence:
    def test_equal_models_zero(self):
        a, _ = bundled_hmm_pair()
        ev = Evidence.from_external([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
        est = mc_kld_evidence(a, a, ev, 500, 0)
        assert est.mean == 0.0
        assert est.ci_lo <= 0.0 <= est.ci_hi

    def test_bitwise_reproducible(self):
        a, b = bundled_hmm_pair()
        ev = Evidence.from_external([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
        assert mc_kld_evidence(a, b, ev, 3000, 9) == mc_kld_evidence(a, b, ev, 3000, 9)

    def test_ci_contains_exact_value(self):
        from hmtkl import kld_hmm_evidence

        a, b = bundled_hmm_pair()
        ev = Evidence.from_external([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
        exact = kld_hmm_evidence(a, b, ev)
        est = mc_kld_evidence(a, b, ev, 20_000, 2)
        assert est.ci_lo <= exact <= est.ci_hi

    def test_zero_likelihood_names_the_model_and_position(self):
        a, _ = bundled_hmm_pair()
        # emits only symbol 1, so the trailing 3s of the evidence are impossible
        blind = HmmModel(length=10, initial=a.initial, transition=a.transition, emission=DiscreteEmission([[1.0, 0.0, 0.0]] * 2))
        ev = Evidence.from_external([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
        for m1, m0, name in ((a, blind, "second"), (blind, a, "first")):
            with pytest.raises(ZeroLikelihoodError) as exc:
                mc_kld_evidence(m1, m0, ev, 10, 0)
            assert exc.value.position == 10
            assert str(exc.value) == f"zero likelihood under the {name} model (position 10)"
            with pytest.raises(ZeroLikelihoodError) as exact_exc:
                kld_hmm_evidence(m1, m0, ev)
            assert str(exact_exc.value) == str(exc.value)


GOLDEN_PATHS = ["", "0", "1", "2", "00", "01", "10", "20", "21", "22", "23", "000", "010", "011", "200"]


def ragged_golden_pair():
    """Per-node first model, per-node transitions with a shared emission second."""
    rng, topo = np.random.default_rng(2024), HmtTopology.from_nodes(GOLDEN_PATHS)
    return tree(rng, topo, 3, 2), tree(rng, topo, 3, 2, shared=(False, True))


@pytest.mark.parametrize(
    "name, trials, seed, mean, sd",
    [
        ("ragged", 3000, 11, 17.466284823535855, 5.737995710896749),
        ("gaussian", 2000, 5, 0.666724980148522, 0.9289794124888296),
        ("chain", 2500, 3, 17.180185706833296, 5.511213788342358),
    ],
)
def test_pinned_estimates_across_versions(name, trials, seed, mean, sd):
    """Exact mean/sd bits recorded from an earlier version of the sampler.

    The per-trial Philox substreams and the node order of uniform consumption
    make these a pure function of (models, trials, seed); a change to how the
    sampler stores its parameters must not move them.
    """
    if name == "ragged":
        pair = ragged_golden_pair()
    elif name == "gaussian":
        pair = bundled_gaussian_tree_pair()
    else:
        pair = tuple(m.as_tree() for m in bundled_hmm_pair(length=30))
    est = mc_kld_no_evidence(*pair, trials, seed)
    assert (est.mean, est.sd) == (mean, sd)


C04_EVIDENCE = Evidence.from_external([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])


def random_evidence_chain():
    """A d = 8 chain pair of length 300 with random evidence; 40000 trials of
    it take three chunks of 2^22 uniforms."""
    rng = np.random.default_rng(8080)
    return chain(rng, 300, 8, 4), chain(rng, 300, 8, 4), Evidence(rng.integers(0, 4, size=300))


def evidence_support_violation():
    """The second chain can never leave state 0, so its posterior misses most paths."""
    a, _ = bundled_hmm_pair()
    stuck = HmmModel(length=10, initial=a.initial, transition=[[1.0, 0.0], [0.2, 0.8]], emission=a.emission)
    return a, stuck, C04_EVIDENCE


def tree_support_violation():
    topo = HmtTopology.regular(3, 2)
    e = DiscreteEmission([[0.6, 0.4], [0.3, 0.7]])
    m1 = HmtModel(topology=topo, initial=[0.5, 0.5], transitions=[[0.9, 0.1], [0.2, 0.8]], emissions=e)
    m0 = HmtModel(topology=topo, initial=[0.5, 0.5], transitions=[[1.0, 0.0], [0.2, 0.8]], emissions=e)
    return m1, m0


@pytest.mark.parametrize(
    "name, trials, seed, mean, sd, infinite",
    [
        ("bundled", 3000, 9, 0.7234576362782561, 1.0179834491502007, 0),
        ("random", 40000, 21, 481.306755602322, 32.35789688212708, 0),
        ("support", 2000, 4, math.inf, math.nan, 958),
        ("tree-support", 2000, 6, math.inf, math.nan, 568),
    ],
)
def test_pinned_evidence_and_infinite_estimates_across_versions(name, trials, seed, mean, sd, infinite):
    """Exact (mean, sd, infinite_trials) of the evidence estimator, and the
    joint estimator's infinite_trials, recorded from the row-major sampler."""
    if name == "tree-support":
        est = mc_kld_no_evidence(*tree_support_violation(), trials, seed)
    else:
        if name == "bundled":
            m1, m0, ev = *bundled_hmm_pair(), C04_EVIDENCE
        elif name == "random":
            m1, m0, ev = random_evidence_chain()
        else:
            m1, m0, ev = evidence_support_violation()
        est = mc_kld_evidence(m1, m0, ev, trials, seed)
    assert est.infinite_trials == infinite
    if infinite:
        assert est.mean == math.inf and math.isnan(est.sd)
    else:
        assert (est.mean, est.sd) == (mean, sd)


CHUNK_CASES = {
    "ragged": lambda: mc_kld_no_evidence(*ragged_golden_pair(), 600, 11),
    "gaussian": lambda: mc_kld_no_evidence(*bundled_gaussian_tree_pair(), 700, 5),
    "chain": lambda: mc_kld_no_evidence(*(m.as_tree() for m in bundled_hmm_pair(length=30)), 500, 3),
    "evidence": lambda: mc_kld_evidence(*bundled_hmm_pair(), C04_EVIDENCE, 900, 9),
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunk_size_does_not_change_estimates(case, monkeypatch):
    """Chunks of one trial up to chunks holding every trial give the same
    bits, whether the uniform cap or the trial cap sets the chunk; so do
    posterior windows of one and of seven positions."""
    import hmtkl.montecarlo as mc

    estimates = []
    for chunk, cap in ((8, mc._TRIALS), (64, mc._TRIALS), (1000, mc._TRIALS), (1 << 20, mc._TRIALS), (1 << 20, 1), (1 << 20, 7)):
        monkeypatch.setattr(mc, "_CHUNK", chunk)
        monkeypatch.setattr(mc, "_TRIALS", cap)
        estimates.append(CHUNK_CASES[case]())
    if case == "evidence":
        monkeypatch.undo()
        d = bundled_hmm_pair()[0].n_states
        for entries in (d * d, 7 * d * d):
            monkeypatch.setattr(hmtkl.divergence, "_BLOCK_ENTRIES", entries)
            estimates.append(CHUNK_CASES[case]())
    assert estimates[0].infinite_trials == 0
    assert all(est == estimates[0] for est in estimates)


def test_tiles_keep_each_trial_substream(monkeypatch):
    """Tiles of three trials inside chunks of eight: column t is still trial t's substream."""
    import hmtkl.montecarlo as mc

    per_trial, seed, trials = 10, 31, 20
    monkeypatch.setattr(mc, "_CHUNK", 8 * 12)
    monkeypatch.setattr(mc, "_TILE", 3 * 12)
    chunks = list(_chunked_uniforms(seed, trials, per_trial))
    assert [(start, block.shape) for start, block in chunks] == [(0, (10, 8)), (8, (10, 8)), (16, (10, 4))]
    batch = np.hstack([block for _, block in chunks])
    assert batch.flags.c_contiguous
    for t in range(trials):
        bits = np.random.Philox(key=seed)
        bits.advance(t * 3)
        np.testing.assert_array_equal(batch[:, t], np.random.Generator(bits).random(12)[:per_trial])


def traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.tracemalloc_mc
@pytest.mark.parametrize("case", ["tree", "evidence"])
def test_memory_is_bounded_whatever_the_trial_count(case, monkeypatch):
    """Eight times the trials grows the peak by the 8-byte log-ratio of each
    extra trial and no more (plus 1 MiB), once trials span several chunks.
    Chunks of 2^20 uniforms keep the runs short; the code path is the same
    for any cap."""
    import hmtkl.montecarlo as mc
    from hmtkl.montecarlo import _chunk_trials

    monkeypatch.setattr(mc, "_CHUNK", 1 << 20)
    if case == "tree":
        rng = np.random.default_rng(3)
        topo = HmtTopology.from_nodes(ragged_paths(rng, 512, 4))
        pair = tree_pair(rng, topo, 2, 3, shared=(True, True))
        trials = 3 * _chunk_trials(2 * 512)
        run = lambda n: mc_kld_no_evidence(*pair, n, 0)  # noqa: E731
    else:
        m1, m0 = bundled_hmm_pair(length=1000)
        ev = Evidence.from_external([((p - 1) // 10) % 3 + 1 for p in range(1, 1001)])
        trials = 3 * _chunk_trials(1000)
        run = lambda n: mc_kld_evidence(m1, m0, ev, n, 0)  # noqa: E731
    small = traced_peak(lambda: run(trials))
    large = traced_peak(lambda: run(8 * trials))
    assert large - small <= 8 * 7 * trials + (1 << 20)


@pytest.mark.tracemalloc_mc
@pytest.mark.parametrize("case", ["chain", "evidence"])
def test_peak_holds_one_uniform_block_at_a_time(case, monkeypatch):
    """Over four chunks the peak is one uniform block, one tile, O(trials)
    and 1 MiB: no chunk is drawn while the previous one is still alive."""
    import hmtkl.montecarlo as mc
    from hmtkl.montecarlo import _chunk_trials, _padded

    monkeypatch.setattr(mc, "_CHUNK", 1 << 20)
    m1, m0 = bundled_hmm_pair(length=2000)
    if case == "chain":
        per_trial = 2 * 2000
        run = lambda n: mc_kld_no_evidence(m1.as_tree(), m0.as_tree(), n, 0)  # noqa: E731
    else:
        per_trial = 2000
        ev = Evidence.from_external([((p - 1) // 10) % 3 + 1 for p in range(1, 2001)])
        run = lambda n: mc_kld_evidence(m1, m0, ev, n, 0)  # noqa: E731
    size = _chunk_trials(per_trial)
    trials = 3 * size + 1
    block = 8 * per_trial * size
    tile = 8 * _padded(per_trial) * max(1, mc._TILE // _padded(per_trial))
    assert block > 4 * 2**20
    import numpy.random  # noqa: F401  (NumPy imports it lazily: its import stays out of the peak)
    assert traced_peak(lambda: run(trials)) <= block + tile + 64 * trials + 2**20


@pytest.mark.tracemalloc_mc
def test_few_nodes_at_1e5_trials_hold_one_capped_block():
    """The bundled Gaussian pair draws 14 uniforms per trial, so 2^22
    uniforms would hold every one of 1e5 trials.  The trial cap keeps the
    peak within one capped block, one tile, 16 bytes per trial (the
    log-ratios and the deviation pass of the sample sd) and 1 MiB."""
    import hmtkl.montecarlo as mc
    from hmtkl.montecarlo import _chunk_trials, _padded

    pair, trials = bundled_gaussian_tree_pair(), 100_000
    per_trial = 2 * pair[0].topology.n_nodes
    mc_kld_no_evidence(*pair, 2, 0)  # SciPy's import stays out of the peak
    block = 8 * per_trial * min(trials, _chunk_trials(per_trial))
    tile = 8 * _padded(per_trial) * max(1, mc._TILE // _padded(per_trial))
    assert traced_peak(lambda: mc_kld_no_evidence(*pair, trials, 0)) <= block + tile + 16 * trials + 2**20


@pytest.mark.tracemalloc_mc
def test_evidence_holds_three_posterior_stacks():
    """`mc_kld_evidence` at N = 1000 and d = 16 holds three ``(N-1, d, d)``
    stacks, the first model's CDFs and the pair of both models' logs, beside
    one uniform block, one tile, O(trials) and 1 MiB: pairing keeps neither
    model's real log stack next to the pair."""
    import hmtkl.montecarlo as mc
    from hmtkl.montecarlo import _chunk_trials, _padded

    rng, length, d, trials = np.random.default_rng(16), 1000, 16, 200
    m1, m0 = chain(rng, length, d, 3), chain(rng, length, d, 3)
    ev = Evidence.from_external(rng.integers(1, 4, length).tolist())
    import numpy.random  # noqa: F401  (NumPy imports it lazily: its import stays out of the peak)
    block = 8 * length * min(trials, _chunk_trials(length))
    tile = 8 * _padded(length) * max(1, mc._TILE // _padded(length))
    stacks = 3 * 8 * (length - 1) * d * d
    assert traced_peak(lambda: mc_kld_evidence(m1, m0, ev, trials, 0)) <= block + tile + stacks + 64 * trials + 2**20


@pytest.mark.tracemalloc_mc
def test_evidence_holds_one_window_of_posterior_stacks():
    """`mc_kld_evidence` at N = 1000, d = 64 and 200 trials peaks under 10
    MiB: the ``(N-1, 2, d)`` posterior weights and one window's CDF and pair
    stacks beside one uniform block and one tile.  Three whole ``(N-1, d,
    d)`` stacks took 97.6 MiB."""
    rng, length, d, trials = np.random.default_rng(64), 1000, 64, 200
    m1, m0 = chain(rng, length, d, 3), chain(rng, length, d, 3)
    ev = Evidence.from_external(rng.integers(1, 4, length).tolist())
    import numpy.random  # noqa: F401  (NumPy imports it lazily: its import stays out of the peak)
    assert traced_peak(lambda: mc_kld_evidence(m1, m0, ev, trials, 0)) < 10 * 2**20


def test_evidence_over_windows_and_chunks_equals_one_window_and_chunk(monkeypatch):
    """The evidence estimate walked over 15 windows of 7 positions, in 129
    chunks of 7 trials, has the bits of the one window walked in one chunk:
    each chunk rebuilds the windows it walks, and a chain of one window
    builds it once per call however many chunks walk it."""
    import hmtkl.montecarlo as mc

    m1, m0 = bundled_hmm_pair(length=100)
    ev, d, estimates = block_evidence(100), m1.n_states, []
    # _BLOCK_ENTRIES, _TRIALS, and the windows, chunks and factor stacks they give
    cases = [(None, None, 1, 1, 2), (None, 7, 1, 129, 2), (7 * d * d, None, 15, 1, 30), (7 * d * d, 7, 15, 129, 2 * 15 * 129)]
    for entries, cap, windows, chunks, builds in cases:
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            if entries is not None:
                patch.setattr(hmtkl.divergence, "_BLOCK_ENTRIES", entries)
            if cap is not None:
                patch.setattr(mc, "_TRIALS", cap)
            assert (len([*_Windows(m1, m0, ev)]), -(-900 // mc._chunk_trials(100))) == (windows, chunks)
            patch.setattr(mc, "_factor_block", lambda *args, **kwargs: calls.append(args) or _factor_block(*args, **kwargs))
            estimates.append(mc_kld_evidence(m1, m0, ev, 900, 9))
        # a window is built with one factor stack per model
        assert len(calls) == builds
    assert estimates[0].infinite_trials == 0
    assert all(est == estimates[0] for est in estimates)


def test_each_window_is_built_after_the_last_is_let_go(monkeypatch):
    """While a window of the evidence walk is built, no earlier window's CDF
    or pair stack is still alive, and the first chunk of uniforms has been
    drawn and its tile let go: so one window's stacks are held at a time,
    across windows and across chunks."""
    import weakref

    import hmtkl.montecarlo as mc

    stacks, alive, drawn = [], [], []

    def inclusive_cdf(rows):
        cdf = _inclusive_cdf(rows)
        if cdf.ndim == 3:  # a window's CDF stack, not the initial law's
            stacks.append(weakref.ref(cdf))
        return cdf

    def factor_block(transition, weights, out):
        # `out` is one half of the pair stack being built, which stays alive
        alive.append((len(drawn), [ref for ref in stacks if ref() is not None and ref() is not out.base]))
        stacks.append(weakref.ref(out.base))
        return _factor_block(transition, weights, out=out)

    def chunked_uniforms(*args):
        for chunk in _chunked_uniforms(*args):
            drawn.append(chunk[0])
            yield chunk

    m1, m0 = bundled_hmm_pair(length=100)
    monkeypatch.setattr(hmtkl.divergence, "_BLOCK_ENTRIES", 7 * m1.n_states**2)
    monkeypatch.setattr(mc, "_TRIALS", 300)
    for name, wrapper in (("_inclusive_cdf", inclusive_cdf), ("_factor_block", factor_block), ("_chunked_uniforms", chunked_uniforms)):
        monkeypatch.setattr(mc, name, wrapper)
    mc_kld_evidence(m1, m0, block_evidence(100), 900, 9)
    assert drawn == [0, 300, 600]
    assert len(alive) == 2 * 15 * 3
    assert all(chunks and not live for chunks, live in alive)


def test_pair_tables_hold_each_models_logs_and_never_nan(monkeypatch):
    """A zero probability in either model makes its half of the pair entry
    -inf, (-inf, x) or (x, -inf), and never NaN; every half holds its own
    model's logs bit for bit, broadcast where only the other model is
    per-node, and the evidence pair, in windows of 5, 5 and 1 positions,
    holds the logs of both posteriors."""
    pair = _pair(np.array([0.0, 0.5, 1.0]), np.array([0.5, 0.0, 1.0]))
    assert pair.real.tolist() == [-math.inf, math.log(0.5), 0.0]
    assert pair.imag.tolist() == [math.log(0.5), -math.inf, 0.0]

    rng = np.random.default_rng(5)
    topology = HmtTopology.regular(3, 2)
    m1, m0 = tree(rng, topology, 3, 2, (True, False), p_zero=0.4), tree(rng, topology, 3, 2, (False, True), p_zero=0.4)
    tree_logs = _tree_pair(m1, m0)
    spec1, spec0 = m1.emission_stack, m0.emission_stack
    halves = [
        (tree_logs.first, m1.initial, m0.initial),
        (tree_logs.steps, m1.transition_stack, m0.transition_stack),
        (tree_logs.emission, spec1.matrix, spec0.matrix),
    ]
    # zeros in the transitions only, so that the evidence is possible under both chains
    c1, c0 = (HmmModel(length=12, initial=rows(rng, (3,)), transition=rows(rng, (3, 3), 0.4), emission=DiscreteEmission(rows(rng, (3, 2)))) for _ in range(2))
    ev = Evidence.from_external(rng.integers(1, 3, 12).tolist())
    monkeypatch.setattr(hmtkl.divergence, "_BLOCK_ENTRIES", 5 * 3 * 3)
    walk = [*_Windows(c1, c0, ev)]
    windows = [next((draw, pair) for lo, hi, draw, pair in walk if lo <= node < hi) for node in (0, 1, 6, 11)]
    assert [(cdf.node0, logs.node0, len(logs.steps)) for cdf, logs in windows] == [(1, 1, 5), (1, 1, 5), (6, 6, 5), (11, 11, 1)]
    evidence_logs = _Law(windows[0][1].first, np.concatenate([logs.steps for _, logs in windows[1:]]))
    (initial1, factors1), (initial0, factors0) = (posterior_conditionals(m, ev) for m in (c1, c0))
    halves += [(evidence_logs.first, initial1, initial0), (evidence_logs.steps, factors1, factors0)]
    np.testing.assert_array_equal(windows[0][0].first, _inclusive_cdf(initial1))
    np.testing.assert_array_equal(np.concatenate([cdf.steps for cdf, _ in windows[1:]]), _inclusive_cdf(factors1))
    with np.errstate(divide="ignore"):
        for got, first, second in halves:
            assert not np.isnan(got).any()
            np.testing.assert_array_equal(got.real, np.broadcast_to(np.log(first), got.shape))
            np.testing.assert_array_equal(got.imag, np.broadcast_to(np.log(second), got.shape))
    for got in (tree_logs.steps, evidence_logs.steps):
        assert np.isneginf(got.real).any() and np.isneginf(got.imag).any()


def test_evidence_chunks_at_1e5_trials_stay_within_the_draw_cap():
    """Size arithmetic for N = 1e4 evidence and 1e5 trials: no uniform block
    above 8 x _CHUNK bytes.  Only the first chunk is drawn."""
    import hmtkl.montecarlo as mc

    length, trials = 10_000, 100_000
    start, block = next(mc._chunked_uniforms(0, trials, length))
    assert start == 0
    assert block.shape == (length, mc._chunk_trials(length))
    # every later chunk has this many trials, or fewer in the last one
    assert block.nbytes <= 8 * mc._CHUNK
    assert -(-trials // block.shape[1]) * block.shape[1] >= trials
    tile = max(1, mc._TILE // length) * length * 8
    assert tile <= 8 * mc._CHUNK


def test_loglik_joint_rejects_states_and_symbols_out_of_range():
    a, _ = tree_pair(np.random.default_rng(0), SMALL, shared=(True, True))
    states = {"": 0, "0": 1, "1": 0}
    symbols = {"": 1, "0": 0, "1": 1}
    assert loglik_joint(a, symbols, states) < 0.0
    with pytest.raises(ValueError, match="states"):
        loglik_joint(a, symbols, dict(states, **{"1": 2}))
    with pytest.raises(ValueError, match="states"):
        loglik_joint(a, symbols, dict(states, **{"": -1}))
    with pytest.raises(ValueError, match="symbols"):
        loglik_joint(a, dict(symbols, **{"0": 2}), states)
    # integral floats and NumPy ints load as indices; other values never truncate
    assert loglik_joint(a, dict(symbols, **{"": 1.0}), dict(states, **{"0": np.int32(1)})) == loglik_joint(a, symbols, states)
    for bad in (0.5, 1.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="states"):
            loglik_joint(a, symbols, dict(states, **{"0": bad}))
        with pytest.raises(ValueError, match="symbols"):
            loglik_joint(a, dict(symbols, **{"1": bad}), states)
    chain = bundled_hmm_pair(length=3)[0].as_tree()
    chain_states = dict.fromkeys(chain.topology.nodes, 0)
    with pytest.raises(ValueError, match="symbols"):
        loglik_joint(chain, dict.fromkeys(chain.topology.nodes, 1.5), chain_states)
    g, _ = bundled_gaussian_tree_pair()
    g_states, g_values = dict.fromkeys(g.topology.nodes, 0), dict.fromkeys(g.topology.nodes, 1.0)
    assert math.isfinite(loglik_joint(g, g_values, g_states))
    assert loglik_joint(g, dict(g_values, **{"": math.inf}), g_states) == -math.inf
    with pytest.raises(ValueError, match="NaN"):
        loglik_joint(g, dict(g_values, **{"": math.nan}), g_states)


def where_search(cdf, base, u):
    """The inverse-CDF search as an ``np.where`` select, kept as a reference."""
    n, pos = cdf.shape[-1] - 1, base
    while n > 1:
        half = n // 2
        mid = pos + half
        pos = np.where(cdf.take(mid) <= u, mid, pos)
        n -= half
    return pos + (cdf.take(pos) <= u)


#: Powers of two and the widths just past them, where a search's depth steps up.
EDGE_WIDTHS = sorted({2**i for i in range(7)} | {2**i + 1 for i in range(7)})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_draw_counts_the_cdf_entries_at_or_below_u(data):
    """`_draw` gives the index of the ``np.where`` search and of
    ``searchsorted(row[:-1], u, side="right")``, and never a zero-probability
    state, on rows with hard zeros (repeated CDF entries) and uniforms on,
    just below and between the entries, for widths 1 to 70: powers of two,
    the widths just past them and d = 64 among them."""
    width = data.draw(st.sampled_from(EDGE_WIDTHS) | st.integers(1, 70), label="width")
    n_rows = data.draw(st.sampled_from([None, 1, 2, 5]), label="rows")  # None: a 1-D table
    row = st.lists(st.integers(0, 3), min_size=width, max_size=width).filter(any)
    weights = np.array(data.draw(st.lists(row, min_size=n_rows or 1, max_size=n_rows or 1), label="weights"), dtype=float)
    cdf = np.cumsum(weights, axis=-1) / weights.sum(axis=-1, keepdims=True)  # last entry exactly 1.0
    if n_rows is None:
        weights, cdf = weights[0], cdf[0]
    entries = [float(v) for v in np.unique(cdf) if v < 1.0]
    edges = [0.0, *entries, *(float(np.nextafter(v, 0.0)) for v in entries if v > 0.0)]
    trials = data.draw(st.integers(1, 12), label="trials")
    u = np.array(data.draw(st.lists(st.sampled_from(edges) | st.floats(0.0, 1.0, exclude_max=True), min_size=trials, max_size=trials), label="u"))
    if n_rows is None and data.draw(st.booleans(), label="scalar base"):
        base = 0  # the root's offset
    else:
        base = width * np.array(data.draw(st.lists(st.integers(0, (n_rows or 1) - 1), min_size=trials, max_size=trials), label="bases"))
    got = _draw(cdf, base, u)
    np.testing.assert_array_equal(got, where_search(cdf, base, u))
    rows = cdf.reshape(-1, width)[np.broadcast_to(base, u.shape) // width]
    np.testing.assert_array_equal(got - base, [np.searchsorted(r[:-1], x, side="right") for r, x in zip(rows, u)])
    assert (weights.reshape(-1).take(got) > 0).all()


class CountedTakes(np.ndarray):
    """A table that counts the gathers made from it and from its views."""

    takes = 0

    def take(self, *args, **kwargs):
        CountedTakes.takes += 1
        return super().take(*args, **kwargs)


def test_search_depth_is_ceil_log2_d():
    """A draw from a table of width d makes ceil(log2 d) gathers, none for
    d = 1, whatever the uniforms, for d = 1..70; its values are
    `test_draw_counts_the_cdf_entries_at_or_below_u`'s to check."""
    rng = np.random.default_rng(70)
    for width in range(1, 71):
        cdf = _inclusive_cdf(rng.random((3, width))).view(CountedTakes)
        base, u = width * rng.integers(0, 3, size=50), rng.random(50)
        CountedTakes.takes = 0
        _draw(cdf, base, u)
        assert CountedTakes.takes == math.ceil(math.log2(width)), width


@settings(max_examples=300, deadline=None)
@given(
    row=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8).map(lambda w: list(np.array(w) / math.fsum(w))),
    zeros=st.integers(1, 4),
)
# the three entries sum to 1 - 2**-53 in floating point
@example(row=[0.20381898702851367, 0.7463113329614236, 0.049869680010062596], zeros=1)
def test_trailing_zero_states_are_never_drawn(row, zeros):
    """The largest Philox uniform, 1 - 2**-53, draws a state of positive
    probability also when the row ends in zero-probability states whose CDF
    entries rounding leaves below 1."""
    row = np.r_[row, np.zeros(zeros)]
    drawn = _draw(_inclusive_cdf(row), 0, np.array([0.0, 0.5, 1.0 - 2.0**-53]))
    assert (row[drawn] > 0).all()


def reference_walk(parent, law, uniforms):
    """The node-at-a-time ancestral sampler that the block pass replaced,
    kept as the reference: every table broadcast over the nodes, the states
    of nodes with children still to draw kept in a dict.  Yields
    ``(j, step, factor, x)`` per node, indices into node j's own tables."""
    n, d, k = parent.shape[0], law.first.shape[0], law.draws_per_node
    steps = np.broadcast_to(law.steps, (n - 1, d, d))
    has_children = np.zeros(n, dtype=bool)
    has_children[parent[1:]] = True
    last_child = np.ones(n, dtype=bool)
    last_child[1:-1] = parent[1:-1] != parent[2:]
    rows = {}
    for j, (p, kept, last) in enumerate(zip(parent.tolist(), has_children.tolist(), last_child.tolist())):
        base = (rows.pop(p) if last else rows[p]) if j else 0
        step = _draw(steps[j - 1] if j else law.first, base, uniforms[k * j])
        s = step - base
        if kept:
            rows[j] = s * d
        factor = x = None
        if law.gaussian is not None:
            means, sds = (np.broadcast_to(g, (n, d)) for g in law.gaussian)
            factor, x = s, means[j].take(s) + sds[j].take(s) * _inverse_normal(uniforms[k * j + 1])
        elif law.emission is not None:
            emission = np.broadcast_to(law.emission, (n, d, law.emission.shape[-1]))
            factor = _draw(emission[j], s * emission.shape[-1], uniforms[k * j + 1])
        yield j, step, factor, x


def reference_score(acc, law, n, j, step, factor, x):
    """Add node j's log-terms, as `reference_walk` indexes them, to `acc`."""
    d = law.first.shape[0]
    acc += (np.broadcast_to(law.steps, (n - 1, d, d))[j - 1] if j else law.first).take(step)
    if law.gaussian is not None:
        means, sds, log_sds = (np.broadcast_to(g, (n, d)) for g in (*law.gaussian, law.emission))
        z = (x - means[j].take(factor)) / sds[j].take(factor)
        acc += -0.5 * z**2 - log_sds[j].take(factor) - 0.5 * math.log(2.0 * math.pi)
    elif law.emission is not None:
        acc += np.broadcast_to(law.emission, (n, *law.emission.shape[-2:]))[j].take(factor)


def reference_log_ratios(parent, draw, score1, score0, trials, seed):
    n, diffs = parent.shape[0], np.empty(trials)
    for start, uniforms in _chunked_uniforms(seed, trials, draw.draws_per_node * n):
        acc1, acc0 = np.zeros(uniforms.shape[1]), np.zeros(uniforms.shape[1])
        for j, step, factor, x in reference_walk(parent, draw, uniforms):
            reference_score(acc1, score1, n, j, step, factor, x)
            reference_score(acc0, score0, n, j, step, factor, x)
        diffs[start : start + uniforms.shape[1]] = acc1 - acc0
    return diffs


@st.composite
def estimator_laws(draw):
    """``(parent, windows, (draw, score1, score0))`` of the joint
    estimator on a ragged or regular tree, a spine or a chain, or of the
    evidence estimator on a chain: the windows the pass walks and, built apart
    from them, the one-model laws of the node walk.

    A spine is a root with 2-4 children, the last of which heads a
    single-child path, while the others hold leaves.  The path's first
    node follows a leaf in breadth-first order and is node 13, so under any
    block width that divides 12 a block starts there that is all one-node
    segments, the first of whose parents is not the node before it."""
    small = {"nodes": st.integers(1, 60), "symbols": st.integers(1, 3)}
    # half the draws are spines: only block widths that divide 12 reach
    # their case, and only some of the test's (trials, cap, widths) give one
    kind = draw(st.sampled_from(["ragged", "regular", "chain", "evidence"]) | st.just("spine"))
    if kind == "ragged":
        m1, m0 = draw(model_pairs(**small))
    elif kind in ("regular", "spine"):
        if kind == "regular":
            arity, depth = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            topology = HmtTopology.regular(depth, arity)
        else:
            arity, length = draw(st.integers(2, 4)), draw(st.integers(10, 40))
            # the other children share 12 - arity leaves: the path's first node is node 13
            leaves = [f"{i % (arity - 1)}{i // (arity - 1)}" for i in range(12 - arity)]
            path = [str(arity - 1) + "0" * i for i in range(1, length + 1)]
            topology = HmtTopology.from_nodes(["", *map(str, range(arity)), *leaves, *path])
        # one state, or hard zeros along the path, which make nearly every
        # trial infinite, would hide a spine node that read the wrong parent
        states, p_zero = (st.integers(1, 3), 0.3) if kind == "regular" else (st.integers(2, 3), 0.0)
        rng, d, gaussian = np.random.default_rng(draw(SEEDS)), draw(states), draw(st.booleans())
        m1, m0 = (tree(rng, topology, d, 2, draw(st.tuples(st.booleans(), st.booleans())), gaussian, p_zero) for _ in range(2))
    elif kind == "chain":
        m1, m0 = (m.as_tree() for m in draw(model_pairs(chains=True, **small)))
    else:
        m1, m0, ev = draw(model_pairs(chains=True, evidence=True, **small))
        try:
            (initial1, factors1), (initial0, factors0) = (posterior_conditionals(m, ev) for m in (m1, m0))
        except ZeroLikelihoodError:
            assume(False)
        with np.errstate(divide="ignore"):
            logs = [_Law(np.log(i), np.log(f)) for i, f in ((initial1, factors1), (initial0, factors0))]
        reference = (_Law(_inclusive_cdf(initial1), _inclusive_cdf(factors1)), *logs)
        return np.arange(m1.length) - 1, _Windows(m1, m0, ev), reference
    cdfs = _tree_law(m1, _inclusive_cdf)
    return m1.topology.parent, ((0, m1.topology.n_nodes, cdfs, _tree_pair(m1, m0)),), (cdfs, _tree_law(m1, np.log), _tree_law(m0, np.log))


@settings(max_examples=120, deadline=None)
@given(
    laws=estimator_laws(),
    trials=st.integers(2, 24),
    seed=SEEDS,
    cap=st.sampled_from([1, 7, None]),
    widths=st.sampled_from([None, 48, 1]),
)
def test_block_pass_matches_the_node_walk_bit_for_bit(laws, trials, seed, cap, widths):
    """Every trial's log-ratio from the block pass equals that of the node
    walk it replaced: on ragged and regular trees, chains and evidence
    chains; shared, per-node and mixed layouts between the two models; both
    emission kinds; hard zeros, so that some trials are infinite; d = 1 and
    one node; chunks of one trial, of seven and of every trial; and blocks
    of the default width, of a few nodes that cut across levels, and of
    one node.  The pass scores both models under one pair law of complex
    tables, the walk each model under its own real law."""
    import hmtkl.montecarlo as mc

    parent, windows, reference = laws
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(mc, "_TRIALS", cap)
        if widths is not None:
            patch.setattr(mc, "_BLOCK", widths)
        got = _log_ratios(parent, windows, trials, seed)
    np.testing.assert_array_equal(got, reference_log_ratios(parent, *reference, trials, seed))


@st.composite
def spine_laws(draw):
    """The laws of `estimator_laws` on its spines only: a root with 2-4
    children, the last of which heads a single-child path of 10-40 nodes
    starting at node 13, while the others hold leaves; 2-3 states without
    hard zeros, shared or per-node, both emission kinds."""
    arity, length = draw(st.integers(2, 4)), draw(st.integers(10, 40))
    leaves = [f"{i % (arity - 1)}{i // (arity - 1)}" for i in range(12 - arity)]
    path = [str(arity - 1) + "0" * i for i in range(1, length + 1)]
    topology = HmtTopology.from_nodes(["", *map(str, range(arity)), *leaves, *path])
    rng, d, gaussian = np.random.default_rng(draw(SEEDS)), draw(st.integers(2, 3)), draw(st.booleans())
    m1, m0 = (tree(rng, topology, d, 2, draw(st.tuples(st.booleans(), st.booleans())), gaussian) for _ in range(2))
    cdfs = _tree_law(m1, _inclusive_cdf)
    return topology.parent, ((0, topology.n_nodes, cdfs, _tree_pair(m1, m0)),), (cdfs, _tree_law(m1, np.log), _tree_law(m0, np.log))


@settings(max_examples=40, deadline=None)
@given(laws=spine_laws(), seed=SEEDS)
def test_a_block_that_starts_on_the_spine_reads_the_right_parent(laws, seed):
    """Two trials under `_BLOCK` = 48 give blocks of 12 nodes, so a block
    starts at the path's first node, node 13: a one-node segment whose
    parent is not the node before it.  The pass equals the node walk bit
    for bit there, every run."""
    import hmtkl.montecarlo as mc

    parent, windows, reference = laws
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_BLOCK", 48)
        assert mc._block_nodes(2, 2) == 12
        got = _log_ratios(parent, windows, 2, seed)
    np.testing.assert_array_equal(got, reference_log_ratios(parent, *reference, 2, seed))


@st.composite
def zeroed_tree_pairs(draw):
    """A `modelgen` pair on a ragged or a regular tree, shared or per-node,
    discrete or Gaussian, each model with hard zeros."""
    p_zero = st.sampled_from([0.05, 0.3])
    if draw(st.booleans()):
        return draw(model_pairs(nodes=st.integers(1, 40), states=st.integers(1, 3), symbols=st.integers(1, 3), p_zero=p_zero))
    topology = HmtTopology.regular(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    d, m, gaussian, rng = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.booleans()), np.random.default_rng(draw(SEEDS))
    return tuple(tree(rng, topology, d, m, draw(st.tuples(st.booleans(), st.booleans())), gaussian, draw(p_zero)) for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(pair=zeroed_tree_pairs(), trials=st.integers(2, 8), seed=SEEDS)
def test_loglik_joint_scores_each_trial_as_the_pass_does(pair, trials, seed):
    """Trial t's log-ratio from the pass is ``loglik_joint(m1) -
    loglik_joint(m0)`` of the draw `sample_joint` makes from trial t's
    substream, bit for bit, +inf included."""
    m1, m0 = pair
    diffs = _log_ratios(m1.topology.parent, ((0, m1.topology.n_nodes, _tree_law(m1, _inclusive_cdf), _tree_pair(m1, m0)),), trials, seed)
    blocks_per_trial = -(-2 * m1.topology.n_nodes // 4)
    scored = []
    for t in range(trials):
        bits = np.random.Philox(key=seed)
        bits.advance(t * blocks_per_trial)
        x, s = sample_joint(m1, np.random.Generator(bits))
        scored.append(loglik_joint(m1, x, s) - loglik_joint(m0, x, s))
    np.testing.assert_array_equal(scored, diffs)
