"""Sampling, estimators, reproducibility, and the per-trial substream contract."""

import math
from itertools import product

import numpy as np
import pytest

from hmtkl import (
    DiscreteEmission,
    Evidence,
    HmmModel,
    HmtModel,
    HmtTopology,
    bundled_gaussian_tree_pair,
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
from hmtkl.montecarlo import _Law, _chunked_uniforms, _inclusive_cdf, _tree_law, _walk


def small_discrete_pair(seed=0, depth=2, children=2):
    rng = np.random.default_rng(seed)
    topo = HmtTopology.regular(depth, children)

    def one():
        return HmtModel(
            topology=topo,
            initial=rng.dirichlet(np.ones(2)),
            transitions=rng.dirichlet(np.ones(2), size=2),
            emissions=DiscreteEmission(rng.dirichlet(np.ones(2), size=2)),
        )

    return one(), one()


def node_tables(parent, law, uniforms):
    """States and emissions of a node-major chunk: row j holds node j of every trial."""
    drawn = [(s, x) for _, s, _, _, x in _walk(parent, law, uniforms)]
    return np.array([s for s, _ in drawn]), np.array([x for _, x in drawn])


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

        a, b = small_discrete_pair()
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
        a, _ = small_discrete_pair(seed=5)
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
        a, _ = small_discrete_pair()
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
        a, b = small_discrete_pair(seed=1)
        ratios = []
        for seed in range(20):
            small = mc_kld_no_evidence(a, b, 1000, seed)
            large = mc_kld_no_evidence(a, b, 4000, seed)
            ratios.append((small.ci_hi - small.ci_lo) / (large.ci_hi - large.ci_lo))
        assert np.mean(ratios) == pytest.approx(2.0, rel=0.10)

    def test_unbiased_at_desk_scale(self):
        a, b = small_discrete_pair(seed=2)
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
    rng = np.random.default_rng(2024)
    topo = HmtTopology.from_nodes(GOLDEN_PATHS)

    def rows(k, n):
        return rng.dirichlet(np.ones(n), size=k)

    m1 = HmtModel(
        topology=topo,
        initial=rows(1, 3)[0],
        transitions={p: rows(3, 3) for p in topo.nodes if p},
        emissions={p: DiscreteEmission(rows(3, 2)) for p in topo.nodes},
    )
    m0 = HmtModel(
        topology=topo,
        initial=rows(1, 3)[0],
        transitions={p: rows(3, 3) for p in topo.nodes if p},
        emissions=DiscreteEmission(rows(3, 2)),
    )
    return m1, m0


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
    d, m, n = 8, 4, 300

    def one():
        return HmmModel(
            length=n,
            initial=rng.dirichlet(np.ones(d)),
            transition=rng.dirichlet(np.ones(d), size=d),
            emission=DiscreteEmission(rng.dirichlet(np.ones(m), size=d)),
        )

    m1, m0 = one(), one()
    return m1, m0, Evidence(rng.integers(0, m, size=n))


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
    """Chunks of one trial up to chunks holding every trial give the same bits."""
    import hmtkl.montecarlo as mc

    estimates = []
    for chunk in (8, 64, 1000, 1 << 20):
        monkeypatch.setattr(mc, "_CHUNK", chunk)
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


def ragged_paths(n, seed):
    """`n` breadth-first paths of a random tree with up to four children per node."""
    rng = np.random.default_rng(seed)
    paths, children = [""], {"": 0}
    while len(paths) < n:
        p = paths[int(rng.integers(len(paths)))]
        if children[p] < 4:
            child = p + str(children[p])
            children[p] += 1
            children[child] = 0
            paths.append(child)
    return paths


def traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        topo = HmtTopology.from_nodes(ragged_paths(512, 3))
        rng = np.random.default_rng(3)

        def one():
            return HmtModel(
                topology=topo,
                initial=rng.dirichlet(np.ones(2)),
                transitions=rng.dirichlet(np.ones(2), size=2),
                emissions=DiscreteEmission(rng.dirichlet(np.ones(3), size=2)),
            )

        pair = one(), one()
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
    assert traced_peak(lambda: run(trials)) <= block + tile + 64 * trials + 2**20


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
    a, _ = small_discrete_pair()
    states = {"": 0, "0": 1, "1": 0}
    symbols = {"": 1, "0": 0, "1": 1}
    assert loglik_joint(a, symbols, states) < 0.0
    with pytest.raises(ValueError, match="states"):
        loglik_joint(a, symbols, dict(states, **{"1": 2}))
    with pytest.raises(ValueError, match="states"):
        loglik_joint(a, symbols, dict(states, **{"": -1}))
    with pytest.raises(ValueError, match="symbols"):
        loglik_joint(a, dict(symbols, **{"0": 2}), states)
