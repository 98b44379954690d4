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
from hmtkl.montecarlo import _TreeSampler, _chunked_uniforms


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


class TestSubstreams:
    def test_trial_rows_are_philox_substreams(self):
        """Row t of the batch equals a fresh generator advanced to trial t's block."""
        m, _ = bundled_gaussian_tree_pair()
        sampler = _TreeSampler(m)
        per_trial = sampler.draws_per_trial
        blocks_per_trial = -(-per_trial // 4)
        seed, trials = 99, 5
        (start, batch), = list(_chunked_uniforms(seed, trials, per_trial))
        assert start == 0
        for t in range(trials):
            bits = np.random.Philox(key=seed)
            bits.advance(t * blocks_per_trial)
            row = np.random.Generator(bits).random(4 * blocks_per_trial)[:per_trial]
            np.testing.assert_array_equal(batch[t], row)

    def test_sample_joint_reproduces_batch_trial(self):
        m, _ = bundled_gaussian_tree_pair()
        sampler = _TreeSampler(m)
        per_trial = sampler.draws_per_trial
        blocks_per_trial = -(-per_trial // 4)
        seed = 4242
        (_, batch), = list(_chunked_uniforms(seed, 3, per_trial))
        states, emitted = sampler.sample(batch)
        for t in range(3):
            bits = np.random.Philox(key=seed)
            bits.advance(t * blocks_per_trial)
            x, s = sample_joint(m, np.random.Generator(bits))
            for j, path in enumerate(m.topology.nodes):
                assert s[path] == states[t, j]
                assert x[path] == emitted[t, j]

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
        sampler = _TreeSampler(tree)
        (_, batch), = list(_chunked_uniforms(123, 100_000, sampler.draws_per_trial))
        states, _ = sampler.sample(batch)
        freq = (states[:, 0] == 0).mean()
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_gaussian_root_sd(self):
        a, _ = bundled_gaussian_tree_pair()
        sampler = _TreeSampler(a)
        (_, batch), = list(_chunked_uniforms(7, 100_000, sampler.draws_per_trial))
        states, emitted = sampler.sample(batch)
        values = emitted[states[:, 0] == 0, 0]
        assert values.std(ddof=1) == pytest.approx(11.8, rel=0.03)

    def test_gaussian_draw_survives_zero_uniform(self):
        a, _ = bundled_gaussian_tree_pair()
        sampler = _TreeSampler(a)
        uniforms = np.zeros((1, sampler.draws_per_trial))
        _, emitted = sampler.sample(uniforms)
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
        from hmtkl.montecarlo import _posterior_path_sampler, _sample_paths

        icdf, fcdfs, _, _ = _posterior_path_sampler(a, ev)
        (_, batch), = list(_chunked_uniforms(2024, 100_000, 10))
        states = _sample_paths(icdf, fcdfs, batch)
        freq = (states == np.array(path)).all(axis=1).mean()
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
