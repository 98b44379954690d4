"""Enumeration oracles: anchors, budget handling, and error surfaces."""

import math

import numpy as np
import pytest

from hmtkl import (
    DiscreteEmission,
    EnumerationBudgetError,
    Evidence,
    HmmModel,
    bundled_gaussian_tree_pair,
    bundled_hmm_pair,
    brute_force_kld_joint,
    brute_force_kld_posterior,
    enumeration_budget,
    kl_discrete,
)


class TestJointOracle:
    def test_equal_models_zero(self):
        a, _ = bundled_hmm_pair(length=3)
        assert brute_force_kld_joint(a.as_tree(), a.as_tree()) == 0.0

    def test_single_state_chain_by_hand(self):
        # d = 1: the joint divergence is just the sum of emission divergences
        e1 = DiscreteEmission([[0.2, 0.8]])
        e0 = DiscreteEmission([[0.6, 0.4]])
        a = HmmModel(length=3, initial=[1.0], transition=[[1.0]], emission=e1)
        b = HmmModel(length=3, initial=[1.0], transition=[[1.0]], emission=e0)
        expected = 3.0 * kl_discrete([0.2, 0.8], [0.6, 0.4])
        assert brute_force_kld_joint(a.as_tree(), b.as_tree()) == pytest.approx(expected, abs=1e-13)

    def test_support_mismatch_is_inf(self):
        e1 = DiscreteEmission([[0.5, 0.5]])
        e0 = DiscreteEmission([[1.0, 0.0]])
        a = HmmModel(length=2, initial=[1.0], transition=[[1.0]], emission=e1)
        b = HmmModel(length=2, initial=[1.0], transition=[[1.0]], emission=e0)
        assert brute_force_kld_joint(a.as_tree(), b.as_tree()) == math.inf

    def test_budget_exceeded(self):
        a, b = bundled_hmm_pair(length=10)
        with pytest.raises(EnumerationBudgetError, match="budget"):
            brute_force_kld_joint(a.as_tree(), b.as_tree(), budget=1000)

    def test_env_var_budget(self, monkeypatch):
        monkeypatch.setenv("KLD_ENUM_BUDGET", "42")
        assert enumeration_budget() == 42
        a, b = bundled_hmm_pair(length=3)
        with pytest.raises(EnumerationBudgetError):
            brute_force_kld_joint(a.as_tree(), b.as_tree())
        monkeypatch.delenv("KLD_ENUM_BUDGET")
        assert enumeration_budget() == 10_000_000

    def test_gaussian_rejected(self):
        a, b = bundled_gaussian_tree_pair()
        with pytest.raises(ValueError, match="discrete"):
            brute_force_kld_joint(a, b)

    def test_alphabet_mismatch_rejected(self):
        a, b = (
            HmmModel(length=3, initial=[0.5, 0.5], transition=[[0.7, 0.3], [0.4, 0.6]], emission=DiscreteEmission(e)).as_tree()
            for e in ([[0.4, 0.6], [0.3, 0.7]], [[0.1, 0.3, 0.6], [0.5, 0.25, 0.25]])
        )
        with pytest.raises(ValueError, match="^alphabet size mismatch: 2 vs 3$"):
            brute_force_kld_joint(a, b)


class TestPosteriorOracle:
    def test_equal_models_zero(self):
        a, _ = bundled_hmm_pair(length=5)
        ev = Evidence.from_external([1, 2, 3, 1, 2])
        assert brute_force_kld_posterior(a, a, ev) == 0.0

    def test_single_state_zero(self):
        m1 = HmmModel(length=4, initial=[1.0], transition=[[1.0]], emission=DiscreteEmission([[0.3, 0.7]]))
        m0 = HmmModel(length=4, initial=[1.0], transition=[[1.0]], emission=DiscreteEmission([[0.8, 0.2]]))
        # only one hidden path exists, so both posteriors are the point mass on it
        ev = Evidence.from_external([1, 2, 2, 1])
        assert brute_force_kld_posterior(m1, m0, ev) == 0.0

    def test_budget_exceeded(self):
        a, b = bundled_hmm_pair(length=10)
        ev = Evidence(np.zeros(10, dtype=np.int64))
        with pytest.raises(EnumerationBudgetError):
            brute_force_kld_posterior(a, b, ev, budget=100)

    def test_length_mismatch(self):
        a, b = bundled_hmm_pair(length=4)
        with pytest.raises(ValueError, match="length"):
            brute_force_kld_posterior(a, b, Evidence.from_external([1, 2]))
