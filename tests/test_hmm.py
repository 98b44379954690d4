"""Chain closed form, rate, the fast path (the eigendecomposition preconditions
in front of the closed form's doubling), bound, and evidence conditioning."""

import math
import re
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmtkl import (
    DiscreteEmission,
    Evidence,
    HmmModel,
    StationaryError,
    ZeroLikelihoodError,
    backward_quantities,
    bundled_hmm_pair,
    do_bound,
    kld_hmm_evidence,
    kld_hmm_fast,
    kld_hmm_no_evidence,
    kld_rate,
    local_k_root,
    local_k_vector,
    posterior_conditionals,
    spectral_split,
    stationary_distribution,
)
from hmtkl import hmm
from hmtkl.divergence import local_k_terms, weighted_sum
from hmtkl.errors import SpectralError
from hmtkl.model import STOCH_TOL
from modelgen import chain, model_pairs

COUNTEREXAMPLE_STATES = (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)
COUNTEREXAMPLE_EVIDENCE = Evidence.from_external([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])


def enumerate_chain_kld(m1, m0):
    """Defining sum over all (x, s) of a chain, independent of the recursions."""
    d, m, n = m1.n_states, m1.emission.n_symbols, m1.length

    def prob(model, states, symbols):
        total = model.initial[states[0]] * model.emission.matrix[states[0], symbols[0]]
        for i in range(1, n):
            total *= model.transition[states[i - 1], states[i]]
            total *= model.emission.matrix[states[i], symbols[i]]
        return total

    acc = 0.0
    for states in product(range(d), repeat=n):
        for symbols in product(range(m), repeat=n):
            p = prob(m1, states, symbols)
            if p > 0:
                q = prob(m0, states, symbols)
                acc += p * math.log(p / q) if q > 0 else math.inf
    return acc


def enumerate_path_posteriors(model, evidence):
    """Posterior over all hidden paths by normalizing enumerated joints."""
    d, n = model.n_states, model.length
    x = evidence.symbols
    table = {}
    for states in product(range(d), repeat=n):
        p = model.initial[states[0]] * model.emission.matrix[states[0], x[0]]
        for i in range(1, n):
            p *= model.transition[states[i - 1], states[i]] * model.emission.matrix[states[i], x[i]]
        table[states] = p
    z = sum(table.values())
    return {s: p / z for s, p in table.items()}, z


class TestNoEvidence:
    def test_self_divergence_zero(self):
        a, _ = bundled_hmm_pair()
        assert kld_hmm_no_evidence(a, a) == 0.0

    def test_matches_enumeration_bundled_pair(self):
        a, b = bundled_hmm_pair(length=4)
        assert kld_hmm_no_evidence(a, b) == pytest.approx(enumerate_chain_kld(a, b), abs=1e-12)

    def test_matches_enumeration_length6(self):
        a, b = bundled_hmm_pair(length=6)
        assert kld_hmm_no_evidence(a, b) == pytest.approx(enumerate_chain_kld(a, b), abs=1e-9)

    def test_frozen_value_length10(self):
        a, b = bundled_hmm_pair()
        # the chain-rule sum over all 2^10 hidden paths gives the same number
        # (test_acceptance.py::test_c04_counterexample_divergence_value)
        assert kld_hmm_no_evidence(a, b) == pytest.approx(5.662866894597586, abs=1e-10)

    def test_length_one_is_root_term(self):
        a, b = bundled_hmm_pair(length=1)
        assert kld_hmm_no_evidence(a, b) == pytest.approx(0.4919776796806992, abs=1e-12)

    def test_initial_law_only_difference(self):
        # identical transitions and emissions: the divergence is D(mu1 || mu0) exactly
        rng = np.random.default_rng(6)
        base = chain(rng, 20, 3, 2)
        other = HmmModel(
            length=20, initial=rng.dirichlet(np.ones(3)), transition=base.transition, emission=base.emission
        )
        from hmtkl import kl_discrete

        assert kld_hmm_no_evidence(other, base) == pytest.approx(
            kl_discrete(other.initial, base.initial), abs=1e-12
        )

    def test_dimension_mismatch(self):
        a, _ = bundled_hmm_pair()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="state count"):
            kld_hmm_no_evidence(a, chain(rng, 10, 3, 3))
        with pytest.raises(ValueError, match="length"):
            kld_hmm_no_evidence(a, a.with_length(9))

    def test_sparse_models_agree_with_enumeration_and_bound(self):
        # hard zeros exercise the 0*log0 and p*log(p/0) conventions end to end
        from hmtkl import brute_force_kld_joint

        rng = np.random.default_rng(55)
        import warnings

        for _ in range(25):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            a, b = chain(rng, n, d, m, 0.3), chain(rng, n, d, m, 0.3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                closed = kld_hmm_no_evidence(a, b)
                bound = do_bound(a, b)
            oracle = brute_force_kld_joint(a.as_tree(), b.as_tree())
            if math.isinf(closed) or math.isinf(oracle):
                assert math.isinf(closed) and math.isinf(oracle) and math.isinf(bound)
            else:
                assert closed == pytest.approx(oracle, abs=1e-9)
                assert closed == pytest.approx(bound, abs=1e-10)


class TestStationary:
    def test_golden_value(self):
        a, _ = bundled_hmm_pair()
        nu = stationary_distribution(a.transition)
        np.testing.assert_allclose(nu, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(nu @ a.transition, nu, rtol=0, atol=1e-12)

    def test_identity_not_unique(self):
        with pytest.raises(StationaryError, match="multiplicity"):
            stationary_distribution(np.eye(2))

    def test_periodic_rejected(self):
        with pytest.raises(StationaryError, match="unit circle"):
            stationary_distribution([[0.0, 1.0], [1.0, 0.0]])

    def test_symmetric_uniform(self):
        nu = stationary_distribution([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(nu, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_not_stochastic(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            stationary_distribution([[0.5, 0.6], [0.5, 0.5]])


class TestRate:
    def test_zero_for_equal_models(self):
        a, _ = bundled_hmm_pair()
        assert kld_rate(a, a) == 0.0

    def test_composition(self):
        a, b = bundled_hmm_pair()
        from hmtkl import local_k_vector

        k = local_k_vector(a.transition, b.transition, a.emission, b.emission)
        expected = (2.0 / 3.0) * k[0] + (1.0 / 3.0) * k[1]
        assert kld_rate(a, b) == pytest.approx(expected, abs=1e-12)

    def test_limit_of_divergence_per_symbol(self):
        a, b = bundled_hmm_pair()
        rate = kld_rate(a, b)
        n = 10_000
        assert kld_hmm_no_evidence(a.with_length(n), b.with_length(n)) / n == pytest.approx(rate, abs=1e-4)

    def test_initial_only_difference_has_zero_rate(self):
        rng = np.random.default_rng(10)
        base = chain(rng, 10, 2, 2)
        other = HmmModel(length=10, initial=[0.9, 0.1], transition=base.transition, emission=base.emission)
        assert kld_rate(other, base) == 0.0
        assert kld_hmm_no_evidence(other, base) > 0.0

    def test_periodic_propagates(self):
        e = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        a = HmmModel(length=5, initial=[0.5, 0.5], transition=[[0.0, 1.0], [1.0, 0.0]], emission=e)
        with pytest.raises(StationaryError):
            kld_rate(a, a)


class TestDoBound:
    def test_equals_exact_on_bundled_pair(self):
        a, b = bundled_hmm_pair()
        assert abs(do_bound(a, b) - kld_hmm_no_evidence(a, b)) <= 1e-12

    def test_zero_for_equal_models(self):
        a, _ = bundled_hmm_pair()
        assert do_bound(a, a) == 0.0

    def test_length_one(self):
        a, b = bundled_hmm_pair(length=1)
        assert do_bound(a, b) == pytest.approx(kld_hmm_no_evidence(a, b), abs=1e-14)

    def test_identity_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            a, b = chain(rng, n, d, m), chain(rng, n, d, m)
            assert abs(do_bound(a, b) - kld_hmm_no_evidence(a, b)) <= 1e-12

    def test_overflow_raises_as_the_closed_form_does(self):
        a, b = bundled_hmm_pair(length=10**310)
        for route in (kld_hmm_no_evidence, do_bound):
            with pytest.raises(OverflowError, match="overflows 64-bit floats"):
                route(a, b)

    def test_overflow_with_a_zero_row_divergence_raises_not_nan(self):
        # state 0 has a zero row divergence: the overflowed sum of powers meets 0 there
        emission = DiscreteEmission([[0.5, 0.5], [0.2, 0.8]])
        a = HmmModel(length=10**310, initial=[0.5, 0.5], transition=[[0.9, 0.1], [0.4, 0.6]], emission=emission)
        b = HmmModel(length=10**310, initial=[0.5, 0.5], transition=[[0.9, 0.1], [0.05, 0.95]], emission=emission)
        for route in (kld_hmm_no_evidence, do_bound):
            with pytest.raises(OverflowError, match="overflows 64-bit floats"):
                route(a, b)

    def test_overflow_beside_an_unreached_infinite_term_raises(self):
        # state 2 has an infinite local term but the first model never enters it,
        # so the value is finite and must overflow, not read as a support mismatch
        emission1 = DiscreteEmission([[0.7, 0.3], [0.2, 0.8], [0.5, 0.5]])
        emission0 = DiscreteEmission([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]])
        t1 = [[0.6, 0.4, 0.0], [0.3, 0.7, 0.0], [0.2, 0.3, 0.5]]
        t0 = [[0.5, 0.5, 0.0], [0.4, 0.6, 0.0], [0.0, 0.0, 1.0]]

        def pair(n):
            a = HmmModel(length=n, initial=[0.5, 0.5, 0.0], transition=t1, emission=emission1)
            return a, HmmModel(length=n, initial=[0.5, 0.5, 0.0], transition=t0, emission=emission0)

        a, b = pair(10**5)
        assert kld_hmm_no_evidence(a, b) == pytest.approx(4493.4197356242, rel=1e-13)
        assert kld_hmm_no_evidence(a, b) == pytest.approx(do_bound(a, b), rel=1e-13)
        a, b = pair(10**310)
        for route in (kld_hmm_no_evidence, kld_hmm_fast, do_bound):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the fast path's fallback note
                with pytest.raises(OverflowError, match="overflows 64-bit floats"):
                    route(a, b)

    def test_zero_divergence_stays_zero_past_overflow(self):
        a, _ = bundled_hmm_pair(length=10**310)
        assert do_bound(a, a) == kld_hmm_no_evidence(a, a) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    model_pairs(
        nodes=st.one_of(st.sampled_from([1, 2, 10**4, 10**9, 10**12, 10**15]), st.integers(3, 60)),
        states=st.integers(1, 6),
        p_zero=st.sampled_from([0.0, 0.3, 0.6]),
        chains=True,
        coarse=True,
    )
)
def test_bound_matches_the_closed_form(pair):
    a, b = pair
    expected = kld_hmm_no_evidence(a, b)
    value = do_bound(a, b)
    assert math.isinf(value) == math.isinf(expected)
    if math.isfinite(expected):
        assert value == pytest.approx(expected, rel=1e-12, abs=0)


def exact_routes_or_overflow(a, b):
    """`kld_hmm_no_evidence`, `kld_hmm_fast` and `do_bound` of a pair, each
    value or "overflow" where the route raises OverflowError (the CLI's
    exit 3)."""
    values = []
    for route in (kld_hmm_no_evidence, kld_hmm_fast, do_bound):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the fast path's fallback note
            try:
                values.append(route(a, b))
            except OverflowError:
                values.append("overflow")
    return values


def test_bound_outlasts_the_sum_of_powers():
    # S_n overflows near n = 1.8e308, the value 4.7e304 does not
    a, b = bundled_hmm_pair(length=10**310)
    blend = HmmModel(
        length=10**310,
        initial=0.995 * a.initial + 0.005 * b.initial,
        transition=0.995 * a.transition + 0.005 * b.transition,
        emission=a.emission,
    )
    exact, fast, bound = exact_routes_or_overflow(a, blend)
    assert exact == fast == pytest.approx(4.72099444125e304, rel=1e-11)
    assert bound == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("length", [1000, 10**20, 10**309], ids=["1e3", "1e20", "1e309"])
def test_bound_cancels_a_row_deficit_shared_by_both_divergences(length):
    # rows 1 - 2^-53 pass validation: the first model's transition and the
    # second's emission put -1.1e-16 in D(pi) and +1.1e-16 in D(e) at each
    # node, which the bound once summed to N * 1.1e-16 or N * 1.2e-32
    one = np.nextafter(1.0, 0.0)
    a = HmmModel(length=length, initial=[1.0], transition=[[one]], emission=DiscreteEmission([[1.0]]))
    b = HmmModel(length=length, initial=[1.0], transition=[[1.0]], emission=DiscreteEmission([[one]]))
    exact, fast, bound = exact_routes_or_overflow(a, b)
    assert exact == fast
    assert bound == pytest.approx(exact, rel=1e-12, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    model_pairs(
        nodes=st.one_of(
            st.integers(1, 60),
            st.integers(0, 400).map(lambda k: 10**k),
            st.integers(300, 310).map(lambda k: 10**k),
            st.integers(1, 10**400),
        ),
        p_zero=st.sampled_from([0.0, 0.3, 0.6]),
        chains=True,
    )
)
def test_exact_routes_agree_or_all_overflow(pair):
    """On sparse pairs up to N = 10^400 the three exact routes give one value
    (+inf included) within 1e-12 relative, or all three raise OverflowError;
    none gives nan."""
    values = exact_routes_or_overflow(*pair)
    if "overflow" in values:
        assert values == ["overflow"] * 3
        return
    exact, fast, bound = values
    assert not any(math.isnan(v) for v in values)
    assert fast == exact
    assert math.isinf(bound) == math.isinf(exact)
    if math.isfinite(exact):
        assert bound == pytest.approx(exact, rel=1e-12, abs=1e-13)  # rounding noise about 0


class TestFastPath:
    def test_length_two_single_term(self):
        a, b = bundled_hmm_pair(length=2)
        from hmtkl import local_k_root, local_k_vector

        expected = local_k_root(a.initial, b.initial, a.emission, b.emission) + float(
            a.initial @ local_k_vector(a.transition, b.transition, a.emission, b.emission)
        )
        assert kld_hmm_fast(a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [10, 1000, 100_000])
    def test_matches_direct_sum(self, n):
        a, b = bundled_hmm_pair(length=n)
        direct = kld_hmm_no_evidence(a, b)
        assert kld_hmm_fast(a, b) == direct

    def test_three_state_complex_spectrum(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = chain(rng, 200, 3, 2)
            b = chain(rng, 200, 3, 2)
            assert kld_hmm_fast(a, b) == kld_hmm_no_evidence(a, b)

    def test_periodic_falls_back_bit_identical(self):
        e1 = DiscreteEmission([[0.2, 0.8], [0.7, 0.3]])
        e0 = DiscreteEmission([[0.4, 0.6], [0.5, 0.5]])
        a = HmmModel(length=50, initial=[0.5, 0.5], transition=[[0.0, 1.0], [1.0, 0.0]], emission=e1)
        b = HmmModel(length=50, initial=[0.5, 0.5], transition=[[0.0, 1.0], [1.0, 0.0]], emission=e0)
        with pytest.warns(UserWarning, match="fast path unavailable"):
            value = kld_hmm_fast(a, b)
        assert value == kld_hmm_no_evidence(a, b)

    def test_reducible_falls_back(self):
        e = DiscreteEmission([[0.2, 0.8], [0.7, 0.3]])
        a = HmmModel(length=10, initial=[0.5, 0.5], transition=np.eye(2), emission=e)
        b = HmmModel(length=10, initial=[0.5, 0.5], transition=[[0.9, 0.1], [0.1, 0.9]], emission=e)
        with pytest.warns(UserWarning, match="fast path"):
            value = kld_hmm_fast(a, b)
        assert value == kld_hmm_no_evidence(a, b)

    @pytest.mark.parametrize(
        "transition, reason",
        [
            ([[0, 1, 0], [0, 0, 1], [0, 0, 1]], "eigendecomposition residual 1 exceeds 1e-09"),
            ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1]], "eigenvector basis is singular"),
        ],
        ids=["residual", "singular-basis"],
    )
    def test_defective_matrix_falls_back_bit_identical(self, transition, reason):
        rng = np.random.default_rng(3)
        d = len(transition)
        a = HmmModel(length=20, initial=np.full(d, 1 / d), transition=transition, emission=DiscreteEmission(rng.dirichlet(np.ones(2), d)))
        # every transition of the second model is positive, so every local term is finite
        b = chain(rng, 20, d, 2)
        with pytest.warns(UserWarning, match=f"fast path unavailable \\({reason}"):
            value = kld_hmm_fast(a, b)
        assert value == kld_hmm_no_evidence(a, b)

    def test_spectral_split_rejects_periodic(self):
        with pytest.raises(SpectralError, match="eigenvalue"):
            spectral_split(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_spectral_split_reconstructs(self):
        a, _ = bundled_hmm_pair()
        split = spectral_split(a.transition)
        rebuilt = split.basis @ np.diag(split.eigenvalues) @ split.basis_inv
        assert np.abs(rebuilt - a.transition).max() <= 1e-9
        assert abs(split.eigenvalues[split.unit_index] - 1.0) <= 1e-10


#: A positive 3x3 with a Jordan block at eigenvalue 0: ``1 nu + a x y^T`` with
#: nu @ x = 0, y @ 1 = 0 and y @ x = 0, so the rows sum to 1 and ``x y^T`` is
#: nilpotent.  Its rows share 0.77 of their mass.
JORDAN_AT_ZERO = (
    np.outer(np.ones(3), [0.4, 0.35, 0.25]) + 0.05 * np.outer([1.0, -8 / 7, 0.0], [8 / 7, 1.0, -15 / 7])
).tolist()

#: The shared row mass above which the fast path skips `spectral_split`.
FAST_MASS = hmm._CONTRACTION_MARGIN + 4 * STOCH_TOL
#: The shared row mass above which `stationary_distribution` skips the eigenvalues.
STATIONARY_MASS = hmm._STATIONARY_TOL + 4 * hmm._STATIONARY_ROW_TOL


def shared_mass(pi):
    return float(np.asarray(pi).min(axis=0).sum())


def spectral_refusal(pi):
    """`spectral_split`'s error text for `pi`, or None when it accepts it."""
    try:
        spectral_split(pi)
    except SpectralError as exc:
        return str(exc)
    return None


def eigenvalue_stationary_law(pi):
    """`stationary_distribution` with its eigenvalue checks run on every
    matrix, then the same solve: the reference for the shared-mass test."""
    pi = np.asarray(pi, dtype=float)
    eigenvalues = np.linalg.eigvals(pi)
    unit = np.abs(eigenvalues - 1.0) <= 1e-8
    if unit.sum() != 1:
        raise StationaryError(f"no unique stationary distribution: eigenvalue 1 has multiplicity {unit.sum()}")
    if (np.abs(eigenvalues[~unit]) > 1.0 - 1e-8).any():
        raise StationaryError("no unique stationary distribution: another eigenvalue lies on the unit circle")
    system = pi.T - np.eye(len(pi))
    system[-1, :] = 1.0
    rhs = np.zeros(len(pi))
    rhs[-1] = 1.0
    nu = np.linalg.solve(system, rhs)
    if nu.min() < -1e-12:
        raise StationaryError(f"stationary solve produced a negative mass {nu.min():.3g}")
    return np.clip(nu, 0.0, None)


def _refuse(*args):
    raise AssertionError("no eigendecomposition may run on a minorized chain")


class TestSharedMass:
    """The fast path and the stationary law decide from the mass every row
    of the transition matrix shares before any eigendecomposition."""

    @settings(max_examples=200, deadline=None)
    @given(
        model_pairs(
            nodes=st.integers(1, 40), states=st.integers(1, 8), p_zero=st.sampled_from([0.0, 0.3, 0.6]), chains=True
        )
    )
    def test_fast_warns_exactly_when_spectral_split_refuses(self, pair):
        # the one exception: rows sharing their mass prove the spectrum, so a
        # defective eigenvalue inside the unit disc, which `spectral_split`
        # refuses at its inverse or residual, no longer sends them to the fallback
        a, b = pair
        refusal = spectral_refusal(a.transition)
        minorized = shared_mass(a.transition) > FAST_MASS
        if minorized and refusal is not None:
            assert refusal.startswith(("eigendecomposition residual", "eigenvector basis is singular"))
        root, step = local_k_terms(a.initial, b.initial, a.transition, b.transition, a.emission, b.emission)
        if a.length == 1:
            reason = None
        elif not (np.isfinite(step).all() and math.isfinite(root)):
            reason = "local divergences are infinite; the spectral series does not apply"
        else:
            reason = None if minorized else refusal
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = kld_hmm_fast(a, b)
        expected = [] if reason is None else [f"fast path unavailable ({reason}); using direct summation"]
        assert [str(w.message) for w in caught] == expected
        assert value == kld_hmm_no_evidence(a, b)

    def test_a_minorized_chain_runs_no_eigendecomposition(self, monkeypatch):
        a, b = bundled_hmm_pair(length=1000)
        assert shared_mass(a.transition) > FAST_MASS
        nu = eigenvalue_stationary_law(a.transition)
        monkeypatch.setattr(hmm, "spectral_split", _refuse)
        monkeypatch.setattr(np.linalg, "eigvals", _refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kld_hmm_fast(a, b) == kld_hmm_no_evidence(a, b)
        assert stationary_distribution(a.transition).tobytes() == nu.tobytes()

    def test_a_jordan_block_inside_the_disc_takes_the_fast_path(self):
        pi = JORDAN_AT_ZERO
        assert min(map(min, pi)) >= 0.14
        assert shared_mass(pi) > FAST_MASS
        with pytest.raises(SpectralError, match=r"eigendecomposition residual .* exceeds 1e-09"):
            spectral_split(pi)
        rng = np.random.default_rng(29)
        e = DiscreteEmission(rng.dirichlet(np.ones(2), 3))
        a = HmmModel(length=200, initial=[0.2, 0.3, 0.5], transition=pi, emission=e)
        b = chain(rng, 200, 3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = kld_hmm_fast(a, b)
        assert value == kld_hmm_no_evidence(a, b)

    @settings(max_examples=200, deadline=None)
    @given(model_pairs(nodes=st.just(2), states=st.integers(1, 8), p_zero=st.sampled_from([0.0, 0.3, 0.6]), chains=True))
    def test_stationary_law_keeps_its_bits_and_errors(self, pair):
        pi = pair[0].transition
        try:
            expected = eigenvalue_stationary_law(pi)
        except StationaryError as exc:
            assert shared_mass(pi) <= STATIONARY_MASS  # a minorized chain has a unique law
            with pytest.raises(StationaryError, match=f"^{re.escape(str(exc))}$"):
                stationary_distribution(pi)
            return
        if shared_mass(pi) > STATIONARY_MASS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(np.linalg, "eigvals", _refuse)
                nu = stationary_distribution(pi)
        else:
            nu = stationary_distribution(pi)
        assert nu.tobytes() == expected.tobytes()


def folded_chain_kld(m1, m0):
    """``k_root + mu1 @ sum_{i<N-1} pi1^i @ k`` by the right fold
    ``acc <- k + pi1 @ acc``, one step per position."""
    root = local_k_root(m1.initial, m0.initial, m1.emission, m0.emission)
    step = local_k_vector(m1.transition, m0.transition, m1.emission, m0.emission)
    acc = np.zeros(m1.n_states)
    for _ in range(m1.length - 1):
        acc = step + weighted_sum(m1.transition, acc)
    return float(root + weighted_sum(m1.initial, acc))


@settings(max_examples=40, deadline=None)
@given(model_pairs(nodes=st.integers(1, 2000), states=st.integers(1, 5), p_zero=st.sampled_from([0.0, 0.3]), chains=True))
def test_doubling_matches_the_direct_fold(pair):
    a, b = pair
    expected = folded_chain_kld(a, b)
    value = kld_hmm_no_evidence(a, b)
    if math.isinf(expected):
        assert value == math.inf
    else:
        assert value == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [10**9, 10**12])
def test_doubling_renormalises_at_huge_lengths(n):
    # without renormalising the squared transition rows the value drifts by ~1e-8 at N = 1e9
    a, b = bundled_hmm_pair(length=n)
    assert kld_hmm_no_evidence(a, b) == pytest.approx(do_bound(a, b), rel=1e-13)


class TestBackwardQuantities:
    def test_length_one_all_ones(self):
        a, _ = bundled_hmm_pair(length=1)
        table = backward_quantities(a, Evidence.from_external([2]))
        np.testing.assert_array_equal(table.values, np.ones((1, 2)))
        assert table.log_scale[0] == 0.0

    def test_single_state_product_form(self):
        # d = 1: B_i equals the product of the remaining symbol probabilities
        e = DiscreteEmission([[0.2, 0.3, 0.5]])
        m = HmmModel(length=5, initial=[1.0], transition=[[1.0]], emission=e)
        ev = Evidence.from_external([1, 2, 3, 1, 2])
        table = backward_quantities(m, ev)
        probs = e.matrix[0]
        for i in range(1, 6):
            expected = math.prod(float(probs[s]) for s in ev.symbols[i:])
            got = table.values[i - 1, 0] * math.exp(table.log_scale[i - 1])
            assert got == pytest.approx(expected, rel=1e-12)

    def test_likelihood_matches_enumeration(self):
        a, _ = bundled_hmm_pair()
        _, z = enumerate_path_posteriors(a, COUNTEREXAMPLE_EVIDENCE)
        table = backward_quantities(a, COUNTEREXAMPLE_EVIDENCE)
        assert table.log_likelihood == pytest.approx(math.log(z), rel=1e-12)

    def test_no_underflow_at_long_lengths(self):
        a, _ = bundled_hmm_pair(length=2000)
        ev = Evidence(np.zeros(2000, dtype=np.int64))
        table = backward_quantities(a, ev)
        assert np.isfinite(table.log_likelihood)
        assert table.values.max() <= 1.0
        assert (table.values.max(axis=1) == 1.0).all()

    def test_zero_likelihood_position(self):
        e = DiscreteEmission([[1.0, 0.0], [1.0, 0.0]])  # symbol 2 is impossible
        m = HmmModel(length=4, initial=[0.5, 0.5], transition=[[0.5, 0.5], [0.5, 0.5]], emission=e)
        with pytest.raises(ZeroLikelihoodError) as err:
            backward_quantities(m, Evidence.from_external([1, 1, 2, 1]))
        assert err.value.position == 3

    def test_zero_likelihood_at_first_position(self):
        e = DiscreteEmission([[1.0, 0.0], [0.0, 1.0]])
        m = HmmModel(length=2, initial=[1.0, 0.0], transition=np.eye(2), emission=e)
        with pytest.raises(ZeroLikelihoodError) as err:
            backward_quantities(m, Evidence.from_external([2, 2]))
        assert err.value.position == 1


class TestPosteriorConditionals:
    def test_rows_sum_to_one(self):
        a, _ = bundled_hmm_pair()
        initial, factors = posterior_conditionals(a, COUNTEREXAMPLE_EVIDENCE)
        assert initial.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(factors.sum(axis=2), 1.0, rtol=0, atol=1e-12)

    def test_uninformative_emissions_reduce_to_prior(self):
        e = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        m = HmmModel(length=6, initial=[0.3, 0.7], transition=[[0.9, 0.1], [0.4, 0.6]], emission=e)
        ev = Evidence.from_external([1, 2, 1, 2, 1, 1])
        initial, factors = posterior_conditionals(m, ev)
        np.testing.assert_allclose(initial, m.initial, rtol=0, atol=1e-12)
        for i in range(5):
            np.testing.assert_allclose(factors[i], m.transition, rtol=0, atol=1e-12)

    def test_chaining_reproduces_path_posterior(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = chain(rng, 6, 2, 3)
            ev = Evidence(rng.integers(0, 3, size=6))
            posts, _ = enumerate_path_posteriors(m, ev)
            initial, factors = posterior_conditionals(m, ev)
            for states, expected in posts.items():
                got = initial[states[0]]
                for i in range(1, 6):
                    got *= factors[i - 1][states[i - 1], states[i]]
                assert got == pytest.approx(expected, abs=1e-12)

    def test_counterexample_path_posteriors(self):
        # frozen from enumerate_path_posteriors
        a, b = bundled_hmm_pair()
        for model, expected in [(a, 0.004896133140185794), (b, 0.0013117480792943174)]:
            posts, _ = enumerate_path_posteriors(model, COUNTEREXAMPLE_EVIDENCE)
            assert posts[COUNTEREXAMPLE_STATES] == pytest.approx(expected, rel=1e-10)
            initial, factors = posterior_conditionals(model, COUNTEREXAMPLE_EVIDENCE)
            got = initial[COUNTEREXAMPLE_STATES[0]]
            for i in range(1, 10):
                got *= factors[i - 1][COUNTEREXAMPLE_STATES[i - 1], COUNTEREXAMPLE_STATES[i]]
            assert got == pytest.approx(expected, rel=1e-10)


class TestEvidenceKld:
    def test_zero_for_equal_models(self):
        a, _ = bundled_hmm_pair()
        assert kld_hmm_evidence(a, a, COUNTEREXAMPLE_EVIDENCE) == 0.0

    def test_counterexample_value(self):
        # frozen from the path-enumeration oracle
        a, b = bundled_hmm_pair()
        value = kld_hmm_evidence(a, b, COUNTEREXAMPLE_EVIDENCE)
        posts1, _ = enumerate_path_posteriors(a, COUNTEREXAMPLE_EVIDENCE)
        posts0, _ = enumerate_path_posteriors(b, COUNTEREXAMPLE_EVIDENCE)
        brute = sum(p * math.log(p / posts0[s]) for s, p in posts1.items() if p > 0)
        assert value == pytest.approx(brute, abs=1e-12)
        assert value == pytest.approx(0.7123472327888724, abs=1e-10)

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            m1 = chain(rng, n, 2, 3)
            m0 = chain(rng, n, 2, 3)
            ev = Evidence(rng.integers(0, 3, size=n))
            posts1, _ = enumerate_path_posteriors(m1, ev)
            posts0, _ = enumerate_path_posteriors(m0, ev)
            brute = sum(p * math.log(p / posts0[s]) for s, p in posts1.items() if p > 0)
            assert kld_hmm_evidence(m1, m0, ev) == pytest.approx(brute, abs=1e-10)

    def test_matches_enumeration_three_states_sparse(self):
        from hmtkl import ZeroLikelihoodError as ZLE

        rng = np.random.default_rng(32)
        checked = 0
        while checked < 10:
            n = int(rng.integers(2, 7))
            m1 = chain(rng, n, 3, 3, 0.3)
            m0 = chain(rng, n, 3, 3, 0.3)
            ev = Evidence(rng.integers(0, 3, size=n))
            try:
                value = kld_hmm_evidence(m1, m0, ev)
            except ZLE:
                continue
            posts1, _ = enumerate_path_posteriors(m1, ev)
            posts0, _ = enumerate_path_posteriors(m0, ev)
            brute = sum(
                p * (math.log(p / posts0[s]) if posts0[s] > 0 else math.inf)
                for s, p in posts1.items()
                if p > 0
            )
            if math.isinf(brute):
                assert math.isinf(value)
            else:
                assert value == pytest.approx(brute, abs=1e-10)
            checked += 1

    def test_uninformative_emissions_give_hidden_chain_divergence(self):
        e = DiscreteEmission([[0.5, 0.5], [0.5, 0.5]])
        m1 = HmmModel(length=8, initial=[0.3, 0.7], transition=[[0.9, 0.1], [0.4, 0.6]], emission=e)
        m0 = HmmModel(length=8, initial=[0.6, 0.4], transition=[[0.7, 0.3], [0.2, 0.8]], emission=e)
        ev = Evidence(np.zeros(8, dtype=np.int64))
        # equal uninformative emissions contribute nothing to the joint divergence
        assert kld_hmm_evidence(m1, m0, ev) == pytest.approx(kld_hmm_no_evidence(m1, m0), abs=1e-10)

    def test_zero_likelihood_states_which_model(self):
        a, _ = bundled_hmm_pair()
        blind = HmmModel(
            length=10,
            initial=a.initial,
            transition=a.transition,
            emission=DiscreteEmission([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        )
        with pytest.raises(ZeroLikelihoodError, match="second model"):
            kld_hmm_evidence(a, blind, COUNTEREXAMPLE_EVIDENCE)
        with pytest.raises(ZeroLikelihoodError, match="first model"):
            kld_hmm_evidence(blind, a, COUNTEREXAMPLE_EVIDENCE)

    def test_length_one(self):
        a, b = bundled_hmm_pair(length=1)
        ev = Evidence.from_external([2])
        posts1, _ = enumerate_path_posteriors(a, ev)
        posts0, _ = enumerate_path_posteriors(b, ev)
        brute = sum(p * math.log(p / posts0[s]) for s, p in posts1.items() if p > 0)
        assert kld_hmm_evidence(a, b, ev) == pytest.approx(brute, abs=1e-14)
