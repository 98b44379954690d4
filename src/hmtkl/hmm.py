"""Exact KL divergence for homogeneous hidden Markov chains.

Implements the closed form for the unconditional divergence (the chain is
the one-child tree, so its value is the tree's closed form,
`tree._closed_form`, binary doubling in O(d^3 log N)), its large-N rate, a
fast path that checks the eigendecomposition preconditions and then runs the
same evaluator, the classical upper bound (which equals the exact value, and
is summed along an independent route: binary doubling on the matrix pair
``(P^n, sum_{i<n} P^i)`` in O(d^3 log N), the power's rows renormalised to
sum to 1 after each product), and the divergence between the two models'
hidden-path posteriors given a fully observed emission sequence.  The
evidence route keeps the ``(N, d)`` backward tables and
hands the posterior factors, in backward blocks of at most
`divergence._BLOCK_ENTRIES` terms, to the tree's chain step `tree._fold`, so
its memory is O(N d) plus one block.  The backward step takes one
`ndarray.dot`, one argmax and two elementwise calls into preallocated rows
per position, and logs the scales after the loop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import divergence
from .divergence import _emission_rows, local_k_terms, local_k_vector, weighted_sum
from .errors import SpectralError, StationaryError, ZeroLikelihoodError
from .model import Evidence, HmmModel, check_evidence, check_pair
from .tree import _closed_form, _fold

__all__ = [
    "kld_hmm_no_evidence",
    "kld_hmm_fast",
    "kld_rate",
    "do_bound",
    "stationary_distribution",
    "Spectral",
    "spectral_split",
    "BackwardTable",
    "backward_quantities",
    "posterior_conditionals",
    "kld_hmm_evidence",
]


def kld_hmm_no_evidence(m1: HmmModel, m0: HmmModel) -> float:
    """Exact KL divergence between the two chains' joint laws, in nats.

    Evaluates ``k_root + mu1 @ (I + pi1 + ... + pi1^(N-2)) @ k``, the
    one-child case of the tree's closed form `tree._closed_form`, by binary
    doubling in O(d^3 log N).  An entry of k that is +inf (a support
    mismatch) makes the value +inf when the first model reaches its state
    with positive probability.
    """
    check_pair(m1, m0)
    root, step = local_k_terms(m1.initial, m0.initial, m1.transition, m0.transition, m1.emission, m0.emission)
    return _closed_form(m1.initial, root, m1.transition, step, 1, m1.length)


def stationary_distribution(pi) -> np.ndarray:
    """Row vector nu with nu @ pi = nu, entries >= 0, sum 1.

    Solves the linear system (pi^T - I | sum = 1) directly.  Raises
    StationaryError when the unit eigenvalue is not simple or another
    eigenvalue sits on (or numerically at) the unit circle, i.e. for
    reducible or periodic chains.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
        raise ValueError(f"transition matrix must be square, got {pi.shape}")
    if (pi < 0).any() or np.abs(pi.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("transition matrix must be row-stochastic")
    d = pi.shape[0]
    eigenvalues = np.linalg.eigvals(pi)
    unit = np.abs(eigenvalues - 1.0) <= 1e-8
    if unit.sum() != 1:
        raise StationaryError(f"no unique stationary distribution: eigenvalue 1 has multiplicity {unit.sum()}")
    if (np.abs(eigenvalues[~unit]) > 1.0 - 1e-8).any():
        raise StationaryError("no unique stationary distribution: another eigenvalue lies on the unit circle")
    system = pi.T - np.eye(d)
    system[-1, :] = 1.0
    rhs = np.zeros(d)
    rhs[-1] = 1.0
    nu = np.linalg.solve(system, rhs)
    if nu.min() < -1e-12:
        raise StationaryError(f"stationary solve produced a negative mass {nu.min():.3g}")
    return np.clip(nu, 0.0, None)


def kld_rate(m1: HmmModel, m0: HmmModel) -> float:
    """Per-symbol divergence rate lim D/N = nu @ k, with nu stationary for m1."""
    check_pair(m1, m0)
    return _rate_at(stationary_distribution(m1.transition), m1, m0)


def _rate_at(nu, m1: HmmModel, m0: HmmModel) -> float:
    """The rate ``nu @ k`` of a checked pair, given the first model's
    stationary law `nu`."""
    return float(weighted_sum(nu, local_k_vector(m1.transition, m0.transition, m1.emission, m0.emission)))


#: `do_bound` holds ``S_n = sum_{i<n} P^i`` as a mantissa matrix times
#: ``2^_sum_exponent(n)``.  The rows of S_n sum to n, so the mantissa stays
#: below 2^_SUM_BITS, and below 2^_SUM_BITS steps it is S_n itself.
_SUM_BITS = 1000


def _sum_exponent(n: int) -> int:
    return max(0, n.bit_length() - _SUM_BITS)


def _compose(first, second):
    """``(P^a, S_a, a) o (P^b, S_b, b) = (P^(a+b), S_a + P^a S_b, a + b)``,
    each S_n held as its mantissa (see `_SUM_BITS`), with the rows of the new
    power renormalised to sum to 1 so that rounding cannot compound over the
    doublings."""
    (power_a, sums_a, a), (power_b, sums_b, b) = first, second
    power = power_a @ power_b
    power /= power.sum(axis=1, keepdims=True)
    exponent = _sum_exponent(a + b)
    if exponent:  # scaling by a power of two moves no bit
        sums_a, sums_b = np.ldexp(sums_a, _sum_exponent(a) - exponent), np.ldexp(sums_b, _sum_exponent(b) - exponent)
    return power, sums_a + power_a @ sums_b, a + b


def do_bound(m1: HmmModel, m0: HmmModel) -> float:
    """The classical decomposition-based upper bound, which is in fact exact.

    U = D(mu) + mu1 @ ( sum_{i=1}^{N-1} pi1^(i-1) [D(pi) + D(e)] + pi1^(N-1) D(e) ),
    where D(mu), D(pi), D(e) are the row divergences of the initial laws,
    transition rows and emission rows.  The pair ``(pi1^(N-1), S_(N-1))``,
    ``S_n = sum_{i<n} pi1^i``, is built by binary doubling over the bits of
    N - 1 in O(d^3 log N), the power's rows renormalised after each product
    and S_n carried as a mantissa and a binary exponent (see `_compose`), so
    that only the value, not S_n, can overflow.  Always equals
    kld_hmm_no_evidence up to rounding; the two are computed along different
    routes on purpose (a matrix pair here, an affine vector map there).
    Raises OverflowError, as kld_hmm_no_evidence does, when the sum is not
    finite at a state that reaches no infinite local term.
    """
    check_pair(m1, m0)
    (d_initial, d_transition), d_emission = _emission_rows(
        m1.emission, m0.emission, (m1.initial, m0.initial), (m1.transition, m0.transition)
    )
    # a row divergence is >= 0, but rounding can leave -1e-16 in any of them,
    # which the sum multiplies by N for a transition row; all are clamped at 0
    step = np.maximum(d_transition, 0.0) + d_emission
    d = m1.n_states
    # result is (P^r, S_r, r) for the low bits r of N - 1 read so far, square is (P^(2^j), S_(2^j), 2^j)
    result, square = (np.eye(d), np.zeros((d, d)), 0), (m1.transition, np.eye(d), 1)
    n = m1.length - 1
    with np.errstate(over="ignore"):
        while n:
            if n & 1:
                result = _compose(result, square)
            n >>= 1
            if n:
                square = _compose(square, square)
        power, sums, count = result
        exponent = _sum_exponent(count)
        # zero divergences stay out of the product, which keeps its bits
        live = step != 0
        acc = np.ldexp(weighted_sum(sums[:, live], step[live]), exponent) + weighted_sum(power, d_emission)
        if not np.isfinite(acc).all():
            # the value without its infinite terms, at the states that reach
            # no infinite local term, which kld_hmm_no_evidence also sums
            local = d_transition + weighted_sum(m1.transition, d_emission)
            unreached = ~(sums[:, np.isinf(local)] > 0).any(axis=1)
            finite = np.ldexp(sums @ np.where(np.isinf(step), 0.0, step), exponent)
            finite += power @ np.where(np.isinf(d_emission), 0.0, d_emission)
            if not np.isfinite(finite[unreached]).all():
                raise OverflowError(f"decomposition bound overflows 64-bit floats (length={m1.length})")
    return float(max(d_initial, 0.0) + weighted_sum(m1.initial, acc))


# ---------------------------------------------------------------------------
# Spectral fast path


@dataclass(frozen=True, eq=False)
class Spectral:
    """Eigendecomposition of a stochastic matrix with a simple unit eigenvalue.

    ``basis @ diag(eigenvalues) @ basis_inv`` reconstructs the matrix;
    ``unit_index`` points at the eigenvalue equal to 1.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    basis_inv: np.ndarray
    unit_index: int


#: Tolerances of `spectral_split`.
_UNIT_TOL = 1e-10
_CONTRACTION_MARGIN = 1e-10
_RESIDUAL_TOL = 1e-9


def spectral_split(pi) -> Spectral:
    """Eigendecompose `pi`, requiring a simple unit eigenvalue and all other
    eigenvalue moduli below 1 by `_CONTRACTION_MARGIN`.

    Raises SpectralError when the preconditions fail (defective basis,
    multiple unit eigenvalues, or a periodic chain).
    """
    pi = np.asarray(pi, dtype=float)
    eigenvalues, basis = np.linalg.eig(pi)
    unit = np.abs(eigenvalues - 1.0) <= _UNIT_TOL
    n_unit = int(unit.sum())
    if n_unit != 1:
        raise SpectralError(f"eigenvalue 1 must be simple, found multiplicity {n_unit}")
    if (np.abs(eigenvalues[~unit]) > 1.0 - _CONTRACTION_MARGIN).any():
        worst = np.abs(eigenvalues[~unit]).max()
        raise SpectralError(f"second-largest eigenvalue modulus {worst:.12g} is too close to 1")
    try:
        basis_inv = np.linalg.inv(basis)
    except np.linalg.LinAlgError as exc:
        raise SpectralError("eigenvector basis is singular (matrix not diagonalizable)") from exc
    residual = np.abs(basis @ np.diag(eigenvalues) @ basis_inv - pi).max()
    if residual > _RESIDUAL_TOL:
        raise SpectralError(f"eigendecomposition residual {residual:.3g} exceeds {_RESIDUAL_TOL:.3g}")
    return Spectral(eigenvalues, basis, basis_inv, int(np.flatnonzero(unit)[0]))


def _kld_hmm_spectral(m1: HmmModel, m0: HmmModel) -> float:
    """Fast-path value, `kld_hmm_no_evidence`'s bit for bit; raises
    SpectralError when the preconditions fail."""
    check_pair(m1, m0)
    root, step = local_k_terms(m1.initial, m0.initial, m1.transition, m0.transition, m1.emission, m0.emission)
    if m1.length == 1:
        return float(root)
    if not (np.isfinite(step).all() and math.isfinite(root)):
        raise SpectralError("local divergences are infinite; the spectral series does not apply")
    spectral_split(m1.transition)
    return _closed_form(m1.initial, root, m1.transition, step, 1, m1.length)


def kld_hmm_fast(m1: HmmModel, m0: HmmModel) -> float:
    """kld_hmm_no_evidence, bit for bit, after checking the eigendecomposition
    preconditions: finite local divergences and a transition matrix that
    `spectral_split` accepts.

    Falls back to `kld_hmm_no_evidence` (with a warning naming the reason)
    whenever a precondition fails.
    """
    try:
        return _kld_hmm_spectral(m1, m0)
    except SpectralError as exc:
        warnings.warn(f"fast path unavailable ({exc}); using direct summation", stacklevel=2)
        return kld_hmm_no_evidence(m1, m0)


# ---------------------------------------------------------------------------
# Evidence conditioning


@dataclass(frozen=True, eq=False)
class BackwardTable:
    """Backward quantities B_i(s) = P(X_{i+1:N} = x_{i+1:N} | S_i = s), scaled.

    ``values[i-1] * exp(log_scale[i-1])`` recovers the unscaled B_i; each row
    is scaled to maximum 1 so that chains hundreds of symbols long do not
    underflow.  The last row is identically 1 with zero scale.  Row i-1 of
    ``emitted`` is e(., x_i), the emission column of each symbol, which the
    recursion read.
    """

    values: np.ndarray
    log_scale: np.ndarray
    log_likelihood: float
    emitted: np.ndarray


def backward_quantities(model: HmmModel, evidence: Evidence) -> BackwardTable:
    """Backward recursion B_{i-1}(r) = sum_s pi(r,s) e(s, x_i) B_i(s), scaled.

    The evidence likelihood P(X = x) = sum_s mu(s) e(s, x_1) B_1(s) is exposed
    as ``log_likelihood``.  Raises ZeroLikelihoodError carrying the 1-based
    position of the symbol at which all backward mass vanishes.
    """
    check_evidence(model, evidence)
    n = model.length
    emitted = model.emission.matrix.T[evidence.symbols]  # row i-1 is e(., x_i)
    values = np.ones((n, model.n_states))
    tops = []
    b, w = values[-1], np.empty(model.n_states)
    dot, multiply, divide, append = model.transition.dot, np.multiply, np.divide, tops.append
    # position i reads row i-1 of `emitted` and writes row i-2 of `values`
    for i, e, row in zip(range(n, 1, -1), emitted[:0:-1], values[-2::-1]):
        raw = dot(multiply(e, b, out=w))
        top = raw[raw.argmax()]
        if not top > 0:
            raise ZeroLikelihoodError(i)
        b = divide(raw, top, out=row)
        append(top)
    total = (model.initial * emitted[0] * values[0]).sum()
    if not total > 0:
        raise ZeroLikelihoodError(1)
    # running sums of the logs of the scales, last position first
    sums = list(accumulate(map(math.log, tops), initial=0.0))
    log_scale = np.zeros(n)
    log_scale[-2::-1] = sums[1:]
    return BackwardTable(values, log_scale, math.log(total) + sums[-1], emitted)


def _posterior_weights(model: HmmModel, evidence: Evidence):
    """The initial posterior P(S_1 | X = x) and the ``(N-1, d)`` weights
    ``e(s, x_i) B_i(s)`` of positions i = 2..N, from which `_factor_block`
    builds the posterior conditionals; the weights overwrite the table's
    emission rows."""
    table = backward_quantities(model, evidence)
    emitted = table.emitted
    mass = model.initial * emitted[0] * table.values[0]
    return mass / mass.sum(), np.multiply(emitted[1:], table.values[1:], out=emitted[1:])


def _factor_block(transition, weights, out=None) -> np.ndarray:
    """Posterior factors ``pi(r, s) w[i, s]``, normalised per row, for the
    rows `weights` of `_posterior_weights`; a row whose state cannot occur
    given the evidence sums to 0 and stays all-zero.

    Every step is elementwise or along the last axis, so a factor does not
    depend on the block it is computed in.
    """
    factors = np.multiply(transition, weights[:, None, :], out=out)
    row_sums = factors.sum(axis=2, keepdims=True)
    # a row sums to 0 only when all of it is 0; dividing it by 1 keeps it so,
    # and costs less than masking the division
    row_sums[row_sums == 0] = 1.0
    return np.divide(factors, row_sums, out=factors)


def posterior_conditionals(model: HmmModel, evidence: Evidence):
    """Initial posterior P(S_1 | X = x) and the conditionals P(S_i | S_{i-1}, X = x).

    Returns ``(initial, conditionals)`` where ``conditionals[i-2]`` is the
    row-stochastic matrix for position i (i = 2..N).  Rows whose state cannot
    occur given the evidence are left all-zero; chaining the returned factors
    reproduces the posterior probability of any hidden path.  The whole
    ``(N-1, d, d)`` stack is returned, built in place by one `_factor_block`
    call; past the stack itself the memory is O(N d).
    """
    initial, weights = _posterior_weights(model, evidence)
    d = model.n_states
    return initial, _factor_block(model.transition, weights, out=np.empty((model.length - 1, d, d)))


def _posterior_pair(m1: HmmModel, m0: HmmModel, evidence: Evidence, posterior):
    """`posterior` (`posterior_conditionals` or `_posterior_weights`) of both
    models; a ZeroLikelihoodError names the model."""
    pair = []
    for name, model in (("first", m1), ("second", m0)):
        try:
            pair.append(posterior(model, evidence))
        except ZeroLikelihoodError as exc:
            message = f"zero likelihood under the {name} model (position {exc.position})"
            raise ZeroLikelihoodError(exc.position, message) from None
    return pair


def kld_hmm_evidence(m1: HmmModel, m0: HmmModel, evidence: Evidence) -> float:
    """KL divergence between the models' hidden-path posteriors given x, in nats.

    Runs the inward recursion, `tree._fold`, on the evidence-conditioned
    chain: from K_N = 0 down to K_1 through the posterior conditionals, then
    aggregates under the first model's posterior of S_1.  The conditionals
    and their row divergences are built in backward blocks of at most
    `divergence._BLOCK_ENTRIES` terms and dropped once the recursion has
    passed them, so the memory is O(N d) (the backward tables) plus one
    block, and no value depends on the block size.  Raises
    ZeroLikelihoodError (stating which model) when the evidence is impossible
    under either model.

    The row divergences are `scipy.special.rel_entr`'s, imported here rather
    than at module load: the tests pin this route's values against a
    SciPy-based whole-stack reference bit for bit, and the NumPy kernel
    `divergence._rel_entr` can differ in the last bits.  So this route, and
    only this exact route, loads SciPy.
    """
    from scipy.special import rel_entr

    check_pair(m1, m0)
    (initial1, weights1), (initial0, weights0) = _posterior_pair(m1, m0, evidence, _posterior_weights)
    inward, block = np.zeros(m1.n_states), max(1, divergence._BLOCK_ENTRIES // m1.n_states**2)
    for hi in range(m1.length - 1, 0, -block):  # the last block first
        factors1 = _factor_block(m1.transition, weights1[max(0, hi - block) : hi])
        factors0 = _factor_block(m0.transition, weights0[max(0, hi - block) : hi])
        inward = _fold(inward, factors1, rel_entr(factors1, factors0, out=factors0).sum(axis=2))
    # rounding noise in near-equal posteriors can leave -1e-16; divergences are nonnegative
    return max(float(rel_entr(initial1, initial0).sum() + weighted_sum(initial1, inward)), 0.0)
