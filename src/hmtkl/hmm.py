"""Exact KL divergence for homogeneous hidden Markov chains.

Implements the closed form for the unconditional divergence (the chain is
the one-child tree, so its value is the tree's closed form,
`tree._closed_form`, binary doubling in O(d^3 log N)), its large-N rate, a
fast path that checks the spectral preconditions and then runs the same
evaluator, the classical upper bound (which equals the exact value, and
is summed along an independent route: binary doubling on the matrix pair
``(P^n, sum_{i<n} P^i)`` in O(d^3 log N), the power's rows renormalised to
sum to 1 after each product), and the divergence between the two models'
hidden-path posteriors given a fully observed emission sequence.  The fast
path and the stationary law first test the mass every row of the transition
matrix shares, `_minorized`, in O(d^2): when it exceeds the route's
tolerance it proves a simple unit eigenvalue with every other one inside the
unit disc by that tolerance, and no eigendecomposition runs.  The
evidence route runs both models' backward recursions in one loop from the
last symbol to the first, `_posterior_sweep`, whose posterior weights come
in blocks of ``divergence._BLOCK_ENTRIES // d**2`` positions counted from
the first, the last block first.  As soon as a block is filled it is
turned, from its end and a slice of at most a quarter of a block at a time,
into both models' posterior factors and row divergences, which the tree's
chain step `tree._fold`, run in the same direction, folds in; so its memory
is one block of weights and one slice of factors per model plus O(d),
whatever N.  `montecarlo` keeps every block, each one window of its
posterior draws.
Each step of that loop takes one product with the emission columns and one
stacked `np.matmul` for both models, then one argmax and one in-place
division for each.  The public one-model tables, `backward_quantities` and
`posterior_conditionals`, keep their own loop, which logs the scales after
it.
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
from .model import STOCH_TOL, Evidence, HmmModel, check_evidence, check_pair
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
    check_pair(m1, m0, HmmModel)
    root, step = local_k_terms(m1.initial, m0.initial, m1.transition, m0.transition, m1.emission, m0.emission)
    return _closed_form(m1.initial, root, m1.transition, step, 1, m1.length)


def _minorized(pi, margin: float, row_tol: float) -> bool:
    """Whether the mass every row of `pi` shares, ``delta = sum_j min_i
    pi(i, j)``, proves that `pi` has one eigenvalue within ``3 row_tol`` of 1
    and every other modulus below ``1 - margin``.  O(d^2), no
    eigendecomposition.

    For a stochastic matrix, Doeblin's minorization bounds Dobrushin's
    coefficient by 1 - delta, so the unit eigenvalue is simple and every
    other modulus is at most 1 - delta.  Rows of `pi` that sum to 1 only
    within `row_tol` make it a stochastic matrix plus a perturbation of norm
    at most `row_tol` in that bound's norm, whose resolvent then keeps one
    eigenvalue within ``3 row_tol`` of 1 and the others at most
    ``1 - delta + 3 row_tol``; one more `row_tol` absorbs the row scaling
    and the rounding of the sum.  Both callers' unit tolerances are at least
    ``3 row_tol``, so that eigenvalue is the one they count as 1.  `pi` must
    be nonnegative; a NaN entry certifies nothing.
    """
    return pi.min(axis=0).sum() > margin + 4 * row_tol


#: Tolerances of `stationary_distribution`: an eigenvalue within
#: `_STATIONARY_TOL` of 1 is a unit one, and another must be inside the unit
#: circle by as much; rows must sum to 1 within `_STATIONARY_ROW_TOL`.
_STATIONARY_TOL = 1e-8
_STATIONARY_ROW_TOL = 1e-9


def stationary_distribution(pi) -> np.ndarray:
    """Row vector nu with nu @ pi = nu, entries >= 0, sum 1.

    Solves the linear system (pi^T - I | sum = 1) directly.  Raises
    StationaryError when the unit eigenvalue is not simple or another
    eigenvalue sits on (or numerically at) the unit circle, i.e. for
    reducible or periodic chains.  The eigenvalues are computed only when
    the rows' shared mass does not already prove both conditions
    (`_minorized`, at this function's own tolerances); either way the same
    solve gives nu.
    """
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
        raise ValueError(f"transition matrix must be square, got {pi.shape}")
    if (pi < 0).any() or np.abs(pi.sum(axis=1) - 1.0).max() > _STATIONARY_ROW_TOL:
        raise ValueError("transition matrix must be row-stochastic")
    d = pi.shape[0]
    if not _minorized(pi, _STATIONARY_TOL, _STATIONARY_ROW_TOL):
        eigenvalues = np.linalg.eigvals(pi)
        unit = np.abs(eigenvalues - 1.0) <= _STATIONARY_TOL
        if unit.sum() != 1:
            raise StationaryError(f"no unique stationary distribution: eigenvalue 1 has multiplicity {unit.sum()}")
        if (np.abs(eigenvalues[~unit]) > 1.0 - _STATIONARY_TOL).any():
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
    check_pair(m1, m0, HmmModel)
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
    power = power_a.dot(power_b)
    power /= power.sum(axis=1, keepdims=True)
    exponent = _sum_exponent(a + b)
    if exponent:  # scaling by a power of two moves no bit
        sums_a, sums_b = np.ldexp(sums_a, _sum_exponent(a) - exponent), np.ldexp(sums_b, _sum_exponent(b) - exponent)
    return power, sums_a + power_a.dot(sums_b), a + b


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
    check_pair(m1, m0, HmmModel)
    (d_initial, d_transition), d_emission = _emission_rows(
        m1.emission, m0.emission, (m1.initial, m0.initial), (m1.transition, m0.transition)
    )
    # a step is >= 0, but rounding can leave -1e-16 in it, which the sum
    # multiplies by N; it is clamped at 0 as a whole, as the local terms are.
    # A row that sums to 1 - 1e-16 (within the validation tolerance) carries
    # that mass into D(pi) and, in the local terms, into the next emission;
    # weighting D(e) by the row's mass cancels it here too.  Clamping D(pi)
    # alone made the bound N * 1e-16 where the exact value is 1e-16, and an
    # unweighted D(e) left it N * 2e-32 away from the exact route.
    step = np.maximum(d_transition + m1.transition.sum(axis=1) * d_emission, 0.0)
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
        # zero divergences stay out of the product, which keeps its bits; the
        # masked copy is what the product reads even when every step is live,
        # since its column-major layout gives other bits than `sums` itself
        live = step != 0
        # finite steps and D(e) take `weighted_sum`'s finite product directly
        product = np.ndarray.dot if np.isfinite(step + d_emission).all() else weighted_sum
        acc = np.ldexp(product(sums[:, live], step[live]), exponent) + product(power, d_emission)
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
    SpectralError when the preconditions fail.

    The preconditions are finite local divergences and a simple unit
    eigenvalue of the first model's transition matrix, every other modulus
    below 1 by `_CONTRACTION_MARGIN`.  When the rows' shared mass proves the
    latter (`_minorized`, its rows validated to `STOCH_TOL`), no
    eigendecomposition runs; otherwise `spectral_split` decides, and its
    error is the fallback's reason.
    """
    check_pair(m1, m0, HmmModel)
    root, step = local_k_terms(m1.initial, m0.initial, m1.transition, m0.transition, m1.emission, m0.emission)
    if m1.length == 1:
        return float(root)
    if not (np.isfinite(step).all() and math.isfinite(root)):
        raise SpectralError("local divergences are infinite; the spectral series does not apply")
    if not _minorized(m1.transition, _CONTRACTION_MARGIN, STOCH_TOL):
        spectral_split(m1.transition)
    return _closed_form(m1.initial, root, m1.transition, step, 1, m1.length)


def kld_hmm_fast(m1: HmmModel, m0: HmmModel) -> float:
    """kld_hmm_no_evidence, bit for bit, after checking the spectral
    preconditions: finite local divergences, and a transition matrix whose
    rows share more than `_CONTRACTION_MARGIN` (plus an allowance for rows
    that sum to 1 within `STOCH_TOL`) of their mass or, failing that, that
    `spectral_split` accepts.  A matrix that passes the first test needs no
    eigendecomposition, so it takes the fast path even when a defective
    eigenvalue inside the unit disc would make `spectral_split` refuse it.

    Falls back to `kld_hmm_no_evidence` (with a warning naming the reason)
    whenever a precondition fails.
    """
    try:
        return _kld_hmm_spectral(m1, m0)
    except SpectralError as exc:
        warnings.warn(_fast_fallback(exc), stacklevel=2)
        return kld_hmm_no_evidence(m1, m0)


def _fast_fallback(exc: SpectralError) -> str:
    """Why the fast path fell back, as `kld_hmm_fast` warns it and
    ``hmtkl exact --fast`` notes it."""
    return f"fast path unavailable ({exc}); using direct summation"


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


def _factor_block(transition, weights, out=None) -> np.ndarray:
    """Posterior factors ``pi(r, s) w[i, s]``, normalised per row, for the
    posterior weights ``w[i, s] = e(s, x_i) B_i(s)``; a row whose state
    cannot occur given the evidence sums to 0 and stays all-zero.

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
    call from the weights ``e(s, x_i) B_i(s)``, which overwrite the backward
    table's emission rows; past the stack itself the memory is O(N d).
    """
    table = backward_quantities(model, evidence)
    emitted, d = table.emitted, model.n_states
    mass = model.initial * emitted[0] * table.values[0]
    weights = np.multiply(emitted[1:], table.values[1:], out=emitted[1:])
    return mass / mass.sum(), _factor_block(model.transition, weights, out=np.empty((model.length - 1, d, d)))


def _vanished(name: str, position: int) -> ZeroLikelihoodError:
    return ZeroLikelihoodError(position, f"zero likelihood under the {name} model (position {position})")


def _posterior_sweep(m1: HmmModel, m0: HmmModel, evidence: Evidence, initial: np.ndarray):
    """Both models' scaled backward recursions in one loop, last position first.

    Yields the posterior weights ``e(s, x_i) B_i(s)`` of positions i = N..2,
    from which `_factor_block` builds the posterior conditionals, as
    ``(B, 2, d)`` blocks (the first model's rows, then the second's): with
    B = ``divergence._BLOCK_ENTRIES // d**2``, and at least 1, block k holds
    positions 2 + kB onwards, and the last, maybe shorter, block comes
    first.  Then it writes the two initial posteriors P(S_1 | X = x) into the
    rows of `initial`.  Only the block being filled is held, so the memory
    does not grow with N.  A step is one in-place product with the emission
    columns and one stacked `np.matmul` for both models, then an argmax and
    an in-place division for each: the operations of `backward_quantities`,
    so every value has its bits.

    Raises ZeroLikelihoodError naming the model when the evidence is
    impossible under it: the first model wherever its mass vanishes, the
    second only when the first model's never does.
    """
    check_evidence(m1, evidence)
    check_evidence(m0, evidence)
    n, d = m1.length, m1.n_states
    pi = np.stack((m1.transition, m0.transition))
    # emitted[x] holds e(., x) of both models as columns, the operands of `pi @`;
    # C order, so that the gathered blocks are too
    emitted = np.ascontiguousarray(np.stack((m1.emission.matrix.T, m0.emission.matrix.T), axis=1))[..., None]
    symbols, b, matmul = evidence.symbols, np.ones((2, d, 1)), np.matmul
    b1, b0 = b[:, :, 0]  # each model's B_i, the rows that `matmul` writes
    block = max(1, divergence._BLOCK_ENTRIES // d**2)
    for lo in range((n - 2) // block * block, -1, -block):
        hi = min(n - 1, lo + block)
        # row j is position lo + j + 2: e(., x_i), then e(., x_i) B_i in place
        weights = emitted[symbols[lo + 1 : hi + 1]]
        for i, w in zip(range(hi + 1, lo + 1, -1), weights[::-1]):
            w *= b
            matmul(pi, w, out=b)
            top1, top0 = b1[b1.argmax()], b0[b0.argmax()]
            if not top1 > 0:
                raise _vanished("first", i)
            if not top0 > 0:
                # the first model is named wherever its mass vanishes: run its recursion alone to the end
                for _ in _posterior_sweep(m1, m1, evidence, np.empty((2, d))):
                    pass
                raise _vanished("second", i)
            b1 /= top1
            b0 /= top0
        yield weights[..., 0]
    mass = np.stack((m1.initial, m0.initial)) * emitted[symbols[0], ..., 0] * b[..., 0]
    for name, row, out in zip(("first", "second"), mass, initial):
        total = row.sum()
        if not total > 0:
            raise _vanished(name, 1)
        np.divide(row, total, out=out)


def kld_hmm_evidence(m1: HmmModel, m0: HmmModel, evidence: Evidence) -> float:
    """KL divergence between the models' hidden-path posteriors given x, in nats.

    Runs the inward recursion, `tree._fold`, on the evidence-conditioned
    chain: from K_N = 0 down to K_1 through the posterior conditionals, then
    aggregates under the first model's posterior of S_1.  The backward
    recursions of both models and the inward recursion all run from the last
    symbol to the first, so each block of weights that `_posterior_sweep`
    yields is folded at once, from its end, in slices of
    ``divergence._BLOCK_ENTRIES // (4 d^2)`` positions: each slice's
    conditionals are built into one buffer per model, reused across slices,
    and its row divergences overwrite the second model's.  The memory is one
    block of weights and one slice of factors per model plus O(d), whatever
    N (0.74 MiB at d = 64 in `tracemalloc`, where the block's three factor
    stacks took 3.25 MiB), and no value depends on the block or slice size,
    since every factor and row divergence is elementwise or per row.  Raises
    ZeroLikelihoodError (stating which model) when the evidence is impossible
    under either model.

    The row divergences are `scipy.special.rel_entr`'s, imported here rather
    than at module load: the tests pin this route's values against a
    SciPy-based whole-stack reference bit for bit, and the NumPy kernel
    `divergence._rel_entr` can differ in the last bits.  So this route, and
    only this exact route, loads SciPy.
    """
    from scipy.special import rel_entr

    check_pair(m1, m0, HmmModel)
    d = m1.n_states
    inward, initial = np.zeros(d), np.empty((2, d))
    # positions per slice: a quarter of a block's factor entries per model
    size = min(m1.length - 1, max(1, divergence._BLOCK_ENTRIES // (4 * d * d)))
    slices = np.empty((2, size, d, d))
    for weights in _posterior_sweep(m1, m0, evidence, initial):
        for hi in range(len(weights), 0, -size):
            lo = max(0, hi - size)
            factors1 = _factor_block(m1.transition, weights[lo:hi, 0], out=slices[0, : hi - lo])
            factors0 = _factor_block(m0.transition, weights[lo:hi, 1], out=slices[1, : hi - lo])
            # fresh rows for each slice: `_fold` returns the last of them
            inward = _fold(inward, factors1, rel_entr(factors1, factors0, out=factors0).sum(axis=2))
    initial1, initial0 = initial
    # rounding noise in near-equal posteriors can leave -1e-16; divergences are nonnegative
    return max(float(rel_entr(initial1, initial0).sum() + weighted_sum(initial1, inward)), 0.0)
