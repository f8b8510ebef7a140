"""Gibbs measures as stationary Markov chains on block states.

The measure is stored only through (pi, Q) on the l-blocks in code
order, Q read by symbol from its successor table: a cylinder value is a
product along the word's symbols, a lift a gather of rows.  The class carries
any stationary chain on the block graph's moves, checked once when
built, so that non-equilibrium candidates go through the same checks.
"""

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Undefined, ValidationError
from .potential import or_inf, total_variation
from .shift_space import block_moves, check_cap, enumerate_words
from .transfer import _by_prefix, _linear_solve, _tropical_step, normalized_operator

BAND_TOL = 1e-12  # slack of the scan's band test, at each end


@dataclass(frozen=True, eq=False)
class GibbsMeasure:
    """Stationary Markov measure whose states are the admissible
    l-blocks in `enumerate_words` order: stationary is their distribution
    pi, successors the row-stochastic forward kernel Q as the read-only
    k x N table (N symbols) Q(u -> u[1:] + (s,)), zero where s may not
    follow u, next_state[u, s] that block's index, and transition Q as a
    k x k array made when first read.  For the equilibrium chain
    pi = h * nu and pressure = log lambda."""

    space: object
    block_length: int
    stationary: np.ndarray
    successors: np.ndarray
    pressure: float = None

    def __post_init__(self):
        moves = block_moves(self.space, self.block_length)
        k, N, pi, Q = len(moves.blocks), self.space.alphabet_size, self.stationary, self.successors
        for name, a, shape in (("stationary", pi, (k,)), ("successors", Q, (k, N))):
            if not (isinstance(a, np.ndarray) and a.shape == shape):
                raise _shape_error(name, shape, getattr(a, "shape", type(a).__name__))
        # the checks are written so that NaN fails them; an infinite
        # entry makes its sum infinite
        if not (pi.min() >= 0.0 and Q.min() >= 0.0):
            raise ValidationError("stationary and transition entries must be finite and nonnegative")
        if np.count_nonzero(Q) != np.count_nonzero(moves.gather(Q)):
            raise ValidationError("transition has mass off the block graph's moves")
        if not abs(pi.sum() - 1.0) <= 1e-9:
            raise ValidationError("stationary vector must sum to 1")
        if not np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-9:
            raise ValidationError("transition rows must sum to 1")
        object.__setattr__(self, "next_state", moves.table(moves.J, N))
        for a in (pi, Q, self.next_state):
            a.setflags(write=False)
        object.__setattr__(self, "_codes", moves.blocks.tolist())  # the states' codes, for cylinder_measure

    @cached_property
    def transition(self):
        moves = block_moves(self.space, self.block_length)
        Q = moves.dense(moves.gather(self.successors), "transition matrix")
        Q.setflags(write=False)
        return Q

    @cached_property
    def states(self):
        return tuple(enumerate_words(self.space, self.block_length))

    def cylinder_measure(self, word):
        """mu([word]); zero when the word is not admissible.

        A word shorter than the block length sums pi over the blocks it
        starts, one contiguous range of codes; a longer word is pi of
        its first block, found by bisection in the block codes, times
        successors along its remaining symbols, each stepping to the
        next block; a symbol that may not follow makes the product zero.
        """
        word = tuple(word)
        n, ell, N = len(word), self.block_length, self.space.alphabet_size
        if n == 0:
            return 1.0
        digits = self.space.positions(word)
        if digits is None:
            return 0.0
        code = 0
        for d in digits[:ell]:
            code = code * N + d
        if n < ell:
            lo, hi = (bisect_left(self._codes, c * N ** (ell - n)) for c in (code, code + 1))
            return float(sum(self.stationary[lo:hi]))
        u = bisect_left(self._codes, code)
        if u == len(self._codes) or self._codes[u] != code:
            return 0.0
        p = self.stationary.item(u)
        for d in digits[ell:]:
            p *= self.successors.item(u, d)
            if p == 0.0:
                break
            u = self.next_state.item(u, d)
        return p

    def jacobian(self, word):
        """Shift expansion factor mu(sigma[word]) / mu([word]).

        The shift maps [word] onto the cylinder of the shortened word,
        so this is mu([word minus its first symbol]) / mu([word]); it
        is constant once len(word) >= block_length + 1, and for the
        equilibrium chain equals exp(pressure - phi(word)).
        """
        word = tuple(word)
        if len(word) < self.block_length + 1:
            raise ValidationError(
                f"need at least {self.block_length + 1} symbols for the Jacobian"
            )
        denom = self.cylinder_measure(word)
        if denom == 0.0:
            raise Undefined(f"word {word!r} has measure zero")
        return self.cylinder_measure(word[1:]) / denom


def _shape_error(name, shape, got):
    return ValidationError(f"stationary/transition shapes do not match the {shape[0]} "
                           f"blocks: {name} must be an array of shape {shape}, got {got}")


def gibbs_measure(T, eigendata):
    """Equilibrium chain of a solved transfer system: pi = h nu, Q the
    normalized operator's successor table."""
    Q, pi = normalized_operator(T, eigendata)
    return GibbsMeasure(T.space, T.block_length, pi, Q, eigendata.pressure)


def markov_measure(space, block_length, transition, stationary=None):
    """Arbitrary stationary chain on the block_length-blocks from a dense
    k x k Q indexed by them in `enumerate_words` order (candidate measures
    for the variational diagnostics), with no mass off the moves, kept as
    its successor table.  When not supplied, pi is solved from Q in one
    dense solve of pi (I - Q + 1 1^T) = 1^T; without a unique solution,
    SolveFailure."""
    moves = block_moves(space, block_length)
    shape = (len(moves.blocks),) * 2
    try:
        Q = np.asarray(transition, dtype=float)
    except ValueError:
        raise _shape_error("transition", shape, "ragged or non-numeric rows")
    if Q.shape != shape:
        raise _shape_error("transition", shape, Q.shape)
    on_moves = Q[moves.I, moves.J]
    if np.count_nonzero(Q) != np.count_nonzero(on_moves):
        raise ValidationError("transition has mass off the block graph's moves")
    if stationary is None:
        stationary = _linear_solve((np.eye(len(Q)) - Q + 1.0).T, np.ones(len(Q)), "stationary")
        # rounding leaves entries like -6e-17 where a transient block's mass is 0
        stationary = np.maximum(stationary, 0.0)
    return GibbsMeasure(space, block_length, np.asarray(stationary, dtype=float),
                        moves.table(on_moves, space.alphabet_size))


def entropy(mu):
    """Entropy rate -sum pi(u) Q(u,s) log Q(u,s) over the successor
    table, with 0 log 0 = 0."""
    Q = mu.successors
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(Q > 0, Q * np.log(np.where(Q > 0, Q, 1.0)), 0.0)
    return float(-(mu.stationary @ plogp.sum(axis=1)))


def _levels(mu, start=1):
    """Yield (word_codes, masses, last) for word lengths start, start + 1,
    ...  Words shorter than a block sum pi over the blocks they start.
    From the block length on, the n-words u + (s,) and their sources u
    are the kept (n - 1)-block graph's moves, with mass pi[u] times
    successors[last(u), s], last indexing each word's final block: the
    product that cylinder_measure forms, so the masses are the same floats."""
    N, ell = mu.space.alphabet_size, mu.block_length
    words, pi = block_moves(mu.space, ell).blocks, mu.stationary
    last = np.arange(len(pi))
    for n in range(start, ell):
        prefix = words // N ** (ell - n)
        yield np.unique(prefix), _by_prefix(pi, prefix, np.add), None
    for n in itertools.count(ell + 1):
        if n > start:  # words are the (n - 1)-words
            yield words, pi, last
        check_cap(N**n, f"{N}**{n}")
        _, I, _, words = block_moves(mu.space, n - 1)
        s = words % N
        pi, last = pi[I] * mu.successors[last[I], s], mu.next_state[last[I], s]


def require_space(mu, *fns):
    """ValidationError unless every function lives on mu's shift space."""
    if not all(f.space.same_as(mu.space) for f in fns):
        raise ValidationError("observable is not defined on this shift space")


def expectation(mu, psi):
    """Integral of a finite-memory observable: sum over its memory-words
    of value times cylinder measure."""
    require_space(mu, psi)
    blocks, pi, _ = next(_levels(mu, psi.memory))
    return float(sum(v * p for v, p in zip(psi.on(blocks, psi.memory).tolist(), pi.tolist())))


def variational_defect(mu, phi, pressure):
    """pressure - entropy(mu) - integral of phi; nonnegative, zero
    exactly at the equilibrium chain."""
    return float(pressure - entropy(mu) - expectation(mu, phi))


def block_chain(mu, L):
    """The same measure as (pi_L, Q_L) on L-blocks (L >= block_length),
    Q_L a successor table: pi_L from `_levels`, and row u of Q_L the row
    of u's final block (both append the same symbols), renormalised, so
    a block of zero mass keeps its final block's row and the lift has the
    native chain's recurrent classes.  At L = block_length the chain's
    own read-only arrays are returned."""
    if L < mu.block_length:
        raise ValidationError("cannot coarsen below the native block length")
    if L == mu.block_length:
        return mu.stationary, mu.successors
    _, pi, last = next(_levels(mu, L))
    Q = mu.successors[last]
    Q /= Q.sum(axis=1, keepdims=True)
    return pi, Q


@dataclass(frozen=True)
class GibbsScanReport:
    """Worst-case cylinder ratios mu([w]) / exp(-nP + S_n phi) against
    the distortion band (c1, c2) = (e**-2V, e**2V).

    On full shifts the band certifies the Gibbs property outright.  On
    constrained shifts the eigenvector weights enter the ratios
    multiplicatively and can sit outside the variation-only band (at
    phi = 0 the band collapses to [1, 1] while the weights persist), so
    the equally valid signature is that the per-length extremal ratios
    stabilize: a chain that is not Gibbs for phi drifts geometrically
    instead.  band_spread records the stabilization defect; passed is
    pass_band or band_constant.
    """

    n_max: int
    min_ratio: float
    max_ratio: float
    c1: float
    c2: float
    per_length: tuple
    band_spread: float
    pass_band: bool
    band_constant: bool
    passed: bool


def gibbs_ratio_scan(mu, phi, n_max):
    """Scan every admissible word up to n_max against the Gibbs band.

    x in [w] enters S_n phi only through m - 1 trailing symbols, so on
    L-blocks, L = max(l, m - 1), log mu[w] + nP - S_n phi(wx) is a path
    sum: log pi of the first block, log Q - phi per move with Q > 0
    inside w, -phi per continuation move (the last min(n, L)).  Each
    length is one (min,+) and one (max,+) step; a word shorter than a
    block has pi summed over the blocks it starts.
    """
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    if mu.pressure is None:
        raise ValidationError("scan needs a chain with a pressure attached")
    require_space(mu, phi)
    L = max(mu.block_length, phi.memory - 1)
    pi, Q = block_chain(mu, L)
    k = len(pi)
    blocks, I, J, words = moves = block_moves(mu.space, L)
    phis = phi.on(words, L + 1)
    q = moves.gather(Q)
    keep = q > 0.0
    inside = I[keep], J[keep], np.log(q[keep]) - phis[keep]
    heads, tails = [np.log(np.where(pi > 0.0, pi, np.nan))] * 2, [np.zeros(k)] * 2
    per_length = []
    for n in range(1, n_max + 1):
        if n < L:
            prefix = blocks // mu.space.alphabet_size ** (L - n)
            mass = _by_prefix(pi, prefix, np.add)
            short = np.log(np.where(mass > 0.0, mass, np.nan))
        band = [n]
        for b, op in enumerate((np.fmin, np.fmax)):
            if n <= L:
                tails[b] = _tropical_step(tails[b], J, I, -phis, op, k)
            else:
                heads[b] = _tropical_step(heads[b], *inside, op, k)
            if n < L:
                total = short + _by_prefix(tails[b], prefix, op)
            else:
                total = heads[b] + tails[b]
            band.append(or_inf(math.exp, op.reduce(total) + n * mu.pressure))
        per_length.append(tuple(band))
    lo_all = min(lo for _, lo, _ in per_length)
    hi_all = max(hi for _, _, hi in per_length)
    V = total_variation(phi)
    c1, c2 = math.exp(-2.0 * V), or_inf(math.exp, 2.0 * V)
    # bands stabilize once every reachable (first block, last block) pair
    # occurs, at length 2*l + mixing time
    n_stab = min(2 * mu.block_length + mu.space.mixing_time, n_max)
    stable = per_length[n_stab - 1 :]
    band_spread = max(
        max(abs(lo - stable[-1][1]), abs(hi - stable[-1][2])) for _, lo, hi in stable
    )
    pass_band = lo_all >= c1 - BAND_TOL and hi_all <= c2 + BAND_TOL
    band_constant = band_spread <= 1e-10 * max(1.0, hi_all)
    passed = pass_band or band_constant
    return GibbsScanReport(
        n_max=n_max,
        min_ratio=lo_all,
        max_ratio=hi_all,
        c1=c1,
        c2=c2,
        per_length=tuple(per_length),
        band_spread=band_spread,
        pass_band=pass_band,
        band_constant=band_constant,
        passed=passed,
    )


def _level_sum(mu1, mu2, alpha, n):
    """(sum over j <= n of (alpha**(j-1) - alpha**j) TV_j, TV_n), where
    TV_j = (1/2) sum over admissible j-words of |mu1[w] - mu2[w]|."""
    if not mu1.space.same_as(mu2.space):
        raise ValidationError("measures must share one shift space")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    if n < 1:
        raise ValidationError(f"level count must be at least 1, got {n}")
    value = tv = 0.0
    for j, (_, p1, _), (_, p2, _) in zip(range(1, n + 1), _levels(mu1), _levels(mu2)):
        tv = 0.5 * sum(np.abs(p1 - p2).tolist())
        value += (alpha ** (j - 1) - alpha**j) * tv
    return value, tv


def wasserstein_distance(mu1, mu2, alpha, n_max):
    """Level-sum value of W1 for the ultrametric alpha**(first
    disagreement): sum over n of (alpha**(n-1) - alpha**n) TV_n, plus
    the unresolved-tail diameter alpha**n_max.

    Returns (value, tail_bound); the exact distance lies within
    [value, value + tail_bound].
    """
    value, _ = _level_sum(mu1, mu2, alpha, n_max)
    return float(value), float(alpha**n_max)


def wasserstein_lp(mu1, mu2, alpha, n):
    """Exact transport value between the n-cylinder marginals for the
    cost alpha**(first index of disagreement), a tree metric on the
    word tree: W_n = sum_{j<n} (alpha**(j-1) - alpha**j) TV_j +
    alpha**(n-1) TV_n (Kloeckner 2015), the level sum + alpha**n TV_n.
    """
    value, tv = _level_sum(mu1, mu2, alpha, n)
    return float(value + alpha**n * tv)
