"""Gibbs measures as stationary Markov chains on block states.

The measure is stored only through (pi, Q) on the recoded chain; every
cylinder value is an O(|word|) product, never a table.  The same class
carries arbitrary stationary chains on the block graph so that
non-equilibrium candidates can be pushed through the same diagnostics.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeGuard, SolveFailure, Undefined, ValidationError
from .potential import total_variation, fnorm
from .shift_space import block_moves, enumerate_words, enumeration_cap
from .transfer import _continuation_sums, normalized_operator


@dataclass(frozen=True, eq=False)
class GibbsMeasure:
    """Stationary Markov measure on l-block states.

    stationary is the state distribution pi, transition the
    row-stochastic forward kernel Q.  For the equilibrium chain
    pi = h * nu and pressure = log lambda.
    """

    space: object
    block_length: int
    states: tuple
    stationary: np.ndarray
    transition: np.ndarray
    pressure: float = None
    potential: object = None
    _index: dict = field(repr=False, default=None)

    def __post_init__(self):
        k = len(self.states)
        if self.stationary.shape != (k,) or self.transition.shape != (k, k):
            raise ValidationError("stationary/transition shapes do not match states")
        if abs(self.stationary.sum() - 1.0) > 1e-9:
            raise ValidationError("stationary vector must sum to 1")
        if np.abs(self.transition.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValidationError("transition rows must sum to 1")
        object.__setattr__(self, "_index", {s: k for k, s in enumerate(self.states)})
        self.stationary.setflags(write=False)
        self.transition.setflags(write=False)

    def cylinder_measure(self, word):
        """mu([word]); zero when the word is not admissible.

        Words shorter than the block length are summed over their
        completions to full blocks.
        """
        word = tuple(word)
        n = len(word)
        if n == 0:
            return 1.0
        ell = self.block_length
        if n < ell:
            return float(
                sum(
                    self.stationary[i]
                    for i, s in enumerate(self.states)
                    if s[:n] == word
                )
            )
        first = self._index.get(word[:ell])
        if first is None:
            return 0.0
        p = self.stationary[first]
        cur = first
        for t in range(1, n - ell + 1):
            nxt = self._index.get(word[t : t + ell])
            if nxt is None:
                return 0.0
            p *= self.transition[cur, nxt]
            if p == 0.0:
                return 0.0
            cur = nxt
        return float(p)

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


def gibbs_measure(T, eigendata):
    """Equilibrium chain of a solved transfer system: pi = h nu, Q the
    normalized operator."""
    Q, pi = normalized_operator(T, eigendata)
    return GibbsMeasure(
        space=T.space,
        block_length=T.block_length,
        states=T.states,
        stationary=pi,
        transition=Q,
        pressure=eigendata.pressure,
        potential=T.potential,
    )


def markov_measure(space, block_length, states, transition, stationary=None):
    """Arbitrary stationary chain on the recoded graph (candidate
    measures for the variational diagnostics).  When not supplied, the
    stationary vector is solved from Q in one dense solve of
    pi (I - Q + 1 1^T) = 1^T; a chain without a unique stationary
    vector raises SolveFailure."""
    Q = np.asarray(transition, dtype=float)
    if stationary is None:
        k = Q.shape[0]
        try:
            stationary = np.linalg.solve((np.eye(k) - Q + 1.0).T, np.ones(k))
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"stationary system is singular: {exc}")
        if not np.all(np.isfinite(stationary)):
            raise SolveFailure("stationary solve produced non-finite entries")
    return GibbsMeasure(
        space=space,
        block_length=block_length,
        states=tuple(states),
        stationary=np.asarray(stationary, dtype=float),
        transition=Q,
    )


def entropy(mu):
    """Entropy rate -sum pi(u) Q(u,v) log Q(u,v), with 0 log 0 = 0."""
    Q = mu.transition
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(Q > 0, Q * np.log(np.where(Q > 0, Q, 1.0)), 0.0)
    return float(-(mu.stationary @ plogp.sum(axis=1)))


def expectation(mu, psi):
    """Integral of a finite-memory observable: sum over its memory-words
    of value times cylinder measure."""
    if not psi.space.same_as(mu.space):
        raise ValidationError("observable is not defined on this shift space")
    return float(
        sum(v * mu.cylinder_measure(w) for w, v in sorted(psi.values.items()))
    )


def variational_defect(mu, phi, pressure):
    """pressure - entropy(mu) - integral of phi; nonnegative, zero
    exactly at the equilibrium chain."""
    return float(pressure - entropy(mu) - expectation(mu, phi))


def block_chain(mu, L):
    """Present the same measure on L-blocks (L >= block_length):
    pi_L from cylinder measures, Q_L from one-symbol extensions."""
    if L < mu.block_length:
        raise ValidationError("cannot coarsen below the native block length")
    if L == mu.block_length:
        return mu.states, np.array(mu.stationary), np.array(mu.transition)
    states = tuple(enumerate_words(mu.space, L))
    pi = np.array([mu.cylinder_measure(w) for w in states])
    Q = np.zeros((len(states), len(states)))
    for i, j, w in block_moves(mu.space, states):
        if pi[i] != 0.0:
            Q[i, j] = mu.cylinder_measure(w) / pi[i]
    # states of zero mass keep an arbitrary valid row for stochasticity
    for i in range(len(states)):
        r = Q[i].sum()
        if r == 0.0:
            Q[i, i] = 1.0
        else:
            Q[i] /= r
    return states, pi, Q


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
    c1_fnorm: float
    c2_fnorm: float
    per_length: tuple
    band_spread: float
    pass_band: bool
    band_constant: bool
    passed: bool


def gibbs_ratio_scan(mu, phi, n_max, tol=1e-12, cap=None):
    """Scan every admissible word up to n_max against the Gibbs band.

    The quantified point x in the cylinder only enters S_n phi through
    m - 1 undetermined trailing symbols, so the worst case over all of
    [w] is an exact finite maximum (the canonical extension is one of
    the continuations scanned).
    """
    if mu.pressure is None:
        raise ValidationError("scan needs a chain with a pressure attached")
    if cap is None:
        cap = enumeration_cap()
    if mu.space.alphabet_size**n_max > cap:
        raise SizeGuard(f"scan of length {n_max} exceeds enumeration cap")
    P = mu.pressure
    per_length = []
    lo_all, hi_all = math.inf, -math.inf
    for n in range(1, n_max + 1):
        lo, hi = math.inf, -math.inf
        for w in enumerate_words(mu.space, n, cap=cap):
            muw = mu.cylinder_measure(w)
            if muw == 0.0:
                continue
            for s in _continuation_sums(mu.space, phi, w):
                ratio = muw / math.exp(-n * P + s)
                lo = min(lo, ratio)
                hi = max(hi, ratio)
        per_length.append((n, lo, hi))
        lo_all = min(lo_all, lo)
        hi_all = max(hi_all, hi)
    V = total_variation(phi)
    c1, c2 = math.exp(-2.0 * V), math.exp(2.0 * V)
    F = fnorm(phi)
    # bands stabilize once every reachable (first block, last block) pair
    # occurs, at length 2*l + mixing time
    n_stab = min(2 * mu.block_length + mu.space.mixing_time, n_max)
    stable = per_length[n_stab - 1 :]
    band_spread = max(
        max(abs(lo - stable[-1][1]), abs(hi - stable[-1][2])) for _, lo, hi in stable
    )
    pass_band = lo_all >= c1 - tol and hi_all <= c2 + tol
    band_constant = band_spread <= 1e-10 * max(1.0, hi_all)
    passed = pass_band or band_constant
    return GibbsScanReport(
        n_max=n_max,
        min_ratio=lo_all,
        max_ratio=hi_all,
        c1=c1,
        c2=c2,
        c1_fnorm=math.exp(-2.0 * F),
        c2_fnorm=math.exp(2.0 * F),
        per_length=tuple(per_length),
        band_spread=band_spread,
        pass_band=pass_band,
        band_constant=band_constant,
        passed=passed,
    )


def wasserstein_distance(mu1, mu2, alpha, n_max, cap=None):
    """Level-sum value of W1 for the ultrametric alpha**(first
    disagreement): sum over n of (alpha**(n-1) - alpha**n) TV_n, plus
    the unresolved-tail diameter alpha**n_max.

    Returns (value, tail_bound); the exact distance lies within
    [value, value + tail_bound].
    """
    if not mu1.space.same_as(mu2.space):
        raise ValidationError("measures must share one shift space")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    value = 0.0
    for n in range(1, n_max + 1):
        tv = 0.5 * sum(
            abs(mu1.cylinder_measure(w) - mu2.cylinder_measure(w))
            for w in enumerate_words(mu1.space, n, cap=cap)
        )
        value += (alpha ** (n - 1) - alpha**n) * tv
    return float(value), float(alpha**n_max)


def wasserstein_report(mu1, mu2, alpha, n_max, cap=None):
    """Serializable summary {value, tail_bound, n_max}."""
    value, tail = wasserstein_distance(mu1, mu2, alpha, n_max, cap=cap)
    return {"value": value, "tail_bound": tail, "n_max": n_max}


def wasserstein_lp(mu1, mu2, alpha, n, cap=None):
    """Ground-truth transport value on n-cylinder marginals.

    Solves the transportation LP with cost alpha**(first index of
    disagreement) (zero on the diagonal) between the two n-word
    distributions.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    words = enumerate_words(mu1.space, n, cap=cap)
    p = np.array([mu1.cylinder_measure(w) for w in words])
    q = np.array([mu2.cylinder_measure(w) for w in words])
    k = len(words)
    codes = np.array([[mu1.space.index(s) for s in w] for w in words])
    differ = codes[:, None, :] != codes[None, :, :]
    C = np.where(differ.any(axis=2), alpha ** differ.argmax(axis=2), 0.0)
    ones = np.ones((1, k))
    A_eq = sparse.vstack([sparse.kron(sparse.eye(k), ones),
                          sparse.kron(ones, sparse.eye(k))])
    res = linprog(
        C.ravel(), A_eq=A_eq, b_eq=np.concatenate([p, q]),
        bounds=(0, None), method="highs",
    )
    if not res.success:
        raise ValidationError(f"transport LP failed: {res.message}")
    return float(res.fun)
