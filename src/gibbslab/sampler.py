"""Seeded Monte Carlo simulation of the Gibbs chain.

Reproducibility contract: all randomness comes from the Philox4x64-10
counter-based generator keyed by the 64-bit seed.  Uniform variates are
raw 64-bit words mapped to [0, 1) by u = (word >> 11) * 2**-53, and
categorical draws invert the row CDF over states in lexicographic
order (tie rule: number of cumulative weights <= u, at most k - 1).
Both samplers apply it in integers: u >= c exactly when
word >> 11 >= ceil(c * 2**53).  Trial t consumes the counter block
starting at t * blocks_per_trial, so outputs are bit-identical across
platforms, runs, and batch sizes.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .errors import SizeGuard, ValidationError
from .gibbs import block_chain
from .shift_space import word_codes, word_count

_WORDS_PER_COUNTER = 4
_BATCH = 4096
_SCALE = 2.0**53
_MAX_STATES = 2**10  # s * 2**54 + w must fit in 64 bits


@dataclass(frozen=True)
class SampleConfig:
    seed: int
    n: int
    trials: int = 1

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if self.n < 1 or self.trials < 1:
            raise ValidationError("n and trials must be at least 1")


def _words(seed, counter_start, count):
    """The 53-bit words word >> 11 of count raw Philox outputs."""
    w = Philox(key=seed, counter=counter_start).random_raw(count)
    w >>= np.uint64(11)
    return w


def sample_path(mu, n, seed, stream=0):
    """One trajectory of n symbols: initial block from pi, then symbols
    from the rows of Q.  Distinct streams own disjoint counter blocks
    of the same keyed generator."""
    cfg = SampleConfig(seed=seed, n=n)
    ell = mu.block_length
    steps = max(n - ell, 0)
    draws = 1 + steps
    blocks = -(-draws // _WORDS_PER_COUNTER)
    w = _words(cfg.seed, stream * blocks, draws).tolist()
    first = _thresholds(np.cumsum(mu.stationary)).tolist()
    rows = _thresholds(np.cumsum(mu.transition, axis=1)).tolist()
    last = [s[-1] for s in mu.states]
    state = bisect_right(first, w[0])
    out = list(mu.states[state][:n])
    for t in range(steps):
        state = bisect_right(rows[state], w[1 + t])
        out.append(last[state])
    return tuple(out)


def empirical_birkhoff(mu, psi, n, trials, seed, exact=None):
    """Independent samples of S_n psi with summary statistics.

    Trials run in batches but each trial owns a fixed counter block, so
    the sample set does not depend on the batch size.  Each step applies
    the inversion rule in integers: u = w * 2**-53 >= c exactly when
    w >= ceil(c * 2**53), w = word >> 11.  Row s of these thresholds,
    its last entry replaced by 2**53 (no w reaches it, which is the
    clamp to the last state), sits at s * 2**54 in one sorted key table,
    so one searchsorted of s * 2**54 + w per step finds the next state.
    The key holds 2**10 rows, so a chain of more states is a SizeGuard.
    Returns (samples, summary); the summary carries the empirical mean,
    variance/n, and, when the exact lattice law is supplied, the
    Kolmogorov distance to it.
    """
    cfg = SampleConfig(seed=seed, n=n, trials=trials)
    L = max(mu.block_length, psi.memory)
    k = word_count(mu.space, L)
    if k > _MAX_STATES:
        raise SizeGuard(f"sampler: {k} states of {L}-blocks exceed its limit of {_MAX_STATES}")
    pi, Q = block_chain(mu, L)
    pv = psi.on(word_codes(mu.space, L), L)
    row_base = np.arange(k, dtype=np.uint64) << np.uint64(54)
    first = _thresholds(np.cumsum(pi))
    keys = (_thresholds(np.cumsum(Q, axis=1)) + row_base[:, None]).ravel()
    # the search result r = s * k + next state indexes these
    next_base = np.tile(row_base, k)
    next_psi = np.tile(pv, k)
    draws_per_trial = n  # one start block plus n - 1 transitions
    blocks_per_trial = -(-draws_per_trial // _WORDS_PER_COUNTER)
    words_per_trial = blocks_per_trial * _WORDS_PER_COUNTER
    samples = np.empty(trials)
    for start in range(0, trials, _BATCH):
        batch = min(_BATCH, trials - start)
        w = _words(cfg.seed, start * blocks_per_trial, batch * words_per_trial)
        w = w.reshape(batch, words_per_trial)
        state = first.searchsorted(w[:, 0], side="right")
        base = row_base[state]
        total = pv[state].copy()
        for t in range(1, n):
            r = keys.searchsorted(base + w[:, t], side="right")
            base = next_base[r]
            total += next_psi[r]
        samples[start : start + batch] = total
    summary = {
        "mean": float(samples.mean()),
        "var_over_n": float(samples.var(ddof=1) / n) if trials > 1 else 0.0,
        "ks": None,
    }
    if exact is not None:
        summary["ks"] = kolmogorov_distance(samples, exact)
    return samples, summary


def _thresholds(cum):
    """The least words w >> 11 that reach each cumulative weight, as
    uint64, with 2**53 (never reached) in the last column and for
    weights of 1 or more or NaN."""
    t = np.fmax(np.fmin(np.ceil(cum * _SCALE), _SCALE), 0.0)
    t[..., -1] = _SCALE
    return t.astype(np.uint64)


def kolmogorov_distance(samples, dist):
    """One-sample Kolmogorov statistic against an exact lattice law.

    Samples are snapped to the lattice first (accumulated float error
    in a Birkhoff sum is far below half a span), so atom comparisons
    are exact."""
    j = np.rint((np.asarray(samples) - dist.n * dist.offset) / dist.span)
    snapped = dist.n * dist.offset + dist.span * j
    values = dist.values
    cdf = np.cumsum(dist.probs)
    prev = np.concatenate(([0.0], cdf[:-1]))
    srt = np.sort(snapped)
    m = len(srt)
    right = np.searchsorted(srt, values, side="right") / m
    left = np.searchsorted(srt, values, side="left") / m
    return float(max(np.abs(right - cdf).max(), np.abs(left - prev).max()))
