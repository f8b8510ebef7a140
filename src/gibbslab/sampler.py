"""Seeded Monte Carlo simulation of the Gibbs chain.

Reproducibility contract: all randomness comes from the Philox4x64-10
counter-based generator keyed by the 64-bit seed.  Uniform variates are
raw 64-bit words mapped to [0, 1) by u = (word >> 11) * 2**-53, and
categorical draws invert the row CDF over states in lexicographic
order (tie rule: number of cumulative weights <= u).  Trial t consumes
the counter block starting at t * blocks_per_trial, so outputs are
bit-identical across platforms, runs, and batch sizes.
"""

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .errors import ValidationError
from .gibbs import block_chain

_WORDS_PER_COUNTER = 4
_BATCH = 4096


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


def _uniforms(seed, counter_start, count):
    bg = Philox(key=seed, counter=counter_start)
    raw = bg.random_raw(count)
    return (raw >> np.uint64(11)) * 2.0**-53


def sample_path(mu, n, seed, stream=0):
    """One trajectory of n symbols: initial block from pi, then symbols
    from the rows of Q.  Distinct streams own disjoint counter blocks
    of the same keyed generator."""
    cfg = SampleConfig(seed=seed, n=n)
    ell = mu.block_length
    steps = max(n - ell, 0)
    draws = 1 + steps
    blocks = -(-draws // _WORDS_PER_COUNTER)
    u = _uniforms(cfg.seed, stream * blocks, draws).tolist()
    cum_pi = np.cumsum(mu.stationary).tolist()
    cum_rows = [row.tolist() for row in np.cumsum(mu.transition, axis=1)]
    last = [s[-1] for s in mu.states]
    km1 = len(mu.states) - 1
    state = min(bisect_right(cum_pi, u[0]), km1)
    out = list(mu.states[state][:n])
    for t in range(steps):
        state = min(bisect_right(cum_rows[state], u[1 + t]), km1)
        out.append(last[state])
    return tuple(out)


def empirical_birkhoff(mu, psi, n, trials, seed, exact=None):
    """Independent samples of S_n psi with summary statistics.

    Trials run in batches but each trial owns a fixed counter block, so
    the sample set does not depend on the batch size.  Returns
    (samples, summary); the summary carries the empirical mean,
    variance/n, and, when the exact lattice law is supplied, the
    Kolmogorov distance to it.
    """
    cfg = SampleConfig(seed=seed, n=n, trials=trials)
    L = max(mu.block_length, psi.memory)
    states, pi, Q = block_chain(mu, L)
    pv = np.array([psi(u) for u in states])
    k = len(states)
    cum_pi = np.cumsum(pi)
    cum_q = np.cumsum(Q, axis=1)
    draws_per_trial = n  # one start block plus n - 1 transitions
    blocks_per_trial = -(-draws_per_trial // _WORDS_PER_COUNTER)
    words_per_trial = blocks_per_trial * _WORDS_PER_COUNTER
    samples = np.empty(trials)
    for start in range(0, trials, _BATCH):
        batch = min(_BATCH, trials - start)
        u = _uniforms(cfg.seed, start * blocks_per_trial, batch * words_per_trial)
        u = u.reshape(batch, words_per_trial)
        state = np.minimum((u[:, 0, None] >= cum_pi).sum(axis=1), k - 1)
        total = pv[state].copy()
        for t in range(1, n):
            state = np.minimum((u[:, t, None] >= cum_q[state]).sum(axis=1), k - 1)
            total += pv[state]
        samples[start : start + batch] = total
    summary = {
        "mean": float(samples.mean()),
        "var_over_n": float(samples.var(ddof=1) / n) if trials > 1 else 0.0,
        "ks": None,
    }
    if exact is not None:
        summary["ks"] = kolmogorov_distance(samples, exact)
    return samples, summary


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
