"""Seeded Monte Carlo simulation of the Gibbs chain.

Reproducibility contract: all randomness comes from the Philox4x64-10
counter-based generator keyed by the 64-bit seed.  Uniform variates are
raw 64-bit words mapped to [0, 1) by u = (word >> 11) * 2**-53, and
categorical draws invert the CDF of pi over the blocks, then of each
block's successors in symbol (so lexicographic) order (tie rule: number
of cumulative weights <= u, at most the row's last entry of positive
weight); the tables are k x N.  Both samplers apply it in integers:
u >= c exactly when word >> 11 >= ceil(c * 2**53).  Trial t consumes
the counter block starting at t * blocks_per_trial, so outputs are
bit-identical across platforms, runs, and batch sizes.

The sampler of S_n finds each next symbol by indexed search (a guide
table; Chen and Asau 1974, Devroye 1986 section III.2.4): each row's
53-bit words split into 2**8 buckets, the table holds the count of the
row's thresholds at each bucket's first word, and a fixed number of
integer comparisons finishes the count, so every draw is the symbol a
binary search would give.  Trials run in batches whose words are copied
step major, so that each step reads one contiguous row of them.
"""

from bisect import bisect_right
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.random import Philox

from .errors import ValidationError
from .gibbs import block_chain, require_space
from .shift_space import block_moves

_WORDS_PER_COUNTER = 4
_BATCH = 1024  # trials; at n = 256 a batch's words are 2 MiB, so they stay in cache
_SCALE = 2.0**53
_GUIDE_BITS = 8  # each row's words split into 2**8 buckets
_SHIFT = 53 - _GUIDE_BITS  # a 53-bit word's bucket is w >> _SHIFT


@dataclass(frozen=True)
class SampleConfig:
    seed: int
    n: int
    trials: int = 1

    def __post_init__(self):
        for name in ("seed", "n", "trials"):
            value = getattr(self, name)
            if not isinstance(value, Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
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
    from the successor table's rows.  Distinct streams own disjoint
    counter blocks of the same keyed generator."""
    cfg = SampleConfig(seed=seed, n=n)
    ell = mu.block_length
    steps = max(n - ell, 0)
    draws = 1 + steps
    blocks = -(-draws // _WORDS_PER_COUNTER)
    if not (isinstance(stream, Integral) and 0 <= int(stream) * blocks < 2**256):
        raise ValidationError(
            f"stream must be an integer in [0, 2**256 / {blocks}), got {stream!r}")
    w = _words(cfg.seed, int(stream) * blocks, draws).tolist()
    first = _thresholds(np.cumsum(mu.stationary)).tolist()
    rows = _thresholds(np.cumsum(mu.successors, axis=1)).tolist()
    next_state, symbols = mu.next_state.tolist(), mu.space.symbols
    state = bisect_right(first, w[0])
    out = list(mu.states[state][:n])
    for t in range(steps):
        s = bisect_right(rows[state], w[1 + t])
        out.append(symbols[s])
        state = next_state[state][s]
    return tuple(out)


def empirical_birkhoff(mu, psi, n, trials, seed, exact=None):
    """Independent samples of S_n psi with summary statistics.

    Trials run in batches but each trial owns a fixed counter block, so
    the sample set does not depend on the batch size.  Each step applies
    the inversion rule in integers: u = w * 2**-53 >= c exactly when
    w >= ceil(c * 2**53), w = word >> 11.  From block s the next
    symbol a is the count of row s's thresholds <= w (2**53, which no w
    reaches, from the row's last successor of positive weight on: the
    clamp to that successor), found by `_search`, and the next block is
    entry [s, a] of the L-blocks' next-state table.  Its tables are
    k x N on the lift's k blocks.
    Returns (samples, summary); the summary carries the empirical mean,
    variance/n, and, when the exact lattice law is supplied, the
    Kolmogorov distance to it.
    """
    cfg = SampleConfig(seed=seed, n=n, trials=trials)
    require_space(mu, psi)
    if exact is not None and exact.n != n:
        raise ValidationError(f"the exact law is of S_{exact.n}, not of the sampled S_{n}")
    L = max(mu.block_length, psi.memory)
    pi, Q = block_chain(mu, L)
    moves = block_moves(mu.space, L)
    pv = psi.on(moves.blocks, L)
    first = _thresholds(np.cumsum(pi)).astype(np.int64)
    table = _guide_table(_thresholds(np.cumsum(Q, axis=1)).astype(np.int64))
    # the search result r = s * N + symbol indexes these
    next_state = moves.table(moves.J, mu.space.alphabet_size).ravel()
    next_base, next_psi = next_state << _GUIDE_BITS, pv[next_state]
    draws_per_trial = n  # one start block plus n - 1 transitions
    blocks_per_trial = -(-draws_per_trial // _WORDS_PER_COUNTER)
    words_per_trial = blocks_per_trial * _WORDS_PER_COUNTER
    samples = np.empty(trials)
    for start in range(0, trials, _BATCH):
        batch = min(_BATCH, trials - start)
        w = _words(cfg.seed, start * blocks_per_trial, batch * words_per_trial)
        # step major: w[t] holds step t of every trial in the batch
        w = w.reshape(batch, words_per_trial).T.astype(np.int64, order="C")
        state = first.searchsorted(w[0], side="right")
        base = state << _GUIDE_BITS
        total = pv[state].copy()
        for t in range(1, n):
            r = _search(table, base, w[t])
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


def _guide_table(th):
    """The indexed search in the k x D integer thresholds th (int64,
    rows nondecreasing, last column 2**53; D = N for the successor
    tables): (guide, th.ravel(), past, rounds).

    guide[s << _GUIDE_BITS | b] is the flat index s * D + #{th[s] <= b's
    first word}, for each bucket b of row s's words; past[r] is the flat
    index just past the run of thresholds equal to the r-th (zero-mass
    moves repeat a threshold); rounds, the most distinct thresholds
    strictly inside one bucket, is the most jumps one search needs.
    """
    k, D = th.shape
    buckets = 1 << _GUIDE_BITS
    rows = np.repeat(np.arange(k), D)
    flat = th.ravel()
    # th <= b << _SHIFT exactly when b >= the ceiling of th / 2**_SHIFT
    reached = (flat + ((1 << _SHIFT) - 1)) >> _SHIFT
    counts = np.bincount(rows * (buckets + 1) + reached, minlength=k * (buckets + 1))
    guide = np.cumsum(counts.reshape(k, buckets + 1)[:, :buckets], axis=1)
    guide += (np.arange(k) * D)[:, None]
    # runs of equal thresholds; one that crosses rows is of 2**53, which
    # no search jumps past
    starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    past = np.repeat(np.r_[starts[1:], flat.size], np.diff(np.r_[starts, flat.size]))
    # a threshold off every bucket's first word lies strictly inside one
    inside = starts[flat[starts] & ((1 << _SHIFT) - 1) != 0]
    per_bucket = np.bincount(rows[inside] << _GUIDE_BITS | flat[inside] >> _SHIFT)
    return guide.ravel(), flat, past, int(per_bucket.max(initial=0))


def _search(table, base, w):
    """Flat indices s * D + #{th[s] <= w} of the 53-bit words w (int64)
    in rows s = base >> _GUIDE_BITS of a `_guide_table`: the count at
    the start of w's bucket, then `rounds` jumps past each run of
    thresholds <= w."""
    guide, flat, past, rounds = table
    r = guide[base | w >> _SHIFT]
    for _ in range(rounds):
        r = np.where(flat[r] <= w, past[r], r)
    return r


def _thresholds(cum):
    """The least words w >> 11 that reach each cumulative weight, as
    uint64, with 2**53 (never reached) for weights of 1 or more or NaN
    and from the row's last entry of positive weight on, where the
    cumulative weights reach the row's total."""
    t = np.fmax(np.fmin(np.ceil(cum * _SCALE), _SCALE), 0.0)
    t[cum >= cum[..., -1:]] = _SCALE
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
